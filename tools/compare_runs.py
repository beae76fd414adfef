"""Compare the outputs of two benchmark runs of one workload and seed.

Usage: python tools/compare_runs.py A.json B.json

A and B are ``.bench_out/<workload>-seed<seed>-trace<0|1>.json`` files
written by ``bench/run.py``, for instance by two versions of the code.
Prints the largest relative difference of the jobs' norms and of their
omegas, each with the first job that has it, the total of each
deterministic count (iterations, basis dimension, inner evaluations, ...)
over the jobs on both sides, then every job whose counts or failed flag
differ.  When both runs are traced (``--trace 1``),
it then prints each per-layer count of the traced round on both sides, and
how many spans of each name (``greedy.expand``, ...) the spans file that
each run names in ``notes.spans`` holds, when both files are there; that
path is taken from the directory that holds the run's ``.bench_out``.
Last it prints each metric that either run file records on both sides:
the end-to-end metrics (wall_s, peak_rss_mb, ...) of untraced runs, the
per-layer ones of traced runs.  Exits with 1 when a job differs in its
counts or failed flag, when a layer or span count differs, or when the two
runs do not hold the same jobs, else 0; metrics, which vary between runs of
the same code, do not count.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path


def relative_difference(a: float, b: float) -> float:
    """|a - b| over the larger magnitude; 0 for two equal values (NaNs
    included) and inf for one NaN."""
    if a == b or (math.isnan(a) and math.isnan(b)):
        return 0.0
    if math.isnan(a) or math.isnan(b):
        return math.inf
    return abs(a - b) / max(abs(a), abs(b))


def compare(a: dict, b: dict) -> tuple[dict, list]:
    """({"norm": ..., "omega": ...} largest relative differences, each a
    (difference, label) pair with the label of the first job that has it,
    None when no job differs; lines naming each job that differs in its
    counts or failed flag)."""
    jobs_a, jobs_b = a["jobs"], b["jobs"]
    labels_a = [j["label"] for j in jobs_a]
    labels_b = [j["label"] for j in jobs_b]
    if labels_a != labels_b:
        return {}, [f"different jobs: {labels_a} vs {labels_b}"]
    counts_a, counts_b = a["counts"]["jobs"], b["counts"]["jobs"]
    worst = {"norm": (0.0, None), "omega": (0.0, None)}
    differ = []
    for ja, jb, ca, cb in zip(jobs_a, jobs_b, counts_a, counts_b):
        for key in worst:
            diff = relative_difference(ja[key], jb[key])
            if diff > worst[key][0]:
                worst[key] = (diff, ja["label"])
        changed = sorted(k for k in ca.keys() | cb.keys()
                         if ca.get(k) != cb.get(k))
        if ja["failed"] != jb["failed"]:
            changed.append("failed")
        if changed:
            differ.append(f"{ja['label']}: " + ", ".join(
                f"{k} {ja[k] if k == 'failed' else ca.get(k)} -> "
                f"{jb[k] if k == 'failed' else cb.get(k)}" for k in changed))
    return worst, differ


def count_totals(run: dict) -> dict:
    """Each deterministic count summed over the run's jobs."""
    totals = {}
    for counts in run["counts"]["jobs"]:
        for key, value in counts.items():
            totals[key] = totals.get(key, 0) + value
    return totals


def count_lines(what: str, counts_a: dict, counts_b: dict) -> list:
    """One line per count of either side, both sides' values, led by
    DIFFERS where they differ; None on a side that lacks it."""
    lines = []
    for key in sorted(counts_a.keys() | counts_b.keys()):
        va, vb = counts_a.get(key), counts_b.get(key)
        lines.append(("" if va == vb else "DIFFERS ")
                     + f"{what} {key} {va} -> {vb}")
    return lines


def compare_layers(a: dict, b: dict) -> list:
    """count_lines of two traced runs' layer counts; empty unless both runs
    are traced."""
    layers_a, layers_b = a["counts"].get("layers"), b["counts"].get("layers")
    if layers_a is None or layers_b is None:
        return []
    return count_lines("layer", layers_a, layers_b)


def span_counts(path: str, run: dict) -> dict | None:
    """How many spans of each name the spans file that the run at path
    names in ``notes.spans`` holds; None when it names none or the file is
    not there."""
    spans = run.get("notes", {}).get("spans")
    if spans is None:
        return None
    spans_path = Path(path).resolve().parent.parent / spans
    if not spans_path.is_file():
        return None
    counts = {}
    with open(spans_path) as fh:
        for line in fh:
            name = json.loads(line)["name"]
            counts[name] = counts.get(name, 0) + 1
    return counts


def metric_lines(a: dict, b: dict) -> list:
    """One line per metric of either run, with both sides' values; None
    on a side that lacks it."""
    metrics_a, metrics_b = a.get("metrics", {}), b.get("metrics", {})

    def shown(value):
        return "None" if value is None else f"{value:.6g}"

    return [f"metric {key} {shown(metrics_a.get(key))} -> "
            f"{shown(metrics_b.get(key))}"
            for key in metrics_a | metrics_b]


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    runs = []
    for path in argv:
        with open(path) as fh:
            runs.append(json.load(fh))
    worst, differ = compare(*runs)
    for key, (value, label) in worst.items():
        print(f"max relative {key} difference: {value:.3g}"
              + ("" if label is None else f" ({label})"))
    totals_a, totals_b = (count_totals(run) for run in runs)
    for key in sorted(totals_a.keys() | totals_b.keys()):
        print(f"total {key} {totals_a.get(key, 0)} -> {totals_b.get(key, 0)}")
    for line in differ:
        print(f"DIFFERS {line}")
    print(f"{len(differ)} job(s) differ in counts or failed flag")
    spans = [span_counts(path, run) for path, run in zip(argv, runs)]
    counts_differ = 0
    for what, lines in (
            ("layer", compare_layers(*runs)),
            ("span", [] if None in spans else count_lines("span", *spans))):
        n_differ = sum(line.startswith("DIFFERS") for line in lines)
        for line in lines:
            print(line)
        if lines:
            print(f"{n_differ} {what} count(s) differ")
        counts_differ += n_differ
    for line in metric_lines(*runs):
        print(line)
    return 1 if differ or counts_differ else 0


if __name__ == "__main__":
    sys.exit(main())
