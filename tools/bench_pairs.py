"""Alternate benchmark runs of a parent revision and of this checkout, and
write the paired comparison to BENCH_<workload>.json at the repository root.

Usage: python tools/bench_pairs.py PARENT_REV --workload W --seeds A-B
                                   [--scale full|smoke]

PARENT_REV, any git revision, is exported with ``git archive`` into a
temporary directory that is removed at the end; the change is this checkout
as it stands, uncommitted edits included.  An export leaves nothing behind
in ``.git``, where a worktree stays registered if the tool is killed, and
``bench/run.py`` needs only the files.  For each seed from A to B, each side
makes one untraced ``bench/run.py`` run from its own tree, and the side that
runs first alternates from pair to pair.

The file holds both revisions, each side's benchmark environment, every
pair's end-to-end metrics with the tools/compare_runs.py summary of its
jobs, and per metric each side's median and quartiles, the pairs the change
won (ties count for neither side) and a verdict:

* ``gain``: the change won at least nine tenths of at least ten pairs, and
  its median is better than the parent's by more than the parent's
  interquartile range;
* ``worse``: its median is worse than the parent's by more than the
  metric's bound in BENCHMARK.json, a fraction of the parent's median;
* ``within bound`` otherwise.

Exits with 1, writing nothing, when a run fails or reports a wrong result;
with 1, after writing the file, when the two sides of a pair hold different
jobs or differ in a job's counts or failed flag; else with 0.
"""

from __future__ import annotations

import argparse
import io
import json
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from compare_runs import compare  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")
#: a gain needs at least this many pairs, and the change must win at least
#: WIN_SHARE of them
MIN_PAIRS = 10
WIN_SHARE = 0.9


class RunFailed(Exception):
    pass


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True,
                          text=True, check=True).stdout.strip()


def export(rev: str, dest: Path) -> None:
    """The files of rev, as committed, under dest."""
    tar = subprocess.run(["git", "archive", "--format=tar", rev], cwd=ROOT,
                         capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        archive.extractall(dest, filter="data")


def run_side(tree: Path, workload: str, seed: int, scale: str) -> dict:
    """The run file that one untraced bench/run.py run of tree writes."""
    proc = subprocess.run(
        [sys.executable, str(tree / "bench" / "run.py"), "--workload",
         workload, "--seed", str(seed), "--trace", "0", "--scale", scale],
        cwd=tree, capture_output=True, text=True, timeout=900)
    if proc.returncode:
        raise RunFailed(f"{tree}: seed {seed}: exit {proc.returncode}: "
                        f"{proc.stderr.strip()[-500:]}")
    if not json.loads(proc.stdout.strip().splitlines()[-1])["correct"]:
        raise RunFailed(f"{tree}: seed {seed}: wrong results: "
                        f"{proc.stderr.strip()[-500:]}")
    path = tree / ".bench_out" / f"{workload}-seed{seed}-trace0.json"
    return json.loads(path.read_text())


def seed_range(text: str) -> list:
    """The seeds of "A-B", A to B inclusive, or of a single "A"."""
    first, _, last = text.partition("-")
    seeds = list(range(int(first), int(last or first) + 1))
    if not seeds:
        raise argparse.ArgumentTypeError(f"empty seed range {text!r}")
    return seeds


def quartiles(values) -> tuple:
    """(first quartile, median, third quartile), each interpolated linearly
    between the two nearest sorted values."""
    v = sorted(values)

    def at(share):
        pos = share * (len(v) - 1)
        lo = int(pos)
        hi = min(lo + 1, len(v) - 1)
        return v[lo] + (v[hi] - v[lo]) * (pos - lo)

    return at(0.25), at(0.5), at(0.75)


def pair_record(seed: int, first: str, docs: dict) -> dict:
    """One pair: its seed, the side that ran first, each side's end-to-end
    metrics, and how the change's jobs compare with the parent's."""
    worst, differ = compare(docs["parent"], docs["change"])
    return {"seed": seed, "first": first,
            **{side: docs[side]["metrics"] for side in SIDES},
            "jobs": {"differing": differ,
                     **{f"max_relative_{key}_difference": value
                        for key, (value, _) in worst.items()}}}


def summarize(pairs: list, spec: list) -> dict:
    """Per end-to-end metric of spec, each side's quartiles over the
    pairs, the pairs the change won, and the verdict."""
    out = {}
    for metric in spec:
        name = metric["name"]
        sign = 1.0 if metric["better"] == "lower" else -1.0
        values = {side: [p[side][name] for p in pairs] for side in SIDES}
        q = {side: quartiles(values[side]) for side in SIDES}
        wins = sum(sign * (c - p) < 0 for p, c in
                   zip(values["parent"], values["change"]))
        gain = sign * (q["parent"][1] - q["change"][1])
        iqr = q["parent"][2] - q["parent"][0]
        if (len(pairs) >= MIN_PAIRS and wins >= WIN_SHARE * len(pairs)
                and gain > iqr):
            verdict = "gain"
        elif -gain > metric["bound"] * abs(q["parent"][1]):
            verdict = "worse"
        else:
            verdict = "within bound"
        out[name] = {
            "unit": metric["unit"], "better": metric["better"],
            "bound": metric["bound"],
            **{side: dict(zip(("q1", "median", "q3"), q[side]))
               for side in SIDES},
            "parent_iqr": iqr, "wins": wins, "pairs": len(pairs),
            "verdict": verdict}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", metavar="PARENT_REV")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seed_range, required=True)
    parser.add_argument("--scale", choices=("full", "smoke"), default="full")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    revisions = {
        "parent": {"rev": args.parent,
                   "commit": git("rev-parse", "--verify",
                                 f"{args.parent}^{{commit}}")},
        "change": {"commit": git("rev-parse", "HEAD"),
                   "dirty": bool(git("status", "--porcelain",
                                     "--untracked-files=no"))}}
    pairs, envs = [], {}
    with tempfile.TemporaryDirectory(prefix="bench_pairs_") as tmp:
        trees = {"parent": Path(tmp) / "parent", "change": ROOT}
        export(args.parent, trees["parent"])
        for k, seed in enumerate(args.seeds):
            order = SIDES if k % 2 == 0 else SIDES[::-1]
            docs = {}
            for side in order:
                try:
                    docs[side] = run_side(trees[side], args.workload, seed,
                                          args.scale)
                except RunFailed as err:
                    print(f"run failed: {err}", file=sys.stderr)
                    return 1
                envs.setdefault(side, docs[side]["env"])
            pairs.append(pair_record(seed, order[0], docs))
            print(f"seed {seed}: " + ", ".join(
                f"{m['name']} {pairs[-1]['parent'][m['name']]:.6g} -> "
                f"{pairs[-1]['change'][m['name']]:.6g}" for m in spec))
    metrics = summarize(pairs, spec)
    report = {"workload": args.workload, "scale": args.scale,
              "seeds": args.seeds, "revisions": revisions, "env": envs,
              "gains": [name for name, m in metrics.items()
                        if m["verdict"] == "gain"],
              "metrics": metrics, "pairs": pairs}
    path = ROOT / f"BENCH_{args.workload}.json"
    path.write_text(json.dumps(report, indent=1) + "\n")
    for name, m in metrics.items():
        print(f"{name}: parent {m['parent']['median']:.6g} "
              f"[{m['parent']['q1']:.6g}, {m['parent']['q3']:.6g}], change "
              f"{m['change']['median']:.6g} [{m['change']['q1']:.6g}, "
              f"{m['change']['q3']:.6g}] {m['unit']}; change won "
              f"{m['wins']} of {m['pairs']}: {m['verdict']}")
    differ = [f"seed {p['seed']}: {line}" for p in pairs
              for line in p["jobs"]["differing"]]
    for line in differ:
        print(f"DIFFERS {line}")
    print(f"wrote {path.name}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
