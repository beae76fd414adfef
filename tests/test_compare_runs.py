"""Tests for tools/compare_runs.py on small synthetic benchmark outputs."""

import importlib.util
import json
import math
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "compare_runs.py"


@pytest.fixture(scope="module")
def compare_runs():
    spec = importlib.util.spec_from_file_location("compare_runs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _run(norms, omegas, iterations, failed):
    """A trace0 file's fields that the tool reads, one job per entry."""
    return {
        "counts": {"jobs": [{"iterations": k, "basis_dim": 10 + k}
                            for k in iterations]},
        "jobs": [{"label": f"job {i}", "norm": x, "omega": w, "failed": f}
                 for i, (x, w, f) in enumerate(zip(norms, omegas, failed))],
    }


def _write(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def test_equal_runs(compare_runs, tmp_path, capsys):
    doc = _run([0.5, float("nan")], [1.0, 0.0], [3, 4], [False, True])
    a = _write(tmp_path, "a.json", doc)
    b = _write(tmp_path, "b.json", doc)
    assert compare_runs.main([a, b]) == 0
    lines = capsys.readouterr().out.splitlines()
    # no job to name when none differs
    assert lines[:2] == ["max relative norm difference: 0",
                         "max relative omega difference: 0"]
    assert "0 job(s) differ in counts or failed flag" in lines


def test_differences_are_reported(compare_runs, tmp_path, capsys):
    a = _write(tmp_path, "a.json",
               _run([0.5, 2.0, 1.0], [1.0, 2.0, 3.0], [3, 4, 5],
                    [False, False, False]))
    b = _write(tmp_path, "b.json",
               _run([0.5 * (1 + 1e-13), 2.0, 0.9], [1.0, 2.0 + 2e-9, 3.0],
                    [3, 6, 5], [False, False, True]))
    assert compare_runs.main([a, b]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "max relative norm difference: 0.1 (job 2)"
    assert lines[1] == "max relative omega difference: 1e-09 (job 1)"
    assert lines[2:] == [
        "total basis_dim 42 -> 44",
        "total iterations 12 -> 14",
        "DIFFERS job 1: basis_dim 14 -> 16, iterations 4 -> 6",
        "DIFFERS job 2: failed False -> True",
        "2 job(s) differ in counts or failed flag"]


def test_largest_difference_names_its_first_job(compare_runs, tmp_path,
                                                capsys):
    # job 1 and job 2 tie on the norm; job 0's omega differs most
    a = _write(tmp_path, "a.json",
               _run([1.0, 1.0, 2.0], [4.0, 2.0, 2.0], [3, 3, 3],
                    [False, False, False]))
    b = _write(tmp_path, "b.json",
               _run([1.0, 1.5, 3.0], [2.0, 1.5, 2.0], [3, 3, 3],
                    [False, False, False]))
    assert compare_runs.main([a, b]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[:2] == ["max relative norm difference: 0.333 (job 1)",
                         "max relative omega difference: 0.5 (job 0)"]


def test_count_totals(compare_runs, tmp_path, capsys):
    # a count that only one side's jobs hold totals 0 on the other side
    doc_a = _run([0.5, 0.6], [1.0, 1.0], [141, 93], [False, False])
    doc_b = _run([0.5, 0.6], [1.0, 1.0], [93, 93], [False, False])
    doc_b["counts"]["jobs"][1]["refine_iters"] = 7
    assert compare_runs.count_totals(doc_a) == {"iterations": 234,
                                                "basis_dim": 254}
    a = _write(tmp_path, "a.json", doc_a)
    b = _write(tmp_path, "b.json", doc_b)
    assert compare_runs.main([a, b]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[2:5] == ["total basis_dim 254 -> 206",
                          "total iterations 234 -> 186",
                          "total refine_iters 0 -> 7"]


def test_layer_counts_of_traced_runs(compare_runs, tmp_path, capsys):
    doc_a = _run([0.5], [1.0], [3], [False])
    doc_b = _run([0.5], [1.0], [3], [False])
    doc_a["counts"]["layers"] = {"greedy.kept_cols": 80,
                                 "greedy.offered_cols": 88}
    doc_b["counts"]["layers"] = {"greedy.kept_cols": 80,
                                 "greedy.offered_cols": 88}
    a = _write(tmp_path, "a.json", doc_a)
    b = _write(tmp_path, "b.json", doc_b)
    assert compare_runs.main([a, b]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[-3:] == ["layer greedy.kept_cols 80 -> 80",
                          "layer greedy.offered_cols 88 -> 88",
                          "0 layer count(s) differ"]
    # a layer count that moved, or that one side lacks, fails the comparison
    doc_b["counts"]["layers"] = {"greedy.kept_cols": 79,
                                 "inner.evaluations": 5}
    b = _write(tmp_path, "b.json", doc_b)
    assert compare_runs.main([a, b]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert "0 job(s) differ in counts or failed flag" in lines
    assert lines[-4:] == ["DIFFERS layer greedy.kept_cols 80 -> 79",
                          "DIFFERS layer greedy.offered_cols 88 -> None",
                          "DIFFERS layer inner.evaluations None -> 5",
                          "3 layer count(s) differ"]
    # an untraced side: no layer lines
    b = _write(tmp_path, "b.json", _run([0.5], [1.0], [3], [False]))
    assert compare_runs.main([a, b]) == 0
    assert "layer" not in capsys.readouterr().out


def _traced(tmp_path, side, names):
    """A traced run file in side/.bench_out whose notes.spans names a
    spans file beside it, one span per entry of names; returns its path."""
    out = tmp_path / side / ".bench_out"
    out.mkdir(parents=True)
    (out / "w-seed3-spans.jsonl").write_text("".join(
        json.dumps({"name": name, "start": 0.0, "end": 1.0, "parent": -1,
                    "job": 0, "attrs": None}) + "\n" for name in names))
    doc = _run([0.5], [1.0], [3], [False])
    doc["counts"]["layers"] = {"greedy.kept_cols": 80}
    doc["notes"] = {"spans": ".bench_out/w-seed3-spans.jsonl"}
    return _write(out, "w-seed3-trace1.json", doc)


def test_span_counts_of_traced_runs(compare_runs, tmp_path, capsys):
    a = _traced(tmp_path, "a", ["greedy.run", "greedy.expand",
                                "greedy.expand"])
    b = _traced(tmp_path, "b", ["greedy.run", "greedy.expand",
                                "greedy.expand"])
    assert compare_runs.main([a, b]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[-3:] == ["span greedy.expand 2 -> 2",
                          "span greedy.run 1 -> 1",
                          "0 span count(s) differ"]
    # a span count that moved, or that one side lacks, fails the comparison
    c = _traced(tmp_path, "c", ["greedy.run", "greedy.expand",
                                "greedy.expansion_block"])
    assert compare_runs.main([a, c]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert "0 layer count(s) differ" in lines
    assert lines[-4:] == ["DIFFERS span greedy.expand 2 -> 1",
                          "DIFFERS span greedy.expansion_block None -> 1",
                          "span greedy.run 1 -> 1",
                          "2 span count(s) differ"]
    # a missing spans file: no span lines
    (tmp_path / "c" / ".bench_out" / "w-seed3-spans.jsonl").unlink()
    assert compare_runs.main([a, c]) == 0
    assert "span" not in capsys.readouterr().out


def test_metrics_are_printed_and_do_not_fail(compare_runs, tmp_path, capsys):
    doc_a = _run([0.5], [1.0], [3], [False])
    doc_b = _run([0.5], [1.0], [3], [False])
    doc_a["metrics"] = {"wall_s": 1.336, "peak_rss_mb": 159.3, "setup_s": 0.4}
    doc_b["metrics"] = {"wall_s": 1.326, "peak_rss_mb": 117.8125,
                        "job_s_p50": 0.2}
    a = _write(tmp_path, "a.json", doc_a)
    b = _write(tmp_path, "b.json", doc_b)
    assert compare_runs.main([a, b]) == 0
    lines = capsys.readouterr().out.splitlines()
    # in the first file's order, then the second's; None where one lacks it
    assert lines[-4:] == ["metric wall_s 1.336 -> 1.326",
                          "metric peak_rss_mb 159.3 -> 117.812",
                          "metric setup_s 0.4 -> None",
                          "metric job_s_p50 None -> 0.2"]


def test_relative_difference(compare_runs):
    rel = compare_runs.relative_difference
    assert rel(0.0, 0.0) == 0.0
    assert rel(float("nan"), float("nan")) == 0.0
    assert math.isinf(rel(1.0, float("nan")))
    assert rel(2.0, 1.0) == 0.5


def test_different_job_lists(compare_runs, tmp_path, capsys):
    a = _write(tmp_path, "a.json", _run([0.5], [1.0], [3], [False]))
    b = _write(tmp_path, "b.json", _run([0.5, 0.6], [1.0, 1.0], [3, 3],
                                        [False, False]))
    assert compare_runs.main([a, b]) == 1
    assert "different jobs" in capsys.readouterr().out
