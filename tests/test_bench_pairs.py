"""Tests for tools/bench_pairs.py on synthetic benchmark run files."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "bench_pairs.py"
SPEC = [{"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.25},
        {"name": "peak_rss_mb", "unit": "MB", "better": "lower",
         "bound": 0.2}]


@pytest.fixture(scope="module")
def bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _run(wall, rss, iterations=(1, 2), side="change"):
    """The fields of a trace0 run file that the tool reads."""
    return {
        "env": {"side": side},
        "metrics": {"wall_s": wall, "peak_rss_mb": rss},
        "counts": {"jobs": [{"iterations": k} for k in iterations]},
        "jobs": [{"label": f"job {i}", "norm": 0.5, "omega": 3.0,
                  "failed": False} for i in range(len(iterations))],
    }


def _pairs(bench_pairs, parent, change):
    """Pair records from per-pair (wall_s, peak_rss_mb) of each side."""
    return [bench_pairs.pair_record(seed, "parent", {
        "parent": _run(*p, side="parent"), "change": _run(*c)})
        for seed, (p, c) in enumerate(zip(parent, change))]


def test_quartiles_interpolate(bench_pairs):
    assert bench_pairs.quartiles(range(1, 11)) == (3.25, 5.5, 7.75)
    assert bench_pairs.quartiles([4.0, 1.0, 3.0, 2.0]) == (1.75, 2.5, 3.25)
    assert bench_pairs.quartiles([2.0]) == (2.0, 2.0, 2.0)


def test_seed_range(bench_pairs):
    assert bench_pairs.seed_range("901-903") == [901, 902, 903]
    assert bench_pairs.seed_range("7") == [7]
    with pytest.raises(Exception, match="empty seed range"):
        bench_pairs.seed_range("3-1")


def test_gain_needs_nine_tenths_of_ten_pairs(bench_pairs):
    parent = [(1.0, 117.0 + 0.1 * k) for k in range(10)]
    change = [(1.0, 108.0 + 0.1 * k) for k in range(10)]
    out = bench_pairs.summarize(_pairs(bench_pairs, parent, change), SPEC)
    rss = out["peak_rss_mb"]
    assert rss["verdict"] == "gain"
    assert rss["wins"] == 10 and rss["pairs"] == 10
    assert rss["parent"]["median"] == pytest.approx(117.45)
    assert rss["change"]["median"] == pytest.approx(108.45)
    assert rss["parent_iqr"] == pytest.approx(0.45)
    # equal values are ties, which count for neither side
    assert out["wall_s"]["wins"] == 0
    assert out["wall_s"]["verdict"] == "within bound"
    # one pair lost leaves 9 of 10, still a gain; two leave 8
    change[0] = (1.0, 118.0)
    rss = bench_pairs.summarize(_pairs(bench_pairs, parent, change),
                                SPEC)["peak_rss_mb"]
    assert (rss["wins"], rss["verdict"]) == (9, "gain")
    change[1] = (1.0, 118.0)
    rss = bench_pairs.summarize(_pairs(bench_pairs, parent, change),
                                SPEC)["peak_rss_mb"]
    assert (rss["wins"], rss["verdict"]) == (8, "within bound")
    # nine pairs, all won, are too few
    pairs = _pairs(bench_pairs, parent[:9], [(1.0, 100.0)] * 9)
    rss = bench_pairs.summarize(pairs, SPEC)["peak_rss_mb"]
    assert (rss["wins"], rss["verdict"]) == (9, "within bound")


def test_gain_needs_a_gap_wider_than_the_parent_iqr(bench_pairs):
    # every pair won, but the medians differ by 0.5 and the parent's
    # quartiles lie 4.5 apart
    parent = [(1.0, 110.0 + k) for k in range(10)]
    change = [(1.0, 109.5 + k) for k in range(10)]
    rss = bench_pairs.summarize(_pairs(bench_pairs, parent, change),
                                SPEC)["peak_rss_mb"]
    assert rss["wins"] == 10
    assert rss["parent_iqr"] == pytest.approx(4.5)
    assert rss["verdict"] == "within bound"


def test_worse_beyond_the_bound(bench_pairs):
    parent = [(1.0, 100.0)] * 3
    out = bench_pairs.summarize(
        _pairs(bench_pairs, parent, [(1.3, 100.0)] * 3), SPEC)
    assert out["wall_s"]["verdict"] == "worse"
    out = bench_pairs.summarize(
        _pairs(bench_pairs, parent, [(1.2, 100.0)] * 3), SPEC)
    assert out["wall_s"]["verdict"] == "within bound"


@pytest.fixture
def fake_repo(bench_pairs, tmp_path, monkeypatch):
    """The tool pointed at tmp_path, with git and the runs replaced: the
    parent's peak RSS is 117 MB and the change's 108 MB; ``runs`` records
    (side, seed) in run order, and ``differ`` makes the change's last job
    take one more iteration."""
    (tmp_path / "BENCHMARK.json").write_text(
        json.dumps({"end_to_end": SPEC}))
    monkeypatch.setattr(bench_pairs, "ROOT", tmp_path)
    monkeypatch.setattr(bench_pairs, "git", lambda *args: "abc123")
    monkeypatch.setattr(bench_pairs, "export",
                        lambda rev, dest: dest.mkdir(parents=True))
    state = {"runs": [], "differ": False, "fail": False}

    def run_side(tree, workload, seed, scale):
        side = "change" if tree == tmp_path else "parent"
        state["runs"].append((side, seed))
        if state["fail"]:
            raise bench_pairs.RunFailed("exit 3")
        if side == "parent":
            return _run(1.0, 117.0 + 0.01 * seed, side=side)
        return _run(1.0, 108.0, iterations=(1, 3 if state["differ"] else 2))

    monkeypatch.setattr(bench_pairs, "run_side", run_side)
    return state


def test_main_alternates_and_writes_the_report(bench_pairs, fake_repo,
                                               tmp_path):
    assert bench_pairs.main(["HEAD~1", "--workload", "toy",
                             "--seeds", "1-10"]) == 0
    runs = fake_repo["runs"]
    assert [side for side, _ in runs[:4]] == ["parent", "change",
                                              "change", "parent"]
    assert [seed for _, seed in runs] == [s for s in range(1, 11)
                                          for _ in range(2)]
    report = json.loads((tmp_path / "BENCH_toy.json").read_text())
    assert report["gains"] == ["peak_rss_mb"]
    assert report["seeds"] == list(range(1, 11))
    assert report["env"] == {"parent": {"side": "parent"},
                             "change": {"side": "change"}}
    assert report["revisions"]["parent"] == {"rev": "HEAD~1",
                                             "commit": "abc123"}
    assert [p["first"] for p in report["pairs"][:2]] == ["parent", "change"]
    assert report["pairs"][0]["jobs"]["differing"] == []
    assert report["metrics"]["wall_s"]["verdict"] == "within bound"


def test_main_one_pair_claims_nothing(bench_pairs, fake_repo, tmp_path):
    assert bench_pairs.main(["HEAD", "--workload", "toy",
                             "--seeds", "1-1", "--scale", "smoke"]) == 0
    report = json.loads((tmp_path / "BENCH_toy.json").read_text())
    assert report["gains"] == []
    assert report["scale"] == "smoke"


def test_main_fails_on_differing_jobs(bench_pairs, fake_repo, tmp_path,
                                      capsys):
    fake_repo["differ"] = True
    assert bench_pairs.main(["HEAD", "--workload", "toy",
                             "--seeds", "1-2"]) == 1
    out = capsys.readouterr().out
    assert "DIFFERS seed 1: job 1: iterations 2 -> 3" in out
    report = json.loads((tmp_path / "BENCH_toy.json").read_text())
    assert report["pairs"][1]["jobs"]["differing"] == [
        "job 1: iterations 2 -> 3"]


def test_main_writes_nothing_when_a_run_fails(bench_pairs, fake_repo,
                                              tmp_path):
    fake_repo["fail"] = True
    assert bench_pairs.main(["HEAD", "--workload", "toy",
                             "--seeds", "1-2"]) == 1
    assert not (tmp_path / "BENCH_toy.json").exists()
