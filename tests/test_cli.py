"""End-to-end tests for the command-line entry point."""

import argparse
import csv
import dataclasses
import json
import re
from pathlib import Path

import pytest

import linfnorm.cli as cli
import linfnorm.greedy as greedy
import linfnorm.oracle as oracle
from linfnorm.cli import EXIT_ERROR, EXIT_OK, EXIT_WARNINGS, main
from linfnorm.errors import SingularShift
from linfnorm.greedy import RunConfig, SolverResult
from linfnorm.inner import InnerConfig

from conftest import (complex_two_pole, improper_descriptor,
                      outside_peak_descriptor)
from test_problems import one_pole_manifest, write_mtx_dense


def descriptor_manifest(tmp_path, e, a, b, c):
    """Manifest for H(s) = C (sE - A)^{-1} B; returns the manifest path."""
    for name, mat in (("E", e), ("A0", -a), ("B", b), ("C", c)):
        write_mtx_dense(tmp_path / f"{name}.mtx", mat)
    manifest = tmp_path / "problem.json"
    manifest.write_text(json.dumps({
        "dimensions": {"n": a.shape[0], "m": b.shape[1], "p": c.shape[0]},
        "B": [{"matrix": "B.mtx"}],
        "C": [{"matrix": "C.mtx"}],
        "D": [{"k": 1, "matrix": "E.mtx"}, {"k": 0, "matrix": "A0.mtx"}],
    }))
    return manifest


class TestNormCommand:
    def test_report_json(self, tmp_path, capsys):
        manifest = one_pole_manifest(tmp_path)
        report = tmp_path / "report.json"
        code = main(["norm", str(manifest), "--omega-max", "5",
                     "--report", str(report)])
        assert code == EXIT_OK
        doc = json.loads(report.read_text())
        assert doc["norm"] == pytest.approx(1.0)
        assert doc["omega_opt"] == pytest.approx(0.0, abs=1e-8)
        assert doc["stop_reason"] == "converged"
        # the pole at -1 seeds omega = 0, which is an equidistant point and
        # so neither a seed nor a seed outside the interval
        assert doc["seeds"] == []
        assert doc["events"] == []
        assert set(doc) == {"norm", "omega_opt", "iterations", "stop_reason",
                            "seeds", "history", "events", "wall_time"}
        printed = json.loads(capsys.readouterr().out)
        assert printed == doc
        json.dumps(doc, allow_nan=False)

    def test_manifest_config_defaults(self, tmp_path, capsys):
        manifest = one_pole_manifest(tmp_path, config={"omega_max": 5.0,
                                                       "r0": 3})
        assert main(["norm", str(manifest)]) == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        assert doc["norm"] == pytest.approx(1.0)

    def test_missing_omega_max_is_an_error(self, tmp_path, capsys):
        manifest = one_pole_manifest(tmp_path)
        assert main(["norm", str(manifest)]) == EXIT_ERROR
        assert "omega_max" in capsys.readouterr().err

    @pytest.mark.parametrize("key, config", [
        ("interval", {"omega_max": 5.0, "interval": 5}),
        ("interval", {"omega_max": 5.0, "interval": [0.0, "5"]}),
        ("r0", {"omega_max": 5.0, "r0": None}),
        ("r0", {"omega_max": 5.0, "r0": 2.5}),
        ("r_max", {"omega_max": 5.0, "r_max": True}),
        ("eps", {"omega_max": 5.0, "eps": [1]}),
        ("gamma", {"omega_max": 5.0, "gamma": "x"}),
        ("max_inner_iters", {"omega_max": 5.0, "max_inner_iters": 2.5}),
        ("omega_max", {"omega_max": [10]}),
    ])
    def test_manifest_config_of_the_wrong_type_is_an_error(
            self, tmp_path, capsys, key, config):
        manifest = one_pole_manifest(tmp_path, config=config)
        assert main(["norm", str(manifest)]) == EXIT_ERROR
        err = capsys.readouterr().err
        assert err.startswith(f"error: manifest config {key!r} must be")

    @pytest.mark.parametrize("key, config", [
        ("subspace_policy", {"omega_max": 5.0, "subspace_policy": "lasttwo"}),
        ("rmax", {"omega_max": 5.0, "rmax": 1}),
        ("expansion_mode", {"omega_max": 5.0, "expansion_mode": "full"}),
    ])
    def test_unknown_manifest_config_key_is_an_error(self, tmp_path, capsys,
                                                     key, config):
        manifest = one_pole_manifest(tmp_path, config=config)
        assert main(["norm", str(manifest)]) == EXIT_ERROR
        captured = capsys.readouterr()
        assert captured.err == f"error: unknown manifest config key {key!r}\n"
        assert captured.out == ""

    def test_command_line_overrides_a_manifest_config_value(self, tmp_path,
                                                            capsys):
        # only the manifest values in use are checked
        manifest = one_pole_manifest(tmp_path, config={"omega_max": 5.0,
                                                       "r0": 2.5})
        assert main(["norm", str(manifest), "--r0", "3"]) == EXIT_OK
        assert json.loads(capsys.readouterr().out)["norm"] == pytest.approx(1.0)

    def test_missing_manifest_is_an_error(self, tmp_path, capsys):
        code = main(["norm", str(tmp_path / "nope.json"), "--omega-max", "5"])
        assert code == EXIT_ERROR
        assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize("name, edit", [
        ("B_factor", lambda doc: doc["B"][0].update(matrix=5)),
        ("C_factor", lambda doc: doc["C"][0].update(matrix=["C.mtx"])),
        ("dimension 'n'", lambda doc: doc["dimensions"].update(n=2.7)),
    ], ids=["B-matrix", "C-matrix", "n"])
    def test_bad_manifest_entry_is_an_error(self, tmp_path, capsys, name,
                                            edit):
        # named on stderr, not a traceback
        manifest = one_pole_manifest(tmp_path)
        doc = json.loads(manifest.read_text())
        edit(doc)
        manifest.write_text(json.dumps(doc))
        code = main(["norm", str(manifest), "--omega-max", "5"])
        assert code == EXIT_ERROR
        err = capsys.readouterr().err
        assert err.startswith("error: ") and name in err

    def test_singular_expansion_exits_with_warnings(self, tmp_path, capsys,
                                                    monkeypatch):
        # with r0 = 1 the initial points are omega = 2.5 and the seed
        # omega = 0 from the pole at -1; every block after the first is made
        # singular, so the seed is skipped and the loop must expand at the
        # maximizer omega = 0, which is singular too: known to be so from
        # the skipped seed, it is not tried a second time
        expansion_block = greedy.expansion_block
        calls = []

        def singular_after_first(tf, omega):
            calls.append(omega)
            if len(calls) > 1:
                raise SingularShift(1j * omega)
            return expansion_block(tf, omega)

        monkeypatch.setattr(greedy, "expansion_block", singular_after_first)
        manifest = one_pole_manifest(tmp_path)
        code = main(["norm", str(manifest), "--omega-max", "5", "--r0", "1"])
        doc = json.loads(capsys.readouterr().out)
        assert calls == [2.5, 0.0]
        assert doc["stop_reason"] == "singular_expansion"
        assert doc["events"] == [
            {"kind": "singular_shift", "at": at, "omega": 0.0}
            for at in ("initial_point", "expansion")]
        assert code == EXIT_WARNINGS

    def test_repair_failed_exits_with_warnings(self, tmp_path, capsys,
                                              monkeypatch):
        # a reduced pole on the axis at omega = 1, away from the interval
        # midpoint 2.5: H has order 1, so the repair expansion there adds
        # no column
        interpolated = greedy._interpolated
        calls, expanded = [], []

        def unbounded(rm, cfg, points=()):
            calls.append(points)
            raise SingularShift(1j * 1.0)

        def spy(tf, state, omega):
            if calls:
                expanded.append(omega)
            return interpolated(tf, state, omega)

        monkeypatch.setattr(greedy, "maximize", unbounded)
        monkeypatch.setattr(greedy, "_interpolated", spy)
        manifest = one_pole_manifest(tmp_path)
        code = main(["norm", str(manifest), "--omega-max", "5"])
        doc = json.loads(capsys.readouterr().out)
        assert code == EXIT_WARNINGS
        assert len(calls) == 1 and expanded == [1.0]
        assert doc["stop_reason"] == "repair_failed"
        assert doc["events"] == [{"kind": "repair", "omega": 1.0}]
        assert doc["norm"] == pytest.approx(1.0)   # sigma at omega = 0

    def test_maximizer_at_the_interval_end_exits_with_warnings(self, tmp_path,
                                                               capsys):
        # H(s) has a term -s, so sigma still rises at omega_max
        e, a, b, c = improper_descriptor()
        for name, mat in (("E", e), ("A0", -a), ("B", b), ("C", c)):
            write_mtx_dense(tmp_path / f"{name}.mtx", mat)
        manifest = tmp_path / "problem.json"
        manifest.write_text(json.dumps({
            "dimensions": {"n": 22, "m": 1, "p": 1},
            "B": [{"matrix": "B.mtx"}],
            "C": [{"matrix": "C.mtx"}],
            "D": [{"k": 1, "matrix": "E.mtx"}, {"k": 0, "matrix": "A0.mtx"}],
        }))
        code = main(["norm", str(manifest), "--omega-max", "10"])
        doc = json.loads(capsys.readouterr().out)
        assert code == EXIT_WARNINGS
        assert doc["stop_reason"] == "interval_end"
        assert doc["omega_opt"] == 10.0
        assert [ev["kind"] for ev in doc["events"]] == ["interval_end"]

    def test_peak_outside_the_interval_exits_with_warnings(self, tmp_path,
                                                           capsys):
        # sigma near 200 at the seed omega = 20, outside [0, 10]
        manifest = descriptor_manifest(tmp_path, *outside_peak_descriptor())
        code = main(["norm", str(manifest), "--omega-max", "10"])
        doc = json.loads(capsys.readouterr().out)
        assert code == EXIT_WARNINGS
        assert doc["stop_reason"] == "peak_outside_interval"
        [event] = doc["events"]
        assert event["kind"] == "seed_outside_interval"
        assert event["sigma"] > 3 * doc["norm"]

    def test_complex_h_searches_negative_frequencies(self, tmp_path, capsys):
        # the default interval of a complex H is [-10, 10], and sigma
        # peaks near 300 at omega = -4
        manifest = descriptor_manifest(tmp_path, *complex_two_pole())
        code = main(["norm", str(manifest), "--omega-max", "10"])
        doc = json.loads(capsys.readouterr().out)
        assert code == EXIT_OK
        assert doc["omega_opt"] < 0
        assert doc["norm"] == pytest.approx(300.000272, rel=1e-8)

    @pytest.mark.parametrize("reason,code", [
        (greedy.CONVERGED, EXIT_OK),
        (greedy.MAX_ITERATIONS, EXIT_WARNINGS),
        (greedy.SINGULAR_EXPANSION, EXIT_WARNINGS),
        (greedy.REPAIR_FAILED, EXIT_WARNINGS),
        (greedy.INTERVAL_END, EXIT_WARNINGS),
        (greedy.PEAK_OUTSIDE_INTERVAL, EXIT_WARNINGS),
    ])
    def test_exit_code_follows_stop_reason(self, tmp_path, capsys,
                                           monkeypatch, reason, code):
        def stopped(tf, cfg):
            return SolverResult(norm=1.0, omega_opt=0.0, iterations=0,
                                stop_reason=reason)

        monkeypatch.setattr(cli, "run", stopped)
        manifest = one_pole_manifest(tmp_path)
        assert main(["norm", str(manifest), "--omega-max", "5"]) == code
        assert json.loads(capsys.readouterr().out)["stop_reason"] == reason


class TestOracleCommand:
    def test_sweep_and_csv(self, tmp_path, capsys, monkeypatch):
        sweeps = []
        grid_sweep = oracle.grid_sweep

        def counting(*args, **kwargs):
            sweeps.append(args)
            return grid_sweep(*args, **kwargs)

        monkeypatch.setattr(oracle, "grid_sweep", counting)
        manifest = one_pole_manifest(tmp_path)
        out_csv = tmp_path / "sweep.csv"
        code = main(["oracle", str(manifest), "--interval", "0", "5",
                     "--npoints", "101", "--csv", str(out_csv)])
        assert code == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        assert doc["norm"] == pytest.approx(1.0)
        with open(out_csv, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["omega", "sigma"]
        assert len(rows) == 102
        assert len(sweeps) == 1  # the CSV reuses the norm's sweep


class TestBenchCommand:
    def test_delay_csv(self, tmp_path, capsys):
        out_csv = tmp_path / "bench.csv"
        code = main(["bench", "delay", "--n", "50", "100",
                     "--csv", str(out_csv)])
        assert code == EXIT_OK
        with open(out_csv, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [int(r["n"]) for r in rows] == [50, 100]
        assert float(rows[1]["norm"]) == pytest.approx(0.23766, rel=1e-4)
        assert float(rows[1]["omega"]) == pytest.approx(3.07547, abs=1e-3)

    def test_zero_inner_rounds_is_named(self, capsys):
        code = main(["bench", "delay", "--n", "50", "--max-inner-iters", "0"])
        assert code == EXIT_ERROR
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ")
        assert "max_inner_iters" in captured.err
        assert captured.out == ""


class TestUsageErrors:
    def test_unknown_flag(self, tmp_path, capsys):
        manifest = str(one_pole_manifest(tmp_path))
        for args, unknown in [
                (["norm", "x.json", "--bogus"], "--bogus"),
                (["norm", manifest, "--omega-max", "5", "--policy", "keepall"],
                 "--policy keepall"),
                (["norm", manifest, "--omega-max", "5", "--mode", "full"],
                 "--mode full")]:
            assert main(args) == EXIT_ERROR
            captured = capsys.readouterr()
            assert f"unrecognized arguments: {unknown}" in captured.err
            assert captured.out == ""

    def test_missing_subcommand(self, capsys):
        assert main([]) == EXIT_ERROR
        capsys.readouterr()

    @pytest.mark.parametrize("args", [
        ["bench", "delay", "--n", "1"],
        ["bench", "delay", "--n", "50", "--r0", "0"],
        ["bench", "delay", "--n", "50", "--gamma", "5"],
        ["norm", "MANIFEST", "--omega-max", "5", "--eps", "0"],
        ["norm", "MANIFEST", "--omega-max", "5", "--interval", "5", "1"],
        ["norm", "MANIFEST", "--omega-max", "inf"],
        ["norm", "MANIFEST", "--omega-max", "5", "--interval", "0", "inf"],
        ["oracle", "MANIFEST", "--interval", "0", "5", "--npoints", "0"],
        ["oracle", "MANIFEST", "--interval", "0", "5", "--npoints", "5",
         "--refine-tol", "-1"],
        ["oracle", "MANIFEST", "--interval", "0", "5", "--npoints", "5",
         "--refine-tol", "nan"],
        ["oracle", "MANIFEST", "--interval", "0", "5", "--npoints", "5",
         "--refine-tol", "0"],
        ["oracle", "MANIFEST", "--interval", "0", "inf", "--npoints", "5"],
    ])
    def test_invalid_numeric_option(self, args, tmp_path, capsys):
        manifest = str(one_pole_manifest(tmp_path))
        code = main([manifest if a == "MANIFEST" else a for a in args])
        assert code == EXIT_ERROR
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ")
        assert "Traceback" not in captured.err
        assert captured.out == ""


def readme_command_lines():
    """The lines of the README's fenced code blocks, each joined with its
    backslash continuations."""
    readme = Path(__file__).resolve().parent.parent / "README.md"
    lines, fenced, pending = [], False, ""
    for line in readme.read_text().splitlines():
        if line.startswith("```"):
            fenced = not fenced
        elif fenced:
            pending += line.strip()
            if pending.endswith("\\"):
                pending = pending[:-1] + " "
            else:
                lines.append(pending)
                pending = ""
    return lines


def parser_options(command):
    """The long options, --help aside, of the parser of a subcommand path
    such as ["bench", "delay"]."""
    parser = cli._build_parser()
    for name in command:
        sub = next(action for action in parser._actions
                   if isinstance(action, argparse._SubParsersAction))
        parser = sub.choices[name]
    return {option for action in parser._actions
            for option in action.option_strings
            if option.startswith("--")} - {"--help"}


@pytest.mark.parametrize("command", [["norm"], ["oracle"], ["bench", "delay"]],
                         ids=" ".join)
def test_readme_usage_lines_match_the_parsers(command):
    options = parser_options(command)
    prefix = " ".join(["linfnorm", *command]) + " "
    usage = [line for line in readme_command_lines()
             if line.startswith(prefix)]
    assert usage
    for line in usage:
        assert set(re.findall(r"--[a-z][a-z0-9-]*", line)) == options


def test_settings_inventory():
    # every setting a user can give, pinned: a new one is an edit here
    def settable(cls):
        return {f.name for f in dataclasses.fields(cls) if f.init}

    assert settable(RunConfig) == {"omega_max", "r0", "eps", "r_max", "inner"}
    assert settable(InnerConfig) == {"interval", "curvature_bound",
                                     "support_tol", "max_inner_iters"}
    assert parser_options(["norm"]) == {
        "--r0", "--omega-max", "--eps", "--rmax", "--gamma", "--interval",
        "--max-inner-iters", "--report"}
    assert cli.MANIFEST_CONFIG_KEYS == {"omega_max", "interval", "gamma",
                                        "max_inner_iters", "r0", "eps",
                                        "r_max"}
    with pytest.raises(TypeError, match="expansion_mode"):
        RunConfig(omega_max=1.0, expansion_mode="full")
    # and every one of them checked: a field added without a check fails here
    for cls, valid in ((RunConfig, {"omega_max": 1.0}),
                       (InnerConfig, {"interval": (0.0, 1.0)})):
        for name in settable(cls):
            with pytest.raises(ValueError, match=f"^{name} must be"):
                cls(**{**valid, name: "x"})
