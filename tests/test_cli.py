"""End-to-end tests for the command-line entry point."""

import csv
import json

import pytest

import linfnorm.greedy as greedy
from linfnorm.cli import EXIT_ERROR, EXIT_OK, EXIT_WARNINGS, main
from linfnorm.errors import SingularShift
from linfnorm.greedy import SolverResult

from test_problems import one_pole_manifest


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
        assert doc["converged"] is True
        printed = json.loads(capsys.readouterr().out)
        assert printed == doc

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

    def test_missing_manifest_is_an_error(self, tmp_path, capsys):
        code = main(["norm", str(tmp_path / "nope.json"), "--omega-max", "5"])
        assert code == EXIT_ERROR
        assert capsys.readouterr().err.startswith("error:")

    def test_singular_expansion_exits_with_warnings(self, tmp_path, capsys,
                                                    monkeypatch):
        # with r0 = 1 the only initial point is omega = 2.5, so the loop must
        # expand at the maximizer omega = 0; that expansion is made singular
        expansion_block = greedy.expansion_block
        calls = []

        def singular_after_first(tf, omega, mode=greedy.FULL):
            calls.append(omega)
            if len(calls) > 1:
                raise SingularShift(1j * omega)
            return expansion_block(tf, omega, mode)

        monkeypatch.setattr(greedy, "expansion_block", singular_after_first)
        manifest = one_pole_manifest(tmp_path)
        code = main(["norm", str(manifest), "--omega-max", "5", "--r0", "1"])
        doc = json.loads(capsys.readouterr().out)
        assert len(calls) == 2
        assert doc["converged"] is False
        assert any("singular" in w for w in doc["warnings"])
        assert code == EXIT_WARNINGS


class TestOracleCommand:
    def test_sweep_and_csv(self, tmp_path, capsys):
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


class TestUsageErrors:
    def test_unknown_flag(self, capsys):
        assert main(["norm", "x.json", "--bogus"]) == EXIT_ERROR
        capsys.readouterr()

    def test_missing_subcommand(self, capsys):
        assert main([]) == EXIT_ERROR
        capsys.readouterr()


class TestReportRoundTrip:
    def test_to_from_dict(self, tmp_path):
        manifest = one_pole_manifest(tmp_path)
        report = tmp_path / "r.json"
        main(["norm", str(manifest), "--omega-max", "5",
              "--report", str(report)])
        doc = json.loads(report.read_text())
        res = SolverResult.from_dict(doc)
        assert res.to_dict() == doc
