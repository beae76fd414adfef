"""Tests for the brute-force sweep oracle."""

import csv

import numpy as np
import pytest

import linfnorm.oracle as oracle
from linfnorm.errors import SingularShift
from linfnorm.oracle import grid_norm, grid_sweep, sweep_csv
from linfnorm.problems import descriptor_tf, make_delay_fixture
from linfnorm.structured import MatrixFactor, ScalarTerm, StructuredTF

from conftest import (non_numbers, random_descriptor, siso_one_pole,
                      siso_two_pole)


#: (n, m = p, seed, best_sigma) of golden-section refinement to a bracket
#: of 1e-9 from a 201-point grid, on random_descriptor systems
GOLDEN_SECTION_PEAKS = [
    (10, 1, 2000, 13.087415452280826),
    (17, 2, 2001, 5.199245538035593),
    (24, 1, 2002, 3.08344604355173),
    (31, 2, 2003, 10.664825339738163),
    (38, 1, 2004, 8.02857558403809),
    (45, 2, 2005, 29.45128479057697),
    (52, 1, 2006, 20.996453928859488),
    (59, 2, 2007, 12.249436623771468),
    (66, 1, 2008, 12.952073728708664),
    (73, 2, 2009, 13.58083489833427),
]


@pytest.fixture
def sigma_calls(monkeypatch):
    """The omegas of every sigma_max call the oracle makes, in call order;
    a call past the 1000th fails the test rather than let a loop run on."""
    omegas = []

    def counting(model, omega):
        omegas.append(omega)
        assert len(omegas) <= 1000, "the oracle did not stop"
        return sigma_max(model, omega)

    sigma_max = oracle.sigma_max
    monkeypatch.setattr(oracle, "sigma_max", counting)
    return omegas


def _axis_pole():
    """H(s) = 1/(s - 2i), singular at omega = 2."""
    return descriptor_tf(np.eye(1), np.array([[2j]]), np.ones((1, 1)),
                         np.ones((1, 1)))


class TestGridSweep:
    def test_known_values(self):
        ws, sig, skipped = grid_sweep(siso_one_pole(), (0, 2), 3)
        assert ws == [0.0, 1.0, 2.0]
        np.testing.assert_allclose(
            sig, [1.0, 1 / np.sqrt(2), 1 / np.sqrt(5)], rtol=1e-12)
        assert skipped == []

    def test_degenerate_interval_single_row(self):
        ws, sig, _ = grid_sweep(siso_one_pole(), (1.0, 1.0), 1)
        assert ws == [1.0]
        assert sig[0] == pytest.approx(1 / np.sqrt(2))

    def test_rejects_single_point_on_real_interval(self):
        with pytest.raises(ValueError):
            grid_sweep(siso_one_pole(), (0, 2), 1)

    def test_singular_point_is_skipped(self):
        ws, sig, skipped = grid_sweep(_axis_pole(), (0.0, 4.0), 5)
        assert ws == [0.0, 1.0, 3.0, 4.0]
        np.testing.assert_allclose(sig, [0.5, 1.0, 1.0, 0.5], rtol=1e-12)
        assert skipped == [2.0]


class TestGridNorm:
    def test_every_point_singular(self):
        with pytest.raises(SingularShift):
            grid_norm(_axis_pole(), (2.0, 2.0), 1)

    def test_one_pole(self):
        res = grid_norm(siso_one_pole(), (0, 5), 101)
        assert res.best_omega == pytest.approx(0.0, abs=1e-8)
        assert res.best_sigma == pytest.approx(1.0)

    def test_two_pole(self):
        res = grid_norm(siso_two_pole(), (0, 5), 101)
        assert res.best_sigma == pytest.approx(1.5)

    def test_refinement_beats_raw_grid(self):
        # coarse grid misses a sharp interior peak; refinement recovers it
        tf, interval = random_descriptor(20, 1, 1, seed=60, min_decay=0.02,
                                         max_decay=0.05)
        coarse = grid_sweep(tf, interval, 51)[1]
        res = grid_norm(tf, interval, 51, refine_tol=1e-10)
        fine = grid_norm(tf, interval, 20001, refine_tol=1e-10)
        assert res.best_sigma >= max(coarse) - 1e-12
        assert res.best_sigma == pytest.approx(fine.best_sigma, rel=1e-7)

    def test_delay_peak_in_few_evaluations(self, sigma_calls):
        # 100 grid points, then the steps at 9 local grid maxima: golden
        # section took 278 evaluations there, 378 in all
        res = grid_norm(make_delay_fixture(1000), (0.0, 50.0), 100,
                        refine_tol=1e-6)
        assert len(sigma_calls) <= 210
        assert len(sigma_calls) == 100 + res.refinement_iters
        assert res.best_sigma == pytest.approx(0.2376599185228, rel=1e-12)

    @pytest.mark.parametrize("n, m, seed, golden", GOLDEN_SECTION_PEAKS)
    def test_no_lower_than_golden_section(self, n, m, seed, golden):
        tf, interval = random_descriptor(n, m, m, seed=seed)
        res = grid_norm(tf, interval, 201, refine_tol=1e-9)
        assert res.best_sigma >= golden * (1 - 1e-12)

    def test_tolerance_below_float_spacing_ends(self, sigma_calls):
        # the peak is interior, at omega = 3, where the float spacing is
        # 4.4e-16: the bracket cannot shrink to 1e-20
        tf = descriptor_tf(np.eye(1), np.array([[-0.1 + 3j]]),
                           np.ones((1, 1)), np.ones((1, 1)))
        res = grid_norm(tf, (0.0, 10.0), 11, refine_tol=1e-20)
        assert res.best_omega == pytest.approx(3.0, abs=1e-12)
        assert res.best_sigma == pytest.approx(10.0, rel=1e-12)

    @pytest.mark.parametrize("npoints", [11, 201])
    def test_run_of_equal_values_refined_once(self, npoints, sigma_calls):
        # a static gain H = 3 is one run of equal grid values: one
        # refinement from omega = 0 inside (0, 10), however fine the grid
        tf = StructuredTF(MatrixFactor([(ScalarTerm(), np.ones((1, 3)))]),
                          MatrixFactor([(ScalarTerm(), np.eye(3))]),
                          MatrixFactor([(ScalarTerm(), np.ones((3, 1)))]))
        res = grid_norm(tf, (0.0, 10.0), npoints)
        assert res.refinement_iters <= 60
        assert len(sigma_calls) == npoints + res.refinement_iters
        assert all(0.0 <= w <= 10.0 for w in sigma_calls)
        assert (res.best_omega, res.best_sigma) == (0.0, pytest.approx(3.0))

    def test_best_at_least_grid_max(self):
        for seed in range(5):
            tf, interval = random_descriptor(15, 2, 2, seed=70 + seed)
            res = grid_norm(tf, interval, 501)
            grid_best = max(s for _, s in res.grid)
            assert res.best_sigma >= grid_best - 1e-12


class TestArgumentChecks:
    @pytest.mark.parametrize("interval", [
        (float("nan"), 1.0), (0.0, float("inf")), (-float("inf"), 0.0),
        (False, True), (0.0, np.True_), *[(0.0, v) for v in non_numbers(2.0)]])
    def test_non_finite_interval_end(self, interval):
        with pytest.raises(ValueError, match="interval"):
            grid_sweep(siso_one_pole(), interval, 5)
        with pytest.raises(ValueError, match="interval"):
            grid_norm(siso_one_pole(), interval, 5)

    @pytest.mark.parametrize("npoints", [2.5, 5.0, "5", None, True])
    def test_npoints_must_be_an_integer(self, npoints):
        # 2.5 reached np.linspace, which raised a bare TypeError
        with pytest.raises(ValueError, match="npoints"):
            grid_sweep(siso_one_pole(), (0.0, 5.0), npoints)
        with pytest.raises(ValueError, match="npoints"):
            grid_norm(siso_one_pole(), (0.0, 5.0), npoints)

    def test_bool_npoints_on_a_point_interval(self):
        # a one-point interval takes npoints = 1, so True ran as 1
        with pytest.raises(ValueError, match="npoints must be an integer"):
            grid_sweep(siso_one_pole(), (2.0, 2.0), True)
        with pytest.raises(ValueError, match="npoints must be an integer"):
            grid_norm(siso_one_pole(), (2.0, 2.0), True)

    def test_reversed_interval(self):
        with pytest.raises(ValueError, match="interval"):
            grid_sweep(siso_one_pole(), (5.0, 0.0), 5)
        with pytest.raises(ValueError, match="interval"):
            grid_norm(siso_one_pole(), (5.0, 0.0), 5)

    @pytest.mark.parametrize("tol", [-1.0, 0.0, float("nan"), True, np.True_,
                                     *non_numbers(1e-9)])
    def test_refine_tol_must_be_positive(self, tol):
        # -1, and 0 at an interior peak, never ended the refinement loop;
        # nan skipped it silently
        with pytest.raises(ValueError, match="refine_tol"):
            grid_norm(siso_one_pole(), (0.0, 2.0), 5, refine_tol=tol)


class TestSweepCsv:
    def test_rows_and_values(self, tmp_path):
        path = tmp_path / "sweep.csv"
        sweep_csv(grid_norm(siso_one_pole(), (0, 2), 3).grid, path)
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["omega", "sigma"]
        got = [(float(w), float(s)) for w, s in rows[1:]]
        expect = [(0.0, 1.0), (1.0, 1 / np.sqrt(2)), (2.0, 1 / np.sqrt(5))]
        for (w, s), (we, se) in zip(got, expect):
            assert w == pytest.approx(we)
            assert s == pytest.approx(se, rel=1e-12)

    def test_row_count_matches_grid(self, tmp_path):
        path = tmp_path / "sweep.csv"
        tf, interval = random_descriptor(10, 1, 1, seed=80)
        sweep_csv(grid_norm(tf, interval, 37).grid, path)
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert len(rows) == 1 + 37
