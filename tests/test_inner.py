"""Tests for the level-set and quadratic-support inner maximizers."""

import numpy as np
import pytest

from linfnorm.errors import InvalidBound
from linfnorm.greedy import expansion_block
from linfnorm.inner import (InnerConfig, bb_norm, imaginary_crossings,
                            maximize, qsupport_maximize)
from linfnorm.oracle import grid_norm
from linfnorm.problems import make_delay_fixture
from linfnorm.reduced import (classify, project, sigma_max,
                              sigma_max_derivative)

from conftest import (as_reduced, random_rational_reduced, siso_one_pole,
                      siso_two_pole)


def estimated_curvature_bound(model, interval, npoints=400):
    """Safe lower bound on (-sigma)'' from a finite-difference grid sweep."""
    lo, hi = interval
    ws = np.linspace(lo, hi, npoints)
    sig = np.array([sigma_max(model, w)[0] for w in ws])
    h = ws[1] - ws[0]
    second = (sig[2:] - 2 * sig[1:-1] + sig[:-2]) / h**2
    worst = float(second.max())  # max sigma'' == -min (-sigma)''
    return -(1.5 * abs(worst) + 1.0)


class TestImaginaryCrossings:
    def test_one_pole_level(self):
        rm = as_reduced(siso_one_pole())
        crossings = imaginary_crossings(rm, 1 / np.sqrt(2))
        np.testing.assert_allclose(crossings, [-1.0, 1.0], atol=1e-8)

    def test_level_above_norm_is_empty(self):
        rm = as_reduced(siso_one_pole())
        assert imaginary_crossings(rm, 2.0).size == 0

    def test_matches_grid_sign_changes(self):
        rm, interval = random_rational_reduced(6, 1, 1, seed=10)
        sw = grid_norm(rm, interval, 2001)
        gamma = 0.9 * sw.best_sigma
        crossings = imaginary_crossings(rm, gamma)
        crossings = np.array([w for w in crossings
                              if interval[0] <= w <= interval[1]])
        ws = np.linspace(interval[0], interval[1], 100_000)
        sig = np.array([sigma_max(rm, w)[0] for w in ws])
        signs = np.sign(sig - gamma)
        change_idx = np.flatnonzero(np.diff(signs) != 0)
        grid_crossings = 0.5 * (ws[change_idx] + ws[change_idx + 1])
        assert len(crossings) == len(grid_crossings)
        np.testing.assert_allclose(np.sort(crossings), grid_crossings,
                                   atol=2 * (ws[1] - ws[0]))

    def test_symmetric_for_real_parent(self):
        rm, _ = random_rational_reduced(4, 1, 1, seed=11)
        sw = grid_norm(rm, (0, 10), 1001)
        crossings = imaginary_crossings(rm, 0.8 * sw.best_sigma)
        np.testing.assert_allclose(np.sort(crossings),
                                   np.sort(-crossings), atol=1e-7)

    def test_rejects_nonpositive_level(self):
        rm = as_reduced(siso_one_pole())
        with pytest.raises(ValueError):
            imaginary_crossings(rm, -1.0)


class TestBBNorm:
    def test_one_pole(self):
        res = bb_norm(as_reduced(siso_one_pole()),
                      InnerConfig(interval=(0, 10)))
        assert res.omega_opt == pytest.approx(0.0, abs=1e-9)
        assert res.value == pytest.approx(1.0)

    def test_two_pole(self):
        res = bb_norm(as_reduced(siso_two_pole()),
                      InnerConfig(interval=(0, 10)))
        assert res.value == pytest.approx(1.5)
        assert res.omega_opt == pytest.approx(0.0, abs=1e-9)

    def test_matches_grid_oracle(self):
        rm, interval = random_rational_reduced(8, 2, 2, seed=12)
        res = bb_norm(rm, InnerConfig(interval=interval))
        sw = grid_norm(rm, interval, 4001, refine_tol=1e-10)
        assert res.value == pytest.approx(sw.best_sigma, rel=1e-7)

    def test_never_below_sampled_sigma(self):
        rm, interval = random_rational_reduced(6, 2, 1, seed=13)
        res = bb_norm(rm, InnerConfig(interval=interval))
        rng = np.random.default_rng(14)
        ws = rng.uniform(interval[0], interval[1], 1000)
        sig = max(sigma_max(rm, w)[0] for w in ws)
        assert res.value >= sig - 1e-9 * res.value

    def test_rejects_general_models(self):
        rm = as_reduced(make_delay_fixture(4))
        with pytest.raises(ValueError):
            bb_norm(rm, InnerConfig(interval=(0, 10)))


class TestQSupport:
    def test_concave_quadratic(self):
        res = qsupport_maximize(
            lambda w: (1 - w * w, -2 * w),
            InnerConfig(interval=(-1, 1), curvature_bound=-3.0))
        assert res.omega_opt == pytest.approx(0.0, abs=1e-6)
        assert res.value == pytest.approx(1.0, abs=1e-9)
        assert res.certified_gap <= 1e-8 * 2

    def test_boundary_maximum(self):
        def f(w):
            return (1 + w * w) ** -0.5, -w * (1 + w * w) ** -1.5
        res = qsupport_maximize(
            f, InnerConfig(interval=(0, 10), curvature_bound=-2.0))
        assert res.omega_opt == pytest.approx(0.0, abs=1e-6)
        assert res.value == pytest.approx(1.0)

    def test_delay_reduced_model_after_initialization(self):
        # published optimizer of the delay benchmark, reached already by the
        # initial reduced model
        tf = make_delay_fixture(100)
        from linfnorm.greedy import RunConfig, SubspaceState, expand
        state = SubspaceState.empty(tf.n)
        for w0 in np.linspace(0.0, 50.0, 10):
            vb, wb = expansion_block(tf, float(w0))
            state = expand(state, vb, wb)
            state.points.append(float(w0))
        rm = project(tf, state.V, state.W, provenance=state.points)
        res = maximize(rm, InnerConfig(interval=(0, 50),
                                       curvature_bound=-100.0))
        assert res.omega_opt == pytest.approx(3.07547, abs=2e-3)

    def test_invalid_curvature_bound_detected(self):
        # a narrow spike violates the claimed curvature bound; the first
        # refinement evaluation lands on it and must be flagged
        def f(w):
            val = 100.0 * np.exp(-1000.0 * (w - 0.5) ** 2)
            return val, -2000.0 * (w - 0.5) * val

        with pytest.raises(InvalidBound):
            qsupport_maximize(
                f, InnerConfig(interval=(0, 2), curvature_bound=-2.0))

    def test_value_bounded_by_envelope(self):
        # every evaluated sigma stays below the certified envelope
        evals = []

        def f(w):
            s = np.sin(3 * w) + 0.5 * np.cos(w)
            evals.append(s)
            return s, 3 * np.cos(3 * w) - 0.5 * np.sin(w)

        res = qsupport_maximize(
            f, InnerConfig(interval=(0, 6), curvature_bound=-15.0))
        assert res.value >= max(evals) - 1e-12
        assert res.certified_gap >= 0


class TestMaximize:
    def test_dispatch_rational(self):
        rm, interval = random_rational_reduced(5, 1, 1, seed=15)
        cfg = InnerConfig(interval=interval)
        assert maximize(rm, cfg) == bb_norm(rm, cfg)

    def test_dispatch_general(self):
        tf = make_delay_fixture(6)
        rm = as_reduced(tf)
        cfg = InnerConfig(interval=(0.1, 20), curvature_bound=-200.0)
        res = maximize(rm, cfg)
        sw = grid_norm(rm, (0.1, 20), 4001)
        assert res.value == pytest.approx(sw.best_sigma, rel=1e-6)

    def test_matches_oracle_on_random_models(self):
        for seed in range(10):
            rm, interval = random_rational_reduced(6, 1, 1, seed=100 + seed)
            res = maximize(rm, InnerConfig(interval=interval))
            sw = grid_norm(rm, interval, 4001, refine_tol=1e-10)
            assert res.value == pytest.approx(sw.best_sigma, rel=1e-6)

    def test_bb_and_qsupport_agree_on_rational(self):
        for seed in range(3):
            rm, interval = random_rational_reduced(6, 1, 1, seed=200 + seed)
            cfg = InnerConfig(interval=interval)
            res_bb = bb_norm(rm, cfg)
            gamma = estimated_curvature_bound(rm, interval)
            cfg_q = InnerConfig(interval=interval, curvature_bound=gamma,
                                max_inner_iters=500)

            def f(w, rm=rm):
                return sigma_max_derivative(rm, w)[:2]

            res_q = qsupport_maximize(f, cfg_q)
            assert res_q.value == pytest.approx(res_bb.value, rel=1e-6)
