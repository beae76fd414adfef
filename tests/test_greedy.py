"""Tests for subspace expansion and the outer greedy iteration."""

import warnings

import numpy as np
import pytest

from linfnorm.errors import AllShiftsSingular
from linfnorm.greedy import (DOMINANT, LAST_TWO, RunConfig, SubspaceState,
                             check_interpolation, convergence_ratios, expand,
                             expansion_block, run)
from linfnorm.inner import InnerConfig
from linfnorm.oracle import grid_norm
from linfnorm.problems import descriptor_tf, make_delay_fixture
from linfnorm.structured import MatrixFactor, ScalarTerm, StructuredTF

from conftest import random_descriptor, siso_one_pole


def orthonormality_defect(q):
    return np.linalg.norm(q.conj().T @ q - np.eye(q.shape[1]), 2)


class TestExpansionBlock:
    def test_scalar_blocks(self):
        tf = siso_one_pole()
        vb, wb = expansion_block(tf, 0.0)
        assert vb.shape == (1, 1) and wb.shape == (1, 1)
        assert vb[0, 0] == pytest.approx(1.0)
        assert wb[0, 0] == pytest.approx(1.0)

    def test_block_width_is_min_mp(self):
        tf, _ = random_descriptor(10, 1, 2, seed=20)
        vb, wb = expansion_block(tf, 0.7)
        assert vb.shape == (10, 1)
        assert wb.shape == (10, 1)
        tf2, _ = random_descriptor(10, 3, 2, seed=21)
        vb2, wb2 = expansion_block(tf2, 0.7)
        assert vb2.shape == (10, 2)
        assert wb2.shape == (10, 2)

    @pytest.mark.parametrize("m,p", [(1, 1), (2, 2), (1, 3), (3, 1)])
    def test_full_mode_interpolates(self, m, p):
        from linfnorm.reduced import project
        tf, _ = random_descriptor(30, m, p, seed=22 + m + 10 * p)
        omega = 1.4
        vb, wb = expansion_block(tf, omega)
        v, _ = np.linalg.qr(vb)
        w, _ = np.linalg.qr(wb)
        rm = project(tf, v, w)
        h = tf.eval(1j * omega)
        assert np.linalg.norm(h - rm.tf.eval(1j * omega), 2) <= 1e-9 * (
            1 + np.linalg.norm(h, 2))

    def test_dominant_mode_single_column(self):
        tf, _ = random_descriptor(12, 3, 3, seed=25)
        vb, wb = expansion_block(tf, 0.9, mode=DOMINANT)
        assert vb.shape == (12, 1)
        assert wb.shape == (12, 1)


class TestExpand:
    def test_dependent_column_stagnates(self):
        rng = np.random.default_rng(30)
        q, _ = np.linalg.qr(rng.standard_normal((10, 3)))
        state = SubspaceState(V=q, W=q.copy())
        col = q @ np.array([1.0, -2.0, 0.5])  # already in span
        new = expand(state, col.reshape(-1, 1), col.reshape(-1, 1))
        assert new.dim == 3
        assert new.stagnated

    def test_fresh_columns_grow_by_block_width(self):
        rng = np.random.default_rng(31)
        q, _ = np.linalg.qr(rng.standard_normal((10, 3)))
        state = SubspaceState(V=q, W=q.copy())
        block = rng.standard_normal((10, 2))
        new = expand(state, block, block)
        assert new.dim == 5
        assert not new.stagnated

    def test_unequal_drops_are_rebalanced(self):
        rng = np.random.default_rng(32)
        q, _ = np.linalg.qr(rng.standard_normal((10, 3)))
        state = SubspaceState(V=q, W=q.copy())
        dependent = q[:, :1] @ np.array([[2.0]])
        fresh = rng.standard_normal((10, 1))
        new = expand(state, dependent, fresh)
        assert new.V.shape[1] == new.W.shape[1]

    def test_orthonormality_after_many_expansions(self):
        rng = np.random.default_rng(33)
        state = SubspaceState.empty(40)
        for _ in range(50):
            block = rng.standard_normal((40, 1)) + 1j * rng.standard_normal((40, 1))
            state = expand(state, block, block.conj())
        assert state.dim == 40
        assert orthonormality_defect(state.V) <= 1e-12
        assert orthonormality_defect(state.W) <= 1e-12


class TestRun:
    def test_trivial_converges_immediately(self):
        tf = siso_one_pole()
        cfg = RunConfig(omega_max=1.0, r0=2)
        res = run(tf, cfg)
        assert res.converged
        assert res.iterations == 0
        assert res.omega_opt == pytest.approx(0.0, abs=1e-9)
        assert res.norm == pytest.approx(1.0)

    def test_delay_benchmark_published_values(self):
        tf = make_delay_fixture(100)
        cfg = RunConfig(omega_max=50.0,
                        inner=InnerConfig(interval=(0, 50),
                                          curvature_bound=-100.0))
        res = run(tf, cfg)
        assert res.converged
        assert res.norm == pytest.approx(0.23766, rel=1e-4)
        assert res.omega_opt == pytest.approx(3.07547, abs=1e-3)
        assert res.iterations <= 2

    def test_matches_oracle_on_random_siso(self):
        tf, interval = random_descriptor(100, 1, 1, seed=40)
        cfg = RunConfig(omega_max=interval[1], r0=20,
                        inner=InnerConfig(interval=interval))
        res = run(tf, cfg)
        sw = grid_norm(tf, interval, 4001, refine_tol=1e-10)
        assert res.norm == pytest.approx(sw.best_sigma, rel=1e-6)

    def test_deterministic_histories(self):
        tf, interval = random_descriptor(40, 2, 2, seed=41)
        cfg = RunConfig(omega_max=interval[1], r0=8,
                        inner=InnerConfig(interval=interval))
        res1 = run(tf, cfg)
        res2 = run(tf, cfg)
        assert res1.history == res2.history
        assert res1.norm == res2.norm

    def test_terminates_within_rmax(self):
        tf, interval = random_descriptor(30, 1, 1, seed=42)
        cfg = RunConfig(omega_max=interval[1], r0=2, r_max=5, eps=1e-14,
                        inner=InnerConfig(interval=interval))
        res = run(tf, cfg)
        assert res.iterations <= 5

    def test_last_two_policy_converges(self):
        tf, interval = random_descriptor(60, 1, 1, seed=43)
        cfg = RunConfig(omega_max=interval[1], r0=15,
                        subspace_policy=LAST_TWO,
                        inner=InnerConfig(interval=interval))
        res = run(tf, cfg)
        sw = grid_norm(tf, interval, 4001)
        assert res.norm <= sw.best_sigma * (1 + 1e-9)

    def test_monotone_span_with_keepall(self):
        tf, interval = random_descriptor(50, 1, 1, seed=44)
        cfg = RunConfig(omega_max=interval[1], r0=6, keep_states=True,
                        inner=InnerConfig(interval=interval))
        res = run(tf, cfg)
        for prev, cur in zip(res.states[:-1], res.states[1:]):
            proj = cur.V @ (cur.V.conj().T @ prev.V)
            assert np.linalg.norm(proj - prev.V) <= 1e-10

    def test_dominant_mode_runs(self):
        tf, interval = random_descriptor(40, 3, 3, seed=45)
        cfg = RunConfig(omega_max=interval[1], r0=8, expansion_mode=DOMINANT,
                        inner=InnerConfig(interval=interval))
        res = run(tf, cfg)
        # one direction per point in dominant mode
        assert all(h["dim"] <= len(res.history) + 8 for h in res.history)
        sw = grid_norm(tf, interval, 2001)
        assert res.norm <= sw.best_sigma * (1 + 1e-9)

    def test_singular_initial_point_is_a_warning_entry(self):
        # D(s) = s I - diag(0, -1) is singular at s = 0, but the zero mode is
        # neither driven nor observed, so H(s) = 1/(s+1) stays finite there
        tf = descriptor_tf(np.eye(2), np.diag([0.0, -1.0]),
                           np.array([[0.0], [1.0]]), np.array([[0.0, 1.0]]))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            res = run(tf, RunConfig(omega_max=5.0, r0=10))
        assert caught == []
        assert res.skipped_points == [0.0]
        assert any(w.startswith("initial point omega=0.0")
                   for w in res.warnings)

    def test_all_initial_points_singular(self):
        # D(s) = s E with singular E is singular at every shift
        d = MatrixFactor([(ScalarTerm(degree=1), np.diag([1.0, 0.0]))])
        b = MatrixFactor([(ScalarTerm(), np.ones((2, 1)))])
        c = MatrixFactor([(ScalarTerm(), np.ones((1, 2)))])
        with pytest.raises(AllShiftsSingular):
            run(StructuredTF(c, d, b), RunConfig(omega_max=5.0, r0=4))


class TestCheckInterpolation:
    def test_full_mode_hermite(self):
        tf, interval = random_descriptor(60, 2, 2, seed=50)
        cfg = RunConfig(omega_max=interval[1], r0=6, keep_states=True,
                        inner=InnerConfig(interval=interval))
        res = run(tf, cfg)
        for state in res.states:
            for entry in check_interpolation(tf, state):
                assert entry["matrix_mismatch"] <= 1e-8 * (1 + entry["h_norm"])
                if entry["simple"]:
                    assert entry["slope_mismatch"] <= 1e-6 * (
                        1 + abs(entry["slope_full"]))

    def test_dominant_mode_one_sided(self):
        tf, interval = random_descriptor(40, 3, 3, seed=51)
        cfg = RunConfig(omega_max=interval[1], r0=6, keep_states=True,
                        expansion_mode=DOMINANT,
                        inner=InnerConfig(interval=interval))
        res = run(tf, cfg)
        for state in res.states:
            for entry in check_interpolation(tf, state, mode=DOMINANT):
                assert entry["sigma_gap"] >= -1e-10

    def test_empty_state_empty_report(self):
        tf = siso_one_pole()
        assert check_interpolation(tf, SubspaceState.empty(1)) == []


class TestConvergenceRatios:
    def test_matches_direct_formula(self):
        omegas = [3.0, 1.5, 1.1, 1.01, 1.0001]
        star = 1.0
        errs, ratios = convergence_ratios(omegas, star)
        assert errs == [abs(w - star) for w in omegas]
        assert ratios[0] == pytest.approx(
            errs[2] / (errs[1] * max(errs[0], errs[1])))
        assert len(ratios) == 3
