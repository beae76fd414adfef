"""Tests for subspace expansion and the outer greedy iteration."""

import dataclasses
import warnings

import numpy as np
import pytest

import linfnorm.greedy as greedy
from linfnorm.errors import (AllShiftsSingular, DimensionMismatch,
                             SingularShift, UnboundedOnAxis)
from linfnorm.greedy import (CONVERGED, MAX_ITERATIONS, REPAIR_FAILED,
                             SINGULAR_EXPANSION, RunConfig, SubspaceState,
                             check_interpolation, convergence_ratios, expand,
                             expansion_block, run)
from linfnorm.inner import InnerConfig
from linfnorm.oracle import grid_norm
from linfnorm.problems import descriptor_tf, make_delay_fixture
from linfnorm.reduced import DOMINANT_SEEDS, dominant_frequencies, sigma_max
from linfnorm.structured import MatrixFactor, ScalarTerm, StructuredTF

from conftest import (cgs2_reference, non_numbers, padded, peak_bytes,
                      random_descriptor, siso_one_pole)


def orthonormality_defect(q):
    return np.linalg.norm(q.conj().T @ q - np.eye(q.shape[1]), 2)


class TestRunConfig:
    @pytest.mark.parametrize("field, kwargs", [
        ("omega_max", {"omega_max": np.inf}),
        ("omega_max", {"omega_max": np.nan,
                       "inner": InnerConfig(interval=(0.0, 10.0))}),
        ("eps", {"omega_max": 1.0, "eps": np.nan}),
        ("eps", {"omega_max": 1.0, "eps": np.inf}),
        ("omega_max", {"omega_max": 0.0}),
        ("omega_max", {"omega_max": -5.0}),
        ("omega_max", {"omega_max": True}),
        ("omega_max", {"omega_max": np.True_}),
        ("eps", {"omega_max": 1.0, "eps": True}),
        ("eps", {"omega_max": 1.0, "eps": np.True_}),
        *[("omega_max", {"omega_max": v}) for v in non_numbers(5.0)],
        *[("eps", {"omega_max": 1.0, "eps": v}) for v in non_numbers(1e-6)],
        ("inner", {"omega_max": 5.0, "inner": 5}),
    ])
    def test_non_finite_settings_name_their_field(self, field, kwargs):
        with pytest.raises(ValueError, match=field):
            RunConfig(**kwargs)

    def test_numpy_numbers_are_settings(self):
        # only bools are kept out of the float settings
        RunConfig(omega_max=np.float64(2.0), eps=np.float32(1e-6),
                  inner=InnerConfig(interval=(np.int64(0), np.float64(2.0)),
                                    support_tol=np.float64(0.0)))
        sw = grid_norm(siso_one_pole(), (np.int64(0), np.float64(2.0)), 3,
                       refine_tol=np.float64(1e-9))
        assert sw.best_sigma == pytest.approx(1.0)
        tf = make_delay_fixture(5, tau=np.float64(1.0), beta=np.float32(0.5),
                                theta=np.int64(5))
        assert tf.n == 5

    @pytest.mark.parametrize("field", ["r0", "r_max"])
    @pytest.mark.parametrize("value", [2.5, 3.0, "3", None, 0, True])
    def test_counts_must_be_positive_integers(self, field, value):
        with pytest.raises(ValueError, match=field):
            RunConfig(omega_max=1.0, **{field: value})


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
        assert np.linalg.norm(h - rm.eval(1j * omega), 2) <= 1e-9 * (
            1 + np.linalg.norm(h, 2))


class TestExpand:
    @pytest.mark.parametrize("width", [1, 2])
    @pytest.mark.parametrize("dtype", [float, complex])
    @pytest.mark.parametrize("rel, kept", [(0.0, False), (1e-14, False),
                                           (1e-6, True)])
    def test_dependent_column_stagnates(self, rel, kept, dtype, width):
        # block columns in the span up to a relative perturbation rel:
        # dropped far below DEFLATION_TOL, kept far above it
        rng = np.random.default_rng(30)

        def draw(*shape):
            x = rng.standard_normal(shape)
            if dtype is complex:
                x = x + 1j * rng.standard_normal(shape)
            return x

        q, _ = np.linalg.qr(draw(10, 3))
        state = SubspaceState(V=q, W=q.copy())
        block = q @ draw(3, width)
        noise = draw(10, width)
        block += rel * noise * (np.linalg.norm(block, axis=0)
                                / np.linalg.norm(noise, axis=0))
        new = expand(state, block, block, 1.0)
        assert new.dim == state.dim + (width if kept else 0)
        assert orthonormality_defect(new.V) <= 1e-12

    def test_bases_are_fortran_ordered(self):
        # contiguous columns for the CGS2 passes and for project's
        # column-wise sparse products
        tf = make_delay_fixture(50)
        state = SubspaceState(V=np.eye(50)[:, :1], W=np.eye(50)[:, :1])
        for omega in (0.5, 1.5, 2.5):
            state = expand(state, *expansion_block(tf, omega), omega)
        assert state.dim == 4
        assert state.V.flags.f_contiguous and state.W.flags.f_contiguous

    def test_fresh_columns_grow_by_block_width(self):
        rng = np.random.default_rng(31)
        q, _ = np.linalg.qr(rng.standard_normal((10, 3)))
        state = SubspaceState(V=q, W=q.copy())
        block = rng.standard_normal((10, 2))
        new = expand(state, block, block, 1.0)
        assert new.dim == 5
        assert new.dim != state.dim

    def test_unequal_drops_are_rebalanced(self):
        rng = np.random.default_rng(32)
        q, _ = np.linalg.qr(rng.standard_normal((10, 3)))
        state = SubspaceState(V=q, W=q.copy())
        dependent = q[:, :1] @ np.array([[2.0]])
        fresh = rng.standard_normal((10, 1))
        new = expand(state, dependent, fresh, 1.0)
        assert new.V.shape[1] == new.W.shape[1]

    def test_orthonormality_after_many_expansions(self):
        rng = np.random.default_rng(33)
        state = SubspaceState.empty(40)
        for k in range(50):
            block = rng.standard_normal((40, 1)) + 1j * rng.standard_normal((40, 1))
            state = expand(state, block, block.conj(), float(k))
        assert state.dim == 40
        assert orthonormality_defect(state.V) <= 1e-12
        assert orthonormality_defect(state.W) <= 1e-12

    @pytest.mark.parametrize("shape", [(10,), (9, 1), (1, 10)])
    def test_block_shape_is_checked(self, shape):
        # a block is read as columns with one row per basis row; a 1-D
        # block is not read as a (1, n) row
        state = SubspaceState.empty(10)
        good = np.ones((10, 1))
        bad = np.random.default_rng(35).standard_normal(shape)
        with pytest.raises(DimensionMismatch):
            expand(state, bad, good, 1.0)
        with pytest.raises(DimensionMismatch):
            expand(state, good, bad, 1.0)

    def test_input_state_is_unchanged(self):
        rng = np.random.default_rng(34)
        q, _ = np.linalg.qr(rng.standard_normal((10, 3)))
        state = SubspaceState(V=q, W=q.copy(), points=(0.5, 1.5))
        v0, w0 = state.V.copy(), state.W.copy()
        block = rng.standard_normal((10, 2))
        new = expand(state, block, block, 2.5)
        np.testing.assert_array_equal(state.V, v0)
        np.testing.assert_array_equal(state.W, w0)
        assert state.points == (0.5, 1.5)
        assert new.points == state.points + (2.5,)
        assert new.dim == 5
        np.testing.assert_array_equal(new.V[:, :3], v0)

    def test_two_expansions_of_one_state_are_independent(self):
        # each expansion makes new bases, so the first child stays as it
        # was when its parent is expanded again
        rng = np.random.default_rng(36)
        state = SubspaceState.empty(20)
        for k in range(3):
            block = rng.standard_normal((20, 1)) + 1j * rng.standard_normal((20, 1))
            state = expand(state, block, block.conj(), float(k))
        first = expand(state, rng.standard_normal((20, 2)),
                       rng.standard_normal((20, 2)), 3.0)
        v1, w1 = first.V.copy(), first.W.copy()
        second = expand(state, rng.standard_normal((20, 2)),
                        rng.standard_normal((20, 2)), 4.0)
        assert first.dim == second.dim == 5
        np.testing.assert_array_equal(first.V, v1)
        np.testing.assert_array_equal(first.W, w1)
        np.testing.assert_array_equal(second.V[:, :3], state.V)
        np.testing.assert_array_equal(second.W[:, :3], state.W)
        assert not np.shares_memory(first.V, second.V)
        assert np.linalg.norm(second.V[:, 3:] - v1[:, 3:]) > 0.1
        # both children keep growing without touching the other
        v2 = second.V.copy()
        grand = expand(first, rng.standard_normal((20, 1)),
                       rng.standard_normal((20, 1)), 5.0)
        assert grand.dim == 6
        np.testing.assert_array_equal(second.V, v2)
        np.testing.assert_array_equal(first.V, v1)

    def test_user_built_c_ordered_float_state(self):
        rng = np.random.default_rng(37)
        q = np.ascontiguousarray(np.linalg.qr(rng.standard_normal((12, 3)))[0])
        assert q.flags.c_contiguous and not q.flags.f_contiguous
        state = SubspaceState(V=q, W=q.copy())
        block = rng.standard_normal((12, 1)) + 1j * rng.standard_normal((12, 1))
        new = expand(state, block, block, 1.0)
        assert new.dim == 4
        assert new.V.flags.f_contiguous and new.W.flags.f_contiguous
        np.testing.assert_array_equal(new.V[:, :3], q)
        np.testing.assert_array_equal(state.V, q)
        assert orthonormality_defect(new.V) <= 1e-12

    def test_replaced_bases_are_expanded(self):
        # a state made by dataclasses.replace from an expanded one is
        # expanded from its own bases
        rng = np.random.default_rng(38)
        state = expand(SubspaceState.empty(12), rng.standard_normal((12, 3)),
                       rng.standard_normal((12, 3)), 0.0)
        q, _ = np.linalg.qr(rng.standard_normal((12, 3))
                            + 1j * rng.standard_normal((12, 3)))
        block = rng.standard_normal((12, 1))
        new = expand(dataclasses.replace(state, V=q, W=q.copy()),
                     block, block, 1.0)
        np.testing.assert_array_equal(new.V[:, :3], q)
        np.testing.assert_array_equal(new.W[:, :3], q)
        assert orthonormality_defect(new.V) <= 1e-12


class TestBlockOrthonormalization:
    def test_delay_initial_block_matches_cgs2(self):
        # omega = 44.44 fails the deflation test at 0.94 of the threshold;
        # omega = 50 passes at 1.03, but only once omega = 44.44 is gone
        tf = make_delay_fixture(2000)
        points = tuple(np.linspace(0.0, 50.0, 10).tolist())
        blocks = [expansion_block(tf, w) for w in points]
        state = SubspaceState.empty(2000)
        for omega, block in zip(points, blocks):
            state = expand(state, *block, omega)
        assert state.points == points
        for basis, side in ((state.V, 0), (state.W, 1)):
            basis = padded(basis, 2000)
            block = np.hstack([b[side] for b in blocks])
            ref, kept = cgs2_reference(block, greedy.DEFLATION_TOL)
            assert kept == [0, 1, 2, 3, 4, 5, 6, 7, 9]
            assert basis.shape[1] == 9
            assert orthonormality_defect(basis) <= 1e-12
            # the span and the reference's agree on every block column
            norms = np.linalg.norm(block, axis=0)
            diff = (basis @ (basis.conj().T @ block)
                    - ref @ (ref.conj().T @ block))
            assert np.all(np.linalg.norm(diff, axis=0) <= 1e-12 * norms)
            resid = np.linalg.norm(
                block - basis @ (basis.conj().T @ block), axis=0) / norms
            assert resid[9] <= 1e-12 < resid[8]

    def test_later_column_along_a_dropped_direction_is_kept(self):
        # x1 = u0 + 1e-12 u1 adds u1 to x0 = u0, below DEFLATION_TOL, and
        # x2 = u1 lies along that direction.  Orthonormalizing the block and
        # then dropping x1's column (as an unpivoted QR that drops the
        # failed Q column would) loses x2; the sequential rule keeps x2's
        # residual against u0
        rng = np.random.default_rng(39)
        u, _ = np.linalg.qr(rng.standard_normal((12, 3))
                            + 1j * rng.standard_normal((12, 3)))
        block = np.column_stack((u[:, 0], u[:, 0] + 1e-12 * u[:, 1], u[:, 1]))
        new = expand(SubspaceState.empty(12), block, block, 1.0)
        assert new.dim == 2 and new.points == (1.0,)
        assert orthonormality_defect(new.V) <= 1e-12
        assert np.linalg.norm(block - new.V @ (new.V.conj().T @ block)) <= 1e-12

    def test_ill_conditioned_columns_after_a_drop(self):
        # 2x is dropped, then y and y + 1e-8 z are both kept: a
        # factorization of the block would multiply the rounding of the
        # last column along x by their condition number, about 1e8
        rng = np.random.default_rng(42)
        x, y, z = rng.standard_normal((3, 30)) + 1j * rng.standard_normal((3, 30))
        block = np.column_stack((x, 2 * x, y, y + 1e-8 * z))
        new = expand(SubspaceState.empty(30), block, block, 1.0)
        assert new.dim == 3
        assert orthonormality_defect(new.V) <= 1e-14
        assert np.linalg.norm(block - new.V @ (new.V.conj().T @ block)) <= 1e-12

    def test_later_delay_expansions_skip_the_zero_rows(self, monkeypatch):
        # the delay resolvents at omega = 0, 10, 20 end at rows 473, 386
        # and 517 of 5000: each basis holds the rows up to the latest end
        # so far, and each pass runs over them
        tf = make_delay_fixture(5000)
        rows = []
        inner_append = greedy._append_orthonormal

        def spy(q, k, block):
            assert block.shape[0] == q.shape[0]
            rows.append(q.shape[0])
            return inner_append(q, k, block)

        monkeypatch.setattr(greedy, "_append_orthonormal", spy)
        state = SubspaceState.empty(5000)
        for omega in (0.0, 10.0, 20.0):
            state = expand(state, *expansion_block(tf, omega), omega)
        assert rows == [473, 473, 473, 473, 517, 517]
        assert state.dim == 3 and state.n == 5000
        for basis in (state.V, state.W):
            assert basis.shape[0] == 517
            assert orthonormality_defect(basis) <= 1e-12
            assert not basis[517:].any()

    def test_replaced_dense_bases_are_passed_over_every_row(self):
        # a state made by dataclasses.replace with dense bases of all n
        # rows keeps them all: its expansion holds, and passes over, every
        # row
        tf = make_delay_fixture(5000)
        state = SubspaceState.empty(5000)
        for omega in (0.0, 10.0):
            state = expand(state, *expansion_block(tf, omega), omega)
        rng = np.random.default_rng(44)
        q, _ = np.linalg.qr(rng.standard_normal((5000, 2))
                            + 1j * rng.standard_normal((5000, 2)))
        new = expand(dataclasses.replace(state, V=q, W=q.copy()),
                     *expansion_block(tf, 20.0), 20.0)
        assert new.dim == 3
        assert new.V.shape[0] == new.W.shape[0] == new.n == 5000
        np.testing.assert_array_equal(new.V[:, :2], q)
        assert orthonormality_defect(new.V) <= 1e-12
        assert orthonormality_defect(new.W) <= 1e-12

    def test_run_expands_the_initial_points_once(self, monkeypatch,
                                                 run_states):
        # one expand per initial point that is not singular, starting from
        # the empty state of the function's order
        calls = []
        inner_expand = greedy.expand

        def spy(state, Vb, Wb, omega):
            new = inner_expand(state, Vb, Wb, omega)
            calls.append((state, omega, new))
            return new

        monkeypatch.setattr(greedy, "expand", spy)
        tf, interval = random_descriptor(60, 1, 1, seed=43)
        seeded = (tf, RunConfig(omega_max=interval[1], r0=6,
                                inner=InnerConfig(interval=interval)))
        # singular at s = 0, the first equidistant point, and not seeded
        tf = descriptor_tf(np.eye(2), np.diag([0.0, -1.0]),
                           np.array([[0.0], [1.0]]), np.array([[0.0, 1.0]]))
        singular_first = (tf, RunConfig(omega_max=5.0, r0=10))
        for tf, cfg in (seeded, singular_first):
            calls.clear()
            run_states.clear()
            res = run(tf, cfg)
            points = tuple(w for w in np.linspace(0.0, cfg.omega_max, cfg.r0)
                           if w not in res.skipped_points) + res.seeds
            # seeds in the first case, a skipped point in the second
            assert bool(res.seeds) != bool(res.skipped_points)
            initial = calls[:len(points)]
            assert tuple(omega for _, omega, _ in initial) == points
            assert initial[0][0].dim == 0
            for k, (state, _, new) in enumerate(initial):
                assert state.n == new.n == tf.n
                assert new.points == points[:k + 1]
            last = initial[-1][2]
            assert run_states[0].V is last.V and run_states[0].W is last.W
            assert run_states[0].points == last.points


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

    def test_delay_run_memory_per_order(self):
        # what one run holds beyond its fixture and bands, per order: the
        # three complex bands of D(s), which zgtsv eliminates in place,
        # X = D(s)^{-1} B(s) and the moduli of the pivot check, about 72
        # bytes per order; zgttrf's second superdiagonal and pivots made it
        # about 84, and both resolvent blocks of the previous shift, a copy
        # of B(s) and a conjugate made beside the factorization about 148.
        # The inner maximization's 2.8 MB do not depend on the order, so
        # the bound is on the growth between two orders
        cfg = RunConfig(omega_max=50.0,
                        inner=InnerConfig(interval=(0, 50),
                                          curvature_bound=-100.0))
        peaks = []
        for n in (40000, 80000):
            tf = make_delay_fixture(n)
            assert tf.d_factor.bands is not None
            res, peak = peak_bytes(lambda: run(tf, cfg))
            assert res.norm == pytest.approx(0.2376599180, abs=1e-10)
            peaks.append(peak)
        assert peaks[1] - peaks[0] <= 90 * 40000

    def test_kept_states_never_change(self, monkeypatch, run_states):
        # each state run() maximizes must still hold what it held when it
        # was projected, after every later expansion
        taken = []
        inner_project = greedy.project

        def copying(tf, V, W, *args, **kwargs):
            taken.append((V.copy(), W.copy()))
            return inner_project(tf, V, W, *args, **kwargs)

        monkeypatch.setattr(greedy, "project", copying)
        monkeypatch.setattr(greedy, "dominant_frequencies", lambda tf: ())
        tf, interval = random_descriptor(50, 2, 2, seed=46)
        cfg = RunConfig(omega_max=interval[1], r0=4,
                        eps=1e-12, inner=InnerConfig(interval=interval))
        res = run(tf, cfg)
        assert len(run_states) == len(taken) == 5
        for state, (v, w) in zip(run_states, taken):
            np.testing.assert_array_equal(state.V, v)
            np.testing.assert_array_equal(state.W, w)
        sw = grid_norm(tf, interval, 4001, refine_tol=1e-12)
        assert res.norm == pytest.approx(sw.best_sigma, rel=1e-12)

    @pytest.mark.parametrize("n, m, r0, seed, eps, decay", [
        (50, 2, 4, 46, 1e-12, (0.1, 2.0)),   # test_kept_states_never_change's
        (60, 1, 6, 103, 1e-6, (1e-3, 2e-3)),  # lightly damped
        (60, 1, 12, 105, 1e-6, (1e-3, 2e-3)),
        (60, 2, 6, 109, 1e-6, (1e-3, 2e-3)),
        (60, 2, 6, 117, 1e-6, (1e-3, 2e-3)),
    ])
    def test_every_maximization_sees_a_larger_basis(self, monkeypatch, n, m,
                                                    r0, seed, eps, decay):
        # an expansion that adds no column ends the run: the unchanged model
        # is never maximized again
        dims = []
        inner_project = greedy.project

        def spy_project(tf, V, W):
            dims.append(V.shape[1])
            return inner_project(tf, V, W)

        monkeypatch.setattr(greedy, "project", spy_project)
        tf, interval = random_descriptor(n, m, m, seed, min_decay=decay[0],
                                         max_decay=decay[1])
        res = run(tf, RunConfig(omega_max=interval[1], r0=r0, eps=eps,
                                inner=InnerConfig(interval=interval)))
        assert res.stop_reason == CONVERGED
        assert len(dims) == len(res.history) >= 2
        assert all(b > a for a, b in zip(dims, dims[1:]))

    def test_revisit_of_an_initial_point_converges(self, monkeypatch):
        # the model interpolates H at each initial point, so an expansion
        # there adds no column and the run stops at that point
        tf, interval = random_descriptor(40, 1, 1, seed=47)
        monkeypatch.setattr(greedy, "dominant_frequencies", lambda tf: ())
        revisit = np.linspace(0.0, interval[1], 6).tolist()[2]
        inner_maximize = greedy.maximize
        inner_block = greedy.expansion_block
        calls, expanded = [], []

        def fake_maximize(rm, cfg, points=()):
            calls.append(points)
            res = inner_maximize(rm, cfg, points)
            if len(calls) == 2:
                res = dataclasses.replace(res, omega_opt=revisit)
            return res

        def spy_block(tf, omega):
            if calls:    # after the initial points
                expanded.append(omega)
            return inner_block(tf, omega)

        monkeypatch.setattr(greedy, "maximize", fake_maximize)
        monkeypatch.setattr(greedy, "expansion_block", spy_block)
        res = run(tf, RunConfig(omega_max=interval[1], r0=6,
                                inner=InnerConfig(interval=interval)))
        first = res.history[0]["omega"]
        assert revisit in calls[0] and abs(first - revisit) > 1e-3
        assert len(calls) == 2
        assert expanded == [first, revisit]
        assert res.stop_reason == CONVERGED
        assert res.omega_opt == revisit
        assert res.norm == sigma_max(tf, revisit)

    def test_repair_at_a_pole_stops_singular_expansion(self):
        # poles at +-2i and -1: the reduced model of the initial points
        # 0, 4/3, 8/3, 4 has a pole on the axis, and its repair expansion at
        # the interval midpoint 2 is the pole itself
        a = np.array([[0.0, 2.0, 0.0], [-2.0, 0.0, 0.0], [0.0, 0.0, -1.0]])
        tf = descriptor_tf(np.eye(3), a, np.array([[1.0], [0.0], [1.0]]),
                           np.array([[1.0, 0.0, 1.0]]))
        res = run(tf, RunConfig(omega_max=4.0, r0=4,
                                inner=InnerConfig(interval=(0.0, 4.0))))
        assert res.stop_reason == SINGULAR_EXPANSION
        assert not res.converged
        assert res.history == []
        assert res.events == [
            {"kind": "repair", "omega": 2.0},
            {"kind": "singular_shift", "at": "expansion", "omega": 2.0}]

    def test_norm_is_sigma_max_at_omega_opt(self):
        # the certified norm is sigma_max's value, to the last bit: an SVD
        # without vectors rounds differently once min(m, p) >= 2
        for seed in range(40, 60):
            tf, interval = random_descriptor(30, 2, 2, seed=seed)
            res = run(tf, RunConfig(omega_max=interval[1], r0=6,
                                    inner=InnerConfig(interval=interval)))
            assert res.norm == sigma_max(tf, res.omega_opt), seed

    def test_delay_bases_are_conjugates(self, run_states):
        # the delay function is complex symmetric: each adjoint resolvent is
        # the conjugate of its direct one, and CGS2 keeps W = conj(V)
        tf = make_delay_fixture(5000)
        res = run(tf, RunConfig(omega_max=50.0,
                                inner=InnerConfig(interval=(0.0, 50.0),
                                                  curvature_bound=-100.0)))
        assert res.converged and run_states
        for state in run_states:
            np.testing.assert_array_equal(state.W, state.V.conj())
            assert state.V.shape[0] == state.W.shape[0] < state.n == tf.n

    def test_delay_projections_take_the_row_extents(self, monkeypatch,
                                                    run_states):
        # the delay resolvents end far above row 5000, and every projection
        # that run() and check_interpolation make takes only the bases'
        # stored rows
        extents = []
        inner_project = greedy.project

        def spy_project(tf, V, W):
            extents.append((V.shape[0], W.shape[0]))
            return inner_project(tf, V, W)

        monkeypatch.setattr(greedy, "project", spy_project)
        tf = make_delay_fixture(5000)
        res = run(tf, RunConfig(omega_max=50.0,
                                inner=InnerConfig(interval=(0.0, 50.0),
                                                  curvature_bound=-100.0)))
        assert res.converged and len(extents) >= 2
        check_interpolation(tf, run_states[-1])
        assert len(extents) == len(run_states) + 1
        assert all(max(rows) < tf.n for rows in extents)

    def test_monotone_span_with_keepall(self, run_states):
        tf, interval = random_descriptor(50, 1, 1, seed=44)
        cfg = RunConfig(omega_max=interval[1], r0=6,
                        inner=InnerConfig(interval=interval))
        run(tf, cfg)
        assert len(run_states) >= 2
        for prev, cur in zip(run_states[:-1], run_states[1:]):
            proj = cur.V @ (cur.V.conj().T @ prev.V)
            assert np.linalg.norm(proj - prev.V) <= 1e-10

    def test_real_parent_searches_nonnegative_omega(self):
        # sigma is even in omega for a real H, so an interval reaching below
        # zero is searched on its omega >= 0 part only
        tf, (_, hi) = random_descriptor(40, 2, 2, seed=7001)
        assert tf.is_real
        both = run(tf, RunConfig(omega_max=hi,
                                 inner=InnerConfig(interval=(-hi, hi))))
        half = run(tf, RunConfig(omega_max=hi,
                                 inner=InnerConfig(interval=(0.0, hi))))
        assert both.norm == half.norm
        assert both.omega_opt == half.omega_opt
        assert both.omega_opt >= 0.0

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
        assert res.events[0] == {"kind": "singular_shift",
                                 "at": "initial_point", "omega": 0.0}

    def test_stop_reason_converged(self):
        res = run(siso_one_pole(), RunConfig(omega_max=1.0, r0=2))
        assert res.stop_reason == CONVERGED
        assert res.converged

    def test_stop_reason_max_iterations(self):
        tf, interval = random_descriptor(30, 1, 1, seed=42)
        res = run(tf, RunConfig(omega_max=interval[1], r0=2, r_max=1,
                                inner=InnerConfig(interval=interval)))
        assert res.stop_reason == MAX_ITERATIONS
        assert not res.converged
        # the stop reason says it all: no event
        assert res.events == []

    def test_stop_reason_singular_expansion(self):
        # as above: the maximizer omega = 0 is the skipped singular shift
        tf = descriptor_tf(np.eye(2), np.diag([0.0, -1.0]),
                           np.array([[0.0], [1.0]]), np.array([[0.0, 1.0]]))
        res = run(tf, RunConfig(omega_max=5.0, r0=10))
        assert res.stop_reason == SINGULAR_EXPANSION
        assert not res.converged
        # singular as an initial point, as the expansion and as the final
        # certification, which keeps the reduced sigma
        assert res.events == [
            {"kind": "singular_shift", "at": at, "omega": 0.0}
            for at in ("initial_point", "expansion")] + [
            {"kind": "singular_shift", "at": "certification", "omega": 0.0,
             "sigma": res.history[-1]["sigma"]}]

    def test_stop_reason_repair_failed(self, monkeypatch):
        # the reduced model has an axis pole before and after the repair
        # expansion at the interval midpoint
        tf, interval = random_descriptor(30, 1, 1, seed=42)
        calls = []

        def unbounded(rm, cfg, points=()):
            calls.append(rm.n)
            raise UnboundedOnAxis("pole on the axis")

        monkeypatch.setattr(greedy, "maximize", unbounded)
        res = run(tf, RunConfig(omega_max=interval[1], r0=4,
                                inner=InnerConfig(interval=interval)))
        assert len(calls) == 2 and calls[1] > calls[0]
        assert res.stop_reason == REPAIR_FAILED
        assert not res.converged
        assert res.history == []
        assert res.events == [{"kind": "repair",
                               "omega": 0.5 * sum(interval)}]
        # certified on the full H at the last omega, here the first point
        assert res.omega_opt == 0.0
        assert res.norm == sigma_max(tf, 0.0)

    def test_repair_that_succeeds_is_an_event(self, monkeypatch):
        # one axis pole: the model after the repair expansion at the
        # interval midpoint is maximized as usual, and the repair is recorded
        tf, interval = random_descriptor(30, 1, 1, seed=42)
        inner_maximize = greedy.maximize
        calls = []

        def unbounded_once(rm, cfg, points=()):
            calls.append(points)
            if len(calls) == 1:
                raise UnboundedOnAxis("pole on the axis")
            return inner_maximize(rm, cfg, points)

        monkeypatch.setattr(greedy, "maximize", unbounded_once)
        res = run(tf, RunConfig(omega_max=interval[1], r0=4,
                                inner=InnerConfig(interval=interval)))
        mid = 0.5 * sum(interval)
        assert calls[1] == calls[0] + (mid,)
        assert res.stop_reason == CONVERGED
        assert res.events == [{"kind": "repair", "omega": mid}]

    def test_singular_certification_keeps_the_reduced_sigma(self,
                                                            monkeypatch):
        def singular(tf, omega):
            raise SingularShift(1j * omega)

        monkeypatch.setattr(greedy, "sigma_max", singular)
        tf, interval = random_descriptor(30, 1, 1, seed=42)
        res = run(tf, RunConfig(omega_max=interval[1], r0=4,
                                inner=InnerConfig(interval=interval)))
        assert res.history and res.norm == res.history[-1]["sigma"]
        assert [e for e in res.events if e["kind"] == "singular_shift"] == [
            {"kind": "singular_shift", "at": "certification",
             "omega": res.omega_opt, "sigma": res.norm}]

    def test_seeds_follow_the_equidistant_points(self, run_states):
        tf, interval = random_descriptor(60, 1, 1, seed=43)
        cfg = RunConfig(omega_max=interval[1], r0=15,
                        inner=InnerConfig(interval=interval))
        res = run(tf, cfg)
        assert res.seeds == dominant_frequencies(tf)
        assert len(res.seeds) == DOMINANT_SEEDS
        grid = np.linspace(0.0, interval[1], 15).tolist()
        assert run_states[0].points == tuple(grid) + res.seeds

    def test_seeds_outside_the_search_interval_are_dropped(self):
        tf, (_, hi) = random_descriptor(60, 1, 1, seed=43)
        res = run(tf, RunConfig(omega_max=hi,
                                inner=InnerConfig(interval=(-2.0, 2.0))))
        # real H: the search interval is [0, 2] after the omega >= 0 clip
        assert res.seeds == tuple(w for w in dominant_frequencies(tf)
                                  if w <= 2.0)
        assert 0 < len(res.seeds) < DOMINANT_SEEDS
        # each dropped seed is reported
        assert res.events == [{"kind": "seed_outside_interval", "omega": w}
                              for w in dominant_frequencies(tf) if w > 2.0]

    def test_delay_function_is_not_seeded(self):
        res = run(make_delay_fixture(100),
                  RunConfig(omega_max=50.0,
                            inner=InnerConfig(interval=(0, 50),
                                              curvature_bound=-100.0)))
        assert res.seeds == ()

    def test_all_initial_points_singular(self):
        # D(s) = s E with singular E is singular at every shift
        d = MatrixFactor([(ScalarTerm(degree=1), np.diag([1.0, 0.0]))])
        b = MatrixFactor([(ScalarTerm(), np.ones((2, 1)))])
        c = MatrixFactor([(ScalarTerm(), np.ones((1, 2)))])
        with pytest.raises(AllShiftsSingular):
            run(StructuredTF(c, d, b), RunConfig(omega_max=5.0, r0=4))


class TestCheckInterpolation:
    def test_hermite_at_every_point_of_every_state(self, run_states):
        tf, interval = random_descriptor(60, 2, 2, seed=50)
        cfg = RunConfig(omega_max=interval[1], r0=6,
                        inner=InnerConfig(interval=interval))
        run(tf, cfg)
        assert run_states
        for state in run_states:
            for entry in check_interpolation(tf, state):
                # one report shape: every entry carries the slopes
                assert set(entry) == {
                    "omega", "h_norm", "matrix_mismatch", "sigma_gap",
                    "slope_full", "slope_reduced", "slope_mismatch", "simple"}
                assert entry["matrix_mismatch"] <= 1e-8 * (1 + entry["h_norm"])
                if entry["simple"]:
                    assert entry["slope_mismatch"] <= 1e-6 * (
                        1 + abs(entry["slope_full"]))

    def test_full_order_slopes_one_point_at_a_time(self, monkeypatch):
        # a dense full-order D must not be stacked over all points at once,
        # and H comes with its slope from one factorization per point: no
        # separate StructuredTF.eval
        tf, interval = random_descriptor(30, 2, 2, seed=52)
        state = SubspaceState.empty(tf.n)
        for omega in (0.5, 1.5, 2.5, 3.5):
            state = expand(state, *expansion_block(tf, omega), omega)
        calls = []
        eval_stack = StructuredTF.eval_stack

        def spy(model, shifts, derivative=False):
            calls.append((model is tf, len(shifts)))
            return eval_stack(model, shifts, derivative)

        def no_eval(model, s):
            raise AssertionError("StructuredTF.eval called")

        monkeypatch.setattr(StructuredTF, "eval_stack", spy)
        monkeypatch.setattr(StructuredTF, "eval", no_eval)
        report = check_interpolation(tf, state)
        assert len(report) == 4
        assert [n for full, n in calls if full] == [1, 1, 1, 1]
        assert [n for full, n in calls if not full] == [4]

    def test_empty_state_empty_report(self):
        tf = siso_one_pole()
        assert check_interpolation(tf, SubspaceState.empty(1)) == []

    def test_nonsimple_flag(self):
        # twice the same SISO channel: sigma_1 = sigma_2 exactly
        tf = descriptor_tf(np.eye(2), -np.eye(2), np.eye(2), np.eye(2))
        state = expand(SubspaceState.empty(2), *expansion_block(tf, 1.0), 1.0)
        [entry] = check_interpolation(tf, state)
        assert not entry["simple"]


class TestConvergenceRatios:
    def test_matches_direct_formula(self):
        omegas = [3.0, 1.5, 1.1, 1.01, 1.0001]
        star = 1.0
        errs, ratios = convergence_ratios(omegas, star)
        assert errs == [abs(w - star) for w in omegas]
        assert ratios[0] == pytest.approx(
            errs[2] / (errs[1] * max(errs[0], errs[1])))
        assert len(ratios) == 3
