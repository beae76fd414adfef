"""Tests for the level-set and quadratic-support inner maximizers."""

import bisect

import numpy as np
import pytest
import scipy.linalg as sla

import linfnorm.inner as inner
from linfnorm.errors import InvalidBound, SingularShift
from linfnorm.greedy import (RunConfig, SubspaceState, expand,
                             expansion_block, run)
from linfnorm.inner import (InnerConfig, bb_norm, imaginary_crossings,
                            maximize, qsupport_maximize, standard_form,
                            triangular_form, triangular_sigma_and_slope)
from linfnorm.oracle import grid_norm
from linfnorm.problems import descriptor_tf, make_delay_fixture
from linfnorm.reduced import (project, rational_realization, sigma_and_slope,
                              sigma_max)
from linfnorm.structured import MatrixFactor, ScalarTerm, StructuredTF

from conftest import (constant_factor, non_numbers, pointwise_sigma_and_slope,
                      random_descriptor, random_rational_reduced,
                      siso_one_pole, siso_two_pole)

DELAY_INNER = InnerConfig(interval=(0.0, 50.0), curvature_bound=-100.0)


def estimated_curvature_bound(model, interval, npoints=400):
    """Safe lower bound on (-sigma)'' from a finite-difference grid sweep."""
    lo, hi = interval
    ws = np.linspace(lo, hi, npoints)
    sig = np.array([sigma_max(model, w) for w in ws])
    h = ws[1] - ws[0]
    second = (sig[2:] - 2 * sig[1:-1] + sig[:-2]) / h**2
    worst = float(second.max())  # max sigma'' == -min (-sigma)''
    return -(1.5 * abs(worst) + 1.0)


def projected_descriptor(seed):
    """A random descriptor of order 40 (m = p = 2) projected at six
    equidistant points; its reduced E = W^* V is not the identity."""
    tf, interval = random_descriptor(40, 2, 2, seed)
    state = SubspaceState.empty(tf.n)
    for w in np.linspace(*interval, 6):
        state = expand(state, *expansion_block(tf, float(w)), float(w))
    return project(tf, state.V, state.W), interval


def delay_reduced_model(n):
    """The delay model of order n projected at ten equidistant points in
    [0, 50], as run() initializes it."""
    tf = make_delay_fixture(n)
    state = SubspaceState.empty(tf.n)
    for w in np.linspace(0.0, 50.0, 10):
        state = expand(state, *expansion_block(tf, float(w)), float(w))
    return project(tf, state.V, state.W)


def pointwise_qsupport(f, cfg):
    """The support search of qsupport_maximize, one scalar f(omega) call
    per point and no InvalidBound check: the reference for the batched
    search.  Returns (omega_opt, value, evaluations, rounds)."""
    lo, hi = cfg.interval
    c2 = -0.5 * cfg.curvature_bound
    samples = []
    best_w, best = lo, -np.inf
    for w in (lo, 0.5 * (lo + hi), hi):
        samples.append((w, *f(w)))
        if samples[-1][1] > best:
            best_w, best = w, samples[-1][1]
    rounds = 0
    while True:
        tol = cfg.support_tol * (1.0 + abs(best))
        envelope, targets = -np.inf, []
        for (wa, sa, da), (wb, sb, db) in zip(samples[:-1], samples[1:]):
            lin = (da - db) + 2.0 * c2 * (wb - wa)
            const = ((sa - da * wa + c2 * wa * wa)
                     - (sb - db * wb + c2 * wb * wb))
            wx = 0.5 * (wa + wb) if lin == 0.0 else -const / lin
            wx = min(max(wx, wa), wb)
            xa, xb = wx - wa, wx - wb
            v = min(sa + da * xa + c2 * xa * xa, sb + db * xb + c2 * xb * xb)
            envelope = max(envelope, v)
            if (v - best > tol
                    and min(xa, wb - wx) > 1e-13 * (1.0 + abs(wx))):
                targets.append(wx)
        if envelope - best <= tol or not targets:
            return best_w, best, len(samples), rounds
        rounds += 1
        for w in targets:
            s, d = f(w)
            bisect.insort(samples, (w, s, d))
            if s > best:
                best_w, best = w, s


def spy_on_evaluator(monkeypatch):
    """The number of omegas of every sigma_and_slope call the inner solvers
    make, in call order."""
    sizes = []
    batched = inner.sigma_and_slope

    def spy(model, omegas, slope=False):
        sizes.append(len(omegas))
        return batched(model, omegas, slope)

    monkeypatch.setattr(inner, "sigma_and_slope", spy)
    return sizes


def singular_e_descriptor(seed=0):
    """Order 8 with E = diag(1, ..., 1, 0, 0) and m = p = 2: the stable
    state-space part of random_descriptor(6, ...) and two algebraic
    equations driven by it.  Returns (tf, interval)."""
    tf6, interval = random_descriptor(6, 2, 2, seed)
    a6 = rational_realization(tf6)[1].real
    rng = np.random.default_rng(seed + 1)
    a = np.zeros((8, 8))
    a[:6, :6] = a6
    a[6:, :6] = rng.standard_normal((2, 6))
    a[6:, 6:] = -np.eye(2) - 0.5 * rng.standard_normal((2, 2))
    e = np.diag([1.0] * 6 + [0.0, 0.0])
    b = rng.standard_normal((8, 2))
    c = rng.standard_normal((2, 8))
    return descriptor_tf(e, a, b, c), interval


class TestInnerConfig:
    @pytest.mark.parametrize("field, kwargs", [
        ("interval", {"interval": (0.0, np.inf)}),
        ("interval", {"interval": (-np.inf, 1.0)}),
        ("interval", {"interval": (0.0, np.nan)}),
        ("curvature_bound", {"interval": (0.0, 1.0),
                             "curvature_bound": -np.inf}),
        ("support_tol", {"interval": (0.0, 1.0), "support_tol": np.nan}),
        ("support_tol", {"interval": (0.0, 1.0), "support_tol": np.inf}),
        ("support_tol", {"interval": (0.0, 1.0), "support_tol": -1.0}),
        ("max_inner_iters", {"interval": (0.0, 1.0), "max_inner_iters": 0}),
        ("max_inner_iters", {"interval": (0.0, 1.0), "max_inner_iters": -3}),
        ("max_inner_iters", {"interval": (0.0, 1.0),
                             "max_inner_iters": 2.5}),
        ("max_inner_iters", {"interval": (0.0, 1.0),
                             "max_inner_iters": True}),
        ("interval", {"interval": (False, True)}),
        ("interval", {"interval": (0.0, np.True_)}),
        ("support_tol", {"interval": (0.0, 1.0), "support_tol": True}),
        ("support_tol", {"interval": (0.0, 1.0), "support_tol": False}),
        ("support_tol", {"interval": (0.0, 1.0), "support_tol": np.False_}),
        ("interval", {"interval": 5}),
        ("interval", {"interval": (0, 1, 2)}),
        *[("interval", {"interval": (0.0, v)}) for v in non_numbers(1.0)],
        *[("curvature_bound", {"interval": (0.0, 1.0), "curvature_bound": v})
          for v in non_numbers(-100.0)],
        *[("support_tol", {"interval": (0.0, 1.0), "support_tol": v})
          for v in non_numbers(0.0)],
    ])
    def test_non_finite_settings_name_their_field(self, field, kwargs):
        with pytest.raises(ValueError, match=field):
            InnerConfig(**kwargs)

    def test_zero_support_tol_and_one_round_are_valid(self):
        cfg = InnerConfig(interval=(0.0, 1.0), support_tol=0.0,
                          max_inner_iters=1)
        assert (cfg.support_tol, cfg.max_inner_iters) == (0.0, 1)


class TestImaginaryCrossings:
    def test_one_pole_level(self):
        rm = siso_one_pole()
        crossings = imaginary_crossings(rational_realization(rm), 1 / np.sqrt(2))
        np.testing.assert_allclose(crossings, [-1.0, 1.0], atol=1e-8)

    def test_level_above_norm_is_empty(self):
        rm = siso_one_pole()
        assert imaginary_crossings(rational_realization(rm), 2.0).size == 0

    def test_matches_grid_sign_changes(self):
        rm, interval = random_rational_reduced(6, 1, 1, seed=10)
        sw = grid_norm(rm, interval, 2001)
        gamma = 0.9 * sw.best_sigma
        crossings = imaginary_crossings(rational_realization(rm), gamma)
        crossings = np.array([w for w in crossings
                              if interval[0] <= w <= interval[1]])
        ws = np.linspace(interval[0], interval[1], 100_000)
        sig = np.array([sigma_max(rm, w) for w in ws])
        signs = np.sign(sig - gamma)
        change_idx = np.flatnonzero(np.diff(signs) != 0)
        grid_crossings = 0.5 * (ws[change_idx] + ws[change_idx + 1])
        assert len(crossings) == len(grid_crossings)
        np.testing.assert_allclose(np.sort(crossings), grid_crossings,
                                   atol=2 * (ws[1] - ws[0]))

    def test_symmetric_for_real_parent(self):
        rm, _ = random_rational_reduced(4, 1, 1, seed=11)
        sw = grid_norm(rm, (0, 10), 1001)
        crossings = imaginary_crossings(rational_realization(rm), 0.8 * sw.best_sigma)
        np.testing.assert_allclose(np.sort(crossings),
                                   np.sort(-crossings), atol=1e-7)

    def test_rejects_nonpositive_level(self):
        rm = siso_one_pole()
        with pytest.raises(ValueError):
            imaginary_crossings(rational_realization(rm), -1.0)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_standard_and_qz_routes_agree(self, seed):
        rm, interval = projected_descriptor(seed)
        realization = rational_realization(rm)
        e = realization[0]
        assert not np.allclose(e, np.eye(e.shape[0]))
        standard = standard_form(realization)
        assert standard[0] is None
        top = grid_norm(rm, interval, 2001).best_sigma
        for level in (0.3, 0.6, 0.95):
            qz = imaginary_crossings(realization, level * top)
            eig = imaginary_crossings(standard, level * top)
            assert len(qz) > 0
            assert len(eig) == len(qz)
            np.testing.assert_allclose(eig, qz, rtol=1e-9, atol=1e-12)


class TestBBNorm:
    def test_one_pole(self):
        res = bb_norm(siso_one_pole(),
                      InnerConfig(interval=(0, 10)))
        assert res.omega_opt == pytest.approx(0.0, abs=1e-9)
        assert res.value == pytest.approx(1.0)

    def test_two_pole(self):
        res = bb_norm(siso_two_pole(),
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
        sig = max(sigma_max(rm, w) for w in ws)
        assert res.value >= sig - 1e-9 * res.value

    def test_rejects_general_models(self):
        rm = make_delay_fixture(4)
        with pytest.raises(ValueError):
            bb_norm(rm, InnerConfig(interval=(0, 10)))

    def test_singular_e_matches_grid_oracle(self, monkeypatch):
        tf, interval = singular_e_descriptor()
        routes = []
        crossings = inner.imaginary_crossings

        def spy(realization, gamma):
            routes.append(realization[0] is None)
            return crossings(realization, gamma)

        monkeypatch.setattr(inner, "imaginary_crossings", spy)
        sw = grid_norm(tf, interval, 4001, refine_tol=1e-10)
        cfg = InnerConfig(interval=interval)
        assert bb_norm(tf, cfg).value == pytest.approx(sw.best_sigma,
                                                       rel=1e-7)
        # run() saturates the basis at n = 8, so every reduced E is
        # singular as well
        res = run(tf, RunConfig(omega_max=interval[1], inner=cfg))
        assert res.converged
        assert res.norm == pytest.approx(sw.best_sigma, rel=1e-7)
        assert routes and not any(routes)


def two_peak_model():
    """H(s) = 1/(s^2 + 0.1 s + 1) + 0.5/(s^2 + 0.3 s + 9): a peak of about
    10 near omega = 1 and one of about 0.6 near omega = 3."""
    a = sla.block_diag([[0.0, 1.0], [-1.0, -0.1]], [[0.0, 1.0], [-9.0, -0.3]])
    b = np.array([[0.0], [1.0], [0.0], [0.5]])
    c = np.array([[1.0, 0.0, 1.0, 0.0]])
    return descriptor_tf(np.eye(4), a, b, c)


class TestTriangular:
    @pytest.mark.parametrize("route", ["schur", "qz"])
    def test_matches_sigma_and_slope(self, route):
        if route == "schur":
            rm, interval = projected_descriptor(2)
        else:
            rm, interval = singular_e_descriptor()
        realization = standard_form(rational_realization(rm))
        assert (realization[0] is None) == (route == "schur")
        tri = triangular_form(realization)
        assert np.allclose(tri[1], np.triu(tri[1]), rtol=0, atol=0)
        ws = np.linspace(*interval, 41)
        sig, slope = triangular_sigma_and_slope(tri, ws, slope=True)
        ref_sig, ref_slope = sigma_and_slope(rm, ws, slope=True)
        np.testing.assert_allclose(sig, ref_sig, rtol=1e-11)
        np.testing.assert_allclose(slope, ref_slope, rtol=1e-8,
                                   atol=1e-8 * np.abs(ref_slope).max())
        alone, none = triangular_sigma_and_slope(tri, ws)
        np.testing.assert_array_equal(alone, sig)
        assert none is None
        # no shifts, as for the polish's bracket when both ends are the
        # interval's
        sig, slope = triangular_sigma_and_slope(tri, [], slope=True)
        assert sig.shape == slope.shape == (0,)
        assert sig.dtype == slope.dtype == np.float64
        assert triangular_sigma_and_slope(tri, [])[1] is None

    def test_polished_incumbent_ends_after_one_level(self, monkeypatch):
        # the best candidate, 1.1, sits on the flank of the global peak
        model = two_peak_model()
        solves = []
        crossings = inner.imaginary_crossings

        def spy(realization, gamma):
            solves.append(gamma)
            return crossings(realization, gamma)

        monkeypatch.setattr(inner, "imaginary_crossings", spy)
        cfg = InnerConfig(interval=(0.0, 4.0))
        cands = [0.0, 4.0, 2.0, 1.1]
        assert int(np.argmax(sigma_and_slope(model, cands)[0])) == 3
        res = bb_norm(model, cfg, points=(1.1,))
        assert len(solves) == 1
        sw = grid_norm(model, cfg.interval, 4001, refine_tol=1e-12)
        assert res.value == pytest.approx(sw.best_sigma, rel=1e-12)
        assert res.omega_opt == pytest.approx(sw.best_omega, rel=1e-6)

    def test_polish_lands_on_a_pole_peak_in_one_step(self):
        # 1/sigma^2 = (omega - 2)^2 + 1e-6 for H(s) = 1/(s + 1e-3 - 2i), so
        # g = sigma'/sigma^3 is linear: from the bracket [1.9, 2.5] of the
        # best candidate, one regula falsi step lands on the peak
        model = descriptor_tf(np.eye(1), np.array([[-1e-3 + 2j]]),
                              np.ones((1, 1)), np.ones((1, 1)))
        res = bb_norm(model, InnerConfig(interval=(0.0, 5.0)), points=(1.9,))
        assert res.evaluations == 4 + 1
        assert res.omega_opt == pytest.approx(2.0, abs=1e-12)
        assert res.value == pytest.approx(1e3, rel=1e-12)

    @pytest.mark.parametrize("route", ["schur", "qz"])
    def test_axis_pole_between_candidates(self, route):
        # a pole at 2.5i, which no candidate (0, 4 and 2) hits
        if route == "schur":
            model = descriptor_tf(np.eye(1), np.array([[2.5j]]), np.ones(1),
                                  np.ones(1))
        else:
            model = descriptor_tf(np.diag([1.0, 0.0]),
                                  np.diag([2.5j, 1.0]), np.ones((2, 1)),
                                  np.ones((1, 2)))
        with pytest.raises(SingularShift) as err:
            maximize(model, InnerConfig(interval=(0.0, 4.0)))
        assert err.value.s.imag == 2.5

    def test_axis_pole_carries_its_rcond_estimate(self):
        # a pole 2e-15 off the axis at 2.5i: |Re lambda| / ||A||_1 is below
        # RCOND_THRESHOLD = 1e-14
        pole = -2e-15 + 2.5j
        model = descriptor_tf(np.eye(1), np.array([[pole]]), np.ones(1),
                              np.ones(1))
        with pytest.raises(SingularShift) as err:
            maximize(model, InnerConfig(interval=(0.0, 4.0)))
        assert err.value.s == 2.5j
        assert err.value.rcond == pytest.approx(2e-15 / abs(pole), rel=1e-12)

    def test_axis_pole_outside_the_interval_is_left(self):
        # 1/(s - 5i) + 1/(s + 1) on [0, 4]: the pole at 5i is not searched
        model = descriptor_tf(np.eye(2), np.diag([5j, -1.0]), np.ones((2, 1)),
                              np.ones((1, 2)))
        res = maximize(model, InnerConfig(interval=(0.0, 4.0)))
        sw = grid_norm(model, (0.0, 4.0), 4001, refine_tol=1e-12)
        assert res.value == pytest.approx(sw.best_sigma, rel=1e-12)


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
        res = maximize(delay_reduced_model(100), DELAY_INNER)
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
            evals.extend(s)
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
        rm = make_delay_fixture(6)
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

            def f(ws, rm=rm):
                return sigma_and_slope(rm, ws, slope=True)

            res_q = qsupport_maximize(f, cfg_q)
            assert res_q.value == pytest.approx(res_bb.value, rel=1e-6)


class TestBatching:
    def test_support_search_one_call_per_round(self, monkeypatch):
        rm = delay_reduced_model(5000)
        sizes = spy_on_evaluator(monkeypatch)
        res = maximize(rm, DELAY_INNER)
        w, value, evals, rounds = pointwise_qsupport(
            lambda w: pointwise_sigma_and_slope(rm, w), DELAY_INNER)
        assert (res.omega_opt, res.value, res.evaluations) == (w, value, evals)
        assert res.evaluations == 542
        assert type(res.omega_opt) is float and type(res.value) is float
        # the three starting points, then one call per round
        assert sizes[0] == 3 and len(sizes) == 1 + rounds
        assert sum(sizes) == res.evaluations

    def test_level_set_one_call_per_level(self, monkeypatch):
        rm, interval = projected_descriptor(1)
        lo, hi = interval
        points = (0.25 * hi, 0.5 * hi, 2.0 * hi)  # the last is outside
        calls = []  # ("eval", omegas, sigmas) and ("level", crossings)
        evaluate = inner.triangular_sigma_and_slope
        crossings = inner.imaginary_crossings

        def spy_eval(realization, omegas, slope=False):
            out = evaluate(realization, omegas, slope)
            calls.append(("eval", list(omegas), out[0]))
            return out

        def spy_level(realization, gamma):
            out = crossings(realization, gamma)
            calls.append(("level", [w for w in out if lo < w < hi]))
            return out

        monkeypatch.setattr(inner, "triangular_sigma_and_slope", spy_eval)
        monkeypatch.setattr(inner, "imaginary_crossings", spy_level)
        res = bb_norm(rm, InnerConfig(interval=interval), points)
        sizes = [len(c[1]) for c in calls if c[0] == "eval"]
        # the candidates in one call
        assert calls[0][0] == "eval" and sizes[0] == 5
        batched = {0}
        levels = [i for i, c in enumerate(calls) if c[0] == "level"]
        assert sum(bool(calls[i][1]) for i in levels) >= 1
        for i in levels:
            if not calls[i][1]:
                assert i == len(calls) - 1
                continue
            # a level with crossings: its midpoints in one call, then the
            # crossings around the best midpoint in one call
            knots = sorted({lo, hi, *calls[i][1]})
            kind, omegas, sig = calls[i + 1]
            assert kind == "eval"
            assert omegas == [0.5 * (a + b) for a, b in zip(knots[:-1],
                                                            knots[1:])]
            batched.add(i + 1)
            if i + 2 < len(calls):
                k = int(np.argmax(sig))
                assert calls[i + 2][1] == [w for w in knots[k:k + 2]
                                           if lo < w < hi]
                batched.add(i + 2)
        # every other call is one polish step, at one point, before a level
        polish = [i for i, c in enumerate(calls)
                  if c[0] == "eval" and i not in batched]
        assert polish and all(len(calls[i][1]) == 1 for i in polish)
        assert all(i < levels[-1] for i in polish)
        assert sum(sizes) == res.evaluations
        sw = grid_norm(rm, interval, 2001, refine_tol=1e-10)
        assert res.value == pytest.approx(sw.best_sigma, rel=1e-7)

    @pytest.mark.parametrize("route", ["level_set", "support"])
    def test_axis_pole_names_its_omega(self, route):
        # the pole at 2i is the third point of the first batch
        if route == "level_set":
            # H(s) = 1/(s - 2i); candidates 0, 4 and 2
            model = descriptor_tf(np.eye(1), np.array([[2j]]), np.ones(1),
                                  np.ones(1))
            interval = (0.0, 4.0)
        else:
            # H(s) = 1/(s^2 + 4); starting points 1, 1.5 and 2
            d = MatrixFactor([(ScalarTerm(degree=2), np.eye(1)),
                              (ScalarTerm(), 4.0 * np.eye(1))])
            model = StructuredTF(constant_factor(1.0), d, constant_factor(1.0))
            interval = (1.0, 2.0)
        with pytest.raises(SingularShift) as err:
            maximize(model, InnerConfig(interval=interval))
        assert err.value.s.imag == 2.0
