"""Acceptance suite: one test per headline guarantee, one PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v` (the status lines are written
straight to the terminal, so they show up even under output capture).
"""

import os
import sys
import time

import numpy as np
import pytest
import scipy.linalg as sla
from scipy.optimize import minimize_scalar

from linfnorm.cli import bench_delay
from linfnorm.greedy import RunConfig, check_interpolation, run
from linfnorm.inner import InnerConfig, bb_norm, qsupport_maximize
from linfnorm.oracle import grid_norm
from linfnorm.problems import descriptor_tf, load_benchmark, make_delay_fixture
from linfnorm.reduced import sigma_and_slope, sigma_max

from conftest import random_descriptor, random_rational_reduced

DELAY_INNER = dict(interval=(0.0, 50.0), curvature_bound=-100.0)


def report(name, ok):
    line = f"{'PASS' if ok else 'FAIL'}: {name}"
    print(line, file=sys.__stdout__, flush=True)
    assert ok, line


def full_sigma(tf, omega):
    return np.linalg.svd(np.asarray(tf.eval(1j * omega)),
                         compute_uv=False)[0]


def fastest_of(repeats, fn, *args, **kwargs):
    """(result, seconds): the last result and the least wall time of
    ``repeats`` calls, so one slow sample under CPU load does not count."""
    best = np.inf
    for _ in range(repeats):
        t0 = time.perf_counter()
        out = fn(*args, **kwargs)
        best = min(best, time.perf_counter() - t0)
    return out, best


def test_delay_benchmark_exactness():
    """Published single-delay example: value, optimizer, iteration count,
    wall time."""
    t0 = time.perf_counter()
    row = bench_delay([100])[0]
    elapsed = time.perf_counter() - t0
    ok = (abs(row["norm"] - 0.23766) <= 1e-4 * 0.23766
          and abs(row["omega"] - 3.07547) <= 1e-3
          and row["iterations"] <= 3
          and elapsed < 10.0)
    report("delay benchmark exactness (n=100)", ok)


def test_delay_scaling_vs_oracle():
    """Solver runtime grows sublinearly relative to the sweep oracle and
    beats it by at least 2x at the largest order, with matching norms."""
    rel = []
    ok = True
    for n in (100, 1000, 10000):
        tf = make_delay_fixture(n)
        cfg = RunConfig(omega_max=50.0, inner=InnerConfig(**DELAY_INNER))
        res, t_solver = fastest_of(3, run, tf, cfg)
        sw, t_oracle = fastest_of(3, grid_norm, tf, (0.0, 50.0), 400,
                                  refine_tol=1e-8)
        rel.append(t_solver / t_oracle)
        ok = ok and abs(res.norm - sw.best_sigma) <= 1e-4 * sw.best_sigma
    ok = ok and rel[0] > rel[1] > rel[2] and rel[2] <= 0.5
    report("delay scaling vs oracle (n=100,1000,10000)", ok)


def test_delay_published_value_at_large_order():
    """The published single-delay value at n = 1e5, where the bases and
    their projections stop at the resolvents' last nonzero row."""
    tf = make_delay_fixture(100_000)
    res = run(tf, RunConfig(omega_max=50.0, inner=InnerConfig(**DELAY_INNER)))
    ok = (abs(res.norm - 0.2376599180) <= 1e-10
          and res.iterations <= 3 and res.converged)
    report("delay published value (n=1e5)", ok)


def test_hermite_interpolation_suite(run_states):
    """Reduced models match the full function in value and slope at every
    interpolation point, after every iteration, on 25 random systems."""
    rng = np.random.default_rng(300)
    shapes = [(1, 1), (2, 2), (1, 3), (3, 1), (2, 3)]
    ok = True
    for trial in range(25):
        m, p = shapes[trial % len(shapes)]
        n = int(rng.integers(20, 201))
        tf, interval = random_descriptor(n, m, p, seed=1000 + trial)
        cfg = RunConfig(omega_max=interval[1], r0=6,
                        inner=InnerConfig(interval=interval))
        run_states.clear()
        run(tf, cfg)
        for state in run_states:
            for entry in check_interpolation(tf, state):
                if entry["matrix_mismatch"] > 1e-8 * (1 + entry["h_norm"]):
                    ok = False
                if entry["simple"] and entry["slope_mismatch"] > 1e-6 * (
                        1 + abs(entry["slope_full"])):
                    ok = False
    report("Hermite interpolation after every iteration (25 systems)", ok)


def test_oracle_equivalence():
    """run() agrees with the dense sweep oracle to 1e-6 relative on 25
    random stable systems."""
    rng = np.random.default_rng(400)
    ok = True
    for trial in range(25):
        n = int(rng.integers(10, 101))
        m = p = 1 if trial % 2 else 2
        tf, interval = random_descriptor(n, m, p, seed=2000 + trial)
        cfg = RunConfig(omega_max=interval[1], r0=20,
                        inner=InnerConfig(interval=interval))
        res = run(tf, cfg)
        sw = grid_norm(tf, interval, 10_000, refine_tol=1e-9)
        if abs(res.norm - sw.best_sigma) > 1e-6 * sw.best_sigma:
            ok = False
    report("oracle equivalence on 25 random systems", ok)


def test_inner_solver_cross_check():
    """Level-set and quadratic-support maximizers agree on rational models."""
    ok = True
    for trial in range(10):
        dim = 4 + trial % 9  # dimensions 4..12
        rm, interval = random_rational_reduced(dim, 1, 1, seed=3000 + trial)
        res_bb = bb_norm(rm, InnerConfig(interval=interval))
        lo, hi = interval
        ws = np.linspace(lo, hi, 400)
        sig = np.array([sigma_max(rm, w) for w in ws])
        h = ws[1] - ws[0]
        curv = float(((sig[2:] - 2 * sig[1:-1] + sig[:-2]) / h**2).max())
        cfg_q = InnerConfig(interval=interval,
                            curvature_bound=-(1.5 * abs(curv) + 1.0),
                            max_inner_iters=500)
        res_q = qsupport_maximize(
            lambda ws, rm=rm: sigma_and_slope(rm, ws, slope=True), cfg_q)
        if abs(res_q.value - res_bb.value) > 1e-6 * res_bb.value:
            ok = False
    report("inner-solver cross-check on 10 rational models", ok)


def test_superlinear_signature():
    """On the order-4000 delay system the iterate errors contract faster
    than linearly: successive error ratios decrease and the final drop is
    at least one order of magnitude."""
    tf = make_delay_fixture(4000)
    neg_sigma = lambda w: -full_sigma(tf, w)
    star = minimize_scalar(neg_sigma, bracket=(3.05, 3.08, 3.1),
                           options={"xtol": 1e-13}).x
    cfg = RunConfig(omega_max=50.0, r0=1, eps=1e-10,
                    inner=InnerConfig(support_tol=1e-12,
                                      max_inner_iters=400, **DELAY_INNER))
    res = run(tf, cfg)
    errs = [abs(h["omega"] - star) for h in res.history]
    # keep the strictly decreasing prefix: once the iterates hit the inner
    # solver's resolution the errors stall at the noise floor
    tail = [errs[0]]
    for e in errs[1:]:
        if e < tail[-1]:
            tail.append(e)
        else:
            break
    ok = len(tail) >= 3
    if ok:
        ratios = [tail[i + 1] / tail[i] for i in range(len(tail) - 1)]
        ok = (ratios[-1] < ratios[-2]
              and tail[-2] / tail[-1] >= 10.0
              and res.converged)
    report("superlinear contraction on order-4000 delay system", ok)


def lightly_damped(seed, n=60, decay=1e-3, im_max=8.0):
    """Stable SISO (A, B, C) with poles -[d, 2d] +- i[0, im_max] behind an
    orthogonal similarity, and the top of a frequency interval that holds
    every pole frequency."""
    rng = np.random.default_rng(seed)
    nb = n // 2
    re = -rng.uniform(decay, 2.0 * decay, nb)
    im = rng.uniform(0.0, im_max, nb)
    a = sla.block_diag(*[np.array([[x, y], [-y, x]]) for x, y in zip(re, im)])
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    a = q @ a @ q.T
    b = rng.standard_normal((n, 1))
    c = rng.standard_normal((1, n))
    return a, b, c, 1.5 * float(im.max()) + 1.0


def fine_grid_max(a, b, c, hi, npoints=400_001, chunk=20_000):
    """Largest |C (i w I - A)^{-1} B| of a SISO system over an equidistant
    grid on [0, hi], from the eigendecomposition of A (numpy only)."""
    lam, x = np.linalg.eig(a)
    residues = (c @ x)[0] * np.linalg.solve(x, b)[:, 0]
    ws = np.linspace(0.0, hi, npoints)
    best = 0.0
    for i in range(0, npoints, chunk):
        h = (1.0 / (1j * ws[i:i + chunk, None] - lam)) @ residues
        best = max(best, float(np.abs(h).max()))
    return best


def test_lightly_damped_global_peak():
    """On a system whose peaks are about 1e-3 wide, run() returns the global
    peak, not a local one: its norm reaches the maximum over a 400,001-point
    grid, and it stops converged."""
    a, b, c, hi = lightly_damped(seed=2)
    tf = descriptor_tf(np.eye(len(a)), a, b, c)
    res = run(tf, RunConfig(omega_max=hi, r0=20,
                            inner=InnerConfig(interval=(0.0, hi))))
    grid = fine_grid_max(a, b, c, hi)
    ok = (res.norm >= (1.0 - 1e-6) * grid
          and res.stop_reason == "converged")
    report("global peak of a lightly damped system (n=60, decay 1e-3)", ok)


@pytest.mark.parametrize("name,norm_ref,omega_ref", [
    ("build", 5.27633e-03, 5.20608),
    ("iss", 1.15887e-01, 0.775093),
])
def test_external_benchmarks(name, norm_ref, omega_ref):
    """Classic benchmark systems, gated on external data availability."""
    tf = load_benchmark(name)
    if tf is None:
        print(f"SKIP: external benchmark {name} (data not available)",
              file=sys.__stdout__, flush=True)
        pytest.skip(f"{name} data not found under "
                    f"{os.environ.get('LINFNORM_DATA_DIR', '<unset>')}")
    omega_max = 4.0 * omega_ref
    cfg = RunConfig(omega_max=omega_max, r0=20,
                    inner=InnerConfig(interval=(0.0, omega_max)))
    res = run(tf, cfg)
    ok = (abs(res.norm - norm_ref) <= 1e-4 * norm_ref
          and abs(res.omega_opt - omega_ref) <= 1e-4 * omega_ref)
    report(f"external benchmark {name}", ok)


def test_property_suite(run_states):
    """Basis orthonormality, conjugate symmetry, and determinism."""
    ok = True
    for trial in range(5):
        tf, interval = random_descriptor(40, 2, 2, seed=5000 + trial)
        cfg = RunConfig(omega_max=interval[1], r0=6,
                        inner=InnerConfig(interval=interval))
        run_states.clear()
        res1 = run(tf, cfg)
        res2 = run(tf, cfg)
        if res1.history != res2.history or res1.norm != res2.norm:
            ok = False
        for state in run_states:
            for q in (state.V, state.W):
                defect = np.linalg.norm(
                    q.conj().T @ q - np.eye(q.shape[1]), 2)
                if defect > 1e-12:
                    ok = False
        # conjugate symmetry of the real-coefficient transfer function
        for w in (0.3, 1.7):
            h_pos = np.asarray(tf.eval(1j * w))
            h_neg = np.asarray(tf.eval(-1j * w))
            if np.linalg.norm(h_neg - h_pos.conj()) > 1e-12 * (
                    1 + np.linalg.norm(h_pos)):
                ok = False
    report("property suite (orthonormality, symmetry, determinism)", ok)
