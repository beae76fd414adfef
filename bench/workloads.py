"""Seeded job sets for the three benchmark workloads.

A job is one call into the public linfnorm API: ``run()``, or ``grid_norm()``
for the sweep oracle.  Each job carries an
independent reference that does not use linfnorm:

* the delay family has the published norm 0.2376599180 at every order;
* a random damped system is checked against a lower bound computed with
  plain numpy, the largest singular value at its (known) pole frequencies,
  and its reported norm is re-evaluated with numpy at the returned omega.

Inputs depend only on the seed and the scale, so one seed always gives the
same jobs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

import numpy as np
import scipy.linalg as sla

from linfnorm import (InnerConfig, RunConfig, descriptor_tf, grid_norm,
                      make_delay_fixture, run)

WORKLOADS = ("delay_sparse", "rational_damped")

#: published L-infinity norm of the single-delay family (any order)
DELAY_NORM = 0.2376599180
DELAY_OMEGA_MAX = 50.0
DELAY_GAMMA = -100.0
DELAY_R0 = 10

#: a norm below (1 - REL_TOL) * reference is a failed job
REL_TOL = 1e-6
#: a certified norm must equal numpy's sigma at the returned omega to this
CERT_TOL = 1e-8

#: order strata; each job draws its order within +-ORDER_JITTER of a centre,
#: so every seed covers the whole range with nearly the same total work
DELAY_ORDERS = {"full": (60_000, 87_000, 113_000, 140_000),
                "smoke": (2_000, 4_000)}
ORDER_JITTER = 0.01
#: the sweep-oracle job of the delay workload
SWEEP_ORDER = {"full": 9_000, "smoke": 600}
SWEEP_POINTS = {"full": 100, "smoke": 30}
#: golden-section tolerance in omega; sigma is then exact to ~1e-10
SWEEP_REFINE_TOL = 1e-6

RATIONAL_N = 60
RATIONAL_R0 = 20
RATIONAL_IM_MAX = 8.0
#: (m = p, slowest decay d); poles have real parts in [-2d, -d]
RATIONAL_CLASSES = ((1, 1e-2), (1, 1e-3), (2, 1e-2), (2, 1e-3))
RATIONAL_JOBS = {"full": 128, "smoke": 8}


@dataclass
class Job:
    label: str
    root: str                       # span name of the timed call
    build: Callable[[], Any]        # constructs the linfnorm problem
    solve: Callable[[Any], Any]     # the timed call on that problem
    reference: float
    exact: bool                     # reference is the norm, not a lower bound
    certify: Callable[[float], float] | None = None


@dataclass
class Outcome:
    norm: float
    omega: float
    failed: bool
    wrong: str | None
    counts: dict


def _order(centre, rng):
    return int(round(centre * (1.0 + rng.uniform(-ORDER_JITTER, ORDER_JITTER))))


def _delay_jobs(seed, scale):
    """``run()`` on the delay family, largest order first so that memory freed
    by a job can serve the next one, then one ``grid_norm()`` sweep, which
    uses the full-order layer the opposite way: one LU per frequency."""
    rng = np.random.default_rng([seed, 0])
    cfg = RunConfig(omega_max=DELAY_OMEGA_MAX, r0=DELAY_R0,
                    inner=InnerConfig(interval=(0.0, DELAY_OMEGA_MAX),
                                      curvature_bound=DELAY_GAMMA))
    orders = sorted((_order(c, rng) for c in DELAY_ORDERS[scale]), reverse=True)
    jobs = [Job(label=f"delay n={n}", root="greedy.run",
                build=lambda n=n: make_delay_fixture(n),
                solve=lambda tf: run(tf, cfg),
                reference=DELAY_NORM, exact=True)
            for n in orders]
    n, npoints = _order(SWEEP_ORDER[scale], rng), SWEEP_POINTS[scale]
    jobs.append(Job(label=f"sweep n={n}", root="oracle.grid_norm",
                    build=lambda: make_delay_fixture(n),
                    solve=lambda tf: grid_norm(tf, (0.0, DELAY_OMEGA_MAX), npoints,
                                               refine_tol=SWEEP_REFINE_TOL),
                    reference=DELAY_NORM, exact=True))
    return jobs


def damped_system(rng, n, m, decay):
    """Stable (A, B, C) with poles -[d, 2d] +- i[0, IM_MAX] behind an
    orthogonal similarity; returns the pole frequencies too."""
    nb = n // 2
    re = -rng.uniform(decay, 2.0 * decay, nb)
    im = rng.uniform(0.0, RATIONAL_IM_MAX, nb)
    a = sla.block_diag(*[np.array([[x, y], [-y, x]]) for x, y in zip(re, im)])
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    a = q @ a @ q.T
    b = rng.standard_normal((n, m))
    c = rng.standard_normal((m, n))
    return a, b, c, im


def numpy_sigma(a, b, c, omega):
    """Largest singular value of C (i omega I - A)^{-1} B, numpy only."""
    n = a.shape[0]
    h = c @ np.linalg.solve(1j * omega * np.eye(n) - a, b)
    return float(np.linalg.svd(h, compute_uv=False)[0])


def _rational_jobs(seed, scale):
    jobs = []
    for k in range(RATIONAL_JOBS[scale]):
        m, decay = RATIONAL_CLASSES[k % len(RATIONAL_CLASSES)]
        rng = np.random.default_rng([seed, 1, k])
        a, b, c, im = damped_system(rng, RATIONAL_N, m, decay)
        hi = 1.5 * float(im.max()) + 1.0
        cfg = RunConfig(omega_max=hi, r0=RATIONAL_R0,
                        inner=InnerConfig(interval=(0.0, hi)))
        jobs.append(Job(
            label=f"damped k={k} m=p={m} d={decay:g}", root="greedy.run",
            build=lambda a=a, b=b, c=c: descriptor_tf(np.eye(len(a)), a, b, c),
            solve=lambda tf, cfg=cfg: run(tf, cfg),
            reference=max(numpy_sigma(a, b, c, w) for w in im),
            exact=False,
            certify=lambda w, a=a, b=b, c=c: numpy_sigma(a, b, c, w)))
    return jobs


def make_jobs(workload: str, seed: int, scale: str = "full") -> list[Job]:
    if workload == "delay_sparse":
        return _delay_jobs(seed, scale)
    if workload == "rational_damped":
        return _rational_jobs(seed, scale)
    raise ValueError(f"unknown workload {workload!r}")


def warm_up(workload: str) -> None:
    """One tiny job of the workload's kind, so lazy imports and first-call
    set-up inside numpy/scipy are not timed."""
    for job in make_jobs(workload, seed=0, scale="smoke")[:1]:
        try:
            job.solve(job.build())
        except Exception:   # the measured jobs report any failure
            pass


def counts_of(result) -> dict:
    """The deterministic counts of one job's result."""
    if hasattr(result, "refinement_iters"):          # SweepResult
        return {"refine_iters": result.refinement_iters,
                "grid_points": len(result.grid),
                "skipped": len(result.skipped)}
    return {"iterations": result.iterations,
            "unconverged": int(not result.converged),
            "basis_dim": max((h["dim"] for h in result.history), default=0),
            "inner_evaluations": sum(h["inner_evaluations"]
                                     for h in result.history),
            "skipped": len(result.skipped_points)}


def evaluate(job: Job, result, error: BaseException | None) -> Outcome:
    """Checks one job against its independent reference."""
    if error is not None:
        return Outcome(float("nan"), float("nan"), True, None,
                       {"raised": 1})
    if hasattr(result, "best_sigma"):
        norm, omega = result.best_sigma, result.best_omega
    else:
        norm, omega = result.norm, result.omega_opt
    wrong = None
    if not np.isfinite(norm):
        wrong = f"{job.label}: norm is {norm}"
    elif job.exact and norm > (1.0 + REL_TOL) * job.reference:
        wrong = (f"{job.label}: norm {norm!r} exceeds the published "
                 f"{job.reference!r}")
    elif job.certify is not None:
        sigma = job.certify(omega)
        if abs(sigma - norm) > CERT_TOL * max(sigma, 1.0):
            wrong = (f"{job.label}: norm {norm!r} is not sigma(H) = "
                     f"{sigma!r} at omega {omega!r}")
    failed = not norm >= (1.0 - REL_TOL) * job.reference
    return Outcome(float(norm), float(omega), failed, wrong, counts_of(result))
