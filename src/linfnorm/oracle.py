"""Brute-force reference: dense frequency sweep plus Brent refinement of
every local grid maximum (Brent, Algorithms for Minimization without
Derivatives, 1973, ch. 5).

Deliberately derivative-free so the oracle shares no code path with the
derivative-based inner solvers.
"""

from __future__ import annotations

import csv
import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .errors import SingularShift, check_setting
from .reduced import sigma_max

#: the fraction of the larger bracket side that a golden-section step takes
_CGOLD = (3.0 - math.sqrt(5.0)) / 2.0


@dataclass
class SweepResult:
    grid: list
    best_omega: float
    best_sigma: float
    #: Brent steps over all refinements, one sigma evaluation each
    refinement_iters: int
    skipped: list = field(default_factory=list)


def _brent_refine(model, a, b, x, fx, tol):
    """Brent's maximization of sigma on [a, b] from x, a point of the
    bracket whose sigma fx is known; returns (omega, sigma, steps), the
    best point found.  Each step evaluates one trial point: the peak of the
    parabola through the three best points when it falls well inside the
    bracket and moves less than half the step before last, else a
    golden-section step into the larger side, and never closer than tol/4
    to the best point.  Stops once the bracket is no wider than tol, when a
    trial point rounds onto the best point or out of the open bracket, or
    at a singular trial point."""
    w = v = x
    fw = fv = fx
    d = e = 0.0
    tol1 = tol / 4
    steps = 0
    while b - a > tol:
        xm = 0.5 * (a + b)
        if abs(e) > tol1:
            r = (x - w) * (fx - fv)
            q = (x - v) * (fx - fw)
            p = (x - v) * q - (x - w) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            e_prev, e = e, d
            parabolic = (abs(p) < abs(0.5 * q * e_prev)
                         and q * (a - x) < p < q * (b - x))
        else:
            parabolic = False
        if parabolic:
            d = p / q
            if x + d - a < 2 * tol1 or b - (x + d) < 2 * tol1:
                d = tol1 if x < xm else -tol1
        else:
            e = (a if x >= xm else b) - x
            d = _CGOLD * e
        u = x + (d if abs(d) >= tol1 else math.copysign(tol1, d))
        if not a < u < b or u == x:
            break
        steps += 1
        try:
            fu = sigma_max(model, u)
        except SingularShift:
            break
        if fu >= fx:
            if u >= x:
                a = x
            else:
                b = x
            v, fv, w, fw, x, fx = w, fw, x, fx, u, fu
        else:
            if u < x:
                a = u
            else:
                b = u
            if fu >= fw or w == x:
                v, fv, w, fw = w, fw, u, fu
            elif fu >= fv or v == x or v == w:
                v, fv = u, fu
    return x, fx, steps


def grid_sweep(model, interval, npoints: int):
    """(omegas, sigmas, skipped) over an equispaced grid; singular shifts
    are skipped and recorded.  The interval must be a pair whose ends are
    finite numbers, not bools, with lo <= hi, and npoints an integer."""
    try:
        lo, hi = interval
    except (TypeError, ValueError):
        raise ValueError(f"interval must be a pair (lo, hi), "
                         f"got {interval!r}") from None
    for end in (lo, hi):
        check_setting("interval ends", end, lambda v: -np.inf < v < np.inf,
                      "finite")
    if lo > hi:
        raise ValueError(f"interval must have lo <= hi, got {(lo, hi)}")
    check_setting("npoints", npoints, lambda v: v >= 2 or (v == 1 and lo == hi),
                  "an integer, at least 2 for a nondegenerate interval",
                  numbers.Integral)
    omegas = np.linspace(lo, hi, npoints) if lo != hi else np.array([lo])
    kept_w, kept_s, skipped = [], [], []
    for w in omegas:
        try:
            kept_s.append(sigma_max(model, float(w)))
            kept_w.append(float(w))
        except SingularShift:
            skipped.append(float(w))
    return kept_w, kept_s, skipped


def grid_norm(model, interval, npoints: int, refine_tol: float = 1e-9) -> SweepResult:
    """Equispaced sigma sweep with Brent's refinement of every local grid
    maximum, started from that grid point inside the bracket of its two
    grid neighbours; a run of equal grid values is one maximum, refined
    from its first point inside the bracket of the run's two outer
    neighbours.  Returns the best over the grid and every refinement.
    A refinement stops once its bracket is no wider than refine_tol, which
    must be positive, or sooner once its next trial point would round onto
    the best point or out of the bracket, as happens where refine_tol is
    below the float spacing at the peak."""
    check_setting("refine_tol", refine_tol, lambda v: v > 0, "positive")
    kept_w, kept_s, skipped = grid_sweep(model, interval, npoints)
    if not kept_w:
        raise SingularShift(None)
    grid = list(zip(kept_w, kept_s))
    i_best = int(np.argmax(kept_s))
    best_w, best_s = kept_w[i_best], kept_s[i_best]
    total_steps = 0
    n = len(kept_w)
    bounds = [0, *(k for k in range(1, n) if kept_s[k] != kept_s[k - 1]), n]
    for i, j in zip(bounds, bounds[1:]):  # a run kept_s[i:j] of equal values
        left_ok = i == 0 or kept_s[i] > kept_s[i - 1]
        right_ok = j == n or kept_s[i] > kept_s[j]
        lo_b, hi_b = kept_w[max(i - 1, 0)], kept_w[min(j, n - 1)]
        if not (left_ok and right_ok) or hi_b <= lo_b:
            continue
        w, s, steps = _brent_refine(model, lo_b, hi_b, kept_w[i], kept_s[i],
                                    refine_tol)
        total_steps += steps
        if s > best_s:
            best_w, best_s = w, s
    return SweepResult(grid=grid, best_omega=best_w, best_sigma=best_s,
                       refinement_iters=total_steps, skipped=skipped)


def sweep_csv(grid, path) -> None:
    """Writes the (omega, sigma) pairs of a sweep, e.g. ``SweepResult.grid``,
    as `omega,sigma` rows in grid order at full precision."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["omega", "sigma"])
        for w, s in grid:
            writer.writerow([f"{w:.17e}", f"{s:.17e}"])
