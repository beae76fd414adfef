"""Brute-force reference: dense frequency sweep plus golden-section refinement.

Deliberately derivative-free so the oracle shares no code path with the
derivative-based inner solvers.
"""

from __future__ import annotations

import csv
import numbers
from dataclasses import dataclass, field

import numpy as np

from .errors import SingularShift
from .reduced import sigma_max

GOLDEN = (np.sqrt(5.0) - 1.0) / 2.0


@dataclass
class SweepResult:
    grid: list
    best_omega: float
    best_sigma: float
    refinement_iters: int
    skipped: list = field(default_factory=list)


def _golden_refine(model, lo, hi, tol, best):
    """Golden-section maximization on [lo, hi]; returns (omega, sigma, iters)."""
    best_w, best_s = best
    a, b = lo, hi
    x1 = b - GOLDEN * (b - a)
    x2 = a + GOLDEN * (b - a)
    try:
        f1 = sigma_max(model, x1)
        f2 = sigma_max(model, x2)
    except SingularShift:
        return best_w, best_s, 0
    for f, w in ((f1, x1), (f2, x2)):
        if f > best_s:
            best_w, best_s = w, f
    iters = 0
    while b - a > tol:
        iters += 1
        if f1 < f2:
            a, x1, f1 = x1, x2, f2
            x2 = a + GOLDEN * (b - a)
            try:
                f2 = sigma_max(model, x2)
            except SingularShift:
                break
        else:
            b, x2, f2 = x2, x1, f1
            x1 = b - GOLDEN * (b - a)
            try:
                f1 = sigma_max(model, x1)
            except SingularShift:
                break
        fbest, wbest = (f1, x1) if f1 >= f2 else (f2, x2)
        if fbest > best_s:
            best_w, best_s = wbest, fbest
    return best_w, best_s, iters


def grid_sweep(model, interval, npoints: int):
    """(omegas, sigmas, skipped) over an equispaced grid; singular shifts
    are skipped and recorded.  The interval's ends must be finite with
    lo <= hi, and npoints an integer."""
    lo, hi = interval
    if not (np.isfinite(lo) and np.isfinite(hi)):
        raise ValueError(f"interval ends must be finite, got {(lo, hi)}")
    if lo > hi:
        raise ValueError(f"interval must have lo <= hi, got {(lo, hi)}")
    if not isinstance(npoints, numbers.Integral):
        raise ValueError(f"npoints must be an integer, got {npoints!r}")
    if npoints < 1 or (npoints < 2 and lo != hi):
        raise ValueError("npoints must be at least 2 for a nondegenerate interval")
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
    """Equispaced sigma sweep with golden-section refinement around every
    local grid maximum; returns the global best found.  The refinement
    stops once its bracket is no wider than refine_tol, which must be
    positive: at 0 the bracket around an interior peak stops shrinking one
    ulp wide, and the loop never ends."""
    if not refine_tol > 0:
        raise ValueError(f"refine_tol must be positive, got {refine_tol}")
    kept_w, kept_s, skipped = grid_sweep(model, interval, npoints)
    if not kept_w:
        raise SingularShift(None)
    grid = list(zip(kept_w, kept_s))
    i_best = int(np.argmax(kept_s))
    best_w, best_s = kept_w[i_best], kept_s[i_best]
    total_iters = 0
    n = len(kept_w)
    for i in range(n):
        left_ok = i == 0 or kept_s[i] >= kept_s[i - 1]
        right_ok = i == n - 1 or kept_s[i] >= kept_s[i + 1]
        if not (left_ok and right_ok):
            continue
        lo_b = kept_w[max(i - 1, 0)]
        hi_b = kept_w[min(i + 1, n - 1)]
        if hi_b <= lo_b:
            continue
        best_w, best_s, iters = _golden_refine(
            model, lo_b, hi_b, refine_tol, (best_w, best_s))
        total_iters += iters
    return SweepResult(grid=grid, best_omega=best_w, best_sigma=best_s,
                       refinement_iters=total_iters, skipped=skipped)


def sweep_csv(grid, path) -> None:
    """Writes the (omega, sigma) pairs of a sweep, e.g. ``SweepResult.grid``,
    as `omega,sigma` rows in grid order at full precision."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["omega", "sigma"])
        for w, s in grid:
            writer.writerow([f"{w:.17e}", f"{s:.17e}"])
