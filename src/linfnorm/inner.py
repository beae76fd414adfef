"""Global maximization of sigma(H(i*omega)) for small reduced models.

Two routes: a Boyd-Balakrishnan style level-set iteration for rational
models (imaginary eigenvalues of a Hamiltonian matrix or pencil locate the
level crossings), and a curvature-bounded piecewise-quadratic support search
for everything else (delay terms, higher-degree terms).

The level-set route factors E once per maximization.  When its reciprocal
condition estimate is at least IMAG_TOL, the realization is brought to
E = I and each level takes a standard eigensolve of the Hamiltonian
matrix; a singular or ill-conditioned E (descriptor systems with infinite
poles) keeps the generalized eigensolve (QZ) of the pencil.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla

from .errors import (InvalidBound, NoConvergence, PencilSingular,
                     SingularShift, UnboundedOnAxis)
from .reduced import rational_realization, sigma_and_slope

#: tolerance for accepting a pencil eigenvalue as purely imaginary
IMAG_TOL = 1e-8
#: relative level increment of the level-set iteration
BB_REL_TOL = 1e-9


@dataclass
class InnerConfig:
    """Settings for the inner maximization over one frequency interval."""

    interval: tuple
    curvature_bound: float = -100.0
    support_tol: float = 1e-8
    max_inner_iters: int = 200

    def __post_init__(self):
        lo, hi = self.interval
        if not lo < hi:
            raise ValueError(f"interval must satisfy lo < hi, got {self.interval}")
        if not self.curvature_bound < 0:
            raise ValueError("curvature_bound must be negative")


@dataclass
class InnerResult:
    omega_opt: float
    value: float
    certified_gap: float
    evaluations: int


def imaginary_crossings(realization, gamma: float) -> np.ndarray:
    """All omega where gamma is a singular value of H(i*omega).

    For H(s) = C (sE - A)^{-1} B with ``realization`` = (E, A, B, C), i*omega
    is a purely imaginary eigenvalue of the pencil

        lambda * diag(E, E^*)  -  [[A, BB^*/gamma], [-C^*C/gamma, -A^*]]

    exactly when gamma is a singular value of H(i*omega).  E = None stands
    for the identity: the eigenvalues are then those of the Hamiltonian
    matrix on the right, from a standard dense eigensolver, and otherwise
    those of the pencil, from a generalized one (QZ).  Eigenvalues with
    |Re lambda| <= IMAG_TOL * (1 + |lambda|) are accepted.
    """
    if gamma <= 0:
        raise ValueError("gamma must be positive")
    e, a, b, c = realization
    n = a.shape[0]
    m = np.zeros((2 * n, 2 * n), dtype=np.complex128)
    m[:n, :n] = a
    m[:n, n:] = (b @ b.conj().T) / gamma
    m[n:, :n] = -(c.conj().T @ c) / gamma
    m[n:, n:] = -a.conj().T
    try:
        if e is None:
            eigvals = sla.eigvals(m, overwrite_a=True, check_finite=False)
        else:
            nn = np.zeros_like(m)
            nn[:n, :n] = e
            nn[n:, n:] = e.conj().T
            eigvals = sla.eig(m, nn, right=False)
    except (sla.LinAlgError, ValueError) as err:
        raise PencilSingular(str(err)) from err
    eigvals = eigvals[np.isfinite(eigvals)]
    mask = np.abs(eigvals.real) <= IMAG_TOL * (1.0 + np.abs(eigvals))
    omegas = np.sort(eigvals[mask].imag)
    # merge near-duplicates (conjugate pencil symmetry produces pairs)
    merged = []
    for w in omegas:
        if merged and abs(w - merged[-1]) <= 1e-9 * (1.0 + abs(w)):
            continue
        merged.append(float(w))
    return np.asarray(merged)


def standard_form(realization):
    """(None, E^{-1}A, E^{-1}B, C) from one LU of E, or ``realization`` as it
    is when E is singular or its 1-norm reciprocal condition estimate is
    below IMAG_TOL."""
    e, a, b, c = realization
    n = e.shape[0]
    lu, piv, info = sla.lapack.zgetrf(e)
    if info != 0:
        return realization
    rcond, info = sla.lapack.zgecon(lu, np.linalg.norm(e, 1), norm="1")
    if info != 0 or not rcond >= IMAG_TOL:
        return realization
    x = sla.lu_solve((lu, piv), np.hstack((a, b)), check_finite=False)
    return None, x[:, :n], x[:, n:], c


def _on_axis(model, omegas, slope: bool = False):
    """sigma_and_slope(model, omegas, slope), with a singular shift reported
    as a pole on the axis at its omega."""
    try:
        return sigma_and_slope(model, omegas, slope)
    except SingularShift as err:
        raise UnboundedOnAxis(
            f"pole on the axis near omega={err.s.imag}") from err


def bb_norm(model, cfg: InnerConfig, points=(),
            realization=None) -> InnerResult:
    """Boyd-Balakrishnan level-set maximization for rational models.

    Starting from the best sigma over the interval endpoints, its midpoint
    and the given ``points`` inside it (the interpolation points of a
    reduced model), the level is repeatedly raised slightly above the
    incumbent and the crossing frequencies of that level are located via
    imaginary_crossings; sigma at the midpoints of consecutive crossings
    yields the next incumbent.  Terminates when no crossings remain.  The
    starting candidates are evaluated in one call, and so are the
    midpoints of each level.

    ``realization`` is the model's rational_realization when the caller
    has it already; it is built here otherwise.  It goes through
    standard_form once, before the first level.
    """
    if realization is None:
        realization = rational_realization(model)
    if realization is None:
        raise ValueError("bb_norm requires a rational model")
    realization = standard_form(realization)
    lo, hi = cfg.interval
    cands = [lo, hi, 0.5 * (lo + hi)]
    cands.extend(w for w in points if lo <= w <= hi)
    sig, _ = _on_axis(model, cands)
    evals = len(cands)
    k = int(np.argmax(sig))
    best_w, best = cands[k], float(sig[k])
    if best <= 0:
        return InnerResult(best_w, best, 0.0, evals)
    for _ in range(cfg.max_inner_iters):
        gamma = (1.0 + 2.0 * BB_REL_TOL) * best
        crossings = imaginary_crossings(realization, gamma)
        crossings = [w for w in crossings if lo < w < hi]
        if not crossings:
            return InnerResult(best_w, best, 2.0 * BB_REL_TOL * best, evals)
        knots = sorted({lo, hi, *crossings})
        mids = [0.5 * (wa + wb) for wa, wb in zip(knots[:-1], knots[1:])]
        sig, _ = _on_axis(model, mids)
        evals += len(mids)
        k = int(np.argmax(sig))
        if not sig[k] > best:
            # crossings at a level indistinguishable from the incumbent
            return InnerResult(best_w, best, 2.0 * BB_REL_TOL * best, evals)
        best_w, best = mids[k], float(sig[k])
    raise NoConvergence(
        f"level-set iteration did not settle in {cfg.max_inner_iters} rounds")


def qsupport_maximize(f, cfg: InnerConfig) -> InnerResult:
    """Global maximization via curvature-bounded quadratic supports.

    ``f(omegas)`` must return the arrays (sigma, dsigma/domega) at the
    given frequencies.  With gamma a global lower bound on the second
    derivative of -sigma, each sample (w_k, s_k, d_k) yields the upper
    support

        u_k(w) = s_k + d_k (w - w_k) - (gamma/2) (w - w_k)^2  >=  sigma(w),

    and the maximum of the pointwise-min envelope of adjacent supports
    bounds the global maximum.  Each round refines every interval whose
    envelope peak still exceeds the incumbent plus the tolerance, with one
    call of ``f`` at all of their peaks.
    """
    lo, hi = cfg.interval
    gamma = cfg.curvature_bound
    c2 = -0.5 * gamma  # positive quadratic coefficient of the supports

    omegas = np.array([lo, 0.5 * (lo + hi), hi], dtype=float)
    sigmas, slopes = (np.asarray(a, dtype=float) for a in f(omegas))
    evals = omegas.size
    k = int(np.argmax(sigmas))
    best_w, best = float(omegas[k]), float(sigmas[k])

    for _ in range(cfg.max_inner_iters):
        # peak of min(u_k, u_{k+1}) on [omega_k, omega_{k+1}]; equal
        # quadratic coefficients make the difference of the two supports
        # linear
        wa, wb = omegas[:-1], omegas[1:]
        sa, sb, da, db = sigmas[:-1], sigmas[1:], slopes[:-1], slopes[1:]
        lin = (da - db) + 2.0 * c2 * (wb - wa)
        const = (sa - da * wa + c2 * wa * wa) - (sb - db * wb + c2 * wb * wb)
        flat = lin == 0.0
        wx = np.where(flat, 0.5 * (wa + wb),
                      -const / np.where(flat, 1.0, lin))
        wx = np.minimum(np.maximum(wx, wa), wb)
        xa, xb = wx - wa, wx - wb
        peaks = np.minimum(sa + da * xa + c2 * xa * xa,
                           sb + db * xb + c2 * xb * xb)
        envelope_max = float(peaks.max())
        tol_abs = cfg.support_tol * (1.0 + abs(best))
        if envelope_max - best <= tol_abs:
            return InnerResult(best_w, best,
                               max(envelope_max - best, 0.0), evals)
        spacing = np.minimum(xa, -xb)
        # leave out intervals exhausted at floating-point resolution
        keep = ((peaks - best > tol_abs)
                & (spacing > 1e-13 * (1.0 + np.abs(wx))))
        targets, bounds = wx[keep], peaks[keep]
        if not targets.size:
            return InnerResult(best_w, best,
                               max(envelope_max - best, 0.0), evals)
        s, d = (np.asarray(a, dtype=float) for a in f(targets))
        evals += targets.size
        over = np.flatnonzero(s > bounds + 1e-9 * (1.0 + np.abs(s)))
        if over.size:
            i = over[0]
            raise InvalidBound(
                f"sigma({targets[i]}) = {s[i]} exceeds the certified "
                f"envelope bound {bounds[i]}; the curvature bound is not "
                "valid")
        k = int(np.argmax(s))
        if s[k] > best:
            best_w, best = float(targets[k]), float(s[k])
        at = np.searchsorted(omegas, targets)
        omegas = np.insert(omegas, at, targets)
        sigmas = np.insert(sigmas, at, s)
        slopes = np.insert(slopes, at, d)
    raise NoConvergence(
        f"support search did not certify the maximum in "
        f"{cfg.max_inner_iters} refinement rounds")


def maximize(model, cfg: InnerConfig, points=()) -> InnerResult:
    """Dispatch: level-set route for rational models, support search otherwise.

    ``points`` are extra starting candidates for the level-set route.
    """
    realization = rational_realization(model)
    if realization is not None:
        return bb_norm(model, cfg, points, realization)
    return qsupport_maximize(lambda ws: _on_axis(model, ws, slope=True), cfg)
