"""Global maximization of sigma(H(i*omega)) for small reduced models.

Two routes: a Boyd-Balakrishnan style level-set iteration for rational
models (imaginary eigenvalues of a structured pencil locate the level
crossings), and a curvature-bounded piecewise-quadratic support search for
everything else (delay terms, higher-degree terms).
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as sla

from .errors import (InvalidBound, NoConvergence, PencilSingular,
                     SingularShift, UnboundedOnAxis)
from .reduced import (ModelClass, ReducedModel, classify, rational_realization,
                      sigma_max, sigma_max_derivative)

#: tolerance for accepting a pencil eigenvalue as purely imaginary
IMAG_TOL = 1e-8


@dataclass
class InnerConfig:
    """Settings for the inner maximization over one frequency interval."""

    interval: tuple
    bb_rel_tol: float = 1e-9
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


def imaginary_crossings(model, gamma: float) -> np.ndarray:
    """All omega where gamma is a singular value of H(i*omega).

    For a rational model H(s) = C (sE - A)^{-1} B, i*omega is a purely
    imaginary eigenvalue of the pencil

        lambda * diag(E, E^*)  -  [[A, BB^*/gamma], [-C^*C/gamma, -A^*]]

    exactly when gamma is a singular value of H(i*omega).  Solved with a
    general dense generalized eigensolver; eigenvalues with
    |Re lambda| <= IMAG_TOL * (1 + |lambda|) are accepted.
    """
    if gamma <= 0:
        raise ValueError("gamma must be positive")
    e, a, b, c = rational_realization(model)
    n = e.shape[0]
    m = np.zeros((2 * n, 2 * n), dtype=np.complex128)
    m[:n, :n] = a
    m[:n, n:] = (b @ b.conj().T) / gamma
    m[n:, :n] = -(c.conj().T @ c) / gamma
    m[n:, n:] = -a.conj().T
    nn = np.zeros_like(m)
    nn[:n, :n] = e
    nn[n:, n:] = e.conj().T
    try:
        eigvals = sla.eig(m, nn, right=False)
    except (sla.LinAlgError, ValueError) as err:
        raise PencilSingular(str(err)) from err
    eigvals = eigvals[np.isfinite(eigvals)]
    if eigvals.size == 0 and n > 0 and not np.any(np.isfinite(sla.eigvals(m))):
        raise PencilSingular("pencil has no finite eigenvalues")
    mask = np.abs(eigvals.real) <= IMAG_TOL * (1.0 + np.abs(eigvals))
    omegas = np.sort(eigvals[mask].imag)
    # merge near-duplicates (conjugate pencil symmetry produces pairs)
    merged = []
    for w in omegas:
        if merged and abs(w - merged[-1]) <= 1e-9 * (1.0 + abs(w)):
            continue
        merged.append(float(w))
    return np.asarray(merged)


def bb_norm(model, cfg: InnerConfig) -> InnerResult:
    """Boyd-Balakrishnan level-set maximization for rational models.

    Starting from the best sigma over the provenance points and interval
    endpoints, the level is repeatedly raised slightly above the incumbent
    and the crossing frequencies of that level are located via
    imaginary_crossings; sigma at the midpoints of consecutive crossings
    yields the next incumbent.  Terminates when no crossings remain.
    """
    if classify(model) is not ModelClass.RATIONAL:
        raise ValueError("bb_norm requires a rational model")
    lo, hi = cfg.interval
    tol = cfg.bb_rel_tol
    cands = [lo, hi, 0.5 * (lo + hi)]
    if isinstance(model, ReducedModel):
        cands.extend(w for w in model.provenance if lo <= w <= hi)
    evals = 0
    best_w, best = lo, -np.inf
    for w in cands:
        try:
            s = sigma_max(model, w)[0]
        except SingularShift as err:
            raise UnboundedOnAxis(f"pole on the axis near omega={w}") from err
        evals += 1
        if s > best:
            best_w, best = w, s
    if best <= 0:
        return InnerResult(best_w, best, 0.0, evals)
    for _ in range(cfg.max_inner_iters):
        gamma = (1.0 + 2.0 * tol) * best
        crossings = imaginary_crossings(model, gamma)
        crossings = [w for w in crossings if lo < w < hi]
        if not crossings:
            return InnerResult(best_w, best, 2.0 * tol * best, evals)
        knots = sorted({lo, hi, *crossings})
        improved = False
        for wa, wb in zip(knots[:-1], knots[1:]):
            w = 0.5 * (wa + wb)
            try:
                s = sigma_max(model, w)[0]
            except SingularShift as err:
                raise UnboundedOnAxis(
                    f"pole on the axis near omega={w}") from err
            evals += 1
            if s > best:
                best_w, best = w, s
                improved = True
        if not improved:
            # crossings at a level indistinguishable from the incumbent
            return InnerResult(best_w, best, 2.0 * tol * best, evals)
    raise NoConvergence(
        f"level-set iteration did not settle in {cfg.max_inner_iters} rounds")


def qsupport_maximize(f, cfg: InnerConfig) -> InnerResult:
    """Global maximization via curvature-bounded quadratic supports.

    ``f(omega)`` must return (sigma, dsigma/domega).  With gamma a global
    lower bound on the second derivative of -sigma, each sample (w_k, s_k,
    d_k) yields the upper support

        u_k(w) = s_k + d_k (w - w_k) - (gamma/2) (w - w_k)^2  >=  sigma(w),

    and the maximum of the pointwise-min envelope of adjacent supports
    bounds the global maximum.  Each iteration refines every interval whose
    envelope peak still exceeds the incumbent plus the tolerance.
    """
    lo, hi = cfg.interval
    gamma = cfg.curvature_bound
    c2 = -0.5 * gamma  # positive quadratic coefficient of the supports

    omegas: list[float] = []
    sigmas: list[float] = []
    slopes: list[float] = []
    evals = 0
    best_w, best = lo, -np.inf

    def support(k: int, w: float) -> float:
        d = w - omegas[k]
        return sigmas[k] + slopes[k] * d + c2 * d * d

    def add_sample(w: float, bound: float | None = None):
        nonlocal evals, best_w, best
        s, d = f(w)
        evals += 1
        if bound is not None and s > bound + 1e-9 * (1.0 + abs(s)):
            raise InvalidBound(
                f"sigma({w}) = {s} exceeds the certified envelope bound {bound}; "
                "the curvature bound is not valid")
        idx = bisect.bisect_left(omegas, w)
        omegas.insert(idx, w)
        sigmas.insert(idx, s)
        slopes.insert(idx, d)
        if s > best:
            best_w, best = w, s

    for w in (lo, 0.5 * (lo + hi), hi):
        add_sample(w)

    def pair_peak(k: int):
        """Peak of min(u_k, u_{k+1}) on [omega_k, omega_{k+1}]."""
        wa, wb = omegas[k], omegas[k + 1]
        # equal quadratic coefficients make the difference linear
        lin = (slopes[k] - slopes[k + 1]) + 2.0 * c2 * (wb - wa)
        const = ((sigmas[k] - slopes[k] * wa + c2 * wa * wa)
                 - (sigmas[k + 1] - slopes[k + 1] * wb + c2 * wb * wb))
        if lin == 0.0:
            wx = 0.5 * (wa + wb)
        else:
            wx = -const / lin
        wx = min(max(wx, wa), wb)
        return wx, min(support(k, wx), support(k + 1, wx))

    for _ in range(cfg.max_inner_iters):
        tol_abs = cfg.support_tol * (1.0 + abs(best))
        peaks = [pair_peak(k) for k in range(len(omegas) - 1)]
        envelope_max = max(v for _, v in peaks)
        if envelope_max - best <= tol_abs:
            return InnerResult(best_w, best,
                               max(envelope_max - best, 0.0), evals)
        targets = []
        for (wx, v), k in zip(peaks, range(len(peaks))):
            if v - best <= tol_abs:
                continue
            spacing = min(wx - omegas[k], omegas[k + 1] - wx)
            if spacing <= 1e-13 * (1.0 + abs(wx)):
                continue  # interval exhausted at floating-point resolution
            targets.append((wx, v))
        if not targets:
            return InnerResult(best_w, best,
                               max(envelope_max - best, 0.0), evals)
        for wx, v in targets:
            add_sample(wx, bound=v)
    raise NoConvergence(
        f"support search did not certify the maximum in "
        f"{cfg.max_inner_iters} refinement rounds")


def maximize(model, cfg: InnerConfig) -> InnerResult:
    """Dispatch: level-set route for rational models, support search otherwise.

    For reduced models of a real-coefficient parent the interval is clipped
    to omega >= 0 (conjugate symmetry of the parent).
    """
    lo, hi = cfg.interval
    if isinstance(model, ReducedModel) and model.parent_is_real and lo < 0.0 <= hi:
        cfg = InnerConfig(interval=(0.0, hi), bb_rel_tol=cfg.bb_rel_tol,
                          curvature_bound=cfg.curvature_bound,
                          support_tol=cfg.support_tol,
                          max_inner_iters=cfg.max_inner_iters)
    if classify(model) is ModelClass.RATIONAL:
        return bb_norm(model, cfg)

    def f(w):
        try:
            d = sigma_max_derivative(model, w)
        except SingularShift as err:
            raise UnboundedOnAxis(
                f"pole on the axis near omega={w}") from err
        return d.sigma, d.value

    return qsupport_maximize(f, cfg)
