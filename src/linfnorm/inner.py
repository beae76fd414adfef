"""Global maximization of sigma(H(i*omega)) for small reduced models.

Two routes: a Boyd-Balakrishnan style level-set iteration for rational
models (imaginary eigenvalues of a Hamiltonian matrix or pencil locate the
level crossings), and a curvature-bounded piecewise-quadratic support search
for everything else (delay terms, higher-degree terms).

The level-set route factors E once per maximization.  When its reciprocal
condition estimate is at least IMAG_TOL, the realization is brought to
E = I (standard_form) and reduced to complex Schur form; a singular or
ill-conditioned E (descriptor systems with infinite poles) is kept and the
pencil is reduced to complex QZ form instead.  The triangular realization
serves every level's eigensolve, a standard one of the Hamiltonian matrix
or a generalized one of the pencil, and every sigma, which takes one
triangular solve per shift.  Its diagonal holds the poles, so a pole on
the axis is found once per maximization.  Before each level the incumbent
is polished to its local peak, so that the level above it usually has no
crossings and the maximization ends after one eigensolve.
"""

from __future__ import annotations

import bisect
import numbers
from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla

from .errors import (InvalidBound, NoConvergence, PencilSingular,
                     SingularShift, check_setting)
from .reduced import (IMAG_TOL, _svd_and_slope, rational_realization,
                      sigma_and_slope, standard_form)
from .structured import RCOND_THRESHOLD

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
        try:
            lo, hi = self.interval
        except (TypeError, ValueError):
            raise ValueError(f"interval must be a pair (lo, hi), "
                             f"got {self.interval!r}") from None
        for end in (lo, hi):
            check_setting("interval ends", end, lambda v: -np.inf < v < np.inf,
                          "finite")
        if not lo < hi:
            raise ValueError(f"interval must have lo < hi, got {self.interval}")
        check_setting("curvature_bound", self.curvature_bound,
                      lambda v: -np.inf < v < 0, "finite and negative")
        # zero is valid: the support search then ends on its spacing guard
        check_setting("support_tol", self.support_tol,
                      lambda v: 0 <= v < np.inf, "finite and nonnegative")
        check_setting("max_inner_iters", self.max_inner_iters,
                      lambda v: v >= 1, "an integer >= 1", numbers.Integral)


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


def triangular_form(realization):
    """``realization`` = (E, A, B, C) reduced to upper triangular E and A by a
    unitary equivalence: complex Schur, (None, Z^* A Z, Z^* B, C Z), when
    E is None (the identity), and complex QZ, (Q^* E Z, Q^* A Z, Q^* B, C Z),
    otherwise (Laub, IEEE TAC 26(2), 1981).  H and the eigenvalues of the
    Hamiltonian pencil of imaginary_crossings do not change."""
    e, a, b, c = realization
    try:
        if e is None:
            t, z = sla.schur(a, output="complex", check_finite=False)
            q, s = z, None
        else:
            t, s, q, z = sla.qz(a, e, output="complex", check_finite=False)
    except (sla.LinAlgError, ValueError) as err:
        raise PencilSingular(str(err)) from err
    return s, t, q.conj().T @ b, c @ z


def _axis_poles(realization, lo: float, hi: float) -> None:
    """Raises SingularShift at i*omega for a pole lambda = a_jj / e_jj of a
    triangular_form realization whose frequency omega = Im lambda lies in
    [lo, hi] and whose rcond estimate, the diagonal entry |Re lambda| |e_jj|
    of i*omega*E - A over ||A||_1, is at most RCOND_THRESHOLD.  The shift
    there is as singular as a single evaluation's condition estimate
    allows, and the diagonal is read once for all shifts, where a per-shift
    ztrcon would cost several solves."""
    e, a, _, _ = realization
    t = np.diagonal(a)
    s = np.ones_like(t) if e is None else np.diagonal(e)
    finite = np.flatnonzero(s != 0)
    lam = t[finite] / s[finite]
    dist, anorm = np.abs(lam.real) * np.abs(s[finite]), np.linalg.norm(a, 1)
    hits = np.flatnonzero((dist <= RCOND_THRESHOLD * anorm)
                          & (lam.imag >= lo) & (lam.imag <= hi))
    if hits.size:
        j = hits[0]
        raise SingularShift(1j * float(lam.imag[j]),
                            rcond=float(dist[j] / anorm) if anorm else 0.0)


def triangular_sigma_and_slope(realization, omegas, slope: bool = False):
    """sigma_and_slope for H(s) = C (sE - A)^{-1} B from a triangular_form
    realization: one triangular solve (ztrtrs) per shift, and a second one
    for the slope, H'(s) = -C (sE - A)^{-1} E (sE - A)^{-1} B.  A shift that
    makes the matrix exactly singular raises SingularShift there; poles
    near the axis are left to _axis_poles."""
    e, a, b, c = realization
    r = a.shape[0]
    x = np.empty((len(omegas), r, b.shape[1]), dtype=np.complex128)
    y = np.empty_like(x) if slope else None
    shifted = np.empty((r, r), dtype=np.complex128, order="F")
    eye = np.eye(r) if e is None else e
    trtrs = sla.lapack.ztrtrs
    for k, w in enumerate(omegas):
        np.multiply(eye, 1j * w, out=shifted)
        shifted -= a
        x[k], info = trtrs(shifted, b)
        if info > 0:
            raise SingularShift(1j * float(w), rcond=0.0)
        if slope:
            y[k] = trtrs(shifted, x[k] if e is None else e @ x[k])[0]
    svals, slopes = _svd_and_slope(c @ x, None if y is None else -(c @ y))
    return svals[:, 0], slopes


def _g(sigma: float, slope: float) -> float:
    """sigma'/sigma^3 = -(1/sigma^2)'/2, the function whose zero _polish
    seeks; 0 where sigma is."""
    return slope / sigma ** 3 if sigma > 0 else 0.0


class _Samples:
    """The points a level-set maximization has evaluated, sorted by omega,
    with _g at each."""

    def __init__(self):
        self.omegas, self.g = [], []

    def add(self, omegas, sigmas, slopes) -> None:
        for w, s, d in zip(omegas, sigmas, slopes):
            i = bisect.bisect_left(self.omegas, w)
            if i == len(self.omegas) or self.omegas[i] != w:
                self.omegas.insert(i, w)
                self.g.insert(i, _g(float(s), float(d)))

    def bracket(self, w: float):
        """(g at omega w, omega and g of the evaluated point next to w on
        the side its slope points to); None at a zero slope or when w is
        the last point on that side."""
        i = bisect.bisect_left(self.omegas, w)
        j = i + (self.g[i] > 0) - (self.g[i] < 0)
        if j == i or not 0 <= j < len(self.omegas):
            return None
        return self.g[i], self.omegas[j], self.g[j]


def _polish(realization, samples: _Samples, best_w: float, best: float):
    """The incumbent (best_w, best) raised toward its local peak, one point
    per step, inside the bracket of the incumbent and its nearest evaluated
    neighbour on the side its slope points to.

    The zero sought is that of g = _g(sigma, sigma'), which has the zeros
    and signs of the slope and, since 1/sigma^2 is quadratic in omega
    across the peak of one pole, is linear there.  While g changes sign
    across the bracket, the step is regula falsi on g with the Illinois
    modification.  Until it does, the bracket is bisected toward the
    incumbent.  Stops at a zero slope, at a bracket of width
    1e-13 (1 + |omega|), at a step that rounds onto the bracket, after 30
    steps, or at once when the incumbent is an interval end whose slope
    points outward.  Returns (best_w, best, evaluations)."""
    bracket = samples.bracket(best_w)
    if bracket is None:
        return best_w, best, 0
    x, sx = best_w, best            # the incumbent's end of the bracket
    gx, y, gy = bracket             # y: the other end
    side = evals = 0
    for _ in range(30):
        if not abs(y - x) > 1e-13 * (1.0 + abs(best_w)):
            break
        bracketed = min(gx, gy) < 0 < max(gx, gy)
        if bracketed:
            w = (x * gy - y * gx) / (gy - gx)
        else:
            w = 0.5 * (x + y)
        if not min(x, y) < w < max(x, y):
            break
        sig, slope = triangular_sigma_and_slope(realization, [w], slope=True)
        samples.add([w], sig, slope)
        evals += 1
        s = float(sig[0])
        g = _g(s, float(slope[0]))
        if s > best:
            best_w, best = w, s
        if g == 0:
            break
        if bracketed:
            # Illinois: halve g at the end that stays for a second step
            if (g > 0) == (gx > 0):
                x, sx, gx = w, s, g
                gy = 0.5 * gy if side > 0 else gy
                side = 1
            else:
                y, gy = w, g
                gx = 0.5 * gx if side < 0 else gx
                side = -1
        elif (g > 0) == (gx > 0) and s > sx:
            x, sx, gx = w, s, g         # still climbing
        else:
            y, gy = w, g                # past the peak, or below it
    return best_w, best, evals


def bb_norm(model, cfg: InnerConfig, points=(),
            realization=None) -> InnerResult:
    """Boyd-Balakrishnan level-set maximization for rational models.

    Starting from the best sigma over the interval endpoints, its midpoint
    and the given ``points`` inside it (the interpolation points of a
    reduced model), the incumbent is polished toward its local peak
    (_polish), and then the level is raised slightly above it and the
    crossing frequencies of that level are located via imaginary_crossings;
    sigma at the midpoints of consecutive crossings yields the next
    incumbent, which is polished before the next level.  Terminates when no
    crossings remain.  The starting candidates are evaluated in one call,
    and so are the midpoints of each level and then the two crossings
    around the best midpoint, all with their slopes.

    ``realization`` is the model's rational_realization when the caller
    has it already; it is built here otherwise.  It goes through
    standard_form and triangular_form once, before the first level; the
    triangular realization serves both the eigensolves and
    triangular_sigma_and_slope, and _axis_poles checks its poles once.
    """
    if realization is None:
        realization = rational_realization(model)
    if realization is None:
        raise ValueError("bb_norm requires a rational model")
    lo, hi = cfg.interval
    realization = triangular_form(standard_form(realization))
    _axis_poles(realization, lo, hi)
    cands = [lo, hi, 0.5 * (lo + hi)]
    cands.extend(w for w in points if lo <= w <= hi)
    samples = _Samples()
    sig, slopes = triangular_sigma_and_slope(realization, cands, slope=True)
    samples.add(cands, sig, slopes)
    evals = len(cands)
    k = int(np.argmax(sig))
    best_w, best = cands[k], float(sig[k])
    if best <= 0:
        return InnerResult(best_w, best, 0.0, evals)
    for _ in range(cfg.max_inner_iters):
        best_w, best, steps = _polish(realization, samples, best_w, best)
        evals += steps
        gamma = (1.0 + 2.0 * BB_REL_TOL) * best
        crossings = imaginary_crossings(realization, gamma)
        crossings = [w for w in crossings if lo < w < hi]
        if not crossings:
            return InnerResult(best_w, best, 2.0 * BB_REL_TOL * best, evals)
        knots = sorted({lo, hi, *crossings})
        mids = [0.5 * (wa + wb) for wa, wb in zip(knots[:-1], knots[1:])]
        sig, slopes = triangular_sigma_and_slope(realization, mids, slope=True)
        samples.add(mids, sig, slopes)
        evals += len(mids)
        k = int(np.argmax(sig))
        if not sig[k] > best:
            # crossings at a level indistinguishable from the incumbent
            return InnerResult(best_w, best, 2.0 * BB_REL_TOL * best, evals)
        best_w, best = mids[k], float(sig[k])
        # the crossings around the new incumbent, the polish's bracket
        ends = [w for w in knots[k:k + 2] if lo < w < hi]
        sig, slopes = triangular_sigma_and_slope(realization, ends, slope=True)
        samples.add(ends, sig, slopes)
        evals += len(ends)
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
    return qsupport_maximize(lambda ws: sigma_and_slope(model, ws, slope=True),
                             cfg)
