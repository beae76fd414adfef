"""Greedy subspace iteration for the L-infinity norm of the full function.

Initialization interpolates at equidistant frequencies and, for a rational
H, at the frequencies of its dominant poles; then each iteration
maximizes sigma of the current reduced model, expands the projection bases
at the maximizer so that Hermite interpolation holds there, and stops when
consecutive maximizers agree to a relative tolerance or the expansion adds
no column.
"""

from __future__ import annotations

import math
import numbers
import time
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from .errors import (AllShiftsSingular, DimensionMismatch, SingularShift,
                     UnboundedOnAxis, check_setting)
from .inner import InnerConfig, maximize
from .reduced import (_svd_and_slope, dominant_frequencies, project,
                      sigma_max)
from .structured import StructuredTF, _as_dense

#: post-projection norm threshold for dropping dependent expansion directions
DEFLATION_TOL = 1e-10
#: relative gap below which the largest singular value is flagged non-simple
SIMPLICITY_GAP = 1e-8

#: SolverResult.stop_reason values
CONVERGED = "converged"
MAX_ITERATIONS = "max_iterations"
SINGULAR_EXPANSION = "singular_expansion"
REPAIR_FAILED = "repair_failed"


@dataclass
class RunConfig:
    """Outer-loop settings.  ``omega_max`` has no default: the spread of the
    initial interpolation points is problem-dependent."""

    omega_max: float
    r0: int = 10
    eps: float = 1e-6
    r_max: int = 30
    inner: InnerConfig | None = None

    def __post_init__(self):
        for name in ("omega_max", "eps"):
            check_setting(name, getattr(self, name), lambda v: 0 < v < np.inf,
                          "finite and positive")
        for name in ("r0", "r_max"):
            check_setting(name, getattr(self, name), lambda v: v >= 1,
                          "an integer >= 1", numbers.Integral)
        if not isinstance(self.inner, (InnerConfig, type(None))):
            raise ValueError(
                f"inner must be an InnerConfig or None, got {self.inner!r}")


@dataclass(frozen=True)
class SubspaceState:
    """Orthonormal bases of equal column count with ``n`` rows each, and
    the frequencies at which their blocks were taken.  V and W hold the
    bases' leading rows, and every row below them, down to row n, is zero;
    expand stores each basis up to its last nonzero row.  ``n`` defaults to
    the row count of V, so bases given with all their rows are taken
    whole."""

    V: np.ndarray
    W: np.ndarray
    points: tuple = ()
    n: int | None = None

    def __post_init__(self):
        if self.n is None:
            object.__setattr__(self, "n", self.V.shape[0])
        if max(self.V.shape[0], self.W.shape[0]) > self.n:
            raise DimensionMismatch(
                f"V and W may have at most n = {self.n} rows, got "
                f"{self.V.shape[0]} and {self.W.shape[0]}")

    @property
    def dim(self) -> int:
        return self.V.shape[1]

    @classmethod
    def empty(cls, n: int) -> "SubspaceState":
        z = np.zeros((0, 0), dtype=np.complex128)
        return cls(V=z, W=z.copy(), n=n)


@dataclass
class SolverResult:
    """What run() found.  ``norm`` is sigma of the full H at
    ``omega_opt``; ``iterations`` counts the maximizations after the first,
    each with a ``history`` entry; ``stop_reason`` is CONVERGED,
    MAX_ITERATIONS, SINGULAR_EXPANSION or REPAIR_FAILED; ``seeds`` are the
    dominant-pole frequencies added to the initial points; ``ratios`` is
    convergence_ratios' table; ``wall_time`` is in seconds.  ``events``
    lists, in order, dicts with a ``kind`` and an ``omega``:
    ``singular_shift`` ``at`` an ``initial_point`` (skipped), an
    ``expansion`` (the run stops) or the ``certification`` (the reduced
    ``sigma``, also recorded, is kept as the norm); ``repair``, an expansion
    at the interval midpoint for a reduced pole on the axis; and
    ``seed_outside_interval``, a dominant-pole frequency outside the search
    interval."""

    norm: float
    omega_opt: float
    iterations: int
    stop_reason: str
    seeds: tuple = ()
    history: list = field(default_factory=list)
    ratios: list = field(default_factory=list)
    events: list = field(default_factory=list)
    wall_time: float = 0.0

    @property
    def converged(self) -> bool:
        return self.stop_reason == CONVERGED

    @property
    def skipped_points(self) -> list:
        """The initial points skipped for a singular shift."""
        return [e["omega"] for e in self.events
                if e["kind"] == "singular_shift" and e["at"] == "initial_point"]

    def to_dict(self) -> dict:
        return asdict(self)


def expansion_block(tf: StructuredTF, omega: float):
    """Snapshot blocks (Vb, Wb) at i*omega giving Hermite interpolation of
    H, and so of sigma and its slope, there.

    The block width is min(m, p): the narrower side is taken verbatim and
    the wider side is compressed with H(i*omega).
    """
    # with m == p both sides are taken verbatim: no H(i*omega), so no C
    verbatim = tf.m == tf.p
    # C (None when verbatim), D^{-1} B, (C D^{-1})^*
    cs, x, y = tf._resolvents(1j * omega, with_c=not verbatim)
    if verbatim:
        return x, y
    h = _as_dense(cs @ x)
    if tf.m < tf.p:
        return x, y @ h
    return x @ h.conj().T, y


def _norm(v: np.ndarray) -> float:
    """The 2-norm of a contiguous vector by np.linalg.norm's own arithmetic
    (numpy 2.4: the dot products of the real and imaginary parts) without
    its per-call overhead, which dominated CGS2 on small bases: 22,216 norm
    calls took 0.135 s of about 0.31 s in a profiled rational_damped
    round."""
    re, im = v.real, v.imag
    return math.sqrt(re.dot(re) + im.dot(im))


def _append_orthonormal(q: np.ndarray, k: int, block: np.ndarray) -> int:
    """Classical Gram-Schmidt, twice (CGS2): each block column is projected
    out of the first k columns of q in two passes and, unless it fails the
    dependency check, written into q as column k, which k then counts.
    Returns the final k; columns before the first k are never written.

    q is Fortran-ordered, so each basis column is contiguous and a pass is
    two numpy calls, ``vecdot`` (every column with the vector) and
    ``vecmat`` (the combination of the columns).  A BLAS matrix-vector
    product hands half of its work to a second thread from about 4000
    basis entries and, when the other core is busy, waits milliseconds for
    it; these two calls stay on one thread up to 1e4 rows.  LAPACK's
    Householder QR does not: its matrix-vector products went to a second
    thread from 1000 rows, where a QR of the initial delay block took 8-15
    ms instead of 0.4 ms."""
    q[:, k:k + block.shape[1]] = block
    for j in range(k, k + block.shape[1]):
        v = q[:, j]
        pre = _norm(v)
        basis = q[:, :k].T
        for _ in range(2):
            v = v - np.vecmat(np.vecdot(basis, v).conj(), basis)
        nrm = _norm(v)
        if nrm >= DEFLATION_TOL * (pre + 1.0):
            q[:, k] = v / nrm
            k += 1
    return k


def _row_extent(block: np.ndarray, rows: int) -> int:
    """The later of rows and one past the last nonzero row of block; only
    the rows from ``rows`` on are scanned, and none once rows is all."""
    if rows == block.shape[0]:
        return rows
    nonzero = np.flatnonzero(block[rows:].any(axis=1))
    return rows + int(nonzero[-1]) + 1 if nonzero.size else rows


def expand(state: SubspaceState, Vb: np.ndarray, Wb: np.ndarray,
           omega: float) -> SubspaceState:
    """A new state with the snapshot blocks taken at omega appended and
    omega recorded; the input state is left as it is.

    Nearly dependent directions are dropped; if the drops leave the two
    bases with unequal column counts, the newest surviving columns of the
    larger basis are removed until the counts match.  A fully degenerate
    expansion leaves the dimension unchanged.  Each block must be 2-D with
    one row per basis row, n.

    Each new basis holds the rows up to the later of the old basis's and
    the block's last nonzero row, and the passes run over those rows only:
    the delay family's resolvents underflow to exact zeros past row 1742 or
    so at every order.
    """
    n = state.n
    for block in (Vb, Wb):
        if block.ndim != 2 or block.shape[0] != n:
            raise DimensionMismatch(f"expansion blocks must be 2-D with {n} "
                                    f"rows, got shape {block.shape}")
    dtype = np.result_type(state.V, state.W, Vb, Wb)
    grown = []
    for basis, block in ((state.V, Vb), (state.W, Wb)):
        rows = _row_extent(block, basis.shape[0])
        q = np.zeros((rows, state.dim + block.shape[1]), dtype=dtype,
                     order="F")
        q[:basis.shape[0], :state.dim] = basis
        grown.append((q, _append_orthonormal(q, state.dim, block[:rows])))
    (V, kv), (W, kw) = grown
    k = min(kv, kw)
    return SubspaceState(V=V[:, :k], W=W[:, :k],
                         points=state.points + (omega,), n=n)


def _interpolated(tf: StructuredTF, state: SubspaceState,
                  omega: float) -> SubspaceState:
    """expand(state, ...) with the snapshot blocks taken at omega; the
    blocks are freed when it returns, before the next factorization."""
    return expand(state, *expansion_block(tf, omega), omega)


def check_interpolation(tf: StructuredTF, state: SubspaceState) -> list:
    """Per-point Hermite interpolation report for the current bases.

    Each entry holds the matrix mismatch ||H - H_reduced||, the sigma gap,
    both slopes of sigma and their mismatch, and whether sigma is simple on
    both sides; the slopes are unreliable where it is not.  Each point
    factors the full D once, for H and H' together, so a dense full-order D
    is held at one shift only; the reduced model is evaluated at every
    point in one call.
    """
    report = []
    if not state.points:
        return report
    rm = project(tf, state.V, state.W)
    hr, hr_prime = rm.eval_stack([1j * w for w in state.points],
                                 derivative=True)
    svr, slopes_red = _svd_and_slope(hr, hr_prime)
    for k, omega in enumerate(state.points):
        h, h_prime = tf.eval_stack([1j * omega], derivative=True)
        sv, slope = _svd_and_slope(h, h_prime)
        slope_full, slope_reduced = float(slope[0]), float(slopes_red[k])
        report.append({
            "omega": omega,
            "h_norm": float(sv[0, 0]),
            "matrix_mismatch": float(np.linalg.norm(h[0] - hr[k], 2)),
            "sigma_gap": float(svr[k, 0] - sv[0, 0]),
            "slope_full": slope_full,
            "slope_reduced": slope_reduced,
            "slope_mismatch": abs(slope_full - slope_reduced),
            "simple": _simple(sv[0]) and _simple(svr[k]),
        })
    return report


def _simple(svals) -> bool:
    """Whether the largest singular value is more than SIMPLICITY_GAP
    (relative) above the second; the slope of sigma is unreliable
    otherwise."""
    return bool(svals.size < 2
                or svals[0] - svals[1] > SIMPLICITY_GAP * svals[0])


def _converged(w_new: float, w_ref: float, eps: float) -> bool:
    if w_new == w_ref:
        return True
    return abs(w_new - w_ref) < eps * 0.5 * abs(w_new + w_ref)


def convergence_ratios(omegas, omega_star):
    """Post-hoc table |w_{r+1}-w*| / (|w_r-w*| * max(|w_{r-1}-w*|, |w_r-w*|)).

    ``omegas`` are the per-iteration maximizers; the final iterate usually
    serves as the reference omega_star.
    """
    errs = [abs(w - omega_star) for w in omegas]
    ratios = []
    for r in range(1, len(errs) - 1):
        denom = errs[r] * max(errs[r - 1], errs[r])
        ratios.append(errs[r + 1] / denom if denom > 0 else 0.0)
    return errs, ratios


def run(tf: StructuredTF, cfg: RunConfig) -> SolverResult:
    """Full greedy iteration; the returned norm is evaluated on H itself.

    Initial points are equidistant in [0, omega_max], followed by the
    frequencies of up to DOMINANT_SEEDS dominant poles of a rational H
    (``seeds``) that lie in the search interval and are not equidistant
    points already.  Every point is interpolated in one step: the resolvent
    blocks at it, then expand.  Initial points that hit a singular shift are
    skipped, each with an event; at least one must survive.  The bases
    keep every interpolation point.  ``history`` records each maximizer;
    ``omega_opt`` is the last one, or the first interpolation point if there
    is none.  Converges when two consecutive maximizers agree to relative
    tolerance eps (the first is compared with its nearest interpolation
    point) or when the expansion at the maximizer adds no column: the model,
    unchanged, would return the same point.  Otherwise stops after r_max
    iterations, at a singular expansion shift, or when a reduced model still
    has a pole on the axis after one repair expansion at the interval
    midpoint; ``stop_reason`` says which.  For a real-coefficient H, sigma is
    even in omega, so the reduced models are maximized over the part of the
    interval with omega >= 0.
    """
    t0 = time.perf_counter()
    inner_cfg = cfg.inner or InnerConfig(interval=(0.0, cfg.omega_max))
    lo, hi = inner_cfg.interval
    search_cfg = inner_cfg
    if tf.is_real and lo < 0.0 <= hi:
        search_cfg = replace(inner_cfg, interval=(0.0, hi))
    init_points = ([0.5 * cfg.omega_max] if cfg.r0 == 1 else
                   np.linspace(0.0, cfg.omega_max, cfg.r0).tolist())
    lo, hi = search_cfg.interval
    events, seeds = [], []
    for w in dominant_frequencies(tf):
        if not lo <= w <= hi:
            events.append({"kind": "seed_outside_interval", "omega": w})
        elif w not in init_points:
            seeds.append(w)

    state = SubspaceState.empty(tf.n)
    for w0 in init_points + seeds:
        try:
            state = _interpolated(tf, state, w0)
        except SingularShift:
            events.append({"kind": "singular_shift", "at": "initial_point",
                           "omega": w0})
    if not state.points:
        raise AllShiftsSingular("every initial interpolation point was singular")

    history = []
    stop_reason = MAX_ITERATIONS
    repaired = False
    for _ in range(cfg.r_max):
        rm = project(tf, state.V, state.W)
        try:
            res = maximize(rm, search_cfg, state.points)
        except UnboundedOnAxis:
            # reduced model has an axis pole: one repair expansion at the
            # interval midpoint, then retry once
            if repaired:
                stop_reason = REPAIR_FAILED
                break
            repaired, res = True, None
            w_expand = 0.5 * sum(inner_cfg.interval)
            events.append({"kind": "repair", "omega": w_expand})
        else:
            w_expand = res.omega_opt
            w_ref = (history[-1]["omega"] if history else
                     min(state.points, key=lambda w: abs(w - w_expand)))
            history.append({
                "omega": w_expand,
                "sigma": res.value,
                "dim": state.dim,
                "inner_evaluations": res.evaluations,
                "inner_gap": res.certified_gap,
            })
            if _converged(w_expand, w_ref, cfg.eps):
                stop_reason = CONVERGED
                break
        try:
            grown = _interpolated(tf, state, w_expand)
        except SingularShift:
            events.append({"kind": "singular_shift", "at": "expansion",
                           "omega": w_expand})
            stop_reason = SINGULAR_EXPANSION
            break
        if res is not None and grown.dim == state.dim:
            # V and W are unchanged, so the model, which interpolates H at
            # w_expand already, would return w_expand again
            stop_reason = CONVERGED
            break
        state = grown

    # the last maximizer, or the first point if no maximization succeeded
    last = history[-1] if history else {"omega": state.points[0], "sigma": 0.0}
    omega_opt = last["omega"]
    # certify the final value on the full function (one large solve)
    try:
        norm = sigma_max(tf, omega_opt)
    except SingularShift:
        norm = last["sigma"]
        events.append({"kind": "singular_shift", "at": "certification",
                       "omega": omega_opt, "sigma": norm})
    _, ratios = convergence_ratios([h["omega"] for h in history], omega_opt)
    return SolverResult(
        norm=norm,
        omega_opt=omega_opt,
        iterations=max(len(history) - 1, 0),
        stop_reason=stop_reason,
        seeds=tuple(seeds),
        history=history,
        ratios=ratios,
        events=events,
        wall_time=time.perf_counter() - t0,
    )
