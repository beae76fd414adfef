"""Greedy subspace iteration for the L-infinity norm of the full function.

Initialization interpolates at equidistant frequencies, then each iteration
maximizes sigma of the current reduced model, expands the projection bases
at the maximizer so that Hermite interpolation holds there, and stops when
consecutive maximizers agree to a relative tolerance.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .errors import AllShiftsSingular, SingularShift, UnboundedOnAxis
from .inner import InnerConfig, maximize
from .reduced import project, sigma_max, sigma_max_derivative
from .structured import StructuredTF, _as_dense

#: post-projection norm threshold for dropping dependent expansion directions
DEFLATION_TOL = 1e-10

FULL = "full"
DOMINANT = "dominant"
KEEP_ALL = "keepall"
LAST_TWO = "lasttwo"


@dataclass
class RunConfig:
    """Outer-loop settings.  ``omega_max`` has no default: the spread of the
    initial interpolation points is problem-dependent."""

    omega_max: float
    r0: int = 10
    eps: float = 1e-6
    r_max: int = 30
    expansion_mode: str = FULL
    subspace_policy: str = KEEP_ALL
    inner: InnerConfig | None = None
    keep_states: bool = False

    def __post_init__(self):
        if self.r0 < 1:
            raise ValueError("r0 must be at least 1")
        if self.eps <= 0:
            raise ValueError("eps must be positive")
        if self.r_max < 1:
            raise ValueError("r_max must be at least 1")
        if self.expansion_mode not in (FULL, DOMINANT):
            raise ValueError(f"unknown expansion_mode {self.expansion_mode!r}")
        if self.subspace_policy not in (KEEP_ALL, LAST_TWO):
            raise ValueError(f"unknown subspace_policy {self.subspace_policy!r}")


@dataclass
class SubspaceState:
    """Orthonormal bases of equal column count plus interpolation history."""

    V: np.ndarray
    W: np.ndarray
    points: list = field(default_factory=list)
    history: list = field(default_factory=list)
    stagnated: bool = False

    @property
    def dim(self) -> int:
        return self.V.shape[1]

    @classmethod
    def empty(cls, n: int) -> "SubspaceState":
        z = np.zeros((n, 0), dtype=np.complex128)
        return cls(V=z, W=z.copy())


@dataclass
class SolverResult:
    norm: float
    omega_opt: float
    iterations: int
    converged: bool
    history: list = field(default_factory=list)
    ratios: list = field(default_factory=list)
    warnings: list = field(default_factory=list)
    skipped_points: list = field(default_factory=list)
    wall_time: float = 0.0
    states: list = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "norm": self.norm,
            "omega_opt": self.omega_opt,
            "iterations": self.iterations,
            "converged": self.converged,
            "history": self.history,
            "ratios": self.ratios,
            "warnings": self.warnings,
            "skipped_points": self.skipped_points,
            "wall_time": self.wall_time,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "SolverResult":
        return cls(**d)


def expansion_block(tf: StructuredTF, omega: float, mode: str = FULL):
    """Snapshot blocks (Vb, Wb) at i*omega giving Hermite interpolation there.

    In full mode the block width is min(m, p): the narrower side is taken
    verbatim and the wider side is compressed with H(i*omega).  In dominant
    mode only the directions of the top singular pair are used (width 1).
    """
    cs, x, y = tf._resolvents(1j * omega)   # C, D^{-1} B, (C D^{-1})^*
    if mode == DOMINANT:
        h = _as_dense(cs @ x)
        u, _, vh = np.linalg.svd(h)
        v, w = vh[0].conj(), u[:, 0]
        return (x @ v).reshape(-1, 1), (y @ w).reshape(-1, 1)
    if tf.m == tf.p:
        return x, y
    h = _as_dense(cs @ x)
    if tf.m < tf.p:
        return x, y @ h
    return x @ h.conj().T, y


def _append_orthonormal(basis: np.ndarray, block: np.ndarray):
    """Gram-Schmidt append with one re-orthogonalization pass.

    Returns (new_basis, kept) where kept[i] says whether column i of the
    block survived the dependency check.
    """
    cols = [basis[:, j] for j in range(basis.shape[1])]
    kept = []
    for i in range(block.shape[1]):
        v = np.array(block[:, i], dtype=np.complex128)
        pre = np.linalg.norm(v)
        for _ in range(2):
            for q in cols:
                v -= q * (q.conj() @ v)
        nrm = np.linalg.norm(v)
        if nrm < DEFLATION_TOL * (pre + 1.0):
            kept.append(False)
            continue
        cols.append(v / nrm)
        kept.append(True)
    if len(cols) == basis.shape[1]:
        return basis, kept
    return np.column_stack(cols), kept


def expand(state: SubspaceState, Vb: np.ndarray, Wb: np.ndarray) -> SubspaceState:
    """Appends snapshot blocks and re-orthonormalizes incrementally.

    Nearly dependent directions are dropped; if the drops leave the two
    bases with unequal column counts, the newest surviving columns of the
    larger basis are removed until the counts match.  A fully degenerate
    expansion returns an unchanged state with the stagnated flag set.
    """
    v_new, _ = _append_orthonormal(state.V, np.atleast_2d(Vb))
    w_new, _ = _append_orthonormal(state.W, np.atleast_2d(Wb))
    nv, nw = v_new.shape[1], w_new.shape[1]
    common = min(nv, nw)
    v_new = v_new[:, :common]
    w_new = w_new[:, :common]
    stagnated = common == state.dim
    return SubspaceState(V=v_new, W=w_new,
                         points=list(state.points),
                         history=list(state.history),
                         stagnated=stagnated)


def check_interpolation(tf: StructuredTF, state: SubspaceState,
                        mode: str = FULL) -> list:
    """Per-point Hermite interpolation report for the current bases.

    In full mode the matrix mismatch ||H - H_reduced|| at each point is
    reported; in dominant mode only the one-sided sigma gap is meaningful.
    The slope mismatch is reported whenever sigma is simple on both sides.
    """
    report = []
    if not state.points:
        return report
    rm = project(tf, state.V, state.W, provenance=state.points)
    for omega in state.points:
        h = tf.eval(1j * omega)
        hr = rm.tf.eval(1j * omega)
        h_norm = np.linalg.norm(h, 2)
        entry = {
            "omega": omega,
            "h_norm": float(h_norm),
            "matrix_mismatch": float(np.linalg.norm(h - hr, 2)),
            "sigma_gap": float(np.linalg.svd(hr, compute_uv=False)[0]
                               - np.linalg.svd(h, compute_uv=False)[0]),
        }
        if mode == FULL:
            d_full = sigma_max_derivative(tf, omega)
            d_red = sigma_max_derivative(rm, omega)
            entry["slope_full"] = d_full.value
            entry["slope_reduced"] = d_red.value
            entry["slope_mismatch"] = abs(d_full.value - d_red.value)
            entry["simple"] = bool(d_full.simple and d_red.simple)
        report.append(entry)
    return report


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

    Initial points are equidistant in [0, omega_max].  Initial points that
    hit a singular shift are skipped and listed in ``warnings``; at least
    one must survive.  Terminates when two consecutive maximizers agree to
    relative tolerance eps, or after r_max iterations (warning flag set).
    """
    t0 = time.perf_counter()
    inner_cfg = cfg.inner or InnerConfig(interval=(0.0, cfg.omega_max))
    if cfg.r0 == 1:
        init_points = np.array([0.5 * cfg.omega_max])
    else:
        init_points = np.linspace(0.0, cfg.omega_max, cfg.r0)

    state = SubspaceState.empty(tf.n)
    skipped = []
    warns = []
    for w0 in init_points:
        try:
            vb, wb = expansion_block(tf, float(w0), cfg.expansion_mode)
        except SingularShift:
            skipped.append(float(w0))
            warns.append(f"initial point omega={w0} hit a singular shift; skipped")
            continue
        state = expand(state, vb, wb)
        state.points.append(float(w0))
    if not state.points:
        raise AllShiftsSingular("every initial interpolation point was singular")

    recent_blocks = []  # (Vb, Wb, omega) of the last iterations, for LAST_TWO
    states = []
    prev_omega = None
    converged = False
    w_new, sigma_red = state.points[0], 0.0
    repaired = False

    for _ in range(cfg.r_max):
        rm = project(tf, state.V, state.W, provenance=state.points)
        try:
            res = maximize(rm, inner_cfg)
        except UnboundedOnAxis:
            # reduced model has an axis pole: one repair expansion at the
            # interval midpoint, then retry once
            if repaired:
                raise
            repaired = True
            mid = 0.5 * sum(inner_cfg.interval)
            vb, wb = expansion_block(tf, mid, cfg.expansion_mode)
            state = expand(state, vb, wb)
            state.points.append(mid)
            continue
        w_new, sigma_red = res.omega_opt, res.value
        if prev_omega is not None:
            w_ref = prev_omega
        else:
            w_ref = min(state.points, key=lambda w: abs(w - w_new))
        state.history.append({
            "omega": w_new,
            "sigma": sigma_red,
            "dim": state.dim,
            "inner_evaluations": res.evaluations,
            "inner_gap": res.certified_gap,
            "stagnated": False,
        })
        if cfg.keep_states:
            states.append(SubspaceState(V=state.V.copy(), W=state.W.copy(),
                                        points=list(state.points)))
        if _converged(w_new, w_ref, cfg.eps):
            converged = True
            break
        w_expand = w_new
        if any(w_expand == w for w in state.points):
            # exact revisit of an earlier point before the tolerance is met:
            # bisect toward the best distinct maximizer seen so far
            others = [h["omega"] for h in state.history[:-1]
                      if h["omega"] != w_expand]
            if others:
                partner = max(others, key=lambda w: next(
                    h["sigma"] for h in state.history if h["omega"] == w))
            else:
                partner = 0.5 * sum(inner_cfg.interval)
            w_expand = 0.5 * (w_expand + partner)
            state.history[-1]["stagnated"] = True
        try:
            vb, wb = expansion_block(tf, w_expand, cfg.expansion_mode)
        except SingularShift:
            warns.append(f"expansion at omega={w_expand} hit a singular shift")
            break
        state = expand(state, vb, wb)
        if state.stagnated:
            state.history[-1]["stagnated"] = True
        state.points.append(w_expand)
        recent_blocks.append((vb, wb, w_expand))
        if cfg.subspace_policy == LAST_TWO and len(recent_blocks) >= 2:
            recent_blocks = recent_blocks[-2:]
            rebuilt = SubspaceState.empty(tf.n)
            for vb2, wb2, w2 in recent_blocks:
                rebuilt = expand(rebuilt, vb2, wb2)
                rebuilt.points.append(w2)
            rebuilt.history = state.history
            state = rebuilt
        prev_omega = w_new
    else:
        warns.append("MaxIterations: r_max reached before convergence")

    # certify the final value on the full function (one large solve)
    try:
        norm = float(np.linalg.svd(tf.eval(1j * w_new), compute_uv=False)[0])
    except SingularShift:
        norm = sigma_red
        warns.append("final certification solve was singular; reduced value kept")
    iter_omegas = [h["omega"] for h in state.history]
    _, ratios = convergence_ratios(iter_omegas, w_new)
    n_iter = max(len(state.history) - 1, 0)
    return SolverResult(
        norm=norm,
        omega_opt=w_new,
        iterations=n_iter,
        converged=converged,
        history=state.history,
        ratios=ratios,
        warnings=warns,
        skipped_points=skipped,
        wall_time=time.perf_counter() - t0,
        states=states,
    )
