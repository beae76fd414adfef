"""Reduced functions obtained by two-sided projection of the factors.

The reduced function shares the scalar terms of its parent; only the
coefficient matrices are projected (C_j V, W^* D_j V, W^* B_j).  Reduced
models are always dense.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np
import scipy.linalg as sla

from .errors import DimensionMismatch
from .structured import MatrixFactor, StructuredTF, _as_dense

#: relative gap below which the largest singular value is flagged non-simple
SIMPLICITY_GAP = 1e-8
#: dominant-pole frequencies that run() adds to its initial points
DOMINANT_SEEDS = 8
#: largest order whose poles dominant_frequencies computes.  Its dense
#: eigensolve grows as n^3: with one BLAS thread on a 2-vCPU x86 host it
#: takes 0.2 s at n = 250 (about one unseeded run()), 1.4 s at n = 500
#: (2-3 runs) and 13 s at n = 1000
DOMINANT_MAX_N = 500


def _project_factor(factor, V=None, W=None) -> MatrixFactor:
    projected = []
    for term, mat in factor.terms:
        out = mat
        if V is not None:
            out = out @ V
        out = _as_dense(out)
        if W is not None:
            out = W.conj().T @ out
        projected.append((term, out))
    return MatrixFactor(projected)


def project(tf: StructuredTF, V: np.ndarray, W: np.ndarray) -> StructuredTF:
    """Coefficient-wise Petrov-Galerkin projection onto Col(V), Col(W)."""
    V = np.atleast_2d(np.asarray(V))
    W = np.atleast_2d(np.asarray(W))
    if V.shape[1] != W.shape[1]:
        raise DimensionMismatch(
            f"V and W must have equal column counts, got {V.shape[1]} and {W.shape[1]}")
    if V.shape[0] != tf.n or W.shape[0] != tf.n:
        raise DimensionMismatch("projection bases must have n rows")
    return StructuredTF(
        _project_factor(tf.c_factor, V=V),
        _project_factor(tf.d_factor, V=V, W=W),
        _project_factor(tf.b_factor, W=W),
    )


class SigmaDerivative(NamedTuple):
    sigma: float
    value: float
    simple: bool


def sigma_max(tf: StructuredTF, omega: float) -> float:
    """Largest singular value of H(i*omega)."""
    # with vectors, as in sigma_max_derivative: gesdd rounds sigma
    # differently without them once min(m, p) >= 2
    _, svals, _ = np.linalg.svd(tf.eval(1j * omega))
    return float(svals[0])


def sigma_max_derivative(tf: StructuredTF, omega: float) -> SigmaDerivative:
    """Largest singular value of H(i*omega) and its d/domega, from one
    factorization of D(i*omega).

    ``sigma`` equals ``sigma_max(tf, omega)``.  The slope ``value`` is
    Re(w^* dH/domega v) for the top singular pair; the pair's common phase
    cancels, so it is not normalized.  The ``simple`` flag is False when the
    top singular value is within SIMPLICITY_GAP (relative) of the second,
    in which case the derivative formula is unreliable.
    """
    h, hprime = tf.eval_with_derivative(1j * omega)
    u, svals, vh = np.linalg.svd(h)
    v, w = vh[0].conj(), u[:, 0]
    simple = True
    if svals.size > 1 and svals[0] - svals[1] <= SIMPLICITY_GAP * svals[0]:
        simple = False
    dh = 1j * hprime
    value = float(np.real(w.conj() @ dh @ v))
    return SigmaDerivative(float(svals[0]), value, simple)


def rational_realization(tf: StructuredTF):
    """(E, A, B, C) with H(s) = C (sE - A)^{-1} B, or None when H is not of
    that form.

    It is of that form iff every B/C term has degree 0 and no delay, and the
    D-factor's scalar signatures are exactly {degree 1} and {degree 0}, both
    undelayed.  Invariant under permutation of factor terms.
    """
    for factor in (tf.b_factor, tf.c_factor):
        if any(sig != (0, 0.0) for sig in factor.scalar_signature()):
            return None
    if set(tf.d_factor.scalar_signature()) != {(1, 0.0), (0, 0.0)}:
        return None
    n = tf.n
    e = np.zeros((n, n), dtype=np.complex128)
    a = np.zeros((n, n), dtype=np.complex128)
    for term, mat in tf.d_factor.terms:
        if term.degree == 1:
            e += _as_dense(mat)
        else:
            a -= _as_dense(mat)
    b = sum(_as_dense(mat) for _, mat in tf.b_factor.terms)
    c = sum(_as_dense(mat) for _, mat in tf.c_factor.terms)
    return e, a, np.asarray(b, dtype=np.complex128), np.asarray(c, dtype=np.complex128)


def dominant_frequencies(tf: StructuredTF, k: int = DOMINANT_SEEDS) -> tuple:
    """Imaginary parts of the k most dominant poles of a rational H, most
    dominant first, without repeats; () for any other H or above
    DOMINANT_MAX_N.

    One dense eigensolve of (A, E) with left and right eigenvectors, real
    when H is.  The dominance of the pole lambda with eigenvectors x, y is
    ||C x|| ||y^* B|| / (|y^* E x| |Re lambda|), the size of its residue
    over its distance to the axis (Rommes & Martins, IEEE TPWRS 21(4),
    2006).  Infinite eigenvalues, poles on the axis and poles with
    y^* E x = 0 are left out.  A real H gives |Im lambda|, one frequency
    per conjugate pair; a complex H gives Im lambda with its sign.
    """
    if tf.n > DOMINANT_MAX_N:
        return ()
    realization = rational_realization(tf)
    if realization is None:
        return ()
    e, a, b, c = realization
    if tf.is_real:
        e, a, b, c = e.real, a.real, b.real, c.real
    lam, y, x = sla.eig(a, e, left=True, right=True)
    keep = np.isfinite(lam)
    if tf.is_real:
        # one pole of each conjugate pair; its two eigenvalues can have
        # different denominators, so their imaginary parts differ in the
        # last bits while their signs are exact
        keep &= lam.imag >= 0.0
    keep = np.flatnonzero(keep)
    lam, y, x = lam[keep], y[:, keep], x[:, keep]
    denom = np.abs(np.einsum("ij,ij->j", y.conj(), e @ x)) * np.abs(lam.real)
    keep = np.flatnonzero(denom > 0.0)
    residue = (np.linalg.norm(c @ x[:, keep], axis=0)
               * np.linalg.norm(y[:, keep].conj().T @ b, axis=1))
    order = keep[np.argsort(-(residue / denom[keep]), kind="stable")]
    seeds = []
    for w in lam.imag[order] + 0.0:   # + 0.0 turns -0.0 into 0.0
        if len(seeds) == k:
            break
        if w not in seeds:
            seeds.append(float(w))
    return tuple(seeds)
