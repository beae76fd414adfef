"""Reduced functions obtained by two-sided projection of the factors.

The reduced function shares the scalar terms of its parent; only the
coefficient matrices are projected (C_j V, W^* D_j V, W^* B_j).  Reduced
models are always dense.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import DimensionMismatch
from .structured import MatrixFactor, StructuredTF, _as_dense

#: relative gap below which the largest singular value is flagged non-simple
SIMPLICITY_GAP = 1e-8


def _project_factor(factor, V=None, W=None) -> MatrixFactor:
    projected = []
    for term, mat in factor.terms:
        out = mat
        if V is not None:
            out = out @ V
        out = _as_dense(out)
        if W is not None:
            out = W.conj().T @ out
        projected.append((term, np.ascontiguousarray(out)))
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
