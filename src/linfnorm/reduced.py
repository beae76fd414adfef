"""Reduced functions obtained by two-sided projection of the factors.

The reduced function shares the scalar terms of its parent; only the
coefficient matrices are projected (C_j V, W^* D_j V, W^* B_j).  Reduced
models are always dense.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import DimensionMismatch
from .structured import MatrixFactor, StructuredTF, _as_dense

#: relative gap below which the largest singular value is flagged non-simple
SIMPLICITY_GAP = 1e-8


class ModelClass(enum.Enum):
    RATIONAL = "rational"
    GENERAL = "general"


@dataclass
class ReducedModel:
    """Projected realization of the parent function.

    ``tf`` holds the dense reduced factors, ``provenance`` the interpolation
    frequencies that produced the projection bases.
    """

    tf: StructuredTF
    dim: int
    provenance: list = field(default_factory=list)
    parent_is_real: bool = False


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


def project(tf: StructuredTF, V: np.ndarray, W: np.ndarray,
            provenance=()) -> ReducedModel:
    """Coefficient-wise Petrov-Galerkin projection onto Col(V), Col(W)."""
    V = np.atleast_2d(np.asarray(V))
    W = np.atleast_2d(np.asarray(W))
    if V.shape[1] != W.shape[1]:
        raise DimensionMismatch(
            f"V and W must have equal column counts, got {V.shape[1]} and {W.shape[1]}")
    if V.shape[0] != tf.n or W.shape[0] != tf.n:
        raise DimensionMismatch("projection bases must have n rows")
    rtf = StructuredTF(
        _project_factor(tf.c_factor, V=V),
        _project_factor(tf.d_factor, V=V, W=W),
        _project_factor(tf.b_factor, W=W),
        is_real=False,
    )
    return ReducedModel(tf=rtf, dim=V.shape[1],
                        provenance=list(provenance),
                        parent_is_real=tf.is_real)


def _as_tf(model) -> StructuredTF:
    return model.tf if isinstance(model, ReducedModel) else model


def _normalize_pair(v: np.ndarray, w: np.ndarray):
    # fix the common phase so the first nonzero entry of v is real positive
    idx = np.flatnonzero(np.abs(v) > 0)
    if idx.size:
        phase = v[idx[0]] / abs(v[idx[0]])
        v = v / phase
        w = w / phase
    return v, w


class SigmaDerivative(NamedTuple):
    sigma: float
    value: float
    simple: bool


def sigma_max(model, omega: float):
    """Largest singular value of H(i*omega) with unit singular vectors.

    Works on a ReducedModel or directly on a StructuredTF.  Returns
    (sigma, v, w) with H(i*omega) v = sigma * w; the pair's phase is
    normalized for determinism.
    """
    tf = _as_tf(model)
    h = tf.eval(1j * omega)
    u, svals, vh = np.linalg.svd(h)
    v, w = _normalize_pair(vh[0].conj(), u[:, 0])
    return float(svals[0]), v, w


def sigma_max_derivative(model, omega: float) -> SigmaDerivative:
    """Largest singular value of H(i*omega) and its d/domega, from one
    factorization of D(i*omega).

    ``sigma`` equals ``sigma_max(model, omega)[0]``.  The slope ``value`` is
    Re(w^* dH/domega v) for the top singular pair; the pair's common phase
    cancels, so it is not normalized.  The ``simple`` flag is False when the
    top singular value is within SIMPLICITY_GAP (relative) of the second,
    in which case the derivative formula is unreliable.
    """
    h, hprime = _as_tf(model).eval_with_derivative(1j * omega)
    u, svals, vh = np.linalg.svd(h)
    v, w = vh[0].conj(), u[:, 0]
    simple = True
    if svals.size > 1 and svals[0] - svals[1] <= SIMPLICITY_GAP * svals[0]:
        simple = False
    dh = 1j * hprime
    value = float(np.real(w.conj() @ dh @ v))
    return SigmaDerivative(float(svals[0]), value, simple)


def classify(model) -> ModelClass:
    """RATIONAL iff the model is C (s E - A)^{-1} B with constant B, C.

    That is, every B/C term has degree 0 and no delay, and the D-factor's
    scalar signatures are exactly {degree 1} and {degree 0}, both undelayed.
    Invariant under permutation of factor terms.
    """
    tf = _as_tf(model)
    for factor in (tf.b_factor, tf.c_factor):
        if any(sig != (0, 0.0) for sig in factor.scalar_signature()):
            return ModelClass.GENERAL
    d_sigs = set(tf.d_factor.scalar_signature())
    if d_sigs == {(1, 0.0), (0, 0.0)}:
        return ModelClass.RATIONAL
    return ModelClass.GENERAL


def rational_realization(model):
    """(E, A, B, C) with D(s) = s E - A for a RATIONAL model."""
    tf = _as_tf(model)
    if classify(model) is not ModelClass.RATIONAL:
        raise ValueError("model is not rational")
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
