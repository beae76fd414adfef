"""Structured matrix-valued functions H(s) = C(s) D(s)^{-1} B(s).

Each factor is a sum of scalar basis functions of the form s^k * exp(-tau*s)
times a constant (dense or sparse) coefficient matrix.  Each evaluation
factors D(s) once and uses that one factorization for every direct and
adjoint solve it needs at the shift.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import DimensionMismatch, SingularShift

#: reciprocal condition estimate below which a shift is declared singular
RCOND_THRESHOLD = 1e-14


@dataclass(frozen=True)
class ScalarTerm:
    """One scalar basis function s^degree * exp(-delay*s).

    Covers monomials (delay=0), constants (degree=0, delay=0) and pure
    exponential delays (degree=0).  Closed under differentiation.
    """

    degree: int = 0
    delay: float = 0.0

    def __post_init__(self):
        if self.degree < 0 or int(self.degree) != self.degree:
            raise ValueError(f"degree must be a nonnegative integer, got {self.degree}")
        if self.delay < 0:
            raise ValueError(f"delay must be nonnegative, got {self.delay}")

    def value(self, s: complex) -> complex:
        return s**self.degree * cmath.exp(-self.delay * s)

    def derivative(self, s: complex) -> complex:
        k, tau = self.degree, self.delay
        poly = -tau * s**k
        if k > 0:
            poly += k * s ** (k - 1)
        return poly * cmath.exp(-tau * s)


def _is_sparse(m) -> bool:
    return sp.issparse(m)


class MatrixFactor:
    """A sum of scalar terms times constant coefficient matrices.

    All coefficient matrices must share one shape.  Evaluation returns a
    sparse matrix when every coefficient is sparse, otherwise dense.
    """

    def __init__(self, terms):
        terms = [(t, m) for t, m in terms]
        if not terms:
            raise ValueError("MatrixFactor needs at least one term")
        shape = terms[0][1].shape
        for t, m in terms:
            if m.shape != shape:
                raise DimensionMismatch(
                    f"coefficient shapes differ: {m.shape} vs {shape}"
                )
        self.terms = terms
        self.shape = shape

    @property
    def nrows(self) -> int:
        return self.shape[0]

    @property
    def ncols(self) -> int:
        return self.shape[1]

    @property
    def is_real(self) -> bool:
        return all(not np.iscomplexobj(m if not _is_sparse(m) else m.data)
                   for _, m in self.terms)

    def _combine(self, coeffs):
        all_sparse = all(_is_sparse(m) for _, m in self.terms)
        acc = None
        for c, (_, m) in zip(coeffs, self.terms):
            contrib = (m * c) if all_sparse else (np.asarray(
                m.todense() if _is_sparse(m) else m) * c)
            acc = contrib if acc is None else acc + contrib
        return acc.tocsc() if all_sparse else acc

    def eval(self, s: complex):
        """Sum of term values times coefficients at the shift s."""
        return self._combine([t.value(s) for t, _ in self.terms])

    def eval_derivative(self, s: complex):
        """d/ds of eval at the shift s."""
        return self._combine([t.derivative(s) for t, _ in self.terms])

    def scalar_signature(self):
        """Multiset of (degree, delay) pairs, order-insensitive."""
        return sorted((t.degree, t.delay) for t, _ in self.terms)


def _as_dense(m) -> np.ndarray:
    if _is_sparse(m):
        return np.asarray(m.todense())
    return np.asarray(m)


class _DenseFactorization:
    """LU of a dense D(s) with a 1-norm reciprocal condition estimate."""

    def __init__(self, d: np.ndarray, s: complex):
        d = np.ascontiguousarray(d, dtype=np.complex128)
        anorm = np.linalg.norm(d, 1) if d.size else 0.0
        lu, piv, info = sla.lapack.zgetrf(d)
        if info > 0:
            raise SingularShift(s, rcond=0.0)
        rcond, info = sla.lapack.zgecon(lu, anorm, norm="1")
        if info != 0 or not np.isfinite(rcond) or rcond < RCOND_THRESHOLD:
            raise SingularShift(s, rcond=float(rcond))
        self._lu = (lu, piv)
        self.rcond = float(rcond)

    def solve(self, rhs, adjoint: bool = False) -> np.ndarray:
        rhs = np.asarray(_as_dense(rhs), dtype=np.complex128)
        return sla.lu_solve(self._lu, rhs, trans=2 if adjoint else 0)


class _SparseFactorization:
    """Sparse LU of D(s) with a cheap pivot-based singularity check."""

    def __init__(self, d, s: complex):
        d = sp.csc_matrix(d, dtype=np.complex128)
        try:
            lu = spla.splu(d)
        except RuntimeError as err:
            raise SingularShift(s, rcond=0.0) from err
        udiag = np.abs(lu.U.diagonal())
        umax = udiag.max() if udiag.size else 0.0
        rcond = float(udiag.min() / umax) if umax > 0 else 0.0
        if rcond < RCOND_THRESHOLD:
            raise SingularShift(s, rcond=rcond)
        self._lu = lu
        self.rcond = rcond

    def solve(self, rhs, adjoint: bool = False) -> np.ndarray:
        rhs = np.ascontiguousarray(_as_dense(rhs), dtype=np.complex128)
        return self._lu.solve(rhs, trans="H" if adjoint else "N")


class StructuredTF:
    """The triple (C-factor, D-factor, B-factor) with dimensions (p, n, m).

    Immutable after construction and holds no factorization between calls,
    so concurrent evaluation is safe.
    """

    def __init__(self, c_factor: MatrixFactor, d_factor: MatrixFactor,
                 b_factor: MatrixFactor, is_real: bool | None = None):
        n = d_factor.nrows
        if d_factor.ncols != n:
            raise DimensionMismatch(f"D_factor must be square, got {d_factor.shape}")
        if c_factor.ncols != n:
            raise DimensionMismatch(
                f"C_factor has {c_factor.ncols} columns, expected {n}")
        if b_factor.nrows != n:
            raise DimensionMismatch(
                f"B_factor has {b_factor.nrows} rows, expected {n}")
        self.c_factor = c_factor
        self.d_factor = d_factor
        self.b_factor = b_factor
        if is_real is None:
            is_real = c_factor.is_real and d_factor.is_real and b_factor.is_real
        self.is_real = bool(is_real)

    @property
    def n(self) -> int:
        return self.d_factor.nrows

    @property
    def m(self) -> int:
        return self.b_factor.ncols

    @property
    def p(self) -> int:
        return self.c_factor.nrows

    def _factorization(self, s: complex):
        """A fresh LU of D(s); raises SingularShift if D(s) is singular."""
        s = complex(s)
        d = self.d_factor.eval(s)
        if _is_sparse(d):
            return _SparseFactorization(d, s)
        return _DenseFactorization(d, s)

    def _resolvents(self, s: complex):
        """(C(s), D(s)^{-1} B(s), D(s)^{-*} C(s)^*) from one factorization."""
        fact = self._factorization(s)
        cs = self.c_factor.eval(s)
        x = fact.solve(self.b_factor.eval(s))
        y = fact.solve(_as_dense(cs).conj().T, adjoint=True)
        return cs, x, y

    def solve_d(self, s: complex, rhs) -> np.ndarray:
        """Solve D(s) X = RHS."""
        return self._factorization(s).solve(rhs)

    def solve_d_adjoint(self, s: complex, rhs) -> np.ndarray:
        """Solve D(s)^* X = RHS."""
        return self._factorization(s).solve(rhs, adjoint=True)

    def eval(self, s: complex) -> np.ndarray:
        """H(s) = C(s) D(s)^{-1} B(s) as a dense p-by-m array."""
        x = self.solve_d(s, self.b_factor.eval(s))
        return _as_dense(self.c_factor.eval(s) @ x)

    def eval_with_derivative(self, s: complex):
        """(H(s), H'(s)) from one factorization of D(s), where
        H' = C'D^{-1}B - CD^{-1}D'D^{-1}B + CD^{-1}B'."""
        cs, x, y = self._resolvents(s)
        cd = y.conj().T  # rows of C D^{-1}
        dprime = self.d_factor.eval_derivative(s)
        out = _as_dense(self.c_factor.eval_derivative(s) @ x)
        out -= cd @ _as_dense(dprime @ x)
        out += cd @ _as_dense(self.b_factor.eval_derivative(s))
        return _as_dense(cs @ x), out
