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

#: a sparse D(s) is factored by band LU when the LU's band storage,
#: (2*kl + ku + 1) * n entries, is at most this many times the nonzeros of
#: the union of its terms' patterns
BAND_FILL = 2


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


_UNSET = object()


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
        self._band_layout = _UNSET

    @property
    def band_layout(self) -> BandLayout | None:
        """Where a sparse square factor's terms land in LAPACK band storage,
        or None when a term is dense or the band fails BAND_FILL.  Computed
        on first use, then kept: it depends on the patterns only."""
        if self._band_layout is _UNSET:
            self._band_layout = _band_layout(self.terms, self.ncols)
        return self._band_layout

    @property
    def nrows(self) -> int:
        return self.shape[0]

    @property
    def ncols(self) -> int:
        return self.shape[1]

    @property
    def is_real(self) -> bool:
        return not any(np.iscomplexobj(m) for _, m in self.terms)

    def _combine(self, coeffs):
        all_sparse = all(sp.issparse(m) for _, m in self.terms)
        acc = None
        for c, (_, m) in zip(coeffs, self.terms):
            contrib = (m * c) if all_sparse else (np.asarray(
                m.todense() if sp.issparse(m) else m) * c)
            acc = contrib if acc is None else acc + contrib
        return acc.tocsc() if all_sparse else acc

    def eval(self, s: complex):
        """Sum of term values times coefficients at the shift s."""
        return self._combine([t.value(s) for t, _ in self.terms])

    def eval_derivative(self, s: complex):
        """d/ds of eval at the shift s."""
        return self._combine([t.derivative(s) for t, _ in self.terms])

    def eval_band(self, s: complex) -> np.ndarray:
        """eval at the shift s in the band storage of band_layout, which must
        not be None: each term's stored values times its scalar, added in
        term order."""
        layout = self.band_layout
        ab = np.zeros(layout.rows * layout.n, dtype=np.complex128)
        for (t, m), pos in zip(self.terms, layout.positions):
            np.add.at(ab, pos, _stored_values(m) * t.value(s))
        return ab.reshape((layout.rows, layout.n),
                          order="C" if layout.tridiagonal else "F")

    def scalar_signature(self):
        """Multiset of (degree, delay) pairs, order-insensitive."""
        return sorted((t.degree, t.delay) for t, _ in self.terms)


@dataclass(frozen=True)
class BandLayout:
    """kl sub- and ku superdiagonals of an n-column band, and per term the
    flat index in band storage of each stored value; terms with one pattern
    share one array.

    A tridiagonal band (kl = ku = 1, n > 2) is stored C-ordered as 3 rows:
    super-, main and subdiagonal, each entry in its column.  Any other band
    is zgbtrf's Fortran-ordered storage: A[i, j] in row kl + ku + i - j of
    2*kl + ku + 1 rows, the top kl rows left for pivoting fill-in.
    """

    kl: int
    ku: int
    n: int
    positions: tuple

    @property
    def tridiagonal(self) -> bool:
        # scipy's zgttrf wrapper rejects n = 2, where zgbtrf serves
        return self.kl == self.ku == 1 and self.n > 2

    @property
    def rows(self) -> int:
        return 3 if self.tridiagonal else 2 * self.kl + self.ku + 1


def _stored_values(m) -> np.ndarray:
    """The values of a sparse m in the order of m.tocoo(), uncopied for
    CSC, CSR and COO."""
    return m.data if m.format in ("csc", "csr", "coo") else m.tocoo().data


def _band_layout(terms, n: int) -> BandLayout | None:
    """The BandLayout of a sum of sparse terms with n columns, or None when a
    term is dense or the band storage of the union pattern exceeds BAND_FILL
    times the union's nonzeros."""
    if not all(sp.issparse(m) for _, m in terms):
        return None
    entries = [(coo.row, coo.col) for coo in (m.tocoo() for _, m in terms)]
    kl = max(int(np.max(r - c, initial=0)) for r, c in entries)
    ku = max(int(np.max(c - r, initial=0)) for r, c in entries)
    fill = (2 * kl + ku + 1) * n
    if fill > BAND_FILL * sum(len(r) for r, _ in entries):
        return None  # the union has at most that many nonzeros
    layout = BandLayout(kl, ku, n, ())
    size = layout.rows * n
    dtype = np.int32 if size <= np.iinfo(np.int32).max else np.int64
    union = np.zeros(size, dtype=bool)
    positions = []
    for r, c in entries:
        r, c = r.astype(np.int64), c.astype(np.int64)
        if layout.tridiagonal:
            pos = (ku + r - c) * n + c
        else:
            pos = kl + ku + r - c + c * layout.rows
        pos = pos.astype(dtype)
        pos = next((p for p in positions if np.array_equal(p, pos)), pos)
        positions.append(pos)
        union[pos] = True
    if fill > BAND_FILL * np.count_nonzero(union):
        return None
    return BandLayout(kl, ku, n, tuple(positions))


def _as_dense(m) -> np.ndarray:
    if sp.issparse(m):
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


def _pivot_rcond(udiag: np.ndarray, s: complex) -> float:
    """min/max |diag U| of an LU; raises SingularShift below RCOND_THRESHOLD."""
    udiag = np.abs(udiag)
    umax = udiag.max() if udiag.size else 0.0
    rcond = float(udiag.min() / umax) if umax > 0 else 0.0
    if rcond < RCOND_THRESHOLD:
        raise SingularShift(s, rcond=rcond)
    return rcond


class _SparseFactorization:
    """Sparse LU of D(s) with a cheap pivot-based singularity check."""

    def __init__(self, d, s: complex):
        d = sp.csc_matrix(d, dtype=np.complex128)
        try:
            lu = spla.splu(d)
        except RuntimeError as err:
            raise SingularShift(s, rcond=0.0) from err
        self.rcond = _pivot_rcond(lu.U.diagonal(), s)
        self._lu = lu

    def solve(self, rhs, adjoint: bool = False) -> np.ndarray:
        rhs = np.ascontiguousarray(_as_dense(rhs), dtype=np.complex128)
        return self._lu.solve(rhs, trans="H" if adjoint else "N")


class _BandFactorization:
    """LAPACK band LU of a sparse D(s) in the band storage of a BandLayout
    with kl sub- and ku superdiagonals, with the same pivot-based
    singularity check as the sparse path."""

    def __init__(self, ab: np.ndarray, s: complex, kl: int, ku: int):
        lu, piv, info = sla.lapack.zgbtrf(ab, kl, ku, overwrite_ab=True)
        if info > 0:
            raise SingularShift(s, rcond=0.0)
        self.rcond = _pivot_rcond(lu[kl + ku], s)
        self._lu = (lu, piv, kl, ku)

    def solve(self, rhs, adjoint: bool = False) -> np.ndarray:
        lu, piv, kl, ku = self._lu
        rhs = np.asarray(_as_dense(rhs), dtype=np.complex128)
        x, _ = sla.lapack.zgbtrs(lu, kl, ku, rhs, piv,
                                 trans=2 if adjoint else 0)
        return x


class _TridiagonalFactorization:
    """LAPACK tridiagonal LU of a sparse D(s) in the band storage of a
    tridiagonal BandLayout, with the same pivot-based singularity check as
    the sparse path."""

    def __init__(self, ab: np.ndarray, s: complex):
        # rows of ab: superdiagonal from column 1, diagonal, subdiagonal up
        # to column n - 2; all three are factored in place
        *lu, info = sla.lapack.zgttrf(ab[2, :-1], ab[1], ab[0, 1:],
                                      overwrite_dl=True, overwrite_d=True,
                                      overwrite_du=True)
        if info > 0:
            raise SingularShift(s, rcond=0.0)
        self.rcond = _pivot_rcond(lu[1], s)
        self._lu = lu  # dl, d, du, du2, ipiv

    def solve(self, rhs, adjoint: bool = False) -> np.ndarray:
        rhs = np.asarray(_as_dense(rhs), dtype=np.complex128)
        x, _ = sla.lapack.zgttrs(*self._lu, rhs, trans="C" if adjoint else "N")
        return x


class StructuredTF:
    """The triple (C-factor, D-factor, B-factor) with dimensions (p, n, m).

    Holds no factorization between calls, so concurrent evaluation is safe.
    The only thing kept is the D factor's band layout, which does not depend
    on the shift; a concurrent first call computes it twice, harmlessly.
    """

    def __init__(self, c_factor: MatrixFactor, d_factor: MatrixFactor,
                 b_factor: MatrixFactor):
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
        self.is_real = c_factor.is_real and d_factor.is_real and b_factor.is_real

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
        layout = self.d_factor.band_layout
        if layout is not None:
            ab = self.d_factor.eval_band(s)
            if layout.tridiagonal:
                return _TridiagonalFactorization(ab, s)
            return _BandFactorization(ab, s, layout.kl, layout.ku)
        d = self.d_factor.eval(s)
        if not sp.issparse(d):
            return _DenseFactorization(d, s)
        return _SparseFactorization(d, s)

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
