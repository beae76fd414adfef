"""Structured matrix-valued functions H(s) = C(s) D(s)^{-1} B(s).

Each factor is a sum of scalar basis functions of the form s^k * exp(-tau*s)
times a constant (dense or sparse) coefficient matrix.  Each evaluation
assembles D(s) once and uses it for every direct and adjoint solve it needs
at the shift: a dense or SuperLU factorization is made once and reused; a
tridiagonal D(s) is eliminated within each solve, the direct one in place.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp

from .errors import DimensionMismatch, SingularShift, check_setting

#: reciprocal condition estimate below which a shift is declared singular
RCOND_THRESHOLD = 1e-14

#: band entries that MatrixFactor.eval_tridiagonal sums at a time, so that
#: its one complex temporary (256 KiB) stays in cache
_BAND_BLOCK = 16384


@dataclass(frozen=True)
class ScalarTerm:
    """One scalar basis function s^degree * exp(-delay*s).

    Covers monomials (delay=0), constants (degree=0, delay=0) and pure
    exponential delays (degree=0).  Closed under differentiation.
    """

    degree: int = 0
    delay: float = 0.0

    def __post_init__(self):
        check_setting("degree", self.degree,
                      lambda k: 0 <= k < math.inf and int(k) == k,
                      "a nonnegative integer")
        check_setting("delay", self.delay, lambda t: 0 <= t < math.inf,
                      "finite and nonnegative")

    def value(self, s):
        """The complex value at a shift, or at each of an array of shifts."""
        return s**self.degree * np.exp(-self.delay * s, dtype=complex)

    def derivative(self, s):
        """d/ds of value, at a shift or at each of an array of shifts."""
        k, tau = self.degree, self.delay
        poly = -tau * s**k
        if k > 0:
            poly += k * s ** (k - 1)
        return poly * np.exp(-tau * s, dtype=complex)


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

    @cached_property
    def bands(self) -> tuple | None:
        """Per term, one 1-D band of 3n entries in the C-ordered (3, n)
        storage of a tridiagonal factor (super-, main and subdiagonal, each
        entry in its column), or None unless every term is sparse with
        |i - j| <= 1 for every stored entry and n >= 2 (scipy's zgtsv
        wrapper rejects n = 1).  A DIA term with offsets (1, 0, -1) and
        C-contiguous float64 or complex128 (3, n) data is already in that
        storage: its band is its own data, not copied, with whatever its
        two out-of-matrix entries hold.  Every other term's stored values
        are scattered into a zeroed float64 band, complex128 for a complex
        term, duplicates summed.  Built on first use, then kept: it does not
        depend on the shift."""
        return _tridiagonal_bands(self.terms, self.ncols)

    @cached_property
    def symmetric(self) -> bool:
        """Whether every coefficient equals its transpose exactly.  Read
        from the bands when the factor has them, where each band's
        superdiagonal must equal its subdiagonal, since comparing sparse
        coefficients with their transposes took ten times as long on the
        delay family.  Built on first use, then kept, as bands is."""
        if self.nrows != self.ncols:
            return False
        n = self.ncols
        if self.bands is not None:
            return all(np.array_equal(band[1:n], band[2 * n:-1])
                       for band in self.bands)
        return all(_equal(m, m.T) for _, m in self.terms)

    @property
    def nrows(self) -> int:
        return self.shape[0]

    @property
    def ncols(self) -> int:
        return self.shape[1]

    @property
    def is_real(self) -> bool:
        return not any(np.iscomplexobj(m) for _, m in self.terms)

    def _combine(self, coeffs, dense: bool = False):
        """Sum of each coefficient matrix times its entry of coeffs, in term
        order: sparse when every coefficient is and not ``dense``, else
        dense.  Dense coeffs may be (k, 1, 1) arrays, which give a
        (k, nrows, ncols) stack."""
        sparse = not dense and all(sp.issparse(m) for _, m in self.terms)
        acc = None
        for c, (_, m) in zip(coeffs, self.terms):
            contrib = (m * c) if sparse else _as_dense(m) * c
            acc = contrib if acc is None else acc + contrib
        return acc.tocsc() if sparse else acc

    def eval(self, s: complex):
        """Sum of term values times coefficients at the shift s."""
        return self._combine([t.value(s) for t, _ in self.terms])

    def eval_derivative(self, s: complex):
        """d/ds of eval at the shift s."""
        return self._combine([t.derivative(s) for t, _ in self.terms])

    def stack(self, shifts, derivative: bool = False) -> np.ndarray:
        """eval (or eval_derivative) at every shift, as a dense
        (len(shifts), nrows, ncols) stack; each layer is summed in eval's
        term order.  The scalars come from array arithmetic, which for
        terms such as s**k * exp(-tau*s) with k >= 1 can differ from
        per-shift eval in the last bit."""
        shifts = np.asarray(shifts)
        return self._combine(
            [(t.derivative if derivative else t.value)(shifts)[:, None, None]
             for t, _ in self.terms], dense=True)

    def eval_tridiagonal(self, s: complex) -> np.ndarray:
        """eval at the shift s in the (3, n) storage of bands, which must
        not be None: each term's band, real or complex, times its scalar,
        added in term order, _BAND_BLOCK entries at a time.  The two
        entries outside the matrix, (0, 0) and (2, n - 1), are set to 0."""
        bands, n = self.bands, self.ncols
        coeffs = [t.value(s) for t, _ in self.terms]
        ab = np.empty(3 * n, dtype=np.complex128)
        tmp = np.empty(min(_BAND_BLOCK, 3 * n), dtype=np.complex128)
        for lo in range(0, 3 * n, _BAND_BLOCK):
            hi = min(lo + _BAND_BLOCK, 3 * n)
            term = tmp[:hi - lo]
            np.multiply(bands[0][lo:hi], coeffs[0], out=ab[lo:hi])
            for band, c in zip(bands[1:], coeffs[1:]):
                ab[lo:hi] += np.multiply(band[lo:hi], c, out=term)
        ab[0] = ab[-1] = 0.0
        return ab.reshape(3, n)

    def scalar_signature(self):
        """Multiset of (degree, delay) pairs, order-insensitive."""
        return sorted((t.degree, t.delay) for t, _ in self.terms)


def _tridiagonal_bands(terms, n: int) -> tuple | None:
    """MatrixFactor.bands of a sum of terms with n columns.

    Every term's pattern is checked, one term at a time, before any band is
    made; then the bands are made one term at a time.  A term in the band
    storage already is taken as it is.  Any other term is scattered, so at
    most one term's int64 flat positions and column indices exist at once:
    about 36n bytes with 3n stored entries.  Its values are added with
    np.add.at in stored order, so duplicate entries sum as in a conversion
    to COO."""
    if n < 2 or not all(sp.issparse(m) for _, m in terms):
        return None
    if not all(_in_band_storage(m, n) or _within_one_of_diagonal(m)
               for _, m in terms):
        return None
    return tuple(_band(m, n) for _, m in terms)


def _in_band_storage(m, n: int) -> bool:
    """Whether the sparse m is an n-by-n DIA matrix whose data is the (3, n)
    band storage itself: offsets (1, 0, -1), C-contiguous, float64 or
    complex128."""
    return (m.format == "dia" and m.shape == (n, n)
            and np.array_equal(m.offsets, (1, 0, -1))
            and m.data.shape == (3, n) and m.data.flags.c_contiguous
            and m.data.dtype in (np.float64, np.complex128))


def _band(m, n: int) -> np.ndarray:
    """The band of one term of _tridiagonal_bands: a view of the data of a
    term in band storage, else a new array."""
    if _in_band_storage(m, n):
        return m.data.reshape(-1)
    band = np.zeros(3 * n, dtype=np.result_type(m.dtype, np.float64))
    pos, cols, data = _offsets(m)
    pos += 1
    pos *= n
    pos += cols     # (1 + i - j) * n + j, which reaches 3n
    np.add.at(band, pos, data)
    return band


def _within_one_of_diagonal(m) -> bool:
    """Whether every stored entry (i, j) of the sparse m has |i - j| <= 1."""
    offsets = _offsets(m)[0]
    return not offsets.size or (offsets.min() >= -1 and offsets.max() <= 1)


def _offsets(m):
    """(i - j as int64, j, value) of every stored entry (i, j) of the sparse
    m, in stored order.  CSC and CSR matrices are read through their own
    indices and indptr; any other format is converted to COO first."""
    if m.format in ("csc", "csr"):
        major = np.repeat(np.arange(len(m.indptr) - 1, dtype=m.indptr.dtype),
                          np.diff(m.indptr))
        rows, cols = ((m.indices, major) if m.format == "csc"
                      else (major, m.indices))
        data = m.data
    else:
        coo = m.tocoo()
        rows, cols, data = coo.row, coo.col, coo.data
    return np.subtract(rows, cols, dtype=np.int64), cols, data


def _equal(a, b) -> bool:
    """Whether a and b are both sparse or both dense, with one shape and
    equal entries."""
    if a.shape != b.shape or sp.issparse(a) != sp.issparse(b):
        return False
    if sp.issparse(a):
        return (a != b).nnz == 0
    return np.array_equal(a, b)


def _as_dense(m) -> np.ndarray:
    if sp.issparse(m):
        return np.asarray(m.todense())
    return np.asarray(m)


def _dense_lu(d: np.ndarray, anorm: float, s: complex):
    """(lu, piv, rcond) of a dense complex D(s) with 1-norm anorm; raises
    SingularShift when the 1-norm reciprocal condition estimate is below
    RCOND_THRESHOLD."""
    lu, piv, info = sla.lapack.zgetrf(d)
    if info > 0:
        raise SingularShift(s, rcond=0.0)
    rcond, info = sla.lapack.zgecon(lu, anorm, norm="1")
    if info != 0 or not np.isfinite(rcond) or rcond < RCOND_THRESHOLD:
        raise SingularShift(s, rcond=float(rcond))
    return lu, piv, float(rcond)


class _DenseFactorization:
    """LU of a dense D(s) with a 1-norm reciprocal condition estimate."""

    def __init__(self, d: np.ndarray, s: complex):
        d = np.ascontiguousarray(d, dtype=np.complex128)
        anorm = np.linalg.norm(d, 1) if d.size else 0.0
        *self._lu, self.rcond = _dense_lu(d, anorm, s)

    def solve(self, rhs, adjoint: bool = False) -> np.ndarray:
        rhs = np.asarray(_as_dense(rhs), dtype=np.complex128)
        x, _ = sla.lapack.zgetrs(*self._lu, rhs, trans=2 if adjoint else 0,
                                 overwrite_b=True)
        return x


def _pivot_rcond(udiag: np.ndarray, s: complex) -> float:
    """min/max |diag U| of an LU; raises SingularShift below RCOND_THRESHOLD."""
    udiag = np.abs(udiag)
    umax = udiag.max() if udiag.size else 0.0
    rcond = float(udiag.min() / umax) if umax > 0 else 0.0
    if rcond < RCOND_THRESHOLD:
        raise SingularShift(s, rcond=rcond)
    return rcond


class _SparseFactorization:
    """Sparse LU of D(s) with a cheap pivot-based singularity check.

    SuperLU is imported on first use, so that runs that never take this
    route (dense, tridiagonal) do not load scipy.sparse.linalg; a failed
    import is an ImportError, not a singular shift."""

    def __init__(self, d, s: complex):
        from scipy.sparse.linalg import splu
        d = sp.csc_matrix(d, dtype=np.complex128)
        try:
            lu = splu(d)
        except RuntimeError as err:
            raise SingularShift(s, rcond=0.0) from err
        self.rcond = _pivot_rcond(lu.U.diagonal(), s)
        self._lu = lu

    def solve(self, rhs, adjoint: bool = False) -> np.ndarray:
        rhs = np.asarray(_as_dense(rhs), dtype=np.complex128)
        return self._lu.solve(rhs, trans="H" if adjoint else "N")


class _TridiagonalFactorization:
    """A sparse D(s) in the (3, n) storage of MatrixFactor.eval_tridiagonal.
    Each solve is one zgtsv call, an elimination with partial pivoting and
    the substitution fused into it, then the sparse path's pivot-ratio check
    on the U diagonal it returns, kept as rcond.  The direct solve
    eliminates on the bands in place and so must come last; an adjoint
    solve eliminates on conjugate-transposed copies."""

    def __init__(self, ab: np.ndarray, s: complex):
        self._ab, self._s = ab, s

    def solve(self, rhs, adjoint: bool = False) -> np.ndarray:
        """D(s)^{-1} rhs, or D(s)^{-*} rhs with ``adjoint``, computed in the
        memory of rhs when it is a Fortran-contiguous complex array, so
        that a full-length block is not copied; rhs is then overwritten."""
        ab = self._ab
        if ab is None:
            raise RuntimeError(
                "the direct solve overwrote the bands of D(s): make every "
                "adjoint solve before the one direct solve")
        # rows of ab: superdiagonal from column 1, diagonal, subdiagonal up
        # to column n - 2
        if adjoint:
            dl, d, du = ab[0, 1:].conj(), ab[1].conj(), ab[2, :-1].conj()
        else:
            dl, d, du = ab[2, :-1], ab[1], ab[0, 1:]
            self._ab = None
        rhs = np.asarray(_as_dense(rhs), dtype=np.complex128)
        _, udiag, _, x, info = sla.lapack.zgtsv(
            dl, d, du, rhs, overwrite_dl=True, overwrite_d=True,
            overwrite_du=True, overwrite_b=True)
        if info > 0:
            raise SingularShift(self._s, rcond=0.0)
        self.rcond = _pivot_rcond(udiag, self._s)
        return x


class StructuredTF:
    """The triple (C-factor, D-factor, B-factor) with dimensions (p, n, m).

    Holds no factorization between calls, so concurrent evaluation is safe.
    The only things kept are the D factor's bands and symmetric flag, which
    do not depend on the shift; a concurrent first call may build them
    twice, harmlessly.  A sparse D(s) goes to LAPACK's tridiagonal solver
    when the factor has bands and to SuperLU otherwise; a dense D(s) gets a
    LAPACK LU.
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
        # C(s) = B(s)^T at every shift, bit for bit: the same scalar terms in
        # the same order, each C_j equal to B_j^T
        self._c_is_b_transpose = (
            len(c_factor.terms) == len(b_factor.terms)
            and all(tc == tb and _equal(mc, mb.T) for (tc, mc), (tb, mb)
                    in zip(c_factor.terms, b_factor.terms)))

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
        """A fresh factorization of D(s); a singular D(s) raises
        SingularShift here or, on the tridiagonal route, in a solve.  Its
        solve(rhs, adjoint=False) may overwrite rhs, as LAPACK's overwrite_b
        does, so callers pass a temporary of their own; on the tridiagonal
        route it also overwrites D(s), so it comes after every adjoint
        solve."""
        s = complex(s)
        if self.d_factor.bands is not None:
            return _TridiagonalFactorization(
                self.d_factor.eval_tridiagonal(s), s)
        d = self.d_factor.eval(s)
        if not sp.issparse(d):
            return _DenseFactorization(d, s)
        return _SparseFactorization(d, s)

    def _resolvents(self, s: complex, with_c: bool = True):
        """(C(s), D(s)^{-1} B(s), D(s)^{-*} C(s)^*) from one factorization.

        A complex-symmetric function, one with C(s) = B(s)^T and every D_j
        equal to its transpose, has D(s)^* = conj(D(s)) and so
        D(s)^{-*} C(s)^* = conj(D(s)^{-1} B(s)): it takes one solve, and
        C(s) is made only ``with_c``; without, None stands in its place.

        Each solve overwrites a fresh B(s) or C(s)^*.  The adjoint solve
        comes first, since a tridiagonal direct solve overwrites D(s).  On
        the one-solve path the factorization is freed before C(s) and
        conj(x) are made, so that no more than the factorization and one
        n-by-m block are alive at once."""
        fact = self._factorization(s)
        if self._c_is_b_transpose and self.d_factor.symmetric:
            x = fact.solve(self.b_factor.eval(s))
            del fact
            return self.c_factor.eval(s) if with_c else None, x, x.conj()
        cs = self.c_factor.eval(s)
        y = fact.solve(_as_dense(cs).conj().T, adjoint=True)
        return cs, fact.solve(self.b_factor.eval(s)), y

    def solve_d(self, s: complex, rhs) -> np.ndarray:
        """Solve D(s) X = RHS.  RHS is an array or a sparse matrix, which is
        left as it is, or a MatrixFactor F with F.nrows = n, for RHS = F(s):
        F(s) is then evaluated here and overwritten by X, so that no copy of
        it is made."""
        fact = self._factorization(s)
        if isinstance(rhs, MatrixFactor):
            return fact.solve(rhs.eval(s))
        return fact.solve(np.array(_as_dense(rhs), dtype=np.complex128,
                                   order="F"))

    def eval(self, s: complex) -> np.ndarray:
        """H(s) = C(s) D(s)^{-1} B(s) as a dense p-by-m array.  B(s) is
        solved in place, and C(s) is made once the factorization is freed."""
        x = self.solve_d(s, self.b_factor)
        return _as_dense(self.c_factor.eval(s) @ x)

    def eval_with_derivative(self, s: complex):
        """(H(s), H'(s)) from one factorization of D(s)."""
        cs, x, y = self._resolvents(s)
        return _as_dense(cs @ x), _h_prime(
            self.c_factor.eval_derivative(s), self.d_factor.eval_derivative(s),
            self.b_factor.eval_derivative(s), x, y)

    def eval_stack(self, shifts, derivative: bool = False):
        """H at every shift as a (len(shifts), p, m) stack, and H' likewise
        with ``derivative`` (None without).

        A dense D is assembled for all shifts at once, len(shifts) n-by-n
        layers (D' too with ``derivative``), and factored shift by shift,
        with the singularity check of a single evaluation; a sparse D
        (a full-order function) goes shift by shift through eval, or through
        eval_with_derivative with ``derivative``.  Raises SingularShift with
        the first singular shift.  ``shifts`` must not be empty.
        """
        if all(sp.issparse(m) for _, m in self.d_factor.terms):
            if not derivative:
                return np.array([self.eval(s) for s in shifts]), None
            h, hprime = zip(*(self.eval_with_derivative(s) for s in shifts))
            return np.array(h), np.array(hprime)
        d = self.d_factor.stack(shifts)
        b = self.b_factor.stack(shifts)
        c = self.c_factor.stack(shifts)
        anorms = np.abs(d).sum(axis=1).max(axis=1)
        x = np.empty(b.shape, dtype=np.complex128)
        y = (np.empty((len(shifts), self.n, self.p), dtype=np.complex128)
             if derivative else None)
        for k, s in enumerate(shifts):
            lu, piv, _ = _dense_lu(d[k], anorms[k], s)
            x[k] = sla.lapack.zgetrs(lu, piv, b[k])[0]
            if derivative:
                y[k] = sla.lapack.zgetrs(lu, piv, c[k].conj().T, trans=2)[0]
        if not derivative:
            return c @ x, None
        return c @ x, _h_prime(
            self.c_factor.stack(shifts, derivative=True),
            self.d_factor.stack(shifts, derivative=True),
            self.b_factor.stack(shifts, derivative=True), x, y)


def _h_prime(c_prime, d_prime, b_prime, x, y) -> np.ndarray:
    """H' = C'D^{-1}B - CD^{-1}D'D^{-1}B + CD^{-1}B' from X = D^{-1}B and
    Y = D^{-*}C^*, at one shift or stacked over shifts."""
    cd = y.conj().swapaxes(-1, -2)  # rows of C D^{-1}
    return (_as_dense(c_prime @ x) - cd @ _as_dense(d_prime @ x)
            + cd @ _as_dense(b_prime))
