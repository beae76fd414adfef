"""Reduced functions obtained by two-sided projection of the factors.

The reduced function shares the scalar terms of its parent; only the
coefficient matrices are projected (C_j V, W^* D_j V, W^* B_j).  Reduced
models are always dense.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp

from .errors import DimensionMismatch
from .structured import MatrixFactor, StructuredTF, _as_dense

#: dominant-pole frequencies that run() adds to its initial points
DOMINANT_SEEDS = 8
#: tolerance for accepting a pencil eigenvalue as purely imaginary, and the
#: least reciprocal condition estimate of E that standard_form inverts
IMAG_TOL = 1e-8
#: largest order whose poles dominant_frequencies computes.  Its dense
#: eigensolve grows as n^3: with one BLAS thread on a 2-vCPU x86 host it
#: takes 0.2 s at n = 250 (about one unseeded run()), 1.4 s at n = 500
#: (2-3 runs) and 13 s at n = 1000
DOMINANT_MAX_N = 500


def _inner(X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """X^* Y as one dot product per pair of columns (np.vecdot), for the thin
    products of the C and B factors: a BLAS matrix product of that shape
    hands half of its work to a second thread from about 4000 entries and,
    when the other core is busy, waits milliseconds for it.  vecdot itself
    goes to a second thread above 1e4 rows; projected over the row extents
    of the delay family's bases, these products take about 1742 rows at
    every order."""
    return np.vecdot(X.T[:, None, :], Y.T)


def _adjoint_product(W: np.ndarray, X: np.ndarray) -> np.ndarray:
    """W^* X as one BLAS matrix product, with W passed as its conjugate
    transpose and not copied when it is Fortran-ordered, as greedy's bases
    are; for the k-by-k product W^* (D_j V) of a projection.  OpenBLAS ran
    it on one thread for every k up to 16 at every row count tried, 30 to
    1.4e5, and on two from k = 20 or so."""
    gemm = sla.get_blas_funcs("gemm", (W, X))
    return gemm(1.0, W, X, trans_a=2)


def _leading(mat, rows: int, cols: int):
    """The leading rows-by-cols block of mat; mat itself when that is all
    of it, unless mat is DIA.  A DIA mat's block is a DIA matrix, even when
    it is all of mat, made from the data of its leading cols columns with
    the diagonals in ascending-offset order.  scipy's DIA product adds each
    row's terms one diagonal at a time, so in that order its product with
    a dense block sums each row in column order, as the product of the
    same matrix held in CSC does.  A sparse mat in another format without
    slicing goes through CSC."""
    if sp.issparse(mat) and mat.format == "dia":
        order = np.argsort(mat.offsets)
        return sp.dia_matrix((mat.data[order, :cols], mat.offsets[order]),
                             shape=(rows, cols))
    if (rows, cols) == mat.shape:
        return mat
    if sp.issparse(mat) and mat.format not in ("csc", "csr"):
        mat = mat.tocsc()
    return mat[:rows, :cols]


def _project_factor(factor, V=None, W=None) -> MatrixFactor:
    """The coefficients of factor projected: C_j V without W, W^* B_j
    without V, W^* D_j V with both.  V and W hold the bases' leading rows,
    and each coefficient is cut to its block on them, once per term.  A
    sparse coefficient is multiplied as one mat @ V: scipy copies a
    Fortran-ordered V into C order for it, which over the delay family's
    1742 or so stored rows costs less than one product per column."""
    projected = []
    for term, mat in factor.terms:
        if W is None:    # C_j V, p rows
            mat = _leading(mat, mat.shape[0], V.shape[0])
            out = (mat @ V if sp.issparse(mat)
                   else _inner(_as_dense(mat).conj().T, V))
        elif V is None:  # W^* B_j, m columns
            mat = _leading(mat, W.shape[0], mat.shape[1])
            out = _inner(W, _as_dense(mat))
        else:
            mat = _leading(mat, W.shape[0], V.shape[0])
            # D_j V before W^*, and not kept past this product: the other
            # order raised delay_sparse's peak RSS by 8 MB, through the
            # allocator's reuse of freed blocks, and keeping D_j V until the
            # next term's product raised it by 20 MB
            out = _adjoint_product(
                W, mat @ V if sp.issparse(mat) else _as_dense(mat) @ V)
        projected.append((term, out))
    return MatrixFactor(projected)


def project(tf: StructuredTF, V: np.ndarray, W: np.ndarray) -> StructuredTF:
    """Coefficient-wise Petrov-Galerkin projection onto Col(V), Col(W),
    computed from scratch on every call: one product with each C_j and
    B_j, and D_j V then one gemm W^* (D_j V) per term of D.

    V and W may hold fewer than n rows, as a SubspaceState's do: they are
    the leading rows of bases that are zero below them.  Every product then
    runs over those rows only, C_j V over the leading columns of C_j, W^*
    B_j over the leading rows of B_j and W^* D_j V over the leading block
    of D_j, and gives the entries of the projection onto the zero-padded
    bases.  The delay family's bases are zero past row 1742 or so at every
    order.  With n rows each, nothing is cut."""
    V, W = np.asarray(V), np.asarray(W)
    if V.ndim != 2 or W.ndim != 2:
        raise DimensionMismatch(
            f"projection bases must be 2-D, got shapes {V.shape} and {W.shape}")
    if V.shape[1] != W.shape[1]:
        raise DimensionMismatch(
            f"V and W must have equal column counts, got {V.shape[1]} and {W.shape[1]}")
    n = tf.n
    if V.shape[0] > n or W.shape[0] > n:
        raise DimensionMismatch(
            f"projection bases may have at most n = {n} rows, got "
            f"{V.shape[0]} and {W.shape[0]}")
    return StructuredTF(
        _project_factor(tf.c_factor, V=V),
        _project_factor(tf.d_factor, V=V, W=W),
        _project_factor(tf.b_factor, W=W),
    )


def sigma_max(tf: StructuredTF, omega: float) -> float:
    """Largest singular value of H(i*omega)."""
    # with vectors, as in sigma_and_slope: gesdd rounds sigma differently
    # without them once min(m, p) >= 2
    _, svals, _ = np.linalg.svd(tf.eval(1j * omega))
    return float(svals[0])


def sigma_and_slope(tf: StructuredTF, omegas, slope: bool = False):
    """Largest singular value of H(i*omega) at every omega of ``omegas``,
    and with ``slope`` its d/domega, as two float arrays; the slopes are
    None without ``slope``.

    All shifts go through one StructuredTF.eval_stack and one batched SVD.
    The slope is Re(w^* dH/domega v) for the top singular pair; the pair's
    common phase cancels, so it is not normalized.  It is unreliable where
    the top singular value is not simple.  A singular D(i*omega) raises
    SingularShift with that shift.
    """
    shifts = [1j * float(w) for w in omegas]
    if not shifts:
        return np.empty(0), (np.empty(0) if slope else None)
    svals, slopes = _svd_and_slope(*tf.eval_stack(shifts, derivative=slope))
    return svals[:, 0], slopes


def _svd_and_slope(h: np.ndarray, hprime: np.ndarray | None):
    """Every singular value of each layer of the stack h, largest first, and
    with hprime (H' at the same shifts) the slopes of sigma_and_slope; None
    without."""
    u, svals, vh = np.linalg.svd(h)
    if hprime is None:
        return svals, None
    w = u[:, :, :1].conj().swapaxes(1, 2)   # (k, 1, p)
    v = vh[:, :1, :].conj().swapaxes(1, 2)  # (k, m, 1)
    return svals, (w @ (1j * hprime) @ v)[:, 0, 0].real


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


def standard_form(realization):
    """(None, E^{-1}A, E^{-1}B, C) from one LU of E, or ``realization`` as it
    is when E is singular or its 1-norm reciprocal condition estimate is
    below IMAG_TOL.  Real arrays stay real."""
    e, a, b, c = realization
    n = e.shape[0]
    getrf, gecon = sla.get_lapack_funcs(("getrf", "gecon"), (e,))
    lu, piv, info = getrf(e)
    if info != 0:
        return realization
    rcond, info = gecon(lu, np.linalg.norm(e, 1), norm="1")
    if info != 0 or not rcond >= IMAG_TOL:
        return realization
    x = sla.lu_solve((lu, piv), np.hstack((a, b)), check_finite=False)
    return None, x[:, :n], x[:, n:], c


def dominant_frequencies(tf: StructuredTF, k: int = DOMINANT_SEEDS) -> tuple:
    """Imaginary parts of the k most dominant poles of a rational H, most
    dominant first, without repeats; () for any other H or above
    DOMINANT_MAX_N.

    One dense eigensolve with left and right eigenvectors, real when H is:
    of E^{-1}A when standard_form inverts E, of the pencil (A, E) (QZ)
    otherwise.  The dominance of the pole lambda with eigenvectors x, y is
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
    # in standard form the left eigenvectors are E^* y and B is E^{-1} B,
    # so the dominance of each pole is unchanged
    e, a, b, c = standard_form((e, a, b, c))
    lam, y, x = sla.eig(a, e, left=True, right=True)
    keep = np.isfinite(lam)
    if tf.is_real:
        # one pole of each conjugate pair; its two eigenvalues can have
        # different denominators, so their imaginary parts differ in the
        # last bits while their signs are exact
        keep &= lam.imag >= 0.0
    keep = np.flatnonzero(keep)
    lam, y, x = lam[keep], y[:, keep], x[:, keep]
    ex = x if e is None else e @ x
    denom = np.abs(np.einsum("ij,ij->j", y.conj(), ex)) * np.abs(lam.real)
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
