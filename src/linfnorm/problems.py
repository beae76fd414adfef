"""Problem ingestion from manifest + Matrix Market files, plus built-in
fixture generators."""

from __future__ import annotations

import json
import numbers
import os
from pathlib import Path

import numpy as np

from .errors import DimensionMismatch, ParseError, check_setting
from .structured import MatrixFactor, ScalarTerm, StructuredTF, issparse

#: environment variable pointing at optional external benchmark data
DATA_DIR_ENV = "LINFNORM_DATA_DIR"

#: Matrix Market matrices at or below this order are loaded dense
DENSE_CUTOFF = 200


def _load_matrix(path: Path):
    # imported here, so that only runs that read files load scipy.io
    from scipy.io import mmread
    try:
        mat = mmread(os.fspath(path))
    except (ValueError, OSError) as err:
        raise ParseError(f"{path}: {err}") from err
    if issparse(mat):
        if max(mat.shape) <= DENSE_CUTOFF:
            return np.asarray(mat.todense())
        return mat.tocsc()
    return np.asarray(mat)


def _number(value) -> bool:
    """A JSON number: an int or a float, not a bool."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _load_factor(entries, base: Path, name: str, expected_shape):
    if not isinstance(entries, list) or not entries:
        raise ParseError(f"factor {name!r} must be a non-empty list of terms")
    terms = []
    for entry in entries:
        try:
            if not isinstance(entry, dict):
                raise TypeError("a term must be a JSON object")
            k, tau = entry.get("k", 0), entry.get("tau", 0.0)
            # JSON numbers only: not true as degree 1, nor "0.5" as a delay
            if not _number(k) or int(k) != k:
                raise ValueError(f"k must be an integer, got {k!r}")
            if not _number(tau):
                raise TypeError(f"tau must be a number, got {tau!r}")
            term = ScalarTerm(degree=int(k), delay=float(tau))
            rel = entry["matrix"]
            if not isinstance(rel, str):
                raise TypeError(f"matrix must be a file name, got {rel!r}")
        except (KeyError, TypeError, ValueError, OverflowError) as err:
            raise ParseError(
                f"bad term in factor {name!r}: {entry} ({err})") from err
        mat = _load_matrix(base / rel)
        if mat.shape != expected_shape:
            raise DimensionMismatch(
                f"{name}: matrix {rel} has shape {mat.shape}, "
                f"expected {expected_shape}")
        terms.append((term, mat))
    return MatrixFactor(terms)


def load_problem(manifest_path):
    """Builds a validated StructuredTF from a JSON manifest.

    The manifest lists, per factor, the scalar term (k, tau) and a Matrix
    Market file path relative to the manifest.  Returns (tf, config) where
    config is the manifest's optional default solver settings (a dict).
    """
    manifest_path = Path(manifest_path)
    try:
        with open(manifest_path) as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as err:
        raise ParseError(f"{manifest_path}:{err.lineno}: {err.msg}") from err
    except OSError as err:
        raise ParseError(str(err)) from err
    try:
        dims = doc["dimensions"]
        n, m, p = dims["n"], dims["m"], dims["p"]
    except (KeyError, TypeError) as err:
        raise ParseError(f"{manifest_path}: missing or bad 'dimensions'") from err
    for key, value in zip("nmp", (n, m, p)):
        if type(value) is not int:  # not a bool, a float or a string
            raise ParseError(f"{manifest_path}: dimension {key!r} must be an "
                             f"integer, got {value!r}")
    base = manifest_path.parent
    b = _load_factor(doc.get("B"), base, "B_factor", (n, m))
    c = _load_factor(doc.get("C"), base, "C_factor", (p, n))
    d = _load_factor(doc.get("D"), base, "D_factor", (n, n))
    config = doc.get("config", {})
    if not isinstance(config, dict):
        raise ParseError(
            f"{manifest_path}: 'config' must be a JSON object, got {config!r}")
    tf = StructuredTF(c_factor=c, d_factor=d, b_factor=b)
    return tf, config


def _coupling_diagonals(n: int) -> np.ndarray:
    """The delay coupling matrix's diagonals in DIA storage with offsets
    (1, 0, -1): a (3, n) array whose two out-of-matrix entries are 0."""
    t = np.zeros((3, n))
    t[0, 1:] = t[2, :-1] = 1.0
    t[1, [0, -1]] = 1.0
    return t


def delay_coupling_matrix(n: int):
    """The n-by-n matrix with ones on the sub/superdiagonal and in the
    (1,1) and (n,n) entries."""
    import scipy.sparse as sp
    return sp.dia_matrix((_coupling_diagonals(n), [1, 0, -1]),
                         shape=(n, n)).tocsc()


def make_delay_fixture(n: int, tau: float = 1.0, beta: float = 0.01,
                       theta: float = 5.0) -> StructuredTF:
    """Single-delay benchmark system of order n.

    E = theta*I + T, A0 = (1/tau)(1/beta + 1)(T - theta*I),
    A1 = (1/tau)(1/beta - 1)(T - theta*I), with T the coupling matrix above;
    B = e1 + e2 and C = B^T, a view of B.  D(s) = s*E - A0 - exp(-tau*s)*A1.

    Each D term is a DIA matrix with offsets (1, 0, -1) made from T's
    diagonals, so that its data is its own tridiagonal band
    (MatrixFactor.bands).  The diagonals of T - theta*I are computed once,
    and each D term is them times its negated scalar, which rounds as the
    negation of A0 or A1 would; every value is the one that sums of CSC
    matrices give, and each zero is +0.0, as where a CSC sum stores no
    entry.  Each band is made in place, the last one in the diagonals of
    T - theta*I themselves, so that no array beyond the three bands and B
    is made.
    """
    import scipy.sparse as sp
    check_setting("n", n, lambda v: v >= 2, "an integer >= 2", numbers.Integral)
    check_setting("tau", tau, lambda v: 0 < v < np.inf, "finite and positive")
    check_setting("beta", beta, lambda v: -np.inf < v < np.inf and v != 0,
                  "finite and nonzero")
    check_setting("theta", theta, lambda v: -np.inf < v < np.inf, "finite")
    e = _coupling_diagonals(n)
    e[1] += theta
    shifted = _coupling_diagonals(n)
    shifted[1] -= theta
    a0 = np.multiply(shifted, -((1.0 / tau) * (1.0 / beta + 1.0)))
    a1 = shifted    # the diagonals of T - theta*I become A1's band
    a1 *= -((1.0 / tau) * (1.0 / beta - 1.0))
    b = np.zeros((n, 1))
    b[0, 0] = 1.0
    b[1, 0] = 1.0

    def dia_term(scalar_term, diagonals):
        # + 0.0 turns each -0.0 into the +0.0 of an entry that a CSC sum
        # does not store
        diagonals += 0.0
        return (scalar_term, sp.dia_matrix((diagonals, [1, 0, -1]),
                                           shape=(n, n)))

    d_factor = MatrixFactor([
        dia_term(ScalarTerm(degree=1), e),
        dia_term(ScalarTerm(degree=0), a0),
        dia_term(ScalarTerm(degree=0, delay=tau), a1),
    ])
    return StructuredTF(
        c_factor=MatrixFactor([(ScalarTerm(), b.T)]),
        d_factor=d_factor,
        b_factor=MatrixFactor([(ScalarTerm(), b)]),
    )


def descriptor_tf(e, a, b, c) -> StructuredTF:
    """Convenience wrapper for H(s) = C (sE - A)^{-1} B.  Sparse matrices
    stay sparse; any other array-like is taken as a dense 2-D array."""
    e, a, b, c = (m if issparse(m) else np.atleast_2d(np.asarray(m))
                  for m in (e, a, b, c))
    return StructuredTF(
        c_factor=MatrixFactor([(ScalarTerm(), c)]),
        d_factor=MatrixFactor([(ScalarTerm(degree=1), e),
                               (ScalarTerm(), -a)]),
        b_factor=MatrixFactor([(ScalarTerm(), b)]),
    )


def benchmark_dir() -> Path | None:
    """Directory with optional external benchmark data, or None."""
    path = os.environ.get(DATA_DIR_ENV)
    return Path(path) if path else None


def load_benchmark(name: str):
    """Loads an external benchmark (E.mtx, A.mtx, B.mtx, C.mtx under
    <data dir>/<name>/); returns None when the data is absent."""
    base = benchmark_dir()
    if base is None:
        return None
    folder = base / name
    files = {k: folder / f"{k}.mtx" for k in ("E", "A", "B", "C")}
    if not all(f.exists() for f in files.values()):
        return None
    mats = {k: _load_matrix(f) for k, f in files.items()}
    return descriptor_tf(mats["E"], mats["A"], mats["B"], mats["C"])
