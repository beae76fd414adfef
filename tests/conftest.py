"""Shared builders for the test suite."""

import tracemalloc

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp

import linfnorm.greedy as greedy
from linfnorm.greedy import SubspaceState
from linfnorm.problems import descriptor_tf
from linfnorm.structured import MatrixFactor, ScalarTerm, StructuredTF


def non_numbers(valid):
    """Values that are not settings, each made from the valid setting
    ``valid``: its text, None, a complex number, a list and a 0-d array."""
    return [str(valid), None, complex(valid), [valid], np.array(valid)]


def random_descriptor(n, m, p, seed, min_decay=0.1, max_decay=2.0, im_max=8.0):
    """Random stable state-space system with controlled pole locations.

    Eigenvalues are placed directly (real parts in [-max_decay, -min_decay],
    imaginary parts in [0, im_max] as conjugate pairs) and hidden behind an
    orthogonal similarity, so a bracketing frequency interval is known
    exactly.  Returns (tf, (omega_lo, omega_hi)).
    """
    rng = np.random.default_rng(seed)
    nb = n // 2
    re = -rng.uniform(min_decay, max_decay, nb)
    im = rng.uniform(0.0, im_max, nb)
    blocks = [np.array([[a, b], [-b, a]]) for a, b in zip(re, im)]
    if n % 2:
        blocks.append(np.array([[-rng.uniform(min_decay, max_decay)]]))
    a = sla.block_diag(*blocks)
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    a = q @ a @ q.T
    b = rng.standard_normal((n, m))
    c = rng.standard_normal((p, n))
    wmax = float(im.max()) if nb else 1.0
    return descriptor_tf(np.eye(n), a, b, c), (0.0, 1.5 * wmax + 1.0)


def random_rational_reduced(dim, m, p, seed, **kwargs):
    """A small random rational model of reduced-model size."""
    return random_descriptor(dim, m, p, seed, **kwargs)


def siso_one_pole():
    """H(s) = 1/(s+1)."""
    return descriptor_tf(np.array([[1.0]]), np.array([[-1.0]]),
                         np.array([[1.0]]), np.array([[1.0]]))


def siso_two_pole():
    """H(s) = 1/(s+1) + 1/(s+2), peak 1.5 at omega = 0."""
    return descriptor_tf(np.eye(2), np.diag([-1.0, -2.0]),
                         np.array([[1.0], [1.0]]), np.array([[1.0, 1.0]]))


def pointwise_sigma_and_slope(tf, omega):
    """(sigma, dsigma/domega) of H(i*omega) from one evaluation: the
    per-point reference for reduced.sigma_and_slope."""
    h, hprime = tf.eval_with_derivative(1j * omega)
    u, svals, vh = np.linalg.svd(h)
    slope = np.real(u[:, 0].conj() @ (1j * hprime) @ vh[0].conj())
    return float(svals[0]), float(slope)


def cgs2_reference(block, tol):
    """Column-wise classical Gram-Schmidt, twice, with the sequential
    deflation rule: column j is kept iff its residual against the kept
    earlier columns is at least tol * (||x_j|| + 1).  The reference for
    expand's orthonormalization of a whole initial block; returns (Q, kept
    column indices)."""
    q, kept = np.zeros((block.shape[0], 0), dtype=complex), []
    for j, x in enumerate(block.T):
        v = x
        for _ in range(2):
            v = v - q @ (q.conj().T @ v)
        nrm = np.linalg.norm(v)
        if nrm >= tol * (np.linalg.norm(x) + 1.0):
            q = np.column_stack((q, v / nrm))
            kept.append(j)
    return q, kept


def csc_terms(factor):
    """The factor's terms with each sparse coefficient converted to CSC."""
    return [(t, m.tocsc() if sp.issparse(m) else m) for t, m in factor.terms]


def csc_twin(tf):
    """tf with every sparse coefficient in CSC: for the delay fixture, the
    CSC terms that sums of CSC matrices give, which it held before its
    terms were DIA."""
    return StructuredTF(*(MatrixFactor(csc_terms(f))
                          for f in (tf.c_factor, tf.d_factor, tf.b_factor)))


def padded(basis, n):
    """A state's basis with the zero rows below its stored ones put back,
    n rows in all; Fortran-ordered, as the state's own bases are, so that
    products with it take the same arithmetic."""
    out = np.zeros((n, basis.shape[1]), dtype=basis.dtype, order="F")
    out[:basis.shape[0]] = basis
    return out


def peak_bytes(fn):
    """(fn(), the most bytes that numpy and Python held during the call
    beyond what they held when it began), counted by tracemalloc, so that
    the count does not depend on the allocator or on BLAS threads."""
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        out = fn()
        return out, tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()


def kept_bytes(fn):
    """(fn(), the bytes that numpy and Python hold when it returns beyond
    what they held when it began), counted by tracemalloc."""
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        out = fn()
        return out, tracemalloc.get_traced_memory()[0] - start
    finally:
        tracemalloc.stop()


def constant_factor(mat):
    return MatrixFactor([(ScalarTerm(), np.atleast_2d(np.asarray(mat, dtype=float)))])


@pytest.fixture
def run_states(monkeypatch):
    """A list that the runs of the test fill with the state of each
    maximization in greedy.run that returns: the bases last given to
    greedy.project and the points given to greedy.maximize."""
    states, bases = [], []
    project, maximize = greedy.project, greedy.maximize

    def projecting(tf, V, W):
        bases[:] = [V, W, tf.n]
        return project(tf, V, W)

    def maximizing(rm, cfg, points=()):
        res = maximize(rm, cfg, points)
        V, W, n = bases
        states.append(SubspaceState(V=V, W=W, points=tuple(points), n=n))
        return res

    monkeypatch.setattr(greedy, "project", projecting)
    monkeypatch.setattr(greedy, "maximize", maximizing)
    return states


@pytest.fixture
def one_pole():
    return siso_one_pole()


@pytest.fixture
def two_pole():
    return siso_two_pole()
