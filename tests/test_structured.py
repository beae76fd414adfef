"""Tests for the structured-function data model and its shifted solves."""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

import linfnorm.structured as structured
from linfnorm.errors import DimensionMismatch, SingularShift
from linfnorm.greedy import expansion_block
from linfnorm.problems import delay_coupling_matrix, make_delay_fixture
from linfnorm.reduced import sigma_max, sigma_max_derivative
from linfnorm.structured import MatrixFactor, ScalarTerm, StructuredTF

from conftest import random_descriptor, siso_one_pole


class TestScalarTerm:
    def test_monomial(self):
        assert ScalarTerm(degree=1).value(2j) == 2j

    def test_pure_delay(self):
        assert ScalarTerm(delay=1.0).value(1j * np.pi) == pytest.approx(-1.0)

    def test_product(self):
        assert ScalarTerm(degree=1, delay=1.0).value(1.0) == pytest.approx(
            np.exp(-1.0))

    def test_constant_derivative(self):
        assert ScalarTerm().derivative(3.7 + 2j) == 0

    def test_monomial_derivative(self):
        assert ScalarTerm(degree=1).derivative(5j) == 1

    def test_delay_derivative_at_zero(self):
        assert ScalarTerm(delay=2.0).derivative(0.0) == pytest.approx(-2.0)

    def test_rejects_negative_parameters(self):
        with pytest.raises(ValueError):
            ScalarTerm(degree=-1)
        with pytest.raises(ValueError):
            ScalarTerm(delay=-0.5)

    @given(k=st.integers(0, 4), tau=st.floats(0.0, 3.0),
           re=st.floats(-2.0, 2.0), im=st.floats(-5.0, 5.0))
    @settings(max_examples=200, deadline=None)
    def test_derivative_matches_finite_difference(self, k, tau, re, im):
        term = ScalarTerm(degree=k, delay=tau)
        s = complex(re, im)
        h = 1e-6
        fd = (term.value(s + h) - term.value(s - h)) / (2 * h)
        d = term.derivative(s)
        assert abs(d - fd) <= 1e-6 * (1 + abs(d))


def _delay_ingredients(n, tau=1.0, beta=0.01, theta=5.0):
    t = np.asarray(delay_coupling_matrix(n).todense())
    e = theta * np.eye(n) + t
    a0 = (1 / tau) * (1 / beta + 1) * (t - theta * np.eye(n))
    a1 = (1 / tau) * (1 / beta - 1) * (t - theta * np.eye(n))
    return e, a0, a1


class TestMatrixFactor:
    def test_affine_in_s(self):
        # s*I + 1 in 1x1
        f = MatrixFactor([(ScalarTerm(degree=1), np.eye(1)),
                          (ScalarTerm(), np.array([[1.0]]))])
        assert f.eval(2.0) == pytest.approx(np.array([[3.0]]))

    def test_constant_factor(self):
        m = np.array([[1.0, 2.0], [3.0, 4.0]])
        f = MatrixFactor([(ScalarTerm(), m)])
        np.testing.assert_allclose(f.eval(1.7 + 0.3j).real, m)

    def test_delay_d_factor_at_zero(self):
        # at s=0 the D-factor reduces to -A0 - A1 (independent assembly)
        n = 3
        tf = make_delay_fixture(n)
        e, a0, a1 = _delay_ingredients(n)
        np.testing.assert_allclose(tf.d_factor.eval(0.0).toarray().real,
                                   -a0 - a1, atol=1e-12)

    def test_pencil_derivative_is_e(self):
        tf = siso_one_pole()
        for s in (0.0, 2j, 1 + 1j):
            np.testing.assert_allclose(tf.d_factor.eval_derivative(s),
                                       np.eye(1))

    def test_constant_derivative_is_zero(self):
        tf = siso_one_pole()
        np.testing.assert_allclose(tf.b_factor.eval_derivative(3j),
                                   np.zeros((1, 1)))

    def test_delay_d_factor_derivative_at_zero(self):
        n = 4
        tf = make_delay_fixture(n)
        e, a0, a1 = _delay_ingredients(n)
        np.testing.assert_allclose(
            tf.d_factor.eval_derivative(0.0).toarray().real, e + a1,
            atol=1e-12)

    def test_shared_sparse_pattern(self):
        # terms with one CSC pattern with unsorted indices: eval sums them,
        # and the indices must survive a factorization of D(s) untouched
        def mat(values):
            return sp.csc_matrix((values, [1, 0, 1], [0, 2, 3]), shape=(2, 2))
        e, a = mat([1.0, 2.0, 3.0]), mat([4.0, -5.0, 6.0])
        f = MatrixFactor([(ScalarTerm(degree=1), e), (ScalarTerm(), a)])
        s = 0.5 + 2j
        d = s * e.toarray() + a.toarray()
        np.testing.assert_array_equal(f.eval(s).toarray(), d)
        eye = MatrixFactor([(ScalarTerm(), np.eye(2))])
        np.testing.assert_allclose(StructuredTF(eye, f, eye).eval(s),
                                   np.linalg.inv(d), rtol=1e-12)
        np.testing.assert_array_equal(e.indices, [1, 0, 1])
        np.testing.assert_array_equal(e.toarray(), [[2.0, 0.0], [1.0, 3.0]])

    def test_rejects_empty_and_mismatched(self):
        with pytest.raises(ValueError):
            MatrixFactor([])
        with pytest.raises(DimensionMismatch):
            MatrixFactor([(ScalarTerm(), np.eye(2)),
                          (ScalarTerm(), np.eye(3))])


def _random_sparse_stable(n, seed, density=0.05):
    rng = np.random.default_rng(seed)
    a = sp.random(n, n, density=density, random_state=rng, format="csc")
    a = a - (abs(sp.linalg.eigs(a, k=1, which="LR",
                                return_eigenvectors=False)[0].real) + 1.0) \
        * sp.identity(n, format="csc")
    return _sparse_pencil(a, rng)


def _banded_sparse(n, kl, ku, seed):
    """D(s) = s*I - A with A diagonally dominant and kl sub-/ku
    superdiagonals, so the assembled sparse D(s) has that band."""
    rng = np.random.default_rng(seed)
    offsets = list(range(-kl, ku + 1))
    a = sp.diags([rng.uniform(-1.0, 1.0, n - abs(k)) for k in offsets],
                 offsets, format="csc")
    return _sparse_pencil(a - (kl + ku + 2) * sp.identity(n, format="csc"), rng)


def _sparse_pencil(a, rng):
    """H(s) = C (sI - A)^{-1} B with random two-column B and two-row C."""
    n = a.shape[0]
    d = MatrixFactor([(ScalarTerm(degree=1), sp.identity(n, format="csc")),
                      (ScalarTerm(), -a)])
    b = MatrixFactor([(ScalarTerm(), rng.standard_normal((n, 2)))])
    c = MatrixFactor([(ScalarTerm(), rng.standard_normal((2, n)))])
    return StructuredTF(c_factor=c, d_factor=d, b_factor=b)


def _tridiagonal_sparse(n, seed):
    """D(s) = s*I - A with A nonsymmetric tridiagonal (sub- and
    superdiagonal differ) and a subdiagonal entry in column 0 that outweighs
    the diagonal, so the LU swaps rows there."""
    rng = np.random.default_rng(seed)
    sub, sup = rng.uniform(-1.0, 1.0, n - 1), rng.uniform(-1.0, 1.0, n - 1)
    sub[0] = 40.0
    a = sp.diags([sub, rng.uniform(-1.0, 1.0, n) - 4.0, sup], [-1, 0, 1],
                 format="csc")
    return _sparse_pencil(a, rng)


@pytest.fixture
def routes(monkeypatch):
    """Names of the factorization classes StructuredTF picks, in call order."""
    taken = []
    for name in ("_DenseFactorization", "_SparseFactorization",
                 "_BandFactorization", "_TridiagonalFactorization"):
        def record(*args, _cls=getattr(structured, name), _name=name):
            taken.append(_name)
            return _cls(*args)
        monkeypatch.setattr(structured, name, record)
    return taken


class TestSolves:
    def test_scalar_solve(self):
        tf = siso_one_pole()
        np.testing.assert_allclose(tf.solve_d(0.0, np.array([[1.0]])),
                                   np.array([[1.0]]))

    def test_diagonal_solve(self):
        import linfnorm.problems as prob
        tf = prob.descriptor_tf(np.eye(2), np.diag([-1.0, -2.0]),
                                np.eye(2), np.eye(2))
        np.testing.assert_allclose(tf.solve_d(0.0, np.eye(2)),
                                   np.diag([1.0, 0.5]))

    def test_sparse_residual(self, routes):
        tf = _random_sparse_stable(50, seed=7)
        rng = np.random.default_rng(11)
        rhs = rng.standard_normal((50, 3))
        for s in (0.0, 2j, 0.5 + 3j):
            x = tf.solve_d(s, rhs)
            d = np.asarray(tf.d_factor.eval(s).todense())
            res = np.linalg.norm(d @ x - rhs) / np.linalg.norm(rhs)
            assert res <= 1e-10
        assert routes == ["_SparseFactorization"] * 3  # too wide for a band

    def test_band_route_matches_dense_solve(self, routes):
        # kl != ku, so a swapped band layout gives wrong solves
        tf = _banded_sparse(60, kl=2, ku=1, seed=8)
        rng = np.random.default_rng(12)
        rhs = rng.standard_normal((60, 3)) + 1j * rng.standard_normal((60, 3))
        for s in (0.0, 2j, 0.5 + 3j):
            d = tf.d_factor.eval(s).toarray()
            for adjoint, ref in ((False, np.linalg.solve(d, rhs)),
                                 (True, np.linalg.solve(d.conj().T, rhs))):
                x = (tf.solve_d_adjoint if adjoint else tf.solve_d)(s, rhs)
                assert np.linalg.norm(x - ref) <= 1e-10 * np.linalg.norm(ref)
        assert routes == ["_BandFactorization"] * 6

    def test_tridiagonal_route_matches_dense_solve(self, routes):
        # dl != du and a row swap, so swapped off-diagonals or a transpose
        # in place of the adjoint give wrong solves
        tf = _tridiagonal_sparse(40, seed=9)
        rng = np.random.default_rng(13)
        rhs = rng.standard_normal((40, 3)) + 1j * rng.standard_normal((40, 3))
        for s in (0.0, 2j, 0.5 + 3j):
            d = tf.d_factor.eval(s).toarray()
            assert abs(d[1, 0]) > abs(d[0, 0])
            for adjoint, ref in ((False, np.linalg.solve(d, rhs)),
                                 (True, np.linalg.solve(d.conj().T, rhs))):
                x = (tf.solve_d_adjoint if adjoint else tf.solve_d)(s, rhs)
                assert np.linalg.norm(x - ref) <= 1e-10 * np.linalg.norm(ref)
        assert routes == ["_TridiagonalFactorization"] * 6

    def test_singular_shift_tridiagonal(self, routes):
        # D(s) = s*I + L with L the path-graph Laplacian, exactly singular
        n = 300
        off = -np.ones(n - 1)
        lap = sp.diags([off, np.r_[1.0, 2.0 * np.ones(n - 2), 1.0], off],
                       [-1, 0, 1], format="csc")
        d = MatrixFactor([(ScalarTerm(degree=1), sp.identity(n, format="csc")),
                          (ScalarTerm(), lap)])
        b = MatrixFactor([(ScalarTerm(), np.ones((n, 1)))])
        c = MatrixFactor([(ScalarTerm(), np.ones((1, n)))])
        with pytest.raises(SingularShift):
            StructuredTF(c, d, b).eval(0.0)
        assert routes == ["_TridiagonalFactorization"]

    def test_lapack_kernel_per_band(self, monkeypatch):
        calls = []
        lapack = structured.sla.lapack
        for name in ("zgttrf", "zgttrs", "zgbtrf", "zgbtrs"):
            def spy(*args, _f=getattr(lapack, name), _name=name, **kwargs):
                calls.append(_name)
                return _f(*args, **kwargs)
            monkeypatch.setattr(lapack, name, spy)
        make_delay_fixture(3000).eval(1j)
        assert calls == ["zgttrf", "zgttrs"]
        for tf in (_banded_sparse(60, kl=2, ku=1, seed=8),
                   make_delay_fixture(2)):  # a 2-by-2 band is not tridiagonal
            calls.clear()
            tf.eval(1j)
            assert calls == ["zgbtrf", "zgbtrs"]

    def test_adjoint_scalar(self):
        tf = siso_one_pole()
        x = tf.solve_d_adjoint(1j, np.array([[1.0]]))
        assert x[0, 0] == pytest.approx(0.5 + 0.5j)

    def test_adjoint_equals_direct_for_hermitian(self):
        # D(s) = s*I + S with S symmetric real, evaluated at real s
        rng = np.random.default_rng(3)
        s_mat = rng.standard_normal((6, 6))
        s_mat = s_mat + s_mat.T
        d = MatrixFactor([(ScalarTerm(degree=1), np.eye(6)),
                          (ScalarTerm(), s_mat + 20 * np.eye(6))])
        b = MatrixFactor([(ScalarTerm(), rng.standard_normal((6, 2)))])
        c = MatrixFactor([(ScalarTerm(), rng.standard_normal((2, 6)))])
        tf = StructuredTF(c, d, b)
        rhs = rng.standard_normal((6, 2))
        np.testing.assert_allclose(tf.solve_d(3.0, rhs),
                                   tf.solve_d_adjoint(3.0, rhs), atol=1e-12)

    def test_adjoint_residual(self):
        rng = np.random.default_rng(21)
        a = rng.standard_normal((30, 30)) - 35 * np.eye(30)
        import linfnorm.problems as prob
        tf = prob.descriptor_tf(np.eye(30), a, rng.standard_normal((30, 2)),
                                rng.standard_normal((2, 30)))
        rhs = rng.standard_normal((30, 4)) + 1j * rng.standard_normal((30, 4))
        s = 0.3 + 2.1j
        x = tf.solve_d_adjoint(s, rhs)
        d = tf.d_factor.eval(s)
        assert np.linalg.norm(d.conj().T @ x - rhs) / np.linalg.norm(rhs) <= 1e-10

    def test_singular_shift_dense(self):
        import linfnorm.problems as prob
        # D(s) = s*I is exactly singular at s=0
        tf = prob.descriptor_tf(np.eye(2), np.zeros((2, 2)),
                                np.eye(2), np.eye(2))
        with pytest.raises(SingularShift):
            tf.solve_d(0.0, np.eye(2))

    def test_singular_shift_sparse(self, routes):
        d = MatrixFactor([(ScalarTerm(degree=1), sp.identity(300, format="csc"))])
        b = MatrixFactor([(ScalarTerm(), sp.identity(300, format="csc"))])
        tf = StructuredTF(b, d, b)
        with pytest.raises(SingularShift):
            tf.solve_d(0.0, np.ones((300, 1)))
        assert routes == ["_BandFactorization"]

    def test_one_factorization_per_shift(self, monkeypatch):
        shifts = []
        factorization = StructuredTF._factorization

        def counting(self, s):
            shifts.append(s)
            return factorization(self, s)

        monkeypatch.setattr(StructuredTF, "_factorization", counting)
        # dense and sparse D(s)
        for tf in (random_descriptor(12, 1, 2, seed=4)[0], make_delay_fixture(40)):
            shifts.clear()
            state = dict(vars(tf))
            expansion_block(tf, 1.5)
            assert shifts == [1.5j]
            tf.eval_with_derivative(2.5j)
            assert shifts == [1.5j, 2.5j]
            tf.solve_d(1.5j, np.ones((tf.n, tf.m)))
            tf.solve_d_adjoint(1.5j, np.ones((tf.n, tf.p)))
            assert vars(tf) == state
            for omega in (0.0, 0.7, 3.1):
                assert (sigma_max_derivative(tf, omega).sigma
                        == sigma_max(tf, omega))


def _mixed_pattern_factor(n, seed):
    """D(s) = s*E + A + exp(-s)*P + Q with diagonal E in DIA, tridiagonal A
    in CSC with unsorted indices, subdiagonal P in COO with one entry stored
    twice, and superdiagonal Q in CSR."""
    rng = np.random.default_rng(seed)
    e = sp.diags(rng.uniform(1.0, 2.0, n))
    a = sp.diags([rng.uniform(-1.0, 1.0, n - 1), rng.uniform(5.0, 6.0, n),
                  rng.uniform(-1.0, 1.0, n - 1)], [-1, 0, 1], format="csc")
    flip = np.concatenate([np.arange(a.indptr[j], a.indptr[j + 1])[::-1]
                           for j in range(n)])
    a = sp.csc_matrix((a.data[flip], a.indices[flip], a.indptr), shape=a.shape)
    assert not a.has_sorted_indices
    rows = np.r_[np.arange(1, n), 3]
    p = sp.coo_matrix((rng.uniform(-1.0, 1.0, n), (rows, rows - 1)),
                      shape=(n, n))
    q = sp.diags(rng.uniform(-1.0, 1.0, n - 1), 1, format="csr")
    return MatrixFactor([(ScalarTerm(degree=1), e), (ScalarTerm(), a),
                         (ScalarTerm(delay=1.0), p), (ScalarTerm(), q)])


def _dense_eval(factor, s):
    return sum(t.value(s) * m.toarray() for t, m in factor.terms)


class TestBandLayout:
    def test_mixed_patterns_match_dense_solve(self, routes):
        n = 30
        f = _mixed_pattern_factor(n, seed=14)
        before = [{k: getattr(m, k).copy() for k in
                   ("data", "indices", "indptr", "row", "col", "offsets")
                   if hasattr(m, k)} for _, m in f.terms]
        rng = np.random.default_rng(15)
        b = MatrixFactor([(ScalarTerm(), rng.standard_normal((n, 2)))])
        c = MatrixFactor([(ScalarTerm(), rng.standard_normal((2, n)))])
        tf = StructuredTF(c, f, b)
        rhs = rng.standard_normal((n, 2)) + 1j * rng.standard_normal((n, 2))
        for s in (0.0, 2j, 0.5 + 3j):
            d = _dense_eval(f, s)
            for adjoint, ref in ((False, np.linalg.solve(d, rhs)),
                                 (True, np.linalg.solve(d.conj().T, rhs))):
                x = (tf.solve_d_adjoint if adjoint else tf.solve_d)(s, rhs)
                assert np.linalg.norm(x - ref) <= 1e-10 * np.linalg.norm(ref)
        assert routes == ["_TridiagonalFactorization"] * 6
        for (_, m), arrays in zip(f.terms, before):
            for k, v in arrays.items():
                np.testing.assert_array_equal(getattr(m, k), v)

    def test_computed_once_and_shared(self, monkeypatch):
        computed = []
        layout_of = structured._band_layout

        def counting(*args):
            computed.append(args)
            return layout_of(*args)

        monkeypatch.setattr(structured, "_band_layout", counting)
        tf = make_delay_fixture(50)
        layout = tf.d_factor.band_layout
        for s in (0.0, 1j, 2j):
            tf.eval(s)
        assert tf.d_factor.band_layout is layout
        assert len(computed) == 1
        # the delay family's three terms share one pattern
        assert len(layout.positions) == 3
        assert len({id(p) for p in layout.positions}) == 1
        assert layout.positions[0].dtype == np.int32

    def test_route_independent_of_shift(self, routes):
        # A has no diagonal, so at s = 0, where the degree-1 term vanishes,
        # D(0) = -A alone is too sparse for its band; n is even, so D(0) is
        # nonsingular and needs row swaps
        n = 40
        rng = np.random.default_rng(16)
        a = sp.diags([rng.uniform(0.5, 1.5, n - 1),
                      rng.uniform(0.5, 1.5, n - 1)], [-1, 1], format="csc")
        tf = _sparse_pencil(a, rng)
        rhs = rng.standard_normal((n, 2))
        for s in (0.0, 1j):
            d = tf.d_factor.eval(s).toarray()
            ref = np.linalg.solve(d, rhs)
            x = tf.solve_d(s, rhs)
            assert np.linalg.norm(x - ref) <= 1e-10 * np.linalg.norm(ref)
        assert routes == ["_TridiagonalFactorization"] * 2

    def test_delay_band_matches_csc_scatter(self):
        # the band is the assembled CSC D(s) scattered into band storage,
        # to the last bit: the terms are added in the same order (the last
        # two shifts round differently in any other order)
        n = 200
        f = make_delay_fixture(n).d_factor
        for s in (0.0, 1j, 3.07547j, -2.5j, 0.3 + 7j, 1 / 3, 0.71 + 2.9j):
            d = f.eval(s)
            cols = np.repeat(np.arange(n), np.diff(d.indptr))
            ab = np.zeros((3, n), dtype=np.complex128)
            ab[1 + d.indices - cols, cols] = d.data
            np.testing.assert_array_equal(f.eval_band(s), ab)


class TestEvalH:
    def test_scalar(self, one_pole):
        assert one_pole.eval(2.0)[0, 0] == pytest.approx(1 / 3)

    def test_partial_fractions(self, two_pole):
        assert two_pole.eval(0.0)[0, 0] == pytest.approx(1.5)

    def test_delay_example_peak_value(self):
        # published optimum of the n=100 delay benchmark
        tf = make_delay_fixture(100)
        sigma = np.linalg.svd(tf.eval(3.07547j), compute_uv=False)[0]
        assert sigma == pytest.approx(0.23766, rel=1e-4)

    def test_derivative_scalar(self, one_pole):
        assert one_pole.eval_with_derivative(2.0)[1][0, 0] == pytest.approx(-1 / 9)

    def test_derivative_resolvent_square(self, one_pole):
        # H'(s) = -C (sI-A)^{-2} B = -1/(s+1)^2 at s=0
        assert one_pole.eval_with_derivative(0.0)[1][0, 0] == pytest.approx(-1.0)

    def test_derivative_finite_difference(self):
        rng = np.random.default_rng(5)
        a = rng.standard_normal((20, 20)) - 25 * np.eye(20)
        import linfnorm.problems as prob
        tf = prob.descriptor_tf(np.eye(20), a, rng.standard_normal((20, 2)),
                                rng.standard_normal((3, 20)))
        s = 0.4 + 1.3j
        h = 1e-5
        fd = (tf.eval(s + h) - tf.eval(s - h)) / (2 * h)
        d = tf.eval_with_derivative(s)[1]
        assert np.linalg.norm(d - fd) <= 1e-6 * np.linalg.norm(d)

    def test_derivative_finite_difference_delay(self):
        tf = make_delay_fixture(30)
        s = 2.2j
        h = 1e-5
        fd = (tf.eval(s + h) - tf.eval(s - h)) / (2 * h)
        d = tf.eval_with_derivative(s)[1]
        assert np.linalg.norm(d - fd) <= 1e-6 * np.linalg.norm(d)

    def test_conjugate_symmetry(self):
        tf = make_delay_fixture(40)
        assert tf.is_real
        for w in (0.3, 1.7, 6.2):
            h = tf.eval(1j * w)
            h_conj = tf.eval(-1j * w)
            assert np.linalg.norm(h_conj - h.conj()) <= 1e-12 * np.linalg.norm(h)

    def test_matches_dense_explicit_inverse(self):
        rng = np.random.default_rng(17)
        for n in (10, 50):
            a = rng.standard_normal((n, n)) - (n + 5) * np.eye(n)
            import linfnorm.problems as prob
            tf = prob.descriptor_tf(np.eye(n), a, rng.standard_normal((n, 2)),
                                    rng.standard_normal((2, n)))
            for s in (1j, 0.5 + 2j):
                d = tf.d_factor.eval(s)
                explicit = (tf.c_factor.eval(s)
                            @ np.linalg.inv(d) @ tf.b_factor.eval(s))
                got = tf.eval(s)
                assert (np.linalg.norm(got - explicit)
                        <= 1e-10 * np.linalg.norm(explicit))

    def test_dimension_checks(self):
        d = MatrixFactor([(ScalarTerm(degree=1), np.eye(3))])
        b = MatrixFactor([(ScalarTerm(), np.ones((4, 1)))])
        c = MatrixFactor([(ScalarTerm(), np.ones((1, 3)))])
        with pytest.raises(DimensionMismatch):
            StructuredTF(c, d, b)
