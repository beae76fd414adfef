"""Tests for the structured-function data model and its shifted solves."""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

import linfnorm.structured as structured
from linfnorm.errors import DimensionMismatch, SingularShift
from linfnorm.greedy import expansion_block
from linfnorm.problems import (delay_coupling_matrix, descriptor_tf,
                               make_delay_fixture)
from linfnorm.reduced import sigma_and_slope, sigma_max
from linfnorm.structured import MatrixFactor, ScalarTerm, StructuredTF

from conftest import (csc_terms, non_numbers, peak_bytes, random_descriptor,
                      siso_one_pole)


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

    @pytest.mark.parametrize("delay", [np.inf, np.nan])
    def test_rejects_nonfinite_delay(self, delay):
        with pytest.raises(ValueError, match="finite"):
            ScalarTerm(delay=delay)

    @pytest.mark.parametrize("degree", [np.inf, -np.inf, np.nan])
    def test_rejects_nonfinite_degree(self, degree):
        # a ValueError, not the OverflowError of int(inf)
        with pytest.raises(ValueError, match="nonnegative integer"):
            ScalarTerm(degree=degree)

    @pytest.mark.parametrize("kwargs", [
        {"degree": True}, {"degree": False}, {"degree": np.True_},
        {"delay": True}, {"delay": False}, {"delay": np.False_},
        *[{"degree": v} for v in non_numbers(1)],
        *[{"delay": v} for v in non_numbers(1.0)]])
    def test_rejects_bool(self, kwargs):
        # as RunConfig does: True is not degree 1, nor False delay 0.0; nor
        # is a value that is not a number a setting
        with pytest.raises(ValueError, match=f"{next(iter(kwargs))} must be"):
            ScalarTerm(**kwargs)

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

    @pytest.mark.parametrize("derivative", [False, True])
    def test_stack_equals_eval_at_each_shift(self, derivative):
        # a dense delay-term factor with complex coefficients, as a reduced
        # delay model has, on the imaginary axis where it is evaluated
        rng = np.random.default_rng(24)
        terms = [(ScalarTerm(degree=1), np.eye(4)),
                 (ScalarTerm(), rng.standard_normal((4, 4))),
                 (ScalarTerm(delay=1.0), rng.standard_normal((4, 4))
                  + 1j * rng.standard_normal((4, 4)))]
        f = MatrixFactor(terms)
        shifts = [1j * w for w in np.linspace(-50.0, 50.0, 41)]
        one = f.eval_derivative if derivative else f.eval
        np.testing.assert_array_equal(f.stack(shifts, derivative=derivative),
                                      [one(s) for s in shifts])

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
    return _random_io(MatrixFactor([
        (ScalarTerm(degree=1), sp.identity(n, format="csc")),
        (ScalarTerm(), -a)]), rng)


def _random_io(d, rng):
    """H(s) = C D(s)^{-1} B with random two-column B and two-row C."""
    n = d.nrows
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
                 "_TridiagonalFactorization"):
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
        assert routes == ["_SparseFactorization"] * 3  # not tridiagonal

    def test_superlu_route_matches_dense_solve(self, routes):
        # a band with kl = 2, and a factor where one term of four reaches
        # two below the diagonal, are not tridiagonal: SuperLU takes both
        rng = np.random.default_rng(12)
        mixed = _mixed_pattern_factor(30, seed=14, reach=2)
        for tf in (_banded_sparse(60, kl=2, ku=1, seed=8),
                   _random_io(mixed, np.random.default_rng(15))):
            n = tf.n
            rhs = rng.standard_normal((n, 3)) + 1j * rng.standard_normal((n, 3))
            for s in (0.0, 2j, 0.5 + 3j):
                d = tf.d_factor.eval(s).toarray()
                for adjoint, ref in ((False, np.linalg.solve(d, rhs)),
                                     (True, np.linalg.solve(d.conj().T, rhs))):
                    x = tf._factorization(s).solve(rhs, adjoint=adjoint)
                    assert np.linalg.norm(x - ref) <= 1e-10 * np.linalg.norm(ref)
        assert routes == ["_SparseFactorization"] * 12

    def test_tridiagonal_route_matches_dense_solve(self, routes):
        # dl != du and a row swap, so swapped off-diagonals or a transpose
        # in place of the adjoint give wrong solves; n = 2 and a diagonal
        # pattern are the edges of the route
        rng = np.random.default_rng(13)
        for tf, swaps in ((_tridiagonal_sparse(40, seed=9), True),
                          (_tridiagonal_sparse(3, seed=9), True),
                          (_tridiagonal_sparse(2, seed=9), True),
                          (_banded_sparse(40, kl=0, ku=0, seed=9), False)):
            n = tf.n
            rhs = rng.standard_normal((n, 3)) + 1j * rng.standard_normal((n, 3))
            for s in (0.0, 2j, 0.5 + 3j):
                d = tf.d_factor.eval(s).toarray()
                assert (abs(d[1, 0]) > abs(d[0, 0])) == swaps
                for adjoint, ref in ((False, np.linalg.solve(d, rhs)),
                                     (True, np.linalg.solve(d.conj().T, rhs))):
                    x = tf._factorization(s).solve(rhs, adjoint=adjoint)
                    assert np.linalg.norm(x - ref) <= 1e-10 * np.linalg.norm(ref)
        assert routes == ["_TridiagonalFactorization"] * 24

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

    def test_lapack_kernel_only_for_tridiagonal(self, monkeypatch):
        # one zgtsv per solve, and no separate factorization
        calls = []
        lapack = structured.sla.lapack
        for name in ("zgtsv", "zgttrf", "zgttrs"):
            def spy(*args, _f=getattr(lapack, name), _name=name, **kwargs):
                calls.append(_name)
                return _f(*args, **kwargs)
            monkeypatch.setattr(lapack, name, spy)
        for tf in (make_delay_fixture(3000), make_delay_fixture(2)):
            calls.clear()
            tf.eval(1j)
            assert calls == ["zgtsv"]
        calls.clear()
        _tridiagonal_sparse(40, seed=9).eval_with_derivative(1j)
        assert calls == ["zgtsv"] * 2
        # scipy's zgtsv rejects n = 1, so a 1-by-1 sparse D takes SuperLU
        for tf in (_banded_sparse(60, kl=2, ku=1, seed=8),
                   _banded_sparse(1, kl=0, ku=0, seed=8)):
            calls.clear()
            tf.eval(1j)
            assert calls == []

    @pytest.mark.parametrize("make, route", [
        (lambda: random_descriptor(12, 1, 1, seed=4)[0], "_DenseFactorization"),
        (lambda: _banded_sparse(60, kl=2, ku=1, seed=8),
         "_SparseFactorization"),
        (lambda: make_delay_fixture(300), "_TridiagonalFactorization"),
    ], ids=["dense", "superlu", "tridiagonal"])
    def test_solve_d_leaves_its_argument(self, make, route, routes):
        # B(s) of the dense and delay systems is one complex column,
        # contiguous in both orders, which LAPACK would overwrite if handed
        # it; B given as its factor is solved in place, to the same bits
        tf = make()
        rhs = structured._as_dense(tf.b_factor.eval(0.5j))
        kept = rhs.copy()
        x = tf.solve_d(0.5j, rhs)
        np.testing.assert_array_equal(rhs, kept)
        assert not np.shares_memory(x, rhs)
        np.testing.assert_array_equal(tf.solve_d(0.5j, tf.b_factor), x)
        assert routes == [route] * 2

    def test_adjoint_scalar(self):
        tf = siso_one_pole()
        x = tf._factorization(1j).solve(np.array([[1.0]]), adjoint=True)
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
        fact = tf._factorization(3.0)
        np.testing.assert_allclose(tf.solve_d(3.0, rhs),
                                   fact.solve(rhs, adjoint=True), atol=1e-12)

    def test_adjoint_residual(self):
        rng = np.random.default_rng(21)
        a = rng.standard_normal((30, 30)) - 35 * np.eye(30)
        import linfnorm.problems as prob
        tf = prob.descriptor_tf(np.eye(30), a, rng.standard_normal((30, 2)),
                                rng.standard_normal((2, 30)))
        rhs = rng.standard_normal((30, 4)) + 1j * rng.standard_normal((30, 4))
        s = 0.3 + 2.1j
        x = tf._factorization(s).solve(rhs, adjoint=True)
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
        assert routes == ["_TridiagonalFactorization"]

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
            tf._factorization(1.5j).solve(np.ones((tf.n, tf.p)),
                                          adjoint=True)
            assert vars(tf) == state
            for omega in (0.0, 0.7, 3.1):
                sigma, _ = sigma_and_slope(tf, [omega], slope=True)
                assert sigma[0] == sigma_max(tf, omega)


class TestNearSingularShifts:
    """Each singularity check rejects a numerically singular D(s) with the
    estimate that failed, on every factorization route."""

    @staticmethod
    def _tf(d):
        n = d.shape[0]
        return StructuredTF(MatrixFactor([(ScalarTerm(), np.ones((1, n)))]),
                            MatrixFactor([(ScalarTerm(), d)]),
                            MatrixFactor([(ScalarTerm(), np.ones((n, 1)))]))

    def test_dense_rcond_estimate(self, routes):
        # zgetrf succeeds with pivots 1 and 1e-17; zgecon rejects it
        tf = descriptor_tf(np.eye(2), -np.diag([1.0, 1e-17]),
                           np.ones((2, 1)), np.ones((1, 2)))
        with pytest.raises(SingularShift) as err:
            tf.eval(0.0)
        assert err.value.rcond == pytest.approx(1e-17)
        assert routes == ["_DenseFactorization"]

    def test_tridiagonal_pivot_ratio(self, routes):
        with pytest.raises(SingularShift) as err:
            self._tf(sp.diags([1.0, 1e-16, 1.0], format="csc")).eval(1j)
        assert err.value.rcond == pytest.approx(1e-16)
        assert routes == ["_TridiagonalFactorization"]

    def test_superlu_exactly_singular(self, routes):
        # the (0, 3) entry keeps D off the tridiagonal route; row 2 is zero
        d = sp.csc_matrix(np.array([[1.0, 0.0, 0.0, 1.0],
                                    [0.0, 1.0, 0.0, 0.0],
                                    [0.0, 0.0, 0.0, 0.0],
                                    [0.0, 0.0, 0.0, 1.0]]))
        with pytest.raises(SingularShift) as err:
            self._tf(d).eval(1j)
        assert err.value.rcond == 0.0
        assert routes == ["_SparseFactorization"]


def _bits(a):
    """The bytes of a complex array, so that equality also compares signed
    zeros and NaN payloads."""
    return np.ascontiguousarray(a).view(np.uint64)


def _separate_lu_solve(ab, rhs):
    """(x, pivot ratio, whether rows were swapped) from LAPACK's separate
    tridiagonal LU (zgttrf) and substitution (zgttrs) on copies of the
    (3, n) storage ab and of rhs."""
    lapack = structured.sla.lapack
    *lu, info = lapack.zgttrf(ab[2, :-1], ab[1], ab[0, 1:])
    assert info == 0
    x, info = lapack.zgttrs(*lu, rhs)
    assert info == 0
    ipiv = lu[-1]
    return x, structured._pivot_rcond(lu[1], None), bool(
        np.any(ipiv != np.arange(1, len(ipiv) + 1)))


def _conj_transposed(ab):
    """The (3, n) storage of D^* from that of D."""
    out = np.zeros_like(ab)
    out[0, 1:], out[1], out[2, :-1] = ab[2, :-1], ab[1], ab[0, 1:]
    return out.conj()


class TestFusedTridiagonalSolve:
    """Each tridiagonal solve is one zgtsv: the elimination of zgttrf with
    the substitution of zgttrs fused into it, to the same bits."""

    @staticmethod
    def _check_against_separate_lu(ab, rhs, s):
        for adjoint, ref_ab in ((True, _conj_transposed(ab)), (False, ab)):
            x_ref, rcond_ref, swaps = _separate_lu_solve(ref_ab, rhs)
            fact = structured._TridiagonalFactorization(ab.copy(), s)
            x = fact.solve(np.array(rhs, order="F"), adjoint=adjoint)
            np.testing.assert_array_equal(_bits(x), _bits(x_ref))
            assert fact.rcond == rcond_ref
        return swaps

    def test_random_matches_separate_lu_bit_for_bit(self):
        # with and without row swaps: a diagonal that outweighs both
        # off-diagonals keeps every row in place
        rng = np.random.default_rng(60)
        swapped = []
        for k in range(24):
            n = int(rng.integers(3, 3001)) if k > 1 else 3 + 2997 * k
            ab = (rng.standard_normal((3, n))
                  + 1j * rng.standard_normal((3, n)))
            dominant = k % 2 == 1
            if dominant:
                ab[1] = 10.0 + rng.uniform(-1.0, 1.0, n)
                ab[[0, 2]] = (rng.uniform(-1.0, 1.0, (2, n))
                              + 1j * rng.uniform(-1.0, 1.0, (2, n)))
            ab[0, 0] = ab[2, -1] = 0.0
            rhs = (rng.standard_normal((n, 1 + k % 3))
                   + 1j * rng.standard_normal((n, 1 + k % 3)))
            swaps = self._check_against_separate_lu(ab, rhs, 1j)
            assert swaps != dominant
            swapped.append(swaps)
        assert sum(swapped) == 12

    @pytest.mark.parametrize("omega", [3.0754, 9.18],
                             ids=["peak", "subnormal-stall"])
    def test_delay_matches_separate_lu_bit_for_bit(self, omega):
        # at 9.18 the solve runs through subnormal intermediates, which
        # made it about 7 times slower than at 3.0754 at this order
        tf = make_delay_fixture(20000)
        s = 1j * omega
        rhs = structured._as_dense(tf.b_factor.eval(s)).astype(np.complex128)
        self._check_against_separate_lu(tf.d_factor.eval_tridiagonal(s),
                                        rhs, s)

    def test_two_solve_resolvents_match_dense(self, routes):
        # dl != du and a row swap: the adjoint solve eliminates on the
        # conjugate transpose, and the direct solve comes after it
        tf = _tridiagonal_sparse(40, seed=9)
        b, c = tf.b_factor.terms[0][1], tf.c_factor.terms[0][1]
        for s in (0.0, 2j, 0.5 + 3j):
            d = tf.d_factor.eval(s).toarray()
            assert abs(d[1, 0]) > abs(d[0, 0])
            x_ref = np.linalg.solve(d, b)
            y_ref = np.linalg.solve(d.conj().T, c.conj().T)
            cs, x, y = tf._resolvents(s)
            np.testing.assert_array_equal(cs, c)
            for got, ref in ((x, x_ref), (y, y_ref)):
                assert np.linalg.norm(got - ref) <= 1e-10 * np.linalg.norm(ref)
            # D'(s) = I, so H' = -C D^{-1} D^{-1} B
            h, hprime = tf.eval_with_derivative(s)
            for got, ref in ((h, c @ x_ref),
                             (hprime, -c @ np.linalg.solve(d, x_ref))):
                assert np.linalg.norm(got - ref) <= 1e-10 * np.linalg.norm(ref)
        assert routes == ["_TridiagonalFactorization"] * 6

    @pytest.mark.parametrize("adjoint", [False, True])
    def test_no_solve_after_the_direct_solve(self, adjoint):
        fact = _tridiagonal_sparse(40, seed=9)._factorization(1j)
        rhs = np.ones((40, 1), dtype=np.complex128)
        fact.solve(rhs.copy(), adjoint=True)
        fact.solve(rhs.copy())
        with pytest.raises(RuntimeError,
                           match="adjoint solve before the one direct solve"):
            fact.solve(rhs.copy(), adjoint=adjoint)

    @pytest.mark.parametrize("step", [
        lambda tf: expansion_block(tf, 3.0754),
        lambda tf: sigma_max(tf, 3.0754),
    ], ids=["expansion_block", "sigma_max"])
    def test_one_shift_memory(self, step):
        # one shift holds the complex bands (48 bytes per order), X (16)
        # and the pivot check's moduli (8): 72 in all, where zgttrf's
        # second superdiagonal and pivots made it about 86
        n = 80000
        tf = make_delay_fixture(n)
        assert tf.d_factor.bands is not None
        _, peak = peak_bytes(lambda: step(tf))
        assert peak <= 76 * n


def _mixed_pattern_factor(n, seed, reach=1):
    """D(s) = s*E + A + exp(-s)*P + Q with diagonal E in DIA, tridiagonal A
    in CSC with unsorted indices, subdiagonal P in COO with one entry stored
    twice, and superdiagonal Q in CSR.  With reach=2 that second entry of P
    moves to row 3, column 1, two below the diagonal."""
    rng = np.random.default_rng(seed)
    e = sp.diags(rng.uniform(1.0, 2.0, n))
    a = sp.diags([rng.uniform(-1.0, 1.0, n - 1), rng.uniform(5.0, 6.0, n),
                  rng.uniform(-1.0, 1.0, n - 1)], [-1, 0, 1], format="csc")
    flip = np.concatenate([np.arange(a.indptr[j], a.indptr[j + 1])[::-1]
                           for j in range(n)])
    a = sp.csc_matrix((a.data[flip], a.indices[flip], a.indptr), shape=a.shape)
    assert not a.has_sorted_indices
    rows = np.r_[np.arange(1, n), 3]
    cols = np.r_[np.arange(n - 1), 3 - reach]
    p = sp.coo_matrix((rng.uniform(-1.0, 1.0, n), (rows, cols)),
                      shape=(n, n))
    q = sp.diags(rng.uniform(-1.0, 1.0, n - 1), 1, format="csr")
    return MatrixFactor([(ScalarTerm(degree=1), e), (ScalarTerm(), a),
                         (ScalarTerm(delay=1.0), p), (ScalarTerm(), q)])


@pytest.fixture
def built_bands(monkeypatch):
    """What each call of structured._tridiagonal_bands returned, in order."""
    built = []
    bands_of = structured._tridiagonal_bands

    def counting(*args):
        built.append(bands_of(*args))
        return built[-1]

    monkeypatch.setattr(structured, "_tridiagonal_bands", counting)
    return built


def _dense_eval(factor, s):
    return sum(t.value(s) * m.toarray() for t, m in factor.terms)


class TestTridiagonalPositions:
    def test_mixed_patterns_match_dense_solve(self, routes):
        n = 30
        f = _mixed_pattern_factor(n, seed=14)
        before = [{k: getattr(m, k).copy() for k in
                   ("data", "indices", "indptr", "row", "col", "offsets")
                   if hasattr(m, k)} for _, m in f.terms]
        rng = np.random.default_rng(15)
        tf = _random_io(f, rng)
        rhs = rng.standard_normal((n, 2)) + 1j * rng.standard_normal((n, 2))
        for s in (0.0, 2j, 0.5 + 3j):
            d = _dense_eval(f, s)
            for adjoint, ref in ((False, np.linalg.solve(d, rhs)),
                                 (True, np.linalg.solve(d.conj().T, rhs))):
                x = tf._factorization(s).solve(rhs, adjoint=adjoint)
                assert np.linalg.norm(x - ref) <= 1e-10 * np.linalg.norm(ref)
        assert routes == ["_TridiagonalFactorization"] * 6
        for (_, m), arrays in zip(f.terms, before):
            for k, v in arrays.items():
                np.testing.assert_array_equal(getattr(m, k), v)

    def test_route_independent_of_shift(self, routes):
        # A has no diagonal, so at s = 0, where the degree-1 term vanishes,
        # D(0) = -A has an empty main diagonal; the route follows the terms'
        # patterns, not D(s).  n is even, so D(0) is nonsingular and needs
        # row swaps
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

    def test_delay_tridiagonal_matches_csc_scatter(self):
        # the storage is the assembled CSC D(s) scattered into three rows,
        # to the last bit: the terms are added in the same order (the last
        # two shifts round differently in any other order)
        n = 200
        f = make_delay_fixture(n).d_factor
        for s in (0.0, 1j, 3.07547j, -2.5j, 0.3 + 7j, 1 / 3, 0.71 + 2.9j):
            d = f.eval(s)
            cols = np.repeat(np.arange(n), np.diff(d.indptr))
            ab = np.zeros((3, n), dtype=np.complex128)
            ab[1 + d.indices - cols, cols] = d.data
            np.testing.assert_array_equal(f.eval_tridiagonal(s), ab)

    def test_delay_tridiagonal_blocks_match_csc_scatter(self):
        # the real bands are summed in blocks; 3n spans several blocks and
        # ends in a partial one
        n = 20001
        assert 3 * n > 3 * structured._BAND_BLOCK
        assert 3 * n % structured._BAND_BLOCK
        f = make_delay_fixture(n).d_factor
        for s in (0.0, 3.07547j, 0.3 + 7j, 0.71 + 2.9j):
            d = f.eval(s)
            cols = np.repeat(np.arange(n), np.diff(d.indptr))
            ab = np.zeros((3, n), dtype=np.complex128)
            ab[1 + d.indices - cols, cols] = d.data
            np.testing.assert_array_equal(f.eval_tridiagonal(s), ab)


    def test_complex_bands_match_csc_scatter(self):
        # complex coefficients, on terms on different diagonals with one
        # real among them; at n = 20001 the bands span several blocks and
        # end in a partial one
        def draw(k):
            return rng.standard_normal(k) + 1j * rng.standard_normal(k)

        for n in (120, 20001):
            rng = np.random.default_rng(17)
            off = [draw(n - 1), draw(n), draw(n - 1)]
            f = MatrixFactor([
                (ScalarTerm(degree=1), sp.diags(off, [-1, 0, 1], format="csc")),
                (ScalarTerm(), sp.diags(rng.uniform(-1.0, 1.0, n), 0,
                                        format="csc")),
                (ScalarTerm(delay=0.5), sp.diags(draw(n - 1), 1,
                                                 format="csc")),
            ])
            assert np.iscomplexobj(f.bands)
            for s in (0.0, 1j, 2.71j, 0.3 + 7j, 1 / 3):
                d = f.eval(s)
                cols = np.repeat(np.arange(n), np.diff(d.indptr))
                ab = np.zeros((3, n), dtype=np.complex128)
                ab[1 + d.indices - cols, cols] = d.data
                np.testing.assert_array_equal(f.eval_tridiagonal(s), ab)

    def test_mixed_bands_match_coo_scatter(self):
        # each term's stored values, duplicates included, added in the
        # order a conversion to COO gives them
        f = _mixed_pattern_factor(30, seed=14)
        ref = np.zeros((4, 90))
        for band, (_, m) in zip(ref, f.terms):
            coo = m.tocoo()
            np.add.at(band, (1 + coo.row.astype(np.int64) - coo.col) * 30
                      + coo.col, coo.data)
        np.testing.assert_array_equal(f.bands, ref)

    @pytest.mark.parametrize("factor", [
        lambda n: make_delay_fixture(n).d_factor,
        lambda n: MatrixFactor(csc_terms(make_delay_fixture(n).d_factor)),
        lambda n: _mixed_pattern_factor(n, seed=14),
    ], ids=["delay", "delay-csc", "mixed-formats"])
    def test_band_build_memory(self, factor):
        # one term's positions at a time: about 43 and 51 bytes per order
        # above the scattered bands for the delay terms in CSC and the
        # mixed formats, where a COO copy of every term at once took about
        # 196 and 120; the delay fixture's DIA terms are their own bands
        n = 20000
        f = factor(n)
        bands, peak = peak_bytes(
            lambda: structured._tridiagonal_bands(f.terms, n))
        assert bands is not None
        made = [b for b in bands
                if not any(np.shares_memory(b, m.data) for _, m in f.terms)]
        assert peak - sum(b.nbytes for b in made) <= 70 * n

    def test_bands_built_once_on_first_factorization(self, built_bands):
        tf = make_delay_fixture(50)
        assert built_bands == []
        for s in (0.0, 1j, 2j):
            tf.eval(s)
        assert len(built_bands) == 1
        bands = tf.d_factor.bands
        assert bands is built_bands[0]
        assert len(bands) == 3
        for band, (_, m) in zip(bands, tf.d_factor.terms):
            assert band.shape == (150,)
            assert band.dtype == np.float64
            assert np.shares_memory(band, m.data)  # the term's own data

    def test_non_tridiagonal_last_term_keeps_no_bands(self, routes,
                                                      built_bands):
        # only the last term reaches two off the diagonal, so the first
        # three pass the pattern check; the builder runs once, and the
        # factor keeps None, not a band array
        e, a, p, q = _mixed_pattern_factor(30, seed=14, reach=2).terms
        f = MatrixFactor([e, a, q, p])
        tf = _random_io(f, np.random.default_rng(15))
        for s in (0.0, 2j, 0.5 + 3j):
            tf.eval(s)
        assert routes == ["_SparseFactorization"] * 3
        assert built_bands == [None]
        assert f.bands is None


@pytest.fixture
def adjoint_flags(monkeypatch):
    """The adjoint flag of every solve on a factorization, in call order."""
    flags = []
    for name in ("_DenseFactorization", "_SparseFactorization",
                 "_TridiagonalFactorization"):
        cls = getattr(structured, name)

        def solve(self, rhs, adjoint=False, _solve=cls.solve):
            flags.append(adjoint)
            return _solve(self, rhs, adjoint)

        monkeypatch.setattr(cls, "solve", solve)
    return flags


def _with_terms(tf, c_terms=None, d_terms=None):
    """tf with its C or D factor's terms replaced."""
    return StructuredTF(
        MatrixFactor(c_terms or tf.c_factor.terms),
        MatrixFactor(d_terms or tf.d_factor.terms), tf.b_factor)


def _asymmetric_entry(tf):
    """tf with the (3, 4) entry of its D factor's second coefficient
    changed, so that that coefficient differs from its transpose there."""
    terms = list(tf.d_factor.terms)
    term, m = terms[1]
    m = m.tolil()
    m[3, 4] *= 1.5
    terms[1] = (term, m.tocsc())
    return _with_terms(tf, d_terms=terms)


def _complex_symmetric_dense(n, seed):
    """D(s) = s*I - A with A complex symmetric, not Hermitian; C = B^T."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    b = rng.standard_normal((n, 2))
    return descriptor_tf(np.eye(n), x + x.T - 3 * n * np.eye(n), b, b.T)


def _symmetric_pentadiagonal(n, seed):
    """D(s) = s*I - A with A real symmetric and pentadiagonal, which takes
    the SuperLU route; C = B^T."""
    rng = np.random.default_rng(seed)
    off1, off2 = rng.uniform(-1.0, 1.0, n - 1), rng.uniform(-1.0, 1.0, n - 2)
    a = sp.diags([off2, off1, rng.uniform(-1.0, 1.0, n) - 6.0, off1, off2],
                 [-2, -1, 0, 1, 2], format="csc")
    b = rng.standard_normal((n, 2))
    return descriptor_tf(sp.identity(n, format="csc"), a, b, b.T)


class TestComplexSymmetric:
    """A function with C(s) = B(s)^T and every D_j equal to its transpose
    takes one solve per shift in _resolvents: the adjoint resolvent is
    conj(D(s)^{-1} B(s))."""

    @staticmethod
    def _reference(tf, s):
        """D(s)^{-*} C(s)^* by the adjoint solve."""
        cs = structured._as_dense(tf.c_factor.eval(s))
        return tf._factorization(s).solve(cs.conj().T, adjoint=True)

    def test_delay_adjoint_resolvent_is_conj(self, adjoint_flags):
        tf = make_delay_fixture(5000)
        for s in (1.5j, 0.3 + 7j, 15.3849j):
            adjoint_flags.clear()
            cs, x, y = tf._resolvents(s)
            assert adjoint_flags == [False]
            np.testing.assert_array_equal(
                structured._as_dense(cs),
                structured._as_dense(tf.c_factor.eval(s)))
            np.testing.assert_array_equal(x, tf.solve_d(s, tf.b_factor.eval(s)))
            ref = self._reference(tf, s)
            assert np.linalg.norm(y - ref) <= 1e-14 * np.linalg.norm(ref)

    @pytest.mark.parametrize("qualifying, route", [
        (lambda: _complex_symmetric_dense(12, seed=50), "_DenseFactorization"),
        (lambda: _symmetric_pentadiagonal(40, seed=51),
         "_SparseFactorization"),
    ], ids=["dense", "superlu"])
    def test_other_routes_qualify(self, qualifying, route, adjoint_flags,
                                  routes):
        tf = qualifying()
        for s in (0.7j, 0.4 + 2j):
            adjoint_flags.clear()
            cs, x, y = tf._resolvents(s)
            assert adjoint_flags == [False]
            ref = self._reference(tf, s)
            assert np.linalg.norm(y - ref) <= 1e-14 * np.linalg.norm(ref)
        assert routes == [route] * 4

    def test_verbatim_blocks_make_no_c(self, monkeypatch):
        # the blocks of a function with m == p are D^{-1} B and its
        # conjugate as they are, so C(s) is not made; the blocks are bit for
        # bit those of the resolvents that make it.  H and H' at the same
        # shift still make C(s), once
        tf = make_delay_fixture(5000)
        _, x, y = tf._resolvents(1.5j)
        made = []

        def spy(factor, s, _eval=MatrixFactor.eval):
            made.append(factor)
            return _eval(factor, s)

        monkeypatch.setattr(MatrixFactor, "eval", spy)
        vb, wb = expansion_block(tf, 1.5)
        assert [f is tf.c_factor for f in made] == [False]
        assert vb.tobytes() == x.tobytes() and wb.tobytes() == y.tobytes()
        made.clear()
        tf.eval_with_derivative(1.5j)
        assert [f is tf.c_factor for f in made] == [False, True]

    @pytest.mark.parametrize("broken", [
        _asymmetric_entry,
        lambda tf: _with_terms(tf, c_terms=[
            (t, 2 * m) for t, m in tf.c_factor.terms]),
        lambda tf: _with_terms(tf, c_terms=[
            (ScalarTerm(delay=0.5), m) for _, m in tf.c_factor.terms]),
        lambda tf: random_descriptor(8, 1, 1, seed=52)[0],
    ], ids=["asymmetric-entry", "c-is-2bt", "other-scalar-term",
            "random-descriptor"])
    def test_others_keep_the_adjoint_solve(self, broken, adjoint_flags):
        tf = broken(make_delay_fixture(50))
        cs, x, y = tf._resolvents(1.5j)
        assert adjoint_flags == [True, False]  # a direct solve comes last
        np.testing.assert_array_equal(y, self._reference(tf, 1.5j))

    @pytest.mark.parametrize("tf, symmetric", [
        (make_delay_fixture(50), True),
        (_asymmetric_entry(make_delay_fixture(50)), False),
        (_complex_symmetric_dense(12, seed=50), True),
        (random_descriptor(12, 1, 1, seed=53)[0], False),
        (_symmetric_pentadiagonal(40, seed=51), True),
        (_asymmetric_entry(_symmetric_pentadiagonal(40, seed=51)), False),
    ], ids=["delay", "delay-asymmetric", "dense", "dense-asymmetric",
            "superlu", "superlu-asymmetric"])
    def test_symmetric_flag(self, tf, symmetric):
        # from the bands on the delay factors, by transposes otherwise
        assert (tf.d_factor.bands is not None) == (tf.n == 50)
        assert tf.d_factor.symmetric is symmetric


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
