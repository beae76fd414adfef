"""Tests for projection, reduced evaluation, and singular-value helpers."""

import dataclasses
import warnings

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp

import linfnorm.reduced as reduced
from linfnorm.errors import DimensionMismatch, SingularShift
from linfnorm.greedy import SubspaceState, expand, expansion_block
from linfnorm.problems import descriptor_tf, make_delay_fixture
from linfnorm.reduced import (DOMINANT_MAX_N, dominant_frequencies, project,
                              rational_realization, sigma_and_slope,
                              sigma_max)
from linfnorm.structured import MatrixFactor, ScalarTerm, StructuredTF

from conftest import (padded, pointwise_sigma_and_slope, random_descriptor,
                      siso_one_pole)


class TestProject:
    def test_identity_projection_reproduces_h(self):
        tf, _ = random_descriptor(12, 2, 3, seed=0)
        rm = project(tf, np.eye(12), np.eye(12))
        rng = np.random.default_rng(1)
        for _ in range(5):
            s = complex(rng.uniform(-1, 1), rng.uniform(-5, 5))
            h, hr = tf.eval(s), rm.eval(s)
            assert np.linalg.norm(h - hr) <= 1e-12 * (1 + np.linalg.norm(h))

    def test_identity_projection_exact_on_coefficients(self):
        tf, _ = random_descriptor(8, 1, 1, seed=2)
        rm = project(tf, np.eye(8), np.eye(8))
        for (t0, m0), (t1, m1) in zip(tf.d_factor.terms, rm.d_factor.terms):
            assert t0 == t1
            np.testing.assert_array_equal(np.asarray(m0, dtype=complex), m1)

    def test_single_vector_projection_closed_form(self):
        e = np.diag([2.0, 3.0])
        a = np.diag([-1.0, -4.0])
        b = np.array([[1.5], [0.7]])
        c = np.array([[2.0, 0.3]])
        tf = descriptor_tf(e, a, b, c)
        e1 = np.array([[1.0], [0.0]])
        rm = project(tf, e1, e1)
        s = 1.3j
        expected = c[0, 0] * b[0, 0] / (s * e[0, 0] - a[0, 0])
        assert rm.eval(s)[0, 0] == pytest.approx(expected)

    def test_one_step_interpolation(self):
        tf, _ = random_descriptor(30, 2, 2, seed=3)
        omega = 1.2
        vb, wb = expansion_block(tf, omega)
        v, _ = np.linalg.qr(vb)
        w, _ = np.linalg.qr(wb)
        rm = project(tf, v, w)
        h = tf.eval(1j * omega)
        hr = rm.eval(1j * omega)
        assert np.linalg.norm(h - hr, 2) <= 1e-10 * (1 + np.linalg.norm(h, 2))

    def test_sparse_factors_on_fortran_bases(self):
        # a sparse factor takes a Fortran-ordered basis in one product
        tf = make_delay_fixture(40)
        rng = np.random.default_rng(7)
        v, _ = np.linalg.qr(rng.standard_normal((40, 3))
                            + 1j * rng.standard_normal((40, 3)))
        v = np.asfortranarray(v)
        rm = project(tf, v, v)
        for (_, m), (_, mr) in zip(tf.d_factor.terms, rm.d_factor.terms):
            np.testing.assert_allclose(mr, v.conj().T @ (m.toarray() @ v),
                                       rtol=0, atol=1e-12)
        assert project(tf, v[:, :0], v[:, :0]).d_factor.shape == (0, 0)

    def test_unequal_columns_rejected(self):
        tf, _ = random_descriptor(6, 1, 1, seed=4)
        with pytest.raises(DimensionMismatch):
            project(tf, np.eye(6)[:, :3], np.eye(6)[:, :2])


def _coefficient(rng, shape, fmt, cplx):
    """A random coefficient matrix: dense, or sparse in format fmt."""
    if fmt == "dense":
        x = rng.standard_normal(shape)
        return x + 1j * rng.standard_normal(shape) if cplx else x
    m = sp.random(*shape, density=0.3, random_state=rng, format=fmt)
    if cplx:
        m = m.astype(complex)
        m.data += 1j * rng.standard_normal(m.data.shape)
    return m


def _two_term_tf(n, width, fmt, cplx, seed):
    """H(s) = C(s) D(s)^{-1} B(s) with two terms in every factor, every
    coefficient in format fmt, m = p = width."""
    rng = np.random.default_rng(seed)

    def factor(shape, terms):
        return MatrixFactor([(t, _coefficient(rng, shape, fmt, cplx))
                             for t in terms])
    return StructuredTF(
        c_factor=factor((width, n), (ScalarTerm(), ScalarTerm(delay=0.5))),
        d_factor=factor((n, n), (ScalarTerm(degree=1),
                                 ScalarTerm(delay=1.0))),
        b_factor=factor((n, width), (ScalarTerm(), ScalarTerm(degree=1))))


def _assert_same_model(model, reference):
    """Every projected coefficient agrees to 1e-13 relative."""
    for fm, fr in ((model.c_factor, reference.c_factor),
                   (model.d_factor, reference.d_factor),
                   (model.b_factor, reference.b_factor)):
        assert len(fm.terms) == len(fr.terms)
        for (tm, mm), (tr, mr) in zip(fm.terms, fr.terms):
            assert tm == tr
            assert mm.shape == mr.shape
            assert np.linalg.norm(mm - mr) <= 1e-13 * np.linalg.norm(mr)


def _dense_projection(tf, V, W):
    """C_j V, W^H D_j V and W^H B_j as plain numpy products of dense
    coefficients with the bases zero-padded to all n rows."""
    V, W = padded(V, tf.n), padded(W, tf.n)
    wh = W.conj().T

    def dense(factor, left, right):
        return MatrixFactor([
            (t, left @ (m.toarray() if sp.issparse(m) else np.asarray(m))
             @ right) for t, m in factor.terms])
    return StructuredTF(dense(tf.c_factor, np.eye(tf.p), V),
                        dense(tf.d_factor, wh, V),
                        dense(tf.b_factor, wh, np.eye(tf.m)))


def _assert_borders(model, before):
    """The projection of a grown state keeps the projection of the state
    it grew from as its leading block."""
    k = before.n
    for fm, fb, cut in ((model.c_factor, before.c_factor, np.s_[:, :k]),
                        (model.d_factor, before.d_factor, np.s_[:k, :k]),
                        (model.b_factor, before.b_factor, np.s_[:k, :])):
        for (_, mm), (_, mb) in zip(fm.terms, fb.terms, strict=True):
            assert np.linalg.norm(mm[cut] - mb) <= 1e-13 * np.linalg.norm(mb)


def _random_block(rng, n, width):
    return rng.standard_normal((n, width)) + 1j * rng.standard_normal((n, width))


class TestBorderedProject:
    """Projections of a state that expand grows, against a dense reference;
    each borders the one before it."""

    @pytest.mark.parametrize("width", [1, 2])
    @pytest.mark.parametrize("cplx", [False, True])
    @pytest.mark.parametrize("fmt", ["dense", "csc", "csr", "coo"])
    def test_matches_from_scratch(self, fmt, cplx, width):
        n = 30
        tf = _two_term_tf(n, width, fmt, cplx, seed=60)
        rng = np.random.default_rng(61)
        state = SubspaceState.empty(n)
        models = []
        for k in range(4):
            models.append(project(tf, state.V, state.W))
            _assert_same_model(models[-1],
                               _dense_projection(tf, state.V, state.W))
            if k:
                _assert_borders(models[-1], models[-2])
            state = expand(state, _random_block(rng, n, width),
                           _random_block(rng, n, width), float(k))
        assert state.dim == 4 * width

    def test_delay_factor(self):
        n = 200
        tf = make_delay_fixture(n)
        state = SubspaceState.empty(n)
        rm = None
        for omega in (0.0, 1.5, 3.0, 4.5, 6.0):
            state = expand(state, *expansion_block(tf, omega), omega)
            before, rm = rm, project(tf, state.V, state.W)
            _assert_same_model(rm, _dense_projection(tf, state.V, state.W))
            if before is not None:
                _assert_borders(rm, before)
        assert rm.n == 5

    def test_rebalanced_expansion(self):
        # the V block has one column in the span, the W block none: the
        # newest W column is removed and the state grows by one column
        n = 30
        tf = _two_term_tf(n, 2, "csc", True, seed=62)
        rng = np.random.default_rng(63)
        state = expand(SubspaceState.empty(n), _random_block(rng, n, 3),
                       _random_block(rng, n, 3), 0.0)
        vb = np.column_stack((state.V[:, 0] * 2.0, _random_block(rng, n, 1)))
        grown = expand(state, vb, _random_block(rng, n, 2), 1.0)
        assert grown.dim == state.dim + 1
        rm = project(tf, grown.V, grown.W)
        _assert_same_model(rm, _dense_projection(tf, grown.V, grown.W))
        _assert_borders(rm, project(tf, state.V, state.W))


def _assert_equal_models(a, b):
    """Every projected coefficient agrees bit for bit."""
    for fa, fb in ((a.c_factor, b.c_factor), (a.d_factor, b.d_factor),
                   (a.b_factor, b.b_factor)):
        for (ta, ma), (tb, mb) in zip(fa.terms, fb.terms, strict=True):
            assert ta == tb
            np.testing.assert_array_equal(ma, mb)


def _padded_block(rng, n, width, rows):
    """A random complex block that is zero below its first rows rows."""
    block = _random_block(rng, n, width)
    block[rows:] = 0.0
    return block


def _padded_project(tf, state):
    """The projection onto the state's bases with all n rows."""
    return project(tf, padded(state.V, state.n), padded(state.W, state.n))


class TestRowExtents:
    def test_delay_bases_after_three_expansions(self):
        # the delay resolvents at omega = 0, 10, 20 end at row 517 of 5000
        n = 5000
        tf = make_delay_fixture(n)
        state = SubspaceState.empty(n)
        for omega in (0.0, 10.0):
            state = expand(state, *expansion_block(tf, omega), omega)
        state = expand(state, *expansion_block(tf, 20.0), 20.0)
        assert (state.V.shape[0], state.W.shape[0]) == (517, 517)
        assert state.dim == 3
        _assert_equal_models(project(tf, state.V, state.W),
                             _padded_project(tf, state))

    @pytest.mark.parametrize("fmt", ["dense", "csc", "csr", "coo"])
    def test_padded_bases_on_a_general_sparse_d(self, fmt):
        # a random sparse D goes to SuperLU, not the tridiagonal route; V
        # and W end at different rows, so each product must take its own
        n = 40
        tf = _two_term_tf(n, 2, fmt, True, seed=65)
        rng = np.random.default_rng(66)
        state = SubspaceState.empty(n)
        for k, (rv, rw) in enumerate(((12, 20), (9, 17), (15, 23))):
            state = expand(state, _padded_block(rng, n, 2, rv),
                           _padded_block(rng, n, 2, rw), float(k))
            _assert_same_model(project(tf, state.V, state.W),
                               _padded_project(tf, state))
        assert (state.V.shape[0], state.W.shape[0]) == (15, 23)
        assert state.dim == 6

    def test_full_extents_are_bit_for_bit(self):
        tf, _ = random_descriptor(30, 2, 2, seed=67)
        state = SubspaceState.empty(tf.n)
        for omega in (0.5, 1.5, 2.5):
            state = expand(state, *expansion_block(tf, omega), omega)
        assert (state.V.shape[0], state.W.shape[0]) == (30, 30)
        _assert_equal_models(project(tf, state.V, state.W),
                             _padded_project(tf, state))

    def test_full_extents_leave_the_coefficients_uncut(self, monkeypatch):
        # at n = 200 the delay resolvents are nonzero on every row, so the
        # products take the function's own C and B coefficients and each
        # DIA term of D whole, in DIA with its offsets ascending
        tf = make_delay_fixture(200)
        state = SubspaceState.empty(tf.n)
        for omega in (0.0, 10.0):
            state = expand(state, *expansion_block(tf, omega), omega)
        assert (state.V.shape[0], state.W.shape[0]) == (200, 200)
        mats = []
        leading = reduced._leading

        def spy(mat, rows, cols):
            mats.append(leading(mat, rows, cols))
            return mats[-1]

        monkeypatch.setattr(reduced, "_leading", spy)
        project(tf, state.V, state.W)
        terms = [m for factor in (tf.c_factor, tf.d_factor, tf.b_factor)
                 for _, m in factor.terms]
        assert len(mats) == len(terms)
        c_mat, *d_mats, b_mat = mats
        assert c_mat is terms[0] and b_mat is terms[-1]
        assert all(sp.issparse(m) for _, m in tf.d_factor.terms)
        for a, (_, b) in zip(d_mats, tf.d_factor.terms, strict=True):
            assert (a.format, b.format, a.shape) == ("dia", "dia", b.shape)
            assert a.offsets.tolist() == sorted(b.offsets.tolist())
            a, b = a.tocsc(), b.tocsc()
            for key in ("data", "indices", "indptr"):
                np.testing.assert_array_equal(getattr(a, key), getattr(b, key))

    @pytest.mark.parametrize("rows", [((7, 2), (6, 2)), ((6, 2), (7, 2)),
                                      ((6,), (6, 2)), ((6, 2), (6,))])
    def test_extents_out_of_range_rejected(self, rows):
        # bases of more than n rows, or not 2-D
        tf, _ = random_descriptor(6, 1, 1, seed=68)
        v_shape, w_shape = rows
        with pytest.raises(DimensionMismatch):
            project(tf, np.ones(v_shape), np.ones(w_shape))

    def test_state_holds_the_leading_rows(self):
        n = 5000
        tf = make_delay_fixture(n)
        state = expand(SubspaceState.empty(n), *expansion_block(tf, 0.0), 0.0)
        assert state.V.shape == state.W.shape == (473, 1)
        assert state.n == n
        # bases given with all their rows keep them
        full = SubspaceState(V=padded(state.V, n), W=padded(state.W, n))
        assert full.n == n and full.V.shape[0] == full.W.shape[0] == n
        replaced = dataclasses.replace(state, V=padded(state.V, n))
        assert replaced.n == n and replaced.V.shape[0] == n
        empty = SubspaceState.empty(n)
        assert empty.n == n and empty.V.shape == empty.W.shape == (0, 0)
        for v, w in ((np.ones((n + 1, 1)), np.ones((n, 1))),
                     (np.ones((n, 1)), np.ones((n + 1, 1)))):
            with pytest.raises(DimensionMismatch):
                SubspaceState(V=v, W=w, n=n)
        with pytest.raises(DimensionMismatch):
            SubspaceState(V=np.ones((3, 1)), W=np.ones((4, 1)))


class TestSigmaMax:
    def test_one_pole_at_zero(self):
        assert sigma_max(siso_one_pole(), 0.0) == pytest.approx(1.0)

    def test_one_pole_at_one(self):
        assert sigma_max(siso_one_pole(), 1.0) == pytest.approx(1 / np.sqrt(2))

    def test_matches_explicit_svd(self):
        tf, _ = random_descriptor(10, 2, 2, seed=5)
        rng = np.random.default_rng(6)
        q, _ = np.linalg.qr(rng.standard_normal((10, 4))
                            + 1j * rng.standard_normal((10, 4)))
        rm = project(tf, q, q)
        for omega in (0.4, 2.2):
            h = rm.eval(1j * omega)
            assert sigma_max(rm, omega) == pytest.approx(
                np.linalg.svd(h, compute_uv=False)[0])


class TestSigmaDerivative:
    def test_even_peak(self):
        _, slope = sigma_and_slope(siso_one_pole(), [0.0], slope=True)
        assert slope[0] == pytest.approx(0.0, abs=1e-12)

    def test_closed_form(self):
        # sigma(omega) = (1+omega^2)^{-1/2}, slope at 1 is -1/(2*sqrt(2))
        _, slope = sigma_and_slope(siso_one_pole(), [1.0], slope=True)
        assert slope[0] == pytest.approx(-1 / (2 * np.sqrt(2)))

    def test_matches_finite_difference(self):
        rm, _ = random_descriptor(14, 2, 3, seed=8)
        omegas = [0.7, 1.9, 4.0]
        _, slopes = sigma_and_slope(rm, omegas, slope=True)
        for omega, slope in zip(omegas, slopes):
            h = 1e-6
            fd = (sigma_max(rm, omega + h)
                  - sigma_max(rm, omega - h)) / (2 * h)
            assert slope == pytest.approx(fd, rel=1e-5, abs=1e-8)


SHAPES = [(1, 1), (2, 2), (1, 3), (3, 1), (2, 3)]


def projected_model(index):
    """For index < 5, a random_descriptor of order 40 with (m, p) =
    SHAPES[index] projected at five points; for index 5, the delay model of
    order 300 projected at ten points in [0, 50].  Returns (model,
    interval)."""
    if index < len(SHAPES):
        m, p = SHAPES[index]
        tf, interval = random_descriptor(40, m, p, seed=10 * m + p)
        points = np.linspace(*interval, 5)
    else:
        tf, interval = make_delay_fixture(300), (0.0, 50.0)
        points = np.linspace(*interval, 10)
    state = SubspaceState.empty(tf.n)
    for w in points:
        state = expand(state, *expansion_block(tf, float(w)), float(w))
    return project(tf, state.V, state.W), interval


class TestSigmaAndSlope:
    @pytest.mark.parametrize("index", range(len(SHAPES) + 1))
    def test_matches_pointwise(self, index):
        rm, interval = projected_model(index)
        omegas = np.random.default_rng(index).uniform(*interval, 64)
        sigmas, slopes = sigma_and_slope(rm, omegas, slope=True)
        only_sigmas, none = sigma_and_slope(rm, omegas)
        assert none is None
        np.testing.assert_array_equal(only_sigmas, sigmas)
        for w, sigma, slope in zip(omegas, sigmas, slopes):
            ref_sigma, ref_slope = pointwise_sigma_and_slope(rm, w)
            if rm.m == rm.p:
                assert sigma == sigma_max(rm, w)
            # the stacked matmul rounds C X differently when m != p
            assert sigma == pytest.approx(sigma_max(rm, w), rel=2e-15)
            assert sigma == pytest.approx(ref_sigma, rel=2e-15)
            assert abs(slope - ref_slope) <= 1e-14 * (1 + abs(ref_slope))

    def test_sparse_full_order_without_slope(self, monkeypatch):
        # a sparse D goes shift by shift; without slopes no derivative of
        # any factor is assembled, and sigma is the same to the last bit
        tf = make_delay_fixture(40)
        omegas = [0.3, 3.07547, 7.0]
        sigmas, _ = sigma_and_slope(tf, omegas, slope=True)

        def no_derivative(factor, s):
            raise AssertionError("eval_derivative called")

        monkeypatch.setattr(MatrixFactor, "eval_derivative", no_derivative)
        only_sigmas, none = sigma_and_slope(tf, omegas)
        assert none is None
        np.testing.assert_array_equal(only_sigmas, sigmas)
        assert list(only_sigmas) == [sigma_max(tf, w) for w in omegas]

    def test_empty(self):
        rm, _ = projected_model(1)
        sigmas, slopes = sigma_and_slope(rm, [], slope=True)
        assert sigmas.shape == slopes.shape == (0,)
        assert sigma_and_slope(rm, np.empty(0))[0].shape == (0,)

    def test_singular_shift_in_batch(self):
        # a pole at 2i: D(2i) = diag(0, 1 + 2i) is exactly singular
        tf = descriptor_tf(np.eye(2), np.diag([2j, -1.0]), np.ones((2, 1)),
                           np.ones((1, 2)))
        for slope in (False, True):
            with pytest.raises(SingularShift) as err:
                sigma_and_slope(tf, [0.5, 1.0, 2.0, 3.0], slope=slope)
            assert err.value.s == 2j


class TestClassify:
    def test_descriptor_is_rational(self):
        assert rational_realization(siso_one_pole()) is not None

    def test_delay_is_general(self):
        tf = make_delay_fixture(5)
        assert rational_realization(tf) is None

    def test_quadratic_term_is_general(self):
        d = MatrixFactor([(ScalarTerm(degree=2), np.eye(2)),
                          (ScalarTerm(), np.eye(2))])
        b = MatrixFactor([(ScalarTerm(), np.ones((2, 1)))])
        c = MatrixFactor([(ScalarTerm(), np.ones((1, 2)))])
        assert rational_realization(StructuredTF(c, d, b)) is None

    def test_invariant_under_term_permutation(self):
        e, a = np.eye(2), -np.eye(2)
        d_fwd = MatrixFactor([(ScalarTerm(degree=1), e), (ScalarTerm(), -a)])
        d_rev = MatrixFactor([(ScalarTerm(), -a), (ScalarTerm(degree=1), e)])
        b = MatrixFactor([(ScalarTerm(), np.ones((2, 1)))])
        c = MatrixFactor([(ScalarTerm(), np.ones((1, 2)))])
        fwd = rational_realization(StructuredTF(c, d_fwd, b))
        rev = rational_realization(StructuredTF(c, d_rev, b))
        assert fwd is not None and rev is not None
        for x, y in zip(fwd, rev):
            np.testing.assert_array_equal(x, y)


def damped_pairs(decays, freqs, gains):
    """Real block-diagonal system with one 2x2 block per pole pair -d +- iw.

    Block j adds g (s + d) / ((s + d)^2 + w^2), which is
    (g/2) (1/(s - lam) + 1/(s - conj(lam))), so each pole of the pair has
    residue g/2 and dominance |g| / (2 d)."""
    a = sla.block_diag(*[np.array([[-d, w], [-w, -d]])
                         for d, w in zip(decays, freqs)])
    n = a.shape[0]
    b, c = np.zeros((n, 1)), np.zeros((1, n))
    b[0::2, 0] = 1.0
    c[0, 0::2] = gains
    return descriptor_tf(np.eye(n), a, b, c)


class TestDominantFrequencies:
    DECAYS = (0.1, 0.01, 0.5, 0.05)
    FREQS = (1.0, 2.0, 3.0, 4.0)
    GAINS = (2.0, 1.0, 1.0, 0.4)

    def test_known_poles_in_dominance_order(self):
        tf = damped_pairs(self.DECAYS, self.FREQS, self.GAINS)
        dominance = [g / (2 * d) for d, g in zip(self.DECAYS, self.GAINS)]
        expected = [w for _, w in sorted(zip(dominance, self.FREQS),
                                         reverse=True)]
        assert expected == [2.0, 1.0, 4.0, 3.0]
        assert dominant_frequencies(tf, 4) == pytest.approx(expected, rel=1e-12)
        assert dominant_frequencies(tf, 2) == pytest.approx(expected[:2],
                                                            rel=1e-12)

    def test_conjugate_pairs_give_one_frequency(self):
        # 8 poles in 4 conjugate pairs: at most 4 frequencies, all >= 0
        tf = damped_pairs(self.DECAYS, self.FREQS, self.GAINS)
        assert tf.is_real
        freqs = dominant_frequencies(tf, 8)
        assert len(freqs) == 4
        assert sorted(freqs) == pytest.approx(self.FREQS, rel=1e-12)

    def test_complex_h_gives_signed_frequencies(self):
        lam = np.array([-0.1 + 2.0j, -0.2 - 3.0j, -1.0 + 0.5j])
        tf = descriptor_tf(np.eye(3), np.diag(lam), np.ones((3, 1)),
                           np.ones((1, 3)))
        assert not tf.is_real
        # unit residues: dominance 1 / |Re lam| = 10, 5, 1
        assert dominant_frequencies(tf) == pytest.approx((2.0, -3.0, 0.5),
                                                         rel=1e-12)

    def test_axis_and_infinite_poles_are_left_out(self):
        # a driven and observed pole at 0 (on the axis), a pair -0.1 +- 2i,
        # and an infinite eigenvalue from the zero row of E
        e = np.diag([1.0, 1.0, 1.0, 0.0])
        a = sla.block_diag([[0.0]], [[-0.1, 2.0], [-2.0, -0.1]], [[-1.0]])
        tf = descriptor_tf(e, a, np.ones((4, 1)), np.ones((1, 4)))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            freqs = dominant_frequencies(tf)
        assert caught == []
        assert freqs == pytest.approx((2.0,), rel=1e-12)

    def test_delay_function_has_none(self):
        assert dominant_frequencies(make_delay_fixture(50)) == ()

    @pytest.mark.parametrize("seed", [0, 1])
    def test_standard_eigensolve_matches_qz(self, monkeypatch, seed):
        # a well-conditioned E != I is inverted: eig(E^{-1} A), real, in
        # place of QZ on (A, E), with the same dominance order
        _, a, b, c = rational_realization(random_descriptor(30, 2, 2, seed)[0])
        rng = np.random.default_rng(seed)
        e = np.eye(30) + 0.3 * rng.standard_normal((30, 30))
        tf = descriptor_tf(e, e @ a.real, b.real, c.real)
        assert np.linalg.cond(e) < 1e3
        calls = []
        eig = sla.eig

        def spy(a, b=None, **kwargs):
            calls.append((a.dtype, b is None))
            return eig(a, b, **kwargs)

        monkeypatch.setattr(sla, "eig", spy)
        standard = dominant_frequencies(tf)
        monkeypatch.setattr(reduced, "standard_form", lambda r: r)
        qz = dominant_frequencies(tf)
        assert calls == [(np.float64, True), (np.float64, False)]
        assert len(standard) == len(qz) == 8
        assert standard == pytest.approx(qz, rel=1e-10)

    def test_singular_e_keeps_qz(self, monkeypatch):
        calls = []
        eig = sla.eig

        def spy(a, b=None, **kwargs):
            calls.append(b is None)
            return eig(a, b, **kwargs)

        monkeypatch.setattr(sla, "eig", spy)
        e = np.diag([1.0, 1.0, 0.0])
        a = sla.block_diag([[-0.1, 2.0], [-2.0, -0.1]], [[-1.0]])
        tf = descriptor_tf(e, a, np.ones((3, 1)), np.ones((1, 3)))
        assert dominant_frequencies(tf) == pytest.approx((2.0,), rel=1e-12)
        assert calls == [False]

    def test_no_eigensolve_above_the_cutoff(self, monkeypatch):
        calls = []
        eig = sla.eig

        def spy(*args, **kwargs):
            calls.append(args[0].shape)
            return eig(*args, **kwargs)

        monkeypatch.setattr(sla, "eig", spy)
        small = damped_pairs(self.DECAYS, self.FREQS, self.GAINS)
        assert dominant_frequencies(small) != ()
        assert calls == [(8, 8)]
        n = DOMINANT_MAX_N + 1
        big = descriptor_tf(sp.identity(n, format="csc"),
                            sp.diags(-np.arange(1.0, n + 1.0), format="csc"),
                            np.ones((n, 1)), np.ones((1, n)))
        assert dominant_frequencies(big) == ()
        assert calls == [(8, 8)]
