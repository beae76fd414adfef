"""DIA coefficients with offsets (1, 0, -1) are their own tridiagonal bands:
the delay fixture's terms give the results of the same terms in CSC, bit
for bit, and DIA terms in any other layout are scattered as other sparse
terms are."""

import numpy as np
import pytest
import scipy.sparse as sp

from linfnorm.greedy import RunConfig, SubspaceState, expand, expansion_block, run
from linfnorm.inner import InnerConfig
from linfnorm.problems import make_delay_fixture
from linfnorm.reduced import project
from linfnorm.structured import MatrixFactor, ScalarTerm, StructuredTF

from conftest import csc_twin, kept_bytes, peak_bytes

SHIFTS = (0.0, 1j, 3.07547j, -2.5j, 0.3 + 7j, 1 / 3, 0.71 + 2.9j)


def _assert_same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    assert (a.dtype, a.shape) == (b.dtype, b.shape)
    assert a.tobytes() == b.tobytes()


def _shares_data(band, m):
    return np.shares_memory(band, m.data)


def _asymmetric(tf):
    """tf with the (3, 4) entry of its D factor's second term times 1.5, in
    a copy of that term's DIA data, so that it takes two solves a shift."""
    terms = list(tf.d_factor.terms)
    term, m = terms[1]
    data = m.data.copy()
    data[0, 4] *= 1.5   # the superdiagonal entry of column 4
    terms[1] = (term, sp.dia_matrix((data, m.offsets), shape=m.shape))
    return StructuredTF(tf.c_factor, MatrixFactor(terms), tf.b_factor)


@pytest.fixture(params=[200, 5000], ids=["full-extents", "cut-extents"])
def delay_pair(request):
    """The delay fixture and its twin with CSC terms."""
    tf = make_delay_fixture(request.param)
    return tf, csc_twin(tf)


class TestDelayBitIdentity:
    def test_terms_and_bands(self, delay_pair):
        tf, twin = delay_pair
        for (_, m), (_, c), band, copied in zip(
                tf.d_factor.terms, twin.d_factor.terms, tf.d_factor.bands,
                twin.d_factor.bands, strict=True):
            assert (m.format, c.format) == ("dia", "csc")
            assert _shares_data(band, m) and not _shares_data(copied, c)
            _assert_same_bits(band, copied)
        assert tf.d_factor.symmetric and twin.d_factor.symmetric

    def test_eval_tridiagonal(self, delay_pair):
        tf, twin = delay_pair
        for s in SHIFTS:
            _assert_same_bits(tf.d_factor.eval_tridiagonal(s),
                              twin.d_factor.eval_tridiagonal(s))

    @pytest.mark.parametrize("make", [lambda tf: tf, _asymmetric],
                             ids=["one-solve", "two-solve"])
    def test_resolvents(self, delay_pair, make):
        tf = make(delay_pair[0])
        twin = csc_twin(tf)
        assert (tf.d_factor.symmetric is twin.d_factor.symmetric
                is (make is not _asymmetric))
        for s in (1.5j, 0.3 + 7j, 15.3849j):
            for got, want in zip(tf._resolvents(s), twin._resolvents(s),
                                 strict=True):
                _assert_same_bits(got, want)

    def test_projection(self, delay_pair):
        tf, twin = delay_pair
        n = tf.n
        states = []
        for f in (tf, twin):
            state = SubspaceState.empty(n)
            for omega in (0.0, 10.0, 20.0):
                state = expand(state, *expansion_block(f, omega), omega)
            states.append(state)
        for basis in ("V", "W"):
            _assert_same_bits(getattr(states[0], basis),
                              getattr(states[1], basis))
        # every row at n = 200, the leading 517 of 5000 rows otherwise
        assert states[0].V.shape[0] == min(n, 517)
        models = [project(f, states[0].V, states[0].W) for f in (tf, twin)]
        for name in ("c_factor", "d_factor", "b_factor"):
            for (ta, ma), (tb, mb) in zip(getattr(models[0], name).terms,
                                          getattr(models[1], name).terms,
                                          strict=True):
                assert ta == tb
                _assert_same_bits(ma, mb)

    def test_run(self, delay_pair):
        cfg = RunConfig(omega_max=50.0,
                        inner=InnerConfig(interval=(0, 50),
                                          curvature_bound=-100.0))
        got, want = (run(f, cfg) for f in delay_pair)
        assert (got.norm, got.omega_opt) == (want.norm, want.omega_opt)
        assert got.history == want.history
        assert got.iterations == want.iterations
        assert got.stop_reason == want.stop_reason


def _diagonals(n, rng, complex_=False):
    """(super-, main, subdiagonal) in DIA's column alignment, with a main
    diagonal that outweighs both others and 0 in the two entries outside
    the matrix."""
    def draw(lo, hi):
        x = rng.uniform(lo, hi, n)
        return x + 1j * rng.uniform(lo, hi, n) if complex_ else x
    data = np.array([draw(-1.0, 1.0), draw(5.0, 6.0), draw(-1.0, 1.0)])
    data[0, 0] = data[2, n - 1] = 0.0
    return data


def _edge_terms(n, rng):
    """id -> (DIA coefficient, whether its data is its band)."""
    data = _diagonals(n, rng)
    padded = data.copy()
    padded[0, 0], padded[2, n - 1] = 7.0, -3.0
    nan_padded = data.copy()
    nan_padded[0, 0] = nan_padded[2, n - 1] = np.nan
    wide = np.empty((3, 2 * n))
    wide[:, ::2] = data
    cases = {
        "band-storage": (data, [1, 0, -1], True),
        "nonzero-padding": (padded, [1, 0, -1], True),
        "nan-padding": (nan_padded, [1, 0, -1], True),
        "complex": (_diagonals(n, rng, complex_=True), [1, 0, -1], True),
        "offsets-reversed": (data[::-1].copy(), [-1, 0, 1], False),
        "offsets-0-1": (data[[1, 0]].copy(), [0, 1], False),
        "integer": (np.rint(4 * data).astype(np.int64), [1, 0, -1], False),
        "non-contiguous": (wide[:, ::2], [1, 0, -1], False),
    }
    return {k: (sp.dia_matrix((d, off), shape=(n, n)), view)
            for k, (d, off, view) in cases.items()}


EDGE_IDS = list(_edge_terms(4, np.random.default_rng(0)))


class TestEdgeInputs:
    @pytest.mark.parametrize("case", EDGE_IDS)
    def test_matches_the_csc_twin(self, case):
        n = 40
        rng = np.random.default_rng(70)
        m, view = _edge_terms(n, rng)[case]
        before = m.data.copy()
        d = MatrixFactor([
            (ScalarTerm(degree=1), sp.identity(n, format="dia")),
            (ScalarTerm(), m),
            (ScalarTerm(delay=0.5), sp.diags(rng.uniform(-1.0, 1.0, n - 1),
                                             1, format="csr")),
        ])
        b = MatrixFactor([(ScalarTerm(), rng.standard_normal((n, 2)))])
        c = MatrixFactor([(ScalarTerm(), rng.standard_normal((2, n)))])
        tf = StructuredTF(c, d, b)
        twin = csc_twin(tf)
        assert _shares_data(tf.d_factor.bands[1], m) == view
        rhs = rng.standard_normal((n, 2)) + 1j * rng.standard_normal((n, 2))
        for s in (0.0, 2j, 0.5 + 3j):
            ab = tf.d_factor.eval_tridiagonal(s)
            _assert_same_bits(ab, twin.d_factor.eval_tridiagonal(s))
            assert ab[0, 0] == ab[2, -1] == 0.0   # the padding
            np.testing.assert_array_equal(tf.d_factor.eval(s).toarray(),
                                          twin.d_factor.eval(s).toarray())
            for adjoint in (True, False):
                x, y = (f._factorization(s).solve(
                            np.array(rhs, order="F"), adjoint=adjoint)
                        for f in (tf, twin))
                assert np.isfinite(x).all()
                _assert_same_bits(x, y)
            for got, want in zip(tf._resolvents(s), twin._resolvents(s),
                                 strict=True):
                _assert_same_bits(got, want)
        assert m.data.tobytes() == before.tobytes()


def test_delay_fixture_memory():
    # the three DIA terms (72 bytes per order) and B (8), with C a view of
    # B, where three CSC terms and a copied C took 136; the bands are the
    # terms' data, where building them allocated about 109 bytes per order
    n = 20000
    tf, kept = kept_bytes(lambda: make_delay_fixture(n))
    assert kept <= 90 * n
    bands, peak = peak_bytes(lambda: tf.d_factor.bands)
    assert len(bands) == 3
    assert peak <= 8192   # the tuple and three views, at any order
