"""Tests for manifest ingestion and the built-in fixtures."""

import json

import numpy as np
import pytest
import scipy.sparse as sp

from linfnorm.errors import DimensionMismatch, ParseError
from linfnorm.problems import (delay_coupling_matrix, descriptor_tf,
                               load_benchmark, load_problem,
                               make_delay_fixture)
from linfnorm.structured import ScalarTerm

from conftest import non_numbers


def write_mtx_dense(path, mat):
    """Hand-rolled Matrix Market writer, kept independent of scipy.io."""
    mat = np.atleast_2d(mat)
    lines = ["%%MatrixMarket matrix array real general",
             f"{mat.shape[0]} {mat.shape[1]}"]
    # array format is column-major
    lines += [f"{v:.17e}" for v in mat.flatten(order="F")]
    path.write_text("\n".join(lines) + "\n")


def one_pole_manifest(tmp_path, b_shape=(1, 1), config=None):
    """Manifest for H(s) = 1/(s+1); returns the manifest path."""
    write_mtx_dense(tmp_path / "E.mtx", [[1.0]])
    write_mtx_dense(tmp_path / "A0.mtx", [[1.0]])  # -A, A = -1
    write_mtx_dense(tmp_path / "B.mtx", np.ones(b_shape))
    write_mtx_dense(tmp_path / "C.mtx", [[1.0]])
    doc = {
        "dimensions": {"n": 1, "m": 1, "p": 1},
        "B": [{"k": 0, "tau": 0.0, "matrix": "B.mtx"}],
        "C": [{"matrix": "C.mtx"}],
        "D": [{"k": 1, "matrix": "E.mtx"},
              {"k": 0, "matrix": "A0.mtx"}],
    }
    if config is not None:
        doc["config"] = config
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(doc))
    return path


class TestLoadProblem:
    def test_one_pole_values(self, tmp_path):
        tf, config = load_problem(one_pole_manifest(tmp_path))
        assert tf.n == 1 and tf.m == 1 and tf.p == 1
        assert config == {}
        assert tf.eval(2.0)[0, 0] == pytest.approx(1 / 3)
        assert tf.eval(1j)[0, 0] == pytest.approx(1 / (1j + 1))

    def test_config_passthrough(self, tmp_path):
        cfg = {"omega_max": 8.0, "r0": 3}
        _, config = load_problem(one_pole_manifest(tmp_path, config=cfg))
        assert config == cfg

    @pytest.mark.parametrize("config", [[1, 2], None, "r0=3"])
    def test_config_that_is_not_an_object(self, tmp_path, config):
        path = one_pole_manifest(tmp_path)
        doc = json.loads(path.read_text())
        doc["config"] = config
        path.write_text(json.dumps(doc))
        with pytest.raises(ParseError, match="problem.json.*'config'"):
            load_problem(path)

    def test_wrong_b_shape_names_factor(self, tmp_path):
        path = one_pole_manifest(tmp_path, b_shape=(2, 1))
        with pytest.raises(DimensionMismatch, match="B_factor"):
            load_problem(path)

    def test_bad_json_reports_location(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not valid")
        with pytest.raises(ParseError, match="broken.json"):
            load_problem(path)

    def test_missing_factor_rejected(self, tmp_path):
        path = one_pole_manifest(tmp_path)
        doc = json.loads(path.read_text())
        del doc["C"]
        path.write_text(json.dumps(doc))
        with pytest.raises(ParseError, match="C_factor"):
            load_problem(path)

    @pytest.mark.parametrize("term", [
        {"k": 1.5, "matrix": "E.mtx"},
        {"k": 1, "tau": float("nan"), "matrix": "E.mtx"},
        {"k": 1, "tau": float("inf"), "matrix": "E.mtx"},
        5,
    ])
    def test_bad_term_names_factor(self, tmp_path, term):
        # not rounded to degree 1, nor loaded with a delay that makes every
        # shift singular
        path = one_pole_manifest(tmp_path)
        doc = json.loads(path.read_text())
        doc["D"][0] = term
        path.write_text(json.dumps(doc))
        with pytest.raises(ParseError, match="D_factor"):
            load_problem(path)

    @pytest.mark.parametrize("key, value", [
        ("k", True), ("k", False), ("k", "1"), ("k", None),
        ("tau", True), ("tau", False), ("tau", "0.5"), ("tau", [0.5])])
    def test_term_value_that_is_not_a_number(self, tmp_path, key, value):
        # not read as degree 1 or delay 0.0, nor parsed from a string
        path = one_pole_manifest(tmp_path)
        doc = json.loads(path.read_text())
        doc["D"][0][key] = value
        path.write_text(json.dumps(doc))
        with pytest.raises(ParseError, match=f"D_factor.*\\({key} must be"):
            load_problem(path)

    def test_integral_numbers_are_terms(self, tmp_path):
        path = one_pole_manifest(tmp_path)
        doc = json.loads(path.read_text())
        doc["D"][0].update(k=1.0, tau=0)
        path.write_text(json.dumps(doc))
        tf, _ = load_problem(path)
        term = tf.d_factor.terms[0][0]
        assert term == ScalarTerm(degree=1)
        assert type(term.degree) is int and type(term.delay) is float

    @pytest.mark.parametrize("rel", [5, ["B.mtx"], None])
    def test_matrix_that_is_not_a_file_name(self, tmp_path, rel):
        path = one_pole_manifest(tmp_path)
        doc = json.loads(path.read_text())
        doc["B"][0]["matrix"] = rel
        path.write_text(json.dumps(doc))
        with pytest.raises(ParseError, match="B_factor.*matrix must be"):
            load_problem(path)

    @pytest.mark.parametrize("key, value", [
        ("n", 2.7), ("n", 1.0), ("m", "1"), ("p", True), ("p", None)])
    def test_dimension_that_is_not_an_integer(self, tmp_path, key, value):
        # not truncated, nor parsed from a string
        path = one_pole_manifest(tmp_path)
        doc = json.loads(path.read_text())
        doc["dimensions"][key] = value
        path.write_text(json.dumps(doc))
        with pytest.raises(ParseError, match=f"dimension '{key}' must be"):
            load_problem(path)

    def test_bad_mtx_reports_file(self, tmp_path):
        path = one_pole_manifest(tmp_path)
        (tmp_path / "B.mtx").write_text("not a matrix\n")
        with pytest.raises(ParseError, match="B.mtx"):
            load_problem(path)


class TestDelayFixture:
    def test_coupling_matrix_small(self):
        t = np.asarray(delay_coupling_matrix(3).todense())
        np.testing.assert_array_equal(
            t, [[1, 1, 0], [1, 0, 1], [0, 1, 1]])
        for n in (2, 3, 7):
            t = delay_coupling_matrix(n)
            ref = np.eye(n, k=-1) + np.eye(n, k=1)
            ref[0, 0] = ref[n - 1, n - 1] = 1.0
            np.testing.assert_array_equal(t.toarray(), ref)
            assert t.nnz == 2 * n  # no explicit zeros stored

    def test_entrywise_n3(self):
        tf = make_delay_fixture(3, tau=1.0, beta=0.01, theta=5.0)
        t = np.asarray(delay_coupling_matrix(3).todense())
        e_expect = 5.0 * np.eye(3) + t
        a0_expect = 101.0 * (t - 5.0 * np.eye(3))
        a1_expect = 99.0 * (t - 5.0 * np.eye(3))
        terms = {(term.degree, term.delay): mat.toarray()
                 for term, mat in tf.d_factor.terms}
        np.testing.assert_allclose(terms[(1, 0.0)], e_expect)
        np.testing.assert_allclose(terms[(0, 0.0)], -a0_expect)
        np.testing.assert_allclose(terms[(0, 1.0)], -a1_expect)
        b = tf.b_factor.terms[0][1]
        np.testing.assert_array_equal(b.ravel(), [1.0, 1.0, 0.0])
        np.testing.assert_array_equal(tf.c_factor.terms[0][1],
                                      np.asarray(b).T)

    def test_large_orders_are_sparse(self):
        tf = make_delay_fixture(300)
        for _, mat in tf.d_factor.terms:
            assert sp.issparse(mat)

    def test_small_orders_are_sparse(self):
        for n in (3, 50):
            tf = make_delay_fixture(n)
            for _, mat in tf.d_factor.terms:
                assert sp.issparse(mat)

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            make_delay_fixture(1)
        with pytest.raises(ValueError):
            make_delay_fixture(5, tau=0.0)
        with pytest.raises(ValueError):
            make_delay_fixture(5, beta=0.0)

    @pytest.mark.parametrize("name, value", [
        ("tau", np.nan), ("tau", np.inf), ("beta", np.nan),
        ("beta", -np.inf), ("theta", np.nan), ("theta", np.inf),
        ("tau", True), ("beta", True), ("theta", True), ("theta", np.False_),
        *[(name, v) for name in ("tau", "beta", "theta")
          for v in non_numbers(1.0)]])
    def test_rejects_nonfinite_parameters(self, name, value):
        # a NaN beta or theta, or an infinite theta, built NaN or infinite
        # coefficients, and a NaN tau failed in ScalarTerm, naming delay; a
        # bool was read as 1.0 or 0.0
        with pytest.raises(ValueError, match=f"^{name} must be finite"):
            make_delay_fixture(5, **{name: value})

    @pytest.mark.parametrize("n, params", [
        (3, {}), (2001, {}),
        (40, dict(tau=0.3, beta=-0.7, theta=-2.5)),
        (7, dict(tau=2.0, beta=3.0, theta=0.0))])
    def test_terms_match_negated_products(self, n, params):
        # T - theta*I is built once and scaled by each negated scalar; each
        # term stores what negating (1/tau)(1/beta -+ 1)(T - theta*I) gave
        # in CSC, as DIA data with offsets (1, 0, -1) whose zeros are +0.0
        tau, beta, theta = (params.get(k, v) for k, v in
                            (("tau", 1.0), ("beta", 0.01), ("theta", 5.0)))
        t = delay_coupling_matrix(n)
        eye = sp.identity(n, format="csc")
        a0 = (1.0 / tau) * (1.0 / beta + 1.0) * (t - theta * eye)
        a1 = (1.0 / tau) * (1.0 / beta - 1.0) * (t - theta * eye)
        expected = [theta * eye + t, -a0, -a1]
        for (_, got), want in zip(make_delay_fixture(n, **params)
                                  .d_factor.terms, expected):
            assert (got.format, want.format) == ("dia", "csc")
            np.testing.assert_array_equal(got.offsets, [1, 0, -1])
            assert not np.signbit(got.data[got.data == 0.0]).any()
            got = got.tocsc()
            for key in ("data", "indices", "indptr"):
                np.testing.assert_array_equal(getattr(got, key),
                                              getattr(want, key))
            np.testing.assert_array_equal(np.signbit(got.data),
                                          np.signbit(want.data))

    @pytest.mark.parametrize("n", [1e3, 50.0, "50", None])
    def test_order_must_be_an_integer(self, n):
        # 1e3 reached the coupling matrix, which raised a bare TypeError
        with pytest.raises(ValueError, match="n must be an integer"):
            make_delay_fixture(n)
        assert make_delay_fixture(np.int64(50)).n == 50


class TestDescriptor:
    def test_nested_lists(self):
        # H(s) = s / (s^2 + 4) + 1 / (s + 1)
        lists = ([[1, 0, 0], [0, 1, 0], [0, 0, 1]],
                 [[0, 2, 0], [-2, 0, 0], [0, 0, -1]], [[1], [0], [1]],
                 [[1, 0, 1]])
        arrays = [np.array(m, dtype=float) for m in lists]
        tf = descriptor_tf(*lists)
        np.testing.assert_array_equal(tf.eval(1j),
                                      descriptor_tf(*arrays).eval(1j))
        assert tf.eval(1j)[0, 0] == pytest.approx(1j / 3 + 1 / (1j + 1))

    def test_sparse_inputs_stay_sparse(self):
        # as load_benchmark passes them above DENSE_CUTOFF
        n = 300
        e = sp.identity(n, format="csc")
        a = sp.diags(-np.arange(1.0, n + 1.0), format="csc")
        b = sp.csc_matrix(np.ones((n, 1)))
        c = sp.csc_matrix(np.ones((1, n)))
        tf = descriptor_tf(e, a, b, c)
        assert all(sp.issparse(m) for f in (tf.c_factor, tf.d_factor,
                                             tf.b_factor) for _, m in f.terms)
        assert tf.eval(0.0)[0, 0] == pytest.approx(
            np.sum(1.0 / np.arange(1.0, n + 1.0)), rel=1e-12)


class TestExternalBenchmarks:
    def test_absent_data_dir_returns_none(self, monkeypatch):
        monkeypatch.delenv("LINFNORM_DATA_DIR", raising=False)
        assert load_benchmark("build") is None

    def test_missing_files_return_none(self, tmp_path, monkeypatch):
        monkeypatch.setenv("LINFNORM_DATA_DIR", str(tmp_path))
        assert load_benchmark("build") is None

    def test_roundtrip_descriptor(self, tmp_path, monkeypatch):
        folder = tmp_path / "toy"
        folder.mkdir()
        write_mtx_dense(folder / "E.mtx", [[1.0]])
        write_mtx_dense(folder / "A.mtx", [[-1.0]])
        write_mtx_dense(folder / "B.mtx", [[1.0]])
        write_mtx_dense(folder / "C.mtx", [[1.0]])
        monkeypatch.setenv("LINFNORM_DATA_DIR", str(tmp_path))
        tf = load_benchmark("toy")
        assert tf is not None
        assert tf.eval(2.0)[0, 0] == pytest.approx(1 / 3)
