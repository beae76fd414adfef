"""SuperLU (scipy.sparse.linalg) and the Matrix Market reader (scipy.io)
load on first use, not with ``import linfnorm``, and scipy.sparse loads only
once a sparse matrix is made.  The other tests share one interpreter, where
these modules are loaded already, so these run fresh interpreters with src/
on the path."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

DEFERRED = ("scipy.sparse.linalg", "scipy.io")

SCRIPT = """
import json, sys
DEFERRED = {deferred!r}
loaded = lambda: [m for m in DEFERRED if m in sys.modules]
import linfnorm
out = {{"import": loaded()}}
import numpy as np
import scipy.sparse as sp
system = np.load(sys.argv[2])
e, a, b, c = (system[k] for k in "eabc")
s = 0.3 + 1.7j
ref = c @ np.linalg.solve(s * e - a, b)
tf = linfnorm.descriptor_tf(sp.csc_matrix(e), sp.csc_matrix(a), b, c)
out["superlu_err"] = float(np.linalg.norm(tf.eval(s) - ref) / np.linalg.norm(ref))
out["superlu"] = loaded()
tf, _ = linfnorm.load_problem(sys.argv[1])
out["manifest_err"] = float(np.linalg.norm(tf.eval(s) - ref) / np.linalg.norm(ref))
out["manifest"] = loaded()
print(json.dumps(out))
"""


def write_mtx(path, mat, coordinate):
    """Matrix Market file of a real matrix, in coordinate (sparse) or array
    (dense) format."""
    if coordinate:
        rows, cols = np.nonzero(mat)
        lines = ["%%MatrixMarket matrix coordinate real general",
                 f"{mat.shape[0]} {mat.shape[1]} {rows.size}"]
        lines += [f"{i + 1} {j + 1} {mat[i, j]:.17e}" for i, j in zip(rows, cols)]
    else:
        lines = ["%%MatrixMarket matrix array real general",
                 f"{mat.shape[0]} {mat.shape[1]}"]
        lines += [f"{v:.17e}" for v in mat.flatten(order="F")]
    path.write_text("\n".join(lines) + "\n")


def write_problem(tmp_path):
    """A manifest of coordinate E and A and array B and C files, and the
    same system in system.npz; returns the manifest's path."""
    # a pentadiagonal A, so that the sparse D(s) = sE - A is not tridiagonal
    # and takes SuperLU
    n = 30
    rng = np.random.default_rng(60)
    a = np.diag(rng.uniform(-1.0, 1.0, n) - 6.0)
    for offset in (1, 2):
        a += np.diag(rng.uniform(-1.0, 1.0, n - offset), offset)
        a += np.diag(rng.uniform(-1.0, 1.0, n - offset), -offset)
    e, b, c = np.eye(n), rng.standard_normal((n, 2)), rng.standard_normal((2, n))
    np.savez(tmp_path / "system.npz", e=e, a=a, b=b, c=c)
    write_mtx(tmp_path / "E.mtx", e, coordinate=True)
    write_mtx(tmp_path / "A.mtx", -a, coordinate=True)
    write_mtx(tmp_path / "B.mtx", b, coordinate=False)
    write_mtx(tmp_path / "C.mtx", c, coordinate=False)
    manifest = tmp_path / "problem.json"
    manifest.write_text(json.dumps({
        "dimensions": {"n": n, "m": 2, "p": 2},
        "B": [{"matrix": "B.mtx"}],
        "C": [{"matrix": "C.mtx"}],
        "D": [{"k": 1, "matrix": "E.mtx"}, {"matrix": "A.mtx"}],
    }))
    return manifest


def run_fresh(script, *args):
    """The JSON that script prints, run in a fresh interpreter with src/ on
    the path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run(
        [sys.executable, "-c", script, *map(str, args)],
        capture_output=True, text=True, env=env, timeout=120, check=True)
    return json.loads(proc.stdout)


def test_superlu_and_mmread_load_on_first_use(tmp_path):
    manifest = write_problem(tmp_path)
    out = run_fresh(SCRIPT.format(deferred=DEFERRED), manifest,
                    tmp_path / "system.npz")
    assert out["import"] == []
    assert out["superlu"] == ["scipy.sparse.linalg"]
    assert out["manifest"] == list(DEFERRED)
    assert out["superlu_err"] <= 1e-12
    assert out["manifest_err"] <= 1e-12


DENSE_SCRIPT = """
import json, sys
import numpy as np
loaded = lambda: "scipy.sparse" in sys.modules
import linfnorm
out = {"import": loaded()}
n = 12
rng = np.random.default_rng(8)
a = -np.diag(np.arange(1.0, n + 1.0)) + 0.1 * rng.standard_normal((n, n))
tf = linfnorm.descriptor_tf(np.eye(n), a, rng.standard_normal((n, 2)),
                            rng.standard_normal((2, n)))
res = linfnorm.run(tf, linfnorm.RunConfig(omega_max=5.0, r0=4))
out["run"] = loaded()
sweep = linfnorm.grid_norm(tf, (0.0, 5.0), 50)
out["grid_norm"] = loaded()
out["agree"] = bool(abs(res.norm - sweep.best_sigma) <= 1e-6 * res.norm)
print(json.dumps(out))
"""

LOADER_SCRIPT = """
import json, sys
loaded = lambda: "scipy.sparse" in sys.modules
import linfnorm
before = loaded()
if sys.argv[1] == "fixture":
    tf = linfnorm.make_delay_fixture(50)
else:
    tf, _ = linfnorm.load_problem(sys.argv[1])
print(json.dumps({"before": before, "after": loaded(),
                  "n": tf.n, "is_real": tf.is_real}))
"""


def test_dense_runs_leave_scipy_sparse_unloaded():
    out = run_fresh(DENSE_SCRIPT)
    assert out == {"import": False, "run": False, "grid_norm": False,
                   "agree": True}


@pytest.mark.parametrize("source", ["fixture", "manifest"])
def test_sparse_input_loads_scipy_sparse(tmp_path, source):
    arg = write_problem(tmp_path) if source == "manifest" else source
    out = run_fresh(LOADER_SCRIPT, arg)
    assert out == {"before": False, "after": True,
                   "n": 50 if source == "fixture" else 30, "is_real": True}
