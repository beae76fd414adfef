"""SuperLU (scipy.sparse.linalg) and the Matrix Market reader (scipy.io)
load on first use, not with ``import linfnorm``.  The other tests share one
interpreter, where these modules are loaded already, so this one runs a
fresh interpreter with src/ on the path."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

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


def test_superlu_and_mmread_load_on_first_use(tmp_path):
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
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT.format(deferred=DEFERRED),
         str(manifest), str(tmp_path / "system.npz")],
        capture_output=True, text=True, env=env, timeout=120, check=True)
    out = json.loads(proc.stdout)
    assert out["import"] == []
    assert out["superlu"] == ["scipy.sparse.linalg"]
    assert out["manifest"] == list(DEFERRED)
    assert out["superlu_err"] <= 1e-12
    assert out["manifest_err"] <= 1e-12
