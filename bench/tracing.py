"""In-memory span tracer that wraps linfnorm's layer boundaries from outside.

The hooks replace names where linfnorm calls them (``linfnorm.greedy.project``
and friends, and a few ``StructuredTF``/``MatrixFactor`` methods) and put the
originals back on ``uninstall``.  Full-order and reduced ``StructuredTF`` calls
are told apart by object identity: the harness registers each job's problem
with ``set_problem``.  A span is ``[name, start, end, parent, job, attrs]``.
"""

from __future__ import annotations

import json
import statistics
from time import perf_counter

import linfnorm.greedy as greedy
import linfnorm.inner as inner
import linfnorm.structured as structured


def _ncols(block) -> int:
    shape = getattr(block, "shape", ())
    return shape[1] if len(shape) == 2 else 1


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.job = None
        self.full = None
        self.full_d = None
        self.assemblies = 0
        self.missing = []
        self._undo = []

    # -- spans ---------------------------------------------------------------
    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, perf_counter(), 0.0, parent, self.job, None])
        self.stack.append(idx)
        return idx

    def close(self, idx: int, attrs: dict | None = None) -> None:
        span = self.spans[idx]
        span[2] = perf_counter()
        span[5] = attrs
        self.stack.pop()

    def call(self, name, fn, *args, **kwargs):
        idx = self.open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.close(idx)

    def set_problem(self, tf) -> None:
        """Marks ``tf`` as the current job's full-order function."""
        self.full = tf
        self.full_d = None if tf is None else tf.d_factor

    # -- hooks ---------------------------------------------------------------
    def install(self) -> None:
        stf, mf = structured.StructuredTF, structured.MatrixFactor
        self._patch(greedy, "expansion_block", self._plain("greedy.expansion_block"))
        self._patch(greedy, "expand", self._expand)
        self._patch(greedy, "project", self._plain("reduced.project"))
        self._patch(greedy, "maximize", self._maximize)
        self._patch(inner, "imaginary_crossings", self._plain("inner.eigensolve"))
        self._patch(stf, "eval", self._by_order("structured.eval", "reduced.eval"))
        self._patch(stf, "eval_derivative", self._by_order(
            "structured.eval_derivative", "reduced.eval_derivative"))
        self._patch(stf, "solve_d", self._solve)
        self._patch(stf, "solve_d_adjoint", self._solve)
        self._patch(stf, "_factorization", self._full_only("structured.factorization"))
        self._patch(mf, "eval", self._assembly)

    def uninstall(self) -> None:
        while self._undo:
            owner, name, orig = self._undo.pop()
            setattr(owner, name, orig)

    def _patch(self, owner, name, make_wrapper) -> None:
        orig = getattr(owner, name, None)
        if orig is None:
            self.missing.append(f"{owner.__name__}.{name}")
            return
        setattr(owner, name, make_wrapper(orig))
        self._undo.append((owner, name, orig))

    def _plain(self, span):
        def make(orig):
            def wrapper(*args, **kwargs):
                return self.call(span, orig, *args, **kwargs)
            return wrapper
        return make

    def _by_order(self, full_span, reduced_span):
        def make(orig):
            def wrapper(tf, *args, **kwargs):
                span = full_span if tf is self.full else reduced_span
                return self.call(span, orig, tf, *args, **kwargs)
            return wrapper
        return make

    def _full_only(self, span):
        def make(orig):
            def wrapper(tf, *args, **kwargs):
                if tf is not self.full:
                    return orig(tf, *args, **kwargs)
                return self.call(span, orig, tf, *args, **kwargs)
            return wrapper
        return make

    def _solve(self, orig):
        def wrapper(tf, s, rhs, *args, **kwargs):
            if tf is not self.full:
                return orig(tf, s, rhs, *args, **kwargs)
            before = self.assemblies
            idx = self.open("structured.solve")
            try:
                return orig(tf, s, rhs, *args, **kwargs)
            finally:
                # no assembly of D during the solve: a cached LU served it
                self.close(idx, {"cols": _ncols(rhs),
                                 "hit": self.assemblies == before})
        return wrapper

    def _assembly(self, orig):
        def wrapper(factor, *args, **kwargs):
            if factor is not self.full_d:
                return orig(factor, *args, **kwargs)
            # every assembly of the full-order D(s) is followed by one LU
            self.assemblies += 1
            return self.call("structured.d_assembly", orig, factor, *args, **kwargs)
        return wrapper

    def _expand(self, orig):
        def wrapper(state, vb, wb, *args, **kwargs):
            idx = self.open("greedy.expand")
            new = None
            try:
                new = orig(state, vb, wb, *args, **kwargs)
                return new
            finally:
                kept = 2 * (new.dim - state.dim) if new is not None else 0
                self.close(idx, {"offered": _ncols(vb) + _ncols(wb),
                                 "kept": kept})
        return wrapper

    def _maximize(self, orig):
        def wrapper(*args, **kwargs):
            idx = self.open("inner.maximize")
            res = None
            try:
                res = orig(*args, **kwargs)
                return res
            finally:
                self.close(idx, {"evaluations": getattr(res, "evaluations", 0)})
        return wrapper

    # -- output --------------------------------------------------------------
    def write_jsonl(self, path, t0: float) -> None:
        with open(path, "w") as fh:
            for name, start, end, parent, job, attrs in self.spans:
                fh.write(json.dumps({
                    "name": name, "start": start - t0, "end": end - t0,
                    "parent": parent, "job": job, "attrs": attrs}) + "\n")


LAYERS = ("structured", "greedy", "reduced", "inner", "oracle", "problems")


def layer_metrics(spans, wall: float) -> tuple[dict, dict]:
    """Per-layer times and counts of one traced round.

    Returns (times, counts): times in seconds or as ratios, counts as ints
    that must repeat exactly for one seed.
    """
    n = len(spans)
    dur = [s[2] - s[1] for s in spans]
    child = [0.0] * n
    root = list(range(n))
    for i, (_, _, _, parent, _, _) in enumerate(spans):
        if parent >= 0:
            child[parent] += dur[i]
            root[i] = root[parent]
    incl, self_t, count = {}, {}, {}
    layer_self = dict.fromkeys(LAYERS, 0.0)
    attr = {}
    for i, (name, _, _, parent, _, attrs) in enumerate(spans):
        incl[name] = incl.get(name, 0.0) + dur[i]
        self_t[name] = self_t.get(name, 0.0) + dur[i] - child[i]
        count[name] = count.get(name, 0) + 1
        layer = name.split(".", 1)[0]
        layer_self[layer] = layer_self.get(layer, 0.0) + dur[i] - child[i]
        for key, value in (attrs or {}).items():
            attr[name, key] = attr.get((name, key), 0) + int(value)
    certify_s = sum(dur[i] for i, s in enumerate(spans)
                    if s[0] == "structured.eval" and s[3] >= 0
                    and spans[s[3]][0] == "greedy.run")
    sigma_evals = sum(1 for i, s in enumerate(spans)
                      if s[0] == "structured.eval"
                      and spans[root[i]][0] == "oracle.grid_norm")
    roots_s = sum(dur[i] for i, s in enumerate(spans) if s[3] < 0)

    def ratio(a, b):
        return a / b if b else 0.0

    counts = {
        "structured.lu_count": count.get("structured.d_assembly", 0),
        "structured.solve_count": count.get("structured.solve", 0),
        "structured.solve_cols": attr.get(("structured.solve", "cols"), 0),
        "structured.solve_hits": attr.get(("structured.solve", "hit"), 0),
        "greedy.offered_cols": attr.get(("greedy.expand", "offered"), 0),
        "greedy.kept_cols": attr.get(("greedy.expand", "kept"), 0),
        "reduced.project_count": count.get("reduced.project", 0),
        "reduced.eval_count": count.get("reduced.eval", 0),
        "inner.maximize_count": count.get("inner.maximize", 0),
        "inner.evaluations": attr.get(("inner.maximize", "evaluations"), 0),
        "inner.eigensolve_count": count.get("inner.eigensolve", 0),
        "oracle.sigma_evals": sigma_evals,
    }
    sweep_s = incl.get("oracle.grid_norm", 0.0)
    times = {
        "structured.lu_s": self_t.get("structured.factorization", 0.0),
        "structured.d_assembly_s": incl.get("structured.d_assembly", 0.0),
        "structured.solve_s": self_t.get("structured.solve", 0.0),
        "structured.cache_hit_ratio": ratio(counts["structured.solve_hits"],
                                            counts["structured.solve_count"]),
        "greedy.expand_s": incl.get("greedy.expand", 0.0),
        "greedy.kept_col_ratio": ratio(counts["greedy.kept_cols"],
                                       counts["greedy.offered_cols"]),
        "greedy.expansion_block_self_s": self_t.get("greedy.expansion_block", 0.0),
        "greedy.certify_s": certify_s,
        "reduced.project_s": incl.get("reduced.project", 0.0),
        "reduced.eval_s": (incl.get("reduced.eval", 0.0)
                           + incl.get("reduced.eval_derivative", 0.0)),
        "inner.maximize_s": incl.get("inner.maximize", 0.0),
        "inner.evals_per_maximize": ratio(counts["inner.evaluations"],
                                          counts["inner.maximize_count"]),
        "inner.eigensolve_s": incl.get("inner.eigensolve", 0.0),
        "oracle.sweep_s": sweep_s,
        "oracle.evals_per_s": ratio(sigma_evals, sweep_s),
        "problems.build_s": incl.get("problems.build", 0.0),
        "trace.wall_s": wall,
        "trace.attributed_frac": ratio(roots_s, wall),
    }
    for layer in LAYERS[:-1]:
        times[f"{layer}.self_s"] = layer_self[layer]
    return times, counts


def median_times(rounds: list[dict]) -> dict:
    return {k: statistics.median(r[k] for r in rounds) for k in rounds[0]}
