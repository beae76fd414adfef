"""The benchmark tracer still finds the library names it patches."""

import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"
#: hooks on methods that no longer exist; their metrics already read 0
STALE = {"StructuredTF.eval_derivative", "StructuredTF.solve_d_adjoint"}


def test_tracer_finds_its_hooks():
    # a renamed library name would leave its hook unset and its per-layer
    # metric reading 0 without an error
    spec = importlib.util.spec_from_file_location("tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    tracer = tracing.Tracer()
    try:
        tracer.install()
        assert set(tracer.missing) <= STALE
    finally:
        tracer.uninstall()
