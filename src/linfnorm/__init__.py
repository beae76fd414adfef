"""L-infinity norm computation for structured transfer functions
H(s) = C(s) D(s)^{-1} B(s) with a large middle factor, via greedy
two-sided subspace projection."""

from .errors import (AllShiftsSingular, DimensionMismatch, InvalidBound,
                     LinfNormError, NoConvergence, ParseError, PencilSingular,
                     SingularShift, UnboundedOnAxis)
from .greedy import (RunConfig, SolverResult, SubspaceState,
                     check_interpolation, expand, expansion_block, run)
from .inner import (InnerConfig, InnerResult, bb_norm, imaginary_crossings,
                    maximize, qsupport_maximize)
from .oracle import SweepResult, grid_norm, sweep_csv
from .problems import (descriptor_tf, load_benchmark, load_problem,
                       make_delay_fixture)
from .reduced import (dominant_frequencies, project, rational_realization,
                      sigma_and_slope, sigma_max)
from .structured import MatrixFactor, ScalarTerm, StructuredTF

__all__ = [
    "AllShiftsSingular", "DimensionMismatch", "InvalidBound", "LinfNormError",
    "NoConvergence", "ParseError", "PencilSingular", "SingularShift",
    "UnboundedOnAxis",
    "RunConfig", "SolverResult", "SubspaceState", "check_interpolation",
    "expand", "expansion_block", "run",
    "InnerConfig", "InnerResult", "bb_norm", "imaginary_crossings",
    "maximize", "qsupport_maximize",
    "SweepResult", "grid_norm", "sweep_csv",
    "descriptor_tf", "load_benchmark", "load_problem", "make_delay_fixture",
    "dominant_frequencies", "project", "rational_realization",
    "sigma_and_slope", "sigma_max",
    "MatrixFactor", "ScalarTerm", "StructuredTF",
]

__version__ = "0.1.0"
