"""Transfer operators, generalized bounded variation, and explicit
contraction constants for piecewise expanding interval maps, with a
Lorenz next-maximum return-map pipeline."""

from .analysis import (
    CorrelationSeries,
    LYVerification,
    correlation_invariant,
    correlation_lebesgue,
    estimate_equicontinuity_L,
    fit_decay_rate,
    ly_verify,
)
from .errors import ConfigError, ToolError
from .expr import eval_with_derivative, evaluate, parse
from .grid import GridFunction, VariationReport, project, variation
from .lorenz import (
    LorenzConfig,
    ReturnMapData,
    build_return_map,
    extract_z_maxima,
    fit_piecewise,
    integrate,
)
from .mapconfig import dump_map_config, load_map
from .maps import (
    Branch,
    Interval,
    LYConstants,
    PiecewiseMap,
    check_slope_condition,
    ly_constants,
    ly_constants_best_A,
    make_map,
    validate,
)
from .transfer import (
    SpectralReport,
    UlamOperator,
    apply_fp,
    invariant_density,
    iterate_norm_series,
    spectrum,
    ulam_matrix,
)

__version__ = "0.1.0"

__all__ = [
    "Branch",
    "ConfigError",
    "CorrelationSeries",
    "GridFunction",
    "Interval",
    "LYConstants",
    "LYVerification",
    "LorenzConfig",
    "PiecewiseMap",
    "ReturnMapData",
    "SpectralReport",
    "ToolError",
    "UlamOperator",
    "VariationReport",
    "apply_fp",
    "build_return_map",
    "check_slope_condition",
    "correlation_invariant",
    "correlation_lebesgue",
    "dump_map_config",
    "estimate_equicontinuity_L",
    "eval_with_derivative",
    "evaluate",
    "extract_z_maxima",
    "fit_decay_rate",
    "fit_piecewise",
    "integrate",
    "invariant_density",
    "iterate_norm_series",
    "load_map",
    "ly_constants",
    "ly_constants_best_A",
    "ly_verify",
    "make_map",
    "parse",
    "project",
    "spectrum",
    "ulam_matrix",
    "validate",
    "variation",
]
