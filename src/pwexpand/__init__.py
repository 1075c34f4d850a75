"""Transfer operators, generalized bounded variation, and explicit
contraction constants for piecewise expanding interval maps, with a
Lorenz next-maximum return-map pipeline."""

from .analysis import (
    CorrelationSeries,
    LYConstants,
    LYVerification,
    correlation_invariant,
    correlation_lebesgue,
    estimate_equicontinuity_L,
    fit_decay_rate,
    ly_constants,
    ly_constants_best_A,
    ly_verify,
)
from .errors import ConfigError, ToolError
from .expr import eval_with_derivative, evaluate, format_expression, parse
from .grid import GridFunction, VariationReport, osc_profile, osc_q, project, variation
from .lorenz import (
    LorenzConfig,
    ReturnMapData,
    build_return_map,
    extract_z_maxima,
    fit_piecewise,
    integrate,
)
from .mapconfig import dump_map_config, load_map, map_from_config, map_to_config
from .maps import (
    Branch,
    Interval,
    PiecewiseMap,
    apply_map,
    branch_inverse,
    check_slope_condition,
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
    "apply_map",
    "branch_inverse",
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
    "format_expression",
    "integrate",
    "invariant_density",
    "iterate_norm_series",
    "load_map",
    "ly_constants",
    "ly_constants_best_A",
    "ly_verify",
    "make_map",
    "map_from_config",
    "map_to_config",
    "osc_profile",
    "osc_q",
    "parse",
    "project",
    "spectrum",
    "ulam_matrix",
    "validate",
    "variation",
]
