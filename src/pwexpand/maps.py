"""Piecewise expanding interval maps on [0,1].

A map is a finite list of monotone branches tiling [0,1], each given by a
closed-form expression with Hölder-continuous derivative bounded away from
1 in modulus.  `make_map` checks the branch specs and samples each
branch's derivative once; it accepts anything that evaluates.  `validate`
judges those samples (expansion, monotonicity) and the images, and must
pass before the map is used elsewhere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import expr
from .errors import ConfigError, ToolError

#: residual |τ_i(x) - y| at which branch inversion stops, and the slack
#: `branch_inverse` allows outside the image
INVERSE_TOL = 1e-12

#: Newton/bisection steps before branch inversion gives up
_INVERSE_MAX_ITER = 200

#: geometric snap tolerance for breakpoints and images
_EDGE_TOL = 1e-9

#: points at which make_map samples τ' on each branch
BRANCH_SAMPLES = 512

#: sample pairs (dyadic grid points, and seeded draws) behind an estimated
#: Hölder constant
_HOLDER_PAIRS = 256
_HOLDER_SEED = 0


@dataclass(frozen=True)
class Interval:
    lo: float
    hi: float


@dataclass(frozen=True)
class Branch:
    """One monotone piece of the map.

    `formula` is the source text, `expression` its parsed form.
    `sampled_min_slope` is the minimum of |τ'| over the BRANCH_SAMPLES
    points, and `sign_consistent` says whether τ' has the sign
    `monotone_sign` at every one of them.  `min_slope` is the effective
    s_i: the declared value when the config supplies one
    (`min_slope_declared`), otherwise 0.999 times `sampled_min_slope`.
    """

    domain: Interval
    formula: str
    expression: object
    monotone_sign: int
    sampled_min_slope: float
    sign_consistent: bool
    min_slope: float
    holder_constant: float
    image: Interval
    min_slope_declared: bool


@dataclass(frozen=True)
class PiecewiseMap:
    breakpoints: tuple
    branches: tuple
    holder_exponent: float

    @property
    def min_slope_global(self) -> float:
        """s = min_i s_i, the slope every constant uses."""
        return min(b.min_slope for b in self.branches)

    @property
    def holder_max(self) -> float:
        """M = max_i M_i."""
        return max(b.holder_constant for b in self.branches)


@dataclass(frozen=True)
class ValidationReport:
    """Every violation, as ``branch k ('formula'): what fails``."""

    violations: tuple

    @property
    def accepted(self) -> bool:
        return not self.violations

    def violation_summary(self) -> str:
        return "; ".join(self.violations) if self.violations else "no violations"


def _snap(x: float) -> float:
    """0 or 1 when x lies within _EDGE_TOL of it, else x."""
    for t in (0.0, 1.0):
        if abs(x - t) <= _EDGE_TOL:
            return t
    return x


def _config_number(value, where: str) -> float:
    """float(value) for a config field, or ConfigError naming the field.
    JSON's true and false are not numbers, though float() takes them."""
    try:
        x = float(value)
    except (TypeError, ValueError, OverflowError):
        x = math.nan
    if isinstance(value, bool) or not math.isfinite(x):
        raise ConfigError(f"{where} must be a finite number, got {value!r}")
    return x


def make_map(branch_specs, epsilon: float) -> PiecewiseMap:
    """Build a PiecewiseMap from branch specs.

    Each spec is a dict with keys ``lo``, ``hi``, ``formula`` and optional
    ``min_slope`` and ``holder_constant``.  Branches must tile [0,1] in
    order.  A malformed spec raises ConfigError; the expansion and
    monotonicity of the samples are judged by `validate`.
    """
    if not branch_specs:
        raise ConfigError("map needs at least one branch")
    epsilon = _config_number(epsilon, "epsilon")
    if not (0.0 < epsilon <= 1.0):
        raise ConfigError(f"epsilon must lie in (0,1], got {epsilon}")

    # tile [0,1]: snap adjacent endpoints together and the extremes to 0, 1
    edges = [0.0]
    for k, spec in enumerate(branch_specs):
        if not isinstance(spec, dict):
            raise ConfigError(f"branch {k} must be an object")
        for key in ("lo", "hi", "formula"):
            if key not in spec:
                raise ConfigError(f"branch {k} is missing {key!r}")
        lo = _config_number(spec["lo"], f"branch {k} 'lo'")
        hi = _config_number(spec["hi"], f"branch {k} 'hi'")
        if abs(lo - edges[-1]) > _EDGE_TOL:
            raise ConfigError(
                f"branch {k} starts at {lo}, expected {edges[-1]} (branches must tile [0,1])")
        if hi <= lo:
            raise ConfigError(f"branch {k} has empty interval [{lo}, {hi}]")
        edges.append(_snap(hi))
    if edges[-1] != 1.0:
        raise ConfigError(f"last branch ends at {edges[-1]}, expected 1")

    branches = []
    for k, spec in enumerate(branch_specs):
        lo, hi = edges[k], edges[k + 1]
        formula = spec["formula"]
        try:
            tree = expr.parse(formula)
        except expr.ParseError as err:
            raise ConfigError(f"branch {k} formula {formula!r}: {err}") from err
        decl_holder = spec.get("holder_constant")
        if decl_holder is not None:
            decl_holder = _config_number(decl_holder, f"branch {k} 'holder_constant'")
            if decl_holder < 0.0:
                raise ConfigError(
                    f"branch {k} 'holder_constant' must be at least 0, got {decl_holder}")
        xs = np.linspace(lo, hi, BRANCH_SAMPLES)
        try:
            vals, ders = expr.eval_with_derivative(tree, xs)
            v_lo = expr.evaluate(tree, lo)
            v_hi = expr.evaluate(tree, hi)
            holder = (decl_holder if decl_holder is not None
                      else _holder_from_samples(tree, lo, hi, epsilon))
        except expr.EvalError as err:
            raise ConfigError(f"branch {k} ({formula!r}) fails to evaluate: {err}") from err
        if not (np.all(np.isfinite(vals)) and np.all(np.isfinite(ders))):
            raise ConfigError(f"branch {k} ({formula!r}) is non-finite on its domain")

        # the sign of at least half the samples; np.median would give the
        # same, but its first call imports numpy.ma (~14 ms of a map load)
        sign = 1 if 2 * np.count_nonzero(ders >= 0) >= ders.size else -1
        sampled_min = float(np.min(np.abs(ders)))
        declared = spec.get("min_slope")
        if declared is not None:
            declared = _config_number(declared, f"branch {k} 'min_slope'")
        min_slope = declared if declared is not None else 0.999 * sampled_min

        a, b = _snap(float(v_lo)), _snap(float(v_hi))
        image = Interval(min(a, b), max(a, b))
        branches.append(Branch(
            domain=Interval(lo, hi), formula=formula, expression=tree,
            monotone_sign=sign, sampled_min_slope=sampled_min,
            sign_consistent=bool(np.all(np.sign(ders) == sign)),
            min_slope=min_slope, holder_constant=holder, image=image,
            min_slope_declared=declared is not None))
    return PiecewiseMap(breakpoints=tuple(edges), branches=tuple(branches),
                        holder_exponent=float(epsilon))


def validate(pmap: PiecewiseMap) -> ValidationReport:
    """Judge every branch's samples and its stored s_i (declared, or 0.999
    times the sampled minimum) against the class conditions: |τ'| ≥ s_i > 1,
    consistent monotonicity, image inside [0,1]."""
    violations = []
    for k, br in enumerate(pmap.branches):
        where = f"branch {k} ({br.formula!r})"
        observed_min = br.sampled_min_slope
        if observed_min <= 1.0:
            violations.append(
                f"{where}: slope {observed_min:.6g} is not greater than 1")
        elif br.min_slope <= 1.0:
            kind = ("declared" if br.min_slope_declared
                    else "effective (0.999 x sampled)")
            violations.append(
                f"{where}: {kind} min slope {br.min_slope:.6g} is not greater than 1")
        elif observed_min < br.min_slope - _EDGE_TOL:
            violations.append(
                f"{where}: observed min slope {observed_min:.6g} below declared "
                f"{br.min_slope:.6g}")
        if not br.sign_consistent:
            violations.append(f"{where}: derivative changes sign on the branch")
        if br.image.lo < -_EDGE_TOL or br.image.hi > 1.0 + _EDGE_TOL:
            violations.append(
                f"{where}: image [{br.image.lo:.6g}, {br.image.hi:.6g}] leaves [0,1]")
    return ValidationReport(violations=tuple(violations))


def _holder_from_samples(tree, lo: float, hi: float, epsilon: float) -> float:
    """Max of |τ'(x)-τ'(y)|/|x-y|^ε over two pools of sample pairs: the
    adjacent pairs of a dyadic grid of _HOLDER_PAIRS cells, and
    _HOLDER_PAIRS draws from a fixed-seed generator."""
    grid = np.linspace(lo, hi, _HOLDER_PAIRS + 1)
    _, dg = expr.eval_with_derivative(tree, grid)
    best = float(np.max(np.abs(np.diff(dg)) / np.abs(np.diff(grid)) ** epsilon))

    rng = np.random.default_rng(_HOLDER_SEED)
    xy = lo + (hi - lo) * rng.random((_HOLDER_PAIRS, 2))
    x, y = xy[:, 0], xy[:, 1]
    keep = x != y
    if np.any(keep):
        _, dx = expr.eval_with_derivative(tree, x[keep])
        _, dy = expr.eval_with_derivative(tree, y[keep])
        ratios = np.abs(dx - dy) / np.abs(x[keep] - y[keep]) ** epsilon
        best = max(best, float(np.max(ratios)))
    return best


def check_slope_condition(pmap: PiecewiseMap, p: float):
    """Evaluate 1/s^(1/p) + 1/s for s the global minimum slope.

    Returns (value, holds) where holds means the strict inequality < 1;
    this is what makes the contraction coefficient alpha beatable.
    """
    if not p >= 1:
        raise ConfigError(f"p must be at least 1, got {p}")
    s = pmap.min_slope_global
    if s <= 1.0:
        raise ConfigError(f"minimum slope {s} is not greater than 1")
    value = 1.0 / s ** (1.0 / p) + 1.0 / s
    return value, bool(value < 1.0)


def invert_branch_array(branch: Branch, ys) -> np.ndarray:
    """Vectorized bisection-safeguarded Newton inversion of one branch.

    Every y must already lie inside the branch image (clip first); use
    `branch_inverse` for the checked scalar form.  An image end gets its
    domain end exactly, without iterating: Newton overshoots the bracket
    there and bisection creeps toward it one bit per step.
    """
    ys = np.asarray(ys, dtype=float)
    img = branch.image
    # the domain ends mapping to img.lo and img.hi; the branch rises a -> b
    end_a, end_b = (branch.domain.lo, branch.domain.hi)[::branch.monotone_sign]
    out = np.where(ys == img.lo, end_a, end_b)
    inner = (ys != img.lo) & (ys != img.hi)
    ys = ys[inner]
    a, b = np.full(ys.shape, end_a), np.full(ys.shape, end_b)
    x = 0.5 * (a + b)
    res = None
    for _ in range(_INVERSE_MAX_ITER):
        val, der = expr.eval_with_derivative(branch.expression, x)
        res = val - ys
        done = np.abs(res) <= INVERSE_TOL
        if bool(np.all(done)):
            out[inner] = x
            return out
        # the bracket is arranged so tau(a) <= y <= tau(b); a negative
        # residual means x still sits on the a-side whatever the sign
        below = res < 0.0
        a = np.where(below, x, a)
        b = np.where(below, b, x)
        with np.errstate(divide="ignore", invalid="ignore"):
            xn = x - res / der
        inner_lo = np.minimum(a, b)
        inner_hi = np.maximum(a, b)
        bad = ~np.isfinite(xn) | (xn < inner_lo) | (xn > inner_hi)
        xn = np.where(bad, 0.5 * (a + b), xn)
        x = np.where(done, x, xn)
    worst = float(np.max(np.abs(res)))
    raise ToolError(
        f"branch inversion did not reach tol={INVERSE_TOL} in "
        f"{_INVERSE_MAX_ITER} iterations (worst residual {worst:g}) for "
        f"branch {branch.formula!r}")


def branch_inverse(branch: Branch, y: float) -> float:
    """Solve τ_i(x) = y on the branch domain."""
    img = branch.image
    if y < img.lo - INVERSE_TOL or y > img.hi + INVERSE_TOL:
        raise ToolError(
            f"y={y!r} is outside the branch image [{img.lo}, {img.hi}]")
    y_in = min(max(y, img.lo), img.hi)
    return float(invert_branch_array(branch, np.array([y_in]))[0])


def apply_map(pmap: PiecewiseMap, xs):
    """Evaluate τ pointwise (breakpoints resolve to the right-hand branch,
    except x=1 which belongs to the last branch)."""
    xs = np.asarray(xs, dtype=float)
    scalar = xs.ndim == 0
    xs = np.atleast_1d(xs)
    inner = np.asarray(pmap.breakpoints[1:-1])
    idx = np.searchsorted(inner, xs, side="right")
    out = np.empty(xs.shape)
    for k, br in enumerate(pmap.branches):
        mask = idx == k
        if np.any(mask):
            out[mask] = expr.evaluate(br.expression, xs[mask])
    return float(out[0]) if scalar else out
