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
from dataclasses import dataclass, field

import numpy as np

from . import expr
from .errors import ConfigError, ToolError

#: default tolerance for branch inversion
INVERSE_TOL = 1e-12

#: geometric snap tolerance for breakpoints and images
_EDGE_TOL = 1e-9

#: points at which make_map samples τ' on each branch
BRANCH_SAMPLES = 512


class ValidationError(ToolError):
    """A map failed `validate`; the report's violations are the message."""


class OutOfImageError(ToolError):
    """Requested preimage of a point outside the branch image."""


class RootFindError(ToolError):
    """Branch inversion failed to converge (should not happen for
    validated monotone branches)."""


@dataclass(frozen=True)
class Interval:
    lo: float
    hi: float

    @property
    def width(self) -> float:
        return self.hi - self.lo


@dataclass(frozen=True)
class Branch:
    """One monotone piece of the map.

    `formula` is the source text, `expression` its parsed form.
    `sampled_min_slope` is the minimum of |τ'| over the BRANCH_SAMPLES
    points, and `sign_consistent` says whether τ' has the sign
    `monotone_sign` at every one of them.  `min_slope` is the effective
    s_i: the declared value when the config supplies one, otherwise 0.999
    times `sampled_min_slope`.
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
    declared_min_slope: float | None = None
    declared_holder: float | None = None

    def __call__(self, x):
        return expr.evaluate(self.expression, x)


@dataclass(frozen=True)
class PiecewiseMap:
    breakpoints: tuple
    branches: tuple
    holder_exponent: float
    # derived quantities, filled in by make_map
    branch_count: int
    p: float
    min_slope_global: float
    holder_max: float
    # scratch for transfer-operator stencils, keyed by grid size
    _cache: dict = field(default_factory=dict, compare=False, repr=False)


@dataclass(frozen=True)
class BranchReport:
    index: int
    formula: str
    observed_min_slope: float
    sign_consistent: bool
    violations: tuple


@dataclass(frozen=True)
class ValidationReport:
    accepted: bool
    branch_reports: tuple

    def violation_summary(self) -> str:
        lines = []
        for rep in self.branch_reports:
            for v in rep.violations:
                lines.append(f"branch {rep.index} ({rep.formula!r}): {v}")
        return "; ".join(lines) if lines else "no violations"


def _snap(x: float, targets=(0.0, 1.0), tol: float = _EDGE_TOL) -> float:
    for t in targets:
        if abs(x - t) <= tol:
            return t
    return x


def _config_number(value, where: str) -> float:
    """float(value) for a config field, or ConfigError naming the field."""
    try:
        x = float(value)
    except (TypeError, ValueError, OverflowError):
        x = math.nan
    if not math.isfinite(x):
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
                      else _holder_from_samples(tree, lo, hi, epsilon, 256))
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
            declared_min_slope=declared, declared_holder=decl_holder))

    branches = tuple(branches)
    return PiecewiseMap(
        breakpoints=tuple(edges),
        branches=branches,
        holder_exponent=float(epsilon),
        branch_count=len(branches),
        p=1.0 / float(epsilon),
        min_slope_global=min(b.min_slope for b in branches),
        holder_max=max(b.holder_constant for b in branches),
    )


def validate(pmap: PiecewiseMap) -> ValidationReport:
    """Judge every branch's samples and its stored s_i (declared, or 0.999
    times the sampled minimum) against the class conditions: |τ'| ≥ s_i > 1,
    consistent monotonicity, image inside [0,1]."""
    reports = []
    for k, br in enumerate(pmap.branches):
        violations = []
        observed_min = br.sampled_min_slope
        if observed_min <= 1.0:
            violations.append(
                f"slope {observed_min:.6g} is not greater than 1")
        elif br.min_slope <= 1.0:
            kind = ("declared" if br.declared_min_slope is not None
                    else "effective (0.999 x sampled)")
            violations.append(
                f"{kind} min slope {br.min_slope:.6g} is not greater than 1")
        elif observed_min < br.min_slope - _EDGE_TOL:
            violations.append(
                f"observed min slope {observed_min:.6g} below declared {br.min_slope:.6g}")
        if not br.sign_consistent:
            violations.append("derivative changes sign on the branch")
        if br.image.lo < -_EDGE_TOL or br.image.hi > 1.0 + _EDGE_TOL:
            violations.append(
                f"image [{br.image.lo:.6g}, {br.image.hi:.6g}] leaves [0,1]")
        reports.append(BranchReport(
            index=k, formula=br.formula,
            observed_min_slope=observed_min,
            sign_consistent=br.sign_consistent,
            violations=tuple(violations)))
    accepted = all(not r.violations for r in reports)
    return ValidationReport(accepted=accepted, branch_reports=tuple(reports))


def _holder_from_samples(tree, lo: float, hi: float, epsilon: float,
                         pairs: int, rng_seed: int = 0) -> float:
    """Max of |τ'(x)-τ'(y)|/|x-y|^ε over nested sample pairs.

    Two pools, both prefix-nested so the estimate can only grow with
    `pairs`: adjacent pairs on a dyadic grid, and sequential draws from a
    fixed-seed generator.
    """
    level = max(2, math.ceil(math.log2(max(pairs, 2))))
    grid = np.linspace(lo, hi, 2 ** level + 1)
    _, dg = expr.eval_with_derivative(tree, grid)
    num = np.abs(np.diff(dg))
    den = np.abs(np.diff(grid)) ** epsilon
    best = float(np.max(num / den)) if len(grid) > 1 else 0.0

    rng = np.random.default_rng(rng_seed)
    xy = lo + (hi - lo) * rng.random((pairs, 2))
    x, y = xy[:, 0], xy[:, 1]
    keep = x != y
    if np.any(keep):
        _, dx = expr.eval_with_derivative(tree, x[keep])
        _, dy = expr.eval_with_derivative(tree, y[keep])
        ratios = np.abs(dx - dy) / np.abs(x[keep] - y[keep]) ** epsilon
        best = max(best, float(np.max(ratios)))
    return best


def estimate_holder_constant(pmap: PiecewiseMap, pairs_per_branch: int):
    """Per-branch estimates of the derivative's Hölder constant M_i."""
    if pairs_per_branch < 10:
        raise ConfigError("pairs_per_branch must be at least 10")
    out = []
    for br in pmap.branches:
        out.append(_holder_from_samples(
            br.expression, br.domain.lo, br.domain.hi,
            pmap.holder_exponent, pairs_per_branch))
    return out


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


def invert_branch_array(branch: Branch, ys, tol: float = INVERSE_TOL,
                        max_iter: int = 200) -> np.ndarray:
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
    for _ in range(max_iter):
        val, der = expr.eval_with_derivative(branch.expression, x)
        res = val - ys
        done = np.abs(res) <= tol
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
    raise RootFindError(
        f"branch inversion did not reach tol={tol} in {max_iter} iterations "
        f"(worst residual {worst:g}) for branch {branch.formula!r}")


def branch_inverse(branch: Branch, y: float, tol: float = INVERSE_TOL) -> float:
    """Solve τ_i(x) = y on the branch domain."""
    img = branch.image
    if y < img.lo - tol or y > img.hi + tol:
        raise OutOfImageError(
            f"y={y!r} is outside the branch image [{img.lo}, {img.hi}]")
    y_in = min(max(y, img.lo), img.hi)
    return float(invert_branch_array(branch, np.array([y_in]), tol)[0])


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
