"""Piecewise expanding interval maps on [0,1].

A map is a finite list of monotone branches tiling [0,1], each given by a
closed-form expression with Hölder-continuous derivative bounded away from
1 in modulus.  `make_map` checks the branch specs and samples each
branch's derivative once; it accepts anything that evaluates.  `validate`
judges those samples (expansion, monotonicity) and the images, and must
pass before the map is used elsewhere.

The slope condition 1/s^(1/p) + 1/s < 1 and the Lasota–Yorke constants
of var(Pf) <= alpha*var(f) + beta*||f||_1 live here too, evaluated exactly
from (M, s, q, p, t, A); nothing here is fitted.  At t = 1 the radius cap
A that makes C = 2 + beta/(1 - alpha) smallest is found in closed form,
from the real roots of a quartic in D = M*A^(1/p)/s^(1+1/p).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import expr
from .errors import ConfigError, ToolError
from .grid import DEFAULT_A

#: residual |τ_i(x) - y| at which branch inversion stops
INVERSE_TOL = 1e-12

#: Newton/bisection steps before branch inversion gives up
_INVERSE_MAX_ITER = 200

#: points branch inversion iterates together; bounds its working memory
_INVERSE_CHUNK = 4096

#: geometric snap tolerance for breakpoints and images
_EDGE_TOL = 1e-9

#: the keys a branch spec may have
_BRANCH_KEYS = ("lo", "hi", "formula", "min_slope", "holder_constant")

#: points at which make_map samples τ' on each branch
BRANCH_SAMPLES = 512

#: cells of the grid whose every pair of points gives an estimated Hölder
#: constant
_HOLDER_CELLS = 256


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
    ``min_slope`` and ``holder_constant``, and no other.  Branches must
    tile [0,1] in order.  A malformed spec raises ConfigError, and so does
    a branch whose samples, or whose estimated Hölder constant M_i, are
    not finite; the expansion and monotonicity of the samples are judged
    by `validate`.
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
        unknown = next((key for key in spec if key not in _BRANCH_KEYS), None)
        if unknown is not None:
            raise ConfigError(f"branch {k} has unknown key {unknown!r}")
        if not isinstance(spec["formula"], str):
            raise ConfigError(
                f"branch {k} 'formula' must be a string, got {spec['formula']!r}")
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
        xs = np.linspace(lo, hi, BRANCH_SAMPLES)  # exactly lo to exactly hi
        nonfinite = f"branch {k} ({formula!r}) is non-finite on its domain"
        try:
            vals, ders = expr.eval_with_derivative(tree, xs)
            if not (np.all(np.isfinite(vals)) and np.all(np.isfinite(ders))):
                raise ConfigError(nonfinite)
            holder = (decl_holder if decl_holder is not None
                      else _holder_from_samples(tree, lo, hi, epsilon))
            # τ' can be nan at a Hölder grid point that the samples miss
            if not math.isfinite(holder):
                raise ConfigError(nonfinite)
        except expr.EvalError as err:
            raise ConfigError(f"branch {k} ({formula!r}) fails to evaluate: {err}") from err

        # the sign of at least half the samples; np.median would give the
        # same, but its first call imports numpy.ma (~14 ms of a map load)
        sign = 1 if 2 * np.count_nonzero(ders >= 0) >= ders.size else -1
        sampled_min = float(np.min(np.abs(ders)))
        declared = spec.get("min_slope")
        if declared is not None:
            declared = _config_number(declared, f"branch {k} 'min_slope'")
        min_slope = declared if declared is not None else 0.999 * sampled_min

        a, b = _snap(float(vals[0])), _snap(float(vals[-1]))
        image = Interval(min(a, b), max(a, b))
        branches.append(Branch(
            domain=Interval(lo, hi), formula=formula, expression=tree,
            monotone_sign=sign, sampled_min_slope=sampled_min,
            sign_consistent=bool(np.all(np.sign(ders) == sign)),
            min_slope=min_slope, holder_constant=holder, image=image,
            min_slope_declared=declared is not None))
    return PiecewiseMap(branches=tuple(branches), holder_exponent=float(epsilon))


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
    """Max of |τ'(x_j)-τ'(x_i)|/(x_j-x_i)^ε over every pair i < j of a
    uniform grid of _HOLDER_CELLS cells on [lo, hi]: τ' is evaluated once,
    at its _HOLDER_CELLS + 1 points, and the quotients of all 32 896 pairs
    (at 256 cells) are taken in one pass.  Adjacent pairs see the fine scale, far pairs the coarse one."""
    grid = np.linspace(lo, hi, _HOLDER_CELLS + 1)
    _, dg = expr.eval_with_derivative(tree, grid)
    i, j = np.triu_indices(grid.size, 1)
    with np.errstate(over="ignore", invalid="ignore"):
        return float(np.max(np.abs(dg[j] - dg[i]) / (grid[j] - grid[i]) ** epsilon))


def check_slope_condition(pmap: PiecewiseMap, p: float):
    """Evaluate 1/s^(1/p) + 1/s for s the global minimum slope.

    Returns (value, holds) where holds means the strict inequality < 1;
    this is what makes the contraction coefficient alpha beatable.
    """
    if not p >= 1:
        raise ConfigError(f"p must be at least 1, got {p}")
    if math.isinf(p):
        raise ConfigError(f"p must be finite, got {p}")
    s = pmap.min_slope_global
    if s <= 1.0:
        raise ConfigError(f"minimum slope {s} is not greater than 1")
    value = 1.0 / s ** (1.0 / p) + 1.0 / s
    return value, bool(value < 1.0)


@dataclass(frozen=True)
class LYConstants:
    p: float
    t: float
    A: float
    D: float
    alpha: float
    beta: float
    K: object  # float, or None when the equicontinuity constant is missing
    slope_condition_value: float

    @property
    def B(self) -> float:  # the constants take B = A
        return self.A

    @property
    def admissible(self) -> bool:
        return self.alpha < 1.0

    @property
    def C(self):
        """1 + K/(1 - alpha), or None when alpha >= 1 or K is missing."""
        if not self.admissible or self.K is None:
            return None
        return 1.0 + self.K / (1.0 - self.alpha)


def check_ly_ranges(pmap: PiecewiseMap, p: float, t: float, A: float) -> float:
    """ConfigError unless p >= 1, s > 1, p >= 1/epsilon, 1 <= t <= p and
    0 < A <= 1, the ranges `ly_constants` needs before it reads L; returns
    the slope condition's value 1/s^(1/p) + 1/s.

    The constants read M, the epsilon-Hölder constant of tau', as the
    constant of |tau'(x) - tau'(y)| <= M|x - y|^(1/p).  On [0,1] the
    first bounds the second only when 1/p <= epsilon."""
    slope_value, _ = check_slope_condition(pmap, p)
    eps = pmap.holder_exponent
    if p < 1.0 / eps:
        raise ConfigError(
            f"p must be at least 1/epsilon = {1.0 / eps:g} for the map's "
            f"epsilon = {eps:g}, got p={p}")
    if not (1.0 <= t <= p):
        raise ConfigError(f"t must lie in [1, p], got t={t}, p={p}")
    if not (0.0 < A <= 1.0):
        raise ConfigError(f"A must lie in (0,1], got {A}")
    return slope_value


def ly_constants(pmap: PiecewiseMap, p: float, t: float = 1.0,
                 A: float = DEFAULT_A, L=None) -> LYConstants:
    """Contraction constants for the variation inequality at radius cap A.

    For t=1 these are the one-norm constants; for 1 < t <= p the branch
    count enters and K additionally needs the equicontinuity constant L
    (supplied by the caller, typically from estimate_equicontinuity_L —
    an empirical, non-rigorous stand-in).
    """
    slope_value = check_ly_ranges(pmap, p, t, A)
    if L is not None and not math.isfinite(L):
        raise ConfigError(f"L must be a finite number, got {L}")
    s = pmap.min_slope_global
    M = pmap.holder_max
    q = len(pmap.branches)
    B = A
    D = M * A ** (1.0 / p) / s ** (1.0 + 1.0 / p)
    if t == 1.0:
        alpha = (2.0 ** (1.0 / p) * D * (1.0 + D) / s ** (1.0 / p)
                 + (1.0 + D) / s ** (1.0 / p)
                 + (1.0 + D) / s)
        beta = (2.0 ** (1.0 / p) * M * (1.0 + D) / s ** (1.0 + 1.0 / p)
                + ((1.0 + D) / s) * A ** (1.0 - 1.0 / p) / B)
        K = 1.0 - alpha + beta
    else:
        expo = 1.0 + 1.0 / p - 1.0 / t
        alpha = (2.0 ** (1.0 / p) * q * D * (1.0 + D) / s ** expo
                 + 2.0 * q * (1.0 + D) / s ** expo
                 + 2.0 * q * (1.0 + D) / s)
        beta = (2.0 ** (1.0 / p) * q * M * (1.0 + D) / s ** (1.0 + expo)
                + 2.0 * q * (1.0 + D) / (s * B ** (1.0 / p)))
        K = 1.0 - alpha + beta + L if L is not None else None
    if not (math.isfinite(alpha) and math.isfinite(beta)):
        raise ToolError(
            f"alpha = {alpha:g}, beta = {beta:g} at A={A:g}, p={p:g}, "
            f"t={t:g}: the constants overflow a double")
    return LYConstants(p=p, t=t, A=A, D=D, alpha=alpha, beta=beta, K=K,
                       slope_condition_value=slope_value)


def ly_constants_best_A(pmap: PiecewiseMap, p: float) -> LYConstants:
    """The t = 1 constants at the radius cap 0 < A <= DEFAULT_A that
    minimises beta/(1 - alpha), and so C = 2 + beta/(1 - alpha).

    With u = 1/p, c = M/s^(1+u), v the slope-condition value and
    D = c*A^u, the constants factor as alpha = (1+D)(v + (2/s)^u D) and
    beta = c(1+D)(2^u + 1/(sD)), so beta/(1 - alpha) = c*N(D)/Q(D) with
    N = (1+D)(2^u sD + 1) and Q = sD(1 - alpha), neither of which reads M.
    The best D is a real root of the quartic N'Q - NQ' in (0, c*DEFAULT_A^u]
    where Q > 0, or that end point; A = (D/c)^p."""
    s = pmap.min_slope_global
    slope_value = check_ly_ranges(pmap, p, 1.0, DEFAULT_A)
    if not slope_value < 1.0:
        raise ToolError(
            f"slope condition fails: 1/s^(1/p) + 1/s = {slope_value:.6g} >= 1 "
            f"at s={s:.6g}, p={p}; no radius cap can give alpha < 1")
    u = 1.0 / p
    c = pmap.holder_max / s ** (1.0 + u)
    top = c * DEFAULT_A ** u
    if top == 0.0:  # beta = A^-u/s falls with A
        return ly_constants(pmap, p=p, t=1.0, A=DEFAULT_A)
    P = np.polynomial.Polynomial
    N = P([1.0, 1.0]) * P([1.0, 2.0 ** u * s])
    Q = P([0.0, s]) * (1.0 - P([1.0, 1.0]) * P([slope_value, (2.0 / s) ** u]))
    roots = (N.deriv() * Q - N * Q.deriv()).roots().real
    with np.errstate(over="ignore"):  # Q(top) for a huge declared M
        D = min((D for D in (top, *roots) if 0.0 < D <= top and Q(D) > 0.0),
                key=lambda D: N(D) / Q(D))
    A = DEFAULT_A if D == top else float((D / c) ** p)
    if A == 0.0:
        raise ToolError(
            f"the best radius cap (D/c)^p = ({D:.6g}/{c:.6g})^{p:g} underflows "
            f"to 0 (s={s:.6g}, M={pmap.holder_max:.6g}, p={p})")
    return ly_constants(pmap, p=p, t=1.0, A=A)


def invert_branch_array(branch: Branch, ys) -> np.ndarray:
    """Vectorized bisection-safeguarded Newton inversion of one branch.

    Every y must already lie inside the branch image (clip first).  An
    image end gets its domain end exactly, without iterating: Newton
    overshoots the bracket there and bisection creeps toward it one bit
    per step.  The other
    points are solved _INVERSE_CHUNK at a time, so the working memory does
    not grow with len(ys); each point's iterates depend on that point
    alone, so the chunking changes no bit of the result.
    """
    ys = np.asarray(ys, dtype=float)
    img = branch.image
    # the domain ends mapping to img.lo and img.hi; the branch rises a -> b
    end_a, end_b = (branch.domain.lo, branch.domain.hi)[::branch.monotone_sign]
    out = np.where(ys == img.lo, end_a, end_b)
    inner = np.flatnonzero((ys != img.lo) & (ys != img.hi))
    for start in range(0, inner.size, _INVERSE_CHUNK):
        idx = inner[start:start + _INVERSE_CHUNK]
        out[idx] = _newton(branch, ys[idx], end_a, end_b)
    return out


def _newton(branch: Branch, ys: np.ndarray, end_a: float,
            end_b: float) -> np.ndarray:
    """x in the bracket [end_a, end_b] with |τ(x) - y| <= INVERSE_TOL for
    each y strictly inside the image; a converged point stays frozen while
    the others iterate."""
    a, b = np.full(ys.shape, end_a), np.full(ys.shape, end_b)
    x = 0.5 * (a + b)
    for _ in range(_INVERSE_MAX_ITER):
        val, der = expr.eval_with_derivative(branch.expression, x)
        res = val - ys
        done = np.abs(res) <= INVERSE_TOL
        if bool(np.all(done)):
            return x
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
    # every earlier chunk converged, so this chunk holds the worst residual
    # of all the points evaluated so far
    worst = float(np.max(np.abs(res)))
    raise ToolError(
        f"branch inversion did not reach tol={INVERSE_TOL} in "
        f"{_INVERSE_MAX_ITER} iterations (worst residual {worst:g}) for "
        f"branch {branch.formula!r}")

