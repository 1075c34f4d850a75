"""Explicit contraction constants for the transfer operator, empirical
verification of the variation inequality, and correlation-decay
measurement.

All constants are evaluated exactly from (M, s, q, p, t, A); nothing here
is fitted.  At t = 1 the radius cap A that makes C = 2 + beta/(1 - alpha)
smallest is found in closed form, from the real roots of a quartic in
D = M*A^(1/p)/s^(1+1/p).  Every step of P here is one step of the Ulam
operator L = Pᵀ on the grid, built once per call: the inequality
var(Lf) <= alpha*var(f) + beta*||f||_1 is checked on random test
functions, and correlation series decay to rounding at the mixing rate
of that finite Markov chain.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import expr
from .errors import ConfigError, ToolError
from .grid import DEFAULT_A, GridFunction, project, variation
from .maps import PiecewiseMap, check_slope_condition
from .transfer import (UlamOperator, invariant_density, power_iterate,
                       ulam_matrix)

#: correlation values below this are treated as exact zeros
NOISE_FLOOR = 1e-14

#: highest degree of a random trigonometric test function, and most jumps
#: of a random step function
_MAX_DEGREE = _MAX_JUMPS = 8

#: estimate_equicontinuity_L's sample: test functions, iterates of each,
#: grid size and seed
_L_TRIALS, _L_ITERATES, _L_GRID, _L_SEED = 12, 20, 1024, 7


class NoRateError(ToolError):
    """Too few above-floor correlation values to fit a decay rate."""


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


@dataclass(frozen=True, eq=False)
class LYVerification:
    p: float
    A: float
    alpha: float
    beta: float
    n: int
    seed: int
    margins: np.ndarray  # rhs - lhs per trial
    slacks: np.ndarray   # allowed grid slack per trial

    @property
    def violations(self) -> int:
        """Trials with margin < -slack."""
        return int(np.sum(self.margins < -self.slacks))


@dataclass(frozen=True, eq=False)
class CorrelationSeries:
    kind: str  # "lebesgue" or "invariant"
    C_values: np.ndarray  # C(N) for N = 0, 1, ...
    fitted_rate: object   # float, or None when the series sits at the floor
    fit_quality: object   # R^2 of the log-linear fit, or None

    @property
    def N_values(self) -> np.ndarray:
        return np.arange(len(self.C_values))


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


def _random_trig(rng, basis, n: int) -> np.ndarray:
    out = np.full(n, rng.normal())
    for k, (cos_k, sin_k) in enumerate(basis, start=1):
        a, b = rng.normal(size=2) / k
        out += a * cos_k + b * sin_k
    return out


def _random_step(rng, n: int) -> np.ndarray:
    jumps = rng.integers(1, _MAX_JUMPS + 1)
    edges = np.sort(rng.integers(1, n, size=jumps))
    levels = rng.normal(size=jumps + 1)
    out = np.empty(n)
    start = 0
    for edge, level in zip(list(edges) + [n], levels):
        out[start:edge] = level
        start = edge
    return out


def _test_functions(n: int, count: int, seed: int):
    """`random_test_functions` one at a time.  The cos and sin rows of
    each degree are computed once per call and shared by the trigonometric
    functions, which sum them in the same order as when each function
    computed its own, so the bits do not change."""
    if seed < 0:
        raise ConfigError(f"seed must be a non-negative integer, got {seed}")
    rng = np.random.default_rng(seed)
    x = (np.arange(n) + 0.5) / n
    basis = [(np.cos(2.0 * math.pi * k * x), np.sin(2.0 * math.pi * k * x))
             for k in range(1, _MAX_DEGREE + 1)]
    for i in range(count):
        yield GridFunction(_random_trig(rng, basis, n) if i % 2 == 0
                           else _random_step(rng, n))


def random_test_functions(n: int, count: int, seed: int):
    """Seeded list of grid test functions, alternating trigonometric
    polynomials (degree <= _MAX_DEGREE) and step functions (<= _MAX_JUMPS
    jumps)."""
    return list(_test_functions(n, count, seed))


def ly_verify(pmap: PiecewiseMap, p: float, A: float, trials: int, n: int,
              seed: int = 0) -> LYVerification:
    """Empirically check var(Lf) <= alpha*var(f) + beta*||f||_1 for the
    Ulam operator L = Pᵀ on n bins on random test functions, allowing the
    grid slack 10/n * (1 + var f)."""
    consts = ly_constants(pmap, p=p, t=1.0, A=A)
    alpha, beta = consts.alpha, consts.beta
    op = ulam_matrix(pmap, n)
    margins = np.empty(trials)
    slacks = np.empty(trials)
    for i, f in enumerate(_test_functions(n, trials, seed)):
        var_f = variation(f, 1.0, p, A).variation
        l1_f = float(np.mean(np.abs(f.values)))
        lhs = variation(GridFunction(op.apply_t(f.values)),
                        1.0, p, A).variation
        rhs = alpha * var_f + beta * l1_f
        margins[i] = rhs - lhs
        slacks[i] = 10.0 / n * (1.0 + var_f)
    return LYVerification(p=p, A=A, alpha=alpha, beta=beta, n=n, seed=seed,
                          margins=margins, slacks=slacks)


def _unique_invariant_density(op: UlamOperator) -> GridFunction:
    """`invariant_density` of `op` from the uniform start, with a
    uniqueness probe: power iteration from two random starts must settle,
    and at the same fixed point; disagreement means the unit eigenvalue is
    not simple.  A probe that does not settle shows no second fixed point,
    only that P may have another eigenvalue on the unit circle."""
    h = invariant_density(op)
    rng = np.random.default_rng(1234)
    for _ in range(2):
        start = 0.5 + rng.random(op.n)
        h1, converged, residual, steps = power_iterate(
            op.apply_t, start / np.mean(start))
        if not converged:
            raise ToolError(
                f"power iteration from a random start stalled at L1 residual "
                f"{residual:g} after {steps} iterations; P may have another "
                "eigenvalue on the unit circle — inspect spectrum()")
        if float(np.mean(np.abs(h1 - h.values))) > 1e-6:
            raise ToolError(
                "different starting densities reach different fixed points; "
                "the invariant measure is not unique — inspect spectrum()")
    return h


def _correlation(kind: str, pmap: PiecewiseMap, f, g, N_max: int,
                 n: int) -> CorrelationSeries:
    """C(N) = |m(Lᴺ F · (g − μ(g)))| for N = 0..N_max, with L = Pᵀ the
    Ulam operator on n bins, μ = h·dm its invariant density, and F = f
    ("lebesgue") or F = f·h ("invariant").  L conserves mass, so this is
    |m(Lᴺ F · g) − m(F)·μ(g)|.  Centering g first keeps the tail at
    rounding: two terms of size m(F)·μ(g) that cancel leave ~1e-14 on
    tripling, above NOISE_FLOOR."""
    f, g = (expr.parse(e) if isinstance(e, str) else e for e in (f, g))
    op = ulam_matrix(pmap, n)
    h = _unique_invariant_density(op).values
    fv, gv = project(f, n).values, project(g, n).values
    cur = fv * h if kind == "invariant" else fv
    gv = gv - float(np.mean(gv * h))
    C = np.empty(N_max + 1)
    for N in range(N_max + 1):
        C[N] = abs(float(np.mean(cur * gv)))
        if N < N_max:
            cur = op.apply_t(cur)
    try:
        rate, quality = fit_decay_rate(C)
    except NoRateError:
        rate = quality = None
    return CorrelationSeries(kind=kind, C_values=C, fitted_rate=rate,
                             fit_quality=quality)


def correlation_lebesgue(pmap: PiecewiseMap, f, g, N_max: int,
                         n: int) -> CorrelationSeries:
    """C_m(N) = |∫ Lᴺ f · g dm − m(f)·μ(g)| for N = 0..N_max.

    `f` and `g` are expressions (or strings); the integrals live on an
    n-cell grid, L is the Ulam operator there, and μ = h·dm its unique
    invariant measure.
    """
    return _correlation("lebesgue", pmap, f, g, N_max, n)


def correlation_invariant(pmap: PiecewiseMap, f, g, N_max: int,
                          n: int) -> CorrelationSeries:
    """C_μ(N) = |∫ f · g∘τᴺ dμ − μ(f)·μ(g)| = |∫ Lᴺ(f·h) · g dm − μ(f)·μ(g)|
    for N = 0..N_max, on the same grid, Ulam operator L and μ = h·dm as
    `correlation_lebesgue`.  A density that vanishes on part of [0, 1]
    needs no special case."""
    return _correlation("invariant", pmap, f, g, N_max, n)


def fit_decay_rate(C_values):
    """Exponential rate of the series C(N), N = 0, 1, ..., from the longest
    contiguous run of above-floor values: least-squares slope of log C(N)
    against N, rate = exp(slope).  Returns (rate, R^2)."""
    C = np.asarray(C_values, dtype=float)
    above = C > NOISE_FLOOR
    best_start, best_len = 0, 0
    start = None
    for i, flag in enumerate(np.append(above, False)):
        if flag and start is None:
            start = i
        elif not flag and start is not None:
            length = i - start
            if length >= best_len:  # prefer the later run on ties
                best_start, best_len = start, length
            start = None
    if best_len < 4:
        raise NoRateError(
            f"only {best_len} contiguous values above the {NOISE_FLOOR:g} "
            "floor; no decay rate can be fitted (the series may be exactly "
            "zero, which is a legitimate outcome)")
    N = np.arange(best_start, best_start + best_len, dtype=float)
    y = np.log(C[best_start:best_start + best_len])
    slope, intercept = np.polyfit(N, y, 1)
    fitted = slope * N + intercept
    ss_res = float(np.sum((y - fitted) ** 2))
    ss_tot = float(np.sum((y - np.mean(y)) ** 2))
    quality = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return float(np.exp(slope)), float(quality)


def estimate_equicontinuity_L(pmap: PiecewiseMap, p: float, t: float,
                              A: float) -> float:
    """Empirical stand-in for the uniform bound sup_n ||P^n f||_t / ||f||_t
    over _L_TRIALS test functions on a _L_GRID-cell grid, each iterated
    _L_ITERATES times by the Ulam operator there.  NOT rigorous: a sampled
    maximum, clearly a lower bound of the true constant; use for
    exploration only."""
    op = ulam_matrix(pmap, _L_GRID)
    best = 1.0
    for f in _test_functions(_L_GRID, _L_TRIALS, _L_SEED):
        denom = variation(f, t, p, A).bv_norm
        if denom <= 0:
            continue
        g = f
        for _ in range(_L_ITERATES):
            g = GridFunction(op.apply_t(g.values))
            ratio = variation(g, t, p, A).bv_norm / denom
            if ratio > best:
                best = ratio
    return best
