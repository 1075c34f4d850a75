"""Explicit contraction constants for the transfer operator, empirical
verification of the variation inequality, and correlation-decay
measurement.

All constants are evaluated exactly from (M, s, q, p, t, A); nothing here
is fitted.  The inequality var(Pf) <= alpha*var(f) + beta*||f||_1 is then
checked on random test functions, and correlation series are fitted for
their exponential rate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import expr
from .errors import ConfigError, ToolError
from .grid import GridFunction, project, variation
from .maps import PiecewiseMap, check_slope_condition
from .transfer import (apply_fp, invariant_density, power_iterate,
                       ulam_matrix)

#: correlation values below this are treated as exact zeros
NOISE_FLOOR = 1e-14

#: invariant densities must stay above this for the normalized operator
H_FLOOR = 1e-8


class InadmissibleError(ToolError):
    """No radius cap A can make the contraction coefficient < 1."""


class NoRateError(ToolError):
    """Too few above-floor correlation values to fit a decay rate."""


class AmbiguousMeasureError(ToolError):
    """The invariant density is not unique (unit eigenvalue not simple)."""


class DensityDegenerateError(ToolError):
    """Invariant density vanishes (below floor) on a set of positive measure."""


@dataclass(frozen=True)
class LYConstants:
    p: float
    t: float
    A: float
    B: float
    D: float
    alpha: float
    beta: float
    K: object  # float, or None when the equicontinuity constant is missing
    C: object  # float, or None when alpha >= 1
    slope_condition_value: float
    admissible: bool


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
    violations: int      # trials with margin < -slack


@dataclass(frozen=True, eq=False)
class CorrelationSeries:
    kind: str  # "lebesgue" or "invariant"
    N_values: np.ndarray
    C_values: np.ndarray
    fitted_rate: object   # float, or None when the series sits at the floor
    fit_quality: object   # R^2 of the log-linear fit, or None


def ly_constants(pmap: PiecewiseMap, p: float, t: float = 1.0,
                 A: float = 0.125, L=None) -> LYConstants:
    """Contraction constants for the variation inequality at radius cap A.

    For t=1 these are the one-norm constants; for 1 < t <= p the branch
    count enters and K additionally needs the equicontinuity constant L
    (supplied by the caller, typically from estimate_equicontinuity_L —
    an empirical, non-rigorous stand-in).
    """
    if not p >= 1:
        raise ConfigError(f"p must be at least 1, got {p}")
    if L is not None and not math.isfinite(L):
        raise ConfigError(f"L must be a finite number, got {L}")
    if not (1.0 <= t <= p):
        raise ConfigError(f"t must lie in [1, p], got t={t}, p={p}")
    if not (0.0 < A <= 1.0):
        raise ConfigError(f"A must lie in (0,1], got {A}")
    s = pmap.min_slope_global
    if s <= 1.0:
        raise ConfigError(f"minimum slope {s} is not greater than 1")
    M = pmap.holder_max
    q = pmap.branch_count
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
    admissible = alpha < 1.0
    C = 1.0 + K / (1.0 - alpha) if (admissible and K is not None) else None
    return LYConstants(
        p=p, t=t, A=A, B=B, D=D, alpha=alpha, beta=beta, K=K, C=C,
        slope_condition_value=1.0 / s ** (1.0 / p) + 1.0 / s,
        admissible=admissible)


def shrink_A_until_admissible(pmap: PiecewiseMap, p: float) -> LYConstants:
    """Halve A from 1/8 until alpha < 1 (possible exactly when the slope
    condition holds, since A → 0 sends alpha to the slope-condition value)."""
    s = pmap.min_slope_global
    slope_value, holds = check_slope_condition(pmap, p)
    if not holds:
        raise InadmissibleError(
            f"slope condition fails: 1/s^(1/p) + 1/s = {slope_value:.6g} >= 1 "
            f"at s={s:.6g}, p={p}; no radius cap can give alpha < 1")
    A = 0.125
    while A >= 2.0 ** -16:
        consts = ly_constants(pmap, p=p, t=1.0, A=A)
        if consts.admissible:
            return consts
        A *= 0.5
    raise InadmissibleError(
        f"alpha stayed >= 1 down to A = 2^-16 (s={s:.6g}, "
        f"M={pmap.holder_max:.6g}, p={p})")


def _random_trig(rng, n: int, max_degree: int = 8) -> np.ndarray:
    x = (np.arange(n) + 0.5) / n
    out = np.full(n, rng.normal())
    for k in range(1, max_degree + 1):
        a, b = rng.normal(size=2) / k
        out += a * np.cos(2.0 * math.pi * k * x) + b * np.sin(2.0 * math.pi * k * x)
    return out


def _random_step(rng, n: int, max_jumps: int = 8) -> np.ndarray:
    jumps = rng.integers(1, max_jumps + 1)
    edges = np.sort(rng.integers(1, n, size=jumps))
    levels = rng.normal(size=jumps + 1)
    out = np.empty(n)
    start = 0
    for edge, level in zip(list(edges) + [n], levels):
        out[start:edge] = level
        start = edge
    return out


def random_test_functions(n: int, count: int, seed: int):
    """Seeded stream of grid test functions, alternating trigonometric
    polynomials (degree <= 8) and step functions (<= 8 jumps)."""
    if seed < 0:
        raise ConfigError(f"seed must be a non-negative integer, got {seed}")
    rng = np.random.default_rng(seed)
    out = []
    for i in range(count):
        vals = _random_trig(rng, n) if i % 2 == 0 else _random_step(rng, n)
        out.append(GridFunction(n=n, values=vals))
    return out


def ly_verify(pmap: PiecewiseMap, p: float, A: float, trials: int, n: int,
              seed: int = 0) -> LYVerification:
    """Empirically check var(Pf) <= alpha*var(f) + beta*||f||_1 on random
    test functions, allowing the grid slack 10/n * (1 + var f)."""
    consts = ly_constants(pmap, p=p, t=1.0, A=A)
    alpha, beta = consts.alpha, consts.beta
    margins = np.empty(trials)
    slacks = np.empty(trials)
    for i, f in enumerate(random_test_functions(n, trials, seed)):
        var_f = variation(f, 1.0, p, A).variation
        l1_f = float(np.mean(np.abs(f.values)))
        lhs = variation(apply_fp(pmap, f), 1.0, p, A).variation
        rhs = alpha * var_f + beta * l1_f
        margins[i] = rhs - lhs
        slacks[i] = 10.0 / n * (1.0 + var_f)
    violations = int(np.sum(margins < -slacks))
    return LYVerification(p=p, A=A, alpha=alpha, beta=beta, n=n, seed=seed,
                          margins=margins, slacks=slacks, violations=violations)


def _unique_invariant_density(pmap: PiecewiseMap, n: int) -> GridFunction:
    """`invariant_density` from the uniform start, with a uniqueness probe:
    power iteration from two random starts must reach the same fixed
    point; disagreement means the unit eigenvalue is not simple."""
    op = ulam_matrix(pmap, n)
    h = invariant_density(op, 1e-13, 20000)
    rng = np.random.default_rng(1234)
    for _ in range(2):
        start = 0.5 + rng.random(n)
        h1, _, _, _ = power_iterate(
            op.apply_t, start / np.mean(start), 1e-13, 20000)
        if float(np.mean(np.abs(h1 - h.values))) > 1e-6:
            raise AmbiguousMeasureError(
                "different starting densities reach different fixed points; "
                "the invariant measure is not unique — inspect spectrum()")
    return h


def _fit_series(kind: str, C: np.ndarray) -> CorrelationSeries:
    series = CorrelationSeries(
        kind=kind, N_values=np.arange(len(C)), C_values=C,
        fitted_rate=None, fit_quality=None)
    try:
        rate, quality = fit_decay_rate(series)
    except NoRateError:
        return series
    return CorrelationSeries(kind=kind, N_values=series.N_values, C_values=C,
                             fitted_rate=rate, fit_quality=quality)


def _correlation(kind: str, pmap: PiecewiseMap, f, g, N_max: int,
                 n: int) -> CorrelationSeries:
    """C(N) = |m(P_w^N f · g · w) − m(f·w)·μ(g)| for N = 0..N_max, with
    P_w u = P(u·w)/w and the weight w = 1 ("lebesgue") or w = h
    ("invariant").  Multiplying or dividing by 1.0 is exact, so the
    Lebesgue series is the plain P^N f series bit for bit."""
    f, g = (expr.parse(e) if isinstance(e, str) else e for e in (f, g))
    h = _unique_invariant_density(pmap, n).values
    if kind == "invariant" and np.any(h <= H_FLOOR):
        raise DensityDegenerateError(
            f"invariant density is below {H_FLOOR:g} on {np.sum(h <= H_FLOOR)}"
            f" of {n} cells; the normalized operator is not defined there")
    w = h if kind == "invariant" else np.ones(n)
    fv, gv = project(f, n).values, project(g, n).values
    mu_f, mu_g = float(np.mean(fv * w)), float(np.mean(gv * h))
    C = np.empty(N_max + 1)
    cur = fv
    for N in range(N_max + 1):
        C[N] = abs(float(np.mean(cur * gv * w)) - mu_f * mu_g)
        if N < N_max:
            cur = apply_fp(pmap, GridFunction(n=n, values=cur * w)).values / w
    return _fit_series(kind, C)


def correlation_lebesgue(pmap: PiecewiseMap, f, g, N_max: int,
                         n: int) -> CorrelationSeries:
    """C_m(N) = |∫ P^N f · g dm − m(f)·μ(g)| for N = 0..N_max.

    `f` and `g` are expressions (or strings); the integrals live on an
    n-cell grid and μ is the unique invariant measure h·dm.
    """
    return _correlation("lebesgue", pmap, f, g, N_max, n)


def correlation_invariant(pmap: PiecewiseMap, f, g, N_max: int,
                          n: int) -> CorrelationSeries:
    """C_μ(N) via the normalized operator f ↦ P(f·h)/h, which fixes the
    constants and represents conditional expectation with respect to μ."""
    return _correlation("invariant", pmap, f, g, N_max, n)


def fit_decay_rate(series: CorrelationSeries):
    """Exponential rate from the longest contiguous run of above-floor
    values: least-squares slope of log C(N) against N, rate = exp(slope)."""
    C = np.asarray(series.C_values, dtype=float)
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
    N = np.asarray(series.N_values, dtype=float)[best_start:best_start + best_len]
    y = np.log(C[best_start:best_start + best_len])
    slope, intercept = np.polyfit(N, y, 1)
    fitted = slope * N + intercept
    ss_res = float(np.sum((y - fitted) ** 2))
    ss_tot = float(np.sum((y - np.mean(y)) ** 2))
    quality = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return float(np.exp(slope)), float(quality)


def estimate_equicontinuity_L(pmap: PiecewiseMap, p: float, t: float,
                              A: float, trials: int = 12, n_iter: int = 20,
                              n: int = 1024, seed: int = 7) -> float:
    """Empirical stand-in for the uniform bound sup_n ||P^n f||_t / ||f||_t
    over the test-function suite.  NOT rigorous: a sampled maximum, clearly
    a lower bound of the true constant; use for exploration only."""
    best = 1.0
    for f in random_test_functions(n, trials, seed):
        denom = variation(f, t, p, A).bv_norm
        if denom <= 0:
            continue
        g = f
        for _ in range(n_iter):
            g = apply_fp(pmap, g)
            ratio = variation(g, t, p, A).bv_norm / denom
            if ratio > best:
                best = ratio
    return best
