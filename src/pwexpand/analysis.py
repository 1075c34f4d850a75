"""Checks and samples of the constants that `maps.ly_constants` computes,
and correlation-decay measurement.  Every step of P here is one step of
the Ulam operator L = Pᵀ on the grid, built once per call: the inequality
var(Lf) <= alpha*var(f) + beta*||f||_1 is checked on random test
functions, and correlation series decay to rounding at the mixing rate
of that finite Markov chain.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

import numpy as np

from . import expr
from .errors import ConfigError, ToolError
from .grid import GridFunction, project, variation
from .maps import PiecewiseMap, check_ly_ranges, ly_constants
from .transfer import (ESS_MARGIN, UlamOperator, invariant_density,
                       power_iterate, ulam_matrix)

#: correlation values below this are treated as exact zeros
NOISE_FLOOR = 1e-14

#: fewest consecutive values above NOISE_FLOOR that give a fitted rate
MIN_RUN = 4

#: highest degree of a random trigonometric test function, and most jumps
#: of a random step function
_MAX_DEGREE = _MAX_JUMPS = 8

#: estimate_equicontinuity_L's sample: test functions, iterates of each,
#: grid size and seed
_L_TRIALS, _L_ITERATES, _L_GRID, _L_SEED = 12, 20, 1024, 7

#: estimate_equicontinuity_L's starting value, which it returns when no
#: sampled iterate's norm exceeds the norm of its start
L_FLOOR = 1.0


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
    r_ess: float          # the essential spectral radius bound of P

    @property
    def N_values(self) -> np.ndarray:
        return np.arange(len(self.C_values))

    @property
    def rate_inside_ess(self) -> bool:
        """A fitted rate within r_ess + 1e-8, where Ulam eigenvalues move
        with the grid (Keller–Liverani)."""
        return (self.fitted_rate is not None
                and self.fitted_rate <= self.r_ess + ESS_MARGIN)

    @property
    def no_rate_reason(self):
        """Why `fit_decay_rate` gave no rate, or None when it gave one."""
        if self.fitted_rate is not None:
            return None
        return (f"fewer than {MIN_RUN} consecutive values above the noise "
                f"floor {NOISE_FLOOR:g}")


def _normal(draw) -> float:
    """A standard normal by Box–Muller from two uniform draws; 1 - u lies
    in (0, 1], so its logarithm is finite."""
    radius = math.sqrt(-2.0 * math.log(1.0 - draw()))
    return radius * math.cos(2.0 * math.pi * draw())


def _random_trig(draw, basis, n: int) -> np.ndarray:
    out = np.full(n, _normal(draw))
    for k, (cos_k, sin_k) in enumerate(basis, start=1):
        a, b = _normal(draw) / k, _normal(draw) / k
        out += a * cos_k + b * sin_k
    return out


def _random_step(draw, n: int) -> np.ndarray:
    jumps = 1 + int(draw() * _MAX_JUMPS)
    edges = sorted(1 + int(draw() * (n - 1)) for _ in range(jumps))
    out = np.empty(n)
    start = 0
    for edge in edges + [n]:
        out[start:edge] = _normal(draw)
        start = edge
    return out


def _test_functions(n: int, count: int, seed: int):
    """`random_test_functions` one at a time.  Every number comes from
    ``random.Random(seed).random()``, whose sequence Python keeps the same
    across versions for a given seed: a normal is Box–Muller on two
    draws, an integer in [lo, lo + span) is lo + int(draw * span).  The cos
    and sin rows of each degree are computed once per call and shared by
    the trigonometric functions."""
    # Random(-s) seeds like Random(s), so a negative seed would repeat one
    if seed < 0:
        raise ConfigError(f"seed must be a non-negative integer, got {seed}")
    draw = random.Random(seed).random
    x = (np.arange(n) + 0.5) / n
    basis = [(np.cos(2.0 * math.pi * k * x), np.sin(2.0 * math.pi * k * x))
             for k in range(1, _MAX_DEGREE + 1)]
    for i in range(count):
        yield GridFunction(_random_trig(draw, basis, n) if i % 2 == 0
                           else _random_step(draw, n))


def random_test_functions(n: int, count: int, seed: int):
    """Seeded list of grid test functions, alternating trigonometric
    polynomials (degree <= _MAX_DEGREE, normal coefficients, the degree-k
    ones divided by k) and step functions (1 to _MAX_JUMPS jumps at
    uniform cells, normal levels), all drawn from
    ``random.Random(seed).random()``."""
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
        l1_f = f.norm_lq(1.0)
        lhs = variation(GridFunction(op.apply_t(f.values)),
                        1.0, p, A).variation
        rhs = alpha * var_f + beta * l1_f
        margins[i] = rhs - lhs
        slacks[i] = 10.0 / n * (1.0 + var_f)
    return LYVerification(p=p, A=A, alpha=alpha, beta=beta, n=n, seed=seed,
                          margins=margins, slacks=slacks)


def _unique_invariant_density(op: UlamOperator) -> GridFunction:
    """`invariant_density` of `op` from the uniform start, with a
    uniqueness probe: power iteration from the cell averages of the
    densities 2x and 3x² must settle, and at the same fixed point;
    disagreement means the unit eigenvalue is not simple.  A smooth,
    non-uniform start puts an O(1) share of its mass on each part of a
    reducible or cyclic map, where a random start would put ~n^(-1/2).
    A probe that does not settle shows no second fixed point, only that P
    may have another eigenvalue on the unit circle."""
    h = invariant_density(op)
    edges = np.linspace(0.0, 1.0, op.n + 1)
    for name, start in (("2x", edges ** 2), ("3x^2", edges ** 3)):
        h1 = power_iterate(op.apply_t, op.n * np.diff(start),
                           f"the start density {name}")
        if float(np.mean(np.abs(h1 - h.values))) > 1e-6:
            raise ToolError(
                "different starting densities reach different fixed points; "
                "the invariant measure is not unique (inspect the spectrum)")
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
    # an overflow gives inf or nan, which the check below reports
    with np.errstate(over="ignore", invalid="ignore"):
        F = fv * h if kind == "invariant" else fv
        gv = gv - float(np.mean(gv * h))
        C = np.array([abs(float(np.mean(cur * gv)))
                      for cur in op.orbit(F, N_max)])
    bad = np.flatnonzero(~np.isfinite(C))
    if bad.size:
        raise ToolError(
            f"correlation C({bad[0]}) = {C[bad[0]]} overflows a double; "
            "scale f or g down")
    rate, quality = fit_decay_rate(C)
    return CorrelationSeries(kind=kind, C_values=C, fitted_rate=rate,
                             fit_quality=quality, r_ess=op.r_ess)


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
    against N, rate = exp(slope).  Returns (rate, R^2), or (None, None)
    when fewer than MIN_RUN contiguous values lie above NOISE_FLOOR (an
    exactly zero series is a legitimate outcome)."""
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
    if best_len < MIN_RUN:
        return None, None
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
    """Empirical stand-in for the uniform bound sup_n ||L^n f|| / ||f|| in
    the t-BV norm ||g|| = V_{t,p}(g) + ||g||_{L^t} (`variation(g, t, p,
    A).bv_norm`), over _L_TRIALS test functions on a _L_GRID-cell grid,
    each iterated _L_ITERATES times by the Ulam operator L there, and
    never below L_FLOOR.  NOT rigorous: a sampled maximum, clearly a lower
    bound of the true constant; use for exploration only.  Checks p, t
    and A first (`check_ly_ranges`)."""
    check_ly_ranges(pmap, p, t, A)
    op = ulam_matrix(pmap, _L_GRID)
    best = L_FLOOR
    # the _L_SEED test functions are fixed and none is zero, so denom > 0
    for f in _test_functions(_L_GRID, _L_TRIALS, _L_SEED):
        denom, *norms = (variation(GridFunction(g), t, p, A).bv_norm
                         for g in op.orbit(f.values, _L_ITERATES))
        # best first: max keeps it against a nan ratio
        best = max(best, *(norm / denom for norm in norms))
    return best
