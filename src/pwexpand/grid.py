"""Piecewise-constant functions on a uniform grid over [0,1], with the
oscillation profiles, L^q oscillation norms, and generalized variations
that make up the bounded-variation machinery.

Conventions:
  * cell k covers [k/n, (k+1)/n) and carries one value;
  * integrals are cell averages (mean of values);
  * a cell belongs to the window S_r(x) iff its midpoint does, so the
    window around cell k is the index range |j - k| <= ceil(r*n) - 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import expr, kernels
from .errors import ConfigError

#: geometric spacing of the radius grid used to approximate sup over r
RADIUS_RATIO = 1.2

#: default radius cap
DEFAULT_A = 0.125


def _lq_norm(values: np.ndarray, lq: float, nonnegative: bool = False) -> float:
    """L^q norm on [0,1] in mean-power form; lq=inf gives the sup norm.
    `nonnegative` values are used as they are, without |v|, and lq=1 is
    the plain mean.

    When |v|^q overflows, or underflows to 0 for nonzero data, the norm is
    taken as max|v| * mean((|v|/max|v|)^q)^(1/q) instead."""
    mags = values if nonnegative else np.abs(values)
    if math.isinf(lq):
        return float(np.max(mags))
    with np.errstate(over="ignore"):
        # sum / size is the double np.mean returns, without its overhead
        norm = float(mags.sum() / mags.size if lq == 1
                     else np.mean(mags ** lq) ** (1.0 / lq))
    if not math.isfinite(norm) or (norm == 0.0 and np.any(mags)):
        top = np.max(mags)
        norm = float(top * np.mean((mags / top) ** lq) ** (1.0 / lq))
    return norm


@dataclass(frozen=True, eq=False)
class GridFunction:
    values: np.ndarray  # one per cell; n = values.size

    def __post_init__(self):
        vals = np.array(self.values, dtype=float)
        if vals.ndim != 1:
            raise ConfigError(
                f"grid values must be a 1-D array, got shape {vals.shape}")
        if vals.size < 2:
            raise ConfigError(f"grid needs at least 2 cells, got {vals.size}")
        if not np.all(np.isfinite(vals)):
            raise ConfigError("grid values must be finite")
        vals.flags.writeable = False
        object.__setattr__(self, "values", vals)

    @property
    def n(self) -> int:
        return self.values.size

    def midpoints(self) -> np.ndarray:
        return (np.arange(self.n) + 0.5) / self.n

    def norm_lq(self, lq: float) -> float:
        """L^q norm on [0,1] in mean-power form; lq=inf gives the sup norm."""
        return _lq_norm(self.values, lq)


@dataclass(frozen=True, eq=False)
class VariationReport:
    lq_exponent: float
    p: float
    A: float
    radii: np.ndarray
    variation: float
    lq_norm: float
    argmax_radius: float

    @property
    def bv_norm(self) -> float:
        return self.variation + self.lq_norm


def project(e, n: int) -> GridFunction:
    """Cell averages of an expression, by 3-point Gauss–Legendre per cell
    (exact through degree 5, so linear and quadratic tests are exact)."""
    if n < 2:
        raise ConfigError(f"grid needs at least 2 cells, got {n}")
    mids = (np.arange(n) + 0.5) / n
    delta = math.sqrt(0.6) / (2.0 * n)
    # one walk per node set: a walk's temporaries are n cells, not 3n
    left, center, right = (expr.evaluate(e, mids + d)
                           for d in (-delta, 0.0, delta))
    # a sum that overflows gives inf, which GridFunction rejects
    with np.errstate(over="ignore", invalid="ignore"):
        values = (5.0 * left + 8.0 * center + 5.0 * right) / 18.0
    return GridFunction(values)


def window_half_width(r: float, n: int) -> int:
    """Cells j with |j-k| <= half have midpoints within distance < r of
    cell k's midpoint; half = ceil(r*n) - 1 realizes the open window."""
    return max(int(math.ceil(r * n)) - 1, 0)


def radius_grid(n: int, A: float) -> np.ndarray:
    """Geometric radii from one cell width up to A, ratio about 1.2."""
    r_min = 1.0 / n
    if A <= r_min:
        return np.array([A])
    count = max(4, int(math.ceil(math.log(A * n) / math.log(RADIUS_RATIO))) + 1)
    return np.geomspace(r_min, A, count)


def variation(f: GridFunction, lq: float, p: float,
              A: float = DEFAULT_A) -> VariationReport:
    """Generalized variation: sup over 0 < r <= A of the L^lq norm of the
    oscillation profile (sup - inf of f over each window S_r) over
    r^(1/p), approximated by a max over a geometric radius grid."""
    if not (0.0 < A <= 1.0):
        raise ConfigError(f"A must lie in (0,1], got {A}")
    if not p >= 1:
        raise ConfigError(f"p must be at least 1, got {p}")
    if math.isinf(p):
        raise ConfigError(f"p must be finite, got {p}")
    if not lq >= 1:
        raise ConfigError(f"lq must be >= 1 or inf, got {lq}")

    radii = radius_grid(f.n, A)
    # the smallest radii share half-widths (half = 1 for r*n in (1, 2]), and
    # the first radius of each has its largest ratio, so one sweep over the
    # distinct half-widths computes each profile norm once
    first = {}
    for r in radii:
        first.setdefault(window_half_width(r, f.n), r)
    best, best_r = -1.0, float(radii[0])
    # the sweep's buffers are overwritten by its next step, so the profile
    # can take hi's place
    for r, (lo, hi) in zip(first.values(),
                           kernels.sliding_minmax_sweep(f.values, list(first))):
        ratio = (_lq_norm(np.subtract(hi, lo, out=hi), lq, nonnegative=True)
                 / r ** (1.0 / p))
        if ratio > best:
            best, best_r = ratio, float(r)
    return VariationReport(
        lq_exponent=lq, p=p, A=A, radii=radii,
        variation=best, lq_norm=f.norm_lq(lq), argmax_radius=best_r)
