"""Grid functions, oscillation profiles, osc_q, generalized variation, and
the discrete forms of the three oscillation inequalities."""

import math

import numpy as np
import pytest

from pwexpand import grid
from pwexpand.errors import ConfigError
from pwexpand.expr import parse
from pwexpand.grid import (GridFunction, osc_profile, osc_q, project,
                           radius_grid, variation, window_half_width)
from pwexpand.maps import invert_branch_array


def step_function(n, rng, jumps=8):
    """Random piecewise-constant test function with `jumps` level changes."""
    edges = np.sort(rng.choice(np.arange(1, n), size=jumps, replace=False))
    levels = rng.normal(size=jumps + 1)
    values = np.empty(n)
    start = 0
    for edge, level in zip(list(edges) + [n], levels):
        values[start:edge] = level
        start = edge
    return GridFunction(values)


def brute_osc(values, half):
    n = len(values)
    out = np.zeros(n)
    if half <= 0:
        return out
    for k in range(n):
        window = values[max(0, k - half): min(n, k + half + 1)]
        out[k] = window.max() - window.min()
    return out


# ------------------------------------------------------------- projection

def test_project_constant():
    f = project(parse("1"), 8)
    assert np.array_equal(f.values, np.ones(8))
    assert np.mean(f.values) == 1.0


def test_project_linear_hits_midpoints():
    f = project(parse("x"), 4)
    assert np.allclose(f.values, [1 / 8, 3 / 8, 5 / 8, 7 / 8], atol=1e-15)


def test_project_quadratic_exact_cell_averages():
    f = project(parse("x^2"), 2)
    assert np.allclose(f.values, [1 / 12, 7 / 12], atol=1e-12)


def test_project_guards():
    with pytest.raises(ConfigError):
        project(parse("x"), 1)
    with pytest.raises(Exception):
        project(parse("log(x - 2)"), 4)  # evaluation error inside a cell


def test_grid_function_validation():
    with pytest.raises(ConfigError, match="at least 2 cells, got 1"):
        GridFunction([1.0])
    with pytest.raises(ConfigError, match="1-D array, got shape"):
        GridFunction(np.ones((4, 4)))
    assert GridFunction(np.arange(5.0)).n == 5
    with pytest.raises(ConfigError):
        GridFunction([1.0, np.nan])
    f = GridFunction([1.0, 2.0])
    with pytest.raises(ValueError):
        f.values[0] = 5.0  # read-only storage


def test_norm_lq():
    f = GridFunction([3.0, -4.0])
    assert f.norm_lq(1.0) == 3.5
    assert f.norm_lq(2.0) == pytest.approx(math.sqrt(12.5), rel=1e-15)
    assert f.norm_lq(math.inf) == 4.0


# ------------------------------------------------------------ oscillation

def test_osc_profile_constant_is_zero():
    f = GridFunction(np.full(32, 2.5))
    prof = osc_profile(f, 0.1)
    assert np.array_equal(prof.values, np.zeros(32))


def test_osc_profile_indicator_band():
    # indicator of [0,1/2) on n=64 at r=1/16: half-width ceil(4)-1 = 3, so
    # exactly the cells whose window straddles the 31|32 jump light up
    values = (np.arange(64) < 32).astype(float)
    prof = osc_profile(GridFunction(values), 1 / 16)
    expect = np.zeros(64)
    expect[29:35] = 1.0
    assert np.array_equal(prof.values, expect)


def test_osc_profile_linear_interior_and_edges():
    f = project(parse("x"), 256)
    prof = osc_profile(f, 0.1).values
    assert abs(prof[128] - 0.2) <= 0.01    # interior: about 2r
    assert abs(prof[0] - 0.1) <= 0.01      # endpoint: about r
    assert abs(prof[-1] - 0.1) <= 0.01


def test_osc_profile_matches_brute_force():
    rng = np.random.default_rng(3)
    for n in (64, 257, 1024):
        f = step_function(n, rng)
        for r in (1.0 / n, 0.003, 1 / 64, 0.05, 0.125, 0.9):
            prof = osc_profile(f, r)
            oracle = brute_osc(f.values, window_half_width(r, n))
            assert np.array_equal(prof.values, oracle), (n, r)


def test_osc_profile_monotone_in_r():
    rng = np.random.default_rng(4)
    f = step_function(512, rng)
    radii = np.geomspace(1 / 512, 1.0, 12)
    prev = np.zeros(512)
    for r in radii:
        cur = osc_profile(f, r).values
        assert np.all(cur >= prev - 1e-15)
        prev = cur


def test_osc_profile_radius_guard():
    f = GridFunction([0.0, 1.0])
    with pytest.raises(ConfigError):
        osc_profile(f, 0.0)
    with pytest.raises(ConfigError):
        osc_profile(f, 1.5)


def test_osc_q_examples():
    n = 1024
    values = (np.arange(n) < n // 2).astype(float)
    f = GridFunction(values)
    assert osc_q(f, 0.25, 1.0) > 0
    r = 1 / 16
    assert abs(osc_q(f, r, 1.0) - 2 * r) <= 2.5 / n   # measure of the band
    assert osc_q(f, r, math.inf) == 1.0
    assert osc_q(GridFunction(np.ones(16) * 7), 0.3, 2.0) == 0.0


def test_osc_q_monotone_in_r():
    rng = np.random.default_rng(8)
    f = step_function(256, rng)
    for lq in (1.0, 2.0, math.inf):
        vals = [osc_q(f, r, lq) for r in np.geomspace(1 / 256, 0.5, 10)]
        assert all(b >= a - 1e-15 for a, b in zip(vals, vals[1:]))


# -------------------------------------------------------------- variation

def test_variation_constant():
    rep = variation(GridFunction(np.full(64, -1.5)), 1.0, 1.0, A=0.25)
    assert rep.variation == 0.0
    assert rep.bv_norm == 1.5


def test_variation_indicator():
    n = 1024
    f = GridFunction((np.arange(n) < n // 2).astype(float))
    rep = variation(f, 1.0, 1.0, A=0.25)
    assert rep.variation == pytest.approx(2.0, rel=0.05)
    assert rep.variation < 2.0  # the discrete ratio stays strictly below 2
    assert rep.lq_norm == 0.5
    assert rep.bv_norm == rep.variation + rep.lq_norm
    assert rep.argmax_radius in rep.radii


def test_variation_linear():
    # osc_1(f, r) for f = x is 2r - r^2 + O(1/n), so the ratio 2 - r is
    # maximized at the smallest radius
    rep = variation(project(parse("x"), 1024), 1.0, 1.0, A=0.25)
    assert 1.85 < rep.variation <= 2.0
    assert rep.argmax_radius <= 0.006


def test_variation_radius_grid():
    radii = radius_grid(1024, 0.125)
    assert radii[0] == 1 / 1024
    assert radii[-1] == 0.125
    ratios = radii[1:] / radii[:-1]
    assert np.allclose(ratios, ratios[0], rtol=1e-12)  # geometric spacing
    assert 1.1 < ratios[0] < 1.3
    rep = variation(GridFunction(np.arange(16.0)), 1.0, 1.0, A=0.5)
    assert np.array_equal(rep.radii, radius_grid(16, 0.5))


def test_variation_matches_per_radius_brute_force():
    # the sweep over shared half-widths must give, float for float, the
    # max over radii of the brute-force profile norm over r^(1/p)
    n = 500
    f = project(parse("sin(7*x) + 0.3*cos(40*x^2)"), n)
    profiles = {}
    for p in (1.0, 2.0):
        for lq in (1.0, 2.5, math.inf):
            radii = radius_grid(n, 0.2)
            ratios = []
            for r in radii:
                half = window_half_width(r, n)
                if half not in profiles:
                    profiles[half] = GridFunction(brute_osc(f.values, half))
                ratios.append(profiles[half].norm_lq(lq) / r ** (1.0 / p))
            k = int(np.argmax(ratios))
            rep = variation(f, lq, p, A=0.2)
            assert np.array_equal(rep.radii, radii)
            assert rep.variation == ratios[k], (p, lq)
            assert rep.argmax_radius == float(radii[k]), (p, lq)
            assert rep.bv_norm == ratios[k] + f.norm_lq(lq)


def test_variation_finite_and_monotone_at_huge_q():
    # at q = 1e308, |osc|^q overflows (osc reaches 2) and |f|^q underflows
    # (|f| < 1); the rescaled form keeps both finite, and L^q norms on a
    # probability space are nondecreasing in q, so q = 1e308 lies between
    # q = 400 and the sup norm
    f = project(parse("sin(2*pi*x)"), 256)
    reps = [variation(f, q, 2.0, 0.125)
            for q in (1.0, 2.0, 400.0, 1e308, math.inf)]
    var = [r.variation for r in reps]
    lq = [r.lq_norm for r in reps]
    assert all(math.isfinite(v) for v in var + lq)
    assert var == sorted(var)
    assert lq == sorted(lq)


def test_variation_guards():
    f = GridFunction([0.0, 1.0])
    with pytest.raises(ConfigError):
        variation(f, 1.0, 1.0, A=0.0)
    with pytest.raises(ConfigError):
        variation(f, 1.0, 0.5, A=0.25)
    with pytest.raises(ConfigError):
        variation(f, 0.5, 1.0, A=0.25)


# ----------------------------------------- discrete oscillation inequalities

def pullback(f, branch, n):
    """f composed with the branch inverse, as cell values on the branch
    image (cells outside the image keep value 0 and are never compared)."""
    mids = (np.arange(n) + 0.5) / n
    inside = (mids > branch.image.lo) & (mids < branch.image.hi)
    ys = mids[inside]
    xs = invert_branch_array(branch, ys)
    src = np.clip(np.floor(xs * n).astype(int), 0, n - 1)
    values = np.zeros(n)
    values[inside] = f.values[src]
    return GridFunction(values), inside, src


def test_osc_composition_bound(tripling, markov, doubling):
    """Oscillation of f∘tau_i^{-1} at radius r is controlled by the
    oscillation of f at radius r/s_i, up to one-cell grid inflation."""
    rng = np.random.default_rng(9)
    n = 512
    full_branches = ([(b, 3.0) for b in tripling.branches]
                     + [(markov.branches[0], 1.5)]
                     + [(b, 2.0) for b in doubling.branches])
    for trial in range(10):
        f = step_function(n, rng)
        for branch, s in full_branches:
            g, inside, src = pullback(f, branch, n)
            for r in (4 / n, 0.02, 0.06):
                prof_g = osc_profile(g, r).values
                inflated = r / s + 2.0 / n
                prof_f = osc_profile(f, min(inflated, 1.0)).values
                idx = np.nonzero(inside)[0]
                keep = (idx >= window_half_width(r, n)) \
                    & (idx < n - window_half_width(r, n))
                assert np.all(prof_g[idx[keep]]
                              <= prof_f[src[keep]] + 1e-12)


def test_sup_bound_on_intervals():
    """sup over an interval Y of |f| is bounded by the mean of
    osc(f, B, .) over Y plus the mean of |f| over Y (B = |Y|);
    exact in the discrete setting for cell-aligned Y."""
    rng = np.random.default_rng(10)
    n = 256
    for trial in range(50):
        f = step_function(n, rng)
        k = int(rng.integers(8, 65))
        start = int(rng.integers(0, n - k))
        B = k / n
        cells = slice(start, start + k)
        prof = osc_profile(f, B).values
        sup_y = np.max(np.abs(f.values[cells]))
        bound = (np.mean(prof[cells]) + np.mean(np.abs(f.values[cells])))
        assert sup_y <= bound + 1e-12


def test_lq_bound_on_subintervals():
    """L^q norm of f over J ⊂ Y is bounded by (|J|/B)^(1/q) times the sum
    of the L^q oscillation over Y and the L^q norm over Y."""
    rng = np.random.default_rng(12)
    n = 256
    for trial in range(50):
        f = step_function(n, rng)
        k = int(rng.integers(8, 65))
        start = int(rng.integers(0, n - k))
        B = k / n
        j_len = int(rng.integers(1, k + 1))
        j_start = start + int(rng.integers(0, k - j_len + 1))
        for q in (1.5, 2.0, 3.0):
            prof = osc_profile(f, B).values
            y = slice(start, start + k)
            j = slice(j_start, j_start + j_len)
            lhs = (np.sum(np.abs(f.values[j]) ** q) / n) ** (1 / q)
            osc_term = (np.sum(prof[y] ** q) / n) ** (1 / q)
            fnorm = (np.sum(np.abs(f.values[y]) ** q) / n) ** (1 / q)
            rhs = ((j_len / n) / B) ** (1 / q) * (osc_term + fnorm)
            assert lhs <= rhs + 1e-12
