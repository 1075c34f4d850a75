"""Contraction constants, the variation inequality on random functions,
and correlation-decay measurement."""

import math

import numpy as np
import pytest

import pwexpand
from pwexpand import analysis
from pwexpand.errors import ConfigError, ToolError
from pwexpand.grid import project


# ------------------------------------------------------------ ly_constants

def test_constants_tripling_exact_rationals(tripling):
    # s = 3, M = 0, p = 1, A = 1/8: D = 0, alpha = 2/3,
    # beta = (1/3)/A = 8/3, K = 1 - 2/3 + 8/3 = 3, C = 1 + 3/(1/3) = 10
    c = analysis.ly_constants(tripling, p=1.0, A=0.125)
    assert c.D == 0.0
    assert abs(c.alpha - 2 / 3) <= 1e-15
    assert abs(c.beta - 8 / 3) <= 1e-15
    assert abs(c.K - 3.0) <= 1e-14
    assert abs(c.C - 10.0) <= 1e-13
    assert abs(c.slope_condition_value - 2 / 3) <= 1e-15
    assert c.B == c.A == 0.125
    assert c.admissible


def test_constants_doubling_sits_on_the_boundary(doubling):
    # s = 2, p = 1: alpha = 1/2 + 1/2 = 1 exactly, never contracting
    c = analysis.ly_constants(doubling, p=1.0, A=0.125)
    assert c.alpha == 1.0
    assert not c.admissible
    assert c.C is None


def test_constants_with_curvature_match_hand_arithmetic(nonlinear):
    s = nonlinear.min_slope_global
    M = nonlinear.holder_max
    p, A = 2.0, 0.01
    c = analysis.ly_constants(nonlinear, p=p, A=A)
    D = M * A ** (1 / p) / s ** (1 + 1 / p)
    alpha = (2 ** (1 / p) * D * (1 + D) / s ** (1 / p)
             + (1 + D) / s ** (1 / p) + (1 + D) / s)
    beta = (2 ** (1 / p) * M * (1 + D) / s ** (1 + 1 / p)
            + ((1 + D) / s) * A ** (1 - 1 / p) / A)
    assert c.D == pytest.approx(D, rel=1e-14)
    assert c.alpha == pytest.approx(alpha, rel=1e-14)
    assert c.beta == pytest.approx(beta, rel=1e-14)
    assert not c.admissible  # min slope ~1.59 is too small at p = 2


def test_constants_multinorm_variant(tripling):
    # p = 2, t = 2: the branch count q = 3 enters and the exponent is
    # 1 + 1/2 - 1/2 = 1.  With D = 0: alpha = 2q/s + 2q/s = 4,
    # beta = 2q / (s sqrt(A)) = 6/(3*0.1) = 20, K = 1 - 4 + 20 + L
    c = analysis.ly_constants(tripling, p=2.0, t=2.0, A=0.01, L=5.0)
    assert c.alpha == pytest.approx(4.0, abs=1e-12)
    assert c.beta == pytest.approx(20.0, abs=1e-12)
    assert c.K == pytest.approx(22.0, abs=1e-12)
    assert not c.admissible
    assert c.C is None


def test_constants_multinorm_without_L_leaves_K_unset(tripling):
    c = analysis.ly_constants(tripling, p=2.0, t=2.0, A=0.01)
    assert c.K is None
    assert c.C is None


def test_constants_alpha_monotone_in_A(nonlinear):
    alphas = [analysis.ly_constants(nonlinear, p=2.0, A=A).alpha
              for A in np.geomspace(1e-3, 1.0, 25)]
    assert np.all(np.diff(alphas) >= -1e-15)


def test_constants_admissible_implies_slope_condition(tripling, threshold_map):
    c = analysis.ly_constants(tripling, p=1.0, A=0.125)
    assert c.admissible and c.slope_condition_value < 1.0
    # slope 2.618 at p = 2 fails the condition by ~9e-6, so alpha >= 1
    c2 = analysis.ly_constants(threshold_map, p=2.0, A=1e-6)
    assert c2.slope_condition_value > 1.0
    assert not c2.admissible


def test_constants_guards(tripling):
    with pytest.raises(ConfigError):
        analysis.ly_constants(tripling, p=0.5, A=0.125)
    with pytest.raises(ConfigError):
        analysis.ly_constants(tripling, p=2.0, t=3.0, A=0.125)
    with pytest.raises(ConfigError):
        analysis.ly_constants(tripling, p=1.0, A=0.0)


# ------------------------------------------- shrink_A_until_admissible

def test_shrink_A_accepts_tripling_immediately(tripling):
    c = analysis.shrink_A_until_admissible(tripling, p=1.0)
    assert c.A == 0.125
    assert abs(c.alpha - 2 / 3) <= 1e-15


def test_shrink_A_halves_until_curvature_is_tamed():
    # declaring a large Hoelder constant inflates D until A shrinks:
    # with M = 50, alpha(1/8) ~ 1.91, alpha(1/16) ~ 1.21, alpha(1/32) < 1
    big = pwexpand.make_map(
        [{"lo": 0.0, "hi": 1 / 3, "formula": "3*x",
          "min_slope": 3.0, "holder_constant": 50.0},
         {"lo": 1 / 3, "hi": 2 / 3, "formula": "3*x - 1",
          "min_slope": 3.0, "holder_constant": 50.0},
         {"lo": 2 / 3, "hi": 1.0, "formula": "3*x - 2",
          "min_slope": 3.0, "holder_constant": 50.0}],
        epsilon=1.0)
    c = analysis.shrink_A_until_admissible(big, p=1.0)
    assert c.A == pytest.approx(1 / 32)
    assert c.admissible and c.alpha < 1.0


def test_shrink_A_rejects_doubling(doubling):
    with pytest.raises(ToolError, match="^slope condition fails: "):
        analysis.shrink_A_until_admissible(doubling, p=1.0)


# ----------------------------------------------------------------- ly_verify

def test_verify_inequality_holds_on_random_functions(tripling):
    rep = analysis.ly_verify(tripling, p=1.0, A=0.125, trials=6, n=512,
                             seed=0)
    assert rep.violations == 0
    assert rep.margins.min() > 0.0
    assert rep.margins.shape == (6,)


def test_verify_is_deterministic(tripling):
    a = analysis.ly_verify(tripling, p=1.0, A=0.125, trials=4, n=256, seed=3)
    b = analysis.ly_verify(tripling, p=1.0, A=0.125, trials=4, n=256, seed=3)
    assert np.array_equal(a.margins, b.margins)
    assert np.array_equal(a.slacks, b.slacks)


def test_verification_counts_margins_below_minus_slack():
    # -0.3 < -0.2 is the one violation; -0.2 = -0.2 is not
    rep = analysis.LYVerification(
        p=1.0, A=0.125, alpha=0.5, beta=1.0, n=64, seed=0,
        margins=np.array([0.5, -0.1, -0.3, -0.2]),
        slacks=np.array([0.1, 0.2, 0.2, 0.2]))
    assert rep.violations == 1
    assert analysis.LYVerification(
        p=1.0, A=0.125, alpha=0.5, beta=1.0, n=64, seed=0,
        margins=np.array([-1.0, -2.0]), slacks=np.zeros(2)).violations == 2


# -------------------------------------------------------------- correlations

def test_correlation_of_resonant_mode_dies_in_one_step(tripling):
    # cos(2 pi x) is sent to cos-free dust by the tripling operator
    cs = analysis.correlation_lebesgue(tripling, "cos(2*pi*x)",
                                       "cos(2*pi*x)", 8, 729)
    assert cs.C_values[0] == pytest.approx(0.5, abs=1e-4)
    assert np.max(cs.C_values[1:]) <= 1e-10
    assert cs.fitted_rate is None  # a single above-floor point fits nothing


def test_correlation_tripling_rate_one_third(tripling):
    cs = analysis.correlation_lebesgue(tripling, "x", "x", 12, 729)
    assert 0.28 <= cs.fitted_rate <= 0.38
    assert cs.fit_quality > 0.98
    assert cs.kind == "lebesgue"
    assert np.all(np.diff(cs.C_values) <= 0.0)


def test_correlation_against_constant_observable_vanishes(tripling):
    cs = analysis.correlation_lebesgue(tripling, "sin(2*pi*x)", "1", 10, 729)
    assert np.max(cs.C_values) <= 1e-12


def test_invariant_correlation_of_constant_vanishes(tripling):
    cs = analysis.correlation_invariant(tripling, "1", "x", 8, 243)
    assert np.max(cs.C_values) <= 1e-12
    assert cs.fitted_rate is None


def test_both_correlation_kinds_agree_for_uniform_measure(tripling):
    # the tripling map preserves Lebesgue itself (h = 1), so the
    # normalized operator is plain P and the two series coincide
    a = analysis.correlation_lebesgue(tripling, "x", "x", 12, 729)
    b = analysis.correlation_invariant(tripling, "x", "x", 12, 729)
    assert np.max(np.abs(a.C_values - b.C_values)) <= 1e-10


def test_invariant_correlation_rate_tracks_second_eigenvalue(markov):
    # stop before the O(1/n)-per-step grid error floors the series
    from pwexpand import transfer

    cs = analysis.correlation_invariant(markov, "x", "x", 10, 1024)
    rep = transfer.spectrum(transfer.ulam_matrix(markov, 1024), 4)
    lam2 = abs(rep.eigenvalues[1])
    assert abs(cs.fitted_rate - lam2) <= 0.1
    assert cs.fit_quality > 0.9


def test_correlation_rejects_non_ergodic_map(block_map):
    with pytest.raises(ToolError, match="invariant measure is not unique"):
        analysis.correlation_lebesgue(block_map, "x", "x", 5, 64)


def test_invariant_correlation_rejects_vanishing_density(absorbing):
    with pytest.raises(ToolError, match="^invariant density is below "):
        analysis.correlation_invariant(absorbing, "x", "x", 5, 128)


# ------------------------------------------------------------ fit_decay_rate

def test_fit_recovers_exact_geometric_decay():
    rate, quality = analysis.fit_decay_rate(0.7 * (1 / 3) ** np.arange(12))
    assert rate == pytest.approx(1 / 3, abs=1e-12)
    assert quality == pytest.approx(1.0, abs=1e-12)


def test_fit_refuses_a_floored_series():
    with pytest.raises(analysis.NoRateError):
        analysis.fit_decay_rate([1e-16] * 10)
    with pytest.raises(analysis.NoRateError):
        # three above-floor points are still too few
        analysis.fit_decay_rate([1.0, 0.5, 0.25, 1e-16, 1e-16])


def test_fit_uses_longest_above_floor_run():
    rate, _ = analysis.fit_decay_rate(
        [1.0, 1e-20, 0.9, 0.45, 0.225, 0.1125, 1e-20])
    assert rate == pytest.approx(0.5, abs=1e-12)


def test_fit_prefers_the_later_run_on_ties():
    head = [0.8 * 0.5 ** k for k in range(4)]
    tail = [0.8 * 0.7 ** k for k in range(4)]
    rate, _ = analysis.fit_decay_rate(head + [1e-20] + tail)
    assert rate == pytest.approx(0.7, abs=1e-12)


# -------------------------------------------------- estimate_equicontinuity_L

def test_equicontinuity_estimate_is_deterministic(tripling):
    a = analysis.estimate_equicontinuity_L(tripling, p=2.0, t=2.0, A=0.01)
    b = analysis.estimate_equicontinuity_L(tripling, p=2.0, t=2.0, A=0.01)
    assert a == b
    assert math.isfinite(a)
    assert a >= 1.0
