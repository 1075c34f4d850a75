"""Contraction constants, the variation inequality on random functions,
and correlation-decay measurement."""

import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import pwexpand
from pwexpand import analysis, transfer
from pwexpand.errors import ConfigError, ToolError
from pwexpand.grid import project
from pwexpand.mapconfig import load_map


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
    rough = pwexpand.make_map(
        [{"lo": 0.0, "hi": 0.5, "formula": "2*x"},
         {"lo": 0.5, "hi": 1.0, "formula": "2*x - 1"}], epsilon=0.5)
    with pytest.raises(ConfigError, match="p must be at least 1/epsilon = 2"):
        analysis.ly_constants(rough, p=1.9, A=0.125)
    assert analysis.ly_constants(rough, p=2.0, A=0.125).p == 2.0
    with pytest.raises(ConfigError):
        analysis.ly_constants(tripling, p=2.0, t=3.0, A=0.125)
    with pytest.raises(ConfigError):
        analysis.ly_constants(tripling, p=1.0, A=0.0)


def test_constants_factor_through_D():
    # with u = 1/p, c = M/s^(1+u), D = c*A^u and v = s^-u + 1/s, the t = 1
    # constants are alpha = (1+D)(v + (2/s)^u D), beta = c(1+D)(2^u + 1/(sD))
    rng = np.random.default_rng(26)
    for _ in range(200):
        s, M = rng.uniform(1.05, 10.0), rng.uniform(0.0, 100.0)
        p, A = rng.uniform(1.0, 4.0), 2.0 ** rng.uniform(-30.0, -3.0)
        pmap = pwexpand.make_map(
            [{"lo": 0.0, "hi": 1 / s, "formula": f"{s!r}*x",
              "min_slope": s, "holder_constant": M},
             {"lo": 1 / s, "hi": 1.0, "formula": f"{s!r}*x - 1",
              "min_slope": s, "holder_constant": M}], epsilon=1.0)
        c = analysis.ly_constants(pmap, p=p, t=1.0, A=A)
        u = 1.0 / p
        k = M / s ** (1.0 + u)
        D = k * A ** u
        v = s ** -u + 1.0 / s
        assert c.alpha == pytest.approx((1 + D) * (v + (2 / s) ** u * D),
                                        rel=1e-12, abs=0.0)
        assert c.beta == pytest.approx(k * (1 + D) * (2 ** u + 1 / (s * D)),
                                       rel=1e-12, abs=0.0)


# ------------------------------------------------- ly_constants_best_A

HALF_HOLDER = Path(__file__).resolve().parent / "half_holder.json"


def test_best_A_keeps_tripling_at_the_default_cap(tripling):
    c = analysis.ly_constants_best_A(tripling, p=1.0)
    assert c.A == 0.125
    assert abs(c.alpha - 2 / 3) <= 1e-15


@pytest.mark.parametrize("name, p", [("half_holder", 2.0),
                                     ("curvature", 1.0)])
def test_best_A_is_the_minimum_of_a_log_scan(name, p):
    # the oracle scans ly_constants itself over A in [2^-30, 1/8]; the
    # first admissible power of two is far from it on both maps (A = 1/32:
    # C = 29131 on the half-Hoelder map, 314.6 on the curvature map)
    if name == "half_holder":
        pmap = load_map(HALF_HOLDER)
    else:  # tripling with M_i = 50 declared; tau' is constant, so it holds
        pmap = pwexpand.make_map(
            [{"lo": j / 3, "hi": (j + 1) / 3, "formula": f"3*x - {j}",
              "min_slope": 3.0, "holder_constant": 50.0} for j in range(3)],
            epsilon=1.0)
    ratios = []
    for A in np.geomspace(2.0 ** -30, 0.125, 3001):
        c = analysis.ly_constants(pmap, p=p, t=1.0, A=A)
        if c.alpha < 1.0:
            ratios.append(c.beta / (1.0 - c.alpha))
    best = analysis.ly_constants_best_A(pmap, p=p)
    assert best.alpha < 1.0
    assert best.beta / (1.0 - best.alpha) <= (1.0 + 1e-6) * min(ratios)
    rep = analysis.ly_verify(pmap, p=p, A=best.A, trials=40, n=4096)
    assert rep.violations == 0


def test_best_A_rejects_doubling(doubling):
    with pytest.raises(ToolError, match="^slope condition fails: "):
        analysis.ly_constants_best_A(doubling, p=1.0)


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


def test_verify_memory_does_not_grow_with_trials(markov):
    # one test function and its image are alive at a time, so 64 trials
    # peak where 8 do; holding all 64 at n = 16384 would add 7 MB.  Each
    # call assembles one Ulam operator, the same for both
    def peak(trials):
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            analysis.ly_verify(markov, p=1.0, A=0.125, trials=trials, n=16384)
            return tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()

    assert abs(peak(64) - peak(8)) <= 2 ** 20


@pytest.mark.parametrize("run", [
    lambda pmap: analysis.ly_verify(pmap, p=1.0, A=0.125, trials=8, n=256),
    lambda pmap: transfer.iterate_norm_series(
        pmap, project(pwexpand.parse("x"), 256), p=1.0, A=0.125, n_max=10),
    lambda pmap: analysis.estimate_equicontinuity_L(pmap, p=2.0, t=2.0,
                                                    A=0.01)],
    ids=["ly_verify", "iterate_norm_series", "estimate_equicontinuity_L"])
def test_each_p_loop_assembles_one_ulam_operator(tripling, monkeypatch, run):
    # every step of P runs on one operator, built once per call, not once
    # per step through apply_fp
    built = []

    def counted(pmap, n):
        built.append(n)
        return real(pmap, n)

    real = transfer.ulam_matrix
    for module in (transfer, analysis):
        monkeypatch.setattr(module, "ulam_matrix", counted)
    run(tripling)
    assert len(built) == 1


# float.hex of random_test_functions(64, 6, seed=3), with a run of k equal
# values written as hex*k
_PINNED_TEST_FUNCTIONS = (
    ('-0x1.488f3593fe9a4p-1 -0x1.f3f5917b1b7e0p-1 -0x1.42033fcb8bbdbp+0 '
     '-0x1.744bc1f9b3ef9p+0 -0x1.89791d6e12bd0p+0 -0x1.79a49e45ff0abp+0 '
     '-0x1.3d3ee64fc564ap+0 -0x1.9ff1f5ff50dbcp-1 -0x1.a15f668093ef4p-3 '
     '0x1.166397a0a7ac3p-1 0x1.5b470041f775ap+0 0x1.125b00a5f7db2p+1 '
     '0x1.683b708551778p+1 0x1.a6520b8cd3cabp+1 0x1.c804f8900da24p+1 '
     '0x1.cdf96b1b16a0bp+1 0x1.be11873243699p+1 0x1.a284fd72f8092p+1 '
     '0x1.880a067bc1a24p+1 0x1.7b1786c0220b1p+1 0x1.849dc0b39e13cp+1 '
     '0x1.a70ea5a774060p+1 0x1.dce0954ba4f22p+1 0x1.0cc3be2fa06e2p+2 '
     '0x1.268a287f49905p+2 0x1.34c22c54fefb0p+2 0x1.33eae599859edp+2 '
     '0x1.25631cdeb6369p+2 0x1.0ef689e080779p+2 0x1.f16a59d39ba06p+1 '
     '0x1.d3eb3be5fe7fap+1 0x1.cd8c9a418f3f5p+1 0x1.ddb77f41ecd37p+1 '
     '0x1.fca2b1de0df30p+1 0x1.0fb3a2f760957p+2 0x1.1e3934f67b698p+2 '
     '0x1.2715b761124c3p+2 0x1.296a944ad15cfp+2 0x1.252c43c8cf28ap+2 '
     '0x1.19ea4d896cffcp+2 0x1.066cf06a48ab7p+2 0x1.d314ff0163f99p+1 '
     '0x1.8785d934b4a38p+1 0x1.312bc763bae32p+1 0x1.ba1b8f9574787p+0 '
     '0x1.3598fc9fb835ap+0 0x1.db59a61961d43p-1 0x1.d365a25f57affp-1 '
     '0x1.1a8ec4a593e3ep+0 0x1.5eff4617035dep+0 0x1.90030e5b9d3d9p+0 '
     '0x1.901e9ce5af3e4p+0 0x1.56c1399879f92p+0 0x1.e57843a70202fp-1 '
     '0x1.05c11a8b12be7p-1 0x1.42d6108a33b62p-3 -0x1.bcd1a169a7c20p-6 '
     '-0x1.06f0a453ba396p-5 0x1.532597f304e0ep-4 0x1.bf8cc32e81f72p-3 '
     '0x1.1ef552d62dbfep-2 0x1.b148accea17c4p-3 0x1.e6a86343decc0p-8 '
     '-0x1.2ec16c5bc32f6p-2'),
    ('-0x1.9931dbd018d8bp-3*41 0x1.8bbaea516f14bp+0*3 '
     '0x1.171812319ff57p-1*20'),
    ('-0x1.fff6cfe0f4885p-3 0x1.bb3dd93a144e4p-4 0x1.1d42c8fabe521p-1 '
     '0x1.cfbf1ecbd61f2p-1 0x1.f322ac91550fcp-1 0x1.62feda9106b22p-1 '
     '0x1.2b7f7859098eap-3 -0x1.d21f7e863ec7dp-2 -0x1.be4eb538b682cp-1 '
     '-0x1.e8dbb7c08c820p-1 -0x1.7320900d8d17ap-1 -0x1.75ee3fddb4c40p-2 '
     '-0x1.0e06839e4fce8p-3 -0x1.c8e0cd297e0dap-3 -0x1.590e476ab0e79p-1 '
     '-0x1.54c275665970bp+0 -0x1.ebe618e8861f4p+0 -0x1.1721047ea3f81p+1 '
     '-0x1.fa117748f83cep+0 -0x1.5e507d99ab7a9p+0 -0x1.23beacf186ffap-1 '
     '0x1.3dcf7a953a4c6p-3 0x1.3b137cadb2c16p-1 0x1.898ec005c8681p-1 '
     '0x1.6fb6ce5d94f12p-1 0x1.4611846420564p-1 0x1.5451816263a92p-1 '
     '0x1.ab58426f501fdp-1 0x1.10381e1d83bc1p+0 0x1.34c7aa102bd3fp+0 '
     '0x1.2481c3ffb55c9p+0 0x1.b0171eae37990p-1 0x1.8dc41726691fep-2 '
     '-0x1.4768d230a4e26p-4 -0x1.b21df4d9f31b6p-2 -0x1.27132f50ed426p-1 '
     '-0x1.20486edf6c16dp-1 -0x1.eafac9a076350p-2 -0x1.bfab7c8c89d83p-2 '
     '-0x1.0647fadef3a7cp-1 -0x1.7085a81918cf0p-1 -0x1.056aa35619865p+0 '
     '-0x1.5a6a051a7f72cp+0 -0x1.a8573079b21d2p+0 -0x1.e5709b3adc603p+0 '
     '-0x1.0656a82d9d46ap+1 -0x1.0db6df34be841p+1 -0x1.0837236303cc5p+1 '
     '-0x1.ed4360f31049cp+0 -0x1.b8d8b4cec503ap+0 -0x1.7fe0b8e1c8764p+0 '
     '-0x1.5124e49345026p+0 -0x1.36a96b18f80f6p+0 -0x1.2f84a8de02dd9p+0 '
     '-0x1.2ee52c2e7e49bp+0 -0x1.223513fa0aee8p+0 -0x1.f7beee2362712p-1 '
     '-0x1.796461238d64cp-1 -0x1.d6ba7bd3cfaa4p-2 -0x1.ff7ca52962ecep-3 '
     '-0x1.7181e91c8098dp-3 -0x1.fffd03d5127dap-3 -0x1.7b2326bed8acep-2 '
     '-0x1.9fd9776f36e28p-2'),
    ('0x1.ac077e6918784p-6 -0x1.b01b1f7b5dc79p-5*14 '
     '0x1.67d5480a5d836p+0*13 0x1.7eac427dfc68ep-1*14 '
     '0x1.8cef37b146f54p-3*2 0x1.1c93fe6595af1p+0*8 '
     '-0x1.a4e944cf5b3f7p-3*6 -0x1.da0f824866717p-1*6'),
    ('-0x1.58936cbf16150p-5 -0x1.dee2425e7ae9ep-2 -0x1.3b36d25ac272ep-1 '
     '-0x1.9a2cbb6076029p-2 0x1.029a2f5120660p-3 0x1.9ba6a8f203f06p-1 '
     '0x1.7087759f94a6bp+0 0x1.e46f6f280e60ap+0 0x1.0f938d43081d8p+1 '
     '0x1.168a553c4abebp+1 0x1.117185ec0fef3p+1 0x1.068f3d13a0e48p+1 '
     '0x1.e84546370898dp+0 0x1.a5e171beb2152p+0 0x1.3ad35be4f9eedp+0 '
     '0x1.59fd677fbd3c0p-1 0x1.6b5159dce9cb4p-4 -0x1.8dff0334fd2acp-2 '
     '-0x1.4adbf944517aep-1 -0x1.56481d91295b8p-1 -0x1.18061177dcd1ep-1 '
     '-0x1.b7e4f0811546cp-2 -0x1.bd6236b41f017p-2 -0x1.27bfe7664e140p-1 '
     '-0x1.8111c8ec3227dp-1 -0x1.936d47c62cbb2p-1 -0x1.19b86335707c5p-1 '
     '-0x1.e4f0a00c9ac58p-6 0x1.428c0e9fe57dap-1 0x1.2f9eb432d52ebp+0 '
     '0x1.69090965f432ep+0 0x1.33a6766f5d964p+0 0x1.47b430afbf674p-1 '
     '-0x1.964879b72bcb8p-5 -0x1.347fd20bdc582p-1 -0x1.acb8e6ee6135cp-1 '
     '-0x1.76d7267ce02e1p-1 -0x1.ab9556d5d3db6p-2 -0x1.8463337a5c93cp-4 '
     '0x1.34f42c3a65302p-4 0x1.b11a24159a532p-5 -0x1.2b14c935bf26bp-4 '
     '-0x1.26284421b97f0p-3 -0x1.8cb0fb36a0f40p-6 0x1.4b081612480a2p-2 '
     '0x1.a636e1d2ca206p-1 0x1.56995d317ed54p+0 0x1.bad87a2cd8cb8p+0 '
     '0x1.eeda7b08f70f7p+0 0x1.f6f0e49d68adfp+0 0x1.e49046d5143bfp+0 '
     '0x1.c8b79e45d8e7ap+0 0x1.aa1c546e0ee9fp+0 0x1.84f2776ab8054p+0 '
     '0x1.5354aadb891a8p+0 0x1.1770fdcee167fp+0 0x1.bee3e067c6f38p-1 '
     '0x1.7eb05fa47c2bap-1 0x1.87dcd6dc9cde8p-1 0x1.ce701e237cd8ap-1 '
     '0x1.0ec130a661991p+0 0x1.16bf7ce4d8f57p+0 0x1.ca465fa5feca6p-1 '
     '0x1.e910dabe28564p-2'),
    ('0x1.973432bd3c1a6p+0*4 -0x1.30f43b57abc4ep+0*18 '
     '0x1.6b0a6c2ac2203p-2*28 0x1.67ed2ffc26f93p+0*12 '
     '-0x1.62bbd62d8e97bp-6*2'),
)


def test_random_test_functions_are_pinned():
    expect = []
    for text in _PINNED_TEST_FUNCTIONS:
        values = []
        for token in text.split():
            value, _, count = token.partition("*")
            values += [float.fromhex(value)] * int(count or 1)
        expect.append(values)
    got = analysis.random_test_functions(64, 6, seed=3)
    assert [f.values.tolist() for f in got] == expect


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
    # monotone down to the floor; below it is the rounding of L^N on a
    # constant, which is not monotone
    above = np.flatnonzero(cs.C_values > analysis.NOISE_FLOOR)
    assert np.all(np.diff(cs.C_values[:above[-1] + 1]) <= 0.0)
    assert np.array_equal(above, np.arange(above.size))


def test_correlation_against_constant_observable_vanishes(tripling):
    cs = analysis.correlation_lebesgue(tripling, "sin(2*pi*x)", "1", 10, 729)
    assert np.max(cs.C_values) <= 1e-12


def test_invariant_correlation_of_constant_vanishes(tripling):
    cs = analysis.correlation_invariant(tripling, "1", "x", 8, 243)
    assert np.max(cs.C_values) <= 1e-12
    assert cs.fitted_rate is None


def test_both_correlation_kinds_agree_for_uniform_measure(tripling):
    # the tripling map preserves Lebesgue itself (h = 1), so F = f*h is
    # f and the two series coincide
    a = analysis.correlation_lebesgue(tripling, "x", "x", 12, 729)
    b = analysis.correlation_invariant(tripling, "x", "x", 12, 729)
    assert np.max(np.abs(a.C_values - b.C_values)) <= 1e-10


def test_correlation_rejects_non_ergodic_map(block_map):
    with pytest.raises(ToolError, match="invariant measure is not unique"):
        analysis.correlation_lebesgue(block_map, "x", "x", 5, 64)


@pytest.mark.parametrize("kind", ["lebesgue", "invariant"])
def test_correlation_on_a_period_two_map_names_the_unit_circle(swap_map,
                                                               kind):
    # the swap map's ACIM is unique, but P has the eigenvalue -1, so the
    # start 2x, which puts 1/4 of its mass on [0, 1/2], oscillates with
    # period 2; its residual never falls, and the stall rule ends it
    correlate = getattr(analysis, f"correlation_{kind}")
    with pytest.raises(ToolError) as err:
        correlate(swap_map, "x", "x", 5, 64)
    message = str(err.value)
    assert message.startswith("power iteration from the start density 2x "
                              "stalled at L1 residual ")
    assert (f"after {transfer.DENSITY_STALL_WINDOW + 1} iterations; P may "
            "have another eigenvalue on the unit circle") in message
    assert "not unique" not in message


def test_invariant_correlation_rate_is_the_ulam_second_eigenvalue(markov):
    # every step runs on the Ulam operator whose density is h, so the
    # series decays to rounding at that operator's |lambda_2|
    cs = analysis.correlation_invariant(markov, "x", "x", 60, 1024)
    rep = transfer.spectrum(transfer.ulam_matrix(markov, 1024), 4)
    lam2 = abs(rep.eigenvalues[1])
    assert abs(cs.fitted_rate - lam2) <= 0.01
    assert cs.fit_quality > 0.9
    assert cs.C_values[60] <= 1e-10 * cs.C_values[0]
    # a short series: its first ten steps already fit the rate to 0.1
    rate, quality = analysis.fit_decay_rate(cs.C_values[:11])
    assert abs(rate - lam2) <= 0.1
    assert quality > 0.9


def test_invariant_correlation_on_a_vanishing_density(absorbing):
    # mu = 2*1_[0,1/2], and tau on [0,1/2] is doubling under x = y/2, so
    # Cov_mu(x, x o tau^N) = Cov_m(y, y o D^N)/4 = 2^-N/48
    cs = analysis.correlation_invariant(absorbing, "x", "x", 8, 1000)
    N = np.arange(9)
    np.testing.assert_allclose(cs.C_values, 2.0 ** -N / 48, rtol=1e-3)


@pytest.mark.parametrize("kind, want", [
    ("lebesgue", 1 / 3 - 0.5 * 11 / 24),
    ("invariant", 31 / 108 - (11 / 24) ** 2)])
def test_correlation_at_zero_is_the_covariance(markov, kind, want):
    # C(0) reads no operator.  markov's h is 9/8 on [0, 2/3) and 3/4 on
    # [2/3, 1], so mu(x) = 11/24 and mu(x^2) = 31/108; the grid takes x as
    # the cell midpoints, whose squares are off by -1/(12 n^2) = -8.8e-9
    cs = getattr(analysis, f"correlation_{kind}")(markov, "x", "x", 0, 3072)
    assert cs.C_values[0] == pytest.approx(want, abs=1e-7)


# ------------------------------------------------------------ fit_decay_rate

def test_fit_recovers_exact_geometric_decay():
    rate, quality = analysis.fit_decay_rate(0.7 * (1 / 3) ** np.arange(12))
    assert rate == pytest.approx(1 / 3, abs=1e-12)
    assert quality == pytest.approx(1.0, abs=1e-12)


def test_fit_refuses_a_floored_series():
    assert analysis.fit_decay_rate([1e-16] * 10) == (None, None)
    # three above-floor points are still too few
    assert analysis.fit_decay_rate([1.0, 0.5, 0.25, 1e-16, 1e-16]) == (
        None, None)


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


def test_equicontinuity_estimate_rises_above_its_floor_only_when_sampled(
        tripling, absorbing):
    # no sampled iterate of the tripling map's test functions outgrows its
    # start, so the estimate stays at its starting value; on the absorbing
    # map the mass pushed into [0, 1/2] raises the norms
    assert analysis.estimate_equicontinuity_L(
        tripling, p=2.0, t=2.0, A=1.0) == analysis.L_FLOOR
    L = analysis.estimate_equicontinuity_L(absorbing, p=2.0, t=2.0, A=1.0)
    assert L == pytest.approx(1.809, abs=1e-3)
