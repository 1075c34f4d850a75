"""Contraction constants, the variation inequality on random functions,
and correlation-decay measurement."""

import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import pwexpand
from pwexpand import analysis, maps, transfer
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
    c = maps.ly_constants_best_A(tripling, p=1.0)
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
    best = maps.ly_constants_best_A(pmap, p=p)
    assert best.alpha < 1.0
    assert best.beta / (1.0 - best.alpha) <= (1.0 + 1e-6) * min(ratios)
    rep = analysis.ly_verify(pmap, p=p, A=best.A, trials=40, n=4096)
    assert rep.violations == 0


def test_best_A_rejects_doubling(doubling):
    with pytest.raises(ToolError, match="^slope condition fails: "):
        maps.ly_constants_best_A(doubling, p=1.0)


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
    ('-0x1.3800cb226206ap+1 -0x1.ee4380d2941ebp+0 -0x1.7206571ca959bp+0 '
     '-0x1.131961e27f3a9p+0 -0x1.b54a5e8ca1c76p-1 -0x1.86fa82a7f65aep-1 '
     '-0x1.7bc45b2e976dbp-1 -0x1.69485a60ba9fap-1 -0x1.2545bb436f60fp-1 '
     '-0x1.22175adcfb91ap-2 0x1.6d77ac2b1e275p-3 0x1.89512149524e8p-1 '
     '0x1.61d512147c907p+0 0x1.e143dd67e76eap+0 0x1.1064fa653e31ep+1 '
     '0x1.0664647fecb4ap+1 0x1.a907da1c00492p+0 0x1.10dc3e76f4f72p+0 '
     '0x1.b5f6731855e3bp-2 -0x1.9bbe085d4cc14p-4 -0x1.b80747c648ec4p-2 '
     '-0x1.1f15d5afe6baep-1 -0x1.216f7fcee843cp-1 -0x1.1138ab2c1ee9fp-1 '
     '-0x1.08ac32fa2a72cp-1 -0x1.fd6a1692f10bep-2 -0x1.9c9b5ff4901c6p-2 '
     '-0x1.42c72f51b0357p-3 0x1.090b6c890cb9ap-2 0x1.8f245ea16ef7cp-1 '
     '0x1.444a76a1ee2afp+0 0x1.91d3d4697fcabp+0 0x1.9843cd33d44a7p+0 '
     '0x1.59a49b8e25680p+0 0x1.e02d4437ab5bap-1 0x1.fdcd5cd0e2ce1p-2 '
     '0x1.109c0122472a8p-3 -0x1.25c6cca8f56bdp-3 -0x1.a35d2163fa7d0p-2 '
     '-0x1.8f9b4ead45516p-1 -0x1.54b436a88f146p+0 -0x1.046980add155fp+1 '
     '-0x1.60ebf41da6d64p+1 -0x1.a7b10bc62d2aep+1 -0x1.c4a79a1d65642p+1 '
     '-0x1.b1a62ee23a0c7p+1 -0x1.79b00c758c8e4p+1 -0x1.33ed2803c2188p+1 '
     '-0x1.f1beac126429cp+0 -0x1.aeb37055d42cep+0 -0x1.9d9c57be61bc2p+0 '
     '-0x1.a34f459666373p+0 -0x1.9c5e3467a1b5dp+0 -0x1.7246c14abd056p+0 '
     '-0x1.28e5cf23385b9p+0 -0x1.bad518cb21247p-1 -0x1.6f653f9f6c391p-1 '
     '-0x1.abb5a3dc25308p-1 -0x1.3c648026179e4p+0 -0x1.d2871b4c539e1p+0 '
     '-0x1.35f25dab0dad8p+1 -0x1.6d2fe0c995267p+1 -0x1.7fbe5993ee99fp+1 '
     '-0x1.6af07f35205abp+1'),
    ('0x1.5db8a231a6a8bp-1*7 -0x1.7f876442d2ab7p-1*2 '
     '-0x1.b0e00db094e00p-1*47 -0x1.2b8229225e890p-1*3 '
     '-0x1.2514505620d6ep+0*5'),
    ('0x1.f422f507b69dcp-1 0x1.70e815bab4c20p-1 0x1.125447ef7effep-1 '
     '0x1.f084b5200f787p-2 0x1.0c78bf85ca1a5p-1 0x1.173b7e72e7582p-1 '
     '0x1.cebd5a6c87e44p-2 0x1.d03c4940e7408p-3 -0x1.d584be4eba8f5p-5 '
     '-0x1.2745902448378p-2 -0x1.984a93af486dfp-2 -0x1.b45a553a0e2f2p-2 '
     '-0x1.05d6479346c6ap-1 -0x1.a786744a6a25ap-1 -0x1.79683dd129523p+0 '
     '-0x1.33babed866a51p+1 -0x1.b546d8b14869fp+1 -0x1.0f2773ca0a0c4p+2 '
     '-0x1.29227bb6d7ec5p+2 -0x1.243da1733c3eap+2 -0x1.0807b2ef29acdp+2 '
     '-0x1.c85383d1335a6p+1 -0x1.91c5a46605622p+1 -0x1.7f75a7441af3fp+1 '
     '-0x1.902f044b25054p+1 -0x1.b23ca378942bcp+1 -0x1.cec88b76db485p+1 '
     '-0x1.d5fc722799758p+1 -0x1.c53a04fd737c3p+1 -0x1.a4b660e9501b0p+1 '
     '-0x1.7f07effa59cc6p+1 -0x1.58a65a768bdffp+1 -0x1.2d01165dc2fc1p+1 '
     '-0x1.e5fd9a4de07c9p+0 -0x1.4ba7937a8f3a2p+0 -0x1.30abc4614a306p-1 '
     '0x1.e47b9f23aad9ap-5 0x1.f7286f5c8fa22p-2 0x1.2bd342b3688efp-1 '
     '0x1.6ce99f803bff4p-2 -0x1.6e75449c87b42p-5 -0x1.94b3aea33c7fep-2 '
     '-0x1.03ff7e68675dap-1 -0x1.4770801bdbf1ep-2 0x1.52a9d65cf83d2p-4 '
     '0x1.08cf4e2726ce6p-1 0x1.9c39c772aad64p-1 0x1.b9663f0b3e056p-1 '
     '0x1.7604e0309127dp-1 0x1.13c2d7e0fb616p-1 0x1.a81448284852ep-2 '
     '0x1.9f08e8509e364p-2 0x1.d2faef6e3b2ccp-2 0x1.cc3810b30ae31p-2 '
     '0x1.2ab092e7d878ep-2 -0x1.fdc65bbac2880p-7 -0x1.708420147f517p-2 '
     '-0x1.2499b4d8546cap-1 -0x1.084222d45b671p-1 -0x1.649138812d897p-3 '
     '0x1.5d31f59f86c1cp-2 0x1.ac024d601a33ap-1 0x1.226584a527c48p+0 '
     '0x1.299804555dd14p+0'),
    ('0x1.96affad71d5b1p-3*2 0x1.ad7615d92f15dp-1*3 '
     '-0x1.88611a1bd1ab5p+0*5 -0x1.1a1b8f355ae4fp+0*3 '
     '-0x1.2f6a9f956ffb5p+0*7 -0x1.dd693b4962001p-1*6 '
     '-0x1.2fe47a5f5dbcap+1*12 -0x1.937976bcf87b3p-3 '
     '-0x1.dbfe03816a5b2p-3*25'),
    ('-0x1.db55bf2b2d47fp+0 -0x1.0ccb91f207089p+1 -0x1.243bcbbfbd854p+1 '
     '-0x1.29437357c28a9p+1 -0x1.18d7970c64d1ep+1 -0x1.f3ac7fae820d1p+0 '
     '-0x1.b400b82b8dd54p+0 -0x1.8e468a1a902b4p+0 -0x1.905eea0a324fap+0 '
     '-0x1.b45a5e69d382dp+0 -0x1.e5c5bf0534f89p+0 -0x1.07ba58062fffap+1 '
     '-0x1.14e474de1b699p+1 -0x1.206e3f90111cap+1 -0x1.3732da48c6f3bp+1 '
     '-0x1.651e7daad1ebcp+1 -0x1.ad0d9046cd244p+1 -0x1.028551f7b81b0p+2 '
     '-0x1.2cb5efb121f90p+2 -0x1.4ac42068b9532p+2 -0x1.56c592e78076ep+2 '
     '-0x1.5211f74ebfeadp+2 -0x1.4477820475b3dp+2 -0x1.382cd05ddfc23p+2 '
     '-0x1.34a29c196b882p+2 -0x1.3aef951e9b3d6p+2 -0x1.45ab308e94ddcp+2 '
     '-0x1.4c2aaaa802fcbp+2 -0x1.4742e7546dd1bp+2 -0x1.34f2cb085a272p+2 '
     '-0x1.190fdfd8904d7p+2 -0x1.f596f635960c0p+1 -0x1.c151c6aad09f2p+1 '
     '-0x1.9a8e8e3a54796p+1 -0x1.7d926d0b00d01p+1 -0x1.6210a16197c57p+1 '
     '-0x1.42344566cabf3p+1 -0x1.1fd36d02cf8dcp+1 -0x1.04797714bc557p+1 '
     '-0x1.f825e4b57eea4p+0 -0x1.0d4349abf28f4p+1 -0x1.33e85d9b182e0p+1 '
     '-0x1.612ee01ac4343p+1 -0x1.818321fefdb04p+1 -0x1.8562631715fe6p+1 '
     '-0x1.68745fef44554p+1 -0x1.3346050f66e26p+1 -0x1.edd316d9bc95cp+0 '
     '-0x1.89f28299ae1dep+0 -0x1.506c3b7eee031p+0 -0x1.42acf64ee0af4p+0 '
     '-0x1.5221f1a5ce0e5p+0 -0x1.6b1750340e936p+0 -0x1.7f7dfb8b3a59dp+0 '
     '-0x1.8bbc57035b72fp+0 -0x1.93fa80caf1b5fp+0 -0x1.9d22dd6203ae7p+0 '
     '-0x1.a7231560876dap+0 -0x1.ac8ef95bd96b9p+0 -0x1.a7b4441447cfbp+0 '
     '-0x1.992de5e21c996p+0 -0x1.8aba5ddc9a096p+0 -0x1.8b669db1e1462p+0 '
     '-0x1.a699938162f2fp+0'),
    ('-0x1.2ee7b05badc9dp-1*15 0x1.3dce89bb31e64p+0 '
     '-0x1.c5698d3d47e31p-2*35 -0x1.c0f48682ed89ep+0*13'),
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


@pytest.mark.parametrize("p, t, message", [
    (2.0, 3.0, r"^t must lie in \[1, p\], got t=3\.0, p=2\.0$"),
    (2.0, 0.5, r"^t must lie in \[1, p\], got t=0\.5, p=2\.0$"),
    (0.5, 1.0, r"^p must be at least 1, got 0\.5$")],
    ids=["t-above-p", "t-below-one", "p-below-one"])
def test_equicontinuity_estimate_checks_its_ranges(tripling, p, t, message):
    with pytest.raises(ConfigError, match=message):
        analysis.estimate_equicontinuity_L(tripling, p=p, t=t, A=0.125)


def test_equicontinuity_estimate_rises_above_its_floor_only_when_sampled(
        tripling, absorbing):
    # no sampled iterate of the tripling map's test functions outgrows its
    # start, so the estimate stays at its starting value; on the absorbing
    # map the mass pushed into [0, 1/2] raises the norms
    assert analysis.estimate_equicontinuity_L(
        tripling, p=2.0, t=2.0, A=1.0) == analysis.L_FLOOR
    L = analysis.estimate_equicontinuity_L(absorbing, p=2.0, t=2.0, A=1.0)
    assert L == pytest.approx(2.090, abs=1e-3)
