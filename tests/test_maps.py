"""Map construction, validation, Hölder estimation, branch inversion."""

import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import pwexpand
from pwexpand import expr, maps
from pwexpand.errors import ConfigError
from pwexpand.mapconfig import dump_map_config, load_map, map_from_config
from pwexpand.maps import (INVERSE_TOL, check_slope_condition,
                           invert_branch_array, make_map, validate)

ROOT = Path(__file__).resolve().parent.parent
SHIPPED = ["configs/doubling.json", "configs/tripling.json", "configs/tent.json",
           "configs/markov.json", "pipebench/maps/nonlinear.json"]


# ------------------------------------------------------------ construction

def test_make_map_tripling_fields(tripling):
    assert len(tripling.branches) == 3
    assert tripling.min_slope_global == 3.0
    assert tripling.holder_max == 0.0
    assert tripling.holder_exponent == 1.0
    assert [br.domain for br in tripling.branches] == [
        maps.Interval(0.0, 1 / 3), maps.Interval(1 / 3, 2 / 3),
        maps.Interval(2 / 3, 1.0)]
    for br in tripling.branches:
        assert br.monotone_sign == 1
        assert br.image.lo == 0.0 and br.image.hi == 1.0


def test_load_map_signs_without_numpy_ma():
    # a fresh interpreter, so no earlier test has imported numpy.ma; the
    # branch signs are those of the shipped maps (tent falls on [1/2, 1])
    expect = dict(zip(SHIPPED, ([1, 1], [1, 1, 1], [1, -1], [1, 1], [1, 1])))
    script = (
        "import sys\n"
        "from pwexpand.mapconfig import load_map\n"
        "for path in sys.argv[1:]:\n"
        "    print([br.monotone_sign for br in load_map(path).branches])\n"
        "print('numpy.ma' in sys.modules)\n")
    src = Path(pwexpand.__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(src))
    out = subprocess.run([sys.executable, "-c", script, *expect], cwd=ROOT,
                         capture_output=True, text=True, env=env)
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines() == [str(v) for v in expect.values()] + ["False"]


def test_make_map_snaps_image_endpoints(nonlinear):
    # 2.5*a + 0.5*a^2 = 1 only up to rounding; the image must still be
    # recognized as reaching exactly 1
    assert nonlinear.branches[0].image.hi == 1.0
    assert nonlinear.branches[1].image == maps.Interval(0.0, 1.0)


def test_make_map_accepts_nearby_edges():
    # adjacent endpoints that agree to 1e-10 snap together
    m = make_map(
        [{"lo": 0.0, "hi": 0.3333333333, "formula": "3*x"},
         {"lo": 1 / 3, "hi": 1.0, "formula": "1.5*x - 0.5"}],
        epsilon=1.0)
    assert m.branches[0].domain.hi == m.branches[1].domain.lo == 0.3333333333


def test_make_map_rejections():
    with pytest.raises(ConfigError):
        make_map([], epsilon=1.0)
    with pytest.raises(ConfigError):
        make_map([{"lo": 0.0, "hi": 1.0, "formula": "2*x"}], epsilon=0.0)
    with pytest.raises(ConfigError):  # gap in the tiling
        make_map([{"lo": 0.0, "hi": 0.4, "formula": "2*x"},
                  {"lo": 0.6, "hi": 1.0, "formula": "2*x - 1"}], epsilon=1.0)
    with pytest.raises(ConfigError):  # does not reach 1
        make_map([{"lo": 0.0, "hi": 0.5, "formula": "2*x"}], epsilon=1.0)
    with pytest.raises(ConfigError):  # empty branch interval
        make_map([{"lo": 0.0, "hi": 0.0, "formula": "2*x"},
                  {"lo": 0.0, "hi": 1.0, "formula": "x + 0"}], epsilon=1.0)
    with pytest.raises(ConfigError):  # unparseable formula
        make_map([{"lo": 0.0, "hi": 1.0, "formula": "2*"}], epsilon=1.0)
    with pytest.raises(ConfigError, match="non-finite"):  # tau'(0) = inf
        make_map([{"lo": 0.0, "hi": 1.0, "formula": "sqrt(x)"}], epsilon=1.0)
    # the pole falls between the derivative samples but on the Hölder
    # sampler's dyadic grid
    with pytest.raises(ConfigError, match=r"branch 0 .* fails to evaluate"):
        make_map([{"lo": 0.0, "hi": 1.0, "formula": "1/(x - 0.5)"}], epsilon=1.0)


@pytest.mark.parametrize("branch, message", [
    (3, "branch 1 must be an object"),
    ([0.5, 1.0, "2*x - 1"], "branch 1 must be an object"),
    ({"hi": 1.0, "formula": "2*x - 1"}, "branch 1 is missing 'lo'"),
    ({"lo": 0.5, "formula": "2*x - 1"}, "branch 1 is missing 'hi'"),
    ({"lo": 0.5, "hi": 1.0}, "branch 1 is missing 'formula'"),
    ({"lo": 0.5, "hi": 1.0, "formula": "2*x - 1", "holder_constant": -50},
     "branch 1 'holder_constant' must be at least 0, got -50.0"),
    ({"lo": 0.5, "hi": 1.0, "formula": "2*x - 1", "min_slop": 2.0},
     "branch 1 has unknown key 'min_slop'"),
    ({"lo": 0.5, "hi": 1.0, "formula": 2}, "branch 1 'formula' must be a string, got 2"),
    # the power overflows at every sample, end points included
    ({"lo": 0.5, "hi": 1.0, "formula": "2*x + (x+1)^2000"},
     "branch 1 ('2*x + (x+1)^2000') is non-finite on its domain"),
    # tau' is nan at x = 0.75, a point of the Hölder grid that the samples
    # miss, so only the estimated M_i is non-finite
    ({"lo": 0.5, "hi": 1.0, "formula": "2*x - 1.005 + 0.01*sqrt(abs(x - 0.75))"},
     "branch 1 ('2*x - 1.005 + 0.01*sqrt(abs(x - 0.75))') is non-finite on its domain"),
])
def test_make_map_rejects_malformed_branch(branch, message):
    first = {"lo": 0.0, "hi": 0.5, "formula": "2*x"}
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        make_map([first, branch], epsilon=1.0)


def test_min_slope_safety_factor():
    # no declared slope: s_i = 0.999 * sampled min |tau'|
    m = make_map([{"lo": 0.0, "hi": 0.5, "formula": "2*x"},
                  {"lo": 0.5, "hi": 1.0, "formula": "2*x - 1"}], epsilon=1.0)
    for br in m.branches:
        assert not br.min_slope_declared
        assert br.min_slope == pytest.approx(0.999 * 2.0, rel=1e-12)


# -------------------------------------------------------------- validation

def test_validate_tripling_accepted(tripling):
    report = validate(tripling)
    assert report.accepted
    assert report.violations == ()
    assert report.violation_summary() == "no violations"
    for br in tripling.branches:
        assert br.sampled_min_slope == pytest.approx(3.0, abs=1e-12)
        assert br.sign_consistent


def test_validate_markov_accepted(markov):
    report = validate(markov)
    assert report.accepted
    assert markov.branches[0].sampled_min_slope == pytest.approx(1.5)
    assert markov.branches[1].sampled_min_slope == pytest.approx(2.0)


def test_validate_rejects_contraction():
    m = make_map([{"lo": 0.0, "hi": 1.0, "formula": "0.5*x"}], epsilon=1.0)
    report = validate(m)
    assert not report.accepted
    assert "not greater than 1" in report.violation_summary()


def test_validate_rejects_slope_below_declared():
    m = make_map([{"lo": 0.0, "hi": 0.5, "formula": "2*x", "min_slope": 2.5},
                  {"lo": 0.5, "hi": 1.0, "formula": "2*x - 1"}], epsilon=1.0)
    report = validate(m)
    assert not report.accepted
    assert "below declared" in report.violation_summary()


@pytest.mark.parametrize("declared", [1.0, 0.5, -3.0])
def test_validate_rejects_declared_slope_not_above_one(declared):
    # the samples (slope 2) pass; the declared s_i would be used as 1/s_min
    m = make_map([{"lo": 0.0, "hi": 0.5, "formula": "2*x", "min_slope": declared},
                  {"lo": 0.5, "hi": 1.0, "formula": "2*x - 1"}], epsilon=1.0)
    report = validate(m)
    assert not report.accepted
    assert report.violation_summary() == (
        f"branch 0 ('2*x'): declared min slope {declared:.6g} is not greater than 1")


def test_validate_rejects_effective_slope_not_above_one():
    # the sampled slope 1.0005 passes, but the stored s_i = 0.999 * 1.0005
    # is what 1/s_min and every constant use
    m = make_map([{"lo": 0.0, "hi": 0.5, "formula": "1.0005*x"},
                  {"lo": 0.5, "hi": 1.0, "formula": "1.0005*x - 0.0005"}],
                 epsilon=1.0)
    assert m.branches[0].sampled_min_slope == pytest.approx(1.0005)
    report = validate(m)
    assert not report.accepted
    assert report.violation_summary() == "; ".join(
        f"branch {k} ('{f}'): effective (0.999 x sampled) min slope "
        f"{0.999 * 1.0005:.6g} is not greater than 1"
        for k, f in enumerate(("1.0005*x", "1.0005*x - 0.0005")))


def test_validate_rejects_sign_change():
    # tent-like single branch with an interior critical point
    m = make_map([{"lo": 0.0, "hi": 1.0,
                   "formula": "4*x*(1 - x)"}], epsilon=1.0)
    report = validate(m)
    assert not report.accepted
    summary = report.violation_summary()
    assert "sign" in summary or "not greater than 1" in summary
    assert not m.branches[0].sign_consistent


def test_validate_rejects_image_escape():
    m = make_map([{"lo": 0.0, "hi": 0.5, "formula": "3*x"},
                  {"lo": 0.5, "hi": 1.0, "formula": "2*x - 1"}], epsilon=1.0)
    report = validate(m)
    assert not report.accepted
    assert "leaves [0,1]" in report.violation_summary()


def test_pole_between_samples_is_rejected_by_its_image():
    # with both constants declared nothing evaluates at x = 1/2, so the
    # sampled slope misses the pole; the image [-2, 2] still fails
    m = make_map([{"lo": 0.0, "hi": 1.0, "formula": "1/(x - 0.5)",
                   "min_slope": 1.5, "holder_constant": 0.0}], epsilon=1.0)
    assert m.branches[0].sampled_min_slope == pytest.approx(4.0)
    assert validate(m).violation_summary() == (
        "branch 0 ('1/(x - 0.5)'): image [-2, 2] leaves [0,1]")


def test_validate_evaluates_no_expression(monkeypatch):
    # validate judges what make_map sampled; it evaluates nothing itself
    m = make_map([{"lo": 0.0, "hi": 0.5, "formula": "2*x + 0.1*sin(2*pi*x)"},
                  {"lo": 0.5, "hi": 1.0, "formula": "3*x - 1.5",
                   "min_slope": 3.5}], epsilon=1.0)
    before = validate(m)

    def refuse(*args, **kwargs):
        raise AssertionError("validate evaluated an expression")

    monkeypatch.setattr(expr, "eval_with_derivative", refuse)
    monkeypatch.setattr(expr, "evaluate", refuse)
    assert validate(m) == before
    assert "below declared" in before.violation_summary()


# ------------------------------------------------------- config round trip

@pytest.mark.parametrize("source", SHIPPED + ["sampled"])
def test_config_round_trip_keeps_the_map(source):
    if source == "sampled":  # both constants estimated, at epsilon = 1/2
        m = make_map([{"lo": 0.0, "hi": 0.5, "formula": "2*x + 0.1*sin(2*pi*x)"},
                      {"lo": 0.5, "hi": 1.0, "formula": "2 - 2*x"}], epsilon=0.5)
    else:
        m = load_map(ROOT / source)
    back = map_from_config(json.loads(dump_map_config(m)))
    assert back.holder_exponent == m.holder_exponent
    for b0, b1 in zip(m.branches, back.branches, strict=True):
        assert b1.domain == b0.domain
        assert b1.formula == b0.formula
        assert b1.min_slope == b0.min_slope
        assert b1.holder_constant == b0.holder_constant
        assert b1.image == b0.image
        assert b1.monotone_sign == b0.monotone_sign
    text = dump_map_config(back)
    assert dump_map_config(map_from_config(json.loads(text))) == text


# ------------------------------------------ Hölder estimation by make_map

def test_holder_linear_branch_is_zero():
    m = make_map([{"lo": 0.0, "hi": 0.5, "formula": "2*x"},
                  {"lo": 0.5, "hi": 1.0, "formula": "2*x - 1"}], epsilon=1.0)
    assert [br.holder_constant for br in m.branches] == [0.0, 0.0]
    assert m.holder_max == 0.0


def test_holder_quadratic_reaches_lipschitz_constant():
    # tau' = 1 + 2x has Lipschitz constant exactly 2
    m = make_map([{"lo": 0.0, "hi": 1.0, "formula": "x + x^2"}], epsilon=1.0)
    est = m.branches[0].holder_constant
    assert est == pytest.approx(2.0, rel=1e-6)
    assert est <= 2.0 + 1e-12


def test_holder_sqrt_derivative_half_exponent():
    # tau' = 2 + sqrt(x): |tau'(x)-tau'(y)| <= |x-y|^(1/2), tight as x,y -> 0
    m = make_map([{"lo": 0.0, "hi": 1.0,
                   "formula": "2*x + (2/3)*x^1.5"}], epsilon=0.5)
    est = m.branches[0].holder_constant
    assert est == pytest.approx(1.0, abs=1e-9)
    assert est <= 1.0 + 1e-12



def _sine_branch_holder(epsilon):
    return make_map([{"lo": 0.0, "hi": 0.5, "formula": "2*x + 0.1*sin(2*pi*x)"},
                     {"lo": 0.5, "hi": 1.0,
                      "formula": "2*x - 1 + 0.1*sin(2*pi*x)"}],
                    epsilon=epsilon).branches[0].holder_constant


def test_holder_of_a_sine_branch_is_its_lipschitz_constant():
    # tau' = 2 + 0.2*pi*cos(2*pi*x) on [0, 1/2]: |tau''| peaks at 0.4*pi^2
    # at x = 1/4, a grid point
    est = _sine_branch_holder(1.0)
    sup = 0.4 * math.pi ** 2
    assert sup - 1e-3 <= est <= sup


def test_holder_of_a_sine_branch_at_half_exponent():
    # |tau'(y) - tau'(x)| = 0.2*pi * 2|sin(pi(x + y)) sin(pi d)| with
    # d = y - x, and x + y = 1/2 is reachable for every d <= 1/2, so the
    # sup is 0.2*pi * max_d 2 sin(pi d)/d^(1/2).  The flat maximum sits near
    # d = 0.371, where a 1e-6 grid is exact to ~1e-12; the sampled M sits
    # ~3e-8 below it
    d = np.linspace(1e-6, 0.5, 500_000)
    sup = 0.2 * math.pi * float(np.max(2.0 * np.sin(math.pi * d) / np.sqrt(d)))
    est = _sine_branch_holder(0.5)
    assert est <= sup * (1.0 + 1e-10)
    assert est >= sup * (1.0 - 5e-3)


# ------------------------------------------------------- slope condition

def test_slope_condition_examples(tripling, doubling):
    value, holds = check_slope_condition(tripling, 1.0)
    assert value == pytest.approx(2 / 3, rel=1e-15) and holds
    value, holds = check_slope_condition(doubling, 1.0)
    assert value == 1.0 and not holds  # strict inequality at the boundary


def test_slope_condition_near_threshold(threshold_map):
    # s = 2.618 sits just above the p=2 threshold s* (u + u^2 = 1 with
    # u = 1/sqrt(s*)): the condition value is barely above 1
    value, holds = check_slope_condition(threshold_map, 2.0)
    assert value == pytest.approx(1.0000089708229452, abs=1e-15)
    assert not holds
    # and s = 2.62 clears it
    m = make_map([{"lo": 0.0, "hi": 1 / 2.62, "formula": "2.62*x",
                   "min_slope": 2.62},
                  {"lo": 1 / 2.62, "hi": 2 / 2.62, "formula": "2.62*x - 1",
                   "min_slope": 2.62},
                  {"lo": 2 / 2.62, "hi": 1.0, "formula": "2.62*x - 2",
                   "min_slope": 2.62}],
                 epsilon=1.0)
    value, holds = check_slope_condition(m, 2.0)
    assert holds and value == pytest.approx(0.99948, abs=5e-5)


def test_slope_condition_monotone_in_s():
    held = False
    for s in np.linspace(1.5, 6.0, 40):
        m = make_map([{"lo": 0.0, "hi": 1.0, "formula": "x + 0",
                       "min_slope": float(s)}], epsilon=0.5)
        _, holds = check_slope_condition(m, 2.0)
        if held:
            assert holds  # once true, increasing s never flips it back
        held = held or holds
    assert held


def test_slope_condition_guards(tripling):
    with pytest.raises(ConfigError):
        check_slope_condition(tripling, 0.5)
    flat = make_map([{"lo": 0.0, "hi": 1.0, "formula": "x + 0",
                      "min_slope": 1.0}], epsilon=1.0)
    with pytest.raises(ConfigError):
        check_slope_condition(flat, 1.0)


# ------------------------------------------------------- branch inversion

def invert_one(branch, y):
    """The one-point inversion of y by `invert_branch_array`."""
    return float(invert_branch_array(branch, np.array([y]))[0])


def test_branch_inverse_examples(doubling, markov):
    assert invert_one(doubling.branches[0], 0.5) == pytest.approx(0.25, abs=1e-12)
    assert invert_one(markov.branches[1], 0.0) == pytest.approx(2 / 3, abs=1e-12)


def test_branch_inverse_round_trip(markov, nonlinear):
    rng = np.random.default_rng(5)
    for pmap in (markov, nonlinear):
        for br in pmap.branches:
            ys = br.image.lo + (br.image.hi - br.image.lo) * rng.random(200)
            xs = invert_branch_array(br, ys)
            back = np.array([expr.evaluate(br.expression, float(x)) for x in xs])
            assert np.all(np.abs(back - ys) <= 2 * INVERSE_TOL)
            assert np.all(xs >= br.domain.lo - 1e-15)
            assert np.all(xs <= br.domain.hi + 1e-15)


def test_inverse_contraction(nonlinear, markov):
    rng = np.random.default_rng(6)
    for pmap in (nonlinear, markov):
        for br in pmap.branches:
            ys = br.image.lo + (br.image.hi - br.image.lo) * rng.random((100, 2))
            x1 = invert_branch_array(br, ys[:, 0])
            x2 = invert_branch_array(br, ys[:, 1])
            lhs = np.abs(x1 - x2)
            rhs = np.abs(ys[:, 0] - ys[:, 1]) / br.min_slope
            assert np.all(lhs <= rhs + 1e-10)


def test_image_ends_invert_to_the_exact_domain_ends(tent, markov, nonlinear):
    for pmap in (tent, markov, nonlinear):
        for br in pmap.branches:
            ends = [br.domain.lo, br.domain.hi][::br.monotone_sign]
            ys = [br.image.lo, br.image.hi]
            assert invert_branch_array(br, ys).tolist() == ends
            assert [invert_one(br, y) for y in ys] == ends


def test_bin_edge_inversion_iterates_only_the_interior(monkeypatch):
    # Newton overshoots the bracket at an image end and bisection then
    # creeps toward it one bit per step, 28 evaluations on branch 0 if the
    # ends iterated; the interior points alone need 8 in each chunk
    pmap = load_map(str(ROOT / "pipebench" / "maps" / "nonlinear.json"))
    real_eval, real_newton = expr.eval_with_derivative, maps._newton
    chunks = []  # per chunk, the number of points of each evaluation
    monkeypatch.setattr(maps, "_newton", lambda br, ys, a, b: (
        chunks.append([]) or real_newton(br, ys, a, b)))
    monkeypatch.setattr(expr, "eval_with_derivative", lambda tree, x: (
        chunks[-1].append(x.size) or real_eval(tree, x)))
    n = 1 << 16
    for br in pmap.branches:
        chunks.clear()
        invert_branch_array(br, np.clip(np.arange(n + 1) / n, br.image.lo,
                                        br.image.hi))
        assert len(chunks) == -(-(n - 1) // maps._INVERSE_CHUNK)
        for sizes in chunks:
            # every evaluation takes the whole chunk and nothing beyond it
            assert 0 < len(sizes) <= 8
            assert set(sizes) == {sizes[0]}
            assert sizes[0] <= maps._INVERSE_CHUNK
        assert sum(sizes[0] for sizes in chunks) == n - 1


def test_chunked_inversion_matches_the_one_point_inverse(monkeypatch):
    # each point's Newton iterates depend on that point alone, so a chunk
    # of points gives every point the bits of its own one-point solve;
    # the points include both image ends, on a rising and a falling branch
    monkeypatch.setattr(maps, "_INVERSE_CHUNK", 8)
    rising = load_map(str(ROOT / "pipebench" / "maps" / "nonlinear.json"))
    falling = make_map(
        [{"lo": 0.0, "hi": 0.5, "formula": "1 - 2*x - 0.1*sin(2*pi*x)"},
         {"lo": 0.5, "hi": 1.0, "formula": "2*x - 1 + 0.1*sin(2*pi*x)"}],
        epsilon=1.0)
    rng = np.random.default_rng(29)
    for br in (rising.branches[0], falling.branches[0]):
        img = br.image
        ys = img.lo + (img.hi - img.lo) * rng.random(3 * 8 + 5)
        ys[[3, 17]] = img.lo, img.hi
        want = np.array([invert_one(br, y) for y in ys])
        assert invert_branch_array(br, ys).tobytes() == want.tobytes()


def test_branch_inverse_decreasing_branch(tent):
    br = tent.branches[1]  # 2 - 2*x on [1/2, 1], decreasing
    assert br.monotone_sign == -1
    assert invert_one(br, 0.5) == pytest.approx(0.75, abs=1e-12)
    assert invert_one(br, 1.0) == pytest.approx(0.5, abs=1e-12)

