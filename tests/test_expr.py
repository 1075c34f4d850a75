"""Parser / evaluator / chain-rule derivative tests."""

import cmath
import math

import numpy as np
import pytest

from pwexpand import expr
from pwexpand.expr import (EvalError, ParseError, eval_with_derivative,
                           evaluate, parse)


# ---------------------------------------------------------------- parsing

def test_parse_product():
    e = parse("2*x")
    assert isinstance(e, expr.BinOp)
    assert e.op == "*"
    assert isinstance(e.left, expr.Num) and e.left.value == 2.0
    assert isinstance(e.right, expr.Var)


def test_parse_unbalanced_paren_offset():
    with pytest.raises(ParseError) as exc:
        parse("3*x - 1)")
    assert exc.value.offset == 7
    assert "offset 7" in str(exc.value)


def test_parse_nested_pow():
    e = parse("sin(pi*x)^2")
    assert isinstance(e, expr.BinOp) and e.op == "^"
    assert isinstance(e.left, expr.Call) and e.left.func == "sin"
    inner = e.left.arg
    assert isinstance(inner, expr.BinOp) and inner.op == "*"
    assert inner.left == expr.Num(math.pi)


def test_parse_errors_carry_position():
    for text, bad_offset in [("", 0), ("2*", 2), ("(x + 1", 6),
                             ("foo(x)", 0), ("x + @", 4), ("1 2", 2)]:
        with pytest.raises(ParseError) as exc:
            parse(text)
        assert exc.value.offset == bad_offset, text


def test_parse_unknown_identifier():
    with pytest.raises(ParseError, match="unknown"):
        parse("tan(x)")


# strings of k nesting levels, one per construct that adds a level
_NESTINGS = {
    "parentheses": lambda k: "(" * (k - 1) + "x" + ")" * (k - 1),
    "unary-minus": lambda k: "-" * (k - 1) + "x",
    "sum": lambda k: "+".join(["x"] * k),
    "product": lambda k: "x" + "*1" * (k - 1),
    "power": lambda k: "x" + "^x" * (k - 1),
    "call": lambda k: "sin(" * (k - 1) + "x" + ")" * (k - 1),
}


@pytest.mark.parametrize("build", _NESTINGS.values(), ids=_NESTINGS.keys())
def test_parse_nesting_bound(build):
    # MAX_DEPTH levels parse and evaluate; one more is a ParseError, also
    # far beyond the bound, where a recursive parser or walk would fail
    assert expr.MAX_DEPTH == 100
    val, der = eval_with_derivative(parse(build(100)), np.array([0.5]))
    assert np.isfinite(val).all() and np.isfinite(der).all()
    for k in (101, 5000):
        with pytest.raises(ParseError, match="nests deeper than 100 levels"):
            parse(build(k))


def test_scientific_notation():
    assert evaluate(parse("2.5e-3"), 0.0) == 2.5e-3
    assert evaluate(parse("1e2 + x"), 1.0) == 101.0


def test_precedence():
    # ^ over unary minus over * over +
    assert evaluate(parse("-x^2"), 3.0) == -9.0
    assert evaluate(parse("2*x + 1"), 3.0) == 7.0
    assert evaluate(parse("2*(x + 1)"), 3.0) == 8.0
    assert evaluate(parse("2^x^2"), 2.0) == 16.0  # right-associative: 2^(x^2)
    assert evaluate(parse("6/3/2"), 0.0) == 1.0   # left-associative: (6/3)/2


# ------------------------------------------------------------- evaluation

def test_eval_examples():
    assert evaluate(parse("2*x"), 0.25) == 0.5
    assert abs(evaluate(parse("sin(pi*x)"), 1.0)) <= 1e-15
    assert evaluate(parse("x^2 + 1"), 3.0) == 10.0


def test_eval_array_matches_scalar():
    # a point given alone takes the array's path: the same bits, slope too
    e = parse("sin(2*pi*x) + x^2/3 - abs(x - 0.5)")
    xs = np.linspace(0.0, 1.0, 17)
    vec = evaluate(e, xs)
    scal = np.array([evaluate(e, float(x)) for x in xs])
    assert vec.tobytes() == scal.tobytes()
    vals, ders = eval_with_derivative(e, xs)
    assert vals.tobytes() == vec.tobytes()
    for k, x in enumerate(xs):
        val, der = eval_with_derivative(e, float(x))
        assert np.shape(val) == np.shape(der) == ()
        assert val.tobytes() == vals[k].tobytes()
        assert der.tobytes() == ders[k].tobytes()


def test_overflow_is_inf_unless_both_operands_are_constants():
    assert evaluate(parse("x^400"), 10.0) == math.inf
    assert eval_with_derivative(parse("x^400"), 10.0) == (math.inf, math.inf)
    with pytest.raises(EvalError, match="^power overflows$"):
        evaluate(parse("10^400 + x"), 0.5)


def test_eval_constant_broadcasts():
    xs = np.linspace(0.0, 1.0, 5)
    out = evaluate(parse("pi"), xs)
    assert out.shape == xs.shape
    assert np.all(out == math.pi)


def test_eval_domain_errors():
    with pytest.raises(EvalError):
        evaluate(parse("log(x)"), -1.0)
    with pytest.raises(EvalError):
        evaluate(parse("log(x)"), 0.0)
    with pytest.raises(EvalError):
        evaluate(parse("1/x"), 0.0)
    with pytest.raises(EvalError):
        evaluate(parse("sqrt(x)"), -0.5)
    with pytest.raises(EvalError):
        evaluate(parse("x^0.5"), -2.0)


# ------------------------------------------------------------ derivatives

def test_derivative_examples():
    assert eval_with_derivative(parse("x^2"), 0.5) == (0.25, 1.0)
    assert eval_with_derivative(parse("3*x/2"), 0.9) == (1.35, 1.5)
    assert eval_with_derivative(parse("sin(x)"), 0.0) == (0.0, 1.0)


def test_abs_derivative_at_kink_is_zero():
    val, der = eval_with_derivative(parse("abs(x)"), 0.0)
    assert val == 0.0 and der == 0.0
    # and the sign convention away from the kink
    assert eval_with_derivative(parse("abs(x)"), -2.0) == (2.0, -1.0)
    assert eval_with_derivative(parse("abs(x)"), 2.0) == (2.0, 1.0)


def test_derivative_array():
    e = parse("x^3")
    xs = np.array([0.0, 1.0, 2.0])
    vals, ders = eval_with_derivative(e, xs)
    assert np.allclose(vals, xs ** 3)
    assert np.allclose(ders, 3 * xs ** 2)


def test_derivative_chain_and_quotient():
    e = parse("exp(sin(2*x)) / (1 + x^2)")
    x = 0.7
    val, der = eval_with_derivative(e, x)
    f = math.exp(math.sin(2 * x)) / (1 + x * x)
    fp = (math.exp(math.sin(2 * x)) * 2 * math.cos(2 * x) * (1 + x * x)
          - math.exp(math.sin(2 * x)) * 2 * x) / (1 + x * x) ** 2
    assert abs(val - f) < 1e-15
    assert abs(der - fp) < 1e-12


def test_derivative_vs_central_differences():
    """100 random polynomials, 10 points each: the chain-rule derivative
    agrees with central differences (h = 1e-6) to 1e-6 relative error."""
    rng = np.random.default_rng(42)
    h = 1e-6
    for _ in range(100):
        deg = int(rng.integers(1, 6))
        coeffs = rng.normal(size=deg + 1)
        terms = [f"({c:.17g})*x^{k}" if k else f"({c:.17g})"
                 for k, c in enumerate(coeffs)]
        e = parse(" + ".join(terms))
        for x in rng.uniform(-1.0, 2.0, size=10):
            _, der = eval_with_derivative(e, float(x))
            fd = (evaluate(e, float(x) + h) - evaluate(e, float(x) - h)) / (2 * h)
            scale = max(1.0, abs(fd))
            assert abs(der - fd) <= 1e-6 * scale


# ------------------------------------------------------ grammar totality

def _grammar_string(rng, depth):
    """Generate a random string from the documented grammar productions."""
    if depth <= 0:
        return rng.choice(["x", "pi", "2", "0.5", "1e-2", "3.25"])
    kind = rng.choice(["atom", "neg", "paren", "call", "bin", "pow"])
    if kind == "atom":
        return _grammar_string(rng, 0)
    if kind == "neg":
        return "-" + _grammar_string(rng, depth - 1)
    if kind == "paren":
        return "(" + _grammar_string(rng, depth - 1) + ")"
    if kind == "call":
        fn = rng.choice(["sin", "cos", "exp", "log", "sqrt", "abs"])
        return fn + "(" + _grammar_string(rng, depth - 1) + ")"
    if kind == "bin":
        op = rng.choice([" + ", " - ", "*", "/"])
        return (_grammar_string(rng, depth - 1) + op
                + _grammar_string(rng, depth - 1))
    base = "(" + _grammar_string(rng, depth - 1) + ")"
    return base + "^" + rng.choice(["2", "3", "0.5"])


def test_parse_total_on_grammar():
    """Every grammar-generated string of depth <= 5 parses without error
    (evaluation may still hit domain errors; parsing must not)."""
    rng = np.random.default_rng(7)
    for _ in range(500):
        text = _grammar_string(rng, int(rng.integers(0, 6)))
        parse(text)  # must not raise


# ------------------------------------------- complex-step derivative oracle

_EPS = 2.0 ** -52
_STEP = 1e-20


def _python_namespace(lib, nudge):
    """Names for Python's own eval of an expression text over ``lib``
    (math or cmath); ``nudge`` moves every function result by about one
    ulp of max(1, |result|)."""
    def wrap(f):
        return (lambda z: f(z) * (1.0 + _EPS) + _EPS) if nudge else f
    names = {name: wrap(getattr(lib, name))
             for name in ("sin", "cos", "exp", "log", "sqrt")}
    return {"__builtins__": {}, "pi": math.pi, **names}


_ORACLES = {nudge: (_python_namespace(math, nudge), _python_namespace(cmath, nudge))
            for nudge in (False, True)}


def _python_oracle(code, x, nudge=False):
    """Value (real eval) and complex-step derivative Im f(x + ih)/h."""
    real, cplx = _ORACLES[nudge]
    value = float(eval(code, real, {"x": x}))
    step = complex(eval(code, cplx, {"x": complex(x, _STEP)}))
    return value, step.imag / _STEP


def _agree(v, d, ov, od):
    return (abs(v - ov) <= 1e-14 * abs(ov)
            and abs(d - od) <= 1e-10 * max(abs(od), abs(ov)))


def _oracle_text(rng):
    """A grammar string, a quarter of the time raised to a second one so
    that the exponent can vary with x."""
    text = _grammar_string(rng, int(rng.integers(1, 6)))
    if rng.random() < 0.25:
        text = f"({text})^({_grammar_string(rng, int(rng.integers(1, 4)))})"
    return text


def test_derivative_matches_complex_step_oracle():
    """2000 grammar expressions without abs (not analytic), some with an
    x-dependent exponent.  Wherever pwexpand is finite, value and
    derivative agree with Python's own eval of the same text (``^`` ->
    ``**``): the value with math to 1e-14 relative, the derivative with
    the complex step Im f(x + ih)/h (h = 1e-20, cmath) to 1e-10 relative
    to max(|f'|, |f|), since a slope that cancels leaves rounding noise
    of the size of f.  Points where the oracle itself is ill-conditioned,
    i.e. one-ulp nudges of its library results already break that
    agreement (sin near a multiple of pi, say), are skipped; they must
    stay rare."""
    rng = np.random.default_rng(1)
    checked = skipped = expressions = 0
    while expressions < 2000:
        text = _oracle_text(rng)
        if "abs" in text:
            continue
        e = parse(text)
        code = compile(text.replace("^", "**"), "<formula>", "eval")
        used = False
        for x in (0.3, 0.7, 1.3, -0.4):
            try:
                v, d = eval_with_derivative(e, x)
            except EvalError:
                continue
            if not (math.isfinite(v) and math.isfinite(d)):
                continue
            ov, od = _python_oracle(code, x)
            try:
                nudged = _python_oracle(code, x, nudge=True)
            except (ArithmeticError, ValueError, TypeError):
                nudged = None  # a nudge left the domain or the reals
            if nudged is None or not _agree(*nudged, ov, od):
                skipped += 1
                continue
            assert _agree(v, d, ov, od), (text, x, v, ov, d, od)
            checked += 1
            used = True
        expressions += used
    assert skipped <= 0.05 * (checked + skipped), (skipped, checked)
