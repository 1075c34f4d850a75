"""Expression language for map branches and observables.

Grammar (full reference in docs/expr-grammar.md)::

    expr   := term (('+' | '-') term)*
    term   := factor (('*' | '/') factor)*
    factor := '-' factor | power
    power  := atom ('^' factor)?
    atom   := NUMBER | 'x' | 'pi' | FUNC '(' expr ')' | '(' expr ')'

``^`` is right-associative and binds tighter than unary minus, so
``-x^2`` parses as ``-(x^2)``.  Functions: sin, cos, exp, log, sqrt, abs.
An expression nests at most MAX_DEPTH levels.
One recursive walk computes the value and, by the chain rule, the first
derivative in the same pass (never finite differences); each domain rule
is checked in one place.  ``abs`` has derivative 0 at the kink by
convention, and ``sqrt`` and ``x^p`` (0 < p < 1) have derivative ``inf``
at 0.  ``x`` is always a float64 array (a scalar is a 0-d one), and the
walk runs with numpy's floating-point warnings off: an overflow or a 0/0
gives inf or nan, which ``GridFunction`` and ``make_map`` reject.  A
power of two constants that overflows, such as ``10^400``, raises instead.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

import numpy as np

from .errors import ToolError


class ParseError(ToolError):
    """Syntax error in an expression string; carries the byte offset."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"syntax error at offset {offset}: {message}")
        self.offset = offset


class EvalError(ToolError):
    """Domain violation during evaluation (log of non-positive, etc.)."""


def _check(ok, message: str) -> None:
    if not ok:
        raise EvalError(message)


def _pow(a, b):
    """``a ** b``; a power of two constants that overflows raises."""
    try:
        return a ** b
    except OverflowError:
        raise EvalError("power overflows") from None


# name -> (function, chain rule (arg, value, arg') -> value',
#          domain check (test against 0, message) or None)
_FUNCS = {
    "sin": (np.sin, lambda a, v, d: np.cos(a) * d, None),
    "cos": (np.cos, lambda a, v, d: -np.sin(a) * d, None),
    "exp": (np.exp, lambda a, v, d: v * d, None),
    "log": (np.log, lambda a, v, d: d / a,
            (np.greater, "log of non-positive argument")),
    "sqrt": (np.sqrt, lambda a, v, d: d / (2.0 * v),
             (np.greater_equal, "sqrt of negative argument")),
    # abs: derivative 0 at the kink (sign(0) = 0)
    "abs": (np.abs, lambda a, v, d: np.sign(a) * d, None),
}


@dataclass(frozen=True)
class Num:
    value: float


@dataclass(frozen=True)
class Var:
    pass


@dataclass(frozen=True)
class Neg:
    arg: object


@dataclass(frozen=True)
class BinOp:
    op: str
    left: object
    right: object


@dataclass(frozen=True)
class Call:
    func: str
    arg: object


def _walk(e, x, dx):
    """``(value, derivative)`` of ``e`` at ``x``, where ``dx`` is the
    derivative of ``x`` itself; a derivative of None means the node does
    not depend on x, so ``dx=None`` evaluates the value alone."""
    kind = type(e)
    if kind is Num:
        return e.value, None
    if kind is Var:
        return x, dx
    if kind is Neg:
        a, da = _walk(e.arg, x, dx)
        return -a, None if da is None else -da
    if kind is Call:
        a, da = _walk(e.arg, x, dx)
        func, chain, domain = _FUNCS[e.func]
        if domain is not None:
            _check(np.all(domain[0](a, 0.0)), domain[1])
        v = func(a)
        return v, None if da is None else chain(a, v, da)
    a, da = _walk(e.left, x, dx)
    b, db = _walk(e.right, x, dx)
    op = e.op
    if op in "+*" and da is None and db is not None:
        a, da, b, db = b, db, a, da  # x-dependent first: with two NaNs, order picks the payload
    if op == "+":
        return a + b, da if db is None else da + db
    if op == "-":
        if da is None:
            return a - b, None if db is None else -db
        return a - b, da if db is None else da - db
    if op == "*":
        if da is None:
            return a * b, None
        return a * b, da * b if db is None else da * b + a * db
    if op == "/":
        _check(np.all(np.not_equal(b, 0.0)), "division by zero")
        if db is None:
            return a / b, None if da is None else da / b
        if da is None:
            return a / b, -a * db / (b * b)
        return a / b, (da * b - a * db) / (b * b)
    return _power(a, da, b, db)


def _power(a, da, b, db):
    """``a^b`` and its derivative; the power's domain rules live here."""
    if db is not None and not np.all(np.equal(db, 0.0)):
        _check(np.all(np.greater(a, 0.0)), "varying exponent needs a positive base")
        v = _pow(a, b)
        if da is None:
            return v, v * np.log(a) * db
        return v, v * (db * np.log(a) + b * da / a)
    # a constant exponent, or one whose derivative vanishes everywhere
    if not np.all(np.equal(b, np.floor(b))):
        _check(np.all(np.greater_equal(a, 0.0)), "negative base with non-integer exponent")
    _check(not np.any(np.logical_and(np.equal(a, 0.0), np.less(b, 0.0))),
           "zero base with negative exponent")
    if da is None:
        return _pow(a, b), None if db is None else np.zeros(np.shape(db))
    if np.all(np.equal(b, 0.0)):  # x^0 is 1 with slope 0, even at x = 0
        return np.ones(np.shape(a)), np.zeros(np.shape(a))
    return _pow(a, b), b * _pow(a, b - 1.0) * da


_NUMBER_RE = re.compile(r"(?:\d+\.\d*|\.\d+|\d+)(?:[eE][+-]?\d+)?")
_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z_0-9]*")
_OPS = "+-*/^()"


def _tokenize(text: str):
    tokens = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        m = _NUMBER_RE.match(text, i)
        if m:
            tokens.append(("num", m.group(), i))
            i = m.end()
            continue
        m = _NAME_RE.match(text, i)
        if m:
            tokens.append(("name", m.group(), i))
            i = m.end()
            continue
        if ch in _OPS:
            tokens.append((ch, ch, i))
            i += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", i)
    tokens.append(("end", "", n))
    return tokens


#: deepest nesting `parse` accepts; each binary operator, unary minus,
#: exponent, function call and pair of parentheses adds a level, so
#: neither the recursive parser nor `_walk` can exhaust Python's stack
MAX_DEPTH = 100


class _Parser:
    """Recursive descent; each rule returns ``(tree, nesting depth)``."""

    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.i = 0
        self.open = 0  # operands `_nested` is in; never above their depth

    def _peek(self):
        return self.tokens[self.i]

    def _next(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def _level(self, depth: int, pos: int) -> int:
        if depth > MAX_DEPTH:
            raise ParseError(f"expression nests deeper than {MAX_DEPTH} levels", pos)
        return depth

    def _nested(self, rule, pos):
        """The tree read by `rule` one level down, checked on the way in."""
        self.open = self._level(self.open + 1, pos)
        e, depth = rule()
        self.open -= 1
        return e, self._level(depth + 1, pos)

    def parse(self):
        e, _ = self.expr()
        kind, text, pos = self._peek()
        if kind != "end":
            raise ParseError(f"unexpected {text!r}", pos)
        return e

    def _chain(self, ops, operand):
        """A left-associative chain of `operand`s joined by `ops`."""
        e, depth = operand()
        while self._peek()[0] in ops:
            op, _, pos = self._next()
            right, d = operand()
            e, depth = BinOp(op, e, right), self._level(max(depth, d) + 1, pos)
        return e, depth

    def expr(self):
        return self._chain(("+", "-"), self.term)

    def term(self):
        return self._chain(("*", "/"), self.factor)

    def factor(self):
        kind, _, pos = self._peek()
        if kind == "-":
            self._next()
            arg, depth = self._nested(self.factor, pos)
            return Neg(arg), depth
        return self.power()

    def power(self):
        base, depth = self.atom()
        kind, _, pos = self._peek()
        if kind == "^":
            self._next()
            exponent, d = self._nested(self.factor, pos)
            return BinOp("^", base, exponent), self._level(max(depth + 1, d), pos)
        return base, depth

    def atom(self):
        kind, text, pos = self._next()
        if kind == "num":
            return Num(float(text)), 1
        if kind == "name":
            if text == "x":
                return Var(), 1
            if text == "pi":
                return Num(math.pi), 1
            if text in _FUNCS:
                kind2, text2, pos2 = self._next()
                if kind2 != "(":
                    raise ParseError(f"expected '(' after {text!r}", pos2)
                arg, depth = self._nested(self.expr, pos)
                kind3, _, pos3 = self._next()
                if kind3 != ")":
                    raise ParseError("unbalanced parentheses", pos3)
                return Call(text, arg), depth
            raise ParseError(f"unknown identifier {text!r}", pos)
        if kind == "(":
            e, depth = self._nested(self.expr, pos)
            kind2, _, pos2 = self._next()
            if kind2 != ")":
                raise ParseError("unbalanced parentheses", pos2)
            return e, depth
        if kind == "end":
            raise ParseError("empty operand", pos)
        raise ParseError(f"unexpected {text!r}", pos)


def parse(text: str):
    """Parse an expression string into an AST; raise ParseError with offset."""
    if not isinstance(text, str) or not text.strip():
        raise ParseError("empty expression", 0)
    return _Parser(text).parse()


def _fill(v, x):
    """``v`` broadcast to the shape of ``x`` if it came out constant."""
    if np.ndim(v) == 0:
        return np.full(x.shape, float(v))
    return v


def evaluate(e, x):
    """``e`` at ``x`` as a float64 array of x's shape (0-d for a scalar)."""
    x = np.asarray(x, dtype=float)
    with np.errstate(all="ignore"):
        return _fill(_walk(e, x, None)[0], x)


def eval_with_derivative(e, x):
    """``(value, derivative)`` of ``e`` at ``x`` by the chain rule, each
    as `evaluate` returns it."""
    x = np.asarray(x, dtype=float)
    with np.errstate(all="ignore"):
        val, der = _walk(e, x, np.ones(x.shape))
    return _fill(val, x), _fill(0.0 if der is None else der, x)
