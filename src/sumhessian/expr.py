"""Arithmetic expressions for right-hand sides and boundary data.

Grammar (whitespace-insensitive), loosest to tightest binding:

    expr   := term (('+' | '-') term)*
    term   := factor (('*' | '/') factor)*
    factor := '-' factor | power
    power  := atom ('^' factor)?          # right-associative
    atom   := NUMBER | IDENT | FUNC '(' expr ')' | '(' expr ')'

so "-2^2" is -(2^2) and "2^3^2" is 2^(3^2). Identifiers are limited to
x1 x2 x3 u p1 p2 p3; functions to exp log sin cos sqrt abs.

Literals are finite doubles: one that overflows, such as 1e999, is a
syntax error, so every Num prints and parses back. Evaluation is IEEE
double and numpy-aware (bindings may be arrays of a common shape); domain
failures (log/sqrt of a negative, division by zero, overflow to
non-finite) and non-finite bindings raise EvalError naming the offending
subexpression instead of returning NaN. ``diff`` returns the exact
derivative of a tree with respect to one identifier, as another tree.
"""
from __future__ import annotations

import math
import re
from dataclasses import dataclass

import numpy as np

IDENTIFIERS = ("x1", "x2", "x3", "u", "p1", "p2", "p3")
FUNCTIONS = ("exp", "log", "sin", "cos", "sqrt", "abs")

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)"
    r"|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^()]))"
)


class ExprError(ValueError):
    """Base for expression failures."""


class SyntaxErrorAt(ExprError):
    """Parse failure; carries the byte offset and what was expected."""

    def __init__(self, offset: int, expected: str, found: str):
        self.offset = offset
        self.expected = expected
        self.found = found
        super().__init__(f"at offset {offset}: expected {expected}, found {found}")


class UnknownIdentifierError(ExprError):
    def __init__(self, offset: int, name: str):
        self.offset = offset
        self.name = name
        super().__init__(f"at offset {offset}: unknown identifier '{name}'")


class EvalError(ExprError):
    """Domain failure during evaluation; names the offending subexpression."""

    def __init__(self, reason: str, node):
        self.node = node
        super().__init__(f"{reason} in '{to_source(node)}'")


@dataclass(frozen=True)
class Num:
    value: float


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Neg:
    operand: "Node"


@dataclass(frozen=True)
class BinOp:
    op: str  # one of + - * / ^
    left: "Node"
    right: "Node"


@dataclass(frozen=True)
class Call:
    func: str
    arg: "Node"


Node = Num | Var | Neg | BinOp | Call


@dataclass(frozen=True)
class _Token:
    kind: str  # num | name | op | end
    text: str
    offset: int


def _tokenize(source: str) -> list[_Token]:
    tokens = []
    pos = 0
    while pos < len(source):
        m = _TOKEN_RE.match(source, pos)
        if m is None:
            stripped = source[pos:].lstrip()
            if not stripped:
                break
            bad_at = len(source) - len(stripped)
            raise SyntaxErrorAt(bad_at, "a token", repr(stripped[0]))
        if m.group("num") is not None:
            tokens.append(_Token("num", m.group("num"), m.start("num")))
        elif m.group("name") is not None:
            tokens.append(_Token("name", m.group("name"), m.start("name")))
        else:
            tokens.append(_Token("op", m.group("op"), m.start("op")))
        pos = m.end()
    tokens.append(_Token("end", "", len(source)))
    return tokens


class _Parser:
    def __init__(self, source: str):
        self.source = source
        self.tokens = _tokenize(source)
        self.pos = 0

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect_op(self, op: str) -> None:
        tok = self.peek()
        if tok.kind == "op" and tok.text == op:
            self.advance()
            return
        raise SyntaxErrorAt(tok.offset, f"'{op}'", repr(tok.text) if tok.text else "end of input")

    def parse(self) -> Node:
        node = self.expr()
        tok = self.peek()
        if tok.kind != "end":
            raise SyntaxErrorAt(tok.offset, "end of input", repr(tok.text))
        return node

    def expr(self) -> Node:
        node = self.term()
        while self.peek().kind == "op" and self.peek().text in "+-":
            op = self.advance().text
            node = BinOp(op, node, self.term())
        return node

    def term(self) -> Node:
        node = self.factor()
        while self.peek().kind == "op" and self.peek().text in "*/":
            op = self.advance().text
            node = BinOp(op, node, self.factor())
        return node

    def factor(self) -> Node:
        tok = self.peek()
        if tok.kind == "op" and tok.text == "-":
            self.advance()
            return Neg(self.factor())
        return self.power()

    def power(self) -> Node:
        base = self.atom()
        tok = self.peek()
        if tok.kind == "op" and tok.text == "^":
            self.advance()
            return BinOp("^", base, self.factor())
        return base

    def atom(self) -> Node:
        tok = self.advance()
        if tok.kind == "num":
            value = float(tok.text)
            if not math.isfinite(value):
                raise SyntaxErrorAt(tok.offset, "a finite number", repr(tok.text))
            return Num(value)
        if tok.kind == "name":
            if tok.text in FUNCTIONS:
                self.expect_op("(")
                arg = self.expr()
                self.expect_op(")")
                return Call(tok.text, arg)
            if tok.text in IDENTIFIERS:
                return Var(tok.text)
            raise UnknownIdentifierError(tok.offset, tok.text)
        if tok.kind == "op" and tok.text == "(":
            node = self.expr()
            self.expect_op(")")
            return node
        found = repr(tok.text) if tok.text else "end of input"
        raise SyntaxErrorAt(tok.offset, "a number, identifier, function or '('", found)


def parse(source: str) -> Node:
    """Parse UTF-8 text into an expression tree."""
    return _Parser(source).parse()


def variables(node: Node) -> set[str]:
    """Identifiers appearing in the tree."""
    if isinstance(node, Var):
        return {node.name}
    if isinstance(node, Neg):
        return variables(node.operand)
    if isinstance(node, BinOp):
        return variables(node.left) | variables(node.right)
    if isinstance(node, Call):
        return variables(node.arg)
    return set()


def diff(node: Node, var: str) -> Node:
    """Exact derivative with respect to identifier ``var``, unsimplified;
    Num(0.0) when ``var`` does not occur. d abs(a) = a/abs(a) a' fails to
    evaluate at a = 0. No negative constant is added, so the result
    round-trips through to_source and parse when ``node`` does."""
    if var not in variables(node):
        return Num(0.0)
    if isinstance(node, Var):
        return Num(1.0)
    if isinstance(node, Neg):
        return Neg(diff(node.operand, var))
    if isinstance(node, Call):
        a = node.arg
        outer = {"exp": node, "log": BinOp("/", Num(1.0), a), "sin": Call("cos", a),
                 "cos": Neg(Call("sin", a)), "sqrt": BinOp("/", Num(0.5), node),
                 "abs": BinOp("/", a, node)}[node.func]
        return BinOp("*", outer, diff(a, var))
    a, b = node.left, node.right
    da, db = diff(a, var), diff(b, var)
    if node.op in "+-":
        return BinOp(node.op, da, db)
    if node.op == "*":
        return BinOp("+", BinOp("*", da, b), BinOp("*", a, db))
    if node.op == "/":
        return BinOp("/", BinOp("-", BinOp("*", da, b), BinOp("*", a, db)), BinOp("*", b, b))
    if var not in variables(b):     # b a^(b-1) a'
        return BinOp("*", BinOp("*", b, BinOp("^", a, BinOp("-", b, Num(1.0)))), da)
    # a^b (b' log a + b a'/a)
    return BinOp("*", node, BinOp("+", BinOp("*", db, Call("log", a)),
                                  BinOp("/", BinOp("*", b, da), a)))


def to_source(node: Node) -> str:
    """Pretty-print; parse(to_source(parse(s))) is structurally identical."""
    if isinstance(node, Num):
        return repr(node.value)
    if isinstance(node, Var):
        return node.name
    if isinstance(node, Neg):
        return f"(-{to_source(node.operand)})"
    if isinstance(node, BinOp):
        return f"({to_source(node.left)} {node.op} {to_source(node.right)})"
    if isinstance(node, Call):
        return f"{node.func}({to_source(node.arg)})"
    raise TypeError(f"not an expression node: {node!r}")


_UFUNCS = {
    "exp": np.exp,
    "log": np.log,
    "sin": np.sin,
    "cos": np.cos,
    "sqrt": np.sqrt,
    "abs": np.abs,
}


def _check_finite(value, node: Node):
    if not np.all(np.isfinite(value)):
        raise EvalError("non-finite result", node)
    return value


def evaluate(node: Node, env: dict):
    """Evaluate with bindings for every identifier used.

    Bindings may be floats or numpy arrays of one common shape; the result
    has that shape (a plain float for all-scalar inputs). Domain failures
    and non-finite bindings of the tree's identifiers raise EvalError; NaN
    is never returned silently.
    """
    for name in sorted(variables(node) & env.keys()):
        if not np.all(np.isfinite(env[name])):
            raise EvalError("non-finite binding", Var(name))
    out = _eval(node, env)
    if np.ndim(out) == 0:
        return float(out)
    return out


def _eval(node: Node, env: dict):
    if isinstance(node, Num):
        return node.value
    if isinstance(node, Var):
        try:
            return env[node.name]
        except KeyError:
            raise EvalError(f"unbound identifier '{node.name}'", node) from None
    if isinstance(node, Neg):
        return -_eval(node.operand, env)
    if isinstance(node, Call):
        arg = np.asarray(_eval(node.arg, env), dtype=float)
        if node.func == "log" and np.any(arg <= 0):
            raise EvalError("log of a nonpositive value", node)
        if node.func == "sqrt" and np.any(arg < 0):
            raise EvalError("sqrt of a negative value", node)
        with np.errstate(over="ignore", invalid="ignore"):
            return _check_finite(_UFUNCS[node.func](arg), node)
    if isinstance(node, BinOp):
        left = np.asarray(_eval(node.left, env), dtype=float)
        right = np.asarray(_eval(node.right, env), dtype=float)
        if node.op == "+":
            return _check_finite(left + right, node)
        if node.op == "-":
            return _check_finite(left - right, node)
        if node.op == "*":
            with np.errstate(over="ignore"):
                return _check_finite(left * right, node)
        if node.op == "/":
            if np.any(right == 0):
                raise EvalError("division by zero", node)
            with np.errstate(over="ignore"):
                return _check_finite(left / right, node)
        if node.op == "^":
            with np.errstate(over="ignore", invalid="ignore"):
                out = np.power(left, right)
            if np.any(np.isnan(out)):
                raise EvalError("fractional power of a negative base", node)
            return _check_finite(out, node)
    raise TypeError(f"not an expression node: {node!r}")
