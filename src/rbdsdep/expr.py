"""Small arithmetic expression language for coefficient functions.

Generators, diffusion coefficients, barriers and terminal conditions are
given as text in a fixed grammar and parsed into an immutable AST.  The
variable set is

    t                 current time
    y                 current value of the state process
    z1..zd            components of the Brownian integrand
    u1..um            jump integrand, one slot per mark
    w1..wd            components of the driving Brownian path at time t
    j1..jm            cumulative jump counts per mark up to time t
    znorm             Euclidean norm of (z1..zd)
    unorm             sqrt(sum_k lambda_k * u_k^2), the intensity-weighted norm

Operators: binary + - * /, unary -.  Functions: abs, sign, exp, sin, cos,
sqrt, pos, neg, indicator_pos (one argument) and max, min (two arguments).
Numbers are decimal literals with optional exponent.

Evaluation is total on the declared variables: division by zero, sqrt of a
negative value, or a NaN anywhere in the result raise EvalError instead of
propagating silently.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .errors import EvalError, ParseError


@dataclass(frozen=True)
class Num:
    value: float


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Unary:
    op: str
    operand: "Expr"


@dataclass(frozen=True)
class Binary:
    op: str
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Call:
    func: str
    args: tuple


Expr = Union[Num, Var, Unary, Binary, Call]

FUNCTION_ARITY = {
    "abs": 1,
    "sign": 1,
    "exp": 1,
    "sin": 1,
    "cos": 1,
    "sqrt": 1,
    "pos": 1,
    "neg": 1,
    "indicator_pos": 1,
    "max": 2,
    "min": 2,
}

_VAR_PATTERN = re.compile(r"^(t|y|znorm|unorm|[zuwj][1-9][0-9]*)$")

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>\d+\.\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?"
    r"|\d+(?:[eE][+-]?\d+)?)"
    r"|(?P<name>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<op>[+\-*/(),]))"
)

# precedence levels used by both the parser and the printer
_ADD, _MUL, _UNARY = 10, 20, 30
_BIN_PREC = {"+": _ADD, "-": _ADD, "*": _MUL, "/": _MUL}


@dataclass
class _Token:
    kind: str  # "num" | "name" | "op" | "end"
    text: str
    offset: int


def _tokenize(text: str) -> list:
    tokens = []
    pos = 0
    while pos < len(text):
        match = _TOKEN_RE.match(text, pos)
        if match is None:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            bad_at = len(text) - len(stripped)
            raise ParseError(f"unexpected character {stripped[0]!r}", bad_at)
        if match.group("num") is not None:
            tokens.append(_Token("num", match.group("num"), match.start("num")))
        elif match.group("name") is not None:
            tokens.append(_Token("name", match.group("name"), match.start("name")))
        else:
            tokens.append(_Token("op", match.group("op"), match.start("op")))
        pos = match.end()
    tokens.append(_Token("end", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.index = 0

    def peek(self) -> _Token:
        return self.tokens[self.index]

    def advance(self) -> _Token:
        token = self.tokens[self.index]
        self.index += 1
        return token

    def expect(self, text: str):
        token = self.advance()
        if token.kind != "op" or token.text != text:
            raise ParseError(f"expected {text!r}, found {token.text!r}", token.offset)

    def parse(self) -> Expr:
        node = self.parse_expr(0)
        tail = self.peek()
        if tail.kind != "end":
            raise ParseError(f"unexpected token {tail.text!r}", tail.offset)
        return node

    def parse_expr(self, min_prec: int) -> Expr:
        node = self.parse_prefix()
        while True:
            token = self.peek()
            if token.kind != "op" or token.text not in _BIN_PREC:
                break
            prec = _BIN_PREC[token.text]
            if prec < min_prec:
                break
            self.advance()
            right = self.parse_expr(prec + 1)  # left associative
            node = Binary(token.text, node, right)
        return node

    def parse_prefix(self) -> Expr:
        token = self.advance()
        if token.kind == "num":
            return Num(float(token.text))
        if token.kind == "name":
            if token.text in FUNCTION_ARITY:
                return self.parse_call(token)
            if _VAR_PATTERN.match(token.text):
                return Var(token.text)
            raise ParseError(f"unknown identifier {token.text!r}", token.offset)
        if token.kind == "op" and token.text == "-":
            return Unary("-", self.parse_expr(_UNARY))
        if token.kind == "op" and token.text == "(":
            node = self.parse_expr(0)
            self.expect(")")
            return node
        raise ParseError(f"unexpected token {token.text!r}", token.offset)

    def parse_call(self, name_token: _Token) -> Expr:
        self.expect("(")
        args = [self.parse_expr(0)]
        while self.peek().kind == "op" and self.peek().text == ",":
            self.advance()
            args.append(self.parse_expr(0))
        self.expect(")")
        arity = FUNCTION_ARITY[name_token.text]
        if len(args) != arity:
            raise ParseError(
                f"{name_token.text} takes {arity} argument(s), got {len(args)}",
                name_token.offset,
            )
        return Call(name_token.text, tuple(args))


def parse_expr(text: str) -> Expr:
    """Parse expression text into an AST.

    Raises ParseError (with the byte offset of the offending token) on
    lexical errors, unknown identifiers and arity mismatches.
    """
    return _Parser(text).parse()


def to_string(expr: Expr) -> str:
    """Canonical text form; parse(to_string(e)) is structurally equal to e."""
    return _print(expr, 0)


def _print(expr: Expr, parent_prec: int) -> str:
    if isinstance(expr, Num):
        return repr(expr.value)
    if isinstance(expr, Var):
        return expr.name
    if isinstance(expr, Call):
        return f"{expr.func}({', '.join(_print(a, 0) for a in expr.args)})"
    if isinstance(expr, Unary):
        inner = _print(expr.operand, _UNARY)
        return f"-{inner}"
    prec = _BIN_PREC[expr.op]
    left = _print(expr.left, prec)
    # right operand of - and / needs parens at equal precedence
    right = _print(expr.right, prec + 1)
    text = f"{left} {expr.op} {right}"
    if prec < parent_prec:
        return f"({text})"
    return text


def variables(expr: Expr) -> set:
    """Set of variable names the expression references."""
    if isinstance(expr, Var):
        return {expr.name}
    if isinstance(expr, Unary):
        return variables(expr.operand)
    if isinstance(expr, Binary):
        return variables(expr.left) | variables(expr.right)
    if isinstance(expr, Call):
        out = set()
        for arg in expr.args:
            out |= variables(arg)
        return out
    return set()


@dataclass
class EvalContext:
    """Variable bindings for evaluation.

    Vector-valued slots hold their components along the last axis: z and w
    have shape (..., d), u and j have shape (..., m).  All leading shapes
    must be mutually broadcastable.  intensities (shape (m,)) are required
    only when the expression uses unorm.
    """

    t: Optional[object] = None
    y: Optional[object] = None
    z: Optional[object] = None
    u: Optional[object] = None
    w: Optional[object] = None
    j: Optional[object] = None
    intensities: Optional[object] = None


def evaluate(expr: Expr, ctx: EvalContext):
    """Evaluate over numpy arrays with broadcasting; returns an ndarray
    (0-d for all-scalar input).  Raises EvalError on missing variables,
    division by zero, sqrt of a negative value, or NaN in the result."""
    with np.errstate(over="ignore", under="ignore"):
        result = np.asarray(_eval(expr, ctx), dtype=float)
    if np.isnan(result).any():
        raise EvalError(f"NaN produced while evaluating '{to_string(expr)}'")
    return result


def _component(ctx_field, name: str, label: str, index: int):
    if ctx_field is None:
        raise EvalError(f"variable '{name}' is not available in this context")
    arr = np.asarray(ctx_field, dtype=float)
    if arr.ndim == 0 or index >= arr.shape[-1]:
        size = 0 if arr.ndim == 0 else arr.shape[-1]
        raise EvalError(f"variable '{name}' out of range: {label} has {size} component(s)")
    return arr[..., index]


def _eval(expr: Expr, ctx: EvalContext):
    if isinstance(expr, Num):
        return expr.value
    if isinstance(expr, Var):
        return _eval_var(expr.name, ctx)
    if isinstance(expr, Unary):
        return -np.asarray(_eval(expr.operand, ctx), dtype=float)
    if isinstance(expr, Binary):
        left = np.asarray(_eval(expr.left, ctx), dtype=float)
        right = np.asarray(_eval(expr.right, ctx), dtype=float)
        if expr.op == "+":
            return left + right
        if expr.op == "-":
            return left - right
        if expr.op == "*":
            return left * right
        if np.any(right == 0.0):
            raise EvalError(f"division by zero in '{to_string(expr)}'")
        return left / right
    return _eval_call(expr, ctx)


def _znorm(z):
    return np.sqrt((z * z).sum(axis=-1))


def _unorm(u, intensities):
    return np.sqrt((intensities * u * u).sum(axis=-1))


def size_norms(y, z, u, intensities):
    """(|y|, znorm, unorm) with z and u vectors along the last axis:
    |z|_2 and |u|_lambda = sqrt(sum_k lambda_k u_k^2), as the grammar
    defines them."""
    return np.abs(y), _znorm(z), _unorm(u, intensities)


def _eval_var(name: str, ctx: EvalContext):
    if name == "t":
        if ctx.t is None:
            raise EvalError("variable 't' is not available in this context")
        return np.asarray(ctx.t, dtype=float)
    if name == "y":
        if ctx.y is None:
            raise EvalError("variable 'y' is not available in this context")
        return np.asarray(ctx.y, dtype=float)
    if name == "znorm":
        if ctx.z is None:
            raise EvalError("variable 'znorm' is not available in this context")
        return _znorm(np.asarray(ctx.z, dtype=float))
    if name == "unorm":
        if ctx.u is None or ctx.intensities is None:
            raise EvalError("variable 'unorm' needs u and the mark intensities")
        return _unorm(np.asarray(ctx.u, dtype=float), np.asarray(ctx.intensities, dtype=float))
    index = int(name[1:]) - 1
    if name[0] == "z":
        return _component(ctx.z, name, "z", index)
    if name[0] == "u":
        return _component(ctx.u, name, "u", index)
    if name[0] == "w":
        return _component(ctx.w, name, "w", index)
    return _component(ctx.j, name, "j", index)


def _eval_call(expr: Call, ctx: EvalContext):
    args = [np.asarray(_eval(a, ctx), dtype=float) for a in expr.args]
    func = expr.func
    if func == "abs":
        return np.abs(args[0])
    if func == "sign":
        return np.sign(args[0])
    if func == "exp":
        return np.exp(args[0])
    if func == "sin":
        return np.sin(args[0])
    if func == "cos":
        return np.cos(args[0])
    if func == "sqrt":
        if np.any(args[0] < 0.0):
            raise EvalError(f"sqrt of negative value in '{to_string(expr)}'")
        return np.sqrt(args[0])
    if func == "pos":
        return np.maximum(args[0], 0.0)
    if func == "neg":
        return np.maximum(-args[0], 0.0)
    if func == "indicator_pos":
        return np.where(args[0] > 0.0, 1.0, 0.0)
    if func == "max":
        return np.maximum(args[0], args[1])
    return np.minimum(args[0], args[1])


GRAMMAR_TEXT = """\
expression grammar
------------------
  expr    := term (('+'|'-') term)*
  term    := unary (('*'|'/') unary)*
  unary   := '-' unary | atom
  atom    := NUMBER | VARIABLE | FUNC '(' expr (',' expr)* ')' | '(' expr ')'
  NUMBER  := decimal literal, optional fraction and exponent (1, 0.5, 2e-3)

variables
  t        current time
  y        state value
  z1..zd   Brownian integrand components
  u1..um   jump integrand, one slot per mark
  w1..wd   driving Brownian path at time t
  j1..jm   cumulative jump counts per mark up to time t
  znorm    sqrt(z1^2 + ... + zd^2)
  unorm    sqrt(lambda_1*u1^2 + ... + lambda_m*um^2)

functions (arity)
  abs(1) sign(1) exp(1) sin(1) cos(1) sqrt(1) pos(1) neg(1)
  indicator_pos(1) max(2) min(2)

pos(x) = max(x, 0); neg(x) = max(-x, 0); indicator_pos(x) = 1 if x > 0 else 0.
Division by zero and sqrt of a negative value raise evaluation errors.
"""
