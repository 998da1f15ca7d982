"""A small arithmetic expression language with exact symbolic differentiation.

Expressions are parsed from strings like ``"0.5*(x1^2 + u1^2)"`` over the
variables ``t``, ``x1..xn``, ``u1..un``, ``xa1..xan``, ``xb1..xbn``. The
syntax trees support evaluation (scalars or numpy arrays, elementwise) and
repeated partial differentiation. No simplification is done beyond constant
folding, and every folding rule is listed and applied in one place, ``_bin``.
"""

from __future__ import annotations

import functools
import math
import re
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Expr", "parse", "differentiate", "evaluate", "compile_group", "free_variables",
    "to_string", "ParseError", "EvalError",
]

# each function's numpy ufunc and its derivative at its argument, for the chain rule
_TABLE = {
    "sin": (np.sin, lambda e: Call("cos", e.arg)),
    "cos": (np.cos, lambda e: _neg(Call("sin", e.arg))),
    "exp": (np.exp, lambda e: e),
    "log": (np.log, lambda e: _bin("/", _const(1.0), e.arg)),
    "sqrt": (np.sqrt, lambda e: _bin("/", _const(0.5), e)),
    "cosh": (np.cosh, lambda e: Call("sinh", e.arg)),
    "sinh": (np.sinh, lambda e: Call("cosh", e.arg)),
    "abs": (np.abs, lambda e: Call("sign", e.arg)),
    # internal: produced by differentiating abs; evaluates to 0 at the kink
    "sign": (np.sign, lambda e: _const(0.0)),  # zero almost everywhere
}
_FUNCS = {name: fn for name, (fn, _) in _TABLE.items()}

# the ufuncs evaluation runs, so a folded constant is what evaluation would give
_FOLD = {"+": np.add, "-": np.subtract, "*": np.multiply, "^": np.power}

_VAR_RE = re.compile(r"(x|u|xa|xb)([0-9]*)$")


class ParseError(ValueError):
    """Syntax or name error, carrying the byte offset into the source."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (offset {offset})")
        self.offset = offset


class EvalError(ValueError):
    """Raised when evaluation hits an unbound name or a non-finite value."""


class Expr:
    __slots__ = ()

    def __repr__(self):
        return f"Expr({to_string(self)!r})"


@dataclass(frozen=True, repr=False)
class Const(Expr):
    value: float


@dataclass(frozen=True, repr=False)
class Var(Expr):
    name: str


@dataclass(frozen=True, repr=False)
class Neg(Expr):
    arg: Expr


@dataclass(frozen=True, repr=False)
class Bin(Expr):
    op: str  # one of + - * / ^
    left: Expr
    right: Expr


@dataclass(frozen=True, repr=False)
class Call(Expr):
    fn: str
    arg: Expr


# -- smart constructors (constant folding only) ------------------------------


def _const(v: float) -> Const:
    return Const(float(v))


def _bin(op: str, a: Expr, b: Expr) -> Expr:
    """The node a op b, folded by the first of these rules that applies. A
    constant is a Const node, and -0.0 counts as 0 in every test.

    - ``0 / b = +0.0``, then ``a / 1 = a``: -0.0/1 gives +0.0.
    - ``a ^ 1 = a`` and ``a ^ 0 = 1``.
    - Two constants combine under + - * ^ as evaluation would (0*inf gives nan,
      0^-1 gives inf), but not under /: 1/2 stays.
    - ``0 + b = b``, ``a + 0 = a``, ``a - 0 = a`` and ``0 - b = -b``.
    - ``0 * b = a * 0 = 0``, ``1 * b = b`` and ``a * 1 = a``.
    """
    left = a.value if isinstance(a, Const) else None
    right = b.value if isinstance(b, Const) else None
    if op == "/" and left == 0.0:
        return _const(0.0)
    if op in "/^" and right == 1.0:
        return a
    if op == "^" and right == 0.0:
        return _const(1.0)
    if op != "/" and left is not None and right is not None:
        with np.errstate(all="ignore"):  # an inf or nan is reported when the tree is evaluated
            return _const(_FOLD[op](left, right))
    if op == "*" and (left == 0.0 or right == 0.0):
        return _const(0.0)
    if (op in "+-" and right == 0.0) or (op == "*" and right == 1.0):
        return a
    if (op == "+" and left == 0.0) or (op == "*" and left == 1.0):
        return b
    if op == "-" and left == 0.0:
        return _neg(b)
    return Bin(op, a, b)


def _neg(a: Expr) -> Expr:
    if isinstance(a, Const):
        return _const(-a.value)
    return Neg(a)


# -- parsing ------------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>\d+\.?\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?)"
    r"|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^()])|(?P<bad>\S))"
)


def _tokenize(source: str):
    tokens = []
    for m in _TOKEN_RE.finditer(source):
        kind = m.lastgroup
        if kind == "bad":
            raise ParseError(f"unexpected character {m.group(kind)!r}", m.start(kind))
        tokens.append((kind, m.group(kind), m.start(kind)))
    tokens.append(("end", "", len(source)))
    return tokens


class _Parser:
    def __init__(self, tokens, dim: int):
        self.tokens = tokens
        self.i = 0
        self.dim = dim

    def accept(self, ops: str):
        """Consume the next token and return its text if it is one of the operators ops."""
        kind, text, _ = self.tokens[self.i]
        if kind != "op" or text not in ops:
            return None
        self.i += 1
        return text

    def expect(self, op: str):
        if self.accept(op) is None:
            raise ParseError(f"expected {op!r}", self.tokens[self.i][2])

    def parse_expr(self) -> Expr:
        return self._left_assoc("+-", self.parse_term)

    def parse_term(self) -> Expr:
        return self._left_assoc("*/", self.parse_unary)

    def _left_assoc(self, ops: str, operand) -> Expr:
        node = operand()
        while op := self.accept(ops):
            node = Bin(op, node, operand())
        return node

    def parse_unary(self) -> Expr:
        if self.accept("-"):
            return _neg(self.parse_unary())
        return self.parse_power()

    def parse_power(self) -> Expr:
        base = self.parse_atom()
        if not self.accept("^"):
            return base
        # right-associative; the exponent binds tighter than unary minus and
        # takes at most one leading minus, so x^--y is an error
        if self.accept("-"):
            return Bin("^", base, _neg(self.parse_power()))
        return Bin("^", base, self.parse_power())

    def parse_atom(self) -> Expr:
        if self.accept("("):
            node = self.parse_expr()
            self.expect(")")
            return node
        kind, text, off = self.tokens[self.i]
        self.i += 1
        if kind == "num":
            return _const(float(text))
        if kind == "name":
            if text in _FUNCS:
                self.expect("(")
                arg = self.parse_expr()
                self.expect(")")
                return Call(text, arg)
            return self._variable(text, off)
        raise ParseError("expected a value", off)

    def _variable(self, name: str, off: int) -> Var:
        if name == "t":
            return Var("t")
        m = _VAR_RE.match(name)
        if m is None:
            raise ParseError(f"unknown identifier {name!r}", off)
        index = m.group(2)
        if not index:
            raise ParseError(f"variable {name!r} is missing an index", off)
        if not (1 <= int(index) <= self.dim):
            raise ParseError(f"variable index out of range 1..{self.dim}: {name!r}", off)
        return Var(name)


def parse(source: str, dim: int) -> Expr:
    """Parse source into an expression tree for problems of dimension dim."""
    if not source or not source.strip():
        raise ParseError("empty expression", 0)
    parser = _Parser(_tokenize(source), dim)
    node = parser.parse_expr()
    kind, text, off = parser.tokens[parser.i]
    if kind != "end":
        raise ParseError(f"unexpected {text!r}", off)
    return node


# -- evaluation ---------------------------------------------------------------


def evaluate(e: Expr, env: dict):
    """Evaluate e elementwise; env maps variable names to floats/arrays.

    Raises EvalError on unbound variables and on any non-finite result
    (division by zero, log/sqrt of a negative argument, overflow, ...).
    """
    names, consts = _leaves((e,))
    bound = tuple(name for name in names if name in env)
    return _compiled((e,), bound, consts)(*[env[name] for name in bound])[0]


def compile_group(exprs: tuple, names: tuple):
    """One function fn(*values) returning what evaluate gives for each of exprs
    with values bound to names in order. It makes the numpy calls of a tree
    walk, in the same order, under one np.errstate. Functions are cached by
    the value of (exprs, names), so an equal problem parsed again reuses them.
    """
    exprs = tuple(exprs)
    return _compiled(exprs, tuple(names), _leaves(exprs)[1])


def _leaves(exprs) -> tuple:
    """Variable names in order of first use, and the type and bits of each
    constant: Const(0.0) == Const(-0.0) as trees, but they evaluate apart."""
    names, consts = {}, []
    stack = list(reversed(exprs))
    while stack:
        e = stack.pop()
        if isinstance(e, Const):
            v = e.value
            consts.append((type(v), float.hex(v) if isinstance(v, float) else repr(v)))
        elif isinstance(e, Var):
            names[e.name] = None
        else:
            stack += (e.arg,) if isinstance(e, (Neg, Call)) else (e.right, e.left)
    return tuple(names), tuple(consts)


_BINOPS = {"+": "{} + {}", "-": "{} - {}", "*": "{} * {}", "/": "_div({}, {})"}


@functools.lru_cache(maxsize=256)
def _compiled(exprs: tuple, names: tuple, consts: tuple):
    """Generate and compile the function of compile_group; consts only keys the cache.

    The source is built from generated names and the templates of _BINOPS
    alone: constants, functions and messages are bound as values.
    """
    scope = {"_errstate": np.errstate, "_isfinite": np.isfinite, "_div": np.true_divide,
             "_pow": np.power, "_EvalError": EvalError}
    args = {name: f"_a{i}" for i, name in enumerate(names)}
    body = []

    def bind(value) -> str:
        key = f"_k{len(scope)}"
        scope[key] = value
        return key

    def emit(e: Expr) -> str:
        if isinstance(e, Const):
            return bind(e.value)
        if isinstance(e, Var):
            if e.name in args:
                return args[e.name]
            body.append(f"raise _EvalError({bind(f'unbound variable {e.name!r}')})")
            return "None"  # the code after the raise never runs
        if isinstance(e, Neg):
            code = f"-{emit(e.arg)}"
        elif isinstance(e, Call):
            code = f"{bind(_FUNCS[e.fn])}({emit(e.arg)})"
        else:
            left = emit(e.left)
            code = _BINOPS.get(e.op, "_pow({}, {})").format(left, emit(e.right))
        body.append(f"_t{len(body)} = {code}")
        return f"_t{len(body) - 1}"

    results = []
    for e in exprs:
        results.append(emit(e))
        if not (isinstance(e, Const) and type(e.value) is float and math.isfinite(e.value)):
            message = bind(f"non-finite value while evaluating {to_string(e)!r}")
            body.append(f"if not _isfinite({results[-1]}).all(): raise _EvalError({message})")
    lines = [f"def _group({', '.join(args.values())}):", "    with _errstate(all='ignore'):"]
    lines += [f"        {line}" for line in body]
    lines.append(f"        return ({''.join(r + ', ' for r in results)})")
    exec(compile("\n".join(lines), "<fvc.expr group>", "exec"), scope)
    return scope["_group"]


def free_variables(e: Expr) -> set:
    return set(_leaves((e,))[0])


# -- differentiation ----------------------------------------------------------


def differentiate(e: Expr, var: str) -> Expr:
    """Exact partial derivative of e with respect to the named variable.

    abs differentiates to a sign factor that evaluates to 0 at the kink.
    """
    if isinstance(e, (Const, Var)):
        return _const(1.0 if isinstance(e, Var) and e.name == var else 0.0)
    if isinstance(e, Neg):
        return _neg(differentiate(e.arg, var))
    if isinstance(e, Call):
        return _bin("*", _TABLE[e.fn][1](e), differentiate(e.arg, var))
    da = differentiate(e.left, var)
    db = differentiate(e.right, var)
    a, b = e.left, e.right
    if e.op in "+-":
        return _bin(e.op, da, db)
    if e.op == "*":
        return _bin("+", _bin("*", da, b), _bin("*", a, db))
    if e.op == "/":
        return _bin("-", _bin("/", da, b), _bin("/", _bin("*", a, db), _bin("*", b, b)))
    # power
    if isinstance(b, Const):
        return _bin("*", _bin("*", b, _bin("^", a, _const(b.value - 1.0))), da)
    if isinstance(a, Const) and a.value > 0.0:  # log(a) of a base <= 0 is left to evaluation
        return _bin("*", _bin("*", _const(math.log(a.value)), _bin("^", a, b)), db)
    log_term = _bin("*", db, Call("log", a))
    ratio_term = _bin("/", _bin("*", b, da), a)
    return _bin("*", _bin("^", a, b), _bin("+", log_term, ratio_term))


# -- printing -----------------------------------------------------------------

_PREC = {"+": 1, "-": 1, "*": 2, "/": 2, "neg": 3, "^": 4}


def to_string(e: Expr) -> str:
    """Render the tree; parse(to_string(e)) evaluates identically to e."""
    return _render(e, 0)


def _render(e: Expr, parent_prec: int) -> str:
    if isinstance(e, Const):
        if e.value < 0:
            return _wrap(repr(e.value), _PREC["neg"], parent_prec)
        return repr(e.value)
    if isinstance(e, Var):
        return e.name
    if isinstance(e, Call):
        return f"{e.fn}({_render(e.arg, 0)})"
    if isinstance(e, Neg):
        return _wrap(f"-{_render(e.arg, _PREC['neg'])}", _PREC["neg"], parent_prec)
    prec = _PREC[e.op]
    if e.op == "^":
        body = f"{_render(e.left, prec + 1)}^{_render(e.right, prec)}"
    else:
        body = f"{_render(e.left, prec)} {e.op} {_render(e.right, prec + 1)}"
    return _wrap(body, prec, parent_prec)


def _wrap(body: str, prec: int, parent_prec: int) -> str:
    return f"({body})" if prec < parent_prec else body
