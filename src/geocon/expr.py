"""Scalar expressions over named variables.

A small expression language used throughout the package for vector-field
components, cost functions and Christoffel symbols: decimal constants,
variables (Unicode identifiers, see :func:`_tokenize`), ``sin cos exp log
sqrt``, the four arithmetic operations and integer powers, parsed by
precedence climbing.  Trees are immutable; the only rewriting ever applied is
constant folding plus zero/one elimination, so numerical behaviour stays
predictable (no CAS-grade simplification).

Evaluation is generic over the scalar type.  Plain floats work, and so do
(nested) :class:`Dual` numbers, which is how exact directional derivatives
and jets of flow maps are obtained elsewhere in the package.  Flows run on
generated code: a right-hand side (:func:`compile_flow`) and a loop of RK4
steps with the same arithmetic (:func:`compile_segment`).  Point values
walk the tree (:func:`evaluate`), with the same arithmetic.
"""

from __future__ import annotations

import math
import operator
import re
from collections import namedtuple
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, Sequence, Union

MAX_DEPTH = 100  # parsed expressions nest no deeper (see _Parser): the tree walks recurse


class ExprError(Exception):
    """Base class for expression-level failures."""


class ExprSyntaxError(ExprError):
    def __init__(self, message: str, column: int):
        super().__init__(f"syntax error at column {column}: {message}")
        self.column = column


class UnknownIdentifierError(ExprError):
    def __init__(self, name: str, column: int | None = None):
        where = f" at column {column}" if column is not None else ""
        super().__init__(f"unknown identifier '{name}'{where}")
        self.name = name
        self.column = column


# ---------------------------------------------------------------------------
# AST nodes.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Const:
    value: float


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Call:
    fn: str
    arg: "Expr"


@dataclass(frozen=True)
class Neg:
    arg: "Expr"


@dataclass(frozen=True)
class Add:
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Sub:
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Mul:
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Div:
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Pow:
    base: "Expr"
    exponent: int


Expr = Union[Const, Var, Call, Neg, Add, Sub, Mul, Div, Pow]


def _is_const(e: Expr, v: float | None = None) -> bool:
    return isinstance(e, Const) and (v is None or e.value == v)


# ---------------------------------------------------------------------------
# Smart constructors: constant folding and zero/one elimination only.
# ---------------------------------------------------------------------------


def const(v) -> Const:
    return Const(float(v))


def var(name: str) -> Var:
    return Var(name)


def add(a: Expr, b: Expr) -> Expr:
    if isinstance(a, Const) and isinstance(b, Const):
        return Const(a.value + b.value)
    if _is_const(a, 0.0):
        return b
    if _is_const(b, 0.0):
        return a
    return Add(a, b)


def sub(a: Expr, b: Expr) -> Expr:
    if isinstance(a, Const) and isinstance(b, Const):
        return Const(a.value - b.value)
    if _is_const(b, 0.0):
        return a
    if _is_const(a, 0.0):
        return neg(b)
    if a == b:
        return Const(0.0)
    return Sub(a, b)


def mul(a: Expr, b: Expr) -> Expr:
    if isinstance(a, Const) and isinstance(b, Const):
        return Const(a.value * b.value)
    if _is_const(a, 0.0) or _is_const(b, 0.0):
        return Const(0.0)
    if _is_const(a, 1.0):
        return b
    if _is_const(b, 1.0):
        return a
    return Mul(a, b)


def div(a: Expr, b: Expr) -> Expr:
    if _is_const(b, 1.0):
        return a
    if isinstance(a, Const) and isinstance(b, Const) and b.value != 0.0:
        return Const(a.value / b.value)
    return Div(a, b)


def neg(a: Expr) -> Expr:
    if isinstance(a, Const):
        return Const(-a.value)
    if isinstance(a, Neg):
        return a.arg
    return Neg(a)


def pow_(base: Expr, exponent: int) -> Expr:
    n = int(exponent)
    if n == 0:
        return Const(1.0)
    if n == 1:
        return base
    if isinstance(base, Const) and not (base.value == 0.0 and n < 0):
        try:  # the product the generated code computes; one that is not finite keeps the node
            folded = _ipow(base.value, n)
            if math.isfinite(folded):
                return Const(folded)
        except ZeroDivisionError:
            pass  # keep the node; evaluation raises at run time
    return Pow(base, n)


def call(fn: str, arg: Expr) -> Expr:
    if fn not in FUNCTIONS:
        raise ExprError(f"unknown function '{fn}'")
    if isinstance(arg, Const):
        try:
            return Const(_FUNCTIONS[fn](arg.value))
        except (ValueError, OverflowError):
            pass  # keep the node; evaluation raises the domain error
    return Call(fn, arg)


def expr_sum(terms: Iterable[Expr]) -> Expr:
    out: Expr = Const(0.0)
    for t in terms:
        out = add(out, t)
    return out


def is_zero(e: Expr) -> bool:
    """True when the expression folded to the literal zero constant."""
    return _is_const(e, 0.0)


# Each binary operator once: its symbol, precedence (higher binds tighter;
# unary minus, ^ and atoms rank above both levels), folding constructor and
# plain operation.  The parser, the renderer, substitution, evaluation and the
# code generator read this table.
_Op = namedtuple("_Op", "symbol prec fold apply")
_BINARY = {
    Add: _Op("+", 1, add, operator.add),
    Sub: _Op("-", 1, sub, operator.sub),
    Mul: _Op("*", 2, mul, operator.mul),
    Div: _Op("/", 2, div, operator.truediv),
}
_INFIX = {op.symbol: op for op in _BINARY.values()}
_PREC_NEG, _PREC_POW, _PREC_ATOM = 3, 4, 5


# ---------------------------------------------------------------------------
# Parser.  Precedence: ^  >  unary -  >  * /  >  + -, left associative.
# Exponents must be constant integers (optionally signed / parenthesized).
# ---------------------------------------------------------------------------

_TOKEN = re.compile(r"(?P<num>\.?\d[\d.]*(?:[eE][+-]?\d+)?)|(?P<ident>[^\W\d_]\w*)|(?P<op>[-+*/^()])|(?P<space>\s+)|.")


def _tokenize(src: str):
    """(kind, text, 0-based column) triples, the last one "eof"; an operator's
    kind is its symbol.  Character classes are Unicode, as in Python's ``re``:
    whitespace separates tokens; a number is a decimal digit (or "." before
    one), more digits and dots and an optional exponent [eE][+-]?digits, and
    must read as a finite double; an identifier is an alphanumeric character
    other than a decimal digit (a letter, or a sign such as ² or ½), then
    alphanumerics and "_"; any other character is an error."""
    tokens = []
    for m in _TOKEN.finditer(src):
        kind, text, pos = m.lastgroup, m.group(), m.start()
        if kind is None:
            raise ExprSyntaxError(f"unexpected character '{text}'", pos + 1)
        if kind == "num":
            try:
                value = float(text)
            except ValueError:
                raise ExprSyntaxError(f"bad number '{text}'", pos + 1) from None
            if not math.isfinite(value):
                raise ExprSyntaxError(f"number '{text}' overflows a double", pos + 1)
        if kind != "space":
            tokens.append((text if kind == "op" else kind, text, pos))
    tokens.append(("eof", "", len(src)))
    return tokens


class _Parser:
    """Precedence climbing over the tokens of :func:`_tokenize`; each method
    returns (tree, depth).  The depth counts a level per operator, call, sign
    and parenthesised group and |n| levels for ``x^n`` (the product the
    generated code unrolls), and is checked on the way down as well, so no
    input recurses past :data:`MAX_DEPTH`."""

    def __init__(self, tokens, variables: frozenset[str] | None):
        self.tokens = tokens
        self.i = 0
        self.variables = variables
        self.level = 0  # open groups, calls and signs around the current token

    def take(self, kind: str, wanted: str | None = None):
        """The next token, consumed, if it is a `kind`; else None, or with
        `wanted` the error "expected `wanted`, found ..."."""
        tok = self.tokens[self.i]
        if tok[0] == kind:
            self.i += 1
            return tok
        if wanted is not None:
            shown = tok[1] if tok[0] != "eof" else "end of input"
            raise ExprSyntaxError(f"expected {wanted}, found {shown!r}", tok[2] + 1)
        return None

    @staticmethod
    def deeper(depth: int, tok) -> int:
        if depth > MAX_DEPTH:
            raise ExprSyntaxError(f"expression nested deeper than {MAX_DEPTH} levels", tok[2] + 1)
        return depth

    def nested(self, tok, parse):
        """parse() one level further in, its depth counting that level."""
        self.level = self.deeper(self.level + 1, tok)
        e, depth = parse()
        self.level -= 1
        return e, self.deeper(depth + 1, tok)

    def parse(self) -> Expr:
        e, _ = self.binary()
        kind, text, pos = self.tokens[self.i]
        if kind != "eof":
            raise ExprSyntaxError(f"unexpected {text!r}", pos + 1)
        return e

    def binary(self, prec: int = 1):
        """Operands joined by the binary operators of precedence `prec` and up."""
        e, depth = self.unary()
        tok = self.tokens[self.i]
        while (op := _INFIX.get(tok[0])) and op.prec >= prec:
            self.i += 1
            rhs, rhs_depth = self.binary(op.prec + 1)
            e, depth = op.fold(e, rhs), self.deeper(max(depth, rhs_depth) + 1, tok)
            tok = self.tokens[self.i]
        return e, depth

    def unary(self):
        """A negated operand, or an atom with an optional ``^`` suffix."""
        if tok := self.take("-"):
            inner, depth = self.nested(tok, self.unary)
            return neg(inner), depth
        base, depth = self.atom()
        if not (tok := self.take("^")):
            return base, depth
        n = self.exponent()
        depth = self.deeper(depth + max(abs(n), 1), tok)  # before folding a huge power
        return pow_(base, n), depth

    def exponent(self) -> int:
        opened = 0
        while self.take("("):
            opened += 1
        sign = -1 if self.take("-") else 1
        tok = self.take("num", "integer exponent")
        if any(c in tok[1] for c in ".eE"):
            raise ExprSyntaxError("exponent must be a constant integer", tok[2] + 1)
        for _ in range(opened):
            self.take(")", "')'")
        return sign * int(float(tok[1]))

    def atom(self):
        if tok := self.take("num"):
            return Const(float(tok[1])), 1
        if tok := self.take("("):
            e = self.nested(tok, self.binary)
            self.take(")", "')'")
            return e
        _, name, pos = tok = self.take("ident", "operand")
        if self.take("("):
            if name not in FUNCTIONS:
                raise ExprSyntaxError(f"unknown function '{name}'", pos + 1)
            arg, depth = self.nested(tok, self.binary)
            self.take(")", "')'")
            return call(name, arg), depth
        if name in FUNCTIONS:
            raise ExprSyntaxError(f"function '{name}' needs an argument list", pos + 1)
        if self.variables is not None and name not in self.variables:
            raise UnknownIdentifierError(name, pos + 1)
        return Var(name), 1


def parse_expression(src: str, variables: Iterable[str] | None = None) -> Expr:
    """Parse `src` into an expression tree.

    When `variables` is given, any identifier outside it raises
    :class:`UnknownIdentifierError` (function names are always reserved).
    """
    declared = frozenset(variables) if variables is not None else None
    return _Parser(_tokenize(src), declared).parse()


# ---------------------------------------------------------------------------
# Rendering.  The output reparses to an equal tree, except where a constant
# is not finite: it renders as ``inf``, ``-inf`` or ``nan``, which do not
# reparse.
# ---------------------------------------------------------------------------


def _prec(e: Expr) -> int:
    t = type(e)
    if t in _BINARY:
        return _BINARY[t].prec
    if t is Neg or (t is Const and e.value < 0):
        return _PREC_NEG  # "-2" binds like a unary minus once re-read
    return _PREC_POW if t is Pow else _PREC_ATOM


def render(e: Expr, min_prec: int = 0) -> str:
    t = type(e)
    if t in _BINARY:
        op = _BINARY[t]
        middle = f" {op.symbol} " if op.prec == 1 else op.symbol  # spaces around + and -
        s = render(e.left, op.prec) + middle + render(e.right, op.prec + 1)
    elif t is Const:
        v = e.value
        s = str(int(v)) if v.is_integer() and abs(v) < 1e16 else repr(v)
    elif t is Var:
        s = e.name
    elif t is Call:
        s = f"{e.fn}({render(e.arg)})"
    elif t is Neg:
        s = f"-{render(e.arg, _PREC_NEG)}"
    elif t is Pow:
        s = f"{render(e.base, _PREC_ATOM)}^{e.exponent}"
    else:  # pragma: no cover
        raise TypeError(f"not an expression node: {e!r}")
    return f"({s})" if _prec(e) < min_prec else s


# ---------------------------------------------------------------------------
# Structure queries and substitution.
# ---------------------------------------------------------------------------


def free_variables(e: Expr) -> frozenset[str]:
    """The variable names in `e`; trees share nodes, and each distinct node
    (by identity) is visited once."""
    names, seen, stack = set(), set(), [e]
    while stack:
        e = stack.pop()
        if id(e) in seen:
            continue
        seen.add(id(e))
        if isinstance(e, Var):
            names.add(e.name)
        elif isinstance(e, (Call, Neg)):
            stack.append(e.arg)
        elif isinstance(e, Pow):
            stack.append(e.base)
        elif not isinstance(e, Const):
            stack += (e.left, e.right)
    return frozenset(names)


def substitute(e: Expr, mapping: Mapping[str, "Expr | float"]) -> Expr:
    """Replace variables by expressions or numbers, folding as it goes; a
    subtree that reads none of them comes back as the same object."""
    if isinstance(e, Var):
        if e.name in mapping:
            rep = mapping[e.name]
            return rep if not isinstance(rep, (int, float)) else Const(float(rep))
        return e
    if isinstance(e, Const):
        return e
    if isinstance(e, (Call, Neg)):
        arg = substitute(e.arg, mapping)
        return e if arg is e.arg else neg(arg) if isinstance(e, Neg) else call(e.fn, arg)
    if isinstance(e, Pow):
        base = substitute(e.base, mapping)
        return e if base is e.base else pow_(base, e.exponent)
    left, right = substitute(e.left, mapping), substitute(e.right, mapping)
    return e if left is e.left and right is e.right else _BINARY[type(e)].fold(left, right)


# ---------------------------------------------------------------------------
# Differentiation: exact symbolic partial derivative, folded on the way out.
# ---------------------------------------------------------------------------


def differentiate(e: Expr, name: str) -> Expr:
    return _derivative(e, name, {})


def jacobian(components: Sequence[Expr], variables: Sequence[str]) -> tuple[tuple[Expr, ...], ...]:
    """Rows d(components[i])/d(variables[j]).  One memo per variable spans
    every component, so a subtree they share is differentiated once."""
    memos = [{} for _ in variables]
    return tuple(tuple(_derivative(e, v, memo) for v, memo in zip(variables, memos)) for e in components)


def _derivative(e: Expr, name: str, memo: dict) -> Expr:
    """d e / d name, memoised by node identity; `memo` holds each node it
    keys, so no id is reused while the memo lives."""
    if isinstance(e, Const):
        return Const(0.0)
    if isinstance(e, Var):
        return Const(1.0) if e.name == name else Const(0.0)
    if id(e) in memo:
        return memo[id(e)][1]
    if isinstance(e, Neg):
        out = neg(_derivative(e.arg, name, memo))
    elif isinstance(e, (Add, Sub)):
        out = _BINARY[type(e)].fold(_derivative(e.left, name, memo), _derivative(e.right, name, memo))
    elif isinstance(e, Mul):
        out = add(mul(_derivative(e.left, name, memo), e.right), mul(e.left, _derivative(e.right, name, memo)))
    elif isinstance(e, Div):
        num = sub(mul(_derivative(e.left, name, memo), e.right), mul(e.left, _derivative(e.right, name, memo)))
        out = div(num, pow_(e.right, 2))
    elif isinstance(e, Pow):
        out = mul(mul(Const(float(e.exponent)), pow_(e.base, e.exponent - 1)), _derivative(e.base, name, memo))
    elif isinstance(e, Call):
        inner = _derivative(e.arg, name, memo)
        if e.fn == "sin":
            outer: Expr = call("cos", e.arg)
        elif e.fn == "cos":
            outer = neg(call("sin", e.arg))
        elif e.fn == "exp":
            outer = call("exp", e.arg)
        elif e.fn == "log":
            outer = div(Const(1.0), e.arg)
        else:  # sqrt
            outer = div(Const(0.5), call("sqrt", e.arg))
        out = mul(outer, inner)
    else:
        raise TypeError(f"not an expression node: {e!r}")  # pragma: no cover
    memo[id(e)] = (e, out)
    return out


# ---------------------------------------------------------------------------
# Dual numbers.  Components may themselves be Duals, giving nested
# forward-mode carriers; depth d recovers derivatives up to order d.
# ---------------------------------------------------------------------------


class Dual:
    __slots__ = ("re", "du")

    def __init__(self, re, du):
        self.re = re
        self.du = du

    def __repr__(self):
        return f"Dual({self.re!r}, {self.du!r})"

    def __add__(self, other):
        if isinstance(other, Dual):
            return Dual(self.re + other.re, self.du + other.du)
        return Dual(self.re + other, self.du)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, Dual):
            return Dual(self.re - other.re, self.du - other.du)
        return Dual(self.re - other, self.du)

    def __rsub__(self, other):
        return Dual(other - self.re, -self.du)

    def __mul__(self, other):
        if isinstance(other, Dual):
            return Dual(self.re * other.re, self.re * other.du + self.du * other.re)
        return Dual(self.re * other, self.du * other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Dual):
            if real_part(other.re) == 0.0:
                raise ZeroDivisionError("division by a dual with zero real part")
            return Dual(
                self.re / other.re,
                (self.du * other.re - self.re * other.du) / (other.re * other.re),
            )
        return Dual(self.re / other, self.du / other)

    def __rtruediv__(self, other):
        if real_part(self.re) == 0.0:
            raise ZeroDivisionError("division by a dual with zero real part")
        return Dual(other / self.re, -other * self.du / (self.re * self.re))

    def __neg__(self):
        return Dual(-self.re, -self.du)

    def __pow__(self, n):
        return _ipow(self, n)


def real_part(x) -> float:
    """Strip all derivative carriers from a scalar."""
    while isinstance(x, Dual):
        x = x.re
    return float(x)


def all_finite(values) -> bool:
    """Every entry finite; a Dual entry by its real part."""
    try:
        return all(map(math.isfinite, values))
    except TypeError:  # Dual entries
        return all(math.isfinite(real_part(v)) for v in values)


def jet_seed(x0: float, depth: int):
    """A scalar carrying unit derivative seeds at `depth` nested levels."""
    v = float(x0)
    for _ in range(depth):
        v = Dual(v, 1.0)
    return v


def jet_coefficient(value, order: int, depth: int) -> float:
    """The `order`-th derivative carried by a depth-`depth` evaluation."""
    v = value
    for _ in range(order):
        v = v.du if isinstance(v, Dual) else 0.0
    for _ in range(depth - order):
        v = v.re if isinstance(v, Dual) else v
    return float(v)


def _sin(x):  # each elementary function: its float case and its Dual case (the chain rule)
    return Dual(_sin(x.re), _cos(x.re) * x.du) if isinstance(x, Dual) else math.sin(x)


def _cos(x):
    return Dual(_cos(x.re), -_sin(x.re) * x.du) if isinstance(x, Dual) else math.cos(x)


def _exp(x):
    return Dual(e := _exp(x.re), e * x.du) if isinstance(x, Dual) else math.exp(x)


def _log(x):
    return Dual(_log(x.re), x.du / x.re) if isinstance(x, Dual) else math.log(x)


def _sqrt(x):
    return Dual(r := _sqrt(x.re), x.du / (2.0 * r)) if isinstance(x, Dual) else math.sqrt(x)


_FUNCTIONS = {"sin": _sin, "cos": _cos, "exp": _exp, "log": _log, "sqrt": _sqrt}
FUNCTIONS = tuple(_FUNCTIONS)


def _ipow(v, n: int):
    n = int(n)
    if n == 0:
        return 1.0
    if n < 0:
        return 1.0 / _ipow(v, -n)
    out = v
    for _ in range(n - 1):
        out = out * v
    return out


# ---------------------------------------------------------------------------
# Evaluation.  The recursive walker computes operands left to right with the
# operators and functions of the generated code (below).
# ---------------------------------------------------------------------------


def evaluate(e: Expr, env: Mapping[str, object], memo: dict | None = None):
    """The value of `e` with the variables of `env`: the generated code's bit
    for bit, and a domain fault raises what that code raises
    (ZeroDivisionError, ValueError, OverflowError).  `memo`, keyed by node
    identity, may be shared by trees that share nodes: each such node is
    computed once.
    """
    t = type(e)
    if t is Const:
        return e.value
    if t is Var:
        try:
            return env[e.name]
        except KeyError:
            raise UnknownIdentifierError(e.name) from None
    if memo is None:
        memo = {}
    elif id(e) in memo:
        return memo[id(e)]
    if t in _BINARY:
        v = _BINARY[t].apply(evaluate(e.left, env, memo), evaluate(e.right, env, memo))
    elif t is Neg:
        v = -evaluate(e.arg, env, memo)
    elif t is Pow:
        v = _ipow(evaluate(e.base, env, memo), e.exponent)
    elif t is Call:
        v = _FUNCTIONS[e.fn](evaluate(e.arg, env, memo))
    else:
        raise TypeError(f"not an expression node: {e!r}")  # pragma: no cover
    memo[id(e)] = v
    return v


_CODEGEN_NS = {f"_{name}": fn for name, fn in _FUNCTIONS.items()}
_CODEGEN_NS.update(_ipow=_ipow, _range=range, _iter=iter, _zip=zip, _float=float, _list=list, _sum=sum,
                   _fin=all_finite, __builtins__={})
# local names of generated code, kept interned: dying with their code, they would be interned again by the
# next compile, a churn that regrows the interpreter's table of interned strings (about 1 MB of peak RSS)
_LOCAL_NAMES: set[str] = set()
_MAX_NESTING = 40  # inline depth before a subexpression gets a local (the parser caps nesting)


class _Emitter:
    """Straight-line code for expression trees over `variables`.

    Trees are interned into operations, so a subtree that occurs more than
    once anywhere is computed once into a local; ``x^n`` is the left-to-right
    product ``_ipow`` computes (``1.0 / (...)`` for n < 0), so powers share
    prefixes too.  Statements come out in the order in which evaluating the
    trees one after another, left to right, first completes each operation:
    every value comes from the same operations on the same operands as a
    tree-by-tree evaluation, and the first domain fault is the same one.
    """

    def __init__(self, variables: Sequence[str]):
        self.index = {name: i for i, name in enumerate(variables)}
        self.ops, self.ids, self.of_node, self.uses = [], {}, {}, []  # uses: readers of each op
        self.lines, self.bound, self.loaded = [], {}, set()

    def _intern(self, op: tuple) -> int:
        k = self.ids.get(op)
        if k is None:
            k = self.ids[op] = len(self.ops)
            self.ops.append(op)
            self.uses.append(0)
            if op[0] == "leaf":  # a literal or a variable's local: its own source
                self.bound[k] = op[1]
            else:
                for arg in op[1:]:
                    self.uses[arg] += 1
        return k

    def _op(self, e: Expr) -> int:
        """Id of ("leaf", source) or (kind, *operand ids)."""
        k = self.of_node.get(id(e))  # trees share nodes; each is walked once
        if k is not None:
            return k
        t = type(e)
        if t in _BINARY:
            op = (_BINARY[t].symbol, self._op(e.left), self._op(e.right))
        elif t is Const:
            v = e.value
            op = ("leaf", repr(v) if math.isfinite(v) else f"_float('{v}')")
        elif t is Var:
            if e.name not in self.index:
                raise UnknownIdentifierError(e.name)
            self.loaded.add(self.index[e.name])
            op = ("leaf", f"_a{self.index[e.name]}")
        elif t is Neg or t is Call:
            op = ("neg" if t is Neg else e.fn, self._op(e.arg))
        elif t is Pow:
            base = k = self._op(e.base)
            for _ in range(abs(e.exponent) - 1):
                k = self._intern(("*", k, base))
            n = e.exponent
            op = ("pow0", base) if n == 0 else ("/", self._intern(("leaf", "1.0")), k) if n < 0 else self.ops[k]
        else:
            raise TypeError(f"not an expression node: {e!r}")
        self.of_node[id(e)] = k = self._intern(op)
        return k

    def add(self, e: Expr) -> int:
        """Op id of tree `e`, an output of the code."""
        k = self._op(e)
        self.uses[k] += 1
        return k

    def _bind(self, text: str, at: int | None = None) -> str:
        name = f"_t{len(self.lines)}"  # lines only grow: unique
        self.lines.insert(len(self.lines) if at is None else at, f"{name} = {text}")
        return name

    def emit(self, k: int, name: bool = False) -> tuple[str, int]:
        """Source of op `k` after the statements it needs, with its inline
        nesting depth (0: a local or a literal); `name` forces depth 0."""
        text = self.bound.get(k)
        if text is not None:
            return text, 0
        op = self.ops[k]
        kind = op[0]
        a, depth = self.emit(op[1])
        if len(op) == 3:
            mark = len(self.lines)
            b, depth_b = self.emit(op[2])
            if depth and len(self.lines) > mark:  # compute the left operand first
                a, depth = self._bind(a, mark), 0
            text, depth = f"({a} {kind} {b})", max(depth, depth_b)
        else:
            text = {"neg": f"(-{a})", "pow0": f"_ipow({a}, 0)"}.get(kind, f"_{kind}({a})")
        if name or depth >= _MAX_NESTING or self.uses[k] > 1:
            self.bound[k] = self._bind(text)
            return self.bound[k], 0
        return text, depth + 1


def compile_expression(e: Expr, variables: Sequence[str]) -> Callable:
    """Compile to `f(values) -> scalar` with `values` ordered like `variables`,
    for an expression evaluated many times (a schedule entry at every RK4
    stage).  A few evaluations cost less by :func:`evaluate`, which gives the
    same bits and raises the same ZeroDivisionError or ValueError on a domain
    fault.
    """
    rhs = compile_flow([e], variables)
    return lambda values: rhs(None, 0, 0, 0.0, values)[0]


def _emit_flow(components, chart, controls, jacobian):
    """(emitter, names of f, of J or None, statements of f, of J after f's)."""
    em = _Emitter(tuple(chart) + tuple(controls))
    f_ops = [em.add(e) for e in components]
    j_ops = [[None if is_zero(e) else em.add(e) for e in row] for row in jacobian or ()]
    f = [em.emit(k, name=True)[0] for k in f_ops]
    mark = len(em.lines)
    J = [[None if k is None else em.emit(k, name=True)[0] for k in row] for row in j_ops]
    return em, f, J, em.lines[:mark], em.lines[mark:]


def _block_terms(J, v):
    """Tangent rows ``0.0 + J[i][0]*v0 + J[i][1]*v1 + ...`` and covector
    columns ``0.0 - J[0][j]*v0 - J[1][j]*v1 - ...``.  Symbolically zero
    entries are left out: for finite operands their terms are signed zeros,
    which never change a sum from +0.0.  An output with no nonzero entry is
    the literal ``0.0``, which :func:`compile_segment` does not emit."""
    n = len(J)
    rows = [" + ".join(["0.0"] + [f"{J[i][j]}*{v[j]}" for j in range(n) if J[i][j]]) for i in range(n)]
    cols = [" - ".join(["0.0"] + [f"{J[i][j]}*{v[i]}" for i in range(n) if J[i][j]]) for j in range(n)]
    return rows, cols


def _tuple(items) -> str:
    return "(" + "".join(f"{v}, " for v in items) + ")"


def _indent(lines, depth: int = 1) -> list[str]:
    return ["    " * depth + line for line in lines]


def _compile(name: str, params: str, body: list[str]) -> Callable:
    source = "\n".join([f"def {name}({params}):", *_indent(body)])
    defined = {}  # the function's globals are the shared _CODEGEN_NS, so it forms no reference cycle
    exec(compile(source, "<generated>", "exec"), _CODEGEN_NS, defined)  # noqa: S102 - from our own trees
    _LOCAL_NAMES.update(defined[name].__code__.co_varnames)
    return defined[name]


def compile_flow(components, chart, controls=(), jacobian=None) -> Callable:
    """``rhs(u, tangents, covectors, t, state)`` -> f(x, u(t)) and blocks,
    f = `components` over `chart` + `controls`, x = state[:len(chart)], and u
    the control values as a list or ``u(t)``.  With `jacobian` (rows of df/dx),
    J is evaluated once; the rows of each of `tangents` vectors after x,
    then the columns of each of `covectors` vectors follow (:func:`_block_terms`).
    """
    n = len(chart)
    em, f, J, f_lines, j_lines = _emit_flow(components, chart, controls, jacobian)
    body = ["_u = _ctl if _ctl.__class__ is _list else _ctl(_t)"] if controls else []
    body += [f"_a{i} = " + (f"_s[{i}]" if i < n else f"_u[{i - n}]") for i in sorted(em.loaded)]
    body += [*f_lines, f"_out = [{', '.join(f)}]"]
    if jacobian is not None:
        body += ["if not (_nt or _nc):", "    return _out", *j_lines, f"_k = {n}"]
        d = [f"_d{j}" for j in range(n)]
        for count, entries in zip(("_nt", "_nc"), _block_terms(J, d)):
            body += [f"for _ in _range({count}):", f"    {_tuple(d)} = _s[_k:_k + {n}]",
                     f"    _out += {_tuple(entries)}", f"    _k += {n}"]
    return _compile("_rhs", "_ctl, _nt, _nc, _t, _s", [*body, "return _out"])


def compile_segment(components, chart, controls=(), jacobian=None) -> Callable:
    """``segment(u, tangents, covectors, t0, h, steps, last, t1, state, record)``
    -> (t, state): one leg, `steps` RK4 steps of size h and one of size `last`
    landing at t1, operation for operation as :func:`fields._rk4_steps` on
    :func:`compile_flow`'s right-hand side.  A list u is loaded once per leg.
    A float leg (float state and `last`) screens each state by a sum of
    ``x * 0.0`` (:func:`all_finite` confirms); others run :func:`all_finite`.
    f and J are written once, in a loop over the four stages; then each block
    vector runs its four stages, unrolled on locals, on the J of each stage,
    through J's structural nonzeros only.  A zero output (a tangent's row, a
    covector's column) has no rates: ``d + _sixth * 0.0`` is both its value and
    its stage input, as ``_half``, ``_h`` and ``_sixth`` times 0.0 are one zero of
    h's sign (componentwise for a Dual).  An input no entry reads has no stage input.
    """
    def rk4_sum(x: str, k: str) -> str:  # the update of fields._rk4_steps
        return f"{x} + _sixth * ({k.format(0)} + 2.0 * {k.format(1)} + 2.0 * {k.format(2)} + {k.format(3)})"

    n = len(chart)
    em, f, J, f_lines, j_lines = _emit_flow(components, chart, controls, jacobian)
    loads = [i for i in sorted(em.loaded) if i < n]
    a, x = _tuple(f"_a{i}" for i in loads), [f"_x{i}" for i in range(n)]
    nonzero = [(i, j) for i, row in enumerate(J) for j in range(n) if row[j]]
    held = [f"_a{i} = _u[{i - n}]" for i in sorted(em.loaded) if i >= n]
    stage = ["if not _held:", "    _u = _ctl(_tt)", *_indent(held)] if controls else []
    stage += [*f_lines, f"_F[_p] = {_tuple(f)}"]
    if jacobian is not None:
        stage += ["if _nb:", *_indent(j_lines), f"    _G[_p] = {_tuple(J[i][j] for i, j in nonzero)}"]
    stage += ["if _p < 3:", "    _w = _h if _p == 2 else _half", "    _tt = _t + _w",
              f"    {a} = {_tuple(f'_x{i} + _w * {f[i]}' for i in loads)}"]
    step = ["if _i > _steps:", "    _h = _hl", "    _half, _sixth = 0.5 * _h, _h * (1.0 / 6.0)",
            f"{a} = {_tuple(f'_x{i}' for i in loads)}", "_tt = _t", "for _p in _range(4):", *_indent(stage),
            f"{_tuple(_tuple(f'_K{s}_{i}' for i in range(n)) for s in range(4))} = _F",
            f"{_tuple(x)} = {_tuple(rk4_sum(x[i], f'_K{{}}_{i}') for i in range(n))}"]
    if jacobian is not None:
        g = [[[f"_g{s}_{i}_{j}" if J[i][j] else None for j in range(n)] for i in range(n)] for s in range(4)]
        live = [[any(row) for row in J], [any(row[j] for row in J) for j in range(n)]]  # J's rows, columns
        step += ["if _nb:", *(f"    {_tuple(g[s][i][j] for i, j in nonzero)} = _G[{s}]" for s in range(4)),
                 *["    _zs = _sixth * 0.0"] * (not all(live[0] + live[1])), "    _nbk, _it = [], _iter(_blk)"]
        d, e = [f"_d{j}" for j in range(n)], [f"_e{j}" for j in range(n)]
        for kind, (count, out, read) in enumerate([("_nt", *live), ("_nc", *live[::-1])]):  # outputs: rows, columns
            vec = [f"_e{i} = _d{i} + _zs" for i in range(n) if not out[i]]
            for s, w in enumerate(("_half", "_half", "_h", None)):
                vec += [f"_r{s}_{i} = {t}" for i, t in enumerate(_block_terms(g[s], e if s else d)[kind]) if out[i]]
                vec += [f"_e{j} = _d{j} + {w} * _r{s}_{j}" for j in range(n) if w and out[j] and read[j]]
            vec += [f"_nbk += {_tuple(rk4_sum(d[i], f'_r{{}}_{i}') if out[i] else e[i] for i in range(n))}"]
            step += [f"    for _, {', '.join(d)} in _zip(_range({count}), {', '.join(['_it'] * n)}):", *_indent(vec, 2)]
        step += ["    _blk = _nbk"]
    zero = " + ".join([f"{v} * 0.0" for v in x] + ["_sum(_blk) * 0.0"] * (jacobian is not None))
    state = f"[{', '.join(x)}] + _blk"
    step += ["_t = _T + _i * _h if _i <= _steps else _tl", f"if ({zero} != 0.0 if _fl else True)"
             f" and not _fin({state}):", "    return _t, None", "if _rec is not None:", f"    _rec(_t, {state})"]
    head = ["_half, _sixth = 0.5 * _h, _h * (1.0 / 6.0)", f"{', '.join(x)}, *_blk = _s",
            "_F, _G, _t, _nb, _fl = [None] * 4, [None] * 4, _T, _nt or _nc, _x0.__class__ is _hl.__class__ is _float",
            "_held = _ctl.__class__ is _list", "if _held:", "    _u = _ctl", *_indent(held)]
    body = [*head, "for _i in _range(1, _steps + 2):", *_indent(step), f"return _t, {state}"]
    return _compile("_segment", "_ctl, _nt, _nc, _T, _h, _steps, _hl, _tl, _s, _rec", body)
