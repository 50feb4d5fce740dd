"""The expression parser as it stood before the one-regex tokenizer and the
precedence-climbing loop: a character-by-character tokenizer and a
recursive-descent parser with one method per precedence level.  Kept
verbatim, but for the source columns that nodes no longer carry, as the
oracle of the differential tests in ``test_expr.py``.
"""

from __future__ import annotations

import math

from geocon.expr import (
    FUNCTIONS,
    MAX_DEPTH,
    Const,
    ExprSyntaxError,
    UnknownIdentifierError,
    Var,
    add,
    call,
    div,
    mul,
    neg,
    pow_,
    sub,
)

_TOK_OPS = set("+-*/^()")


def _tokenize(src: str):
    tokens = []
    i, n = 0, len(src)
    while i < n:
        ch = src[i]
        if ch.isspace():
            i += 1
            continue
        if ch in _TOK_OPS:
            tokens.append((ch, ch, i))
            i += 1
            continue
        if ch.isdigit() or (ch == "." and i + 1 < n and src[i + 1].isdigit()):
            j = i
            while j < n and (src[j].isdigit() or src[j] == "."):
                j += 1
            if j < n and src[j] in "eE":
                k = j + 1
                if k < n and src[k] in "+-":
                    k += 1
                if k < n and src[k].isdigit():
                    j = k
                    while j < n and src[j].isdigit():
                        j += 1
            text = src[i:j]
            try:
                value = float(text)
            except ValueError:
                raise ExprSyntaxError(f"bad number '{text}'", i + 1) from None
            if not math.isfinite(value):
                raise ExprSyntaxError(f"number '{text}' overflows a double", i + 1)
            tokens.append(("num", text, i))
            i = j
            continue
        if ch.isalpha():
            j = i
            while j < n and (src[j].isalnum() or src[j] == "_"):
                j += 1
            tokens.append(("ident", src[i:j], i))
            i = j
            continue
        raise ExprSyntaxError(f"unexpected character '{ch}'", i + 1)
    tokens.append(("eof", "", n))
    return tokens


class _Parser:
    """Recursive descent; each method returns (tree, depth).  The depth counts
    a level per operator, call, sign and parenthesised group and |n| levels
    for ``x^n`` (the product the generated code unrolls), and is checked on
    the way down as well, so no input recurses past :data:`MAX_DEPTH`."""

    def __init__(self, tokens, variables: frozenset[str] | None):
        self.tokens = tokens
        self.i = 0
        self.variables = variables
        self.level = 0  # open groups, calls and signs around the current token

    def peek(self):
        return self.tokens[self.i]

    def advance(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, kind: str):
        tok = self.advance()
        if tok[0] != kind:
            shown = tok[1] if tok[0] != "eof" else "end of input"
            raise ExprSyntaxError(f"expected '{kind}', found {shown!r}", tok[2] + 1)
        return tok

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
        e, _ = self.expr()
        tok = self.peek()
        if tok[0] != "eof":
            raise ExprSyntaxError(f"unexpected {tok[1]!r}", tok[2] + 1)
        return e

    def chain(self, ops, operand, fold):
        e, depth = operand()
        while self.peek()[0] in ops:
            op = self.advance()
            rhs, rhs_depth = operand()
            e, depth = fold[op[0]](e, rhs), self.deeper(max(depth, rhs_depth) + 1, op)
        return e, depth

    def expr(self):
        return self.chain("+-", self.term, {"+": add, "-": sub})

    def term(self):
        return self.chain("*/", self.unary, {"*": mul, "/": div})

    def unary(self):
        if self.peek()[0] == "-":
            tok = self.advance()
            inner, depth = self.nested(tok, self.unary)
            return neg(inner), depth
        return self.power()

    def power(self):
        base, depth = self.atom()
        if self.peek()[0] == "^":
            tok = self.advance()
            n = self.exponent()
            depth = self.deeper(depth + max(abs(n), 1), tok)  # before folding a huge power
            return pow_(base, n), depth
        return base, depth

    def exponent(self) -> int:
        opened = 0
        while self.peek()[0] == "(":
            self.advance()
            opened += 1
        tok = self.peek()
        sign = 1
        if tok[0] == "-":
            self.advance()
            sign = -1
            tok = self.peek()
        if tok[0] != "num":
            shown = tok[1] if tok[0] != "eof" else "end of input"
            raise ExprSyntaxError(f"expected integer exponent, found {shown!r}", tok[2] + 1)
        self.advance()
        value = float(tok[1])
        if value != int(value) or any(c in tok[1] for c in ".eE"):
            raise ExprSyntaxError("exponent must be a constant integer", tok[2] + 1)
        for _ in range(opened):
            self.expect(")")
        return sign * int(value)

    def atom(self):
        tok = self.advance()
        kind, text, pos = tok
        if kind == "num":
            return Const(float(text)), 1
        if kind == "ident":
            if self.peek()[0] == "(":
                if text not in FUNCTIONS:
                    raise ExprSyntaxError(f"unknown function '{text}'", pos + 1)
                self.advance()
                arg, depth = self.nested(tok, self.expr)
                self.expect(")")
                return call(text, arg), depth
            if text in FUNCTIONS:
                raise ExprSyntaxError(f"function '{text}' needs an argument list", pos + 1)
            if self.variables is not None and text not in self.variables:
                raise UnknownIdentifierError(text, pos + 1)
            return Var(text), 1
        if kind == "(":
            e = self.nested(tok, self.expr)
            self.expect(")")
            return e
        shown = text if kind != "eof" else "end of input"
        raise ExprSyntaxError(f"expected operand, found {shown!r}", pos + 1)


def parse_expression(src: str, variables=None):
    declared = frozenset(variables) if variables is not None else None
    return _Parser(_tokenize(src), declared).parse()
