"""Expression grammar shared by every CLI entry point.

    expr   := term (('+' | '-') term)*
    term   := factor ('*' factor)*
    factor := atom ('^' nat)?
    atom   := int | x<i> | D<i> | e<i> | p<i> | P(<k>) | '(' expr ')'

Whitespace is insignificant and juxtaposition is not multiplication.
Which atoms are legal depends on the target algebra: polynomials take
x/e/p and integers, nilHecke expressions take x (or X) and D, Steenrod
expressions take P(k).  Uppercase X is accepted as an alias for x.
"""

from __future__ import annotations

import sys

from .arith import Record
from .errors import ExprTypeError, ParseError

# Deepest parenthesis nesting accepted; the parser recurses once per level.
MAX_NESTING = 200

TARGET_POLYNOMIAL = "polynomial"
TARGET_NILHECKE = "nilhecke"
TARGET_STEENROD = "steenrod"

_ALLOWED = {
    TARGET_POLYNOMIAL: {"x", "e", "p"},
    TARGET_NILHECKE: {"x", "D"},
    TARGET_STEENROD: {"P"},
}


class Num(Record):
    __slots__ = ("value",)

    def __init__(self, value: int):
        self._set(value)


class Gen(Record):
    __slots__ = ("kind", "index")

    def __init__(self, kind: str, index: int):
        self._set(kind, index)


class Power(Record):
    __slots__ = ("base", "exponent")

    def __init__(self, base, exponent: int):
        self._set(base, exponent)


class Product(Record):
    __slots__ = ("factors",)

    def __init__(self, factors: tuple):
        self._set(factors)


class Sum(Record):
    __slots__ = ("terms",)  # of (sign, Product) with sign +1 / -1

    def __init__(self, terms: tuple):
        self._set(terms)


# -- tokenizer ----------------------------------------------------------


def _number(digits: str, pos: int) -> int:
    """The value of a run of digits starting at pos; a run longer than
    Python converts (sys.get_int_max_str_digits) is a parse error."""
    try:
        return int(digits)
    except ValueError:
        limit = sys.get_int_max_str_digits()
        raise ParseError(f"number at position {pos} has more than {limit} digits", pos)


class _Token(Record):
    __slots__ = ("kind", "value", "pos")

    def __init__(self, kind: str, value, pos: int):
        self._set(kind, value, pos)


def _tokenize(source: str) -> list[_Token]:
    tokens = []
    i = 0
    while i < len(source):
        ch = source[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < len(source) and source[j].isdigit():
                j += 1
            tokens.append(_Token("int", _number(source[i:j], i), i))
            i = j
            continue
        if ch in "+-*^()":
            tokens.append(_Token(ch, ch, i))
            i += 1
            continue
        if ch.isalpha():
            j = i + 1
            while j < len(source) and source[j].isdigit():
                j += 1
            tokens.append(_Token("name", source[i:j], i))
            i = j
            continue
        raise ParseError(f"unexpected character {ch!r} at position {i}", i)
    tokens.append(_Token("end", None, len(source)))
    return tokens


class _Parser:
    def __init__(self, source: str, target: str):
        if target not in _ALLOWED:
            raise ParseError(f"unknown target algebra {target!r}")
        self.tokens = _tokenize(source)
        self.pos = 0
        self.depth = 0
        self.target = target

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str) -> _Token:
        tok = self.peek()
        if tok.kind != kind:
            raise ParseError(
                f"expected {kind!r} but found {tok.value!r} at position {tok.pos}",
                tok.pos,
            )
        return self.advance()

    def parse(self) -> Sum:
        expr = self.expr()
        tok = self.peek()
        if tok.kind != "end":
            raise ParseError(
                f"trailing input {tok.value!r} at position {tok.pos}", tok.pos
            )
        return expr

    def expr(self) -> Sum:
        terms = [(1, self.term())]
        while self.peek().kind in "+-":
            sign = 1 if self.advance().kind == "+" else -1
            terms.append((sign, self.term()))
        return Sum(tuple(terms))

    def term(self) -> Product:
        factors = [self.factor()]
        while self.peek().kind == "*":
            self.advance()
            factors.append(self.factor())
        return Product(tuple(factors))

    def factor(self):
        base = self.atom()
        if self.peek().kind == "^":
            self.advance()
            tok = self.expect("int")
            return Power(base, tok.value)
        return base

    def atom(self):
        tok = self.peek()
        if tok.kind == "int":
            self.advance()
            return Num(tok.value)
        if tok.kind == "(":
            self.advance()
            self.depth += 1
            if self.depth > MAX_NESTING:
                raise ParseError(
                    f"parentheses nested deeper than {MAX_NESTING} at position {tok.pos}",
                    tok.pos,
                )
            inner = self.expr()
            self.expect(")")
            self.depth -= 1
            return inner
        if tok.kind == "name":
            self.advance()
            name = tok.value
            head, digits = name[0], name[1:]
            if head == "X":
                head = "x"
            if head == "P" and not digits and self.peek().kind == "(":
                self.advance()
                arg = self.expect("int")
                self.expect(")")
                self._check_kind("P", tok.pos)
                return Gen("P", arg.value)
            if head in ("x", "D", "e", "p") and digits:
                self._check_kind(head, tok.pos)
                return Gen(head, _number(digits, tok.pos + 1))
            raise ParseError(
                f"unrecognized atom {name!r} at position {tok.pos}", tok.pos
            )
        raise ParseError(
            f"expected an atom but found {tok.value!r} at position {tok.pos}",
            tok.pos,
        )

    def _check_kind(self, kind: str, pos: int) -> None:
        if kind not in _ALLOWED[self.target]:
            raise ExprTypeError(
                f"atom kind {kind!r} is not valid in a {self.target} expression"
                f" (position {pos})",
                pos,
            )


def parse(source: str, target: str) -> Sum:
    """Parse to an AST, checking atoms against the target algebra."""
    return _Parser(source, target).parse()


def render(node) -> str:
    """Deterministic rendering; parse(render(parse(s))) == parse(s)."""
    if isinstance(node, Num):
        return str(node.value)
    if isinstance(node, Gen):
        if node.kind == "P":
            return f"P({node.index})"
        return f"{node.kind}{node.index}"
    if isinstance(node, Power):
        return f"{_paren(node.base)}^{node.exponent}"
    if isinstance(node, Product):
        return "*".join(_paren(f) for f in node.factors)
    if isinstance(node, Sum):
        out = render(node.terms[0][1])
        if node.terms[0][0] < 0:
            out = "0 - " + out
        for sign, term in node.terms[1:]:
            out += (" + " if sign > 0 else " - ") + render(term)
        return out
    raise TypeError(f"not an AST node: {node!r}")


def _paren(node) -> str:
    if isinstance(node, Sum):
        return f"({render(node)})"
    return render(node)


def evaluate(node, target: str, p: int, n: int):
    """Evaluate an AST in the chosen algebra over F_p with n variables."""
    from .nilhecke import NilHeckeElement
    from .poly import Polynomial, elementary_symmetric, power_sum
    from .steenrod import SteenrodElement

    def one():
        if target == TARGET_POLYNOMIAL:
            return Polynomial.one(p, n)
        if target == TARGET_NILHECKE:
            return NilHeckeElement.one(p, n)
        return SteenrodElement.one(p)

    def gen(node: Gen):
        if target == TARGET_POLYNOMIAL:
            if node.kind == "x":
                return Polynomial.variable(p, n, node.index)
            if node.kind == "e":
                return elementary_symmetric(node.index, n, p)
            return power_sum(node.index, n, p)
        if target == TARGET_NILHECKE:
            if node.kind == "x":
                return NilHeckeElement.x_gen(p, n, node.index)
            return NilHeckeElement.d_gen(p, n, node.index)
        return SteenrodElement.p_power(p, node.index)

    def walk(node):
        if isinstance(node, Num):
            return one() * node.value
        if isinstance(node, Gen):
            return gen(node)
        if isinstance(node, Power):
            return walk(node.base) ** node.exponent
        if isinstance(node, Product):
            out = walk(node.factors[0])
            for f in node.factors[1:]:
                out = out * walk(f)
            return out
        if isinstance(node, Sum):
            out = walk(node.terms[0][1]) * node.terms[0][0]
            for sign, term in node.terms[1:]:
                out = out + walk(term) * sign
            return out
        raise TypeError(f"not an AST node: {node!r}")

    return walk(node)


def parse_and_evaluate(source: str, target: str, p: int, n: int):
    return evaluate(parse(source, target), target, p, n)
