"""Expression syntax for conformal elements.

    expr     := term (('+' | '-') term)*
    term     := [rational '*'] factor
    factor   := ident | 'D^' int '(' expr ')' | '(' expr '.' int expr ')'
    rational := ['-'] digits ['/' digits]

Whitespace is insignificant.  A bare rational zero is allowed as a term and
denotes the zero element (it is what the printer emits for zero); any other
bare rational is an error.  D and v are reserved and never name generators.
Products and D^k(...) nest at most MAX_NESTING levels deep.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import partial

from .freeconf import ConfElement, FreeConformal, generator_image
from .ncpoly import AlgebraConfig, ConfigError
from .pseudo import PElement, ProductKind, PseudoAlgebra


class ParseError(ValueError):
    """Syntax or name-resolution error with a 1-based column."""

    def __init__(self, message: str, text: str, pos: int):
        self.message = message
        self.text = text
        self.pos = pos
        super().__init__(f"{message} (column {pos + 1})")


@dataclass(frozen=True)
class Name:
    pos: int
    name: str


@dataclass(frozen=True)
class DPow:
    pos: int
    power: int
    body: object


@dataclass(frozen=True)
class Prod:
    pos: int
    n: int
    left: object
    right: object


@dataclass(frozen=True)
class Term:
    coeff: Fraction
    factor: object | None  # None encodes the bare zero term


@dataclass(frozen=True)
class Sum:
    terms: tuple[Term, ...]


MAX_NESTING = 200


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def error(self, message: str, pos: int | None = None) -> ParseError:
        return ParseError(message, self.text, self.pos if pos is None else pos)

    def skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def expect(self, ch: str) -> None:
        if self.peek() != ch:
            raise self.error(f"expected {ch!r}")
        self.pos += 1

    def read_int(self, what: str) -> int:
        start = self.pos
        # isdecimal, not isdigit: int() refuses digits such as a superscript 2
        while self.pos < len(self.text) and self.text[self.pos].isdecimal():
            self.pos += 1
        if self.pos == start:
            raise self.error(f"expected {what}", start)
        try:
            return int(self.text[start:self.pos])
        except ValueError:  # past the interpreter's cap on digits in an int
            raise self.error(f"{what} has too many digits ({self.pos - start})", start) from None

    def read_ident(self) -> tuple[int, str]:
        start = self.pos
        ch = self.peek()
        if not (ch.isalpha() or ch == "_"):
            raise self.error("expected a name")
        while self.pos < len(self.text) and (
            self.text[self.pos].isalnum() or self.text[self.pos] == "_"
        ):
            self.pos += 1
        return start, self.text[start:self.pos]

    def parse_rational(self) -> Fraction:
        start = self.pos
        neg = False
        if self.peek() == "-":
            neg = True
            self.pos += 1
            self.skip_ws()
        num = self.read_int("a number")
        den = 1
        self.skip_ws()
        if self.peek() == "/":
            self.pos += 1
            self.skip_ws()
            dpos = self.pos
            den = self.read_int("a denominator")
            if den == 0:
                raise self.error("zero denominator", dpos)
        value = Fraction(num, den)
        return -value if neg else value

    def parse_factor(self):
        self.skip_ws()
        start = self.pos
        ch = self.peek()
        if ch == "(":
            self.pos += 1
            left = self.parse_expr()
            self.skip_ws()
            if self.peek() != ".":
                raise self.error("expected '.' and a product index")
            self.pos += 1
            n = self.read_int("an integer product index")
            right = self.parse_expr()
            self.skip_ws()
            self.expect(")")
            return Prod(start, n, left, right)
        if ch.isalpha() or ch == "_":
            pos, ident = self.read_ident()
            if ident == "D":
                if self.peek() != "^":
                    raise self.error("reserved symbol D must appear as D^k(...)", pos)
                self.pos += 1
                power = self.read_int("an integer power")
                self.skip_ws()
                self.expect("(")
                body = self.parse_expr()
                self.skip_ws()
                self.expect(")")
                return DPow(pos, power, body)
            return Name(pos, ident)
        raise self.error("expected a factor")

    def parse_term(self) -> Term:
        self.skip_ws()
        start = self.pos
        ch = self.peek()
        if ch.isdecimal() or ch == "-":
            coeff = self.parse_rational()
            self.skip_ws()
            if self.peek() == "*":
                self.pos += 1
                return Term(coeff, self.parse_factor())
            if coeff == 0:
                return Term(Fraction(0), None)
            raise self.error("expected '*' after a coefficient", start)
        return Term(Fraction(1), self.parse_factor())

    def parse_expr(self) -> Sum:
        terms = [self.parse_term()]
        while True:
            self.skip_ws()
            ch = self.peek()
            if ch == "+" or ch == "-":
                sign = 1 if ch == "+" else -1
                self.pos += 1
                term = self.parse_term()
                terms.append(Term(term.coeff * sign, term.factor))
            else:
                return Sum(tuple(terms))

    def parse_all(self) -> Sum:
        # every product and every D^k opens one bracket level
        depth = 0
        for pos, ch in enumerate(self.text):
            depth += (ch == "(") - (ch == ")")
            if depth > MAX_NESTING:
                raise self.error(f"expression nests deeper than {MAX_NESTING} levels", pos)
        node = self.parse_expr()
        self.skip_ws()
        if self.pos != len(self.text):
            raise self.error("unexpected trailing input")
        return node


def parse(text: str) -> Sum:
    return _Parser(text).parse_all()


def _walk(node, zero, leaf, product):
    """Evaluate a parsed expression given the zero, generator and product maps."""

    def walk(nd):
        if isinstance(nd, Sum):
            out = zero()
            for term in nd.terms:
                out = out + walk(term)
            return out
        if isinstance(nd, Term):
            if nd.factor is None or nd.coeff == 0:
                return zero()
            return walk(nd.factor).scale(nd.coeff)
        if isinstance(nd, Name):
            try:
                return leaf(nd.name)
            except ConfigError:
                raise ParseError(f"unknown generator {nd.name!r}", "", nd.pos) from None
        if isinstance(nd, DPow):
            return walk(nd.body).d_shift(nd.power)
        if isinstance(nd, Prod):
            return product(walk(nd.left), nd.n, walk(nd.right))
        raise TypeError(f"not an expression node: {nd!r}")

    return walk(node)


def evaluate(fc: FreeConformal, node, engine: str = "realize") -> ConfElement:
    """Evaluate a parsed expression to a ConfElement."""
    prod, _ = fc.engine(engine)
    return _walk(node, ConfElement, fc.generator, prod)


def evaluate_pseudo(pa: PseudoAlgebra, node, kind: ProductKind = ProductKind.P20) -> PElement:
    """Evaluate a parsed expression inside H (x) A with n-th products of kind.

    Generators stand for their realization images; D^k shifts the H slot.
    """
    alg = pa.alg

    def image(name: str) -> PElement:
        return PElement.from_poly(alg, generator_image(alg, name))

    return _walk(node, partial(PElement, alg), image, partial(pa.nth, kind))
