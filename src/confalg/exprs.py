"""Expression syntax for conformal elements.

    expr     := term (('+' | '-') term)*
    term     := [rational '*'] factor
    factor   := ident | 'D^' int '(' expr ')' | '(' expr '.' int expr ')'
    rational := ['-'] digits ['/' digits]

Whitespace is insignificant.  A bare rational zero is allowed as a term and
denotes the zero element (it is what the printer emits for zero); any other
bare rational is an error.  D and v are reserved and never name generators.
Brackets nest to any depth: parse reads the text in one pass into a tuple
of postfix steps, and evaluation runs them on a value stack.
"""

from __future__ import annotations

from fractions import Fraction
from functools import partial

from .freeconf import ConfElement, FreeConformal, generator_image
from .ncpoly import ConfigError
from .pseudo import PElement, ProductKind, PseudoAlgebra


class ParseError(ValueError):
    """Syntax or name-resolution error with a 1-based column."""

    def __init__(self, message: str, text: str, pos: int):
        self.message = message
        self.text = text
        self.pos = pos
        super().__init__(f"{message} (column {pos + 1})")


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
        """A name at pos, whose first character the caller has checked."""
        start = self.pos
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

    def parse_all(self) -> tuple:
        """The text as postfix steps (op, arg, pos), read left to right.

        Open brackets wait on an explicit list, each with the term it is
        the factor of: that term's coefficient, where its factor's steps
        start, and whether it is the first term of its sum.
        """
        steps: list[tuple] = []
        append = steps.append
        brackets: list[tuple] = []
        sign, first = 1, True
        while True:
            # a term: its coefficient, then its factor down to a name
            self.skip_ws()
            at = self.pos
            ch = self.peek()
            coeff = sign
            bare = False
            if ch.isdecimal() or ch == "-":
                coeff = self.parse_rational() * sign
                self.skip_ws()
                if self.peek() == "*":
                    self.pos += 1
                elif coeff == 0:
                    bare = True
                else:
                    raise self.error("expected '*' after a coefficient", at)
            mark = len(steps)
            if not bare:
                self.skip_ws()
                at = self.pos
                ch = self.peek()
                if ch == "(":
                    self.pos += 1
                    brackets.append(("(", None, at, coeff, mark, first))
                    sign, first = 1, True
                    continue
                if not (ch.isalpha() or ch == "_"):
                    raise self.error("expected a factor")
                at, ident = self.read_ident()
                if ident == "D":
                    if self.peek() != "^":
                        raise self.error("reserved symbol D must appear as D^k(...)", at)
                    self.pos += 1
                    power = self.read_int("an integer power")
                    self.skip_ws()
                    self.expect("(")
                    brackets.append(("D", power, at, coeff, mark, first))
                    sign, first = 1, True
                    continue
                append(("name", ident, at))
            while True:
                # a factor is complete: finish its term, then go on or close
                if coeff == 0:  # nothing under a zero coefficient is evaluated
                    del steps[mark:]
                    append(("zero", None, at))
                elif coeff != 1:
                    append(("scale", coeff, at))
                if not first:
                    append(("add", None, at))
                self.skip_ws()
                ch = self.peek()
                if ch == "+" or ch == "-":
                    self.pos += 1
                    sign, first = (1 if ch == "+" else -1), False
                    break
                if not brackets:
                    if self.pos != len(self.text):
                        raise self.error("unexpected trailing input")
                    return tuple(steps)
                op, arg, at, coeff, mark, first = brackets.pop()
                if op == "(":  # the left operand is complete
                    if ch != ".":
                        raise self.error("expected '.' and a product index")
                    self.pos += 1
                    n = self.read_int("an integer product index")
                    brackets.append(("prod", n, at, coeff, mark, first))
                    sign, first = 1, True
                    break
                self.expect(")")
                append((op, arg, at))


def parse(text: str) -> tuple:
    return _Parser(text).parse_all()


def _walk(steps, zero, leaf, product):
    """Run postfix steps on a value stack, given the zero, generator and product maps."""
    stack: list = []
    push, pop = stack.append, stack.pop
    for op, arg, pos in steps:
        if op == "name":
            try:
                push(leaf(arg))
            except ConfigError:
                raise ParseError(f"unknown generator {arg!r}", "", pos) from None
        elif op == "prod":
            right = pop()
            stack[-1] = product(stack[-1], arg, right)
        elif op == "add":
            right = pop()
            stack[-1] = stack[-1] + right
        elif op == "scale":
            stack[-1] = stack[-1].scale(arg)
        elif op == "D":
            stack[-1] = stack[-1].d_shift(arg)
        elif op == "zero":
            push(zero())
        else:
            raise TypeError(f"not an expression step: {op!r}")
    return pop()


def evaluate(fc: FreeConformal, steps, engine: str = "realize") -> ConfElement:
    """Evaluate a parsed expression to a ConfElement."""
    prod, _ = fc.engine(engine)
    return _walk(steps, ConfElement, fc.generator, prod)


def evaluate_pseudo(pa: PseudoAlgebra, steps) -> PElement:
    """Evaluate a parsed expression inside H (x) A with P20 n-th products.

    Generators stand for their realization images; D^k shifts the H slot.
    """
    alg = pa.alg

    def image(name: str) -> PElement:
        return PElement(alg, {0: generator_image(alg, name)})

    return _walk(steps, partial(PElement, alg), image, partial(pa.nth, ProductKind.P20))
