"""Free associative words over a generator alphabet plus the marker letter v.

A word is a str with one code point per letter: generator number i of the
declared order is chr(i), and v is always the largest code.  Code-point
order is code order, so deg-lex (shorter words first, ties left to right)
is plain comparison of (len(word), word).  A str caches its hash, compares
by memcmp and takes one byte per letter while there are at most 255
generators.  A commutative variant keeps each word's letters sorted.
"""

from __future__ import annotations

import re
from collections.abc import Iterable, Mapping, Sequence

from .linear import AlgLinear, collect

Word = str

V_NAME = "v"
RESERVED_NAMES = frozenset({"v", "D"})
# Most generators that one code point each can code, v taking the code after
# the last generator.
MAX_GENERATORS = 0x10FFFF
# Largest accepted locality.  A generator's image is the word v^(n-1) a
# over (n-1)!, so a larger n is refused before anything of that size is made.
MAX_LOCALITY = 100_000
_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")


class ConfigError(ValueError):
    """Invalid algebra configuration or an operation outside its scope."""


class AlgebraConfig:
    """Generator alphabet with locality bounds and the word conventions.

    localities: mapping name -> n(a), 1 <= n(a) <= MAX_LOCALITY; iteration
        order fixes the letter order unless an explicit order is given.
    commutative: store words as sorted multisets instead of sequences.
    """

    def __init__(
        self,
        localities: Mapping[str, int],
        *,
        order: Sequence[str] | None = None,
        commutative: bool = False,
    ):
        names = list(order) if order is not None else list(localities)
        if order is not None and set(names) != set(localities):
            raise ConfigError("order must list exactly the declared generators")
        if not names:
            raise ConfigError("at least one generator is required")
        if len(names) > MAX_GENERATORS:
            raise ConfigError(f"at most {MAX_GENERATORS} generators are supported")
        if len(set(names)) != len(names):
            raise ConfigError("duplicate generator name")
        for name in names:
            if not isinstance(name, str) or not _NAME_RE.match(name):
                raise ConfigError(f"bad generator name: {name!r}")
            if name in RESERVED_NAMES:
                raise ConfigError(f"reserved symbol used as a generator: {name!r}")
        self.names: tuple[str, ...] = tuple(names)
        self.n: dict[str, int] = {}
        for name in names:
            bound = localities[name]
            if not isinstance(bound, int) or isinstance(bound, bool) or bound < 1:
                raise ConfigError(f"locality of {name!r} must be an integer >= 1")
            if bound > MAX_LOCALITY:
                raise ConfigError(f"locality of {name!r} must be at most {MAX_LOCALITY}")
            self.n[name] = bound
        self.index = {name: i for i, name in enumerate(self.names)}
        self.V = len(self.names)  # letter code of v
        self.v = chr(self.V)  # v as a one-letter word
        self.commutative = bool(commutative)

    def n_of(self, name: str) -> int:
        try:
            return self.n[name]
        except KeyError:
            raise ConfigError(f"unknown generator: {name!r}") from None

    def letter(self, name: str) -> int:
        if name == V_NAME:
            return self.V
        try:
            return self.index[name]
        except KeyError:
            raise ConfigError(f"unknown letter: {name!r}") from None

    def letter_name(self, code: int) -> str:
        if code == self.V:
            return V_NAME
        return self.names[code]

    def word(self, names: Iterable[str]) -> Word:
        w = "".join(chr(self.letter(nm)) for nm in names)
        return "".join(sorted(w)) if self.commutative else w

    def word_names(self, w: Word) -> tuple[str, ...]:
        return tuple(self.letter_name(ord(letter)) for letter in w)

    def word_str(self, w: Word) -> str:
        names = self.word_names(w)
        return " ".join(names) if any(len(nm) > 1 for nm in names) else "".join(names)

    def monomial(self, names: Iterable[str], coeff=1) -> "NCPoly":
        return NCPoly(self, {self.word(names): coeff})


def deglex_key(word: Word) -> tuple[int, Word]:
    return (len(word), word)


class NCPoly(AlgLinear):
    """Linear combination of words with Fraction coefficients, or int ones
    when built by a trusted caller (the realize images, the pseudo checks'
    numerators); arithmetic keeps an int an int."""

    __slots__ = ()
    # own attributes, so tracing can wrap NCPoly's arithmetic and no other class's
    __add__, __sub__, __neg__ = AlgLinear.__add__, AlgLinear.__sub__, AlgLinear.__neg__
    scale = AlgLinear.scale

    def _key(self, w) -> Word:
        """w as a Word; any other sequence of int letter codes is joined.
        A letter past v, which no name of the config codes, raises ConfigError."""
        if not isinstance(w, str):
            w = "".join(map(chr, w))
        if w and max(w) > self.alg.v:
            raise ConfigError(f"unknown letter code: {ord(max(w))}")
        return "".join(sorted(w)) if self.alg.commutative else w

    def __mul__(self, other):
        if not isinstance(other, NCPoly):
            return NotImplemented
        pairs = (
            (w1 + w2, c1 * c2)
            for w1, c1 in self.terms.items()
            for w2, c2 in other.terms.items()
        )
        if self.alg.commutative:
            pairs = (("".join(sorted(w)), c) for w, c in pairs)
        return self._new(collect(pairs))

    def vderiv(self, m: int = 1) -> "NCPoly":
        """m-th v-derivative: iterate the sum over single v deletions.

        Deleting any v of a run of L v's gives the same word, so each run
        contributes one word, without its last v, L times (a lone v keeps
        its coefficient object: c * 1 would build a new Fraction).
        """
        if m < 0:
            raise ValueError("negative derivative order")
        cur = self
        v = self.alg.v
        for _ in range(m):
            pairs = []
            for w, c in cur.terms.items():
                run = 0
                for pos, letter in enumerate(w):
                    if letter == v:
                        run += 1
                    elif run:
                        pairs.append((w[:pos - 1] + w[pos:], c if run == 1 else c * run))
                        run = 0
                if run:
                    pairs.append((w[:-1], c if run == 1 else c * run))
            cur = cur._new(collect(pairs))
            if not cur:
                break
        return cur

    def coact(self, upto: int | None = None) -> dict[int, "NCPoly"]:
        """Coaction components {s: g_s}, read as sum_s D^(s) (x) g_s.

        Generators map to 1 (x) a and v to D (x) 1 + 1 (x) v.  On words the
        component at the divided power D^(s) is the s-th iterated v-deletion
        sum: the 1/s! is absorbed by the D side, so no scaling happens here.
        With upto given, only the components s <= upto are built: a caller
        that keeps the n-th products for n <= upto of a P8 pseudoproduct
        never needs the others.
        """
        if upto is not None and upto < 0:
            raise ValueError("negative coaction cut")
        out: dict[int, NCPoly] = {}
        cur = self
        s = 0
        while cur:
            out[s] = cur
            if s == upto:
                break
            cur = cur.vderiv(1)
            s += 1
        return out

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        bits = []
        for w in sorted(self.terms, key=deglex_key):
            c = self.terms[w]
            name = self.alg.word_str(w) if w else "1"
            bits.append(f"{c}*{name}" if c != 1 else name)
        return " + ".join(bits)
