"""Free associative words over a generator alphabet plus the marker letter v.

Letters are stored as small integers: generator number i of the declared
order is code i, and v is always the largest code.  Deg-lex (shorter words
first, ties left to right) is therefore plain tuple comparison of
(len(word), word).  A commutative variant keeps words as sorted tuples.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from .linear import AlgLinear, collect

Word = tuple[int, ...]

V_NAME = "v"
RESERVED_NAMES = frozenset({"v", "D"})
_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")


class ConfigError(ValueError):
    """Invalid algebra configuration or an operation outside its scope."""


class AlgebraConfig:
    """Generator alphabet with locality bounds and the word conventions.

    localities: mapping name -> n(a) >= 1; iteration order fixes the letter
        order unless an explicit order is given.
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
        if not names:
            raise ConfigError("at least one generator is required")
        if len(set(names)) != len(names):
            raise ConfigError("duplicate generator name")
        if order is not None and set(names) != set(localities):
            raise ConfigError("order must list exactly the declared generators")
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
            self.n[name] = bound
        self.index = {name: i for i, name in enumerate(self.names)}
        self.V = len(self.names)  # letter code of v
        self.commutative = bool(commutative)

    def n_of(self, name: str) -> int:
        try:
            return self.n[name]
        except KeyError:
            raise ConfigError(f"unknown generator: {name!r}") from None

    def N_of(self, left: str, right: str) -> int:
        """Locality bound N(left, right) = n(right) of left_(n) right."""
        return self.n_of(right)

    def sum_n(self) -> int:
        return sum(self.n.values())

    def max_n(self) -> int:
        return max(self.n.values())

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
        w = tuple(self.letter(nm) for nm in names)
        return tuple(sorted(w)) if self.commutative else w

    def word_names(self, w: Word) -> tuple[str, ...]:
        return tuple(self.letter_name(code) for code in w)

    def word_str(self, w: Word) -> str:
        names = self.word_names(w)
        return " ".join(names) if any(len(nm) > 1 for nm in names) else "".join(names)

    def poly(self, terms: Mapping[Iterable[str], object]) -> "NCPoly":
        return NCPoly(self, {self.word(names): c for names, c in terms.items()})

    def monomial(self, names: Iterable[str], coeff=1) -> "NCPoly":
        return NCPoly(self, {self.word(names): coeff})


def deglex_key(word: Word) -> tuple[int, Word]:
    return (len(word), word)


class NCPoly(AlgLinear):
    """Linear combination of words with Fraction coefficients."""

    __slots__ = ()

    def _key(self, w) -> Word:
        w = tuple(w)
        return tuple(sorted(w)) if self.alg.commutative else w

    def __mul__(self, other):
        if not isinstance(other, NCPoly):
            return self.scale(other)
        pairs = (
            (w1 + w2, c1 * c2)
            for w1, c1 in self.terms.items()
            for w2, c2 in other.terms.items()
        )
        if self.alg.commutative:
            pairs = ((tuple(sorted(w)), c) for w, c in pairs)
        return self._new(collect(pairs))

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        return NotImplemented

    def lowest_monomial(self) -> tuple[Word, Fraction]:
        """Deg-lex least word with its coefficient; error on zero."""
        if not self.terms:
            raise ValueError("the zero polynomial has no monomials")
        w = min(self.terms, key=deglex_key)
        return w, self.terms[w]

    def vderiv(self, m: int = 1) -> "NCPoly":
        """m-th v-derivative: iterate the sum over single v deletions."""
        if m < 0:
            raise ValueError("negative derivative order")
        cur = self
        V = self.alg.V
        for _ in range(m):
            cur = cur._new(collect(
                (w[:pos] + w[pos + 1:], c)
                for w, c in cur.terms.items()
                for pos, code in enumerate(w)
                if code == V
            ))
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

    def v_degree(self, w: Word) -> int:
        return sum(1 for code in w if code == self.alg.V)

    def max_v_degree(self) -> int:
        """Largest v-count over the support; -1 for zero."""
        if not self.terms:
            return -1
        return max(self.v_degree(w) for w in self.terms)

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        bits = []
        for w in sorted(self.terms, key=deglex_key):
            c = self.terms[w]
            name = self.alg.word_str(w) if w else "1"
            bits.append(f"{c}*{name}" if c != 1 else name)
        return " + ".join(bits)
