"""Sparse exact linear combinations: the one storage rule of every container.

A combination is a dict {key: value} that holds no zero value, so equality is
dict equality and truth is nonemptiness.  Scalar classes (HPoly, TensorHH,
NCPoly, words.ConfElement) hold Fraction values at the public API; only trusted
containers hold ints: the realize pipeline's images and slices, the splitting's
cached parts, and the pseudo layer's int numerators inside assoc_check and
eval_identity.  Nested classes (PElement, PseudoTensor, PseudoTensor3) hold
NCPoly values, combinations of the layer below, which answer to the same +, -,
scale and truth tests, so one implementation serves both.

exact() is the only place where an outside number becomes a coefficient;
integral() does the same for D-degrees and product indices.
Internal arithmetic builds its results with the trusted constructors _of and
_new, which skip re-normalising values that are already exact and nonzero.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping
from fractions import Fraction

_new_object = object.__new__


def exact(c) -> Fraction:
    """c as a Fraction; only ints, Fractions and rational strings qualify.

    Floats, complex numbers and Decimals raise TypeError: 0.1 is not 1/10,
    and an exact result must not depend on binary rounding.  So do bools,
    as in integral(): a JSON true is not the number 1.
    """
    if c.__class__ is Fraction:
        return c
    if isinstance(c, (int, Fraction, str)) and not isinstance(c, bool):
        return Fraction(c)
    raise TypeError(
        f"coefficients must be exact (int, Fraction or rational string), "
        f"not {type(c).__name__}: {c!r}"
    )


def integral(n) -> int:
    """n as a plain int; bools, floats and every other type raise TypeError.

    A degree or index is taken as given or refused: int(0.9) would read 0.
    """
    if n.__class__ is int:
        return n
    if isinstance(n, int) and not isinstance(n, bool):
        return int(n)
    raise TypeError(f"expected an integer, not {type(n).__name__}: {n!r}")


def accumulate(acc: dict, key, value) -> None:
    """acc[key] += value in place, keeping acc free of zero values."""
    old = acc.get(key)
    if old is not None:
        value = old + value
    if value:
        acc[key] = value
    elif old is not None:
        del acc[key]


def collect(pairs: Iterable[tuple]) -> dict:
    """Sum (key, value) pairs into a dict without zero values."""
    acc: dict = {}
    get = acc.get
    for key, value in pairs:
        old = get(key)
        acc[key] = value if old is None else old + value
    return {k: v for k, v in acc.items() if v}


class Linear:
    """Sparse exact linear combination {key: value} with no zero values."""

    __slots__ = ("terms",)
    _nested = False  # True when the values are Linear combinations

    def __init__(self, terms: Mapping | None = None):
        self.terms = self._collect(terms)

    @classmethod
    def _of(cls, terms: dict):
        """Trusted constructor: terms must already be exact and zero-free."""
        out = _new_object(cls)
        out.terms = terms
        return out

    def _new(self, terms: dict):
        """Trusted result of the same class and context as self."""
        out = _new_object(self.__class__)
        out.terms = terms
        return out

    # ---- public-constructor hooks ---------------------------------------

    def _key(self, key):
        """Validate or canonicalise one input key."""
        return key

    def _value(self, value):
        """Coerce one input value."""
        return value if self._nested else exact(value)

    def _collect(self, terms: Mapping | None) -> dict:
        if not terms:
            return {}
        key_of, value_of = self._key, self._value
        pairs = ((k, value_of(v)) for k, v in terms.items())
        return collect((key_of(k), v) for k, v in pairs if v)

    # ---- arithmetic -----------------------------------------------------

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        return other.__class__ is self.__class__ and self.terms == other.terms

    __hash__ = None  # mutable container semantics

    def __add__(self, other):
        out = dict(self.terms)
        for k, v in other.terms.items():
            accumulate(out, k, v)
        return self._new(out)

    def __sub__(self, other):
        out = dict(self.terms)
        for k, v in other.terms.items():
            accumulate(out, k, -v)
        return self._new(out)

    def __neg__(self):
        return self._new({k: -v for k, v in self.terms.items()})

    def scale(self, c):
        """self times c.  An int c stays an int, so the int values of a
        trusted container stay ints and Fraction values stay Fractions;
        any other c goes through exact()."""
        if c.__class__ is not int:
            c = exact(c)
        if not c:
            return self._new({})
        if c == 1:
            return self._new(dict(self.terms))
        if self._nested:
            return self._new({k: v.scale(c) for k, v in self.terms.items()})
        return self._new({k: v * c for k, v in self.terms.items()})


class AlgLinear(Linear):
    """A combination tied to an AlgebraConfig, which every result shares."""

    __slots__ = ("alg",)

    def __init__(self, alg, terms: Mapping | None = None):
        self.alg = alg
        self.terms = self._collect(terms)

    @classmethod
    def _of(cls, alg, terms: dict):
        out = _new_object(cls)
        out.alg = alg
        out.terms = terms
        return out

    def _new(self, terms: dict):
        out = _new_object(self.__class__)
        out.alg = self.alg
        out.terms = terms
        return out
