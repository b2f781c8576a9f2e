"""Normal words and their linear combinations: the word algebra that the
realization engine (freeconf) and the rewriting engine (rewrite) share."""

from __future__ import annotations

from .linear import Linear, _new_object, integral

_set = object.__setattr__  # fills a NormalWord's slots past its __setattr__


class NormalWord:
    """D^s (a_1 .n_1 (a_2 .n_2 (... a_k .n_k a_{k+1} ...))).

    gens has one more entry than indices; index i must satisfy
    0 <= n_i < N(a_i, a_{i+1}) = n(a_{i+1}).  Every dict of the engines is
    keyed by words, so the hash of (s, gens, indices) is computed once, at
    construction; equality and repr read the three fields alone.  _text
    holds the word's JSON text once FreeConformal.word_to_json_text has
    built it.

    A word is immutable: _of fills its slots, and only word_to_json_text
    writes one again, to keep the text it built.  It is a plain slotted
    class, not a frozen dataclass, because importing dataclasses also
    imports inspect, ast, dis and tokenize: about a tenth of the time a
    fresh process takes to build a FreeConformal.
    """

    __slots__ = ("s", "gens", "indices", "_hash", "_text")

    def __new__(cls, s: int, gens: tuple[str, ...], indices: tuple[int, ...]):
        s, gens, indices = integral(s), tuple(gens), tuple(map(integral, indices))
        if s < 0:
            raise ValueError("negative D-power")
        if len(gens) != len(indices) + 1:
            raise ValueError("need exactly one more generator than product indices")
        return NormalWord._of(s, gens, indices)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.s == other.s and self.gens == other.gens and self.indices == other.indices

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"NormalWord(s={self.s!r}, gens={self.gens!r}, indices={self.indices!r})"

    def __reduce__(self):
        # a str hashes differently in each process, so a pickle carries the
        # fields alone and the constructor computes the hash again (and
        # leaves the text unbuilt)
        return NormalWord, (self.s, self.gens, self.indices)

    @staticmethod
    def _of(s: int, gens: tuple[str, ...], indices: tuple[int, ...]) -> "NormalWord":
        """Trusted constructor: s an int >= 0, indices a tuple of ints, and
        gens a tuple one longer; nothing is checked or converted."""
        word = _new_object(NormalWord)
        _set(word, "s", s)
        _set(word, "gens", gens)
        _set(word, "indices", indices)
        _set(word, "_hash", hash((s, gens, indices)))
        _set(word, "_text", None)
        return word

    def dfree(self) -> "NormalWord":
        return self if self.s == 0 else NormalWord._of(0, self.gens, self.indices)


class ConfElement(Linear):
    """Linear combination of normal words with Fraction coefficients."""

    __slots__ = ()

    def d_shift(self, k: int = 1) -> "ConfElement":
        return self._new(
            {NormalWord(u.s + k, u.gens, u.indices): c for u, c in self.terms.items()}
        )

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        bits = []
        for u, c in self.terms.items():
            bits.append(f"{c}*{u.gens}/{u.indices}/D^{u.s}")
        return " + ".join(bits)
