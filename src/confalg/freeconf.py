"""Free associative conformal algebras on a finite alphabet.

Two independent engines compute the same products.  The realization engine
embeds normal words into H (x) F(B) through iota and reduces results back
against the triangular system of hat words.  The rewriting engine works
directly from the axioms: it moves D across products, splits off leading
letters, and resolves out-of-range indices by the composition rule.  Their
agreement on random inputs is one of the package's standing checks.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping

from .ncpoly import AlgebraConfig, ConfigError, NCPoly, Word, deglex_key
from .linear import Linear, accumulate, exact
from .pseudo import _COEFF_POOL, PElement, ProductKind, PseudoAlgebra, as_rng, standard_coaction


class NotInSpan(Exception):
    """A realization element lies outside the span of normal-word images."""

    def __init__(self, witness: Word, names: tuple[str, ...] | None = None):
        self.witness = tuple(witness)
        self.names = names
        shown = " ".join(names) if names else repr(self.witness)
        super().__init__(f"monomial outside the normal-word span: {shown}")


@dataclass(frozen=True)
class NormalWord:
    """D^s (a_1 .n_1 (a_2 .n_2 (... a_k .n_k a_{k+1} ...))).

    gens has one more entry than indices; index i must satisfy
    0 <= n_i < N(a_i, a_{i+1}) = n(a_{i+1}).
    """

    s: int
    gens: tuple[str, ...]
    indices: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "gens", tuple(self.gens))
        object.__setattr__(self, "indices", tuple(int(n) for n in self.indices))
        if self.s < 0:
            raise ValueError("negative D-power")
        if len(self.gens) != len(self.indices) + 1:
            raise ValueError("need exactly one more generator than product indices")

    def dfree(self) -> "NormalWord":
        return self if self.s == 0 else NormalWord(0, self.gens, self.indices)


class ConfElement(Linear):
    """Linear combination of normal words with Fraction coefficients."""

    __slots__ = ()

    @classmethod
    def single(cls, u: NormalWord, coeff=1) -> "ConfElement":
        return cls({u: coeff})

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


def generator_image(alg: AlgebraConfig, name: str) -> NCPoly:
    """Image of a generator in F(B): the word v^(n-1) a scaled by 1/(n-1)!."""
    e = alg.n_of(name) - 1
    w = alg.word(("v",) * e + (name,))
    return NCPoly(alg, {w: Fraction(1, math.factorial(e))})


class FreeConformal:
    """The free associative conformal algebra for one locality config."""

    def __init__(self, config: AlgebraConfig):
        if config.commutative:
            raise ConfigError("normal words need the noncommutative word algebra")
        self.alg = config
        self.pseudo = PseudoAlgebra(config, standard_coaction)
        self._iota_cache: dict[tuple[tuple[str, ...], tuple[int, ...]], NCPoly] = {}
        self._prod_cache: dict[tuple, ConfElement] = {}
        self._rw_cache: dict[tuple, ConfElement] = {}

    # ---- normal words -------------------------------------------------

    def validate(self, u: NormalWord) -> NormalWord:
        for name in u.gens:
            self.alg.n_of(name)
        for i, n in enumerate(u.indices):
            if n < 0 or n >= self.alg.N_of(u.gens[i], u.gens[i + 1]):
                raise ValueError(
                    f"index {n} out of range for the pair "
                    f"({u.gens[i]}, {u.gens[i + 1]})"
                )
        return u

    def normal(self, s: int, gens: Iterable[str], indices: Iterable[int]) -> NormalWord:
        return self.validate(NormalWord(s, tuple(gens), tuple(indices)))

    def generator(self, name: str, *, s: int = 0) -> ConfElement:
        self.alg.n_of(name)
        return ConfElement.single(NormalWord(s, (name,), ()))

    # ---- realization engine -------------------------------------------

    def _iota_nc(self, gens: tuple[str, ...], indices: tuple[int, ...]) -> NCPoly:
        key = (gens, indices)
        hit = self._iota_cache.get(key)
        if hit is not None:
            return hit
        if not indices:
            val = generator_image(self.alg, gens[0])
        else:
            tail = self._iota_nc(gens[1:], indices[1:])
            m = indices[0]
            val = (generator_image(self.alg, gens[0]) * tail.vderiv(m)).scale((-1) ** m)
        self._iota_cache[key] = val
        return val

    def iota_word(self, u: NormalWord) -> PElement:
        self.validate(u)
        return PElement(self.alg, {u.s: self._iota_nc(u.gens, u.indices)})

    def iota(self, x: ConfElement) -> PElement:
        out = PElement(self.alg)
        for u, c in x.terms.items():
            out = out + self.iota_word(u).scale(c)
        return out

    def hat_word(self, u: NormalWord) -> tuple[int, Word]:
        """Leading monomial of iota with its sign; D-free words only.

        The magnitude of the leading coefficient is a positive rational;
        only the shared sign (-1)^(sum of indices) is reported.
        """
        if u.s:
            raise ValueError("hat words are defined for D-free normal words")
        self.validate(u)
        letters: list[str] = []
        letters += ["v"] * (self.alg.n_of(u.gens[0]) - 1)
        letters.append(u.gens[0])
        for i, name in enumerate(u.gens[1:]):
            letters += ["v"] * (self.alg.n_of(name) - 1 - u.indices[i])
            letters.append(name)
        sign = (-1) ** sum(u.indices)
        return sign, self.alg.word(letters)

    def word_to_normal(self, w: Word) -> tuple[int, NormalWord] | None:
        """Invert hat_word; None when w is not a hat word."""
        V = self.alg.V
        segs: list[tuple[int, int]] = []
        run = 0
        for code in w:
            if code == V:
                run += 1
            else:
                segs.append((run, code))
                run = 0
        if run or not segs:
            return None
        names = tuple(self.alg.names[code] for _, code in segs)
        if segs[0][0] != self.alg.n_of(names[0]) - 1:
            return None
        indices = []
        for (e, _), name in zip(segs[1:], names[1:]):
            n = self.alg.n_of(name) - 1 - e
            if n < 0:
                return None
            indices.append(n)
        sign = (-1) ** sum(indices)
        return sign, NormalWord(0, names, tuple(indices))

    def reduce(self, p: PElement) -> ConfElement:
        """Express p in normal words, greedily eliminating lowest monomials.

        Raises NotInSpan when some slice's lowest monomial is not a hat word.
        """
        out: dict[NormalWord, Fraction] = {}
        for d in sorted(p.parts):
            g = p.parts[d]
            while g:
                w, c = g.lowest_monomial()
                hit = self.word_to_normal(w)
                if hit is None:
                    raise NotInSpan(w, self.alg.word_names(w))
                _, base = hit
                core = self._iota_nc(base.gens, base.indices)
                coeff = c / core.terms[w]
                u = NormalWord(d, base.gens, base.indices)
                accumulate(out, u, coeff)
                g = g - core.scale(coeff)
                if g and deglex_key(g.lowest_monomial()[0]) <= deglex_key(w):
                    raise RuntimeError("reduction failed to make progress")
        return ConfElement._of(out)

    def cprod(self, x: ConfElement, n: int, y: ConfElement) -> ConfElement:
        """n-th product through the realization engine."""
        if n < 0:
            raise ValueError("product index must be nonnegative")
        out = ConfElement()
        for u, cu in x.terms.items():
            for w, cw in y.terms.items():
                out = out + self._cprod_words(u, n, w).scale(cu * cw)
        return out

    def _cprod_words(self, u: NormalWord, n: int, w: NormalWord) -> ConfElement:
        key = (u, n, w)
        hit = self._prod_cache.get(key)
        if hit is None:
            p = self.pseudo.nth(ProductKind.P8, self.iota_word(u), n, self.iota_word(w))
            try:
                hit = self.reduce(p)
            except NotInSpan as exc:  # would falsify the image-subalgebra claim
                raise RuntimeError(f"internal reduction failure: {exc}") from exc
            self._prod_cache[key] = hit
        return hit

    # ---- rewriting engine ----------------------------------------------

    def cprod_rw(self, x: ConfElement, n: int, y: ConfElement) -> ConfElement:
        """n-th product via axiom-level rewriting; no embedding involved."""
        if n < 0:
            raise ValueError("product index must be nonnegative")
        out = ConfElement()
        for u, cu in x.terms.items():
            self.validate(u)
            for w, cw in y.terms.items():
                self.validate(w)
                out = out + self._rw_words(u, n, w).scale(cu * cw)
        return out

    def _rw_words(self, u: NormalWord, n: int, w: NormalWord) -> ConfElement:
        if n < 0:
            return ConfElement()
        key = (u, n, w)
        hit = self._rw_cache.get(key)
        if hit is not None:
            return hit
        if u.s:
            # (D^s x)_(n) y = (-1)^s n(n-1)...(n-s+1) x_(n-s) y
            if n < u.s:
                val = ConfElement()
            else:
                coeff = (-1) ** u.s * math.factorial(n) // math.factorial(n - u.s)
                val = self._rw_words(u.dfree(), n - u.s, w).scale(coeff)
        elif w.s:
            # x_(n) (D y) = D (x_(n) y) + n x_(n-1) y
            w0 = NormalWord(w.s - 1, w.gens, w.indices)
            val = self._rw_words(u, n, w0).d_shift(1)
            if n >= 1:
                val = val + self._rw_words(u, n - 1, w0).scale(n)
        else:
            val = self._rw_dfree(u.gens, u.indices, n, w.gens, w.indices)
        self._rw_cache[key] = val
        return val

    def _rw_dfree(
        self,
        gu: tuple[str, ...],
        iu: tuple[int, ...],
        n: int,
        gw: tuple[str, ...],
        iw: tuple[int, ...],
    ) -> ConfElement:
        if n < 0:
            return ConfElement()
        key = (gu, iu, n, gw, iw)
        hit = self._rw_cache.get(key)
        if hit is not None:
            return hit
        if len(gu) == 1:
            a = gu[0]
            bound = self.alg.N_of(a, gw[0])
            if n < bound:
                val = ConfElement.single(NormalWord(0, (a,) + gw, (n,) + iw))
            elif len(gw) == 1:
                val = ConfElement()
            else:
                # a_(n) (b_(n1) w1) with n >= N(a, b): push the overflow into
                # the pair (a, b) by the composition rule, then reassociate.
                n1 = iw[0]
                val = ConfElement()
                for s in range(max(0, n - bound + 1), n + 1):
                    j = n - s
                    c_ns = math.comb(n, s)
                    for t in range(j + 1):
                        inner = self._rw_dfree((gw[0],), (), n1 + s + t, gw[1:], iw[1:])
                        if not inner:
                            continue
                        coeff = c_ns * (-1) ** t * math.comb(j, t)
                        val = val + self._left_letter(a, j - t, inner).scale(coeff)
        else:
            # (a1_(m1) u1)_(n) w = sum_s (-1)^s C(m1, s) a1_(m1-s) (u1_(n+s) w)
            a1, m1 = gu[0], iu[0]
            val = ConfElement()
            for s in range(m1 + 1):
                inner = self._rw_dfree(gu[1:], iu[1:], n + s, gw, iw)
                if not inner:
                    continue
                val = val + self._left_letter(a1, m1 - s, inner).scale((-1) ** s * math.comb(m1, s))
        self._rw_cache[key] = val
        return val

    def _left_letter(self, a: str, m: int, x: ConfElement) -> ConfElement:
        """a_(m) x for x a combination of D-free normal words."""
        out = ConfElement()
        for u, c in x.terms.items():
            out = out + self._rw_dfree((a,), (), m, u.gens, u.indices).scale(c)
        return out

    # ---- bases, counting, locality --------------------------------------

    def basis_count(self, k: int) -> int:
        """Number of D-free normal words with exactly k product indices."""
        if k < 0:
            raise ValueError("negative length")
        return len(self.alg.names) * self.alg.sum_n() ** k

    def enumerate_basis(self, max_k: int, max_s: int = 0) -> list[NormalWord]:
        """All normal words with at most max_k products and D-power <= max_s."""
        out: list[NormalWord] = []
        for k in range(max_k + 1):
            for gens in itertools.product(self.alg.names, repeat=k + 1):
                ranges = [range(self.alg.n_of(g)) for g in gens[1:]]
                for idx in itertools.product(*ranges):
                    for s in range(max_s + 1):
                        out.append(NormalWord(s, gens, idx))
        return out

    def locality_of(self, x: ConfElement, y: ConfElement) -> int:
        """Least N with x_(n) y = 0 for every n >= N; exact, not a bound."""
        if not x or not y:
            raise ValueError("locality is defined for nonzero elements")
        px = self.iota(x)
        py = self.iota(y)
        bound = 1 + px.max_d() + max(e + f.max_v_degree() for e, f in py.parts.items())
        n = max(bound, 0)
        while n > 0 and not self.cprod(x, n - 1, y):
            n -= 1
        return n

    def associativity_defect(
        self,
        x: ConfElement,
        n: int,
        y: ConfElement,
        m: int,
        z: ConfElement,
        engine: str = "realize",
    ) -> ConfElement:
        """(x_(n) y)_(m) z minus its expansion over x_(n-s) (y_(m+s) z).

        Zero exactly when the associativity axiom holds on these inputs.
        """
        prod = self.cprod if engine == "realize" else self.cprod_rw
        left = prod(prod(x, n, y), m, z)
        right = ConfElement()
        for s in range(n + 1):
            inner = prod(y, m + s, z)
            if inner:
                right = right + prod(x, n - s, inner).scale((-1) ** s * math.comb(n, s))
        return left - right

    # ---- ordering and serialization -------------------------------------

    def sort_key(self, u: NormalWord):
        _, hat = self.hat_word(u.dfree())
        return (u.s, len(hat), hat)

    def sorted_terms(self, x: ConfElement) -> list[tuple[NormalWord, Fraction]]:
        return sorted(x.terms.items(), key=lambda item: self.sort_key(item[0]))

    def word_to_json(self, u: NormalWord) -> dict:
        return {"s": u.s, "gens": list(u.gens), "indices": list(u.indices)}

    def word_from_json(self, obj: Mapping) -> NormalWord:
        try:
            u = NormalWord(int(obj["s"]), tuple(obj["gens"]), tuple(obj["indices"]))
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"bad normal-word object: {obj!r}") from exc
        return self.validate(u)

    def element_to_json(self, x: ConfElement) -> list[dict]:
        return [
            {"coeff": str(c), "word": self.word_to_json(u)}
            for u, c in self.sorted_terms(x)
        ]

    def element_from_json(self, items: Iterable[Mapping]) -> ConfElement:
        out: dict[NormalWord, Fraction] = {}
        for item in items:
            accumulate(out, self.word_from_json(item["word"]), exact(item["coeff"]))
        return ConfElement._of(out)

    def render_word(self, u: NormalWord) -> str:
        def product(gens: tuple[str, ...], indices: tuple[int, ...]) -> str:
            if not indices:
                return gens[0]
            return f"({gens[0]} .{indices[0]} {product(gens[1:], indices[1:])})"

        core = product(u.gens, u.indices)
        return f"D^{u.s}({core})" if u.s else core

    def element_to_text(self, x: ConfElement) -> str:
        terms = self.sorted_terms(x)
        if not terms:
            return "0"
        bits: list[str] = []
        for pos, (u, c) in enumerate(terms):
            mag = abs(c)
            body = self.render_word(u)
            if mag != 1:
                body = f"{mag} * {body}"
            if pos == 0:
                if c > 0:
                    bits.append(body)
                else:
                    # a leading bare minus is not in the grammar, so spell
                    # out the coefficient when its magnitude is one
                    bits.append(f"-1 * {body}" if mag == 1 else f"-{body}")
            else:
                bits.append(f" + {body}" if c > 0 else f" - {body}")
        return "".join(bits)


def random_normal_word(seed, fc: FreeConformal, *, max_k: int = 2, max_s: int = 1) -> NormalWord:
    rng = as_rng(seed)
    alg = fc.alg
    k = rng.randint(0, max_k)
    gens = tuple(rng.choice(alg.names) for _ in range(k + 1))
    indices = tuple(rng.randrange(alg.N_of(gens[i], gens[i + 1])) for i in range(k))
    return NormalWord(rng.randint(0, max_s), gens, indices)


def random_element(
    seed,
    fc: FreeConformal,
    *,
    max_k: int = 2,
    max_s: int = 1,
    max_terms: int = 2,
    nonzero: bool = True,
) -> ConfElement:
    rng = as_rng(seed)
    for _ in range(100):
        terms: dict[NormalWord, Fraction] = {}
        for _ in range(rng.randint(1, max_terms)):
            u = random_normal_word(rng, fc, max_k=max_k, max_s=max_s)
            c = rng.choice(_COEFF_POOL)
            terms[u] = terms.get(u, Fraction(0)) + c
        x = ConfElement(terms)
        if x or not nonzero:
            return x
    raise RuntimeError("could not draw a nonzero element")
