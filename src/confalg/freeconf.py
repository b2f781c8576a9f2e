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
from typing import Callable, Iterable, Mapping

from .ncpoly import AlgebraConfig, ConfigError, NCPoly, Word, deglex_key
from .linear import Linear, accumulate, exact, integral
from . import pseudo
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
        object.__setattr__(self, "s", integral(self.s))
        object.__setattr__(self, "gens", tuple(self.gens))
        object.__setattr__(self, "indices", tuple(map(integral, self.indices)))
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


def _generator_word(alg: AlgebraConfig, name: str) -> Word:
    return alg.word(("v",) * (alg.n_of(name) - 1) + (name,))


def generator_image(alg: AlgebraConfig, name: str) -> NCPoly:
    """Image of a generator in F(B): the word v^(n-1) a scaled by 1/(n-1)!.

    FreeConformal computes with this image times (n-1)!, the bare word with
    coefficient 1, and divides by (n-1)! again at its API boundary.
    """
    scale = Fraction(1, math.factorial(alg.n_of(name) - 1))
    return NCPoly(alg, {_generator_word(alg, name): scale})


# engine name -> the names of its (cprod, cprods) methods
ENGINES = {"realize": ("cprod", "cprods"), "rewrite": ("cprod_rw", "cprods_rw")}


class FreeConformal:
    """The free associative conformal algebra for one locality config."""

    def __init__(self, config: AlgebraConfig):
        if config.commutative:
            raise ConfigError("normal words need the noncommutative word algebra")
        self.alg = config
        # the full coaction, for locality_of; cprods builds a cut one per call
        self.pseudo = PseudoAlgebra(config, standard_coaction)
        # iota of D-free words, generators too, each scaled by its weight
        # W = prod (n(a) - 1)! over its letters (see _weight): a generator is
        # the bare word v^(n-1) a, and every coefficient is an int.  The
        # rewriting engine makes none.
        self._iota_cache: dict[tuple[tuple[str, ...], tuple[int, ...]], NCPoly] = {}
        # _rw_dfree results by (gens_u, indices_u, n, gens_w, indices_w)
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

    def _weight(self, gens: tuple[str, ...]) -> int:
        """W = prod (n(a) - 1)! over the letters: the scale of a cached image.

        u .n w has exactly the letters of u and w, so W is multiplicative
        over products and the scaling cancels in cprods.
        """
        n = self.alg.n
        return math.prod(math.factorial(n[name] - 1) for name in gens)

    def _iota_nc(self, gens: tuple[str, ...], indices: tuple[int, ...]) -> NCPoly:
        """W * iota of a D-free word, folded right to left over its memoised suffixes."""
        cache = self._iota_cache
        val = cache.get((gens, indices))
        if val is not None:
            return val
        for k in range(len(gens) - 1, -1, -1):
            hit = cache.get((gens[k:], indices[k:]))
            if hit is None:
                if val is None:  # the last letter
                    hit = NCPoly._of(self.alg, {_generator_word(self.alg, gens[k]): 1})
                else:  # iota(g .m tail) = (-1)^m iota(g) * d^m/dv^m iota(tail)
                    m = indices[k]
                    hit = (self._iota_nc(gens[k:k + 1], ()) * val.vderiv(m)).scale((-1) ** m)
                cache[gens[k:], indices[k:]] = hit
            val = hit
        return val

    def _scaled(self, u: NormalWord) -> tuple[PElement, int]:
        """(W * iota(u), W) with int coefficients; validates u."""
        self.validate(u)
        return PElement._of(self.alg, {u.s: self._iota_nc(u.gens, u.indices)}), self._weight(u.gens)

    def iota_word(self, u: NormalWord) -> PElement:
        p, weight = self._scaled(u)
        f = p.parts[u.s]
        # divide value by value: scale(Fraction(1, 1)) would copy the ints out
        return p._new({u.s: f._new({k: Fraction(c, weight) for k, c in f.terms.items()})})

    def iota(self, x: ConfElement) -> PElement:
        out = PElement(self.alg)
        for u, c in x.terms.items():
            out = out + self.iota_word(u).scale(c)
        return out

    def hat_word(self, u: NormalWord) -> tuple[int, Word]:
        """Leading monomial of iota with its sign; D-free words only.

        The leading coefficient of iota(u) is the sign (-1)^(sum of indices)
        times 1/(e_0! e_1! ...), e_i the lengths of the hat word's v-runs; in
        the int-scaled image it is the sign times the integer
        W / (e_0! e_1! ...).  Only the sign is reported.
        """
        if u.s:
            raise ValueError("hat words are defined for D-free normal words")
        return (-1) ** sum(u.indices), self._hat(u)

    def _hat(self, u: NormalWord) -> Word:
        """The hat word of u's D-free part, with validate's error on a bad u."""
        n, index, V = self.alg.n, self.alg.index, self.alg.V
        hat: list[int] = []
        for name, m in zip(u.gens, (0,) + u.indices):  # the first letter faces no index
            run = n.get(name, 0) - 1 - m
            if m < 0 or run < 0:  # an unknown name, or m >= n(name)
                self.validate(u)
            hat += [V] * run
            hat.append(index[name])
        return tuple(hat)

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

        Each step divides by the leading coefficient of an int-scaled image
        and multiplies the quotient by that image's weight W.  An int slice
        divides exactly; a remainder raises RuntimeError, because only the
        realize pipeline makes int slices and its quotients are integers.
        Fraction slices use true division.  Every returned value is a
        Fraction.  Raises NotInSpan when some slice's lowest monomial is not
        a hat word.
        """
        out: dict[NormalWord, Fraction] = {}
        for d in sorted(p.parts):
            g = dict(p.parts[d].terms)  # eliminated in place
            done = (-1, ())  # deg-lex key of the last eliminated monomial
            while g:
                w = min(g, key=deglex_key)
                if deglex_key(w) <= done:
                    raise RuntimeError("reduction failed to make progress")
                hit = self.word_to_normal(w)
                if hit is None:
                    raise NotInSpan(w, self.alg.word_names(w))
                _, base = hit
                core = self._iota_nc(base.gens, base.indices).terms
                num, den = g[w], core[w]
                if num.__class__ is int:
                    coeff, rest = divmod(num, den)
                    if rest:
                        raise RuntimeError(f"inexact elimination: {num} / {den} at {w!r}")
                else:
                    coeff = num / den
                u = base if d == 0 else NormalWord(d, base.gens, base.indices)
                out[u] = exact(coeff * self._weight(base.gens))
                minus = -coeff
                for k, c in core.items():
                    accumulate(g, k, c * minus)
                done = deglex_key(w)
        return ConfElement._of(out)

    def cprods(
        self, x: ConfElement, y: ConfElement, ns: Iterable[int]
    ) -> dict[int, ConfElement]:
        """{n: x_(n) y} for each n in ns, through the realization engine.

        Each word pair costs one P8 pseudoproduct of the int-scaled images,
        built only as far as the requested n reach.  y's coaction stops at
        component max(ns): its D^(s) lands in slot 1, and an entry
        D^i (x) D^j reaches only n in [i, i + j].  The canonical form then
        splits each entry at the requested n alone, and those coefficients,
        scaled by W_u * W_w, are reduced.  Every output word v has
        W_v = W_u * W_w, so reduce's quotients are integers and the weight
        it multiplies back in is divided out with cu * cw.  locality_of
        keeps the full pseudoproduct.
        """
        acc: dict[int, dict[NormalWord, Fraction]] = {integral(n): {} for n in ns}
        if any(n < 0 for n in acc):
            raise ValueError("product index must be nonnegative")
        if not acc:
            return {}
        want = tuple(acc)
        top = max(want)
        cut = PseudoAlgebra(self.alg, lambda f: f.coact(top))
        ys = [(self._scaled(w), cw) for w, cw in y.terms.items()]
        for u, cu in x.terms.items():
            pu, wu = self._scaled(u)
            for (pw, ww), cw in ys:
                # looked up in pseudo at call time, where bench/spans.py wraps it
                canon = pseudo.canonicalize(cut.pprod(ProductKind.P8, pu, pw), want)
                c = cu * cw / (wu * ww)
                for n, out in acc.items():
                    try:
                        value = self.reduce(canon.coeff(n))
                    except NotInSpan as exc:  # would falsify the image-subalgebra claim
                        raise RuntimeError(f"internal reduction failure: {exc}") from exc
                    for v, cv in value.terms.items():
                        accumulate(out, v, cv * c)
        return {n: ConfElement._of(out) for n, out in acc.items()}

    def cprod(self, x: ConfElement, n: int, y: ConfElement) -> ConfElement:
        """n-th product through the realization engine."""
        return self.cprods(x, y, (n,))[n]

    def engine(self, name: str) -> tuple[Callable, Callable]:
        """The (cprod, cprods) methods of the named engine, looked up now."""
        try:
            methods = ENGINES[name]
        except (KeyError, TypeError):
            raise ValueError(f"unknown engine: {name!r}") from None
        return getattr(self, methods[0]), getattr(self, methods[1])

    # ---- rewriting engine ----------------------------------------------

    def cprods_rw(
        self, x: ConfElement, y: ConfElement, ns: Iterable[int]
    ) -> dict[int, ConfElement]:
        """{n: x_(n) y} for each n in ns, through the rewriting engine."""
        return {n: self.cprod_rw(x, n, y) for n in ns}

    def cprod_rw(self, x: ConfElement, n: int, y: ConfElement) -> ConfElement:
        """n-th product via axiom-level rewriting; no embedding involved."""
        n = integral(n)  # a cached key must not let 1.0 or True stand for 1
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
        if u.s:
            # (D^s x)_(n) y = (-1)^s n(n-1)...(n-s+1) x_(n-s) y
            if n < u.s:
                return ConfElement()
            coeff = (-1) ** u.s * math.factorial(n) // math.factorial(n - u.s)
            return self._rw_words(u.dfree(), n - u.s, w).scale(coeff)
        if w.s:
            # x_(n) D^s y = sum_j C(s, j) n!/(n-j)! D^(s-j) (x_(n-j) y)
            w0 = w.dfree()
            val = ConfElement()
            for j in range(min(w.s, n) + 1):
                inner = self._rw_words(u, n - j, w0)
                if inner:
                    coeff = math.comb(w.s, j) * math.perm(n, j)
                    val = val + inner.d_shift(w.s - j).scale(coeff)
            return val
        return self._rw_dfree(u.gens, u.indices, n, w.gens, w.indices)

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
        """Least N with x_(n) y = 0 for every n >= N; exact, not a bound.

        iota is injective and x_(n) y reduces from the n-th coefficient of
        iota(x) * iota(y), so N is one past the last nonzero coefficient.
        """
        if not x or not y:
            raise ValueError("locality is defined for nonzero elements")
        canon = self.pseudo.nproducts(ProductKind.P8, self.iota(x), self.iota(y))
        return 1 + canon.max_index()

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
        prod, prods = self.engine(engine)
        left = prod(prod(x, n, y), m, z)
        inners = prods(y, z, range(m, m + n + 1))
        right = ConfElement()
        for s in range(n + 1):
            inner = inners[m + s]
            if inner:
                right = right + prod(x, n - s, inner).scale((-1) ** s * math.comb(n, s))
        return left - right

    # ---- ordering and serialization -------------------------------------

    def sort_key(self, u: NormalWord):
        hat = self._hat(u)
        return (u.s, len(hat), hat)

    def sorted_terms(self, x: ConfElement) -> list[tuple[NormalWord, Fraction]]:
        return sorted(x.terms.items(), key=lambda item: self.sort_key(item[0]))

    def word_to_json(self, u: NormalWord) -> dict:
        return {"s": u.s, "gens": list(u.gens), "indices": list(u.indices)}

    def word_from_json(self, obj: Mapping) -> NormalWord:
        try:
            u = NormalWord(obj["s"], tuple(obj["gens"]), tuple(obj["indices"]))
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
        opens = "".join(f"({name} .{n} " for name, n in zip(u.gens, u.indices))
        core = opens + u.gens[-1] + ")" * len(u.indices)
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
