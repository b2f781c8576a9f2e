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
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Iterable, Iterator, Mapping

from .ncpoly import AlgebraConfig, ConfigError, NCPoly, Word, deglex_key
from .linear import Linear, _new_object, accumulate, exact, integral
from . import pseudo
from .pseudo import _COEFF_POOL, _index, PElement, ProductKind, PseudoAlgebra, as_rng, standard_coaction


class NotInSpan(Exception):
    """A realization element lies outside the span of normal-word images."""

    def __init__(self, witness: Word, names: tuple[str, ...] | None = None):
        self.witness = tuple(witness)
        self.names = names
        shown = " ".join(names) if names else repr(self.witness)
        super().__init__(f"monomial outside the normal-word span: {shown}")


@dataclass(frozen=True, slots=True)
class NormalWord:
    """D^s (a_1 .n_1 (a_2 .n_2 (... a_k .n_k a_{k+1} ...))).

    gens has one more entry than indices; index i must satisfy
    0 <= n_i < N(a_i, a_{i+1}) = n(a_{i+1}).  Every dict of the engines is
    keyed by words, so the hash of (s, gens, indices) is computed once, at
    construction; equality and repr read the three fields alone.
    """

    s: int
    gens: tuple[str, ...]
    indices: tuple[int, ...]
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "s", integral(self.s))
        object.__setattr__(self, "gens", tuple(self.gens))
        object.__setattr__(self, "indices", tuple(map(integral, self.indices)))
        if self.s < 0:
            raise ValueError("negative D-power")
        if len(self.gens) != len(self.indices) + 1:
            raise ValueError("need exactly one more generator than product indices")
        object.__setattr__(self, "_hash", hash((self.s, self.gens, self.indices)))

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        # a str hashes differently in each process, so a pickle carries the
        # fields alone and the constructor computes the hash again
        return NormalWord, (self.s, self.gens, self.indices)

    @staticmethod
    def _of(s: int, gens: tuple[str, ...], indices: tuple[int, ...]) -> "NormalWord":
        """Trusted constructor: s an int >= 0, indices a tuple of ints, and
        gens a tuple one longer; nothing is checked or converted."""
        word = _new_object(NormalWord)
        object.__setattr__(word, "s", s)
        object.__setattr__(word, "gens", gens)
        object.__setattr__(word, "indices", indices)
        object.__setattr__(word, "_hash", hash((s, gens, indices)))
        return word

    def dfree(self) -> "NormalWord":
        return self if self.s == 0 else NormalWord._of(0, self.gens, self.indices)


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
            raise ConfigError(
                'normal words need mode "conformal"; the commutative construction '
                "has no normal-word basis"
            )
        self.alg = config
        # per letter: its word v^(n-1) a, whose suffixes are the letter's hat
        # pieces (see _hat), and (n(a) - 1)!, a factor of W
        self._letters = {
            name: (_generator_word(config, name), math.factorial(n - 1))
            for name, n in config.n.items()
        }
        # the full coaction, for locality_of; _pair builds a cut one per call
        self.pseudo = PseudoAlgebra(config, standard_coaction)
        # (u, W, W * iota(u)) for each D-free word u met so far, generators
        # too, keyed by u's hat word: the monomial reduce eliminates, and a
        # bijection onto D-free normal words.  W = prod (n(a) - 1)! over u's
        # letters (see _iota_nc): a generator is the bare word v^(n-1) a, and
        # every coefficient is an int.  The rewriting engine makes none.
        self._iota_cache: dict[Word, tuple[NormalWord, int, NCPoly]] = {}
        # the words the rewriting engine's _pair has validated; a word that
        # fails validate is never added
        self._valid: set[NormalWord] = set()
        # _rw_dfree values, {D-free word: int}, by
        # (gens_u, indices_u, n, gens_w, indices_w); Fractions appear only
        # in cprod_rw.  _rw_interned holds each word those values name, by
        # (gens, indices), so that each is built and stored once.
        self._rw_cache: dict[tuple, dict[NormalWord, int]] = {}
        self._rw_interned: dict[tuple, NormalWord] = {}

    # ---- normal words -------------------------------------------------

    def validate(self, u: NormalWord) -> NormalWord:
        """u, once its letters and indices are known valid.

        Checks every letter, then every index: ConfigError names the first
        unknown letter, and ValueError the first index outside
        0 <= n_i < N(a_i, a_(i+1)).
        """
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

    def _iota_nc(self, u: NormalWord, hat: Word) -> tuple[NormalWord, int, NCPoly]:
        """(u0, W, W * iota(u0)) for u's D-free part u0 with hat word hat.

        W = prod (n(a) - 1)! over the letters.  u .n w has exactly the letters
        of u and w, so W is multiplicative over products and the scaling
        cancels in cprods.  A miss finds u's longest cached suffix, then
        folds right to left over the shorter ones, caching each under its own
        hat word: that of the suffix from letter g_k on is v^(n(g_k) - 1)
        followed by u's hat word from g_k's letter on.  The scaled image of
        g .m tail is (-1)^m v^(n(g)-1) g times the m-th v-derivative of the
        tail's, built by prefixing each monomial of the derivative with g's
        word; no two products collide, so nothing is collected.

        Those coefficients do not depend on g, so a sibling h .m tail already
        cached gives g .m tail's image without a derivative: the key of
        h .m tail is h's word followed by the rest of g .m tail's key, and
        swapping the leading word of each of its monomials yields g's.  Only
        the first fold step can hit: building any word caches every suffix,
        so a later step's tail, first built here, has no cached sibling.  The
        cache holds the same keys and images either way.
        """
        cache = self._iota_cache
        entry = cache.get(hat)
        if entry is not None:
            return entry
        gens, indices, V = u.gens, u.indices, self.alg.V
        starts = [pos for pos, code in enumerate(hat) if code != V]
        keys = [hat]  # of the suffixes not cached, longest first
        for k in range(1, len(gens)):
            key = (V,) * (self.alg.n[gens[k]] - 1) + hat[starts[k]:]
            entry = cache.get(key)
            if entry is not None:
                break
            keys.append(key)
        first = len(keys) - 1
        for k in range(first, -1, -1):
            prefix, weight = self._letters[gens[k]]
            if entry is None:  # the last letter
                image = {prefix: 1}
            else:
                image = None
                if k == first:
                    rest = hat[starts[k] + 1:]
                    for other, (piece, _) in self._letters.items():
                        hit = cache.get(piece + rest) if other != gens[k] else None
                        if hit is not None:
                            cut = len(piece)
                            image = {prefix + w[cut:]: c for w, c in hit[2].terms.items()}
                            break
                if image is None:
                    m = indices[k]
                    sign = (-1) ** m
                    image = {prefix + w: sign * c for w, c in entry[2].vderiv(m).terms.items()}
                weight *= entry[1]
            word = NormalWord._of(0, gens[k:], indices[k:]) if k else u.dfree()
            entry = cache[keys[k]] = (word, weight, NCPoly._of(self.alg, image))
        return entry

    def _scaled(self, u: NormalWord) -> tuple[PElement, int]:
        """(W * iota(u), W) with int coefficients; _hat validates u."""
        _, weight, image = self._iota_nc(u, self._hat(u))
        return PElement._of(self.alg, {u.s: image}), weight

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
        """The hat word of u's D-free part: one piece per letter, concatenated.

        A letter a facing index m (the first letter faces 0) adds the piece
        v^(n(a) - 1 - m) a: its generator word without the first m v's.  A
        letter unknown or facing an index out of range raises validate's
        error.  The pieces extend one list, so the cost is linear in the hat
        word.
        """
        letters = self._letters
        hat: list[int] = []
        for name, m in zip(u.gens, (0,) + u.indices):  # the first letter faces no index
            entry = letters.get(name)
            if entry is None or not 0 <= m < len(entry[0]):
                self.validate(u)
            hat += entry[0][m:]
        return tuple(hat)

    def word_to_normal(self, w: Word) -> tuple[int, NormalWord] | None:
        """Invert hat_word; None when w is not a hat word (see _parse_hat)."""
        u = self._parse_hat(w)
        return None if u is None else ((-1) ** sum(u.indices), u)

    def _parse_hat(self, w: Word) -> NormalWord | None:
        """The D-free word whose hat word is w; None when w is not a hat word.

        w is cut after each generator code: a slice of length L that ends in
        letter a is a's piece facing index n(a) - L.  None when an index is
        negative, the first letter faces an index other than 0, a v-run
        trails, or w is empty.
        """
        V, names_of, n = self.alg.V, self.alg.names, self.alg.n
        names: list[str] = []
        indices: list[int] = []
        start = 0
        for end, code in enumerate(w, 1):
            if code != V:
                name = names_of[code]
                m = n[name] - (end - start)
                if m < 0:
                    return None
                names.append(name)
                indices.append(m)
                start = end
        if start != len(w) or not names or indices[0] != 0:
            return None
        del indices[0]
        return NormalWord._of(0, tuple(names), tuple(indices))

    def reduce(self, p: PElement) -> ConfElement:
        """Express p in normal words, greedily eliminating lowest monomials.

        The lowest monomial of each step is looked up in the hat-keyed image
        cache; _parse_hat and the image build run only the first time a
        hat word is seen.  Each step divides by the leading coefficient of an
        int-scaled image and multiplies the quotient by that image's weight
        W.  An int slice divides exactly; a remainder raises RuntimeError,
        because only the realize pipeline makes int slices and its quotients
        are integers.  Fraction slices use true division.  Every returned
        value is a Fraction.  Raises NotInSpan when some slice's lowest
        monomial is not a hat word.
        """
        return ConfElement._of(self._eliminate(p, True))

    def _eliminate(self, p: PElement, weigh: bool) -> dict:
        """reduce's elimination: {word: quotient times W} with weigh, as
        Fractions, else {word: quotient} as ints.

        Without weigh, p must be a slice of the pseudoproduct of the scaled
        images of two words u and w.  Every word it reaches has the letters
        of u and w, so W = W_u * W_w, and the bare quotients are the
        coordinates of p / (W_u * W_w): integers, structure constants of the
        algebra.  A Fraction slice (a split at n >= 2 makes one) then
        divides exactly too, and a remainder raises RuntimeError.

        The result lists its words in sort_key order: the slices go by
        ascending D-power d, and within a slice each eliminated monomial,
        the hat word of the word it yields, is strictly above the last in
        deg-lex, as the done check enforces.

        Without weigh, every monomial of a slice part has one length, so its
        deg-lex minimum is its plain lexicographic minimum.  Proof: every
        monomial of an image has one length, because g .m tail's prefixes a
        fixed word to the m-th v-derivative of the tail's, and each
        v-derivative deletes one v.  Let L_u and L_w be the image lengths
        of u and w.  P8 coacts w alone, so the pseudoproduct's entry
        D^(u.s + s) (x) D^(w.s) holds products of length L_u + L_w - s, the
        coaction's component s deleting s v's.  Splitting at n sends that
        entry to D-power d = u.s + s + w.s - n only (decompose), so the
        slice's part d has the one length L_u + L_w + u.s + w.s - n - d.
        Each step subtracts an image whose hat word is a monomial of the
        part, so every term it adds has that length too.
        """
        cache = self._iota_cache
        out: dict[NormalWord, Fraction | int] = {}
        for d in sorted(p.parts):
            g = dict(p.parts[d].terms)  # eliminated in place
            get = g.get
            done = (-1, ())  # deg-lex key of the last eliminated monomial
            while g:
                if weigh:
                    key = min(map(deglex_key, g))
                    w = key[1]
                else:
                    w = min(g)
                    key = (len(w), w)
                if key <= done:
                    raise RuntimeError("reduction failed to make progress")
                hit = cache.get(w)
                if hit is None:
                    found = self._parse_hat(w)
                    if found is None:
                        raise NotInSpan(w, self.alg.word_names(w))
                    hit = self._iota_nc(found, w)
                base, weight, image = hit
                core = image.terms
                num, den = g[w], core[w]
                if num.__class__ is int or not weigh:
                    coeff, rest = divmod(num, den)  # an int quotient either way
                    if rest:
                        raise RuntimeError(f"inexact elimination: {num} / {den} at {w!r}")
                else:
                    coeff = num / den
                u = base if d == 0 else NormalWord._of(d, base.gens, base.indices)
                out[u] = exact(coeff * weight) if weigh else coeff
                # coeff and every c are nonzero, so a zero lands on a key of g
                for k, c in core.items():
                    value = get(k, 0) - c * coeff
                    if value:
                        g[k] = value
                    else:
                        del g[k]
                done = key
        return out

    def _pair(
        self, engine: str, words: Iterable[NormalWord], want: tuple[int, ...]
    ) -> Callable[[NormalWord, NormalWord], dict[int, dict[NormalWord, int]]]:
        """The named engine's per-pair core for words, its per-word work done.

        The result maps (u, w), both among words, to {n: u_(n) w as
        {word: int}} for each n in want.  Rewrite validates each word once
        per FreeConformal (_valid), and each pair is _rw_words.  Realize
        scales each word once and coacts it at most once, as far as
        component max(want), for all the pairs it is in.  Each pair is then one P8 pseudoproduct, split at the
        requested n alone, and each slice eliminated: the quotients are the
        coefficients, because the weights W_u * W_w cancel (see _eliminate).
        """
        if engine == "rewrite":
            valid = self._valid
            for u in words:
                if u not in valid:
                    valid.add(self.validate(u))
            return lambda u, w: {n: self._rw_words(u, n, w) for n in want}
        top = max(want)
        images = {u: self._scaled(u)[0] for u in words}
        built: dict[int, tuple[NCPoly, dict[int, NCPoly]]] = {}

        def coaction(f: NCPoly) -> dict[int, NCPoly]:
            # NCPoly is unhashable, so f is keyed by identity; the entry keeps
            # f alive, so no other object can take its id
            hit = built.get(id(f))
            if hit is None:
                hit = built[id(f)] = (f, f.coact(top))
            return hit[1]

        cut = PseudoAlgebra(self.alg, coaction)
        zero = PElement(self.alg)

        def pair(u: NormalWord, w: NormalWord) -> dict[int, dict[NormalWord, int]]:
            # looked up in pseudo at call time, where bench/spans.py wraps it
            canon = pseudo.canonicalize(cut.pprod(ProductKind.P8, images[u], images[w]), want)
            try:
                return {n: self._eliminate(canon.get(n, zero), False) for n in want}
            except NotInSpan as exc:  # would falsify the image-subalgebra claim
                raise RuntimeError(f"internal reduction failure: {exc}") from exc

        return pair

    def _products(
        self, engine: str, x: ConfElement, y: ConfElement, ns: Iterable[int]
    ) -> dict[int, ConfElement]:
        """{n: x_(n) y} for each n in ns, through the named engine.

        Each word pair's {word: int} from _pair is scaled by cu * cw, written
        over one common denominator, so the sums stay ints and each output
        term gets one Fraction.  For a single word pair each value keeps the
        order of the pair's dict.
        """
        want = _requested(ns)
        if not want:
            return {}
        pair = self._pair(engine, (*y.terms, *x.terms), want)
        den_x = math.lcm(*(c.denominator for c in x.terms.values()))
        den_y = math.lcm(*(c.denominator for c in y.terms.values()))
        acc: dict[int, dict[NormalWord, int]] = {n: {} for n in want}
        for u, cu in x.terms.items():
            su = cu.numerator * (den_x // cu.denominator)
            for w, cw in y.terms.items():
                scale = su * cw.numerator * (den_y // cw.denominator)
                for n, value in pair(u, w).items():
                    out = acc[n]
                    get = out.get
                    for v, k in value.items():
                        out[v] = get(v, 0) + k * scale
        den = den_x * den_y
        return {
            n: ConfElement._of({v: Fraction(k, den) for v, k in out.items() if k})
            for n, out in acc.items()
        }

    def cprods(
        self, x: ConfElement, y: ConfElement, ns: Iterable[int]
    ) -> dict[int, ConfElement]:
        """{n: x_(n) y} for each n in ns, through the realization engine.

        Each word pair costs one P8 pseudoproduct of the int-scaled images,
        built only as far as the requested n reach (_pair).  y's coaction
        stops at component max(ns): its D^(s) lands in slot 1, and an entry
        D^i (x) D^j reaches only n in [i, i + j].  Each word is scaled and
        coacted once per call, not once per pair.  The canonical form then
        splits each entry at the requested n alone, and those coefficients
        are eliminated.  locality_of keeps the full pseudoproduct.
        """
        return self._products("realize", x, y, ns)

    def cprod(self, x: ConfElement, n: int, y: ConfElement) -> ConfElement:
        """n-th product through the realization engine."""
        return self.cprods(x, y, (n,))[n]

    def table_rows(
        self, words: Iterable[NormalWord], ns: Iterable[int], engine: str
    ) -> Iterator[tuple[NormalWord, int, NormalWord, ConfElement]]:
        """Each cell (u, n, w, u_(n) w) of the table over words x ns x words.

        Cells come one at a time, u slowest and w fastest.  Every value
        lists its terms in sort_key order, by construction, not by a sort:
        see _eliminate, _rw_words and _rw_rule.  Under realize, each word is
        scaled once and coacted once per table, not once per cell (_pair),
        and each value term is an int until its one Fraction.  Under
        rewrite, each cell is one cprod_rw of two single words, the product
        that bench/spans.py counts as the rewrite engine's work.
        """
        self.engine(engine)  # an unknown name raises ValueError
        words = list(words)
        want = _requested(ns)
        if not want:
            return
        if engine == "realize":
            pair = self._pair(engine, words, want)
            cells = lambda u, w: {
                n: ConfElement._of({v: Fraction(k) for v, k in value.items()})
                for n, value in pair(u, w).items()
            }
        else:
            single = {w: ConfElement.single(w) for w in words}
            cells = lambda u, w: {n: self.cprod_rw(single[u], n, single[w]) for n in want}
        for u in words:
            block = [cells(u, w) for w in words]  # every n of a pair at once
            for n in want:
                for w, value in zip(words, block):
                    yield u, n, w, value[n]

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
        """{n: x_(n) y} for each n in ns, through the rewriting engine.

        Every coefficient the rules make is an int: binomials, falling
        factorials and signs.  Each word pair's {word: int} from _rw_words
        is scaled by cu * cw over a common denominator (_products), and
        every returned value is a Fraction.
        """
        return self._products("rewrite", x, y, ns)

    def cprod_rw(self, x: ConfElement, n: int, y: ConfElement) -> ConfElement:
        """n-th product via axiom-level rewriting; no embedding involved."""
        return self.cprods_rw(x, y, (n,))[n]

    def _rw_words(self, u: NormalWord, n: int, w: NormalWord) -> dict[NormalWord, int]:
        """u_(n) w as {word: int}, by the closed-form D rules over _rw_dfree.

        (D^s x)_(n) y = (-1)^s n!/(n-s)! x_(n-s) y, and
        x_(n) D^s y = sum_j C(s, j) n!/(n-j)! D^(s-j) (x_(n-j) y).
        The result may be a dict of _rw_cache: read it, never change it.
        It lists its words in sort_key order: a D-power on u only scales
        the inner value, j runs down so that the D-powers s - j go up, and
        each block is a _rw_dfree value, ordered as _rw_rule shows.
        """
        if u.s:
            if n < u.s:
                return {}
            coeff = (-1) ** u.s * math.perm(n, u.s)
            inner = self._rw_words(u.dfree(), n - u.s, w)
            return {v: c * coeff for v, c in inner.items()}
        if w.s:
            out: dict[NormalWord, int] = {}
            for j in range(min(w.s, n), -1, -1):
                coeff = math.comb(w.s, j) * math.perm(n, j)
                s = w.s - j  # each j has its own D-power, so no two terms meet
                for v, c in self._rw_dfree(u.gens, u.indices, n - j, w.gens, w.indices).items():
                    out[NormalWord._of(s, v.gens, v.indices) if s else v] = c * coeff
            return out
        return self._rw_dfree(u.gens, u.indices, n, w.gens, w.indices)

    def _rw_dfree(
        self,
        gu: tuple[str, ...],
        iu: tuple[int, ...],
        n: int,
        gw: tuple[str, ...],
        iw: tuple[int, ...],
    ) -> dict[NormalWord, int]:
        """u_(n) w for the D-free words u = (gu, iu) and w = (gw, iw).

        The value is {D-free word: int}, memoised in _rw_cache under
        (gu, iu, n, gw, iw); read it, never change it.  A miss is settled
        with an explicit stack, not one Python frame per generator: each key
        on it waits until the keys its rule reads (_rw_rule) are cached, and
        the words of the value are built once each, through _rw_interned.

        No key is pushed while it is pending, so none is settled twice.
        Every dep has one generator fewer (len(gu) + len(gw)) than its key:
        the left rule drops u's first letter, the right rule w's.  So a new
        dep is smaller than every key on the stack (the key it is a dep of,
        that key's pending ancestors and their siblings), and the deps of
        one key differ in n (n + s, or n1 + r).
        """
        cache = self._rw_cache
        root = (gu, iu, n, gw, iw)
        val = cache.get(root)
        if val is not None:
            return val
        stack = [[root, None]]  # [key, its rule's terms once expanded]
        while stack:
            entry = stack[-1]
            key, terms = entry
            if terms is None:
                val, terms = self._rw_rule(key)
                if terms is None:
                    cache[key] = val
                    stack.pop()
                    continue
                entry[1] = terms
                missing = [[dep, None] for _, _, _, dep in terms if dep not in cache]
                if missing:
                    stack += missing
                    continue
            stack.pop()
            # the terms' indices m differ, so no two built words meet and no
            # value is zero: a dict of nonzero ints, nothing to collect
            word = self._rw_word
            cache[key] = {
                word((a,) + v.gens, (m,) + v.indices): coeff * c
                for coeff, a, m, dep in terms
                for v, c in cache[dep].items()
            }
        return cache[root]

    def _rw_word(self, gens: tuple[str, ...], indices: tuple[int, ...]) -> NormalWord:
        """The one D-free NormalWord of the rewriting engine for (gens, indices)."""
        word = self._rw_interned.get((gens, indices))
        if word is None:
            word = self._rw_interned[gens, indices] = NormalWord._of(0, gens, indices)
        return word

    def _rw_rule(self, key: tuple) -> tuple[dict | None, list | None]:
        """One rewriting step for a _rw_dfree key (gu, iu, n, gw, iw).

        Either (value, None), when the step settles the key, or (None, terms):
        the value is then the sum over the terms (coeff, a, m, dep) of coeff
        times a_(m) applied to dep's value.  Every word of dep's value starts
        with a letter b whose pair bound N(a, b) exceeds m, so a_(m) only
        prefixes a .m to each word: the rules never leave normal words.

        Each value lists its words in sort_key order, by induction over the
        rules.  Every term of u_(n) w has u's and w's letters and the index
        sum of u and w plus n, so all words of one value have hat words of
        one length, and there deg-lex is plain lex.  All words of a dep value
        start with the same letter b, whose hat piece in a .m v is
        v^(n(b) - 1 - m) b, and v is the largest letter code.  The terms'
        m fall as the rules' s (or r) rise, so each term's v-run before b is
        longer than the last one's, and the blocks come in ascending order.
        Within a block, the hat words are one common prefix followed by the
        dep value's hat words with their first m letters, all v, dropped:
        the order of the dep value, which is sorted by induction.
        """
        gu, iu, n, gw, iw = key
        if len(gu) > 1:
            # (a1_(m1) u1)_(n) w = sum_s (-1)^s C(m1, s) a1_(m1-s) (u1_(n+s) w);
            # m1 - s <= m1 < N(a1, first letter of u1)
            a1, m1 = gu[0], iu[0]
            gu1, iu1 = gu[1:], iu[1:]
            return None, [
                ((-1) ** s * math.comb(m1, s), a1, m1 - s, (gu1, iu1, n + s, gw, iw))
                for s in range(m1 + 1)
            ]
        a = gu[0]
        bound = self.alg.N_of(a, gw[0])
        if n < bound:
            return {self._rw_word((a,) + gw, (n,) + iw): 1}, None
        if len(gw) == 1:
            return {}, None
        # a_(n) (b_(n1) w1) with n >= N(a, b): push the overflow into the pair
        # (a, b) by the composition rule, then reassociate:
        #   sum_{s >= s0} sum_{t <= n-s} C(n, s) (-1)^t C(n-s, t) a_(n-s-t) (b_(n1+s+t) w1)
        # with s0 = n - N(a, b) + 1 >= 1.  The terms with s + t = r share
        # a_(n-r) and b_(n1+r), and C(n, s) C(n-s, r-s) = C(n, r) C(r, s), so
        # they merge into C(n, r) sum_{s0 <= s <= r} (-1)^(r-s) C(r, s)
        # = C(n, r) (-1)^(r-s0) C(r-1, r-s0), never zero; n - r < N(a, b).
        s0 = n - bound + 1
        b, n1, gw1, iw1 = gw[0], iw[0], gw[1:], iw[1:]
        return None, [
            (math.comb(n, r) * (-1) ** (r - s0) * math.comb(r - 1, r - s0), a, n - r,
             ((b,), (), n1 + r, gw1, iw1))
            for r in range(s0, n + 1)
        ]

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
        return 1 + max(canon, default=-1)

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
            gens, indices = obj["gens"], obj["indices"]
            # tuple() would read a string as its letters and a dict as its keys
            if not (isinstance(gens, list) and isinstance(indices, list)):
                raise TypeError("gens and indices must be JSON arrays")
            u = NormalWord(obj["s"], tuple(gens), tuple(indices))
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"bad normal-word object: {obj!r}") from exc
        return self.validate(u)

    def element_to_json(self, x: ConfElement) -> list[dict]:
        return [
            {"coeff": str(c), "word": self.word_to_json(u)}
            for u, c in self.sorted_terms(x)
        ]

    def word_to_json_text(self, u: NormalWord) -> str:
        """The CLI's dump_json of word_to_json(u), for a valid word u."""
        gens = '","'.join(u.gens)
        indices = ",".join(map(str, u.indices))
        return f'{{"gens":["{gens}"],"indices":[{indices}],"s":{u.s}}}'

    def element_to_json_text(self, x: ConfElement) -> str:
        """The CLI's dump_json of element_to_json(x), assembled from strings.

        Sort, then join.  sorted_terms validates every word, so each name is
        a config name: an ASCII identifier, with nothing to escape.  The
        table joins table_rows values unsorted, without that validation;
        the engines build those words from config names, so the same holds.
        """
        return self._terms_to_json_text(self.sorted_terms(x))

    def _terms_to_json_text(self, terms: Iterable[tuple[NormalWord, Fraction]]) -> str:
        """element_to_json_text's join, over terms already in sort_key order."""
        text = self.word_to_json_text
        return "[" + ",".join(f'{{"coeff":"{c}","word":{text(u)}}}' for u, c in terms) + "]"

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


def _requested(ns: Iterable[int]) -> tuple[int, ...]:
    """The distinct product indices of ns, in order.

    Each goes through _index: a cached key must not let 1.0 or True stand
    for 1.
    """
    return tuple({_index(n): None for n in ns})


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
