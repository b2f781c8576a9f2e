"""Free associative conformal algebras on a finite alphabet.

Two independent engines compute the same products.  The realization engine
embeds normal words into H (x) F(B) through iota and reduces results back
against the triangular system of hat words.  The rewriting engine works
directly from the axioms: it moves D across products, splits off leading
letters, and resolves out-of-range indices by the composition rule.  Their
agreement on random inputs (drawn by confalg.checks) is one of the
package's standing checks.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections.abc import Callable, Iterable, Iterator
from fractions import Fraction

from .ncpoly import AlgebraConfig, ConfigError, NCPoly, Word
from .linear import Linear, _new_object, integral
from . import pseudo
from .pseudo import _index, PElement, ProductKind, PseudoAlgebra

_set = object.__setattr__  # fills a NormalWord's slots past its __setattr__


class NotInSpan(Exception):
    """A realization element lies outside the span of normal-word images."""

    def __init__(self, witness: Word, names: tuple[str, ...]):
        self.witness = tuple(witness)
        self.names = names
        # the empty word prints as NCPoly's repr spells it
        super().__init__(f"monomial outside the normal-word span: {' '.join(names) or '1'}")


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


def _generator_word(alg: AlgebraConfig, name: str) -> Word:
    return alg.word(("v",) * (alg.n_of(name) - 1) + (name,))


def _prefixed(piece: Word, f: NCPoly) -> NCPoly:  # no two monomials collide
    return f._new({piece + w: c for w, c in f.terms.items()})


# Fraction(k) for an int k, one shared object per value: a Fraction is
# immutable, and a table has few distinct values among many terms.
_fraction = functools.lru_cache(maxsize=1024)(Fraction)


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
        # per letter: its word P_a = v^(n-1) a, whose suffixes are the
        # letter's hat pieces (see _hat), and (n(a) - 1)!, a factor of W (see
        # _weight)
        self._letters = {
            name: (_generator_word(config, name), math.factorial(n - 1))
            for name, n in config.n.items()
        }
        # The scaled image of a .m r is P_a times T(m, r) = (-1)^m times the
        # m-th v-derivative of W_r * iota(r), which does not depend on a.
        # One entry per (m, r) met so far, (m, the D-free word r, T(m, r),
        # the words a .m r by letter code, each built when first needed, see
        # _word), keyed by T's lex-least monomial: r's hat word without its
        # first m v's, which is u's hat word without P_a.  For m = 0 that is
        # r's hat word, so the entry of T(0, r) is also r's own scaled image,
        # which reduce reads (see _eliminate).  The key () holds the empty
        # tail, r = None and T = 1, so a generator's image is P_a.
        # W = prod (n(a) - 1)! over the letters is computed (_weight), not
        # stored, and every coefficient is an int.  The rewriting engine
        # makes none.
        self._iota_cache: dict[Word, tuple] = {
            (): (0, None, NCPoly._of(config, {(): 1}),
                 [NormalWord._of(0, (name,), ()) for name in config.names])
        }
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
            if n < 0 or n >= self.alg.n_of(u.gens[i + 1]):
                raise ValueError(
                    f"index {n} out of range for the pair "
                    f"({u.gens[i]}, {u.gens[i + 1]})"
                )
        return u

    def generator(self, name: str) -> ConfElement:
        self.alg.n_of(name)
        return ConfElement({NormalWord(0, (name,), ()): 1})

    # ---- realization engine -------------------------------------------

    def _iota_nc(self, gens: tuple[str, ...], indices: tuple[int, ...], key: Word) -> tuple:
        """The cache entry of T(m, r), for the tail r with letters gens,
        m = indices[0] and r's indices indices[1:]; key is T's lex-least
        monomial, the concatenation of the letters' pieces (see _hat), the
        first letter's facing m.  gens = () with key = () is the empty tail.

        W = prod (n(a) - 1)! over the letters (_weight).  u .n w has exactly
        the letters of u and w, so W is multiplicative over products and the
        scaling cancels in cprods.  T(0, b .m' r') is P_b times T(m', r'),
        built by prefixing each monomial with P_b: no two products collide,
        so nothing is collected.  T(m, r) for m > 0 is (-1)^m times the m-th
        v-derivative of T(0, r).  A miss walks right over these entries until
        one is cached: at the latest the empty tail's, T(0, b) being P_b.  It
        then folds back left and caches each entry it builds, T(0, r_j)
        under r_j's hat word and T(m, r_j) under that word without its first
        m v's.  Neither depends on the letter in front of r_j, so every first
        letter shares them, and no entry holds a prefixed copy.
        """
        cache = self._iota_cache
        entry = cache.get(key)
        if entry is not None:
            return entry
        letters, alg = self._letters, self.alg
        # level j is T(indices[j], gens[j:]), keyed own = key[start:]; the
        # walk stops at a cached T(0, gens[j:]) (derive) or a cached level j + 1
        levels: list[tuple[str, int, Word, Word]] = []  # not cached, outermost first
        start = 0
        derive = False
        for name, m in zip(gens, indices):
            end = start + alg.n[name] - m  # where the next letter's piece starts
            own = key[start:]
            hat = letters[name][0] + key[end:] if m else own  # T(0, gens[j:])'s key
            levels.append((name, m, own, hat))
            if m:
                entry = cache.get(hat)
                if entry is not None:
                    derive = True
                    break
            entry = cache.get(key[end:])
            if entry is not None:
                break
            start = end
        slots = len(alg.names)
        for name, m, own, hat in reversed(levels):
            if not derive:
                image = _prefixed(letters[name][0], entry[2])
                r = self._word(entry, alg.index[name])
                entry = cache[hat] = (0, r, image, [None] * slots)
            derive = False
            if m:
                image = entry[2].vderiv(m)
                if m & 1:
                    image = image._new({w: -c for w, c in image.terms.items()})
                entry = cache[own] = (m, entry[1], image, [None] * slots)
        return entry

    def _word(self, entry: tuple, code: int) -> NormalWord:
        """The word a .m r of the cache entry of T(m, r), for the letter a
        with code code; built once, and shared as the r of T(0, a .m r)."""
        word = entry[3][code]
        if word is None:
            m, r = entry[0], entry[1]
            word = NormalWord._of(0, (self.alg.names[code],) + r.gens, (m,) + r.indices)
            entry[3][code] = word
        return word

    def _tail(self, u: NormalWord) -> tuple[Word, Word, NCPoly]:
        """(P_a, key, T(m, r)) for u = a .m r, and (P_a, (), 1) for u = a: T
        the cache entry's own polynomial and key its key, u's hat word
        without P_a (see _iota_nc); _hat validates u."""
        piece = self._letters[u.gens[0]][0]
        key = self._hat(u)[len(piece):]
        return piece, key, self._iota_nc(u.gens[1:], u.indices, key)[2]

    def _scaled(self, u: NormalWord) -> PElement:
        """W * iota(u), with int coefficients: P_a times T (see _tail)."""
        piece, _, tail = self._tail(u)
        return PElement._of(self.alg, {u.s: _prefixed(piece, tail)})

    def _weight(self, u: NormalWord) -> int:
        """W = prod (n(a) - 1)! over u's letters, for a valid word u."""
        return math.prod(self._letters[name][1] for name in u.gens)

    def iota_word(self, u: NormalWord) -> PElement:
        p, weight = self._scaled(u), self._weight(u)
        f = p.parts[u.s]
        # divide value by value: scale(Fraction(1, 1)) would copy the ints out
        return p._new({u.s: f._new({k: Fraction(c, weight) for k, c in f.terms.items()})})

    def iota(self, x: ConfElement) -> PElement:
        out = PElement(self.alg)
        for u, c in x.terms.items():
            out = out + self.iota_word(u).scale(c)
        return out

    def _hat(self, u: NormalWord) -> Word:
        """The hat word of u's D-free part: one piece per letter, concatenated.

        For D-free u it is the deg-lex-least monomial of iota(u), and its
        coefficient has the sign (-1)^(sum of indices).

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
        """Invert _hat, sign included; None when w is no hat word (see _parse_hat)."""
        found = self._parse_hat(w)
        if found is None or found[1][0]:
            return None
        names, indices = found
        return (-1) ** sum(indices), NormalWord._of(0, names, indices[1:])

    def _parse_hat(self, w: Word) -> tuple[tuple[str, ...], tuple[int, ...]] | None:
        """(letters, indices) of the pieces that make up w, or None.

        w is cut after each generator code: a slice of length L that ends in
        letter a is a's piece facing index n(a) - L.  indices has one entry
        per letter, the first letter's included: 0 when w is a hat word, and
        m when w is the key of T(m, r) (see _iota_nc).  None when an index
        is negative, a v-run trails, or w is empty.
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
        if start != len(w) or not names:
            return None
        return tuple(names), tuple(indices)

    def reduce(self, p: PElement) -> ConfElement:
        """Express p in normal words, greedily eliminating lowest monomials.

        _eliminate runs on whole monomials, behind the empty piece: each
        entry it names is T(0, u), u's own scaled image, for the D-free word
        u = entry[1].  The quotient at D-power d times u's W (_weight) is
        D^d u's coefficient, a Fraction; an int slice must divide exactly.
        Raises NotInSpan naming a part's lex-least monomial left that is no
        hat word: in a part of several lengths, not always the shortest one.
        """
        out = {}
        for d, entry, q in self._eliminate(p, ()):
            u = entry[1]
            out[NormalWord._of(d, u.gens, u.indices) if d else u] = Fraction(q * self._weight(u))
        return ConfElement._of(out)

    def _eliminate(self, p: PElement, piece: Word) -> list:
        """The quotients of p against the int-scaled images behind piece,
        [(d, entry, quotient)]: each step takes a part's lex-least monomial
        w, a cache key (see _iota_nc), and subtracts the image of its entry,
        eliminated at D-power d, times the quotient of their coefficients at
        w.

        _pair passes u's leading piece P_a with a slice that lacks it: an
        entry is a T(m, r), which names no first letter, so every u with the
        same D-power and tail shares the result, and the caller turns it
        into words for u's letter (_words).  reduce passes the empty piece
        and whole monomials: a hat word is the key of T(0, u), u's own
        image.  There a cached entry counts only as such an image, m = 0
        and r not None.  The keys of T(m > 0, r) and of the empty tail, (),
        are no hat words: _parse_hat reads a first index m > 0 or None from
        them, as from any other such monomial.  NotInSpan names w, piece
        included.

        Proof that this works for any input.  An image's monomials have one
        length: a .m r's is P_a times T(m, r) (see _iota_nc), each
        v-derivative deleting one v.  Its hat word is its deg-lex-least
        monomial (see _hat), so its lex-least, and dropping P_a from
        every monomial keeps their lex order.  So a step touches only
        monomials of w's length, each lex-above w: parts of different
        lengths never interact, and the removed monomials strictly rise in
        lex order.  So the first monomial that no entry eliminates is the
        lex-least one left, and no later step can remove it.  The done check
        enforces the rise; its start, None, lets the empty word reach
        _parse_hat.

        An int slice divides with divmod, a remainder raising RuntimeError; a
        Fraction slice uses true division.  _pair's slice, of u's tail T
        times w's scaled image, is int-valued, as pprod divides each
        coaction component s by s! exactly; P8 coacts w alone, so P_a times
        it is the scaled images' slice.  Its words have the letters of u and
        w, so W = W_u * W_w, and the quotients are the coordinates of p /
        (W_u * W_w): integers, structure constants of the algebra.

        The result lists its quotients by ascending D-power d, then ascending
        hat word in lex, which is sort_key order when each part has one
        length, as a pair slice's has.  Proof: let L_u and L_w be the
        monomial lengths of T and of w's image.  The pseudoproduct's entry
        D^(u.s + s) (x) D^(w.s) holds products of length L_u + L_w - s, the
        coaction's component s deleting s v's.  Splitting at n sends that
        entry to D-power d = u.s + s + w.s - n only (decompose), so the
        slice's part d has the one length L_u + L_w + u.s + w.s - n - d.
        """
        cache = self._iota_cache
        quotients: list[tuple[int, tuple, Fraction | int]] = []
        for d in sorted(p.parts):
            g = dict(p.parts[d].terms)  # eliminated in place
            get = g.get
            done = None  # the last eliminated monomial
            while g:
                w = min(g)
                if done is not None and w <= done:
                    raise RuntimeError("reduction failed to make progress")
                hit = cache.get(w)
                if hit is None or not piece and (hit[0] or hit[1] is None):
                    found = self._parse_hat(w)
                    if found is None or not piece and found[1][0]:
                        raise NotInSpan(piece + w, self.alg.word_names(piece + w))
                    hit = self._iota_nc(*found, w)
                core = hit[2].terms
                num, den = g[w], core[w]
                if num.__class__ is int:
                    coeff, rest = divmod(num, den)
                    if rest:
                        raise RuntimeError(
                            f"inexact elimination: {num} / {den} at {piece + w!r}"
                        )
                else:
                    coeff = num / den
                quotients.append((d, hit, coeff))
                # coeff and every c are nonzero, so a zero lands on a key of g
                for k, c in core.items():
                    value = get(k, 0) - c * coeff
                    if value:
                        g[k] = value
                    else:
                        del g[k]
                done = w
        return quotients

    def _words(self, quotients: list, code: int) -> Iterator[tuple[NormalWord, Fraction | int]]:
        """(word, quotient) for each (d, entry, quotient) of a pair slice's
        _eliminate: the word a .m r of the entry T(m, r) for the letter a
        with code code (_word), D^d."""
        word = self._word
        for d, entry, q in quotients:
            u = word(entry, code)
            yield (NormalWord._of(d, u.gens, u.indices) if d else u), q

    def _pair(
        self, engine: str, words: Iterable[NormalWord], want: tuple[int, ...]
    ) -> Callable[[NormalWord, NormalWord], dict[int, dict | list]]:
        """The named engine's per-pair core for words, its per-word work done.

        The result maps (u, w), both among words, to {n: u_(n) w} for each
        n in want.  Rewrite validates each word once per FreeConformal
        (_valid), and each pair is _rw_words, {word: int}.  Realize takes
        each word's P_a and T once (_tail), and scales and coacts its image
        at most once, as far as component max(want), for all the pairs it
        is in.  Each pair is then one P8 pseudoproduct of u's T and w's
        image, split at the requested n alone, and each slice eliminated
        behind u's P_a: the quotients are the coefficients, because the
        weights W_u * W_w cancel (see _eliminate).  A realize value is
        _eliminate's letter-free [(d, entry, int)], the same for every u
        with u's D-power and tail; the caller makes its words for u's first
        letter (_words).
        """
        if engine == "rewrite":
            valid = self._valid
            for u in words:
                if u not in valid:
                    valid.add(self.validate(u))
            return lambda u, w: {n: self._rw_words(u, n, w) for n in want}
        top = max(want)
        alg = self.alg
        tails = {u: self._tail(u) for u in words}
        lefts = {u: (piece, PElement._of(alg, {u.s: t})) for u, (piece, _, t) in tails.items()}
        images = {
            u: PElement._of(alg, {u.s: _prefixed(piece, t)}) for u, (piece, _, t) in tails.items()
        }
        built: dict[int, tuple[NCPoly, dict[int, NCPoly]]] = {}

        def coaction(f: NCPoly) -> dict[int, NCPoly]:
            # NCPoly is unhashable, so f is keyed by identity; the entry keeps
            # f alive, so no other object can take its id
            hit = built.get(id(f))
            if hit is None:
                hit = built[id(f)] = (f, f.coact(top))
            return hit[1]

        cut = PseudoAlgebra(alg, coaction)
        zero = PElement(alg)

        def pair(u: NormalWord, w: NormalWord) -> dict[int, list]:
            piece, tail = lefts[u]  # P8 coacts w alone: P_a can wait
            # looked up in pseudo at call time, where bench/spans.py wraps it
            canon = pseudo.canonicalize(cut.pprod(ProductKind.P8, tail, images[w]), want)
            try:
                return {n: self._eliminate(canon.get(n, zero), piece) for n in want}
            except NotInSpan as exc:  # would falsify the image-subalgebra claim
                raise RuntimeError(f"internal reduction failure: {exc}") from exc

        return pair

    def _products(
        self, engine: str, x: ConfElement, y: ConfElement, ns: Iterable[int]
    ) -> dict[int, ConfElement]:
        """{n: x_(n) y} for each n in ns, through the named engine.

        Each word pair's ints from _pair, under realize made words for u's
        first letter (_words), are scaled by cu * cw, written over one
        common denominator, so the sums stay ints.  Each output term then
        gets a Fraction, over a denominator of 1 the shared one of its
        value (_fraction).  For a single word pair each value keeps the
        order of the pair's terms.
        """
        want = _requested(ns)
        if not want:
            return {}
        pair = self._pair(engine, (*y.terms, *x.terms), want)
        realize, index = engine == "realize", self.alg.index
        den_x = math.lcm(*(c.denominator for c in x.terms.values()))
        den_y = math.lcm(*(c.denominator for c in y.terms.values()))
        acc: dict[int, dict[NormalWord, int]] = {n: {} for n in want}
        for u, cu in x.terms.items():
            su = cu.numerator * (den_x // cu.denominator)
            code = index[u.gens[0]]
            for w, cw in y.terms.items():
                scale = su * cw.numerator * (den_y // cw.denominator)
                for n, value in pair(u, w).items():
                    out = acc[n]
                    get = out.get
                    for v, k in self._words(value, code) if realize else value.items():
                        out[v] = get(v, 0) + k * scale
        den = den_x * den_y
        return {
            n: ConfElement._of(
                {v: _fraction(k) if den == 1 else Fraction(k, den) for v, k in out.items() if k}
            )
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
        scaled once and coacted once per table, not once per cell (_pair).
        u = a .m r has the image P_a T(m, r), and the quotients of u_(n) w
        do not depend on a: the row's block of every n and w is computed
        once per (u.s, tail key), shared by every first letter and dropped
        after the last row that reads it.  Each row makes its words for its
        own letter (_words), and each value term is an int until it takes
        the shared Fraction of its value (_fraction).  Under rewrite, each
        cell is one cprod_rw of two single words, the product that
        bench/spans.py counts as the rewrite engine's work.
        """
        self.engine(engine)  # an unknown name raises ValueError
        words = list(words)
        want = _requested(ns)
        if not want:
            return
        if engine == "realize":
            pair = self._pair(engine, words, want)
            keys = [(u.s, self._tail(u)[1]) for u in words]
            last = {key: row for row, key in enumerate(keys)}
            blocks: dict[tuple, list] = {}  # by key, until its last row
            index, to_words = self.alg.index, self._words
            for row, (u, key) in enumerate(zip(words, keys)):
                block = blocks.pop(key, None) or [pair(u, w) for w in words]
                if last[key] > row:
                    blocks[key] = block
                code = index[u.gens[0]]
                for n in want:
                    for w, value in zip(words, block):
                        yield u, n, w, ConfElement._of(
                            {v: _fraction(k) for v, k in to_words(value[n], code)}
                        )
            return
        single = {w: ConfElement({w: 1}) for w in words}
        for u in words:
            block = [  # every n of a pair at once
                {n: self.cprod_rw(single[u], n, single[w]) for n in want} for w in words
            ]
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
        bound = self.alg.n_of(gw[0])
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
        return len(self.alg.names) * sum(self.alg.n.values()) ** k

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
        That coefficient is read off the canonical form of the uncut P8
        pseudoproduct under the full coaction, not from the eliminated
        products, so that the locality check does not rest on elimination.
        """
        if not x or not y:
            raise ValueError("locality is defined for nonzero elements")
        canon = PseudoAlgebra(self.alg).nproducts(ProductKind.P8, self.iota(x), self.iota(y))
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

    def element_to_json(self, x: ConfElement) -> list[dict]:
        return [
            {"coeff": str(c), "word": self.word_to_json(u)}
            for u, c in self.sorted_terms(x)
        ]

    def word_to_json_text(self, u: NormalWord) -> str:
        """The CLI's dump_json of word_to_json(u), for a valid word u.

        The text is built once per word object and kept in its _text slot,
        so a table renders each distinct word once, on whichever side.
        """
        text = u._text
        if text is None:
            gens = '","'.join(u.gens)
            indices = ",".join(map(str, u.indices))
            text = f'{{"gens":["{gens}"],"indices":[{indices}],"s":{u.s}}}'
            _set(u, "_text", text)
        return text

    def _terms_to_json_text(self, terms: Iterable[tuple[NormalWord, Fraction]]) -> str:
        """The CLI's dump_json of element_to_json, joined from terms already in
        sort_key order (table cells; see table_rows).  The engines build
        words from config names, ASCII identifiers with nothing to escape."""
        text = self.word_to_json_text
        return "[" + ",".join(f'{{"coeff":"{c}","word":{text(u)}}}' for u, c in terms) + "]"

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
