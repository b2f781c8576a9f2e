"""Free associative conformal algebras on a finite alphabet.

Two independent engines compute the same products.  The realization engine,
here, embeds normal words into H (x) F(B) through iota and reduces results
back against the triangular system of hat words.  The rewriting engine
(rewrite.Rewriter) works directly from the axioms.  They share only the
word algebra (words).  Their agreement on random inputs (drawn by
confalg.checks) is one of the package's standing checks.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections.abc import Callable, Iterable, Iterator
from fractions import Fraction

from .ncpoly import AlgebraConfig, ConfigError, NCPoly, Word
from . import pseudo
from .pseudo import _index, PElement, ProductKind, PseudoAlgebra
from .rewrite import Rewriter
from .words import ConfElement, NormalWord, _set


class NotInSpan(Exception):
    """A realization element lies outside the span of normal-word images."""

    def __init__(self, witness: Word, names: tuple[str, ...]):
        self.witness = witness
        self.names = names
        # the empty word prints as NCPoly's repr spells it
        super().__init__(f"monomial outside the normal-word span: {' '.join(names) or '1'}")


def _prefixed(piece: Word, f: NCPoly) -> NCPoly:  # no two monomials collide
    return f._new({piece + w: c for w, c in f.terms.items()})


# Fraction(k) for an int k, one shared object per value: a Fraction is
# immutable, and a table has few distinct values among many terms.
_fraction = functools.lru_cache(maxsize=1024)(Fraction)

# (n - 1)! for a locality n, a factor of W (see FreeConformal._weight)
_factorial = functools.lru_cache(maxsize=256)(math.factorial)


def _one_pair(terms: Iterable[tuple[NormalWord, int]], cu: Fraction, cw: Fraction) -> ConfElement:
    """The element cu * cw * value, for the (word, int) terms of one pair value.

    Neither engine repeats a word or yields a zero within one pair value
    (see _rw_dfree and _eliminate), so there is nothing to sum: each term is
    scaled by the int numerator and denominator of cu * cw as it comes, and
    keeps its place.
    """
    num = cu.numerator * cw.numerator
    den = cu.denominator * cw.denominator
    if den == 1:
        return ConfElement._of({v: _fraction(k * num) for v, k in terms})
    return ConfElement._of({v: Fraction(k * num, den) for v, k in terms})


def generator_image(alg: AlgebraConfig, name: str) -> NCPoly:
    """Image of a generator in F(B): the word v^(n-1) a scaled by 1/(n-1)!.

    FreeConformal computes with this image times (n-1)!, the bare word with
    coefficient 1, and divides by (n-1)! again at its API boundary.
    """
    n = alg.n_of(name)
    # alg.word sorts the letters of a pseudo-commutative config
    return NCPoly(alg, {alg.word(("v",) * (n - 1) + (name,)): Fraction(1, math.factorial(n - 1))})


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
        # Nothing is kept per letter: a letter's pieces (_hat) and its
        # factor of W (_weight) follow from its locality.
        # The scaled image of a .m r is P_a times T(m, r) = (-1)^m times the
        # m-th v-derivative of W_r * iota(r), which does not depend on a.
        # One entry per (m, r) met so far, (m, the D-free word r, T(m, r),
        # the words a .m r by letter code, each built when first needed, see
        # _word), keyed by T's lex-least monomial: r's hat word without its
        # first m v's, which is u's hat word without P_a.  For m = 0 that is
        # r's hat word, so the entry of T(0, r) is also r's own scaled image,
        # which reduce reads (see _eliminate).  The key "" holds the empty
        # tail, r = None and T = 1, so a generator's image is P_a; its words
        # are the generators, built as any other entry's (_word).
        # W = prod (n(a) - 1)! over the letters is computed (_weight), not
        # stored, and every coefficient is an int.  The rewriting engine
        # makes none.
        self._iota_cache: dict[Word, tuple] = {
            "": (0, None, NCPoly._of(config, {"": 1}), [None] * len(config.names))
        }
        # each word and tuple the cache keeps, as its one object per value:
        # keys, image monomials and the words' gens and indices (see _iota_nc)
        self._shared: dict[Word | tuple, Word | tuple] = {}
        self._rewriter = Rewriter(self)

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
        first letter's facing m.  gens = () with key = "" is the empty tail.

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
        letter shares them, and no entry holds a prefixed copy.  Every key
        and image monomial it stores goes through _shared, so equal words
        are one object: a monomial of one image is often another's key.
        """
        cache = self._iota_cache
        entry = cache.get(key)
        if entry is not None:
            return entry
        alg = self.alg
        # level j is T(indices[j], gens[j:]), keyed own = key[start:]; the
        # walk stops at a cached T(0, gens[j:]) (derive) or a cached level j + 1
        levels: list[tuple[str, int, Word, Word]] = []  # not cached, outermost first
        start = 0
        derive = False
        for name, m in zip(gens, indices):
            end = start + alg.n[name] - m  # where the next letter's piece starts
            own = key[start:]
            hat = alg.v * m + own  # T(0, gens[j:])'s key: own with its m v's put back
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
        share = self._shared.setdefault
        while levels:  # innermost first; a level's slices go once its entry is built
            name, m, own, hat = levels.pop()
            if not derive:
                piece, tail = hat[: alg.n[name]], entry[2]  # P_b, from b's locality
                image = tail._new({share(w := piece + t, w): c for t, c in tail.terms.items()})
                r = self._word(entry, alg.index[name])
                entry = cache[share(hat, hat)] = (0, r, image, [None] * slots)
            derive = False
            if m:
                image = entry[2].vderiv(m)
                odd = m & 1
                image = image._new({share(w, w): -c if odd else c for w, c in image.terms.items()})
                entry = cache[share(own, own)] = (m, entry[1], image, [None] * slots)
        return entry

    def _word(self, entry: tuple, code: int) -> NormalWord:
        """The word a .m r of the cache entry of T(m, r), or a of the empty
        tail's, for the letter a with code code; built once, and shared as
        the r of T(0, a .m r).  Its gens and indices go through _shared."""
        word = entry[3][code]
        if word is None:
            m, r = entry[0], entry[1]
            share = self._shared.setdefault
            head = (self.alg.names[code],)
            gens, indices = (head, ()) if r is None else (head + r.gens, (m,) + r.indices)
            word = NormalWord._of(0, share(gens, gens), share(indices, indices))
            entry[3][code] = word
        return word

    def _tail(self, u: NormalWord) -> tuple[Word, Word, NCPoly]:
        """(P_a, key, T(m, r)) for u = a .m r, and (P_a, "", 1) for u = a: T
        the cache entry's own polynomial and key its key, u's hat word
        without P_a, its first n(a) letters (see _iota_nc); _hat validates u."""
        hat, cut = self._hat(u), self.alg.n[u.gens[0]]
        piece, key = hat[:cut], hat[cut:]
        return piece, key, self._iota_nc(u.gens[1:], u.indices, key)[2]

    def _scaled(self, u: NormalWord) -> PElement:
        """W * iota(u), with int coefficients: P_a times T (see _tail)."""
        piece, _, tail = self._tail(u)
        return PElement._of(self.alg, {u.s: _prefixed(piece, tail)})

    def _weight(self, u: NormalWord) -> int:
        """W = prod (n(a) - 1)! over u's letters, for a valid word u (_factorial)."""
        return math.prod(_factorial(self.alg.n[name] - 1) for name in u.gens)

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
        v^(n(a) - 1 - m) a, built from n(a) and a's code.  A letter unknown
        or facing an index out of range raises validate's error.  The pieces
        are joined once, so the cost is linear in the hat word.
        """
        n, index, v = self.alg.n, self.alg.index, self.alg.v
        pieces: list[Word] = []
        for name, m in zip(u.gens, (0,) + u.indices):  # the first letter faces no index
            bound = n.get(name)
            if bound is None or not 0 <= m < bound:
                self.validate(u)
            pieces.append(chr(index[name]).rjust(bound - m, v))  # v-run, then a
        return "".join(pieces)

    def word_to_normal(self, w: Word) -> tuple[int, NormalWord] | None:
        """Invert _hat, sign included; None when w is no hat word (see _parse_hat)."""
        found = self._parse_hat(w)
        if found is None or found[1][0]:
            return None
        names, indices = found
        return (-1) ** sum(indices), NormalWord._of(0, names, indices[1:])

    def _parse_hat(self, w: Word) -> tuple[tuple[str, ...], tuple[int, ...]] | None:
        """(letters, indices) of the pieces that make up w, or None.

        w is cut after each generator letter: a slice of length L that ends in
        letter a is a's piece facing index n(a) - L.  indices has one entry
        per letter, the first letter's included: 0 when w is a hat word, and
        m when w is the key of T(m, r) (see _iota_nc).  None when an index
        is negative, a v-run trails, or w is empty.
        """
        v, names_of, n = self.alg.v, self.alg.names, self.alg.n
        names: list[str] = []
        indices: list[int] = []
        start = 0
        for end, letter in enumerate(w, 1):
            if letter != v:
                name = names_of[ord(letter)]
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
        for d, entry, q in self._eliminate(p, ""):
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
        and r not None.  The keys of T(m > 0, r) and of the empty tail, "",
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
                        at = self.alg.word_str(piece + w) or "1"
                        raise RuntimeError(f"inexact elimination: {num} / {den} at {at}")
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
        self, words: Iterable[NormalWord], want: tuple[int, ...]
    ) -> Callable[[NormalWord, NormalWord], dict[int, list]]:
        """The realization engine's per-pair core for words, its per-word
        work done (the rewriting engine's is Rewriter.pair).

        The result maps (u, w), both among words, to {n: u_(n) w} for each
        n in want.  It takes each word's P_a and T once (_tail), and scales
        and coacts its image at most once, as far as component max(want),
        for all the pairs it is in.  Each pair is then one P8 pseudoproduct
        of u's T and w's image, split at the requested n alone, and each
        slice eliminated behind u's P_a: the quotients are the
        coefficients, because the weights W_u * W_w cancel (see
        _eliminate).  A value is _eliminate's letter-free [(d, entry, int)],
        the same for every u with u's D-power and tail; the caller makes its
        words for u's first letter (_words).
        """
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
        self, pairs: Callable, terms: Callable, x: ConfElement, y: ConfElement, ns: Iterable[int]
    ) -> dict[int, ConfElement]:
        """{n: x_(n) y} for each n in ns, through one engine.

        pairs(words, want) is the engine's per-pair core (_pair,
        Rewriter.pair), and terms(value, code) the (word, int) terms of one
        of its pair values for a u whose first letter has code code.  They
        are scaled by cu * cw, written over one common denominator, so the
        sums stay ints.  Each output term then gets a Fraction, over a
        denominator of 1 the shared one of its value (_fraction).  No pair
        value repeats a word, so a single word pair keeps the order of its
        value's terms.
        """
        want = _requested(ns)
        if not want:
            return {}
        pair = pairs((*y.terms, *x.terms), want)
        index = self.alg.index
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
                    for v, k in terms(value, code):
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
        return self._products(self._pair, self._words, x, y, ns)

    def cprod(self, x: ConfElement, n: int, y: ConfElement) -> ConfElement:
        """n-th product through the realization engine."""
        return self.cprods(x, y, (n,))[n]

    def table_rows(
        self,
        words: Iterable[NormalWord],
        ns: Iterable[int],
        engine: str,
        rights: Iterable[NormalWord] | None = None,
    ) -> Iterator[tuple[NormalWord, int, NormalWord, ConfElement]]:
        """Each cell (u, n, w, u_(n) w) of the table over words x ns x rights
        (rights defaults to words).

        Cells come one at a time, u slowest and w fastest.  Every value
        lists its terms in sort_key order, by construction, not by a sort:
        see _eliminate, and Rewriter._rw_words and _rw_rule in rewrite.py.
        Under realize, each word is scaled once per call and each right word
        coacted once, not once per cell (_pair).  When the CLI splits a
        table's columns over two processes, each right word is coacted once,
        in the process that owns its column.  u = a .m r has the image
        P_a T(m, r), and the quotients of u_(n) w do not depend on a: the
        row's block of every n and w is computed once per (u.s, tail key),
        shared by every first letter and dropped after the last row that
        reads it.  Each row makes its words for its own letter (_words), and
        each value term is an int until it takes the shared Fraction of its
        value (_fraction).
        Under rewrite, each cell is one cprod_rw of two single words, the
        product that bench/spans.py counts as the rewrite engine's work,
        yielded as soon as it is made.  It goes straight to
        Rewriter.product: the cell's value becomes the cell's element
        through _one_pair, with no per-cell pair, no common denominator and
        no second pass.
        """
        self.engine(engine)  # an unknown name raises ValueError
        words = list(words)
        rights = words if rights is None else list(rights)
        want = _requested(ns)
        if not want:
            return
        if engine == "realize":
            pair = self._pair(dict.fromkeys((*words, *rights)), want)
            keys = [(u.s, self._tail(u)[1]) for u in words]
            last = {key: row for row, key in enumerate(keys)}
            blocks: dict[tuple, list] = {}  # by key, until its last row
            index, to_words = self.alg.index, self._words
            for row, (u, key) in enumerate(zip(words, keys)):
                block = blocks.pop(key, None) or [pair(u, w) for w in rights]
                if last[key] > row:
                    blocks[key] = block
                code = index[u.gens[0]]
                for n in want:
                    for w, value in zip(rights, block):
                        yield u, n, w, ConfElement._of(
                            {v: _fraction(k) for v, k in to_words(value[n], code)}
                        )
            return
        single = {w: ConfElement({w: 1}) for w in (*words, *rights)}
        for u in words:
            for n in want:
                for w in rights:
                    yield u, n, w, self.cprod_rw(single[u], n, single[w])

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
        return self._products(self._rewriter.pair, lambda value, code: value.items(), x, y, ns)

    def cprod_rw(self, x: ConfElement, n: int, y: ConfElement) -> ConfElement:
        """n-th product via axiom-level rewriting; no embedding involved.

        The value of cprods_rw(x, y, (n,))[n], with its terms in the same
        order.  One term by one term goes straight to Rewriter.product: n is
        checked by _index first, as _requested checks it, and the value is
        scaled by _one_pair.  Any other input takes cprods_rw.
        """
        if len(x.terms) == 1 == len(y.terms):
            ((u, cu),) = x.terms.items()
            ((w, cw),) = y.terms.items()
            return _one_pair(self._rewriter.product(u, _index(n), w).items(), cu, cw)
        return self.cprods_rw(x, y, (n,))[n]

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
