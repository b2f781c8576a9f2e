"""The rewriting engine: products of normal words from the axioms alone.

It moves D across products, splits off leading letters, and resolves
out-of-range indices by the composition rule.  Of the package it imports
only the word algebra (words), which the realization engine shares.
"""

from __future__ import annotations

import math
import weakref
from collections.abc import Callable, Iterable

from .words import NormalWord


class Rewriter:
    """The rewriting engine of one FreeConformal fc, with its memos."""

    def __init__(self, fc):
        # a proxy makes no cycle, so fc's memos go with its last reference
        self.fc = weakref.proxy(fc)
        self.alg = fc.alg
        # the words _validate has passed; a word that fails validate is
        # never added
        self._valid: set[NormalWord] = set()
        # _rw_dfree values, {D-free word: int}, by
        # (gens_u, indices_u, n, gens_w, indices_w); Fractions appear only
        # once freeconf scales a value by its coefficients (_one_pair,
        # _products).  _rw_interned holds each word those values name, by
        # (gens, indices), so that each is built and stored once; _shared
        # holds each of their gens and indices tuples, one object per value.
        self._rw_cache: dict[tuple, dict[NormalWord, int]] = {}
        self._rw_interned: dict[tuple, NormalWord] = {}
        self._shared: dict[tuple, tuple] = {}

    def pair(
        self, words: Iterable[NormalWord], want: tuple[int, ...]
    ) -> Callable[[NormalWord, NormalWord], dict[int, dict]]:
        """The per-pair core for words, its per-word work done: the result
        maps (u, w), both among words, to {n: u_(n) w} for each n in want,
        each a _rw_words {word: int}."""
        self._validate(words)
        return lambda u, w: {n: self._rw_words(u, n, w) for n in want}

    def product(self, u: NormalWord, n: int, w: NormalWord) -> dict[NormalWord, int]:
        """u_(n) w as _rw_words gives it, once w and then u are validated."""
        valid = self._valid
        if w not in valid or u not in valid:
            self._validate((w, u))
        return self._rw_words(u, n, w)

    def _validate(self, words: Iterable[NormalWord]) -> None:
        """Validate each of words once per FreeConformal (_valid), in order,
        by fc.validate as it is at call time."""
        valid = self._valid
        for u in words:
            if u not in valid:
                valid.add(self.fc.validate(u))

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
            share = self._shared.setdefault
            gens, indices = share(gens, gens), share(indices, indices)
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
