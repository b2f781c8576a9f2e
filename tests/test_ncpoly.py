"""Free noncommutative polynomials over the extended letter set.

The configured generators get codes 0..g-1 in declaration order and the
distinguished letter v gets the greatest code, so the degree-lexicographic
order puts words with early generators first.
"""

import math

import pytest
from hypothesis import given, strategies as st

from confalg import ncpoly
from confalg.ncpoly import MAX_LOCALITY, AlgebraConfig, ConfigError, NCPoly, deglex_key

AB = AlgebraConfig({"a": 2, "b": 3})

letters = st.integers(0, 2)  # a, b, v under AB
words = st.lists(letters, max_size=5).map(lambda codes: "".join(map(chr, codes)))
rationals = st.fractions(min_value=-9, max_value=9, max_denominator=4).filter(
    lambda q: q != 0
)
polys = st.dictionaries(words, rationals, max_size=4).map(
    lambda t: NCPoly(AB, t)
)


class TestConfigValidation:
    def test_declared_order_and_v_code(self):
        assert AB.names == ("a", "b")
        assert AB.letter("a") == 0
        assert AB.letter("b") == 1
        assert AB.V == 2
        assert AB.letter_name(2) == "v"
        assert AB.v == AB.word(("v",)) == chr(2)
        assert AB.word(("a", "b", "v")) == "\x00\x01\x02"
        assert AB.word_names("\x02\x00") == ("v", "a")

    def test_localities(self):
        assert AB.n_of("a") == 2
        assert AB.n_of("b") == 3

    def test_empty_rejected(self):
        with pytest.raises(ConfigError):
            AlgebraConfig({})

    @pytest.mark.parametrize("bad", ["v", "D", "2x", "", "a b"])
    def test_bad_names_rejected(self, bad):
        with pytest.raises(ConfigError):
            AlgebraConfig({bad: 1})

    @pytest.mark.parametrize("bad", [0, -1, True, "2", 2.0])
    def test_bad_localities_rejected(self, bad):
        with pytest.raises(ConfigError):
            AlgebraConfig({"a": bad})

    @pytest.mark.parametrize("bad", [10**400, MAX_LOCALITY + 1], ids=["10**400", "cap+1"])
    def test_localities_above_the_cap_rejected(self, bad):
        with pytest.raises(ConfigError, match="locality of 'a' must be at most"):
            AlgebraConfig({"a": bad})

    def test_the_cap_itself_is_accepted(self):
        assert AlgebraConfig({"a": MAX_LOCALITY}).n_of("a") == MAX_LOCALITY

    def test_more_generators_than_code_points_rejected(self, monkeypatch):
        # the real cap, 0x10FFFF, is what chr can code with v after the last
        monkeypatch.setattr(ncpoly, "MAX_GENERATORS", 2)
        assert AlgebraConfig({"a": 1, "b": 1}).v == chr(2)
        with pytest.raises(ConfigError, match="^at most 2 generators are supported$"):
            AlgebraConfig({"a": 1, "b": 1, "c": 1})

    def test_order_must_be_a_permutation(self):
        with pytest.raises(ConfigError):
            AlgebraConfig({"a": 1, "b": 1}, order=["a"])
        with pytest.raises(ConfigError):
            AlgebraConfig({"a": 1, "b": 1}, order=["a", "a"])
        # this order covers every declared name, so only the duplicate check sees it
        with pytest.raises(ConfigError, match="^duplicate generator name$"):
            AlgebraConfig({"a": 1}, order=["a", "a"])
        alg = AlgebraConfig({"a": 1, "b": 1}, order=["b", "a"])
        assert alg.names == ("b", "a")
        assert alg.letter("b") == 0

    def test_an_empty_order_is_an_order_error(self):
        with pytest.raises(ConfigError, match="^order must list exactly the declared generators$"):
            AlgebraConfig({"a": 2}, order=[])
        for order in (None, []):  # nothing declared keeps its own message
            with pytest.raises(ConfigError, match="^at least one generator is required$"):
                AlgebraConfig({}, order=order)

    def test_unknown_letter_rejected(self):
        with pytest.raises(ConfigError):
            AB.word(("a", "q"))


class TestDeglex:
    def test_key_orders_by_length_then_word(self):
        word = AB.word
        assert deglex_key("") < deglex_key(word("a"))
        assert deglex_key(word("v")) < deglex_key(word("aa"))
        assert deglex_key(word("av")) < deglex_key(word("ba"))

    @given(words, words, words)
    def test_total_order_is_transitive_and_multiplicative(self, u, w, t):
        if deglex_key(u) < deglex_key(w) and deglex_key(w) < deglex_key(t):
            assert deglex_key(u) < deglex_key(t)
        # compatible with concatenation on both sides
        if deglex_key(u) < deglex_key(w):
            assert deglex_key(t + u) < deglex_key(t + w)
            assert deglex_key(u + t) < deglex_key(w + t)


class TestArithmetic:
    @given(polys, polys, polys)
    def test_mul_associative_and_distributive(self, f, g, h):
        assert (f * g) * h == f * (g * h)
        assert f * (g + h) == f * g + f * h

    @given(polys, polys)
    def test_add_commutes_sub_inverts(self, f, g):
        assert f + g == g + f
        assert (f + g) - g == f

    @given(polys)
    def test_scalar_hooks(self, f):
        # scale is the one spelling of a scalar multiple
        with pytest.raises(TypeError):
            f * 2
        with pytest.raises(TypeError):
            2 * f
        assert -f == f.scale(-1)


def test_vderiv_deletes_single_occurrences():
    f = AB.monomial(("a", "v", "b"))
    assert f.vderiv() == AB.monomial(("a", "b"))
    assert AB.monomial(("a", "b")).vderiv() == NCPoly(AB)


def test_vderiv_counts_positions():
    # both deletions from avvb give the same word
    f = AB.monomial(("a", "v", "v", "b"))
    assert f.vderiv() == AB.monomial(("a", "v", "b"), 2)
    assert f.vderiv(2) == AB.monomial(("a", "b"), 2)
    assert f.vderiv(3) == NCPoly(AB)


def single_deletions(f: NCPoly, m: int) -> NCPoly:
    """vderiv as it was: one word per v, m times over."""
    v = f.alg.v
    for _ in range(m):
        out = NCPoly(f.alg)
        for w, c in f.terms.items():
            for pos, letter in enumerate(w):
                if letter == v:
                    out = out + NCPoly(f.alg, {w[:pos] + w[pos + 1:]: c})
        f = out
    return f


# words as runs: (letter, run length), v runs up to 50 long
runs = st.lists(st.tuples(letters, st.integers(1, 50)), max_size=4).map(
    lambda rs: "".join(chr(code) * k for code, k in rs)
)


@pytest.mark.parametrize("alg", [AB, AlgebraConfig({"a": 2, "b": 3}, commutative=True)],
                         ids=["words", "commutative"])
@given(st.dictionaries(runs, rationals, max_size=3), st.integers(0, 3))
def test_vderiv_matches_single_deletions_on_long_runs(alg, terms, m):
    f = NCPoly(alg, terms)
    assert f.vderiv(m) == single_deletions(f, m)


@given(polys, polys, st.integers(0, 4))
def test_vderiv_product_rule(f, g, m):
    want = NCPoly(AB)
    for s in range(m + 1):
        want = want + (f.vderiv(s) * g.vderiv(m - s)).scale(math.comb(m, s))
    assert (f * g).vderiv(m) == want


def test_v_deletion_does_not_preserve_lowest_monomial_order():
    # the reduction engine must re-derive the lowest monomial after every
    # elimination step: deletion can invert the order of lowest terms
    u1 = AB.monomial(("a", "v", "v", "b"))
    u2 = AB.monomial(("v", "a", "a", "b"))
    assert min(u1.terms, key=deglex_key) < min(u2.terms, key=deglex_key)
    low1 = min(u1.vderiv().terms, key=deglex_key)
    low2 = min(u2.vderiv().terms, key=deglex_key)
    assert deglex_key(low1) > deglex_key(low2)


class TestCoaction:
    @given(polys)
    def test_component_zero_is_the_identity(self, f):
        parts = f.coact()
        assert parts.get(0, NCPoly(AB)) == f

    @given(polys)
    def test_components_are_plain_deletions(self, f):
        parts = f.coact()
        top = max((w.count(AB.v) for w in f.terms), default=-1)
        for s, g in parts.items():
            assert 0 <= s <= top
            assert g == f.vderiv(s)
            assert g

    def test_grading(self):
        f = AB.monomial(("v", "v", "a"))
        assert max(w.count(AB.v) for w in f.terms) == 2
        assert sorted(f.coact()) == [0, 1, 2]

    @given(polys, st.integers(0, 6))
    def test_cut_keeps_the_leading_components(self, f, upto):
        full = f.coact()
        assert f.coact(upto) == {s: g for s, g in full.items() if s <= upto}

    def test_negative_cut_rejected(self):
        with pytest.raises(ValueError):
            AB.monomial(("v", "a")).coact(-1)


def test_commutative_config_sorts_words():
    alg = AlgebraConfig({"a": 1, "b": 1}, commutative=True)
    ab = alg.monomial(("a", "b"))
    ba = alg.monomial(("b", "a"))
    assert ab == ba
    assert alg.monomial(("b", "v", "a")) == alg.monomial(("a", "b", "v"))


def test_noncommutative_config_keeps_order():
    assert AB.monomial(("a", "b")) != AB.monomial(("b", "a"))


@pytest.mark.parametrize("alg", [AB, AlgebraConfig({"a": 2, "b": 3}, commutative=True)],
                         ids=["words", "commutative"])
def test_a_tuple_of_codes_is_read_as_its_word(alg):
    # the public constructor joins any sequence of int codes into a Word
    codes = {(1, 2, 0): 2, (0,): -1, (): 3}
    word = {alg.word(("b", "v", "a")): 2, alg.word(("a",)): -1, "": 3}
    assert NCPoly(alg, codes) == NCPoly(alg, word)
    assert all(w.__class__ is str for w in NCPoly(alg, codes).terms)
    if alg.commutative:
        assert list(NCPoly(alg, {(1, 2, 0): 1}).terms) == [alg.word(("a", "b", "v"))]
