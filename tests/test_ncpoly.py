"""Free noncommutative polynomials over the extended letter set.

The configured generators get codes 0..g-1 in declaration order and the
distinguished letter v gets the greatest code, so the degree-lexicographic
order puts words with early generators first.
"""

import pytest
from hypothesis import given, strategies as st

from confalg.ncpoly import AlgebraConfig, ConfigError, NCPoly, deglex_key

AB = AlgebraConfig({"a": 2, "b": 3})

letters = st.integers(0, 2)  # a, b, v under AB
words = st.lists(letters, max_size=5).map(tuple)
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

    def test_localities(self):
        assert AB.n_of("a") == 2
        assert AB.n_of("b") == 3
        assert AB.N_of("a", "b") == 3
        assert AB.N_of("b", "a") == 2
        assert AB.sum_n() == 5
        assert AB.max_n() == 3

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

    def test_order_must_be_a_permutation(self):
        with pytest.raises(ConfigError):
            AlgebraConfig({"a": 1, "b": 1}, order=["a"])
        with pytest.raises(ConfigError):
            AlgebraConfig({"a": 1, "b": 1}, order=["a", "a"])
        alg = AlgebraConfig({"a": 1, "b": 1}, order=["b", "a"])
        assert alg.names == ("b", "a")
        assert alg.letter("b") == 0

    def test_unknown_letter_rejected(self):
        with pytest.raises(ConfigError):
            AB.word(("a", "q"))


class TestDeglex:
    def test_key_orders_by_length_then_word(self):
        assert deglex_key(()) < deglex_key((0,))
        assert deglex_key((2,)) < deglex_key((0, 0))
        assert deglex_key((0, 2)) < deglex_key((1, 0))

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
        assert 2 * f == f.scale(2)
        assert f * 0 == NCPoly(AB)
        assert -f == f.scale(-1)

    def test_lowest_monomial(self):
        f = AB.monomial(("b",)) + AB.monomial(("a", "v"), -3)
        w, c = f.lowest_monomial()
        assert AB.word_names(w) == ("b",)
        assert c == 1


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


@given(polys, polys, st.integers(0, 4))
def test_vderiv_product_rule(f, g, m):
    from confalg.hopf import binomial

    want = NCPoly(AB)
    for s in range(m + 1):
        want = want + (f.vderiv(s) * g.vderiv(m - s)).scale(binomial(m, s))
    assert (f * g).vderiv(m) == want


def test_v_deletion_does_not_preserve_lowest_monomial_order():
    # the reduction engine must re-derive the lowest monomial after every
    # elimination step: deletion can invert the order of lowest terms
    u1 = AB.monomial(("a", "v", "v", "b"))
    u2 = AB.monomial(("v", "a", "a", "b"))
    assert deglex_key(u1.lowest_monomial()[0]) < deglex_key(u2.lowest_monomial()[0])
    low1 = u1.vderiv().lowest_monomial()[0]
    low2 = u2.vderiv().lowest_monomial()[0]
    assert deglex_key(low1) > deglex_key(low2)


class TestCoaction:
    @given(polys)
    def test_component_zero_is_the_identity(self, f):
        parts = f.coact()
        assert parts.get(0, NCPoly(AB)) == f

    @given(polys)
    def test_components_are_plain_deletions(self, f):
        parts = f.coact()
        top = f.max_v_degree()
        for s, g in parts.items():
            assert 0 <= s <= top
            assert g == f.vderiv(s)
            assert g

    def test_grading(self):
        f = AB.monomial(("v", "v", "a"))
        assert f.max_v_degree() == 2
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
