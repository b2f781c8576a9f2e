"""Free conformal algebra: realization engine, rewriting engine, normal form.

The two product engines share no code past the word algebra, which is the
point: each one is the oracle for the other.
"""

from fractions import Fraction

import pytest

from confalg.freeconf import (
    ConfElement,
    FreeConformal,
    NormalWord,
    NotInSpan,
    generator_image,
    random_element,
    random_normal_word,
)
from confalg.ncpoly import AlgebraConfig, ConfigError, deglex_key
from confalg.pseudo import PElement, as_rng


def weight(alg, u: NormalWord) -> int:
    # s + sum of letter localities, minus (index + 1) per product
    return (
        u.s
        + sum(alg.n_of(g) for g in u.gens)
        - sum(n + 1 for n in u.indices)
    )


@pytest.fixture(scope="module")
def fc():
    # n(a)=1 keeps images short; n(b)=2 exercises the v prefixes
    return FreeConformal(AlgebraConfig({"a": 1, "b": 2}))


class TestNormalWords:
    def test_validation_bounds(self, fc):
        fc.normal(0, ("a", "b"), (1,))
        with pytest.raises(ValueError):
            fc.normal(0, ("a", "b"), (2,))
        with pytest.raises(ValueError):
            fc.normal(0, ("b", "a"), (1,))
        with pytest.raises(ValueError):
            fc.normal(-1, ("a",), ())
        with pytest.raises(ValueError):
            fc.normal(0, ("a", "b"), ())

    def test_unknown_generator(self, fc):
        with pytest.raises(ConfigError):
            fc.normal(0, ("q",), ())

    def test_commutative_config_is_rejected(self):
        with pytest.raises(ConfigError):
            FreeConformal(AlgebraConfig({"a": 1}, commutative=True))


class TestRealizationMap:
    def test_generator_images(self, fc):
        assert generator_image(fc.alg, "a") == fc.alg.monomial(("a",))
        assert generator_image(fc.alg, "b") == fc.alg.monomial(("v", "b"))
        big = AlgebraConfig({"c": 3})
        assert generator_image(big, "c") == big.monomial(
            ("v", "v", "c"), Fraction(1, 2)
        )

    def test_image_of_words(self, fc):
        alg = fc.alg
        a = fc.generator("a")
        assert fc.iota(a) == PElement.from_poly(alg, alg.monomial(("a",)))
        w0 = fc.normal(0, ("a", "b"), (0,))
        assert fc.iota_word(w0) == PElement.from_poly(
            alg, alg.monomial(("a", "v", "b"))
        )
        w1 = fc.normal(0, ("a", "b"), (1,))
        assert fc.iota_word(w1) == PElement.from_poly(
            alg, alg.monomial(("a", "b"), -1)
        )
        shifted = fc.normal(2, ("a", "b"), (0,))
        assert fc.iota_word(shifted) == fc.iota_word(w0).d_shift(2)

    def test_image_is_linear(self, fc):
        rng = as_rng(61)
        for _ in range(20):
            x = random_element(rng, fc, max_k=2, max_s=1, nonzero=False)
            y = random_element(rng, fc, max_k=2, max_s=1, nonzero=False)
            assert fc.iota(x + y) == fc.iota(x) + fc.iota(y)
            assert fc.iota(x.scale(-3)) == fc.iota(x).scale(-3)


class TestHatWords:
    def test_frozen_hats(self, fc):
        assert fc.hat_word(fc.normal(0, ("a", "b"), (0,))) == (1, (0, 2, 1))
        assert fc.hat_word(fc.normal(0, ("a", "b"), (1,))) == (-1, (0, 1))
        big = FreeConformal(AlgebraConfig({"c": 3}))
        assert big.hat_word(big.normal(0, ("c",), ())) == (1, (1, 1, 0))

    def test_hat_is_the_lowest_monomial_of_the_image(self, fc):
        for u in fc.enumerate_basis(2):
            sign, hat = fc.hat_word(u)
            poly = fc.iota_word(u).parts[0]
            w, c = poly.lowest_monomial()
            assert w == hat
            assert (1 if c > 0 else -1) == sign

    def test_hat_round_trip(self, fc):
        for u in fc.enumerate_basis(2):
            sign, hat = fc.hat_word(u)
            got = fc.word_to_normal(hat)
            assert got is not None
            got_sign, base = got
            assert base == u and got_sign == sign

    def test_non_hat_words_map_to_none(self, fc):
        alg = fc.alg
        assert fc.word_to_normal(alg.word(("v", "a"))) is None
        assert fc.word_to_normal(alg.word(("b",))) is None
        assert fc.word_to_normal(()) is None


class TestReduce:
    def test_round_trip_on_basis_words(self, fc):
        for u in fc.enumerate_basis(2, max_s=1):
            assert fc.reduce(fc.iota_word(u)) == ConfElement.single(u)

    def test_round_trip_is_linear(self, fc):
        rng = as_rng(67)
        for _ in range(30):
            x = random_element(rng, fc, max_k=3, max_s=2, max_terms=3, nonzero=False)
            assert fc.reduce(fc.iota(x)) == x

    def test_out_of_span_raises_with_witness(self, fc):
        bad = PElement.from_poly(fc.alg, fc.alg.monomial(("v", "a")))
        with pytest.raises(NotInSpan) as err:
            fc.reduce(bad)
        assert "v a" in str(err.value)

    def test_out_of_span_under_taller_localities(self):
        fc2 = FreeConformal(AlgebraConfig({"a": 2, "b": 3}))
        bad = PElement.from_poly(fc2.alg, fc2.alg.monomial(("a",)))
        with pytest.raises(NotInSpan):
            fc2.reduce(bad)


class TestProducts:
    def test_frozen_values(self, fc):
        a, b = fc.generator("a"), fc.generator("b")
        ab0 = fc.cprod(a, 0, b)
        assert ab0 == ConfElement.single(fc.normal(0, ("a", "b"), (0,)))
        x = fc.cprod(b, 0, ab0)
        assert x == ConfElement.single(fc.normal(0, ("b", "a", "b"), (0, 0)))
        x = fc.cprod(b, 1, ab0)
        assert x == ConfElement.single(fc.normal(0, ("b", "a", "b"), (0, 1)))
        assert not fc.cprod(b, 2, ab0)
        assert not fc.cprod(a, 2, b)

    def test_negative_index_rejected(self, fc):
        with pytest.raises(ValueError):
            fc.cprod(fc.generator("a"), -1, fc.generator("b"))
        with pytest.raises(ValueError):
            fc.cprod_rw(fc.generator("a"), -1, fc.generator("b"))

    def test_derivation_rules_in_the_rewriting_engine(self, fc):
        a, b = fc.generator("a"), fc.generator("b")
        assert fc.cprod_rw(a, 0, b.d_shift(1)) == fc.cprod_rw(a, 0, b).d_shift(1)
        assert fc.cprod_rw(a.d_shift(1), 1, b) == -fc.cprod_rw(a, 0, b)
        assert not fc.cprod_rw(a.d_shift(1), 0, b)
        lhs = fc.cprod_rw(a, 1, b.d_shift(1))
        rhs = fc.cprod_rw(a, 1, b).d_shift(1) + fc.cprod_rw(a, 0, b)
        assert lhs == rhs

    def test_engines_agree(self, fc):
        rng = as_rng(71)
        for _ in range(50):
            x = random_element(rng, fc, max_k=2, max_s=1, max_terms=2)
            y = random_element(rng, fc, max_k=2, max_s=1, max_terms=2)
            n = rng.randint(0, 5)
            assert fc.cprod(x, n, y) == fc.cprod_rw(x, n, y)

    def test_products_are_homogeneous(self, fc):
        rng = as_rng(73)
        alg = fc.alg
        for _ in range(25):
            u = random_normal_word(rng, fc, max_k=2, max_s=1)
            w = random_normal_word(rng, fc, max_k=2, max_s=1)
            n = rng.randint(0, 4)
            out = fc.cprod(ConfElement.single(u), n, ConfElement.single(w))
            target = weight(alg, u) + weight(alg, w) - n - 1
            for t in out.terms:
                assert weight(alg, t) == target

    def test_associativity_defect_vanishes(self, fc):
        rng = as_rng(79)
        for _ in range(15):
            x = random_element(rng, fc, max_k=1, max_s=1)
            y = random_element(rng, fc, max_k=1, max_s=1)
            z = random_element(rng, fc, max_k=1, max_s=1)
            n, m = rng.randint(0, 4), rng.randint(0, 4)
            assert not fc.associativity_defect(x, n, y, m, z)
            assert not fc.associativity_defect(x, n, y, m, z, engine="rewrite")


class TestLocality:
    def test_generator_pairs(self, fc):
        a, b = fc.generator("a"), fc.generator("b")
        assert fc.locality_of(a, b) == 2
        assert fc.locality_of(a, b.d_shift(1)) == 3
        assert fc.locality_of(a, a) == 1

    def test_left_shift_raises_the_bound(self):
        # the D on the left slot matters: without it the bound would be 1
        fc1 = FreeConformal(AlgebraConfig({"a": 1}))
        a = fc1.generator("a")
        da = a.d_shift(1)
        assert fc1.locality_of(da, a) == 2
        assert fc1.cprod(da, 1, a) == -fc1.cprod(a, 0, a)
        assert not fc1.cprod(da, 2, a)

    def test_bound_is_exact_on_random_elements(self, fc):
        rng = as_rng(83)
        for _ in range(20):
            x = random_element(rng, fc, max_k=1, max_s=1)
            y = random_element(rng, fc, max_k=1, max_s=1)
            bound = fc.locality_of(x, y)
            assert not fc.cprod(x, bound, y)
            assert not fc.cprod(x, bound + 2, y)
            if bound:
                assert fc.cprod(x, bound - 1, y)


class TestEnumeration:
    def test_counts_match_the_formula(self, fc):
        for k in range(4):
            assert fc.basis_count(k) == 2 * 3 ** k
        words = fc.enumerate_basis(3)
        by_k = {}
        for u in words:
            assert u.s == 0
            by_k[len(u.gens) - 1] = by_k.get(len(u.gens) - 1, 0) + 1
        assert by_k == {0: 2, 1: 6, 2: 18, 3: 54}

    def test_shifted_enumeration(self, fc):
        words = fc.enumerate_basis(1, max_s=2)
        assert len(words) == 3 * (2 + 6)
        assert len(set(words)) == len(words)

    def test_all_enumerated_words_validate(self, fc):
        for u in fc.enumerate_basis(2, max_s=1):
            fc.validate(u)


class TestSerialization:
    def test_word_json_round_trip(self, fc):
        for u in fc.enumerate_basis(2, max_s=2):
            assert fc.word_from_json(fc.word_to_json(u)) == u

    def test_element_json_round_trip(self, fc):
        rng = as_rng(89)
        for _ in range(20):
            x = random_element(rng, fc, max_k=2, max_s=1, max_terms=3, nonzero=False)
            assert fc.element_from_json(fc.element_to_json(x)) == x

    def test_rendering(self, fc):
        u = fc.normal(0, ("b", "a", "b"), (0, 1))
        assert fc.render_word(u) == "(b .0 (a .1 b))"
        assert fc.render_word(fc.normal(2, ("a",), ())) == "D^2(a)"
        x = ConfElement.single(u, Fraction(-3, 2)) + fc.generator("a")
        assert fc.element_to_text(x) == "a - 3/2 * (b .0 (a .1 b))"
        assert fc.element_to_text(ConfElement()) == "0"

    def test_sorted_terms_follow_the_hat_order(self, fc):
        rng = as_rng(97)
        for _ in range(10):
            x = random_element(rng, fc, max_k=2, max_s=1, max_terms=4)
            grouped = {}
            for u, _ in fc.sorted_terms(x):
                grouped.setdefault(u.s, []).append(
                    deglex_key(fc.hat_word(u.dfree())[1])
                )
            for keys in grouped.values():
                assert keys == sorted(keys)


def test_random_element_determinism(fc):
    x = random_element(as_rng(5), fc, max_k=2, max_s=1)
    y = random_element(as_rng(5), fc, max_k=2, max_s=1)
    assert x == y and x
