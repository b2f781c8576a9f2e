"""Grammar round trips and parse diagnostics for the expression language."""

import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from confalg import AlgebraConfig, FreeConformal, PElement, PseudoAlgebra
from confalg.exprs import ParseError, evaluate, evaluate_pseudo, parse
from confalg.checks import as_rng, random_element, random_normal_word
from confalg.freeconf import ConfElement, NormalWord
from confalg.pseudo import ProductKind


@pytest.fixture(scope="module")
def fc():
    return FreeConformal(AlgebraConfig({"a": 2, "b": 3}))


class TestPositives:
    def test_single_generator(self, fc):
        assert evaluate(fc, parse("a")) == fc.generator("a")

    def test_zero_literal(self, fc):
        assert not evaluate(fc, parse("0"))
        assert not evaluate(fc, parse("a - a"))

    def test_a_zero_coefficient_skips_its_factor(self, fc):
        # no step under the zero runs, so the unknown q is never looked up
        assert [op for op, _, _ in parse("0 * (a .0 q)")] == ["zero"]
        assert not evaluate(fc, parse("0 * (a .0 q)"))
        assert evaluate(fc, parse("(a .0 b - 0 * D^2(q)) + 0")) == evaluate(fc, parse("(a .0 b)"))

    def test_whitespace_is_free(self, fc):
        assert evaluate(fc, parse("  a  +  b ")) == evaluate(fc, parse("a+b"))
        assert evaluate(fc, parse("( a .0 b )")) == evaluate(fc, parse("(a .0 b)"))

    def test_rational_coefficients(self, fc):
        x = evaluate(fc, parse("-3/2 * a"))
        assert x == fc.generator("a").scale(Fraction(-3, 2))
        assert evaluate(fc, parse("2 * a")) == fc.generator("a").scale(2)

    def test_products_and_shifts(self, fc):
        ab = evaluate(fc, parse("(a .1 b)"))
        assert ab == fc.cprod(fc.generator("a"), 1, fc.generator("b"))
        assert evaluate(fc, parse("D^2(a)")) == fc.generator("a").d_shift(2)
        nested = evaluate(fc, parse("D^1((a .0 (b .2 a)))"))
        inner = fc.cprod(fc.generator("b"), 2, fc.generator("a"))
        assert nested == fc.cprod(fc.generator("a"), 0, inner).d_shift(1)

    def test_engines_agree_on_expressions(self, fc):
        for text in ("(a .0 b)", "((a .1 b) .2 (a .0 b))", "(D^1(a) .1 b)"):
            assert evaluate(fc, parse(text), engine="realize") == evaluate(
                fc, parse(text), engine="rewrite"
            )


class TestDiagnostics:
    # (input, expected 0-based error position)
    CASES = [
        ("(a .x b)", 4),
        ("a +", 3),
        ("2 * * a", 4),
        ("D^(a)", 2),
        ("D^2 a", 4),
        ("a b", 2),
        ("1/0 * a", 2),
        ("", 0),
        ("(a . 0 b)", 4),
        ("(D^1(a)", 7),
        ("3 a", 0),
        ("D^\u00b2(a)", 2),  # a superscript 2 is a digit to isdigit, not to int()
    ]

    @pytest.mark.parametrize("text,pos", CASES)
    def test_position_is_pinned(self, text, pos):
        with pytest.raises(ParseError) as err:
            parse(text)
        assert err.value.pos == pos
        assert f"column {pos + 1}" in str(err.value)

    def test_unknown_generator_points_at_the_name(self, fc):
        with pytest.raises(ParseError) as err:
            evaluate(fc, parse("(a .0 q)"))
        assert err.value.pos == 6
        assert "q" in str(err.value)

    def test_reserved_derivation_symbol(self, fc):
        with pytest.raises(ParseError):
            evaluate(fc, parse("(D .0 a)"))

    def test_a_literal_past_the_digit_cap_is_a_parse_error(self, fc):
        text = "2 * a - " + "7" * 5000 + " * b"
        if not hasattr(sys, "set_int_max_str_digits"):  # no cap: it parses
            assert evaluate(fc, parse(text))
            return
        old = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(4300)
        try:
            with pytest.raises(ParseError, match="too many digits") as err:
                parse(text)
            assert err.value.pos == 8
        finally:
            sys.set_int_max_str_digits(old)


def test_print_then_parse_is_the_identity(fc):
    rng = as_rng(59)
    for _ in range(50):
        x = random_element(rng, fc, max_k=2, max_s=2, max_terms=3, nonzero=False)
        text = fc.element_to_text(x)
        assert evaluate(fc, parse(text)) == x
        assert evaluate(fc, parse(text), engine="rewrite") == x


def long_word(rng, fc, max_head: int) -> NormalWord:
    """Up to max_head generators at index 0 in front of a short random word.

    The realization image of a word grows with every nonzero index, so a
    long word keeps its nonzero indices in its last few products.
    """
    core = random_normal_word(rng, fc, max_k=3, max_s=300)
    head = tuple(rng.choice(fc.alg.names) for _ in range(rng.randint(0, max_head)))
    return NormalWord(core.s, head + core.gens, (0,) * len(head) + core.indices)


nonzero_rationals = st.fractions(min_value=-5, max_value=5, max_denominator=6).filter(bool)


@settings(derandomize=True, database=None, max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    max_head=st.sampled_from([0, 5, 400]),
    coeffs=st.lists(nonzero_rationals, min_size=1, max_size=3),
)
def test_printed_elements_parse_back_under_both_engines(fc, seed, max_head, coeffs):
    rng = as_rng(seed)
    x = ConfElement({long_word(rng, fc, max_head): c for c in coeffs})
    steps = parse(fc.element_to_text(x))
    assert evaluate(fc, steps) == x
    assert evaluate(fc, steps, engine="rewrite") == x


def doubled(fc, times: int) -> ConfElement:
    """(X .0 X) nested times deep from a, reduced by the rewriting engine."""
    x = fc.generator("a")
    for _ in range(times):
        x = fc.cprod_rw(x, 0, x)
    return x


def test_a_256_generator_word_parses_back(fc):
    x = doubled(fc, 8)
    text = fc.element_to_text(x)
    assert text == "(a .0 " * 255 + "a" + ")" * 255 and len(text) == 1786
    assert evaluate(fc, parse(text)) == x
    assert evaluate(fc, parse(text), engine="rewrite") == x


def test_a_2048_generator_word_parses_back(fc):
    x = doubled(fc, 11)
    assert evaluate(fc, parse(fc.element_to_text(x)), engine="rewrite") == x


def test_rendered_zero_parses_back(fc):
    assert fc.element_to_text(evaluate(fc, parse("0"))) == "0"


def test_pseudo_evaluation_uses_the_symmetric_product():
    alg = AlgebraConfig({"a": 1, "b": 2}, commutative=True)
    pa = PseudoAlgebra(alg)
    from confalg.freeconf import generator_image

    x = evaluate_pseudo(pa, parse("(a .0 b)"))
    ia = PElement(alg, {0: generator_image(alg, "a")})
    ib = PElement(alg, {0: generator_image(alg, "b")})
    assert x == pa.nth(ProductKind.P20, ia, 0, ib)
    y = evaluate_pseudo(pa, parse("2 * a + D^1(b)"))
    assert y == ia.scale(2) + ib.d_shift(1)


def test_nesting_has_no_limit():
    # one open bracket per level, held on a list rather than the call stack
    assert parse("(a .0 " * 5000 + "b" + ")" * 5000)[-1][0] == "prod"
    assert parse("D^1(" * 5000 + "a" + ")" * 5000)[-1] == ("D", 1, 0)
