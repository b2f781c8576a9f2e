"""The Hopf formulas of H = k[D]: the iterated coproduct hopf._spread and
the splitting hopf.decompose.

conftest's comult, read off _spread, and its recompose, the inverse of
decompose, are the references.  Everything here is exact rational
arithmetic, so every assertion is equality, never approximation.
"""

import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from confalg.hopf import HPoly, TensorHH, _spread, decompose

from conftest import comult, hmul, recompose, tmul

rationals = st.fractions(
    min_value=-20, max_value=20, max_denominator=6
).filter(lambda q: q != 0)

hpolys = st.dictionaries(st.integers(0, 6), rationals, max_size=4).map(HPoly)

tensors = st.dictionaries(
    st.tuples(st.integers(0, 5), st.integers(0, 5)), rationals, max_size=5
).map(TensorHH)


@pytest.mark.parametrize("slots", [1, 2, 3])
def test_spread_is_the_multinomial_expansion_in_lex_order(slots):
    for d in range(7):
        # product() yields the compositions of d in increasing lex order
        want = [
            (powers, math.factorial(d) // math.prod(map(math.factorial, powers)))
            for powers in itertools.product(range(d + 1), repeat=slots)
            if sum(powers) == d
        ]
        got = _spread(d, slots)
        leading = [powers[:-1] for powers, _ in got]
        assert leading == sorted(set(leading)), (d, slots)
        assert list(got) == want, (d, slots)


def test_comult_on_powers_is_binomial_expansion():
    # independent oracle: the generator is primitive, so the n-th power
    # splits as sum_k C(n,k) D^k (x) D^(n-k)
    for n in range(8):
        want = TensorHH({(k, n - k): math.comb(n, k) for k in range(n + 1)})
        assert comult(HPoly({n: 1})) == want


@given(hpolys, hpolys)
def test_comult_is_an_algebra_map(f, g):
    assert comult(hmul(f, g)) == tmul(comult(f), comult(g))


@given(hpolys)
def test_comult_counit_laws(f):
    t = comult(f)
    left = HPoly()
    right = HPoly()
    for (i, j), c in t.coeffs.items():
        if i == 0:
            left = left + HPoly({j: c})
        if j == 0:
            right = right + HPoly({i: c})
    assert left == f
    assert right == f


def test_decompose_frozen_cases():
    d = HPoly({1: 1})
    one = HPoly({0: 1})

    # 1 (x) D  ->  h_0 = D, h_1 = 1
    parts = decompose(TensorHH({(0, 1): Fraction(1)}))
    assert parts == {0: d, 1: one}

    # D (x) 1  ->  h_1 = -1
    parts = decompose(TensorHH({(1, 0): Fraction(1)}))
    assert parts == {1: -one}

    # 1 (x) D^2  ->  h_0 = D^2, h_1 = 2D, h_2 = 2
    parts = decompose(TensorHH({(0, 2): Fraction(1)}))
    assert parts == {0: HPoly({2: 1}), 1: d.scale(2), 2: one.scale(2)}


def test_decompose_drops_zero_rows():
    parts = decompose(TensorHH({(1, 0): Fraction(1), (0, 1): Fraction(1)}))
    # D(x)1 + 1(x)D is comult(D): the only surviving row is h_0 = D
    assert parts == {0: HPoly({1: 1})}


@given(tensors, st.sets(st.integers(0, 12), max_size=4))
def test_decompose_at_requested_n_is_the_restriction(t, ns):
    full = decompose(t)
    assert decompose(t, ns) == {n: h for n, h in full.items() if n in ns}


def test_decompose_at_one_n_skips_the_large_binomials():
    # all-n splitting of 1 (x) D^3000 has 3001 rows; n = 1 alone is one term
    assert decompose(TensorHH({(0, 3000): Fraction(1)}), (1,)) == {
        1: HPoly({2999: 3000})
    }


@given(tensors)
def test_decompose_then_recompose_is_identity(t):
    assert recompose(decompose(t)) == t


@given(hpolys)
def test_decompose_of_comult_recovers_the_polynomial(f):
    parts = decompose(comult(f))
    assert parts == ({0: f} if f else {})


def test_reprs_list_terms_by_degree():
    h = HPoly({3: 1, 0: Fraction(1, 2), 2: -3, 1: 1})
    assert repr(h) == "1/2 + D + -3*D^2 + D^3"
    assert repr(HPoly({1: 2})) == "2*D" and repr(HPoly()) == "0"
    t = TensorHH({(1, 0): Fraction(-1, 2), (0, 2): 3})
    assert repr(t) == "3*(D^0(x)D^2) + -1/2*(D^1(x)D^0)"
    assert repr(TensorHH()) == "0"


def test_comult_is_cocommutative():
    # Delta is cocommutative: exchanging the slots of Delta(D^2) changes nothing
    coeffs = comult(HPoly({2: 1})).coeffs
    assert {(j, i): c for (i, j), c in coeffs.items()} == coeffs
    t = TensorHH({(2, 0): 3, (0, 1): Fraction(-1, 2)})
    assert repr(t) == "-1/2*(D^0(x)D^1) + 3*(D^2(x)D^0)"
