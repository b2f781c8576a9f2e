"""Polynomial coefficient Hopf algebra: comultiplication, antipode, splitting.

Everything here is exact rational arithmetic, so every assertion is
equality, never approximation.
"""

from fractions import Fraction

from hypothesis import given, strategies as st

from confalg.hopf import (
    HPoly,
    TensorHH,
    antipode,
    binomial,
    comult,
    counit,
    decompose,
    recompose,
)

rationals = st.fractions(
    min_value=-20, max_value=20, max_denominator=6
).filter(lambda q: q != 0)

hpolys = st.dictionaries(st.integers(0, 6), rationals, max_size=4).map(HPoly)

tensors = st.dictionaries(
    st.tuples(st.integers(0, 5), st.integers(0, 5)), rationals, max_size=5
).map(TensorHH)


def test_binomial_agrees_with_pascal():
    table = {(0, 0): 1}
    for n in range(1, 12):
        for k in range(n + 1):
            table[(n, k)] = table.get((n - 1, k - 1), 0) + table.get((n - 1, k), 0)
    for (n, k), want in table.items():
        assert binomial(n, k) == want
    assert binomial(5, -1) == 0
    assert binomial(5, 6) == 0


def test_comult_on_powers_is_binomial_expansion():
    # independent oracle: the generator is primitive, so the n-th power
    # splits as sum_k C(n,k) D^k (x) D^(n-k)
    for n in range(8):
        want = TensorHH({(k, n - k): binomial(n, k) for k in range(n + 1)})
        assert comult(HPoly.d_power(n)) == want


@given(hpolys, hpolys)
def test_comult_is_an_algebra_map(f, g):
    assert comult(f * g) == comult(f) * comult(g)


@given(hpolys)
def test_comult_counit_laws(f):
    t = comult(f)
    left = HPoly.zero()
    right = HPoly.zero()
    for (i, j), c in t.coeffs.items():
        if i == 0:
            left = left + HPoly.d_power(j, c)
        if j == 0:
            right = right + HPoly.d_power(i, c)
    assert left == f
    assert right == f


@given(hpolys)
def test_antipode_flips_the_variable(f):
    s = antipode(f)
    assert s.coeffs == {
        k: (-c if k % 2 else c) for k, c in f.coeffs.items()
    }
    assert antipode(s) == f


@given(hpolys)
def test_antipode_convolution_gives_counit(f):
    # m(S (x) id) comult(f) collapses to eps(f) * 1
    acc = HPoly.zero()
    for (i, j), c in comult(f).coeffs.items():
        sign = -1 if i % 2 else 1
        acc = acc + HPoly.d_power(i + j, sign * c)
    assert acc == HPoly.one().scale(counit(f))


def test_counit_reads_off_the_constant_term():
    f = HPoly({0: Fraction(7, 2), 3: Fraction(1)})
    assert counit(f) == Fraction(7, 2)
    assert counit(HPoly.zero()) == 0


def test_decompose_frozen_cases():
    d = HPoly.d_power(1)
    one = HPoly.one()

    # 1 (x) D  ->  h_0 = D, h_1 = 1
    parts = decompose(TensorHH({(0, 1): Fraction(1)}))
    assert parts == {0: d, 1: one}

    # D (x) 1  ->  h_1 = -1
    parts = decompose(TensorHH({(1, 0): Fraction(1)}))
    assert parts == {1: -one}

    # 1 (x) D^2  ->  h_0 = D^2, h_1 = 2D, h_2 = 2
    parts = decompose(TensorHH({(0, 2): Fraction(1)}))
    assert parts == {0: HPoly.d_power(2), 1: d.scale(2), 2: one.scale(2)}


def test_decompose_drops_zero_rows():
    parts = decompose(TensorHH({(1, 0): Fraction(1), (0, 1): Fraction(1)}))
    # D(x)1 + 1(x)D is comult(D): the only surviving row is h_0 = D
    assert parts == {0: HPoly.d_power(1)}


@given(tensors, st.sets(st.integers(0, 12), max_size=4))
def test_decompose_at_requested_n_is_the_restriction(t, ns):
    full = decompose(t)
    assert decompose(t, ns) == {n: h for n, h in full.items() if n in ns}


def test_decompose_at_one_n_skips_the_large_binomials():
    # all-n splitting of 1 (x) D^3000 has 3001 rows; n = 1 alone is one term
    assert decompose(TensorHH({(0, 3000): Fraction(1)}), (1,)) == {
        1: HPoly.d_power(2999, 3000)
    }


@given(tensors)
def test_decompose_then_recompose_is_identity(t):
    assert recompose(decompose(t)) == t


@given(hpolys)
def test_decompose_of_comult_recovers_the_polynomial(f):
    parts = decompose(comult(f))
    assert parts == ({0: f} if f else {})


def test_divided_power_scaling():
    assert HPoly.divided(4) == HPoly.d_power(4, Fraction(1, 24))
    assert HPoly.divided(0) == HPoly.one()


@given(hpolys, st.integers(0, 5))
def test_derivative_matches_falling_factorial(f, m):
    out = {}
    for k, c in f.coeffs.items():
        if k < m:
            continue
        coeff = c
        for i in range(m):
            coeff *= k - i
        out[k - m] = out.get(k - m, Fraction(0)) + coeff
    assert f.derivative(m) == HPoly(out)
