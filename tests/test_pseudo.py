"""Pseudoalgebra layer: products, canonical splitting, identity checks."""

import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from confalg import checks, pseudo
from confalg.hopf import TensorHH, decompose
from confalg.ncpoly import AlgebraConfig, ConfigError, NCPoly
from confalg.pseudo import (
    COACTIONS,
    IdentityTerm,
    PElement,
    ProductKind,
    PseudoAlgebra,
    PseudoTensor,
    PseudoTensor3,
    _cleared,
    _unit_row,
    associator_identity,
    canonicalize,
    commutativity_identity,
    corrupt_coaction,
    current_coaction,
    standard_coaction,
)
from confalg.checks import as_rng, random_pelement

ONEGEN = AlgebraConfig({"a": 1})
ONEGEN_COMM = AlgebraConfig({"a": 1}, commutative=True)
AB = AlgebraConfig({"a": 1, "b": 2})
AB_COMM = AlgebraConfig({"a": 1, "b": 2}, commutative=True)

NONCOMM_KINDS = (ProductKind.P8, ProductKind.P9, ProductKind.P11)
COMM_KINDS = (ProductKind.P10, ProductKind.P20)


def pel(alg, names, coeff=1, d=0):
    return PElement(alg, {0: alg.monomial(names, coeff)}).d_shift(d)


def expand(cls, alg, coords):
    """Back from split's coordinates: key -> ((-D)^(k_1) (x) ... (x) 1) (x)_H c,
    with (-D)^(k) = (-1)^k D^k / k!."""
    return cls(alg, {
        key + (0,): c.scale(Fraction((-1) ** sum(key), math.prod(map(math.factorial, key))))
        for key, c in coords.items()
    })


class TestPElement:
    def test_equality_and_zero(self):
        assert pel(AB, ("a",)) - pel(AB, ("a",)) == PElement(AB)
        assert not PElement(AB)
        assert pel(AB, ("a",), d=2)

    def test_d_shift_accumulates(self):
        x = pel(AB, ("a",))
        assert x.d_shift(2) == x.d_shift(1).d_shift(1)
        assert x.d_shift(0) == x

    def test_negative_shift_is_refused(self):
        with pytest.raises(ValueError) as got:
            pel(AB, ("a",)).d_shift(-1)
        assert type(got.value) is ValueError and str(got.value) == "negative shift"


class TestCoactions:
    def test_standard_matches_poly_coaction(self):
        f = AB.monomial(("v", "a")) + AB.monomial(("b",), -2)
        assert standard_coaction(f) == f.coact()

    def test_current_is_trivial(self):
        f = AB.monomial(("v", "a"))
        assert current_coaction(f) == {0: f}

    def test_corrupt_differs_on_v_words(self):
        f = AB.monomial(("v", "a"))
        assert corrupt_coaction(f) != standard_coaction(f)

    def test_registry(self):
        assert set(COACTIONS) == {"standard", "current", "corrupt"}


class TestPseudoProduct:
    def test_trivial_coaction_concatenates(self):
        pa = PseudoAlgebra(AB, current_coaction)
        t = pa.pprod(ProductKind.P8, pel(AB, ("a",)), pel(AB, ("b",)))
        assert t == PseudoTensor(AB, {(0, 0): pel(AB, ("a", "b"))})

    def test_weyl_products(self):
        pa = PseudoAlgebra(ONEGEN)
        x = pel(ONEGEN, ("v",))
        assert pa.nth(ProductKind.P8, x, 0, x) == pel(ONEGEN, ("v", "v"))
        assert pa.nth(ProductKind.P8, x, 1, x) == pel(ONEGEN, ("v",), -1)
        assert not pa.nth(ProductKind.P8, x, 2, x)

    def test_virasoro_bracket(self):
        pa = PseudoAlgebra(ONEGEN)
        L = pel(ONEGEN, ("v",), -1)
        assert pa.comm_nth(L, 0, L) == L.d_shift(1)
        assert pa.comm_nth(L, 1, L) == L.scale(2)
        assert not pa.comm_nth(L, 2, L)
        assert not pa.comm_nth(L, 3, L)

    def test_product_index_is_a_nonnegative_int(self):
        # n is taken as given or refused: 1.5 must not read as 0, nor 1.0 or True as 1
        pa = PseudoAlgebra(ONEGEN)
        x = pel(ONEGEN, ("v",))
        for n in (1.5, 1.0, True, "1"):
            with pytest.raises(TypeError):
                pa.nth(ProductKind.P8, x, n, x)
            with pytest.raises(TypeError):
                pa.comm_nth(x, n, x)
        with pytest.raises(ValueError):
            pa.nth(ProductKind.P8, x, -1, x)
        with pytest.raises(ValueError):
            pa.comm_nth(x, -1, x)

    def test_split_indices_are_nonnegative_ints(self):
        # checked by split and by decompose: True must not read as 1, 1.5 or
        # -1 as "no such product", nor may 1.0 reach math.comb; a zero tensor
        # has no entry to decompose, so split checks before its entry loop
        pa = PseudoAlgebra(ONEGEN)
        x = pel(ONEGEN, ("v",), d=1)
        t2 = pa.pprod(ProductKind.P8, x, x)
        t3 = pa.star_expanded(ProductKind.P8, t2, x)
        assert t2 and t3
        calls = (
            lambda ns: canonicalize(t2, ns),
            lambda ns: t3.split(ns),
            lambda ns: decompose(TensorHH({(1, 2): 1}), ns),
            lambda ns: canonicalize(PseudoTensor(ONEGEN), ns),
            lambda ns: PseudoTensor3(ONEGEN).split(ns),
        )
        for call in calls:
            for n in (1.5, 1.0, True, "1"):
                with pytest.raises(TypeError):
                    call((n,))
            with pytest.raises(ValueError):
                call((0, -1))

    def test_canonical_splitting_of_weyl_square(self):
        pa = PseudoAlgebra(ONEGEN)
        x = pel(ONEGEN, ("v",))
        t = pa.pprod(ProductKind.P8, x, x)
        assert t.entries == {
            (0, 0): ONEGEN.monomial(("v", "v")),
            (1, 0): ONEGEN.monomial(("v",)),
        }
        can = canonicalize(t)
        assert can == {0: pel(ONEGEN, ("v", "v")), 1: pel(ONEGEN, ("v",), -1)}
        assert t.canonical() == {(n,): p for n, p in can.items()}
        assert expand(PseudoTensor, ONEGEN, t.canonical()) == t

    @pytest.mark.parametrize(
        ("kind", "alg", "want"),
        [
            # x = y = 1(x)v with coact(v) = {0: v, 1: 1}
            (ProductKind.P8, ONEGEN, {(0, 0): (("v", "v"), 1), (1, 0): (("v",), 1)}),
            (ProductKind.P11, ONEGEN, {(0, 0): (("v", "v"), 1), (1, 0): (("v",), -1)}),
            (ProductKind.P9, ONEGEN, {(0, 0): (("v", "v"), 1), (0, 1): (("v",), -1)}),
            (ProductKind.P10, ONEGEN, {(0, 0): (("v", "v"), 1), (0, 1): (("v",), 1)}),
            (ProductKind.P20, ONEGEN_COMM, {
                (0, 0): (("v", "v"), 1), (1, 0): (("v",), 1),
                (0, 1): (("v",), 1), (1, 1): ((), 1),
            }),
        ],
        ids=["P8", "P11", "P9", "P10", "P20"],
    )
    def test_each_kind_by_hand(self, kind, alg, want):
        pa = PseudoAlgebra(alg)
        x = pel(alg, ("v",))
        t = pa.pprod(kind, x, x)
        assert t.entries == {slot: alg.monomial(names, c) for slot, (names, c) in want.items()}

    def test_p20_needs_commutative_words(self):
        pa = PseudoAlgebra(AB)
        with pytest.raises(ConfigError):
            pa.pprod(ProductKind.P20, pel(AB, ("a",)), pel(AB, ("b",)))


def test_closed_form_for_embedded_factors():
    # with the standard coaction the first product kind lands back in the
    # d = 0 slice: n-th coefficient is (-1)^n f * (n-fold deletion of g)
    pa = PseudoAlgebra(AB)
    rng = as_rng(11)
    from confalg.checks import random_ncpoly

    for _ in range(60):
        f = random_ncpoly(rng, AB, max_len=3)
        g = random_ncpoly(rng, AB, max_len=3)
        for n in range(4):
            want = PElement(AB, {0: (f * g.vderiv(n)).scale((-1) ** n)})
            assert pa.nth(ProductKind.P8, PElement(AB, {0: f}), n, PElement(AB, {0: g})) == want


def test_nth_vanishes_beyond_the_coaction_depth():
    # nth splits at its one n, nproducts at every n; all five kinds, the
    # commutative ones on the commutative twin
    for kind, alg in [(k, AB) for k in NONCOMM_KINDS] + [(k, AB_COMM) for k in COMM_KINDS]:
        pa = PseudoAlgebra(alg)
        rng = as_rng(3)
        for _ in range(30):
            x = random_pelement(rng, alg, max_d=2, max_len=3)
            y = random_pelement(rng, alg, max_d=2, max_len=3)
            can = pa.nproducts(kind, x, y)
            top = max(can, default=-1)
            for n in range(top + 2):
                assert pa.nth(kind, x, n, y) == can.get(n, PElement(alg)), (kind, n)
            assert not pa.nth(kind, x, top + 1, y)
            assert not pa.nth(kind, x, top + 4, y)


def test_sesquilinearity_of_the_split_products():
    pa = PseudoAlgebra(AB)
    rng = as_rng(17)
    for kind in (*NONCOMM_KINDS,):
        for _ in range(20):
            x = random_pelement(rng, AB, max_d=1, max_len=2)
            y = random_pelement(rng, AB, max_d=1, max_len=2)
            for n in range(3):
                lhs = pa.nth(kind, x.d_shift(1), n, y)
                rhs = (
                    pa.nth(kind, x, n - 1, y).scale(-n)
                    if n
                    else PElement(AB)
                )
                assert lhs == rhs
                lhs = pa.nth(kind, x, n, y.d_shift(1))
                rhs = pa.nth(kind, x, n, y).d_shift(1)
                if n:
                    rhs = rhs + pa.nth(kind, x, n - 1, y).scale(n)
                assert lhs == rhs


# P-elements of H (x) A over AB with D-powers and v-degrees up to 6
_words = st.lists(st.sampled_from(("a", "b", "v")), max_size=6).map(tuple)
_polys = st.dictionaries(
    _words, st.fractions(min_value=-4, max_value=4, max_denominator=3), min_size=1, max_size=2
).map(lambda t: NCPoly(AB, {AB.word(names): c for names, c in t.items()}))
_pelements = st.dictionaries(st.integers(0, 6), _polys, min_size=1, max_size=2).map(
    lambda parts: PElement(AB, parts)
)


@given(_pelements, _pelements, st.sets(st.integers(0, 14), min_size=1, max_size=3))
def test_cut_pseudoproduct_keeps_the_requested_products(x, y, ns):
    # y's D^(s) lands in slot 1, which only reaches n >= s: components past
    # max(ns) and splitting terms at other n are never needed
    full = PseudoAlgebra(AB).nproducts(ProductKind.P8, x, y)
    cut = PseudoAlgebra(AB, lambda f: f.coact(max(ns)))
    got = canonicalize(cut.pprod(ProductKind.P8, x, y), ns)
    assert got == {n: p for n, p in full.items() if n in ns}


def test_canonicalize_at_requested_n_matches_the_full_form():
    pa = PseudoAlgebra(AB)
    x = pel(AB, ("v", "a"), d=1)
    y = pel(AB, ("v", "v", "b"), d=2)
    t = pa.pprod(ProductKind.P8, x, y)
    full = canonicalize(t)
    assert max(full) > 2
    assert canonicalize(t, (0, 2)) == {n: full[n] for n in (0, 2) if n in full}
    assert canonicalize(t, ()) == {}


def test_the_unit_row_memo_is_decompose():
    for i, j, n in itertools.product(range(6), range(6), range(12)):
        assert _unit_row(i, j, n) == decompose(TensorHH({(i, j): 1}), (n,)).get(n)


def test_a_filled_memo_still_refuses_a_bool_index():
    # True == 1 and hash(True) == hash(1): split must check before the memo
    t = PseudoTensor(AB, {(1, 2): pel(AB, ("v", "b"))})
    _unit_row.cache_clear()
    assert t.split([1])
    assert _unit_row.cache_info().currsize == 1
    with pytest.raises(TypeError):
        t.split([True])


def test_a_tensor_is_stored_in_its_one_form():
    # (D (x) 1) (x)_H D^2 a: Delta(D^2) = D^2 (x) 1 + 2 D (x) D + 1 (x) D^2
    a = AB.monomial(("a",))
    t = PseudoTensor(AB, {(1, 0): pel(AB, ("a",), d=2)})
    assert t.entries == {(1, 2): a, (2, 1): a.scale(2), (3, 0): a}
    other = PseudoTensor(AB, {(1, 1): pel(AB, ("a",), d=1), (2, 0): pel(AB, ("a",), d=1)})
    assert other.entries == t.entries
    assert PseudoTensor(AB, {(1, 2): a, (2, 1): a.scale(2), (3, 0): a}).entries == t.entries
    with pytest.raises(TypeError):
        PseudoTensor(AB, {(0, 0): {AB.word("a"): 1}})


def test_a_split_at_every_n_reads_the_unit_row_memo(monkeypatch):
    calls = []
    real = pseudo.decompose
    monkeypatch.setattr(pseudo, "decompose", lambda *a: calls.append(a) or real(*a))
    t = PseudoTensor(AB, {(1, 2): pel(AB, ("v", "b")), (0, 3): pel(AB, ("a",), d=1)})
    _unit_row.cache_clear()
    first = canonicalize(t)
    assert first and calls
    calls.clear()
    assert canonicalize(t) == first
    assert calls == []


def test_roundtrip_on_random_tensors():
    rng = as_rng(23)
    for _ in range(60):
        entries = {}
        for _k in range(rng.randint(1, 3)):
            key = (rng.randint(0, 3), rng.randint(0, 3))
            p = random_pelement(rng, AB, max_d=1, max_len=2)
            entries[key] = entries[key] + p if key in entries else p
        t = PseudoTensor(AB, entries)
        full = t.canonical()
        assert expand(PseudoTensor, AB, full) == t
        # D-shifted values at arbitrary keys, which no P8 product makes
        ns = set(rng.sample(range(8), rng.randint(0, 4)))
        assert t.split(ns) == {k: p for k, p in full.items() if k[0] in ns}
        assert canonicalize(t, ns) == {n: p for (n,), p in full.items() if n in ns}


@pytest.mark.parametrize("coaction", ("standard", "corrupt"))
@pytest.mark.parametrize(
    ("kind", "alg"),
    [(k, AB) for k in NONCOMM_KINDS] + [(k, AB_COMM) for k in COMM_KINDS],
    ids=[k.value for k in NONCOMM_KINDS + COMM_KINDS],
)
def test_three_slot_coordinates_round_trip(kind, alg, coaction):
    pa = PseudoAlgebra(alg, COACTIONS[coaction])
    rng = as_rng(59)
    for _ in range(4):
        x, y, z = (random_pelement(rng, alg, max_d=2, max_len=3) for _k in range(3))
        for t in (
            pa.star_expanded(kind, pa.pprod(kind, x, y), z),
            pa.star_expanded(kind, x, pa.pprod(kind, y, z)),
        ):
            coords = t.canonical()
            assert coords
            assert expand(PseudoTensor3, alg, coords) == t
            # ns restricts the last coordinate, J
            for ns in ((), (0,), (1, 3), range(6)):
                assert t.split(ns) == {k: p for k, p in coords.items() if k[1] in ns}


class TestAssociativity:
    @pytest.mark.parametrize("kind", NONCOMM_KINDS, ids=lambda k: k.value)
    def test_noncommutative_kinds(self, kind):
        pa = PseudoAlgebra(AB)
        rng = as_rng(29)
        for _ in range(10):
            x = random_pelement(rng, AB, max_d=2, max_len=3)
            y = random_pelement(rng, AB, max_d=2, max_len=3)
            z = random_pelement(rng, AB, max_d=2, max_len=3)
            assert pa.assoc_check(kind, x, y, z)

    @pytest.mark.parametrize("kind", COMM_KINDS, ids=lambda k: k.value)
    def test_commutative_kinds(self, kind):
        pa = PseudoAlgebra(AB_COMM)
        rng = as_rng(31)
        for _ in range(10):
            x = random_pelement(rng, AB_COMM, max_d=2, max_len=3)
            y = random_pelement(rng, AB_COMM, max_d=2, max_len=3)
            z = random_pelement(rng, AB_COMM, max_d=2, max_len=3)
            assert pa.assoc_check(kind, x, y, z)

    def test_corrupt_coaction_is_caught(self):
        # negative control: a broken comodule map must not slip through
        pa = PseudoAlgebra(AB, corrupt_coaction)
        rng = as_rng(0)
        assert not all(
            pa.assoc_check(
                ProductKind.P8,
                random_pelement(rng, AB, max_d=2, max_len=3),
                random_pelement(rng, AB, max_d=2, max_len=3),
                random_pelement(rng, AB, max_d=2, max_len=3),
            )
            for _ in range(25)
        )

    def test_star_rejects_three_fold_nesting(self):
        pa = PseudoAlgebra(AB)
        x = pel(AB, ("a",))
        t3 = pa.star_expanded(
            ProductKind.P8, pa.pprod(ProductKind.P8, x, x), x
        )
        assert isinstance(t3, PseudoTensor3)
        with pytest.raises(TypeError):
            pa.star_expanded(ProductKind.P8, t3, x)


class TestPermutations:
    def test_swap_is_an_involution(self):
        rng = as_rng(37)
        for _ in range(20):
            t = PseudoTensor(
                AB,
                {
                    (rng.randint(0, 2), rng.randint(0, 2)): random_pelement(
                        rng, AB, max_d=1, max_len=2
                    )
                },
            )
            assert t.permute((2, 1)).permute((2, 1)) == t

    def test_repr_lists_entries_by_key(self):
        t = PseudoTensor(AB, {(1, 0): pel(AB, ("a", "b"), 2), (0, 2): pel(AB, ("v", "b"), -1)})
        assert repr(t) == "(D^0(x)D^2)(x)(-1*vb) + (D^1(x)D^0)(x)(2*ab)"
        assert repr(PseudoTensor(AB)) == "0"

    def test_keys_and_permutations_must_fit_the_slots(self):
        x = pel(AB, ("a",))
        with pytest.raises(ValueError) as got:
            PseudoTensor(AB, {(1,): x})
        assert type(got.value) is ValueError
        assert str(got.value) == "expected 2 slot degrees, got (1,)"
        with pytest.raises(ValueError) as got:
            PseudoTensor(AB, {(0, 1): x}).permute((1, 1))
        assert type(got.value) is ValueError
        assert str(got.value) == "not a permutation of 1..2: (1, 1)"

    def test_permute_composes(self):
        rng = as_rng(41)
        sigmas = [(1, 3, 2), (2, 1, 3), (3, 1, 2), (2, 3, 1)]
        for _ in range(10):
            t = PseudoTensor3(
                AB,
                {
                    (
                        rng.randint(0, 2),
                        rng.randint(0, 2),
                        rng.randint(0, 2),
                    ): random_pelement(rng, AB, max_d=1, max_len=2)
                },
            )
            assert t.permute((1, 2, 3)) == t
            # permute(s) sends slot m to slot s(m), so applying u after s
            # lands slot m at u(s(m))
            for s in sigmas:
                for u in sigmas:
                    comp = tuple(u[s[i] - 1] for i in range(3))
                    assert t.permute(s).permute(u) == t.permute(comp)


class TestIdentityEvaluation:
    def test_commutativity_holds_for_symmetric_product(self):
        pa = PseudoAlgebra(AB_COMM)
        rng = as_rng(43)
        for _ in range(10):
            args = [
                random_pelement(rng, AB_COMM, max_d=2, max_len=3)
                for _ in range(2)
            ]
            assert pa.eval_identity(
                commutativity_identity(), ProductKind.P20, args
            ) == {}

    def test_commutativity_fails_for_ordered_words(self):
        pa = PseudoAlgebra(AB)
        args = [pel(AB, ("a",)), pel(AB, ("b",))]
        value = pa.eval_identity(commutativity_identity(), ProductKind.P8, args)
        assert value

    def test_associator_vanishes(self):
        pa = PseudoAlgebra(AB)
        rng = as_rng(47)
        for _ in range(5):
            args = [
                random_pelement(rng, AB, max_d=2, max_len=3) for _ in range(3)
            ]
            assert pa.eval_identity(
                associator_identity(), ProductKind.P8, args
            ) == {}

    @pytest.mark.parametrize(
        ("terms", "kind", "alg", "arity"),
        [
            (commutativity_identity(), ProductKind.P8, AB, 2),
            (associator_identity(), ProductKind.P8, AB, 3),
            (associator_identity(), ProductKind.P20, AB_COMM, 3),
        ],
        ids=["commutativity", "associator", "associator-comm"],
    )
    def test_coordinates_come_in_sorted_key_order(self, terms, kind, alg, arity):
        pa = PseudoAlgebra(alg, corrupt_coaction)
        rng = as_rng(3)
        sizes = []
        for _ in range(5):
            args = [random_pelement(rng, alg, max_d=2, max_len=3) for _k in range(arity)]
            value = pa.eval_identity(terms, kind, args)
            assert list(value) == sorted(value)
            sizes.append(len(value))
        assert max(sizes) > 1

    def test_no_terms_sum_to_zero(self):
        args = [pel(AB, ("a",)), pel(AB, ("b",))]
        assert PseudoAlgebra(AB).eval_identity((), ProductKind.P8, args) == {}

    @pytest.mark.parametrize(
        ("args", "terms", "kind", "message"),
        [
            ([], commutativity_identity(), ValueError, "between one and three arguments are supported"),
            ([pel(AB, ("a",))] * 4, commutativity_identity(), ValueError,
             "between one and three arguments are supported"),
            ([pel(AB, ("a",)), AB.monomial(("b",))], commutativity_identity(), TypeError,
             "arguments must be PElement values"),
            ([pel(AB, ("a",))] * 2, (IdentityTerm((1, 2), (1, 2, 3)),), ValueError,
             "malformed tree node: (1, 2, 3)"),
        ],
        ids=["no-arguments", "four-arguments", "not-a-pelement", "three-way-node"],
    )
    def test_unusable_arguments_are_named(self, args, terms, kind, message):
        with pytest.raises((TypeError, ValueError)) as got:
            PseudoAlgebra(AB).eval_identity(terms, ProductKind.P8, args)
        assert type(got.value) is kind and str(got.value) == message

    def test_a_term_is_an_immutable_value(self):
        term = IdentityTerm(sigma=(2, 1), tree=(1, 2))
        assert term.coeff == 1 and (term.sigma, term.tree) == ((2, 1), (1, 2))
        same = IdentityTerm((2, 1), (1, 2), 1)
        assert term == same and hash(term) == hash(same)
        assert term != IdentityTerm((2, 1), (1, 2), -1)
        assert commutativity_identity() == (
            IdentityTerm((1, 2), (1, 2)), IdentityTerm(sigma=(2, 1), tree=(1, 2), coeff=-1)
        )
        for name in ("sigma", "tree", "coeff"):
            with pytest.raises(AttributeError):
                setattr(term, name, 0)
        assert term == same

    def test_malformed_terms_are_rejected(self):
        pa = PseudoAlgebra(AB)
        x = pel(AB, ("a",))
        with pytest.raises(ValueError):
            pa.eval_identity(
                (IdentityTerm((1, 1), (1, 2)),), ProductKind.P8, [x, x]
            )
        with pytest.raises(ValueError):
            pa.eval_identity(
                (IdentityTerm((1, 2), (1, 3)),), ProductKind.P8, [x, x]
            )
        with pytest.raises(ValueError):
            pa.eval_identity(
                (IdentityTerm((1, 2), (1, 2)),), ProductKind.P8, [x]
            )


class TestIntNumerators:
    """The pseudo layer computes on int numerators and divides once."""

    @pytest.mark.parametrize("coaction", sorted(COACTIONS))
    @pytest.mark.parametrize(
        ("kind", "alg"),
        [(ProductKind.P8, AB), (ProductKind.P9, AB), (ProductKind.P10, AB),
         (ProductKind.P11, AB), (ProductKind.P20, AB_COMM)],
        ids=lambda v: v.value if isinstance(v, ProductKind) else None,
    )
    def test_numerators_give_the_scaled_product(self, kind, alg, coaction):
        pa = PseudoAlgebra(alg, COACTIONS[coaction])
        rng = as_rng(61)
        dens = set()
        for _ in range(8):
            x, y = (random_pelement(rng, alg, max_d=2, max_len=3) for _ in range(2))
            (ix, lx), (iy, ly) = _cleared(x), _cleared(y)
            assert {c.__class__ for p in (ix, iy) for f in p.parts.values() for c in f.terms.values()} == {int}
            assert pa.pprod(kind, ix, iy) == pa.pprod(kind, x, y).scale(lx * ly)
            dens.update((lx, ly))
        assert max(dens) > 1

    def test_int_arguments_give_int_products_under_the_standard_coaction(self):
        # every word over a and v with up to 4 v's: components s = 2..4 are
        # divided by s! = 2, 6, 24
        pa = PseudoAlgebra(AB)
        words = [AB.word(w) for k in range(1, 5) for w in itertools.product("av", repeat=k)]
        points = [PElement._of(AB, {0: NCPoly._of(AB, {w: 1})}) for w in words]
        seen = set()
        for kind in (ProductKind.P8, ProductKind.P9, ProductKind.P10, ProductKind.P11):
            for x in points:
                for y in points:
                    for f in pa.pprod(kind, x, y).entries.values():
                        seen.update(c.__class__ for c in f.terms.values())
        assert seen == {int}

    def test_a_component_that_does_not_divide_gives_exact_fractions(self):
        # component 2 is f itself, so an int coefficient 1 is divided by 2!
        pa = PseudoAlgebra(AB, lambda f: {0: f, 2: f})
        x = PElement._of(AB, {0: NCPoly._of(AB, {AB.word("a"): 1})})
        y = PElement._of(AB, {0: NCPoly._of(AB, {AB.word("b"): 3})})
        t = pa.pprod(ProductKind.P8, x, y)
        assert t == PseudoTensor(AB, {(0, 0): pel(AB, ("a", "b"), 3), (2, 0): pel(AB, ("a", "b"), Fraction(3, 2))})
        assert t.entries[2, 0].terms == {AB.word("ab"): Fraction(3, 2)}

    def test_term_coefficients_scale_the_identity(self):
        # under the corrupt coaction the associator does not vanish
        pa = PseudoAlgebra(AB, corrupt_coaction)
        rng = as_rng(5)
        first, second = (IdentityTerm(t.sigma, t.tree, 1) for t in associator_identity())
        terms = (IdentityTerm(first.sigma, first.tree, Fraction(1, 2)),
                 IdentityTerm(second.sigma, second.tree, "-3/2"))
        nonzero = 0
        for _ in range(4):
            args = [random_pelement(rng, AB, max_d=2, max_len=3) for _ in range(3)]
            a = pa.eval_identity((first,), ProductKind.P8, args)
            b = pa.eval_identity((second,), ProductKind.P8, args)
            x, y, z = args
            left = pa.star_expanded(ProductKind.P8, pa.pprod(ProductKind.P8, x, y), z)
            assert a == dict(sorted(left.canonical().items()))
            want = {}
            for key in sorted(set(a) | set(b)):
                value = a.get(key, PElement(AB)).scale(Fraction(1, 2)) - b.get(key, PElement(AB)).scale(Fraction(3, 2))
                if value:
                    want[key] = value
            got = pa.eval_identity(terms, ProductKind.P8, args)
            assert got == want
            assert {c.__class__ for p in got.values() for f in p.parts.values() for c in f.terms.values()} <= {Fraction}
            nonzero += bool(got)
        assert nonzero

    def test_a_failure_prints_the_drawn_arguments(self):
        # seed 0 draws y with the coefficient 1/2; its numerators would print 4*a + 6*v + vb
        _, (_, case, detail) = checks.run(AlgebraConfig({"a": 2, "b": 3}), "pseudo-assoc", 25, 0, "corrupt")
        assert case == "kind P11"
        assert detail == (
            "x=D^2(x)(aa + ba + 3*ava) y=1(x)(2*a + 3*v + 1/2*vb) "
            "z=1(x)(-2*a + 3*vvb) + D(x)(-2*1 + 3*av)"
        )


def test_random_generators_are_deterministic():
    a = random_pelement(as_rng(5), AB, max_d=2, max_len=3)
    b = random_pelement(as_rng(5), AB, max_d=2, max_len=3)
    assert a == b and a
