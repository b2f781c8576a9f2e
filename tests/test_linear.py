"""The exact linear-combination core, exercised through all eight containers.

Every container stores a sparse {key: value} dict without zeros, compares
term by term, and accepts only exact coefficients: ints, Fractions and
rational strings.  Floats, complex numbers and Decimals raise TypeError.
"""

from decimal import Decimal
from fractions import Fraction

import pytest

import confalg
from confalg import (
    AlgebraConfig,
    CanonicalPseudo,
    ConfElement,
    FreeConformal,
    HPoly,
    IdentityTerm,
    NCPoly,
    NormalWord,
    PElement,
    PseudoAlgebra,
    PseudoTensor,
    PseudoTensor3,
    TensorHH,
)
from confalg.linear import AlgLinear, exact

ALG = AlgebraConfig({"a": 2, "b": 3})
U = NormalWord(0, ("a", "b"), (1,))


def _poly(c=1) -> NCPoly:
    return NCPoly(ALG, {(0, 2): c, (1,): Fraction(-1, 2)})


def _pel() -> PElement:
    return PElement(ALG, {0: _poly(), 2: _poly(3)})


# class -> (a nonzero sample, a key to pair with a zero value, that zero value)
CASES = {
    HPoly: (lambda: HPoly({0: Fraction(7, 2), 3: -1}), 5, 0),
    TensorHH: (lambda: TensorHH({(0, 1): 2, (3, 0): Fraction(1, 3)}), (1, 1), 0),
    NCPoly: (_poly, (1, 1), 0),
    ConfElement: (
        lambda: ConfElement({U: Fraction(-3, 2), NormalWord(1, ("a",), ()): 1}),
        NormalWord(0, ("b",), ()),
        Fraction(0),
    ),
    PElement: (_pel, 4, NCPoly(ALG)),
    PseudoTensor: (
        lambda: PseudoTensor(ALG, {(0, 1): _pel(), (2, 0): _pel().scale(2)}),
        (5, 5),
        PElement(ALG),
    ),
    PseudoTensor3: (lambda: PseudoTensor3(ALG, {(0, 1, 0): _pel()}), (5, 5, 5), PElement(ALG)),
    CanonicalPseudo: (
        lambda: CanonicalPseudo(ALG, {0: _pel(), 1: _pel().scale(-1)}),
        7,
        PElement(ALG),
    ),
}
CLASSES = list(CASES)


def build(cls, terms):
    return cls(ALG, terms) if issubclass(cls, AlgLinear) else cls(terms)


def zero(cls):
    return cls.zero(ALG) if issubclass(cls, AlgLinear) else cls.zero()


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
def test_container_laws(cls):
    sample, key, zero_value = CASES[cls]
    x = sample()
    z = zero(cls)
    assert x and not z
    assert x == sample() and x != z

    total = x + (-x)
    assert total == z and not total
    assert x - x == z
    assert x.scale(0) == z and not x.scale(0)
    assert x.scale(Fraction(1, 2)).scale(2) == x

    terms = dict(x.terms)
    terms[key] = zero_value
    y = build(cls, terms)
    assert key not in y.terms and y == x

    for other in CLASSES:
        if other is not cls:
            assert x != CASES[other][0]()
            assert z != zero(other)

    assert cls.__hash__ is None
    with pytest.raises(TypeError):
        hash(x)


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
@pytest.mark.parametrize("bad", [0.5, 1.0, 1j, Decimal("0.5")], ids=repr)
def test_scale_rejects_inexact_scalars(cls, bad):
    with pytest.raises(TypeError):
        CASES[cls][0]().scale(bad)


@pytest.mark.parametrize("bad", [0.1, 2.0, 1 + 0j, Decimal("0.1")], ids=repr)
def test_constructors_reject_inexact_coefficients(bad):
    with pytest.raises(TypeError):
        ConfElement({U: bad})
    with pytest.raises(TypeError):
        NCPoly(ALG, {(0,): bad})
    with pytest.raises(TypeError):
        HPoly({1: bad})
    with pytest.raises(TypeError):
        PElement(ALG, {0: {(0,): bad}})


def test_exact_accepts_ints_fractions_and_rational_strings():
    assert exact(3) == 3 and type(exact(3)) is Fraction
    half = Fraction(1, 2)
    assert exact(half) is half
    assert exact("-3/4") == Fraction(-3, 4)
    assert exact("0.1") == Fraction(1, 10)
    assert NCPoly(ALG, {(0,): "1/3"}).terms == {(0,): Fraction(1, 3)}
    with pytest.raises(ValueError):
        exact("one half")


def test_json_and_identity_coefficients_are_exact():
    fc = FreeConformal(ALG)
    item = {"word": fc.word_to_json(U)}
    assert fc.element_from_json([dict(item, coeff="2/3")]) == ConfElement.single(U, Fraction(2, 3))
    with pytest.raises(TypeError):
        fc.element_from_json([dict(item, coeff=0.1)])
    pa = PseudoAlgebra(ALG)
    x = PElement.from_poly(ALG, _poly())
    with pytest.raises(TypeError):
        pa.eval_identity([IdentityTerm((1,), 1, 0.5)], "P8", [x])
    assert pa.eval_identity([IdentityTerm((1,), 1, "1/2")], "P8", [x]) == {(): x.scale(Fraction(1, 2))}


def test_public_constructors_still_validate():
    with pytest.raises(ValueError):
        HPoly({-1: 1})
    with pytest.raises(ValueError):
        PElement(ALG, {-1: _poly()})
    comm = AlgebraConfig({"a": 1, "b": 1}, commutative=True)
    assert NCPoly(comm, {(1, 0): 1, (0, 1): 2}).terms == {(0, 1): Fraction(3)}


def test_every_export_resolves():
    for name in confalg.__all__:
        assert getattr(confalg, name) is not None, name
    namespace: dict = {}
    exec("from confalg import *", namespace)
    assert set(confalg.__all__) <= set(namespace)
