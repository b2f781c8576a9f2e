import json
import math
from fractions import Fraction
from pathlib import Path

import pytest

from confalg import AlgebraConfig, ConfElement, FreeConformal, NormalWord, PseudoAlgebra
from confalg.hopf import HPoly, TensorHH, _spread
from confalg.linear import accumulate, collect, exact
from confalg.ncpoly import Word

DATA = Path(__file__).parent / "data"


def hmul(f: HPoly, g: HPoly) -> HPoly:
    """The product of two polynomials in D."""
    return HPoly(collect(
        (d1 + d2, c1 * c2) for d1, c1 in f.coeffs.items() for d2, c2 in g.coeffs.items()
    ))


def tmul(s: TensorHH, t: TensorHH) -> TensorHH:
    """The product of H (x) H, slot by slot."""
    return TensorHH(collect(
        ((i1 + i2, j1 + j2), c1 * c2)
        for (i1, j1), c1 in s.coeffs.items()
        for (i2, j2), c2 in t.coeffs.items()
    ))


def comult(h: HPoly) -> TensorHH:
    """Delta(D^m) = sum_a C(m, a) D^a (x) D^(m-a), extended linearly; read
    off hopf._spread, the coproduct the pseudo layer uses."""
    return TensorHH(collect(
        (powers, c * k) for m, c in h.coeffs.items() for powers, k in _spread(m, 2)
    ))


def recompose(parts: dict[int, HPoly]) -> TensorHH:
    """Inverse of hopf.decompose: sum_n ((-D)^(n) (x) 1) * Delta(h_n)."""
    total = TensorHH()
    for n, h in parts.items():
        lead = TensorHH({(n, 0): Fraction((-1) ** n, math.factorial(n))})
        total = total + tmul(lead, comult(h))
    return total


def hat_word(fc: FreeConformal, u: NormalWord) -> tuple[int, Word]:
    """(sign, hat word) of a D-free u: iota(u)'s deg-lex-least monomial and
    the sign of its coefficient."""
    return (-1) ** sum(u.indices), fc._hat(u)


def normal(fc: FreeConformal, s: int, gens, indices) -> NormalWord:
    """The word D^s of (gens, indices), once fc has validated it."""
    return fc.validate(NormalWord(s, tuple(gens), tuple(indices)))


def word_from_json(fc: FreeConformal, obj) -> NormalWord:
    """The valid word of a FreeConformal.word_to_json object."""
    return normal(fc, obj["s"], obj["gens"], obj["indices"])


def element_from_json(fc: FreeConformal, items) -> ConfElement:
    """The element of a FreeConformal.element_to_json list."""
    out: dict = {}
    for item in items:
        accumulate(out, word_from_json(fc, item["word"]), exact(item["coeff"]))
    return ConfElement._of(out)


@pytest.fixture(scope="session")
def alg_ab():
    return AlgebraConfig({"a": 2, "b": 3})


@pytest.fixture(scope="session")
def fc_ab(alg_ab):
    return FreeConformal(alg_ab)


@pytest.fixture(scope="session")
def alg_small():
    return AlgebraConfig({"a": 1, "b": 2})


@pytest.fixture(scope="session")
def fc_small(alg_small):
    return FreeConformal(alg_small)


@pytest.fixture(scope="session")
def pa_small(alg_small):
    return PseudoAlgebra(alg_small)


@pytest.fixture(scope="session")
def corpus():
    with open(DATA / "corpus.json", encoding="utf-8") as fh:
        return json.load(fh)
