import json
from pathlib import Path

import pytest

from confalg import AlgebraConfig, ConfElement, FreeConformal, NormalWord, PseudoAlgebra
from confalg.linear import accumulate, exact

DATA = Path(__file__).parent / "data"


def word_from_json(fc: FreeConformal, obj) -> NormalWord:
    """The valid word of a FreeConformal.word_to_json object."""
    return fc.validate(NormalWord(obj["s"], tuple(obj["gens"]), tuple(obj["indices"])))


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
