"""The axiom-check library: verdicts, trial-major replay, and the CLI's view of it."""

import argparse

import pytest

from confalg import checks
from confalg.cli import build_parser
from confalg.ncpoly import AlgebraConfig

AB = AlgebraConfig({"a": 2, "b": 3})
COMM = AlgebraConfig({"a": 1, "b": 2}, commutative=True)

# the axiom/config pairs of the benchmark's axiom-check workload, with their labels
PAIRS = [
    (AB, "assoc", ""), (AB, "sesqui", ""), (AB, "locality", ""),
    (AB, "pseudo-assoc", "kinds P8,P9,P11"), (AB, "identity", "associator"),
    (COMM, "pseudo-assoc", "kinds P10,P20"), (COMM, "identity", "commutativity,associator"),
]


@pytest.mark.parametrize(("alg", "axiom", "label"), PAIRS)
def test_every_benchmark_pair_passes(alg, axiom, label):
    assert checks.run(alg, axiom, 3, 7) == (label, None)


@pytest.mark.parametrize(
    ("alg", "axiom"),
    [(AB, "pseudo-assoc"), (AB, "identity"), (COMM, "pseudo-assoc"), (COMM, "identity")],
)
def test_corrupt_failure_replays_with_one_more_trial(alg, axiom):
    label, failure = checks.run(alg, axiom, 25, 0, coaction="corrupt")
    assert failure is not None
    trial, case, detail = failure
    assert case in {name for name, _, _ in checks._cases(alg, axiom, "corrupt")[1]}
    assert detail
    assert checks.run(alg, axiom, trial + 1, 0, coaction="corrupt") == (label, failure)
    assert checks.run(alg, axiom, trial, 0, coaction="corrupt") == (label, None)


def test_more_trials_never_change_the_earlier_draws(monkeypatch):
    seen = []
    test, elements, indices = checks._CONFORMAL["sesqui"]

    def spy(fc, x, y, n):
        seen.append((x, y, n))
        return test(fc, x, y, n)

    monkeypatch.setitem(checks._CONFORMAL, "sesqui", (spy, elements, indices))
    checks.run(AB, "sesqui", 2, 11)
    short = list(seen)
    seen.clear()
    checks.run(AB, "sesqui", 4, 11)
    assert len(seen) == 4 and seen[:2] == short


@pytest.mark.parametrize(
    ("alg", "axiom", "coaction"),
    [(COMM, "assoc", "standard"), (AB, "locality", "corrupt"), (AB, "nonsense", "standard")],
)
def test_unusable_requests_raise(alg, axiom, coaction):
    with pytest.raises(ValueError):
        checks.run(alg, axiom, 1, 0, coaction=coaction)


def test_cli_axiom_choices_are_the_library_axioms():
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    axiom = next(a for a in sub.choices["check"]._actions if a.dest == "axiom")
    assert tuple(axiom.choices) == checks.AXIOMS
