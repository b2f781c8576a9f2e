"""Acceptance gate: ten criteria, each one test, each printing one line.

Every check is exact rational arithmetic; there are no tolerances anywhere
in this file. The two timed criteria build their objects fresh so the
clock includes all cache warming.
"""

import itertools
import json
import math
import time
from collections import Counter
from fractions import Fraction

from confalg.cli import main
from confalg.checks import as_rng, random_element, random_pelement
from confalg.freeconf import ConfElement, FreeConformal
from confalg.hopf import TensorHH, decompose
from confalg.ncpoly import AlgebraConfig, deglex_key
from confalg.pseudo import (
    PElement,
    ProductKind,
    PseudoAlgebra,
    PseudoTensor,
    associator_identity,
    commutativity_identity,
    current_coaction,
)

from conftest import DATA, recompose


def _fresh_ab() -> FreeConformal:
    return FreeConformal(AlgebraConfig({"a": 2, "b": 3}))


def test_criterion_01_associativity_of_generator_triples():
    t0 = time.monotonic()
    fc = _fresh_ab()
    gens = {g: fc.generator(g) for g in ("a", "b")}
    checked = 0
    for x, y, z in itertools.product("ab", repeat=3):
        for n in range(7):
            for m in range(7):
                assert not fc.associativity_defect(
                    gens[x], n, gens[y], m, gens[z]
                ), (x, n, y, m, z)
                checked += 1
    elapsed = time.monotonic() - t0
    assert checked == 8 * 49
    assert elapsed < 10.0
    print(
        f"criterion 1: PASS (392 associativity instances, exact, {elapsed:.2f}s)"
    )


def test_criterion_02_distinct_hats_and_independent_images():
    t0 = time.monotonic()
    fc = _fresh_ab()
    words = fc.enumerate_basis(3)
    assert len(words) == 312
    per_k = Counter(len(u.gens) - 1 for u in words)
    assert per_k == {0: 2, 1: 10, 2: 50, 3: 250}

    hats = [fc.sort_key(u)[2] for u in words]
    assert len(set(hats)) == 312

    # exact sparse elimination: every image must add a new pivot
    pivots: dict[tuple, dict] = {}
    for u in words:
        row = dict(fc.iota_word(u).parts[0].terms)
        while row:
            low = min(row, key=deglex_key)
            hit = pivots.get(low)
            if hit is None:
                c = row[low]
                pivots[low] = {w: v / c for w, v in row.items()}
                break
            c = row[low]
            for w, v in hit.items():
                nv = row.get(w, Fraction(0)) - c * v
                if nv:
                    row[w] = nv
                else:
                    row.pop(w, None)
        else:
            raise AssertionError(f"image of {u} is in the span of the others")
    assert len(pivots) == 312
    elapsed = time.monotonic() - t0
    assert elapsed < 30.0
    print(
        f"criterion 2: PASS (312 distinct hats, full rank, {elapsed:.2f}s)"
    )


def test_criterion_03_exact_locality_on_generator_pairs():
    fc = _fresh_ab()
    for x, y in itertools.product("ab", repeat=2):
        bound = fc.alg.n_of(y)
        gx, gy = fc.generator(x), fc.generator(y)
        assert fc.cprod(gx, bound - 1, gy), (x, y)
        assert not fc.cprod(gx, bound, gy), (x, y)
        assert fc.locality_of(gx, gy) == bound
    print("criterion 3: PASS (4 generator pairs vanish exactly at n(b))")


def test_criterion_04_realization_and_rewriting_engines_agree():
    fc = _fresh_ab()
    rng = as_rng(104)
    for trial in range(200):
        x = random_element(rng, fc, max_k=2, max_s=1, max_terms=2)
        y = random_element(rng, fc, max_k=2, max_s=1, max_terms=2)
        n = rng.randint(0, 8)
        assert fc.cprod(x, n, y) == fc.cprod_rw(x, n, y), (trial, n, x, y)
    print("criterion 4: PASS (200 random products, both engines, exact)")


def test_criterion_05_pseudo_product_associativity():
    alg = AlgebraConfig({"a": 1, "b": 2})
    alg_c = AlgebraConfig({"a": 1, "b": 2}, commutative=True)
    pa, pc = PseudoAlgebra(alg), PseudoAlgebra(alg_c)
    rng = as_rng(105)
    for kind in (ProductKind.P8, ProductKind.P9, ProductKind.P11):
        for trial in range(100):
            args = [
                random_pelement(rng, alg, max_d=2, max_len=3) for _ in range(3)
            ]
            assert pa.assoc_check(kind, *args), (kind, trial)
    for kind in (ProductKind.P10, ProductKind.P20):
        for trial in range(100):
            args = [
                random_pelement(rng, alg_c, max_d=2, max_len=3)
                for _ in range(3)
            ]
            assert pc.assoc_check(kind, *args), (kind, trial)
    print("criterion 5: PASS (100 triples for each of the 5 product kinds)")


def test_criterion_06_canonical_splitting_round_trips():
    alg = AlgebraConfig({"a": 1, "b": 2})
    pa = PseudoAlgebra(alg)
    rng = as_rng(106)
    for trial in range(100):
        p = random_pelement(rng, alg, max_d=2, max_len=3)
        q = random_pelement(rng, alg, max_d=2, max_len=3)
        t = pa.pprod(ProductKind.P8, p, q)
        # ((-D)^(n) (x) 1) (x)_H c_n, with (-D)^(n) = (-1)^n D^n / n!
        back = PseudoTensor(alg, {
            (n, 0): c.scale(Fraction((-1) ** n, math.factorial(n))) for (n,), c in t.canonical().items()
        })
        assert back == t, trial

    # same splitting at the coefficient level, random two-sided polynomials
    for trial in range(100):
        entries = {}
        for _ in range(rng.randint(1, 4)):
            key = (rng.randint(0, 4), rng.randint(0, 4))
            c = Fraction(rng.randint(-6, 6), rng.randint(1, 3))
            if c:
                entries[key] = entries.get(key, Fraction(0)) + c
        t = TensorHH(entries)
        assert recompose(decompose(t)) == t, trial
    print("criterion 6: PASS (100 product splittings + 100 raw splittings)")


def test_criterion_07_identities_transfer_to_the_symmetric_product():
    alg = AlgebraConfig({"a": 1, "b": 2})
    alg_c = AlgebraConfig({"a": 1, "b": 2}, commutative=True)
    pa, pc = PseudoAlgebra(alg), PseudoAlgebra(alg_c)
    rng = as_rng(107)
    comm = commutativity_identity()
    for trial in range(100):
        args = [random_pelement(rng, alg_c, max_d=2, max_len=3) for _ in range(2)]
        assert pc.eval_identity(comm, ProductKind.P20, args) == {}, trial
    assoc = associator_identity()
    for trial in range(50):
        args = [random_pelement(rng, alg, max_d=2, max_len=3) for _ in range(3)]
        assert pa.eval_identity(assoc, ProductKind.P8, args) == {}, trial
    print("criterion 7: PASS (commutativity 100 pairs, associator 50 triples)")


def test_criterion_08_worked_examples_are_exact():
    two = AlgebraConfig({"a": 1, "b": 1})
    cur = PseudoAlgebra(two, current_coaction)
    xa = PElement(two, {0: two.monomial(("a",))})
    xb = PElement(two, {0: two.monomial(("b",))})
    assert cur.nth(ProductKind.P8, xa, 0, xb) == PElement(two, {0: two.monomial(("a", "b"))})
    for n in range(1, 4):
        assert not cur.nth(ProductKind.P8, xa, n, xb)

    one = AlgebraConfig({"a": 1})
    pa = PseudoAlgebra(one)
    x = PElement(one, {0: one.monomial(("v",))})
    assert pa.nth(ProductKind.P8, x, 0, x) == PElement(one, {0: one.monomial(("v", "v"))})
    assert pa.nth(ProductKind.P8, x, 1, x) == x.scale(-1)
    assert not pa.nth(ProductKind.P8, x, 2, x)

    L = x.scale(-1)
    assert pa.comm_nth(L, 0, L) == L.d_shift(1)
    assert pa.comm_nth(L, 1, L) == L.scale(2)
    for n in range(2, 6):
        assert not pa.comm_nth(L, n, L)
    print("criterion 8: PASS (current, weyl, virasoro values, exact)")


def test_criterion_09_enumeration_matches_the_counting_formula():
    configs = (
        {"a": 2, "b": 3},
        {"u": 1},
        {"x": 1, "y": 2, "z": 3},
    )
    for localities in configs:
        fc = FreeConformal(AlgebraConfig(localities))
        words = fc.enumerate_basis(4)
        per_k = Counter(len(u.gens) - 1 for u in words)
        total_n = sum(localities.values())
        for k in range(5):
            want = len(localities) * total_n ** k
            assert fc.basis_count(k) == want
            assert per_k[k] == want, (localities, k)
        assert len(set(words)) == len(words)
    print("criterion 9: PASS (counts match for k <= 4 in 3 configs)")


def test_criterion_10_cli_corpus_and_exit_codes(capsys):
    with open(DATA / "corpus.json", encoding="utf-8") as fh:
        corpus = json.load(fh)
    config = str(DATA / corpus["config"])
    assert len(corpus["expressions"]) == 20

    def run(*argv):
        rc = main(list(argv))
        cap = capsys.readouterr()
        return rc, cap.out, cap.err

    for expr in corpus["expressions"]:
        rc1, out1, err1 = run(
            "reduce", "--config", config, "--expr", expr, "--engine", "realize"
        )
        rc2, out2, _ = run(
            "reduce", "--config", config, "--expr", expr, "--engine", "rewrite"
        )
        rc3, out3, _ = run(
            "reduce", "--config", config, "--expr", expr, "--engine", "realize"
        )
        assert rc1 == rc2 == rc3 == 0, expr
        assert err1 == ""
        assert out1 == out2 == out3, expr
        json.loads(out1.splitlines()[1])  # second line is machine-readable

    # exit code 1: unusable input
    rc, _, err = run("reduce", "--config", config, "--expr", "(a .x b)")
    assert rc == 1 and err
    rc, _, err = run(
        "reduce", "--config", str(DATA / "bad" / "config_dup.json"), "--expr", "a"
    )
    assert rc == 1 and err

    # exit code 2: element outside the normal-word span
    rc, _, err = run(
        "reduce", "--config", config,
        "--raw-element", str(DATA / "raw_not_in_span.json"),
    )
    assert rc == 2 and err

    # exit code 3: axiom violation under a deliberately broken coaction
    rc, out, _ = run(
        "check", "--config", config, "--axiom", "pseudo-assoc",
        "--coaction", "corrupt", "--trials", "25", "--seed", "0",
    )
    assert rc == 3 and "FAIL" in out
    print("criterion 10: PASS (20 expressions engine-stable, exit codes 0/1/2/3)")
