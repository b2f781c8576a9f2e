"""Free conformal algebra: realization engine, rewriting engine, normal form.

The two product engines share no code past the word algebra, which is the
point: each one is the oracle for the other.
"""

import gc
import hashlib
import itertools
import json
import math
import os
import pickle
import subprocess
import sys
import tracemalloc
import weakref
from fractions import Fraction
from pathlib import Path

import pytest

import confalg
from confalg.cli import dump_json, load_config, main
from confalg.freeconf import (
    ENGINES,
    ConfElement,
    FreeConformal,
    NormalWord,
    NotInSpan,
    _fraction,
    generator_image,
)
from confalg import cli, pseudo
from confalg.hopf import HPoly, TensorHH, decompose
from confalg.ncpoly import AlgebraConfig, ConfigError, NCPoly, deglex_key
from confalg.pseudo import PElement, ProductKind, PseudoAlgebra
from confalg.checks import as_rng, random_element, random_normal_word

from conftest import DATA, element_from_json, hat_word, normal, word_from_json


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
        normal(fc, 0, ("a", "b"), (1,))
        with pytest.raises(ValueError):
            normal(fc, 0, ("a", "b"), (2,))
        with pytest.raises(ValueError):
            normal(fc, 0, ("b", "a"), (1,))
        with pytest.raises(ValueError):
            normal(fc, -1, ("a",), ())
        with pytest.raises(ValueError):
            normal(fc, 0, ("a", "b"), ())

    def test_unknown_generator(self, fc):
        with pytest.raises(ConfigError):
            normal(fc, 0, ("q",), ())

    def test_commutative_config_is_rejected(self):
        with pytest.raises(ConfigError):
            FreeConformal(AlgebraConfig({"a": 1}, commutative=True))


class TestWordStorage:
    """NormalWord stores its hash; the trusted constructor checks nothing."""

    PARTS = [(0, ("a",), ()), (2, ("b", "a", "b"), (1, 0)), (1, ("a", "b"), (0,))]

    @pytest.mark.parametrize("parts", PARTS)
    def test_trusted_words_match_public_ones(self, parts):
        u, v = NormalWord(*parts), NormalWord._of(*parts)
        assert u == v and hash(u) == hash(v) == hash(parts)
        assert {u: 1}[v] == 1
        assert v.dfree() == NormalWord(0, *parts[1:])

    @pytest.mark.parametrize(
        ("args", "kind"),
        [
            ((-1, ("a",), ()), ValueError),
            ((0, ("a", "b"), (True,)), TypeError),
            ((0, ("a", "b"), (1.0,)), TypeError),
            ((0, ("a", "b"), ("1",)), TypeError),
            ((True, ("a",), ()), TypeError),
            ((0, ("a", "b"), ()), ValueError),
            ((0, ("a",), (0,)), ValueError),
        ],
    )
    def test_the_public_constructor_keeps_its_checks(self, args, kind):
        with pytest.raises(kind):
            NormalWord(*args)

    def test_repr_shows_the_three_fields(self):
        u = NormalWord(1, ("a", "b"), (0,))
        assert repr(u) == "NormalWord(s=1, gens=('a', 'b'), indices=(0,))"
        assert not hasattr(u, "__dict__")

    @pytest.mark.parametrize("name", ["s", "gens", "indices", "_text"])
    @pytest.mark.parametrize("how", ["constructor", "trusted"])
    def test_a_word_cannot_be_changed(self, fc, name, how):
        parts = (1, ("a", "b"), (0,))
        u = NormalWord(*parts) if how == "constructor" else NormalWord._of(*parts)
        with pytest.raises(AttributeError):
            setattr(u, name, None)
        with pytest.raises(AttributeError):
            delattr(u, name)
        assert (u.s, u.gens, u.indices, u._text) == (*parts, None)
        fc.word_to_json_text(u)  # nor can a built text be replaced
        with pytest.raises(AttributeError):
            u._text = "[]"

    def test_a_word_equals_only_words(self):
        u = NormalWord(0, ("a",), ())
        assert u != (0, ("a",), ()) and not u == (0, ("a",), ())
        assert (0, ("a",), ()) != u
        assert u == NormalWord._of(0, ("a",), ())
        assert u != NormalWord(1, ("a",), ()) and u != NormalWord(0, ("b",), ())
        assert NormalWord(0, ("a", "b"), (0,)) != NormalWord(0, ("a", "b"), (1,))

    def test_pickles_hash_again_in_another_process(self):
        src = str(Path(confalg.__file__).resolve().parent.parent)
        word = "NormalWord(2, ('b', 'a'), (1,))"
        dump = f"import pickle\nfrom confalg.freeconf import NormalWord\nprint(pickle.dumps({word}).hex())"
        load = (
            "import pickle, sys\nfrom confalg.freeconf import NormalWord\n"
            f"u, v = pickle.loads(bytes.fromhex(sys.argv[1])), {word}\n"
            "print(u == v, hash(u) == hash(v), {v: 1}.get(u) == 1)"
        )

        def run(seed, *argv):
            env = dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=seed)
            proc = subprocess.run(
                [sys.executable, "-c", *argv], capture_output=True, text=True, env=env, timeout=60,
            )
            assert proc.returncode == 0, proc.stderr
            return proc.stdout.strip()

        assert run("2", load, run("1", dump)) == "True True True"

    def test_rewrite_validates_each_word_once(self, monkeypatch):
        fc = FreeConformal(AlgebraConfig({"a": 2, "b": 3}))
        seen = []
        real = FreeConformal.validate

        def spy(self, u):
            seen.append(u)
            return real(self, u)

        monkeypatch.setattr(FreeConformal, "validate", spy)
        a, b = fc.generator("a"), fc.generator("b")
        for n in range(3):
            fc.cprod_rw(a, n, b)
        assert sorted(seen, key=repr) == [NormalWord(0, ("a",), ()), NormalWord(0, ("b",), ())]

    @pytest.mark.parametrize(
        ("word", "kind"),
        [(NormalWord(0, ("a", "b"), (3,)), ValueError), (NormalWord(0, ("a", "c"), (0,)), ConfigError)],
    )
    def test_a_refused_word_is_refused_on_every_call(self, word, kind):
        fc = FreeConformal(AlgebraConfig({"a": 2, "b": 3}))
        a, bad = fc.generator("a"), ConfElement({word: 1})
        for _ in range(3):
            with pytest.raises(ValueError) as got:
                fc.cprod_rw(a, 0, bad)
            assert type(got.value) is kind


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
        assert fc.iota(a) == PElement(alg, {0: alg.monomial(("a",))})
        w0 = normal(fc, 0, ("a", "b"), (0,))
        assert fc.iota_word(w0) == PElement(alg, {0: alg.monomial(("a", "v", "b"))})
        w1 = normal(fc, 0, ("a", "b"), (1,))
        assert fc.iota_word(w1) == PElement(alg, {0: alg.monomial(("a", "b"), -1)})
        shifted = normal(fc, 2, ("a", "b"), (0,))
        assert fc.iota_word(shifted) == fc.iota_word(w0).d_shift(2)

    def test_image_of_a_long_word(self):
        # one suffix per generator: no recursion limit applies
        fc = FreeConformal(AlgebraConfig({"a": 1, "b": 2}))
        u = NormalWord(0, ("a",) * 1100, (0,) * 1099)
        image = fc.iota_word(u)
        assert image == PElement(fc.alg, {0: fc.alg.monomial(("a",) * 1100)})
        assert fc.reduce(image) == ConfElement({u: 1})

    def test_image_is_linear(self, fc):
        rng = as_rng(61)
        for _ in range(20):
            x = random_element(rng, fc, max_k=2, max_s=1, nonzero=False)
            y = random_element(rng, fc, max_k=2, max_s=1, nonzero=False)
            assert fc.iota(x + y) == fc.iota(x) + fc.iota(y)
            assert fc.iota(x.scale(-3)) == fc.iota(x).scale(-3)


def reference_word_to_normal(fc, w):
    """word_to_normal as a run-length parse of w's letter names, the
    reference for the cut-based one."""
    segs = []
    run = 0
    for name in fc.alg.word_names(w):
        if name == "v":
            run += 1
        else:
            segs.append((run, name))
            run = 0
    if run or not segs:
        return None
    names = tuple(name for _, name in segs)
    if segs[0][0] != fc.alg.n_of(names[0]) - 1:
        return None
    indices = []
    for (e, _), name in zip(segs[1:], names[1:]):
        n = fc.alg.n_of(name) - 1 - e
        if n < 0:
            return None
        indices.append(n)
    return (-1) ** sum(indices), NormalWord(0, names, tuple(indices))


class TestHatWords:
    def test_frozen_hats(self, fc):
        word = fc.alg.word
        assert hat_word(fc, normal(fc, 0, ("a", "b"), (0,))) == (1, word("avb"))
        assert hat_word(fc, normal(fc, 0, ("a", "b"), (1,))) == (-1, word("ab"))
        big = FreeConformal(AlgebraConfig({"c": 3}))
        assert hat_word(big, normal(big, 0, ("c",), ())) == (1, big.alg.word("vvc"))
        # a facing index 1 keeps 9,998 of its 9,999 v's
        tall = FreeConformal(AlgebraConfig({"a": 10000, "b": 2}))
        ba = normal(tall, 0, ("b", "a"), (1,))
        hat = tall.alg.word("vb" + "v" * 9998 + "a")
        assert hat_word(tall, ba) == (-1, hat)
        assert tall.word_to_normal(hat) == (-1, ba)

    def test_hat_is_the_lowest_monomial_of_the_image(self, fc):
        for u in fc.enumerate_basis(2):
            sign, hat = hat_word(fc, u)
            poly = fc.iota_word(u).parts[0]
            w = min(poly.terms, key=deglex_key)
            c = poly.terms[w]
            assert w == hat
            assert (1 if c > 0 else -1) == sign

    def test_hat_round_trip(self, fc):
        for u in fc.enumerate_basis(2):
            sign, hat = hat_word(fc, u)
            got = fc.word_to_normal(hat)
            assert got is not None
            got_sign, base = got
            assert base == u and got_sign == sign

    def test_sort_key_orders_by_s_then_hat(self, fc):
        for u in fc.enumerate_basis(2, max_s=2):
            _, hat = hat_word(fc, u.dfree())
            assert fc.sort_key(u) == (u.s, len(hat), hat)

    @pytest.mark.parametrize(
        "u",
        [
            NormalWord(0, ("a", "b"), (2,)),  # n(b) = 2
            NormalWord(1, ("a", "b"), (-1,)),
            NormalWord(0, ("a", "c"), (0,)),
            NormalWord(0, ("c",), ()),
            NormalWord(0, ("a", "b", "c"), (5, 0)),  # validate names the unknown letter first
        ],
    )
    def test_sort_key_rejects_what_validate_rejects(self, fc, u):
        with pytest.raises(ValueError) as want:
            fc.validate(u)
        with pytest.raises(ValueError) as got:
            fc.sort_key(u)
        assert type(got.value) is type(want.value) and str(got.value) == str(want.value)

    def test_non_hat_words_map_to_none(self, fc):
        alg = fc.alg
        assert fc.word_to_normal(alg.word(("v", "a"))) is None
        assert fc.word_to_normal(alg.word(("b",))) is None
        assert fc.word_to_normal("") is None

    def test_word_to_normal_matches_the_run_length_parse(self):
        alg, _ = load_config(str(DATA / "config_xyz.json"))
        letters = alg.names + ("v",)
        words = [alg.word(w) for k in range(7) for w in itertools.product(letters, repeat=k)]
        assert len(words) == (4 ** 7 - 1) // 3
        ref = FreeConformal(alg)
        want = [reference_word_to_normal(ref, w) for w in words]
        assert sum(x is not None for x in want) > 100
        fc = FreeConformal(alg)
        for _ in range(2):  # from an empty table, then from the filled one
            assert [fc.word_to_normal(w) for w in words] == want
        for w, found in zip(words, want):
            if found is not None:
                assert hat_word(fc, found[1]) == (found[0], w)

    BAD_WORDS = {
        "unknown first letter": (NormalWord(0, ("c", "a"), (0,)), ConfigError, "unknown generator: 'c'"),
        "unknown later letter": (
            NormalWord(0, ("a", "b", "c"), (0, 0)), ConfigError, "unknown generator: 'c'",
        ),
        "m >= n at the first index": (
            NormalWord(0, ("a", "b"), (3,)), ValueError, "index 3 out of range for the pair (a, b)",
        ),
        "m >= n at a later index": (
            NormalWord(0, ("a", "b", "a"), (0, 2)), ValueError,
            "index 2 out of range for the pair (b, a)",
        ),
        "m < 0 at the first index": (
            NormalWord(1, ("a", "b"), (-1,)), ValueError,
            "index -1 out of range for the pair (a, b)",
        ),
        "m < 0 at a later index": (
            NormalWord(0, ("b", "a", "b"), (1, -1)), ValueError,
            "index -1 out of range for the pair (a, b)",
        ),
    }

    @pytest.mark.parametrize("warm", [False, True], ids=["fresh", "warm"])
    @pytest.mark.parametrize("case", list(BAD_WORDS))
    def test_bad_words_raise_as_before(self, case, warm):
        u, kind, message = self.BAD_WORDS[case]
        fc = FreeConformal(AlgebraConfig({"a": 2, "b": 3}))
        if warm:
            for w in fc.enumerate_basis(2):
                fc.sort_key(w)
        for method in (fc.validate, fc._hat, fc.sort_key):
            with pytest.raises(ValueError) as got:
                method(u)
            assert type(got.value) is kind and str(got.value) == message


class TestReduce:
    def test_round_trip_on_basis_words(self, fc):
        for u in fc.enumerate_basis(2, max_s=1):
            assert fc.reduce(fc.iota_word(u)) == ConfElement({u: 1})

    def test_round_trip_is_linear(self, fc):
        rng = as_rng(67)
        for _ in range(30):
            x = random_element(rng, fc, max_k=3, max_s=2, max_terms=3, nonzero=False)
            assert fc.reduce(fc.iota(x)) == x

    def test_elimination_must_move_up_in_deglex(self):
        # an image whose hat word is not its lowest monomial cannot be
        # eliminated greedily: reduce refuses instead of looping
        fc = FreeConformal(AlgebraConfig({"a": 1}))
        alg = fc.alg
        # the key a holds T(0, a), a .0 a's tail: reduce builds a .0 a's image
        # as P_a times it
        a = alg.word(("a",))
        generator = normal(fc, 0, ("a",), ())
        fc._iota_cache[a] = (0, generator, NCPoly(alg, {a: 1, "": 1}), [None])
        with pytest.raises(RuntimeError, match="progress"):
            fc.reduce(PElement(alg, {0: alg.monomial(("a", "a"))}))

    def test_out_of_span_raises_with_witness(self, fc):
        bad = PElement(fc.alg, {0: fc.alg.monomial(("v", "a"))})
        with pytest.raises(NotInSpan) as err:
            fc.reduce(bad)
        assert "v a" in str(err.value)

    def test_out_of_span_under_taller_localities(self):
        fc2 = FreeConformal(AlgebraConfig({"a": 2, "b": 3}))
        bad = PElement(fc2.alg, {0: fc2.alg.monomial(("a",))})
        with pytest.raises(NotInSpan):
            fc2.reduce(bad)

    def test_a_product_outside_the_span_is_an_internal_failure(self, monkeypatch):
        # the image of a product is in the span; if elimination says not,
        # the engine is at fault, and that must not read as NotInSpan (exit 2)
        fc = FreeConformal(AlgebraConfig({"a": 2, "b": 3}))
        monkeypatch.setattr(FreeConformal, "_parse_hat", lambda self, w: None)
        with pytest.raises(RuntimeError, match="^internal reduction failure: ") as err:
            fc.cprod(fc.generator("a"), 1, fc.generator("b"))
        assert isinstance(err.value.__cause__, NotInSpan)


class TestOneElimination:
    """reduce and the products share one plain-lex elimination (_eliminate)."""

    @pytest.mark.parametrize(
        "config", ["config_ab", "config_ba", "config_xyz", "config_five", "config_onegen"]
    )
    def test_round_trip_through_parts_of_several_lengths(self, config):
        fc = FreeConformal(load_config(str(DATA / f"{config}.json"))[0])
        rng = as_rng(2)
        mixed = interleaved = 0
        for _ in range(40):
            x = random_element(rng, fc, max_k=2, max_s=2, max_terms=3)
            p = fc.iota(x)
            mixed += any(len({len(w) for w in f.terms}) > 1 for f in p.parts.values())
            hats: dict[int, list] = {}
            for u in x.terms:
                hats.setdefault(u.s, []).append(hat_word(fc, u.dfree())[1])
            for found in map(sorted, hats.values()):  # the order of elimination
                interleaved += any(len(a) > len(b) for a, b in zip(found, found[1:]))
            assert fc.reduce(p) == x, x
        # some part holds monomials of two lengths; and, unless one letter
        # makes every hat word a prefix of the longer ones, some part is
        # eliminated out of deg-lex order: a longer hat word before a shorter
        assert mixed
        assert interleaved or len(fc.alg.names) == 1

    @staticmethod
    def reduce_raw(capsys, tmp_path, words) -> tuple[int, str, str]:
        raw = {"parts": [{"d": 0, "terms": [{"coeff": "1", "word": w} for w in words]}]}
        path = tmp_path / "raw.json"
        path.write_text(json.dumps(raw), encoding="utf-8")
        rc = main(["reduce", "--config", str(DATA / "config_ab.json"), "--raw-element", str(path)])
        out, err = capsys.readouterr()
        return rc, out, err

    def test_the_witness_is_the_lex_least_of_two_lengths(self, capsys, tmp_path):
        # neither is a hat word on {a: 2, b: 3}; a a is longer but lex-below b
        rc, out, err = self.reduce_raw(capsys, tmp_path, [["b"], ["a", "a"]])
        assert (rc, out) == (2, "")
        assert err == "error: monomial outside the normal-word span: a a\n"

    @pytest.mark.parametrize(
        ("words", "witness"),
        [
            # v a v v b is a .0 b's image, and v b starts with no piece
            (["vavvb", "vb"], "v b"),
            # v b lies below the piece v v b of b .0 a's image
            (["vb", "vvbva"], "v b"),
            # v a v, past the piece v a, is no tail: it lies below v b
            (["vav", "vb"], "v a v"),
            (["vb", "vvbv"], "v b"),
            # a lies below every piece
            (["vvbva", "vav", "a"], "a"),
        ],
    )
    def test_the_witness_is_the_lex_least_across_pieces(
        self, capsys, tmp_path, words, witness
    ):
        rc, out, err = self.reduce_raw(capsys, tmp_path, [list(w) for w in words])
        assert (rc, out) == (2, "")
        assert err == f"error: monomial outside the normal-word span: {witness}\n"

    def test_the_empty_word_is_outside_the_span(self, capsys, tmp_path):
        # below every word, so no start of the progress check may refuse it
        rc, out, err = self.reduce_raw(capsys, tmp_path, [[]])
        assert (rc, out) == (2, "")
        assert err == "error: monomial outside the normal-word span: 1\n"

    def test_a_warm_cache_refuses_what_a_fresh_one_refuses(self):
        # whole monomials share the cache's keys with the stripped ones: a
        # table caches T(1, a) under a, T(1, b) under v b and the empty tail
        # under "", and none of them is a word's whole image
        alg = AlgebraConfig({"a": 2, "b": 3})
        warm = FreeConformal(alg)
        for _ in warm.table_rows(warm.enumerate_basis(2), range(4), "realize"):
            pass
        for letters, m in ((("a",), 1), (("v", "b"), 1), ((), 0)):
            assert warm._iota_cache[alg.word(letters)][0] == m
            witnesses = []
            for fc in (warm, FreeConformal(alg)):
                with pytest.raises(NotInSpan) as err:
                    fc.reduce(PElement(alg, {0: alg.monomial(letters)}))
                witnesses.append((err.value.witness, str(err.value)))
            assert witnesses[0] == witnesses[1] and witnesses[0][0] == alg.word(letters)
        # v v b b, the hat word of b .2 b, reduces as it does cold
        vvbb = PElement(alg, {0: alg.monomial(("v", "v", "b", "b"))})
        got = warm.reduce(vvbb)
        assert got == FreeConformal(alg).reduce(vvbb)
        assert list(got.terms) == [normal(warm, 0, ("b", "b"), (2,))]


class TestProducts:
    def test_frozen_values(self, fc):
        a, b = fc.generator("a"), fc.generator("b")
        ab0 = fc.cprod(a, 0, b)
        assert ab0 == ConfElement({normal(fc, 0, ("a", "b"), (0,)): 1})
        x = fc.cprod(b, 0, ab0)
        assert x == ConfElement({normal(fc, 0, ("b", "a", "b"), (0, 0)): 1})
        x = fc.cprod(b, 1, ab0)
        assert x == ConfElement({normal(fc, 0, ("b", "a", "b"), (0, 1)): 1})
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
            out = fc.cprod(ConfElement({u: 1}), n, ConfElement({w: 1}))
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

    def test_engine_names_have_one_lookup(self, fc, monkeypatch):
        a = fc.generator("a")
        assert fc.engine("realize") == (fc.cprod, fc.cprods)
        assert fc.engine("rewrite") == (fc.cprod_rw, fc.cprods_rw)
        for bad in ("bogus", "Realize", None):
            with pytest.raises(ValueError, match="unknown engine"):
                fc.engine(bad)
        with pytest.raises(ValueError, match="unknown engine"):
            fc.associativity_defect(a, 0, a, 0, a, engine="bogus")
        # methods are looked up when asked for, so class patches apply
        calls = []
        real = FreeConformal.cprod_rw
        monkeypatch.setattr(
            FreeConformal, "cprod_rw", lambda self, *args: calls.append(args) or real(self, *args)
        )
        assert not fc.associativity_defect(a, 1, a, 0, a, engine="rewrite")
        assert calls


def scan_locality(fc, x, y) -> int:
    """1 + the largest n below a safe bound with a nonzero rewrite product."""
    px, py = fc.iota(x), fc.iota(y)
    v = fc.alg.word("v")
    bound = 1 + max(px.parts) + max(e + w.count(v) for e, f in py.parts.items() for w in f.terms)
    for extra in range(3):
        assert not fc.cprod_rw(x, bound + extra, y)
    n = bound
    while n > 0 and not fc.cprod_rw(x, n - 1, y):
        n -= 1
    return n


class TestAllProducts:
    """cprods against cprod and the rewriting engine, on shifted sums."""

    @pytest.fixture(scope="class")
    def fc(self):
        return FreeConformal(AlgebraConfig({"a": 2, "b": 3}))

    def cases(self, fc):
        a, b = fc.generator("a"), fc.generator("b")
        # (Da)_(1) b = -(a .0 b) cancels against the (a .0 b) in (-a)_(1) (-Db)
        yield a.d_shift(1) - a, b - b.d_shift(1)
        rng = as_rng(89)
        for _ in range(12):
            yield (
                random_element(rng, fc, max_k=2, max_s=2, max_terms=3),
                random_element(rng, fc, max_k=1, max_s=2, max_terms=3),
            )

    def test_every_n_matches_both_single_products(self, fc):
        for x, y in self.cases(fc):
            ns = range(scan_locality(fc, x, y) + 3)
            got = fc.cprods(x, y, ns)
            assert list(got) == list(ns)
            assert got == fc.cprods_rw(x, y, ns)
            for n in ns:
                assert got[n] == fc.cprod(x, n, y) == fc.cprod_rw(x, n, y), (n, x, y)

    def test_cancelling_pairs_cancel(self, fc):
        a, b = fc.generator("a"), fc.generator("b")
        ab0 = fc.cprod(a, 0, b)
        (u,) = ab0.terms
        x, y = a.d_shift(1) - a, b - b.d_shift(1)
        assert fc.cprod(a.d_shift(1), 1, b) == -ab0
        assert u not in fc.cprods(x, y, (1,))[1].terms

    def test_locality_matches_the_scan(self, fc):
        for x, y in self.cases(fc):
            assert fc.locality_of(x, y) == scan_locality(fc, x, y), (x, y)

    def test_negative_index_rejected(self, fc):
        a, b = fc.generator("a"), fc.generator("b")
        with pytest.raises(ValueError):
            fc.cprods(a, b, (0, -1))
        with pytest.raises(ValueError):
            fc.cprods_rw(a, b, (0, -1))

    @pytest.mark.parametrize("n", [1.0, 1.5, True])
    def test_non_integer_index_rejected(self, fc, n):
        a, b = fc.generator("a"), fc.generator("b")
        with pytest.raises(TypeError):
            fc.cprods(a, b, (0, n))
        with pytest.raises(TypeError):
            fc.cprods_rw(a, b, (0, n))

    def test_one_pseudoproduct_per_word_pair(self, fc, monkeypatch):
        fc = FreeConformal(fc.alg)
        calls = spy_pprod(monkeypatch)
        x = fc.generator("a") + fc.generator("b").d_shift(1)
        y = fc.cprod(fc.generator("b"), 1, fc.generator("a"))
        calls.clear()
        fc.cprods(x, y, range(6))
        assert len(calls) == len(x.terms) * len(y.terms)

    def test_no_requested_n_builds_no_pseudoproduct(self, fc, monkeypatch):
        calls = spy_pprod(monkeypatch)
        x = fc.generator("a") + fc.generator("b").d_shift(1)
        assert fc.cprods(x, x, ()) == {}
        assert fc.cprods(x, x, iter(())) == {}
        assert calls == []


class TestRequestedProductsOnly:
    """The realize engine builds only what the requested n can reach."""

    def test_deep_right_nesting_matches_rewrite(self, fc_ab, monkeypatch):
        fc = FreeConformal(fc_ab.alg)
        a, x, want = fc.generator("a"), fc.generator("b"), fc.generator("b")
        sizes = []
        real = NCPoly.coact
        monkeypatch.setattr(NCPoly, "coact", lambda f, *a: sizes.append(len(real(f, *a))) or real(f, *a))
        for _ in range(40):
            x = fc.cprod(a, 0, x)
            want = fc.cprod_rw(a, 0, want)
        assert x == want and len(x.terms) == 1
        # n = 0 needs only the zeroth coaction component of each right factor
        assert len(sizes) == 40 and set(sizes) == {1}

    def test_far_d_power_on_the_right(self, fc_ab, monkeypatch):
        fc = FreeConformal(fc_ab.alg)
        a, b = fc.generator("a"), fc.generator("b")
        rows = []
        real = pseudo.decompose
        monkeypatch.setattr(pseudo, "decompose", lambda *a: rows.append(real(*a)) or rows[-1])
        ab0, ab1 = fc.cprod(a, 0, b), fc.cprod(a, 1, b)
        rows.clear()
        pseudo._unit_row.cache_clear()  # earlier tests' unit splits would hide the calls
        got = fc.cprod(a, 1, b.d_shift(3000))
        assert got == ab0.d_shift(2999).scale(3000) + ab1.d_shift(3000)
        assert got == fc.cprod_rw(a, 1, b.d_shift(3000))
        # each tensor entry was split at n = 1 alone, not over 3001 rows
        assert rows and all(set(r) <= {1} for r in rows)


class TestTableRows:
    """table_rows against the per-pair cprods and cprods_rw."""

    @pytest.fixture(
        scope="class", params=["config_ab.json", "config_xyz.json", "config_onegen.json"]
    )
    def alg(self, request):
        return load_config(str(DATA / request.param))[0]

    @pytest.mark.parametrize("engine", ["realize", "rewrite"])
    def test_rows_match_the_per_pair_products(self, alg, engine):
        fc, ref = FreeConformal(alg), FreeConformal(alg)
        words = fc.enumerate_basis(1)
        ns = range(4)
        _, prods = ref.engine(engine)
        rows = fc.table_rows(words, ns, engine)
        for u in words:
            x = ConfElement({u: 1})
            want = {w: prods(x, ConfElement({w: 1}), ns) for w in words}
            for n in ns:
                for w in words:
                    got = next(rows)
                    assert got == (u, n, w, want[w][n]), (u, n, w)
                    assert coefficient_types([got[3]]) <= {Fraction}
        assert next(rows, None) is None

    @pytest.mark.parametrize("engine", ["realize", "rewrite"])
    @pytest.mark.parametrize(
        ("config", "max_k", "max_n"),
        [
            ("config_ab.json", 1, 3),
            ("config_ba.json", 1, 3),
            ("config_xyz.json", 1, 3),
            ("config_onegen.json", 3, 4),
        ],
    )
    def test_values_come_in_sort_key_order(self, config, max_k, max_n, engine):
        # the table renders values unsorted; D-shifted words take the D rules
        fc = FreeConformal(load_config(str(DATA / config))[0])
        words = fc.enumerate_basis(max_k, max_s=1)
        multi = 0
        for _, _, _, value in fc.table_rows(words, range(max_n + 1), engine):
            assert list(value.terms) == [u for u, _ in fc.sorted_terms(value)], value
            multi += len(value.terms) > 1
        # at locality 1, every onegen cell is one word or zero
        assert multi or config == "config_onegen.json"

    def test_rows_stream(self, monkeypatch):
        fc = FreeConformal(AlgebraConfig({"a": 2, "b": 3}))
        words = fc.enumerate_basis(1)
        calls = spy_pprod(monkeypatch)
        rows = fc.table_rows(words, range(2), "realize")
        assert calls == []
        next(rows)
        # the first left word's pairs, one pseudoproduct each for both n
        assert len(calls) == len(words)

    def test_no_n_and_unknown_engines(self):
        fc = FreeConformal(AlgebraConfig({"a": 2, "b": 3}))
        words = fc.enumerate_basis(1)
        assert list(fc.table_rows(words, (), "realize")) == []
        with pytest.raises(ValueError, match="unknown engine"):
            next(fc.table_rows(words, range(2), "magic"))

    def test_realize_table_coacts_each_word_once_and_multiplies_each_tail_once_per_word(
        self, monkeypatch, capsys
    ):
        coacts = []
        real = NCPoly.coact
        monkeypatch.setattr(NCPoly, "coact", lambda f, *a: coacts.append(a) or real(f, *a))
        calls = spy_pprod(monkeypatch)
        rc = main([
            "table", "--config", str(DATA / "config_ab.json"), "--max-k", "1", "--max-n", "3",
            "--engine", "realize",
        ])
        assert rc == 0 and capsys.readouterr().out.startswith('[{"left":')
        # 12 words: one cut coaction per right word, and one pseudoproduct
        # per (D-power, tail) of the left words, 6 of them, and right word
        assert len(coacts) == 12 and set(coacts) == {(3,)}
        assert len(calls) == 72

    @pytest.fixture(scope="class")
    def five(self):
        return load_config(str(DATA / "config_five.json"))[0]

    def test_five_first_letters_share_each_block(self, five):
        # D-powers 0 and 1 have one tail each and must not share a block
        fc, ref = FreeConformal(five), FreeConformal(five)
        words = fc.enumerate_basis(1, 1)
        ns = range(4)
        rows = fc.table_rows(words, ns, "realize")
        for u in words:
            x = ConfElement({u: 1})
            want = {w: ref.cprods_rw(x, ConfElement({w: 1}), ns) for w in words}
            for n in ns:
                for w in words:
                    assert next(rows) == (u, n, w, want[w][n]), (u, n, w)
        assert next(rows, None) is None

    def test_one_pseudoproduct_per_tail_and_right_word(self, five, monkeypatch):
        fc = FreeConformal(five)
        words = fc.enumerate_basis(1, 1)
        tails = {(u.s, fc._hat(u)[fc.alg.n[u.gens[0]]:]) for u in words}
        calls = spy_pprod(monkeypatch)
        assert sum(1 for _ in fc.table_rows(words, range(2), "realize"))
        # each of the 10 tails per D-power serves every first letter
        assert (len(tails), len(words)) == (20, 100)
        assert len(calls) == len(tails) * len(words)

    def test_a_table_closed_early_leaves_the_next_one_whole(self, monkeypatch, capsys):
        # the first row shares its block with later rows; closing the table
        # there must leave nothing that changes a byte of the next table
        fc = FreeConformal(load_config(str(DATA / "config_ab.json"))[0])
        words = sorted(fc.enumerate_basis(1), key=fc.sort_key)
        rows = fc.table_rows(words, range(3), "realize")
        for _ in range(3 * len(words)):
            next(rows)
        rows.close()
        monkeypatch.setattr(cli, "FreeConformal", lambda alg: fc)
        rc = main([
            "table", "--config", str(DATA / "config_ab.json"), "--max-k", "1", "--max-n", "2",
        ])
        out = capsys.readouterr().out
        # TestTable.test_golden_bytes's digest of this table
        assert rc == 0 and hashlib.sha256(out.encode()).hexdigest() == (
            "6e8e0cf1606725639753a2216d056a1e6565409ec265140fc7f8f8f2d53173b8"
        )


class TestRenderMemos:
    """A word keeps its JSON text; an int value shares one Fraction."""

    PARTS = TestWordStorage.PARTS
    # TestTable.test_golden_bytes's digest of the config_ab k <= 1, n <= 2 table
    DIGEST = "6e8e0cf1606725639753a2216d056a1e6565409ec265140fc7f8f8f2d53173b8"

    @staticmethod
    def built(fc, how, parts) -> NormalWord:
        if how == "constructor":
            return NormalWord(*parts)
        if how == "trusted":
            return NormalWord._of(*parts)
        s, gens, indices = parts
        u = NormalWord(0 if how == "d_shift" else s, gens, indices)
        fc.word_to_json_text(u)  # the copy must build its own
        if how == "d_shift":
            (word,) = ConfElement({u: 1}).d_shift(s).terms
            return word
        word = pickle.loads(pickle.dumps(u))
        assert word._text is None  # a pickle carries no text
        return word

    @pytest.mark.parametrize("parts", PARTS)
    @pytest.mark.parametrize("how", ["constructor", "trusted", "d_shift", "pickle"])
    def test_the_text_is_what_dump_json_makes(self, fc, parts, how):
        u = self.built(fc, how, parts)
        assert u == NormalWord(*parts)
        text = fc.word_to_json_text(u)
        assert text == dump_json(fc.word_to_json(u))
        assert fc.word_to_json_text(u) is text

    @pytest.mark.parametrize("parts", PARTS)
    def test_a_word_with_its_text_is_like_a_fresh_one(self, fc, parts):
        u, fresh = NormalWord(*parts), NormalWord(*parts)
        fc.word_to_json_text(u)
        assert u._text is not None and fresh._text is None
        assert u == fresh and hash(u) == hash(fresh) == hash(parts)
        assert repr(u) == repr(fresh) and {fresh: 1}[u] == 1
        assert not u != fresh and u.dfree() == fresh.dfree()
        object.__setattr__(fresh, "_text", "not this word's text")
        assert u == fresh and {fresh: 1}[u] == 1

    @pytest.mark.parametrize("k", [0, 1, -3, 10**30])
    def test_one_shared_fraction_per_int(self, k):
        f = _fraction(k)
        assert f == Fraction(k) and type(f) is Fraction
        assert _fraction(k) is f
        assert _fraction.cache_info().maxsize is not None

    @pytest.mark.parametrize("engine", ["realize", "rewrite"])
    def test_a_table_makes_few_fractions(self, capsys, monkeypatch, engine):
        # the benchmark's table: 23,594 terms over fewer than 100 values
        real, made = Fraction.__new__, []

        def counted(cls, *args, **kwargs):
            made.append(None)
            return real(cls, *args, **kwargs)

        _fraction.cache_clear()
        monkeypatch.setattr(Fraction, "__new__", staticmethod(counted))
        rc = main([
            "table", "--config", str(DATA / "config_ab.json"), "--max-k", "2", "--max-n", "1",
            "--engine", engine,
        ])
        monkeypatch.undo()
        out = capsys.readouterr().out
        assert rc == 0 and out.count('"left"') == 62 * 62 * 2
        assert len(made) < 200

    @pytest.mark.parametrize("engine", ["realize", "rewrite"])
    def test_warm_memos_render_the_same_table(self, capsys, monkeypatch, engine):
        fc = FreeConformal(load_config(str(DATA / "config_ab.json"))[0])
        monkeypatch.setattr(cli, "FreeConformal", lambda alg: fc)
        argv = [
            "table", "--config", str(DATA / "config_ab.json"), "--max-k", "1", "--max-n", "2",
            "--engine", engine,
        ]
        digests = []
        for _ in range(2):
            rc = main(argv)
            digests.append((rc, hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()))
        assert digests == [(0, self.DIGEST)] * 2


def spy_pprod(monkeypatch) -> list:
    """Record every PseudoAlgebra.pprod call; cprods builds its own algebra."""
    calls = []
    real = PseudoAlgebra.pprod
    monkeypatch.setattr(PseudoAlgebra, "pprod", lambda pa, *a: calls.append(a) or real(pa, *a))
    return calls


def coefficient_types(values) -> set:
    """Types of the scalars inside ConfElement/PElement/HPoly values."""
    out = set()
    for value in values:
        if isinstance(value, (ConfElement, NCPoly, HPoly)):
            out |= {type(c) for c in value.terms.values()}
        elif isinstance(value, PElement):
            out |= coefficient_types(value.terms.values())
        else:
            raise TypeError(value)
    return out


class TestIntegerPipeline:
    """The realize engine computes on int-scaled images and answers in Fractions."""

    @pytest.fixture(scope="class", params=[{"a": 2, "b": 3}, {"a": 1, "b": 2}], ids=["W>1", "W=1"])
    def fc(self, request):
        # with every n(a) <= 2 each weight W is 1, where a plain copy of an
        # int image would go out unconverted
        return FreeConformal(AlgebraConfig(request.param))

    def test_scaled_images_are_int_multiples_of_iota(self, fc):
        for u in fc.enumerate_basis(2, max_s=1):
            image = fc._scaled(u)
            weight = math.prod(math.factorial(fc.alg.n_of(g) - 1) for g in u.gens)
            assert image == fc.iota_word(u).scale(weight)
            assert coefficient_types([image]) == {int}

    def test_shifted_multi_term_products_match_rewrite(self, fc):
        rng = as_rng(101)
        for _ in range(300):
            x = random_element(rng, fc, max_s=3, max_terms=3)
            y = random_element(rng, fc, max_s=3, max_terms=3)
            for n in range(5):
                assert fc.cprod(x, n, y) == fc.cprod_rw(x, n, y), (x, n, y)

    def test_fractional_coefficients_round_trip(self, fc):
        rng = as_rng(103)
        for u in fc.enumerate_basis(2, max_s=2):
            w = random_normal_word(rng, fc, max_k=2, max_s=2)
            x = ConfElement({u: Fraction(1, 2), w: Fraction(-3, 2)})
            assert fc.reduce(fc.iota(x)) == x

    def test_no_int_leaves_the_api(self, fc):
        rng = as_rng(107)
        for _ in range(20):
            x = random_element(rng, fc, max_s=2, max_terms=3)
            y = random_element(rng, fc, max_s=2, max_terms=3)
            u = random_normal_word(rng, fc, max_s=2)
            px, py = fc.iota(x), fc.iota(y)
            got = [fc.iota_word(u), px, py, fc.reduce(px), fc.reduce(fc.iota_word(u))]
            got += [fc.cprod(x, 1, y), *fc.cprods(x, y, range(4)).values()]
            for kind in (ProductKind.P8, ProductKind.P9, ProductKind.P11):
                got += PseudoAlgebra(fc.alg).nproducts(kind, px, py).values()
            assert coefficient_types(got) == {Fraction}
        for key in ((0, 0), (1, 0), (2, 3), (4, 1)):
            assert coefficient_types(decompose(TensorHH({key: 1})).values()) == {Fraction}

    def test_int_slices_divide_exactly_or_raise(self):
        # a planted image whose leading coefficient 2 does not divide the int
        # slice 3: the int path refuses, where a Fraction slice divides
        fc = FreeConformal(AlgebraConfig({"a": 1}))
        alg = fc.alg
        a = alg.word(("a",))
        # the generator's image is P_a times the empty tail's entry, T = 1
        empty = fc._iota_cache[""]
        fc._iota_cache[""] = (0, None, NCPoly._of(alg, {"": 2}), empty[3])
        with pytest.raises(RuntimeError, match="^inexact elimination: 3 / 2 at a$"):
            fc.reduce(PElement._of(alg, {0: NCPoly._of(alg, {a: 3})}))
        half = ConfElement({normal(fc, 0, ("a",), ()): Fraction(3, 2)})
        assert fc.reduce(PElement(alg, {0: alg.monomial(("a",), 3)})) == half


class TestRewriteIntCore:
    """The rewriting engine computes on int dicts and answers in Fractions.

    Its agreement with realize on 300 seeded pairs with D-powers up to 3 is
    TestIntegerPipeline.test_shifted_multi_term_products_match_rewrite.
    """

    @pytest.fixture(scope="class", params=["config_ab.json", "config_xyz.json"])
    def fc(self, request):
        return FreeConformal(load_config(str(DATA / request.param))[0])

    def test_memo_values_are_int_dicts(self, fc):
        rng = as_rng(109)
        for _ in range(40):
            x = random_element(rng, fc, max_s=2, max_terms=3)
            y = random_element(rng, fc, max_s=2, max_terms=3)
            fc.cprods_rw(x, y, range(5))
        assert fc._rewriter._rw_cache
        for value in fc._rewriter._rw_cache.values():
            assert type(value) is dict
            assert all(type(v) is NormalWord and v.s == 0 for v in value)
            assert all(type(c) is int and c for c in value.values())

    def test_every_rule_step_drops_one_generator(self, fc):
        # _rw_dfree's stack never meets a key that is already settled or
        # pending: every dep is one generator shorter than its key, and the
        # deps of one key differ.  No n is ever negative.
        fc = FreeConformal(fc.alg)
        rng = as_rng(127)
        for _ in range(60):
            u = random_normal_word(rng, fc, max_k=3, max_s=0)
            w = random_normal_word(rng, fc, max_k=3, max_s=0)
            fc.cprods_rw(ConfElement({u: 1}), ConfElement({w: 1}), range(7))
        size = lambda key: len(key[0]) + len(key[3])
        expanded = {"left": 0, "right": 0}
        for key in fc._rewriter._rw_cache:
            assert key[2] >= 0, key
            _, terms = fc._rewriter._rw_rule(key)
            if terms is None:
                continue
            expanded["left" if len(key[0]) > 1 else "right"] += 1
            deps = [dep for _, _, _, dep in terms]
            assert len(set(deps)) == len(deps), key
            assert all(size(dep) == size(key) - 1 for dep in deps), key
        assert min(expanded.values()) > 100, expanded

    def test_an_instance_goes_with_its_last_reference(self, fc):
        # the Rewriter refers back to its FreeConformal without a cycle, so a
        # request's memos of both engines are freed when it ends, not at the
        # next run of the cyclic collector
        fc = FreeConformal(fc.alg)
        x, y = fc.generator(fc.alg.names[0]), fc.generator(fc.alg.names[-1])
        assert fc.cprod_rw(x, 0, y) == fc.cprod(x, 0, y)
        alive = weakref.ref(fc)
        gc.disable()
        try:
            del fc
            assert alive() is None
        finally:
            gc.enable()

    def test_every_returned_coefficient_is_a_fraction(self, fc):
        rng = as_rng(113)
        for _ in range(20):
            u = random_normal_word(rng, fc, max_s=2)
            w = random_normal_word(rng, fc, max_s=2)
            x = ConfElement({u: Fraction(1, 2), w: Fraction(-3, 2)})
            y = random_element(rng, fc, max_s=2, max_terms=3)
            for n in range(4):
                got = fc.cprod_rw(x, n, y)
                assert coefficient_types([got]) <= {Fraction}
                assert got == fc.cprod(x, n, y), (x, n, y)
            assert coefficient_types(fc.cprods_rw(y, x, range(4)).values()) <= {Fraction}
        half = ConfElement({normal(fc, 0, fc.alg.names[:1], ()): Fraction(1, 2)})
        got = fc.cprod_rw(half, 0, half)
        assert got and coefficient_types([got]) == {Fraction}

    def test_coefficients_scale_each_word_pair(self, fc):
        x, y = fc.generator(fc.alg.names[-1]), fc.generator(fc.alg.names[0])
        xy = fc.cprod_rw(x.d_shift(1), 1, y)
        assert xy
        for c in (Fraction(1, 2), Fraction(-3, 2), 3):
            assert fc.cprod_rw(x.d_shift(1).scale(c), 1, y) == xy.scale(c)
            assert fc.cprod_rw(x.d_shift(1), 1, y.scale(c)) == xy.scale(c)


class TestOneWordPair:
    """x_(n) y for one term x = cu u and one term y = cw w, through the
    same sums as more terms on a side; bilinearity ties the two together,
    and a single pair keeps the order of its value's terms."""

    COEFFS = (Fraction(1, 2), Fraction(-2, 3), Fraction(3))
    # D-powers on u and on w
    SHIFTS = ((0, 0), (2, 0), (0, 1), (1, 2))
    NS = range(4)

    @pytest.fixture(scope="class", params=["config_ab.json", "config_xyz.json"])
    def fc(self, request):
        return FreeConformal(load_config(str(DATA / request.param))[0])

    def cases(self, fc, seed):
        """(x, y1, y2): single terms with seeded words, w1 != w2, every
        product of two COEFFS as cu * c1, and every pair of SHIFTS on u
        and w1."""
        rng = as_rng(seed)
        for su, sw in self.SHIFTS:
            for cu, c1 in itertools.product(self.COEFFS, repeat=2):
                u, w1 = (random_normal_word(rng, fc, max_s=0) for _ in range(2))
                w1 = normal(fc, sw, w1.gens, w1.indices)
                w2 = w1
                while w2 == w1:
                    w2 = random_normal_word(rng, fc, max_s=2)
                yield (
                    ConfElement({normal(fc, su, u.gens, u.indices): cu}),
                    ConfElement({w1: c1}),
                    ConfElement({w2: rng.choice(self.COEFFS)}),
                )

    @pytest.mark.parametrize("engine", ["realize", "rewrite"])
    def test_one_pair_matches_the_general_path(self, fc, engine):
        prods = fc.engine(engine)[1]
        dens, shifts = set(), set()  # of the pairs with a nonzero product
        for x, y1, y2 in self.cases(fc, 131):
            one, two = prods(x, y1, self.NS), prods(x, y2, self.NS)
            assert prods(x, y1 + y2, self.NS) == {n: one[n] + two[n] for n in self.NS}
            left1, left2 = prods(y1, x, self.NS), prods(y2, x, self.NS)
            assert prods(y1 + y2, x, self.NS) == {n: left1[n] + left2[n] for n in self.NS}
            if any(one.values()):
                ((u, cu),), ((w, c1),) = x.terms.items(), y1.terms.items()
                dens.add((cu * c1).denominator == 1)
                shifts.add((u.s, w.s))
        assert dens == {True, False} and shifts == set(self.SHIFTS), (dens, shifts)

    @pytest.mark.parametrize("engine", ["realize", "rewrite"])
    def test_one_pair_values_come_in_sort_key_order(self, fc, engine):
        prods = fc.engine(engine)[1]
        terms = 0
        for x, y, _ in self.cases(fc, 137):
            for value in (*prods(x, y, self.NS).values(), *prods(y, x, self.NS).values()):
                assert list(value.terms) == sorted(value.terms, key=fc.sort_key)
                assert coefficient_types([value]) <= {Fraction}
                terms += len(value.terms)
        assert terms > 100


class TestDirectRewritePath:
    """cprod_rw of one term by one term goes straight to Rewriter.product;
    it must give what cprods_rw gives, term for term and error for error,
    and must validate each new word once, before it is used."""

    COEFFS, SHIFTS = TestOneWordPair.COEFFS, TestOneWordPair.SHIFTS
    cases = TestOneWordPair.cases

    @pytest.fixture(params=["config_ab.json", "config_xyz.json"])
    def fc(self, request):
        return FreeConformal(load_config(str(DATA / request.param))[0])

    @pytest.fixture
    def validated(self, monkeypatch):
        seen = []
        real = FreeConformal.validate

        def spy(self, u):
            seen.append(u)
            return real(self, u)

        monkeypatch.setattr(FreeConformal, "validate", spy)
        return seen

    def test_direct_path_matches_cprods_rw(self, fc):
        valid, nonzero = fc._rewriter._valid, 0
        for x, y, _ in self.cases(fc, 139):
            for left, right in ((x, y), (y, x)):
                fc.cprod_rw(left, 0, right)  # validates both words
                assert {*left.terms, *right.terms} <= valid
                locality = fc.locality_of(left, right)
                for n in (*range(4), locality, locality + 2):
                    got = fc.cprod_rw(left, n, right)
                    want = fc.cprods_rw(left, right, (n,))[n]
                    assert got == want and list(got.terms) == list(want.terms), (left, n, right)
                    assert coefficient_types([got]) <= {Fraction}
                    assert n < locality or not got, (left, n, right)
                    nonzero += bool(got)
        assert nonzero > 50

    def test_each_new_word_is_validated_once_right_word_first(self, fc, validated):
        x, y, z = next(self.cases(fc, 149))
        (u,), (w,), (v,) = x.terms, y.terms, z.terms
        validated.clear()  # making the words validated them too
        fc.cprod_rw(x, 1, y)
        assert validated == [w, u]  # as cprods_rw's pair takes them
        for n in range(5):
            fc.cprod_rw(x, n, y)
            fc.cprod_rw(y, n, x)
            fc.cprod_rw(x.scale(3), n, y)
        assert validated == [w, u]
        assert v not in fc._rewriter._valid
        fc.cprod_rw(x, 0, z)  # one new word, validated once
        assert validated == [w, u, v] and v in fc._rewriter._valid
        fc.cprod_rw(z, 2, y)
        assert validated == [w, u, v]

    @pytest.mark.parametrize(("n", "kind"), [(-1, ValueError), (1.0, TypeError), (True, TypeError)])
    def test_a_bad_index_raises_as_in_cprods_rw(self, fc, validated, n, kind):
        x, y, z = next(self.cases(fc, 151))
        validated.clear()
        fc.cprod_rw(x, 0, y)
        for left, right in ((x, y), (y, x), (x, x), (x, z)):
            with pytest.raises(kind) as want:
                fc.cprods_rw(left, right, (n,))
            with pytest.raises(kind) as got:
                fc.cprod_rw(left, n, right)
            assert str(got.value) == str(want.value)
        (v,) = z.terms
        assert len(validated) == 2 and v not in fc._rewriter._valid  # n was checked first

    def test_a_zero_factor_is_zero(self, fc):
        x, y, _ = next(self.cases(fc, 157))
        fc.cprod_rw(x, 0, y)
        zero = ConfElement({})
        for n in range(3):
            assert not fc.cprod_rw(zero, n, y) and not fc.cprod_rw(x, n, zero)


def test_2048_generator_word_under_both_engines(fc_ab):
    # (X .0 X) nested 11 times from a: one word far longer than Python's
    # recursion limit, so no engine may spend a frame per generator
    fc = FreeConformal(fc_ab.alg)
    x = y = fc.generator("a")
    for _ in range(11):
        x, y = fc.cprod_rw(x, 0, x), fc.cprod(y, 0, y)
    assert x == y
    assert x == ConfElement({normal(fc, 0, ("a",) * 2048, (0,) * 2047): 1})


def test_a_long_v_run_under_both_engines():
    # realize takes v-derivatives of a's image v^9999 a, which cost one word
    # per v-run: one word per v made this take seconds
    fc = FreeConformal(AlgebraConfig({"a": 10000, "b": 2}))
    a, b = fc.generator("a"), fc.generator("b")
    ba = fc.cprod(b, 1, a)
    assert ba == fc.cprod_rw(b, 1, a)
    assert ba == ConfElement({normal(fc, 0, ("b", "a"), (1,)): 1})


def test_construction_builds_nothing_per_letter():
    # a letter's pieces and its factor of W follow from its locality, so
    # building the algebra makes no word and no factorial per letter, and
    # its peak does not grow with the alphabet times the localities
    alg = AlgebraConfig({f"g{i}": 1000 for i in range(2000)})
    tracemalloc.start()
    try:
        fc = FreeConformal(alg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024
    first, last = fc.generator("g0"), fc.generator("g1999")
    assert fc.cprods(first, last, range(3)) == fc.cprods_rw(first, last, range(3))


class TestHatKeyedImages:
    """One image cache: T(m, r) per tail (m, r), keyed by its lex-least monomial."""

    @pytest.fixture(
        scope="class", params=["config_ab.json", "config_xyz.json", "config_onegen.json"]
    )
    def fc(self, request):
        alg, _ = load_config(str(DATA / request.param))
        return FreeConformal(alg)

    def test_every_entry_is_its_tail_image(self, fc):
        basis = fc.enumerate_basis(3)
        for u in basis:
            fc.iota_word(u)
        cache = fc._iota_cache
        # u = a .m r caches T(m, r), and T(0, r) to derive it from
        tails = {
            (m, NormalWord(0, u.gens[1:], u.indices[1:]))
            for u in basis
            if u.indices
            for m in {0, u.indices[0]}
        }
        assert {(m, r) for m, r, _, _ in cache.values() if r is not None} == tails
        assert len(cache) == len(tails) + 1  # and the empty tail
        assert cache[""][:3] == (0, None, NCPoly(fc.alg, {"": 1}))
        for key, (m, r, image, _) in cache.items():
            if r is None:
                continue
            # r's hat word without its first m v's, read back with its m
            assert key == hat_word(fc, r)[1][m:]
            assert fc._parse_hat(key) == (r.gens, (m,) + r.indices)
            weight = math.prod(math.factorial(fc.alg.n_of(g) - 1) for g in r.gens)
            scaled = fc.iota_word(r).parts[0].scale(weight)
            assert image == scaled.vderiv(m).scale((-1) ** m), (m, r)
            assert min(image.terms) == key

    def test_prefix_built_image_is_the_product_formula(self, fc):
        for u in fc.enumerate_basis(3):
            if not u.indices:
                continue
            m = u.indices[0]
            head = fc.iota_word(NormalWord(0, u.gens[:1], ())).parts[0]
            tail = fc.iota_word(NormalWord(0, u.gens[1:], u.indices[1:])).parts[0]
            want = (head * tail.vderiv(m)).scale((-1) ** m)
            assert fc.iota_word(u).parts[0] == want, u

    def test_a_seen_hat_word_is_not_parsed_again(self, fc, monkeypatch):
        rng = as_rng(109)
        x = random_element(rng, fc, max_k=2, max_s=1, max_terms=2)
        y = random_element(rng, fc, max_k=2, max_s=1, max_terms=2)
        fresh = FreeConformal(fc.alg)
        canon = PseudoAlgebra(fc.alg).nproducts(ProductKind.P8, fresh.iota(x), fresh.iota(y))
        parsed = []
        real = FreeConformal._parse_hat

        def spy(self, w):
            parsed.append(w)
            return real(self, w)

        monkeypatch.setattr(FreeConformal, "_parse_hat", spy)
        p = canon[0]
        first = fresh.reduce(p)
        assert parsed  # the product's hat words were new
        parsed.clear()
        assert fresh.reduce(p) == first
        assert parsed == []


def spy_vderiv(monkeypatch) -> list:
    """Record the order m of every NCPoly.vderiv call."""
    calls = []
    real = NCPoly.vderiv
    monkeypatch.setattr(NCPoly, "vderiv", lambda f, m=1: calls.append(m) or real(f, m))
    return calls


class TestSiblingImages:
    """Siblings a .m r and b .m r share one cached T(m, r): a's image is P_a
    times it, b's is P_b times it."""

    def test_the_table_keeps_one_entry_per_tail(self):
        # the benchmark's table: config_ab, k <= 2, n = 0 and 1
        fc = FreeConformal(load_config(str(DATA / "config_ab.json"))[0])
        words = fc.enumerate_basis(2)
        reached = set(words)  # each word an image is built for: inputs and outputs
        for _, _, _, value in fc.table_rows(words, range(2), "realize"):
            reached.update(v.dfree() for v in value.terms)
        suffixes, tails = set(), set()
        for u in reached:
            for j in range(len(u.gens)):
                suffixes.add((u.gens[j:], u.indices[j:]))
                if j:
                    r = NormalWord(0, u.gens[j:], u.indices[j:])
                    tails |= {(u.indices[j - 1], r), (0, r)}
        cache = fc._iota_cache
        assert {(m, r) for m, r, _, _ in cache.values() if r is not None} == tails
        # one entry per tail and the empty tail's, where an entry per word
        # and suffix, its first letter included, makes twice as many
        assert (len(cache), len(tails), len(suffixes)) == (3806, 3805, 7612)

    def test_a_sibling_takes_no_derivative(self, monkeypatch):
        fc = FreeConformal(AlgebraConfig({"a": 2, "b": 3}))
        fc.iota_word(normal(fc, 0, ("a", "a", "b"), (1, 2)))
        size = len(fc._iota_cache)
        calls = spy_vderiv(monkeypatch)
        got = fc.iota_word(normal(fc, 0, ("b", "a", "b"), (1, 2)))
        assert calls == [] and len(fc._iota_cache) == size
        monkeypatch.undo()
        fresh = FreeConformal(fc.alg)
        assert got == fresh.iota_word(normal(fresh, 0, ("b", "a", "b"), (1, 2)))

    def test_each_word_is_built_once_per_entry_and_letter(self):
        fc = FreeConformal(AlgebraConfig({"a": 2, "b": 3}))
        p = fc.iota(ConfElement({u: 1 for u in fc.enumerate_basis(2)}))
        first, again = fc.reduce(p), fc.reduce(p)
        assert list(first.terms.items()) == list(again.terms.items())
        assert all(u is w for u, w in zip(first.terms, again.terms))
        # r of T(0, r) and T(m, r) is the word its next entry in made for r's
        # first letter: one word for both, not a copy per entry
        cache = fc._iota_cache
        for m, r, _, _ in cache.values():
            if r is not None:
                key = fc._hat(r)[fc.alg.n[r.gens[0]]:]
                assert cache[key][3][fc.alg.index[r.gens[0]]] is r, r

    def test_a_derivative_reads_the_cached_tail(self):
        fc = FreeConformal(AlgebraConfig({"a": 2, "b": 3}))
        fc.iota_word(normal(fc, 0, ("a", "b", "a"), (0, 1)))  # caches T(0, b .1 a)
        entries = dict(fc._iota_cache)
        fc.iota_word(normal(fc, 0, ("a", "b", "a"), (1, 1)))  # T(1, b .1 a) from it
        assert len(fc._iota_cache) == len(entries) + 1
        assert all(fc._iota_cache[key] is entry for key, entry in entries.items())

    def test_five_letters_share_one_tail(self, monkeypatch):
        fc = FreeConformal(load_config(str(DATA / "config_five.json"))[0])
        names = fc.alg.names
        # T(1, c .0 b) is the derivative of v v c v b: two monomials
        gens, indices = ("c", "b"), (1, 0)
        first = fc.iota_word(normal(fc, 0, (names[0],) + gens, indices))
        size = len(fc._iota_cache)
        calls = spy_vderiv(monkeypatch)
        got = {a: fc.iota_word(normal(fc, 0, (a,) + gens, indices)) for a in names[1:]}
        assert calls == [] and len(fc._iota_cache) == size
        monkeypatch.undo()
        for a, image in got.items():
            fresh = FreeConformal(fc.alg)
            assert image == fresh.iota_word(normal(fresh, 0, (a,) + gens, indices)), a
            assert len(image.parts[0].terms) == len(first.parts[0].terms) > 1

    @pytest.mark.parametrize(
        "config", ["config_ab.json", "config_ba.json", "config_xyz.json", "config_five.json"]
    )
    def test_an_image_is_the_same_with_or_without_siblings(self, config, monkeypatch):
        alg = load_config(str(DATA / config))[0]
        warm = FreeConformal(alg)
        basis = warm.enumerate_basis(3)
        calls = spy_vderiv(monkeypatch)
        for u in basis:
            warm.iota_word(u)
        # each tail (m, r) with m > 0 takes one derivative, however many
        # first letters stand in front of it
        derived = {(u.indices[0], u.gens[1:], u.indices[1:]) for u in basis if u.indices}
        assert len(calls) == sum(1 for m, _, _ in derived if m) < len(basis)
        monkeypatch.undo()
        for u in basis:
            alone = FreeConformal(alg)
            key = alone._hat(u)[alone.alg.n[u.gens[0]]:]
            m, r, image, _ = alone._iota_nc(u.gens[1:], u.indices, key)
            got = warm._iota_cache[key]
            assert got[:2] == (m, r), u
            assert list(got[2].terms.items()) == list(image.terms.items()), u

    @pytest.mark.parametrize("config", ["config_ab.json", "config_xyz.json"])
    def test_index_zero_takes_no_derivative(self, config, monkeypatch):
        # T(0, r) is prefixed as it is: vderiv(0) would return it unchanged
        fc = FreeConformal(load_config(str(DATA / config))[0])
        basis = fc.enumerate_basis(3)
        calls = spy_vderiv(monkeypatch)
        for u in basis:
            fc.iota_word(u)
        assert calls and 0 not in calls


def objects_and_values(tuples: list) -> tuple[int, int]:
    return len({id(t) for t in tuples}), len(set(tuples))


class TestSharedTuples:
    """Each engine keeps one object per distinct tuple value: the realize
    cache's keys and monomials and its words' fields, the rewrite words'."""

    @pytest.fixture(scope="class", params=["config_ab.json", "config_xyz.json"])
    def tables(self, request):
        # the benchmark's table shape: k <= 2, n = 0 and 1, one instance per engine
        alg = load_config(str(DATA / request.param))[0]
        out = {}
        for engine in ENGINES:
            fc = FreeConformal(alg)
            for _ in fc.table_rows(fc.enumerate_basis(2), range(2), engine):
                pass
            out[engine] = fc
        return request.param, out

    def test_cache_keys_and_monomials_are_one_object_per_value(self, tables):
        config, fcs = tables
        cache = fcs["realize"]._iota_cache
        monomials = [w for entry in cache.values() for w in entry[2].terms]
        assert objects_and_values(list(cache) + monomials) == (len(cache), len(cache))
        assert len(monomials) > len(cache)  # values repeat, so sharing matters
        if config == "config_ab.json":
            assert (len(cache), len(monomials)) == (3806, 28733)

    def test_realize_words_share_their_fields(self, tables):
        cache = tables[1]["realize"]._iota_cache
        words = [w for entry in cache.values() for w in entry[3] if w is not None]
        for field in ("gens", "indices"):
            values = [getattr(w, field) for w in words]
            objects, distinct = objects_and_values(values)
            assert objects == distinct < len(values), field

    def test_rewrite_words_share_their_fields(self, tables):
        rewriter = tables[1]["rewrite"]._rewriter
        words = list(rewriter._rw_interned.values())
        for field in ("gens", "indices"):
            values = [getattr(w, field) for w in words]
            objects, distinct = objects_and_values(values)
            assert objects == distinct < len(values), field
        # the interning keys hold the same shared objects as the words
        assert all(
            key[0] is w.gens and key[1] is w.indices for key, w in rewriter._rw_interned.items()
        )

    def test_a_second_instance_starts_with_its_own_empty_tables(self, tables):
        fc = tables[1]["realize"]
        assert fc._shared and tables[1]["rewrite"]._rewriter._shared
        fresh = FreeConformal(fc.alg)
        assert fresh._shared == {} and fresh._shared is not fc._shared
        assert fresh._rewriter._shared == {}
        assert fresh._rewriter._shared is not fc._rewriter._shared


class TestPlainLexSlices:
    """Every monomial of a pair slice's part has one length (see _eliminate)."""

    @pytest.fixture
    def lengths(self, monkeypatch) -> list:
        """The set of monomial lengths of each part of each eliminated slice."""
        seen = []
        real = FreeConformal._eliminate

        def spy(fc, p, piece):
            seen.extend({len(w) for w in f.terms} for f in p.parts.values())
            return real(fc, p, piece)

        monkeypatch.setattr(FreeConformal, "_eliminate", spy)
        return seen

    @pytest.mark.parametrize(
        ("config", "max_k", "max_s"),
        [
            ("config_ab.json", 2, 0),
            ("config_ba.json", 2, 0),
            ("config_xyz.json", 1, 1),
            ("config_five.json", 1, 1),
        ],
    )
    def test_table_slices(self, config, max_k, max_s, lengths):
        fc = FreeConformal(load_config(str(DATA / config))[0])
        words = fc.enumerate_basis(max_k, max_s)
        for _ in fc.table_rows(words, range(4), "realize"):
            pass
        assert lengths and all(len(seen) == 1 for seen in lengths)

    def test_d_shifted_products(self, lengths):
        fc = FreeConformal(AlgebraConfig({"a": 2, "b": 3}))
        rng = as_rng(211)
        for _ in range(30):
            x = random_element(rng, fc, max_k=3, max_s=3, max_terms=3)
            y = random_element(rng, fc, max_k=3, max_s=3, max_terms=3)
            assert fc.cprods(x, y, range(5)) == fc.cprods_rw(x, y, range(5))
        assert lengths and all(len(seen) == 1 for seen in lengths)


class TestPairPassesThePiece:
    """A product's slices arrive without u's leading piece, which _pair
    passes to _eliminate; reduce passes the empty piece and whole monomials."""

    @pytest.fixture
    def pieces(self, monkeypatch) -> list:
        """The piece of every _eliminate call."""
        calls = []
        real = FreeConformal._eliminate

        def spy(fc, p, piece):
            calls.append(piece)
            return real(fc, p, piece)

        monkeypatch.setattr(FreeConformal, "_eliminate", spy)
        return calls

    def test_products_pass_a_leading_piece(self, pieces):
        fc = FreeConformal(load_config(str(DATA / "config_ab.json"))[0])
        assert sum(1 for _ in fc.table_rows(fc.enumerate_basis(2), range(4), "realize"))
        rng = as_rng(223)
        lefts = []
        for _ in range(20):
            x = random_element(rng, fc, max_k=2, max_s=3, max_terms=3)
            y = random_element(rng, fc, max_k=2, max_s=3, max_terms=3)
            assert fc.cprods(x, y, range(4)) == fc.cprods_rw(x, y, range(4))
            lefts.append(x)
        # some left factor has D-powers and several first letters in one _pair
        assert any(
            len({u.gens[0] for u in x.terms}) > 1 and any(u.s for u in x.terms) for x in lefts
        )
        assert set(pieces) == {fc._hat(NormalWord(0, (a,), ())) for a in fc.alg.names}

    def test_reduce_passes_the_empty_piece(self, pieces):
        fc = FreeConformal(load_config(str(DATA / "config_ab.json"))[0])
        x = ConfElement({
            normal(fc, 0, ("a",), ()): 1,
            normal(fc, 2, ("b", "a"), (1,)): Fraction(-1, 2),
        })
        assert fc.reduce(fc.iota(x)) == x
        assert pieces == [""]


class TestLocality:
    def test_generator_pairs(self, fc):
        a, b = fc.generator("a"), fc.generator("b")
        assert fc.locality_of(a, b) == 2
        assert fc.locality_of(a, b.d_shift(1)) == 3
        assert fc.locality_of(a, a) == 1

    def test_a_zero_factor_is_refused(self, fc):
        a = fc.generator("a")
        for x, y in ((ConfElement(), a), (a, ConfElement())):
            with pytest.raises(ValueError) as got:
                fc.locality_of(x, y)
            assert type(got.value) is ValueError
            assert str(got.value) == "locality is defined for nonzero elements"

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
        with pytest.raises(ValueError) as got:
            fc.basis_count(-1)
        assert type(got.value) is ValueError and str(got.value) == "negative length"
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
            assert word_from_json(fc, fc.word_to_json(u)) == u

    def test_element_json_round_trip(self, fc):
        rng = as_rng(89)
        for _ in range(20):
            x = random_element(rng, fc, max_k=2, max_s=1, max_terms=3, nonzero=False)
            assert element_from_json(fc, fc.element_to_json(x)) == x

    def test_rendering(self, fc):
        u = normal(fc, 0, ("b", "a", "b"), (0, 1))
        assert fc.render_word(u) == "(b .0 (a .1 b))"
        assert fc.render_word(normal(fc, 2, ("a",), ())) == "D^2(a)"
        x = ConfElement({u: Fraction(-3, 2)}) + fc.generator("a")
        assert fc.element_to_text(x) == "a - 3/2 * (b .0 (a .1 b))"
        assert fc.element_to_text(ConfElement()) == "0"

    def test_element_repr(self):
        x = ConfElement({NormalWord(1, ("a", "b"), (1,)): Fraction(3, 2), NormalWord(0, ("b",), ()): -1})
        assert repr(x) == "3/2*('a', 'b')/(1,)/D^1 + -1*('b',)/()/D^0"
        assert repr(ConfElement()) == "0"

    def test_rendering_long_words(self, fc):
        # one generator per nesting level: no recursion limit applies
        u = NormalWord(3, ("a",) * 1100, (0,) * 1099)
        assert fc.render_word(u) == "D^3(" + "(a .0 " * 1099 + "a" + ")" * 1099 + ")"

    def test_sorted_terms_follow_the_hat_order(self, fc):
        rng = as_rng(97)
        for _ in range(10):
            x = random_element(rng, fc, max_k=2, max_s=1, max_terms=4)
            grouped = {}
            for u, _ in fc.sorted_terms(x):
                grouped.setdefault(u.s, []).append(
                    deglex_key(hat_word(fc, u.dfree())[1])
                )
            for keys in grouped.values():
                assert keys == sorted(keys)


class TestJsonText:
    """The table's string renderer writes what dump_json writes of the dicts."""

    # 40-digit numerators and denominators, negative and fractional
    BIG = 10**39 + 7

    def test_elements_match_dump_json(self):
        fc = FreeConformal(AlgebraConfig({"alpha": 3, "b_2": 2}))
        rng = as_rng(131)
        scales = [1, -1, Fraction(-3, 2), self.BIG, -self.BIG, Fraction(self.BIG, 3),
                  Fraction(-1, self.BIG)]
        seen = set()
        for _ in range(200):
            x = random_element(rng, fc, max_k=3, max_s=3, max_terms=4, nonzero=False)
            x = ConfElement({u: c * rng.choice(scales) for u, c in x.terms.items()})
            for u, c in x.terms.items():
                seen |= {("D", u.s > 0), ("neg", c < 0), ("frac", c.denominator > 1),
                         ("big", len(str(abs(c))) >= 40)}
            assert fc._terms_to_json_text(fc.sorted_terms(x)) == dump_json(fc.element_to_json(x)), x
        assert all((kind, True) in seen for kind in ("D", "neg", "frac", "big"))
        assert fc._terms_to_json_text([]) == "[]" == dump_json(fc.element_to_json(ConfElement()))

    def test_elements_are_sorted_whatever_their_order(self):
        fc = FreeConformal(AlgebraConfig({"a": 2, "b": 3}))
        terms = [(u, Fraction(i + 1)) for i, u in enumerate(fc.enumerate_basis(1, max_s=1))]
        ordered = sorted(terms, key=lambda item: fc.sort_key(item[0]))
        x = ConfElement(dict(ordered[::-1]))
        assert list(x.terms.items()) == ordered[::-1]
        text = dump_json(fc.element_to_json(x))
        assert text == dump_json(fc.element_to_json(ConfElement(dict(ordered))))
        assert text == fc._terms_to_json_text(ordered) != fc._terms_to_json_text(ordered[::-1])

    def test_words_match_dump_json(self):
        fc = FreeConformal(AlgebraConfig({"alpha": 3, "b_2": 2}))
        for u in fc.enumerate_basis(2, max_s=2):
            assert fc.word_to_json_text(u) == dump_json(fc.word_to_json(u))

    def test_unknown_letters_raise(self):
        fc = FreeConformal(AlgebraConfig({"a": 2}))
        with pytest.raises(ConfigError):
            fc.element_to_json(ConfElement({NormalWord(0, ('"',), ()): 1}))


def test_random_element_determinism(fc):
    x = random_element(as_rng(5), fc, max_k=2, max_s=1)
    y = random_element(as_rng(5), fc, max_k=2, max_s=1)
    assert x == y and x
