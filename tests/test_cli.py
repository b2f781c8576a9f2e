"""Command line behaviour: output shapes, determinism, exit codes.

Each documented exit code has at least one test pinning it: 0 on success,
1 for unusable input, 2 for elements outside the normal-word span, 3 for
a failed axiom check.
"""

import argparse
import hashlib
import io
import json
import math
import os
import shlex
import shutil
import subprocess
import sys

import pytest

from confalg import cli, ncpoly
from confalg.cli import MAX_BASIS_LETTERS, MAX_TABLE_LETTERS, dump_json, load_config, main
from confalg.exprs import evaluate, parse
from confalg.freeconf import ConfElement, FreeConformal
from confalg.ncpoly import MAX_LOCALITY

from conftest import DATA

CONFIG = str(DATA / "config_ab.json")
CONFIG_COMM = str(DATA / "config_comm.json")
CONFIG_ONEGEN = str(DATA / "config_onegen.json")
# deeper than the JSON parser's recursion limit
DEEP_JSON = b"[" * 200_000 + b"]" * 200_000


def run(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def _dshifted(x: ConfElement) -> bool:
    return all(u.s for u in x.terms)


def _cprod_off_when_shifted(left: bool):
    """FreeConformal.cprod plus the generator a when the left factor is
    D-shifted (every term carries a D) and the right one is not, or, with
    left=False, the other way round.  Of sesqui's two checks only the
    left-slot one, or only the right-slot one, then reads a wrong product."""
    real = FreeConformal.cprod

    def cprod(fc, x, n, y):
        value = real(fc, x, n, y)
        if (_dshifted(x), _dshifted(y)) == (left, not left):
            value = value + fc.generator("a")
        return value

    return cprod


def _locality_one_too_high():
    real = FreeConformal.locality_of
    return lambda fc, x, y: real(fc, x, y) + 1


class TestReduce:
    def test_expression(self, capsys):
        rc, out, err = run(
            capsys, "reduce", "--config", CONFIG, "--expr", "(D^1(a) .1 b)"
        )
        assert rc == 0 and err == ""
        text, payload = out.splitlines()
        assert text == "-1 * (a .0 b)"
        assert json.loads(payload) == [
            {"coeff": "-1", "word": {"gens": ["a", "b"], "indices": [0], "s": 0}}
        ]

    def test_engines_emit_identical_bytes(self, capsys):
        outs = []
        for engine in ("realize", "rewrite"):
            rc, out, _ = run(
                capsys,
                "reduce", "--config", CONFIG,
                "--expr", "((a .1 b) .2 (a .0 b))",
                "--engine", engine,
            )
            assert rc == 0
            outs.append(out)
        assert outs[0] == outs[1]

    def test_raw_element(self, capsys):
        rc, out, err = run(
            capsys,
            "reduce", "--config", CONFIG,
            "--raw-element", str(DATA / "raw_vavb.json"),
        )
        assert rc == 0
        assert out.splitlines()[0] == "-1 * (a .1 b)"

    @pytest.mark.parametrize("coeff", [0.1, 1.0])
    def test_raw_element_float_coefficient_exits_1(self, capsys, tmp_path, coeff):
        raw = {"parts": [{"d": 0, "terms": [{"coeff": coeff, "word": ["v", "a", "v", "b"]}]}]}
        path = tmp_path / "raw_float.json"
        path.write_text(json.dumps(raw), encoding="utf-8")
        rc, out, err = run(capsys, "reduce", "--config", CONFIG, "--raw-element", str(path))
        assert rc == 1 and out == ""
        assert err.startswith("error: ") and "float" in err

    def test_raw_element_bool_coefficient_exits_1(self, capsys, tmp_path):
        raw = {"parts": [{"d": 0, "terms": [{"coeff": True, "word": ["v", "a", "v", "b"]}]}]}
        path = tmp_path / "raw_bool.json"
        path.write_text(json.dumps(raw), encoding="utf-8")
        rc, out, err = run(capsys, "reduce", "--config", CONFIG, "--raw-element", str(path))
        assert rc == 1 and out == ""
        assert err.startswith("error: ") and "bool" in err

    @pytest.mark.parametrize("d", [0.9, 1.0, True, "1"], ids=repr)
    def test_raw_element_nonintegral_degree_exits_1(self, capsys, tmp_path, d):
        raw = {"parts": [{"d": d, "terms": [{"coeff": "1", "word": ["v", "a", "v", "b"]}]}]}
        path = tmp_path / "raw_degree.json"
        path.write_text(json.dumps(raw), encoding="utf-8")
        rc, out, err = run(capsys, "reduce", "--config", CONFIG, "--raw-element", str(path))
        assert rc == 1 and out == ""
        assert err.startswith("error: ") and "integer" in err

    @pytest.mark.parametrize(
        "part",
        [
            {"d": 0, "terms": [{"coeff": "1", "word": "vvb"}]},
            {"d": 0, "terms": [{"coeff": "1", "word": ["v", 1, "b"]}]},
            {"d": -1, "terms": []},
            {"d": -1, "terms": [{"coeff": "1", "word": ["v", "a", "v", "b"]}]},
        ],
        ids=["string-word", "non-string-letter", "negative-d-no-terms", "negative-d"],
    )
    def test_raw_element_malformed_word_or_degree_exits_1(self, capsys, tmp_path, part):
        path = tmp_path / "raw_bad.json"
        path.write_text(json.dumps({"parts": [part]}), encoding="utf-8")
        rc, out, err = run(capsys, "reduce", "--config", CONFIG, "--raw-element", str(path))
        assert rc == 1 and out == ""
        assert err.startswith("error: bad raw element: ")

    @pytest.mark.parametrize(
        ("text", "prefix"),
        [
            (None, "error: cannot read raw element: "),
            (b"{", "error: raw element is not valid JSON: "),
            (b"\xff\xfe{}", "error: raw element is not valid JSON: "),
            (DEEP_JSON, "error: raw element is not valid JSON: "),
            (b"{}", 'error: raw element must be {"parts": [{"d": ..., "terms": [...]}]}'),
        ],
        ids=["missing-file", "invalid-json", "not-utf8", "deep-nesting", "no-parts"],
    )
    def test_unreadable_raw_element_exits_1(self, capsys, tmp_path, text, prefix):
        path = tmp_path / "raw.json"
        if text is not None:
            path.write_bytes(text)
        rc, out, err = run(capsys, "reduce", "--config", CONFIG, "--raw-element", str(path))
        assert rc == 1 and out == ""
        assert err.startswith(prefix) and err.count("\n") == 1 and err.endswith("\n")

    @pytest.mark.parametrize("engine", [[], ["--engine", "realize"]], ids=["default", "realize"])
    def test_raw_element_reduces_through_realize(self, capsys, engine):
        rc, out, err = run(
            capsys,
            "reduce", "--config", CONFIG,
            "--raw-element", str(DATA / "raw_vavb.json"), *engine,
        )
        assert rc == 0 and err == ""
        assert out.splitlines()[0] == "-1 * (a .1 b)"

    def test_raw_element_under_rewrite_exits_1(self, capsys):
        # the rewriting engine has no embedding to reduce a raw element through
        rc, out, err = run(
            capsys,
            "reduce", "--config", CONFIG,
            "--raw-element", str(DATA / "raw_vavb.json"), "--engine", "rewrite",
        )
        assert rc == 1 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1 and "rewrite" in err

    def test_raw_element_outside_span_exits_2(self, capsys):
        rc, out, err = run(
            capsys,
            "reduce", "--config", CONFIG,
            "--raw-element", str(DATA / "raw_not_in_span.json"),
        )
        assert rc == 2
        assert out == ""
        assert "span" in err

    def test_needs_exactly_one_input(self, capsys):
        rc, _, err = run(capsys, "reduce", "--config", CONFIG)
        assert rc == 1 and "exactly one" in err
        rc, _, err = run(
            capsys,
            "reduce", "--config", CONFIG,
            "--expr", "a",
            "--raw-element", str(DATA / "raw_vavb.json"),
        )
        assert rc == 1

    def test_parse_error_exits_1(self, capsys):
        rc, out, err = run(capsys, "reduce", "--config", CONFIG, "--expr", "(a .x b)")
        assert rc == 1 and out == ""
        assert err.startswith("error:") and "column 5" in err

    def test_unknown_generator_exits_1(self, capsys):
        rc, _, err = run(capsys, "reduce", "--config", CONFIG, "--expr", "(a .0 q)")
        assert rc == 1 and "q" in err


class TestConfigHandling:
    BAD = [
        "config_dup.json",
        "config_zero_locality.json",
        "config_reserved_name.json",
        "config_bad_mode.json",
        "config_syntax.json",
        "config_not_object.json",
        "config_empty_order.json",
        "config_no_generators.json",
        "config_no_locality.json",
        "config_name_not_string.json",
        "config_order_not_names.json",
    ]
    # load_config's own refusals, which AlgebraConfig never sees
    SHAPE_MESSAGES = {
        "config_not_object.json": "config must be a JSON object",
        "config_no_generators.json": "config needs a nonempty generators list",
        "config_no_locality.json": "each generator entry needs name and locality",
        "config_name_not_string.json": "generator names must be strings",
        "config_order_not_names.json": "order must be a list of generator names",
    }

    @pytest.mark.parametrize("name", BAD)
    def test_bad_configs_exit_1(self, capsys, name):
        rc, out, err = run(
            capsys, "reduce", "--config", str(DATA / "bad" / name), "--expr", "a"
        )
        assert rc == 1 and out == "" and err.startswith("error:")

    @pytest.mark.parametrize(("name", "message"), SHAPE_MESSAGES.items())
    def test_bad_config_shapes_are_named(self, capsys, name, message):
        rc, out, err = run(
            capsys, "reduce", "--config", str(DATA / "bad" / name), "--expr", "a"
        )
        assert (rc, out, err) == (1, "", f"error: {message}\n")

    def test_empty_order_names_the_order(self, capsys):
        path = str(DATA / "bad" / "config_empty_order.json")
        rc, out, err = run(capsys, "basis", "--config", path, "--max-k", "1")
        assert rc == 1 and out == ""
        assert err == "error: order must list exactly the declared generators\n"

    @pytest.mark.parametrize("locality", [10**400, MAX_LOCALITY + 1], ids=["10**400", "cap+1"])
    def test_locality_above_the_cap_exits_1(self, capsys, tmp_path, locality):
        path = tmp_path / "config_huge.json"
        path.write_text(json.dumps({"generators": [{"name": "a", "locality": locality}]}))
        rc, out, err = run(capsys, "reduce", "--config", str(path), "--expr", "a")
        assert rc == 1 and out == ""
        assert err == f"error: locality of 'a' must be at most {MAX_LOCALITY}\n"

    def test_more_generators_than_code_points_exits_1(self, capsys, monkeypatch):
        # each letter is one code point: the real cap, 0x10FFFF, is too large
        # a config to write here, so a cap of one stands in for it
        monkeypatch.setattr(ncpoly, "MAX_GENERATORS", 1)
        path = str(DATA / "config_ab.json")
        rc, out, err = run(capsys, "reduce", "--config", path, "--expr", "a")
        assert (rc, out, err) == (1, "", "error: at most 1 generators are supported\n")

    def test_missing_file_exits_1(self, capsys):
        rc, _, err = run(
            capsys, "reduce", "--config", str(DATA / "no_such.json"), "--expr", "a"
        )
        assert rc == 1 and "error:" in err

    @pytest.mark.parametrize(
        ("text", "prefix"),
        [
            (None, "error: cannot read config: "),
            (b"{", "error: config is not valid JSON: "),
            (b"\xff\xfe{}", "error: config is not valid JSON: "),
            (DEEP_JSON, "error: config is not valid JSON: "),
        ],
        ids=["missing-file", "invalid-json", "not-utf8", "deep-nesting"],
    )
    def test_unreadable_config_exits_1(self, capsys, tmp_path, text, prefix):
        path = tmp_path / "config.json"
        if text is not None:
            path.write_bytes(text)
        rc, out, err = run(capsys, "reduce", "--config", str(path), "--expr", "a")
        assert rc == 1 and out == ""
        assert err.startswith(prefix) and err.count("\n") == 1 and err.endswith("\n")

    def test_commutative_mode_refuses_basis_commands(self, capsys):
        for argv in (
            ("reduce", "--config", CONFIG_COMM, "--expr", "a"),
            ("basis", "--config", CONFIG_COMM, "--max-k", "1"),
            ("table", "--config", CONFIG_COMM, "--max-n", "1", "--max-k", "1"),
        ):
            rc, _, err = run(capsys, *argv)
            assert rc == 1 and "conformal" in err


class TestProd:
    def test_conformal(self, capsys):
        rc, out, _ = run(
            capsys, "prod", "--config", CONFIG, "--left", "a", "--n", "1", "--right", "b"
        )
        assert rc == 0
        assert out.splitlines()[0] == "(a .1 b)"

    def test_pseudo_commutative(self, capsys):
        rc, out, _ = run(
            capsys,
            "prod", "--config", CONFIG_COMM, "--left", "a", "--n", "0", "--right", "b",
        )
        assert rc == 0
        text, payload = out.splitlines()
        assert text == "1(x)(abv)"
        assert json.loads(payload) == [
            {"d": 0, "terms": [{"coeff": "1", "word": ["a", "b", "v"]}]}
        ]

    @pytest.mark.parametrize("engine", ["realize", "rewrite"])
    def test_pseudo_commutative_refuses_an_engine(self, capsys, engine):
        # neither engine computes a pseudo-commutative product: P20 does
        rc, out, err = run(
            capsys,
            "prod", "--config", CONFIG_COMM, "--left", "a", "--n", "0", "--right", "b",
            "--engine", engine,
        )
        assert rc == 1 and out == ""
        assert err.startswith("error:") and "--engine" in err

    def test_negative_index_exits_1(self, capsys):
        rc, _, err = run(
            capsys, "prod", "--config", CONFIG, "--left", "a", "--n", "-1", "--right", "b"
        )
        assert rc == 1 and "nonnegative" in err

    def test_rewrite_takes_a_deep_right_derivative(self, capsys):
        # one recursion level per D would pass the default limit of 1000 frames
        outs = []
        for engine in ("rewrite", "realize"):
            rc, out, err = run(
                capsys, "prod", "--config", CONFIG,
                "--left", "a", "--n", "1", "--right", "D^1500(b)", "--engine", engine,
            )
            assert rc == 0 and err == ""
            outs.append(out)
        assert outs[0] == outs[1]
        assert outs[0].splitlines()[0] == "1500 * D^1499((a .0 b)) + D^1500((a .1 b))"

    def test_engines_agree_on_a_far_right_derivative(self, capsys):
        outs = [
            run(capsys, "prod", "--config", CONFIG, "--left", "a", "--n", "1",
                "--right", "D^3000(b)", "--engine", engine)
            for engine in ("realize", "rewrite")
        ]
        assert outs[0] == outs[1]
        assert outs[0][1].splitlines()[0] == "3000 * D^2999((a .0 b)) + D^3000((a .1 b))"


class TestBasis:
    def test_counts_and_listing(self, capsys):
        rc, out, _ = run(
            capsys, "basis", "--config", CONFIG, "--max-k", "2", "--max-s", "1"
        )
        assert rc == 0
        lines = out.splitlines()
        assert lines[0] == "k=0: 2 D-free normal words"
        assert lines[1] == "k=1: 10 D-free normal words"
        assert lines[2] == "k=2: 50 D-free normal words"
        payload = json.loads(lines[3])
        assert payload["total"] == 2 * (2 + 10 + 50)
        assert [c["dfree"] for c in payload["counts"]] == [2, 10, 50]
        seen = {json.dumps(w, sort_keys=True) for w in payload["words"]}
        assert len(seen) == payload["total"]

    def test_negative_max_k_exits_1(self, capsys):
        rc, out, err = run(capsys, "basis", "--config", CONFIG, "--max-k", "-1")
        assert (rc, out, err) == (1, "", "error: --max-k and --max-s must be nonnegative\n")

    def test_byte_stable(self, capsys):
        a = run(capsys, "basis", "--config", CONFIG, "--max-k", "2")
        b = run(capsys, "basis", "--config", CONFIG, "--max-k", "2")
        assert a == b

    TOO_LARGE = (
        f"error: basis would list more than {MAX_BASIS_LETTERS} letters; "
        "lower --max-k or --max-s\n"
    )

    @pytest.mark.parametrize(
        ("config", "flags"),
        [
            (CONFIG, ("--max-k", "999999")),
            (CONFIG, ("--max-k", "0", "--max-s", str(10**15))),
            # one word per k, of k + 1 letters: 1,501 words, 1,127,251 letters
            (CONFIG_ONEGEN, ("--max-k", "1500")),
        ],
    )
    def test_above_the_cap_exits_1_before_enumerating(self, capsys, monkeypatch, config, flags):
        def enumerate_basis(fc, max_k, max_s=0):
            raise AssertionError("enumerated")

        monkeypatch.setattr(FreeConformal, "enumerate_basis", enumerate_basis)
        rc, out, err = run(capsys, "basis", "--config", config, *flags)
        assert (rc, out, err) == (1, "", self.TOO_LARGE)

    def test_the_cap_counts_letters(self, capsys, monkeypatch):
        # k <= 2 on {a: 2, b: 3}: 2 words of 1 letter, 10 of 2 and 50 of 3
        monkeypatch.setattr(cli, "MAX_BASIS_LETTERS", 2 + 10 * 2 + 50 * 3)
        assert run(capsys, "basis", "--config", CONFIG, "--max-k", "2")[0] == 0
        rc, out, err = run(capsys, "basis", "--config", CONFIG, "--max-k", "2", "--max-s", "1")
        assert (rc, out) == (1, "") and "more than 172 letters" in err
        monkeypatch.setattr(cli, "MAX_BASIS_LETTERS", 171)
        assert run(capsys, "basis", "--config", CONFIG, "--max-k", "2")[0] == 1


class TestTable:
    def test_negative_max_n_exits_1(self, capsys):
        rc, out, err = run(capsys, "table", "--config", CONFIG, "--max-n", "-1", "--max-k", "1")
        assert (rc, out, err) == (1, "", "error: --max-n and --max-k must be nonnegative\n")

    @pytest.mark.parametrize(
        ("config", "max_k", "max_n"),
        [(CONFIG, "99", "1"), (CONFIG, "0", str(10**8)), (CONFIG_ONEGEN, "999", "0")],
    )
    def test_above_the_cap_exits_1_before_enumerating(
        self, capsys, monkeypatch, config, max_k, max_n
    ):
        def enumerate_basis(fc, max_k, max_s=0):
            raise AssertionError("enumerated")

        monkeypatch.setattr(FreeConformal, "enumerate_basis", enumerate_basis)
        rc, out, err = run(capsys, "table", "--config", config, "--max-k", max_k, "--max-n", max_n)
        assert (rc, out) == (1, "")
        assert err == (
            f"error: table would multiply more than {MAX_TABLE_LETTERS} letters; "
            "lower --max-k or --max-n\n"
        )

    def test_the_cap_counts_both_words_of_each_cell(self, capsys, monkeypatch):
        # k <= 1 on {a: 2, b: 3}: 12 words, 2 + 10 * 2 = 22 letters; each
        # word meets all 12 on either side for each of 3 n
        monkeypatch.setattr(cli, "MAX_TABLE_LETTERS", 2 * 12 * 22 * 3)
        argv = ("table", "--config", CONFIG, "--max-k", "1", "--max-n", "2")
        assert run(capsys, *argv)[0] == 0
        monkeypatch.setattr(cli, "MAX_TABLE_LETTERS", 2 * 12 * 22 * 3 - 1)
        rc, out, err = run(capsys, *argv)
        assert (rc, out) == (1, "") and "more than 1583 letters" in err

    @pytest.mark.parametrize(
        ("config", "max_k", "max_n"),
        [("config_ab", 2, 3), ("config_xyz", 2, 3), ("config_five", 1, 3), ("config_onegen", 4, 3)],
    )
    def test_the_ci_tables_are_under_the_cap(self, config, max_k, max_n):
        fc = FreeConformal(load_config(str(DATA / f"{config}.json"))[0])
        words, letters = cli._basis_size(fc, max_k, MAX_TABLE_LETTERS)
        assert 2 * words * letters * (max_n + 1) <= MAX_TABLE_LETTERS

    def test_structure_and_byte_stability(self, capsys):
        rc, out, _ = run(
            capsys, "table", "--config", CONFIG, "--max-n", "2", "--max-k", "1"
        )
        assert rc == 0
        rows = json.loads(out)
        words = 2 + 10
        assert len(rows) == words * words * 3
        rc2, out2, _ = run(
            capsys, "table", "--config", CONFIG, "--max-n", "2", "--max-k", "1"
        )
        assert out2 == out
        rc3, out3, _ = run(
            capsys,
            "table", "--config", CONFIG, "--max-n", "2", "--max-k", "1",
            "--engine", "rewrite",
        )
        assert out3 == out

    # stdout sha256 of small tables, pinned so that neither the engines nor
    # the row assembly can change a byte
    GOLDEN = [
        ("config_ab.json", "1", "2",
         "6e8e0cf1606725639753a2216d056a1e6565409ec265140fc7f8f8f2d53173b8"),
        # config_ab with "order": ["b", "a"]: the other monomial order
        ("config_ba.json", "1", "2",
         "2a564909f5fb80478ad60904d750b0aa602c1ad537f457dbbc2b4ad5db579987"),
        ("config_xyz.json", "1", "1",
         "36eb68c3c09abc873fc95f1fd88a83da97b76b3b5b4871bfdec6d606de38fed9"),
        ("config_onegen.json", "2", "2",
         "863e93bb32696dbbf3de338e6cb204f1a60c04be458cd293df27d68d0989e3f0"),
    ]

    @pytest.mark.parametrize("engine", ["realize", "rewrite"])
    @pytest.mark.parametrize(("config", "max_k", "max_n", "digest"), GOLDEN)
    def test_golden_bytes(self, capsys, config, max_k, max_n, digest, engine):
        rc, out, _ = run(
            capsys,
            "table", "--config", str(DATA / config), "--max-k", max_k, "--max-n", max_n,
            "--engine", engine,
        )
        assert rc == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_rows_are_what_dump_json_makes(self, capsys, tmp_path):
        path = tmp_path / "config_long_names.json"
        path.write_text(json.dumps({"generators": [
            {"name": "alpha", "locality": 2}, {"name": "b_2", "locality": 1},
        ]}))
        outs = []
        for engine in ("realize", "rewrite"):
            rc, out, _ = run(
                capsys,
                "table", "--config", str(path), "--max-k", "1", "--max-n", "1",
                "--engine", engine,
            )
            assert rc == 0 and out.endswith("]\n")
            assert dump_json(json.loads(out)) == out.rstrip("\n")
            outs.append(out)
        assert outs[0] == outs[1]
        assert len(json.loads(outs[0])) == (2 + 2 * 3) ** 2 * 2


def table_on(monkeypatch, capsys, cpus: int, *argv) -> str:
    """stdout of an in-process table with cpus usable CPUs; exit 0."""
    monkeypatch.setattr(cli, "_usable_cpus", lambda: cpus)
    rc, out, err = run(capsys, "table", *argv)
    assert (rc, err) == (0, "")
    return out


def spy_fork(monkeypatch) -> list:
    """Record each os.fork in this process; the child's own calls are lost."""
    forks = []
    real = os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or real())
    return forks


def assert_no_child():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class TestUsableCpus:
    @pytest.mark.skipif(not hasattr(os, "sched_getaffinity"), reason="no affinity mask here")
    def test_the_affinity_mask_where_there_is_one(self):
        assert cli._usable_cpus() == len(os.sched_getaffinity(0))

    def test_the_machines_count_without_one(self, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        assert cli._usable_cpus() == (os.cpu_count() or 1)
        monkeypatch.setattr(os, "cpu_count", lambda: None)  # count unknown
        assert cli._usable_cpus() == 1


class TestReceive:
    """The parent's reader of the child's rows, one line each."""

    @pytest.mark.parametrize("text", ["", '{"left":["a"]}\t{"left"'], ids=("empty", "cut"))
    def test_a_line_without_its_end_means_the_child_stopped(self, text):
        with pytest.raises(RuntimeError, match="ended before sending every row"):
            cli._receive(io.StringIO(text))

    def test_a_bang_line_is_the_childs_error(self):
        with pytest.raises(RuntimeError, match="^the table's second process failed: X$"):
            cli._receive(io.StringIO("!X\n"))

    def test_a_row_line_gives_its_cells(self):
        reader = io.StringIO("{}\t[1]\t2\n{}\n")
        assert cli._receive(reader) == ["{}", "[1]", "2"]
        assert cli._receive(reader) == ["{}"]


@pytest.mark.skipif(not hasattr(os, "fork"), reason="the split needs os.fork")
class TestTableOnTwoCores:
    """cmd_table on two usable CPUs: a forked child renders the odd columns
    and streams them back row by row; one CPU keeps every column here."""

    @pytest.mark.parametrize("engine", ["realize", "rewrite"])
    @pytest.mark.parametrize(
        ("config", "max_k", "max_n"),
        # 12, 12, 21, 30 and 4 words: odd counts give the parent one column more
        [("config_ab", "1", "2"), ("config_ba", "1", "2"), ("config_xyz", "1", "1"),
         ("config_five", "1", "1"), ("config_onegen", "3", "2")],
    )
    def test_split_prints_the_one_process_bytes(
        self, monkeypatch, capsys, config, max_k, max_n, engine
    ):
        argv = ("--config", str(DATA / f"{config}.json"), "--max-k", max_k, "--max-n", max_n,
                "--engine", engine)
        forks = spy_fork(monkeypatch)
        one = table_on(monkeypatch, capsys, 1, *argv)
        assert forks == []
        assert table_on(monkeypatch, capsys, 2, *argv) == one
        assert forks == [1]
        assert_no_child()

    @staticmethod
    def plant(monkeypatch, fault):
        """Run fault() in the process that renders the second column, the
        child: the parent's columns never reach it."""
        fc = FreeConformal(load_config(CONFIG)[0])
        second = sorted(fc.enumerate_basis(1), key=fc.sort_key)[1]
        real = FreeConformal.table_rows

        def table_rows(fc, words, ns, engine, rights=None):
            for cell in real(fc, words, ns, engine, rights):
                if cell[2] == second:
                    fault()
                yield cell

        monkeypatch.setattr(FreeConformal, "table_rows", table_rows)

    def raise_planted(self):
        raise ArithmeticError("planted")

    def raise_multiline(self):
        raise ArithmeticError("one\ntwo\rthree\r\n")

    @pytest.mark.parametrize(
        ("fault", "message"),
        [
            (raise_planted, "second process failed: ArithmeticError: planted"),
            # one line: newlines made spaces, and a reader that split on
            # carriage returns would stop at "two"
            (raise_multiline, "second process failed: ArithmeticError: one two\rthree\r $"),
            # a child that dies without a word: the parent meets EOF
            (lambda self: os._exit(0), "second process ended before sending every row"),
        ],
        ids=("raises", "multiline", "exits"),
    )
    def test_a_failing_child_makes_the_parent_raise(self, monkeypatch, fault, message):
        self.plant(monkeypatch, lambda: fault(self))
        monkeypatch.setattr(cli, "_usable_cpus", lambda: 2)
        with pytest.raises(RuntimeError, match=message):
            main(["table", "--config", CONFIG, "--max-k", "1", "--max-n", "1"])
        assert_no_child()

    def test_a_closed_stdout_mid_table_exits_1(self, monkeypatch):
        class Closing:
            """A stdout whose reader leaves after the first rows."""

            def __init__(self):
                self.writes = 0

            def write(self, text):
                self.writes += 1
                if self.writes > 3:
                    raise BrokenPipeError
                return len(text)

            def flush(self):
                pass

        stdout = Closing()
        monkeypatch.setattr(sys, "stdout", stdout)
        monkeypatch.setattr(cli, "_usable_cpus", lambda: 2)
        forks = spy_fork(monkeypatch)
        assert main(["table", "--config", CONFIG, "--max-k", "2", "--max-n", "1"]) == 1
        assert forks == [1] and stdout.writes == 4
        assert_no_child()

    def test_one_cpu_or_a_second_thread_keeps_one_process(self, monkeypatch, capsys):
        import threading

        argv = ("--config", CONFIG, "--max-k", "1", "--max-n", "1")
        forks = spy_fork(monkeypatch)
        table_on(monkeypatch, capsys, 1, *argv)
        stop = threading.Event()
        thread = threading.Thread(target=stop.wait, args=(60,))
        thread.start()
        try:
            table_on(monkeypatch, capsys, 2, *argv)
        finally:
            stop.set()
            thread.join(timeout=60)
        assert not thread.is_alive()
        assert forks == []

    def test_a_one_word_table_keeps_one_process(self, monkeypatch, capsys):
        # one word has no odd column to send
        argv = ("--config", CONFIG_ONEGEN, "--max-k", "0", "--max-n", "1")
        forks = spy_fork(monkeypatch)
        one = table_on(monkeypatch, capsys, 1, *argv)
        assert table_on(monkeypatch, capsys, 2, *argv) == one
        assert forks == [] and one.count('"left"') == 2

    def test_a_failed_fork_leaves_one_process(self, monkeypatch, capsys):
        argv = ("--config", CONFIG, "--max-k", "1", "--max-n", "1")
        one = table_on(monkeypatch, capsys, 1, *argv)

        def fork():
            raise BlockingIOError(11, "Resource temporarily unavailable")

        monkeypatch.setattr(os, "fork", fork)
        fds = len(os.listdir("/proc/self/fd")) if os.path.isdir("/proc/self/fd") else None
        assert table_on(monkeypatch, capsys, 2, *argv) == one
        if fds is not None:  # the pipe is closed again
            assert len(os.listdir("/proc/self/fd")) == fds


class TestCheck:
    @pytest.mark.parametrize("axiom", ["assoc", "sesqui", "locality"])
    def test_conformal_axioms_pass(self, capsys, axiom):
        rc, out, _ = run(
            capsys,
            "check", "--config", CONFIG, "--axiom", axiom,
            "--trials", "5", "--seed", "1",
        )
        assert rc == 0
        assert out.startswith(f"axiom {axiom}: PASS")

    def test_pseudo_assoc_passes(self, capsys):
        rc, out, _ = run(
            capsys,
            "check", "--config", CONFIG, "--axiom", "pseudo-assoc",
            "--trials", "3", "--seed", "0",
        )
        assert rc == 0 and "PASS" in out

    def test_identity_passes_in_both_modes(self, capsys):
        for config in (CONFIG, CONFIG_COMM):
            rc, out, _ = run(
                capsys,
                "check", "--config", config, "--axiom", "identity",
                "--trials", "3", "--seed", "2",
            )
            assert rc == 0 and "PASS" in out

    def test_corrupt_coaction_exits_3(self, capsys):
        rc, out, _ = run(
            capsys,
            "check", "--config", CONFIG, "--axiom", "pseudo-assoc",
            "--coaction", "corrupt", "--trials", "25", "--seed", "0",
        )
        assert rc == 3
        assert out.startswith("axiom pseudo-assoc: FAIL")

    def test_coaction_flag_is_scoped(self, capsys):
        rc, _, err = run(
            capsys,
            "check", "--config", CONFIG, "--axiom", "assoc",
            "--coaction", "corrupt",
        )
        assert rc == 1 and "coaction" in err

    def test_commutative_mode_is_scoped(self, capsys):
        rc, _, err = run(
            capsys, "check", "--config", CONFIG_COMM, "--axiom", "locality"
        )
        assert rc == 1 and "conformal" in err

    def test_zero_trials_exit_1(self, capsys):
        rc, _, err = run(
            capsys, "check", "--config", CONFIG, "--axiom", "assoc", "--trials", "0"
        )
        assert rc == 1

    @pytest.mark.parametrize("config", [CONFIG, CONFIG_COMM])
    @pytest.mark.parametrize("axiom", ["pseudo-assoc", "identity"])
    def test_printed_replay_reproduces_the_failure(self, capsys, config, axiom):
        rc, out, _ = run(
            capsys,
            "check", "--config", config, "--axiom", axiom,
            "--coaction", "corrupt", "--trials", "25", "--seed", "0",
        )
        assert rc == 3
        fail, replay = out.splitlines()
        assert fail.startswith(f"axiom {axiom}: FAIL (") and replay.startswith("replay: ")
        argv = shlex.split(replay[len("replay: "):])
        assert argv[:2] == ["confalg", "check"]
        rc2, out2, _ = run(capsys, *argv[1:])
        assert rc2 == 3 and out2 == out

    @pytest.mark.parametrize(
        ("axiom", "method", "fake", "case"),
        [
            ("sesqui", "cprod", _cprod_off_when_shifted(left=True), "left slot"),
            ("sesqui", "cprod", _cprod_off_when_shifted(left=False), "right slot"),
            ("locality", "locality_of", _locality_one_too_high(), "not minimal"),
        ],
        ids=["sesqui-left", "sesqui-right", "locality-minimal"],
    )
    def test_each_conformal_fail_branch_replays(self, capsys, monkeypatch, axiom, method, fake, case):
        monkeypatch.setattr(FreeConformal, method, fake)
        rc, out, _ = run(capsys, "check", "--config", CONFIG, "--axiom", axiom)
        assert rc == 3
        fail, replay = out.splitlines()
        argv = shlex.split(replay[len("replay: "):])
        trial = int(argv[argv.index("--trials") + 1]) - 1
        assert fail.startswith(f"axiom {axiom}: FAIL (trial {trial}): ") and case in fail
        rc2, out2, _ = run(capsys, *argv[1:])
        assert rc2 == 3 and out2 == out
        fields = dict(tok.split("=", 1) for tok in shlex.split(fail) if "=" in tok)
        for name in "xy":
            parse(fields[name])

    # stdout sha256 of failing checks under the corrupt coaction: the one
    # CLI path where the three-slot splitting gets nonzero coordinates. The
    # replay line prints --config as given, so the paths are relative.
    CORRUPT_GOLDEN = [
        ("config_ab.json", "identity", "0", "bd135cf120d1c550808b20dba5d529d7e87afdc0081bd9677e36c535855fae58"),
        ("config_ab.json", "identity", "3", "460426c43eb9b5ad7c3ede76427797cc4ad269fd5ca1bc3cc9f393e3fa6edfa2"),
        ("config_ab.json", "identity", "7", "237a6a3679cecaef7a83346b1d2602ba8e49b4655e22f9677dbbef7d4e8fdafe"),
        ("config_ab.json", "pseudo-assoc", "0", "03e862931a7b69a8bdd7174c3fc98927d09d90b1974067cf7e466a9eca01b1da"),
        ("config_ab.json", "pseudo-assoc", "3", "ed029474da20edf3b1653e1e91745b86a29f9ebc96779063bfece60544a229d1"),
        ("config_ab.json", "pseudo-assoc", "7", "7d33848f013d5c5d90040446b773c51cfaa4035d6654aab5062dd35495037231"),
        ("config_comm.json", "identity", "0", "170d0f2ffd93caf446525c69d084d0cd1a512420a43c47207d02c5935e5a07e7"),
        ("config_comm.json", "identity", "3", "ec2384a1dccdca8a3b17649e9e0117e108b0d4db0eeede0d2f79fba7a1c4365a"),
        ("config_comm.json", "identity", "7", "efa98e81eb2e0492cee68957af766c3392cd6a640f99c752b0d1bd85fe8af14d"),
        ("config_comm.json", "pseudo-assoc", "0", "4c2efa7d6ad9decad07feb33874dcd15550e5aa968d07753ba3949e33d4270fa"),
        ("config_comm.json", "pseudo-assoc", "3", "d99e20cb988a7f7edc5b98c3469797be9858f5bc5d74f5c74af2bae4ae886cce"),
        ("config_comm.json", "pseudo-assoc", "7", "fbc375cb0ae946eceacaf93eea6198392e677d1b587b7ba5785526b4e36aff3c"),
    ]

    @pytest.mark.parametrize(("config", "axiom", "seed", "digest"), CORRUPT_GOLDEN)
    def test_corrupt_coaction_golden_bytes(self, capsys, monkeypatch, config, axiom, seed, digest):
        monkeypatch.chdir(DATA.parent.parent)
        rc, out, _ = run(
            capsys,
            "check", "--config", f"tests/data/{config}", "--axiom", axiom,
            "--coaction", "corrupt", "--trials", "10", "--seed", seed,
        )
        assert rc == 3
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    @pytest.mark.parametrize(
        ("axiom", "method", "fake"),
        [
            ("assoc", "associativity_defect", lambda fc, x, n, y, m, z: x),
            ("locality", "locality_of", lambda fc, x, y: 0),
        ],
    )
    def test_conformal_failures_print_parseable_elements(
        self, capsys, monkeypatch, axiom, method, fake
    ):
        drawn = []

        def spy(fc, *args):
            drawn.append(args)
            return fake(fc, *args)

        monkeypatch.setattr(FreeConformal, method, spy)
        rc, out, _ = run(capsys, "check", "--config", CONFIG, "--axiom", axiom, "--seed", "3")
        assert rc == 3
        fail = out.splitlines()[0]
        fields = dict(tok.split("=", 1) for tok in shlex.split(fail) if "=" in tok)
        elements = [a for a in drawn[-1] if isinstance(a, ConfElement)]
        fc = FreeConformal(load_config(CONFIG)[0])
        assert [evaluate(fc, parse(fields[k])) for k in "xyz"[:len(elements)]] == elements


def nested(shape: str, depth: int) -> str:
    if shape == "right":
        return "(a .0 " * depth + "b" + ")" * depth
    if shape == "left":
        return "(" * depth + "a" + " .0 b)" * depth
    return "D^1(" * depth + "a" + ")" * depth


class TestDeepNesting:
    @pytest.mark.parametrize("shape", ["right", "left", "dpow"])
    def test_200_levels_exit_0(self, capsys, shape):
        rc, out, err = run(
            capsys, "reduce", "--config", CONFIG, "--expr", nested(shape, 200), "--engine", "rewrite"
        )
        assert rc == 0 and err == "" and out

    def test_engines_agree_on_a_deep_right_nesting(self, capsys):
        outs = [
            run(capsys, "reduce", "--config", CONFIG, "--expr", nested("right", 40), "--engine", engine)
            for engine in ("realize", "rewrite")
        ]
        assert outs[0] == outs[1] and outs[0][0] == 0
        assert outs[0][1].splitlines()[0] == nested("right", 40)

    @pytest.mark.parametrize("shape", ["right", "left", "dpow"])
    def test_2000_levels_exit_0_under_both_engines(self, shape):
        # the 200-level limit is gone: 2,000 levels reduce under both engines
        outs = []
        for engine in ("realize", "rewrite"):
            proc = subprocess.run(
                [sys.executable, "-m", "confalg", "reduce", "--config", CONFIG,
                 "--expr", nested(shape, 2000), "--engine", engine],
                capture_output=True, text=True, timeout=120,
            )
            assert proc.returncode == 0 and proc.stdout
            assert proc.stderr == "" and "Traceback" not in proc.stderr
            outs.append(proc.stdout)
        assert outs[0] == outs[1]


def doubled(times: int) -> str:
    """(X .0 X) nested times deep from a: 2^times generators."""
    expr = "a"
    for _ in range(times):
        expr = f"({expr} .0 {expr})"
    return expr


class TestLongWords:
    """Words far past the recursion limit, under the rewriting engine."""

    def test_2048_generators_reduce_under_rewrite(self, capsys):
        rc, out, err = run(
            capsys, "reduce", "--config", CONFIG, "--expr", doubled(11), "--engine", "rewrite"
        )
        assert rc == 0 and err == ""
        assert out.splitlines()[0] == "(a .0 " * 2047 + "a" + ")" * 2047

    def test_4096_generators_reduce_under_rewrite(self):
        proc = subprocess.run(
            [sys.executable, "-m", "confalg", "reduce", "--config", CONFIG,
             "--expr", doubled(12), "--engine", "rewrite"],
            capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0 and proc.stderr == ""
        assert proc.stdout.splitlines()[0] == "(a .0 " * 4095 + "a" + ")" * 4095


def decimal(k: int) -> str:
    """k in decimal digits, without the interpreter's cap on their number."""
    out = []
    while k:
        k, low = divmod(k, 10**100)
        out.append(f"{low:0100d}" if k else str(low))
    return "".join(reversed(out))


class TestLongNumbers:
    """Exact values print and parse in full, past Python's 4300-digit cap."""

    def test_a_9000_digit_coefficient_prints_under_both_engines(self, capsys):
        limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
        outs = []
        for engine in ("realize", "rewrite"):
            rc, out, err = run(
                capsys, "prod", "--config", CONFIG, "--left", "D^3000(a)",
                "--n", "3001", "--right", "b", "--engine", engine,
            )
            assert rc == 0 and err == ""
            outs.append(out)
        assert outs[0] == outs[1]
        # the cap is lifted for the call only
        assert getattr(sys, "get_int_max_str_digits", lambda: None)() == limit
        # (D^3000 a)_(3001) b = 3001!/1! a_(1) b; the digits are compared as
        # text, which needs no int conversion under the cap
        digits = decimal(math.factorial(3001))
        text, payload = outs[0].splitlines()
        assert text == f"{digits} * (a .1 b)"
        assert json.loads(payload)[0]["coeff"] == digits

    def test_a_5000_digit_literal_parses(self, capsys):
        digits = "7" * 5000
        rc, out, err = run(capsys, "reduce", "--config", CONFIG, "--expr", f"{digits} * a")
        assert rc == 0 and err == ""
        assert out.splitlines()[0] == f"{digits} * a"


class TestDemo:
    def test_current(self, capsys):
        rc, out, _ = run(capsys, "demo", "current")
        assert rc == 0
        assert out == (
            "current: trivial coaction, the 0-th product is the algebra product\n"
            "current: (1(x)a) .0 (1(x)b) = 1(x)(ab)\n"
            "current: (1(x)a) .1 (1(x)b) = 0\n"
        )

    def test_weyl(self, capsys):
        rc, out, _ = run(capsys, "demo", "weyl")
        assert rc == 0
        assert out == (
            "weyl: x = 1(x)(v)\n"
            "weyl: x .0 x = 1(x)(vv)\n"
            "weyl: x .1 x = 1(x)(-1*v)\n"
            "weyl: x .2 x = 0\n"
        )

    def test_virasoro(self, capsys):
        rc, out, _ = run(capsys, "demo", "virasoro")
        assert rc == 0
        lines = out.splitlines()
        assert lines[1] == "virasoro: [L .0 L] = D(x)(-1*v)"
        assert lines[2] == "virasoro: [L .1 L] = 1(x)(-2*v)"
        assert lines[3] == "virasoro: [L .2 L] = 0"
        assert lines[4] == "virasoro: [L .3 L] = 0"
        # the bracket really is D L and 2 L
        assert lines[5].endswith("D(x)(-1*v)")
        assert lines[6].endswith("1(x)(-2*v)")


class TestArgvHandling:
    def test_unknown_subcommand_exits_1(self, capsys):
        rc, _, err = run(capsys, "conjure")
        assert rc == 1 and "error:" in err

    def test_no_arguments_exits_1(self, capsys):
        rc, _, _ = run(capsys)
        assert rc == 1

    def test_bad_engine_value_exits_1(self, capsys):
        rc, _, _ = run(
            capsys, "reduce", "--config", CONFIG, "--expr", "a", "--engine", "magic"
        )
        assert rc == 1


def subparsers(parser=None) -> dict:
    """The subcommands' parsers by name, of parser or of a new build_parser()."""
    parser = parser or cli.build_parser()
    return next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices


SUBCOMMANDS = ("reduce", "prod", "basis", "table", "check", "demo")


class TestParserPerRequest:
    """What main's parser prints is what the full parser prints: --help and
    usage errors, for each subcommand and the top level.  Each test compares
    against the live full parser, so it holds on every argparse version.
    Building it reads the terminal's size once."""

    def test_every_subcommand_is_checked(self):
        assert tuple(subparsers()) == SUBCOMMANDS

    @pytest.mark.parametrize("name", SUBCOMMANDS)
    def test_subcommand_help_is_the_full_parsers(self, capsys, name):
        with pytest.raises(SystemExit) as exit_info:
            main([name, "--help"])
        out, err = capsys.readouterr()
        assert exit_info.value.code == 0 and err == ""
        assert out == subparsers()[name].format_help()

    def test_top_level_help_is_the_full_parsers(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["--help"])
        out, err = capsys.readouterr()
        assert exit_info.value.code == 0 and err == ""
        assert out == cli.build_parser().format_help()

    # 1 and 10 are below what argparse lays out as asked: it clamps the help
    # column and the text width; unset, a stdout that is no terminal reads
    # as 80 columns
    @pytest.mark.parametrize("columns", ["1", "10", "40", "200", None], ids=str)
    def test_help_wraps_as_the_default_formatter_does(self, capsys, monkeypatch, columns):
        # argparse's own HelpFormatter takes its width from COLUMNS; main's
        # help must wrap at that width, however build_parser makes its
        # formatters
        if columns is None:
            monkeypatch.delenv("COLUMNS", raising=False)
        else:
            monkeypatch.setenv("COLUMNS", columns)
        other = "40" if shutil.get_terminal_size().columns > 80 else "120"
        reference = cli.build_parser()
        subs = subparsers(reference)
        for parser in (reference, *subs.values()):
            parser.formatter_class = argparse.HelpFormatter
        wanted = [(["--help"], reference)]
        wanted += [([name, "--help"], subs[name]) for name in SUBCOMMANDS]
        for argv, parser in wanted:
            with pytest.raises(SystemExit) as exit_info:
                main(argv)
            out, err = capsys.readouterr()
            assert exit_info.value.code == 0 and err == ""
            assert out == parser.format_help(), argv
        top = reference.format_help()
        monkeypatch.setenv("COLUMNS", other)
        assert reference.format_help() != top  # the setting reached the formatter

    @pytest.mark.parametrize(
        "argv",
        [
            ["reduce", "--config", CONFIG, "--expr", "(a .1 b)"],
            ["--help"],
            ["table", "--help"],
            ["reduce", "--expr", "a"],
        ],
        ids=("reduce", "help", "table help", "usage error"),
    )
    def test_main_reads_the_terminal_size_once(self, capsys, monkeypatch, argv):
        # argparse's default formatter reads it once per argument added
        reads = []
        real = shutil.get_terminal_size
        monkeypatch.setattr(shutil, "get_terminal_size", lambda *a: reads.append(a) or real(*a))
        try:
            main(argv)
        except SystemExit:  # --help
            pass
        capsys.readouterr()
        assert len(reads) == 1

    def test_every_parser_shares_one_formatter(self):
        top = cli.build_parser()
        assert all(p.formatter_class is top.formatter_class for p in subparsers(top).values())

    @pytest.mark.parametrize(
        "argv",
        [
            ["reduce", "--expr", "a"],
            ["prod", "--config", CONFIG, "--left", "a", "--n", "one", "--right", "b"],
            ["basis", "--config", CONFIG],
            ["table", "--config", CONFIG, "--max-n", "1", "--max-k", "1", "--engine", "magic"],
            ["check", "--config", CONFIG, "--axiom", "commutativity"],
            ["demo", "lie"],
            ["conjure"],
            [],
        ],
        ids=lambda argv: argv[0] if argv else "no arguments",
    )
    def test_a_usage_error_reads_as_the_full_parsers(self, capsys, argv):
        with pytest.raises(cli.UsageError) as expected:
            cli.build_parser().parse_args(argv)
        rc, out, err = run(capsys, *argv)
        assert rc == 1 and out == ""
        assert err == f"error: {expected.value}\n"


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "confalg", "demo", "weyl"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "weyl: x .1 x = 1(x)(-1*v)" in proc.stdout


def stdout_env(buffering: str) -> dict:
    """The environment with stdout block-buffered, as for a user, or not."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    if buffering == "unbuffered":
        env["PYTHONUNBUFFERED"] = "1"
    return env


@pytest.mark.parametrize("buffering", ["buffered", "unbuffered"])
class TestReaderStopsEarly:
    """`confalg ... | head` ends in exit 1 without a traceback; buffered, the
    interpreter's own flush at exit must not fail either."""

    def test_table_read_in_part(self, buffering):
        # the table is 2.9 MB, far past a pipe's buffer, so the writer is
        # still going when the reader closes its end
        proc = subprocess.Popen(
            [sys.executable, "-m", "confalg", "table", "--config", CONFIG,
             "--max-k", "2", "--max-n", "1"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=stdout_env(buffering),
        )
        assert proc.stdout.read(50).startswith(b'[{"left":')
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=60) == 1 and err == b""

    def test_demo_into_a_closed_pipe(self, buffering):
        # the demo's output would fit a pipe's buffer: close the read end
        # before the process starts, so its first write fails
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "confalg", "demo", "virasoro"],
                stdout=write_end, stderr=subprocess.PIPE, env=stdout_env(buffering), timeout=60,
            )
        finally:
            os.close(write_end)
        assert proc.returncode == 1 and proc.stderr == b""

    @pytest.mark.parametrize("argv", [["--help"], ["reduce", "--help"]], ids=shlex.join)
    def test_help_into_a_closed_pipe(self, buffering, argv):
        # argparse prints the help and exits; buffered, the help is still in
        # the buffer then, and its flush meets the closed pipe (exit 1);
        # unbuffered, argparse's own write fails quietly and it exits 0
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "confalg", *argv],
                stdout=write_end, stderr=subprocess.PIPE, env=stdout_env(buffering), timeout=60,
            )
        finally:
            os.close(write_end)
        assert proc.stderr == b""
        assert proc.returncode == (1 if buffering == "buffered" else 0)
