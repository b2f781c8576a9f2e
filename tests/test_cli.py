"""Command line behaviour: output shapes, determinism, exit codes.

Each documented exit code has at least one test pinning it: 0 on success,
1 for unusable input, 2 for elements outside the normal-word span, 3 for
a failed axiom check.
"""

import hashlib
import json
import math
import shlex
import subprocess
import sys

import pytest

from confalg.cli import dump_json, load_config, main
from confalg.exprs import evaluate, parse
from confalg.freeconf import ConfElement, FreeConformal
from confalg.ncpoly import MAX_LOCALITY

from conftest import DATA

CONFIG = str(DATA / "config_ab.json")
CONFIG_COMM = str(DATA / "config_comm.json")


def run(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


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
    ]

    @pytest.mark.parametrize("name", BAD)
    def test_bad_configs_exit_1(self, capsys, name):
        rc, out, err = run(
            capsys, "reduce", "--config", str(DATA / "bad" / name), "--expr", "a"
        )
        assert rc == 1 and out == "" and err.startswith("error:")

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

    def test_missing_file_exits_1(self, capsys):
        rc, _, err = run(
            capsys, "reduce", "--config", str(DATA / "no_such.json"), "--expr", "a"
        )
        assert rc == 1 and "error:" in err

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

    def test_byte_stable(self, capsys):
        a = run(capsys, "basis", "--config", CONFIG, "--max-k", "2")
        b = run(capsys, "basis", "--config", CONFIG, "--max-k", "2")
        assert a == b


class TestTable:
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


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "confalg", "demo", "weyl"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "weyl: x .1 x = 1(x)(-1*v)" in proc.stdout
