"""Command line behaviour: output shapes, determinism, exit codes.

Each documented exit code has at least one test pinning it: 0 on success,
1 for unusable input, 2 for elements outside the normal-word span, 3 for
a failed axiom check.
"""

import json
import shlex
import subprocess
import sys

import pytest

from confalg.cli import load_config, main
from confalg.exprs import evaluate, parse
from confalg.freeconf import ConfElement, FreeConformal

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

    @pytest.mark.parametrize("d", [0.9, 1.0, True, "1"], ids=repr)
    def test_raw_element_nonintegral_degree_exits_1(self, capsys, tmp_path, d):
        raw = {"parts": [{"d": d, "terms": [{"coeff": "1", "word": ["v", "a", "v", "b"]}]}]}
        path = tmp_path / "raw_degree.json"
        path.write_text(json.dumps(raw), encoding="utf-8")
        rc, out, err = run(capsys, "reduce", "--config", CONFIG, "--raw-element", str(path))
        assert rc == 1 and out == ""
        assert err.startswith("error: ") and "integer" in err

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
    ]

    @pytest.mark.parametrize("name", BAD)
    def test_bad_configs_exit_1(self, capsys, name):
        rc, out, err = run(
            capsys, "reduce", "--config", str(DATA / "bad" / name), "--expr", "a"
        )
        assert rc == 1 and out == "" and err.startswith("error:")

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
    def test_at_the_limit_exits_0(self, capsys, shape):
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
    def test_far_past_the_limit_exits_1_without_a_traceback(self, shape):
        proc = subprocess.run(
            [sys.executable, "-m", "confalg", "reduce", "--config", CONFIG,
             "--expr", nested(shape, 2000)],
            capture_output=True, text=True,
        )
        assert proc.returncode == 1 and proc.stdout == ""
        assert proc.stderr.startswith("error: ") and "Traceback" not in proc.stderr


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
