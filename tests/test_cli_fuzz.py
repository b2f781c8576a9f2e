"""The command line on drawn argv: every request ends in an exit code, and
the two engines agree on it byte for byte.

Expressions are drawn from the grammar of confalg.exprs over the letters a
and b of config_ab, the unknown letter c and the reserved v and D, some with
a junk suffix.  Each runs as reduce and, with a second one, as prod at an
--n from -1 to 5, under both engines, in-process with captured streams.
"""

import contextlib
import io
import json

from hypothesis import given, settings, strategies as st

from confalg.cli import dump_json, main

from conftest import DATA

CONFIG = str(DATA / "config_ab.json")
ENGINES = ("realize", "rewrite")

# a and b of config_ab most often, so that most draws are valid throughout
letters = st.sampled_from(["a", "b"] * 4 + ["c", "v", "D"])
coefficients = st.sampled_from(["", "", "", "0 * ", "1 * ", "-1 * ", "2 * ", "1/2 * ", "-3/4 * "])
junk = st.just("") | st.sampled_from([")", "(", " .", " .1", " +", "*", "x", "^2", "/0"])


@st.composite
def expressions(draw, depth: int = 3) -> str:
    """One or two terms, each a letter, a shift D^k(...) or, while depth
    is left, a product: products nest at most depth deep."""

    def term() -> str:
        # 0 and 2 draw a letter, so that a letter is as likely as a shift
        # or a product and a draw stays small
        kind = draw(st.integers(0, 3 if depth else 1))
        if kind == 1:
            inner = draw(expressions(depth - 1) if depth else letters)
            factor = f"D^{draw(st.integers(0, 2))}({inner})"
        elif kind == 3:
            left, n = draw(expressions(depth - 1)), draw(st.integers(0, 4))
            factor = f"({left} .{n} {draw(expressions(depth - 1))})"
        else:
            factor = draw(letters)
        return draw(coefficients) + factor

    text = term()
    if draw(st.booleans()):
        text += draw(st.sampled_from([" + ", " - "])) + term()
    return text


requests = st.builds("{}{}".format, expressions(), junk)


def run(*argv: str) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(list(argv))
    return rc, out.getvalue(), err.getvalue()


def check_request(*argv: str) -> None:
    """Run argv under each engine and hold the result to the oracle."""
    results = [run(*argv, "--engine", engine) for engine in ENGINES]
    assert results[0] == results[1], argv
    rc, out, err = results[0]
    assert 0 <= rc <= 3, argv
    if rc == 1:
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1, (argv, err)
    if rc:
        return
    assert err == "", argv
    text, line = out.splitlines()
    assert dump_json(json.loads(line)) == line, argv
    for engine in ENGINES:
        assert run("reduce", "--config", CONFIG, "--expr", text, "--engine", engine) == (0, out, "")


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(left=requests, right=requests, n=st.integers(-1, 5))
def test_drawn_requests_end_in_an_exit_code_and_the_engines_agree(left, right, n):
    check_request("reduce", "--config", CONFIG, "--expr", left)
    check_request("prod", "--config", CONFIG, "--left", left, "--n", str(n), "--right", right)
