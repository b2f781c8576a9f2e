"""Seeded draws are pinned: a seed gives the same arguments, and so the same
`check` verdicts and replay lines, whatever the code that draws them.

Each digest is the sha256 of the draws' reprs (or of `check`'s argv, exit
code and stdout), one per line.  A random_word draw is digested as the tuple
of its letter codes, so its digest pins the letters drawn, not the way a
word spells them.
"""

import hashlib
from contextlib import redirect_stdout
from io import StringIO

import pytest

from confalg import (
    FreeConformal,
    as_rng,
    random_element,
    random_ncpoly,
    random_normal_word,
    random_pelement,
    random_word,
)
from confalg.checks import AXIOMS, CONFORMAL_AXIOMS
from confalg.cli import load_config, main

from conftest import DATA

DRAWS = 200

# draw -> (function, whether it takes a FreeConformal, the keyword sets it
# cycles through); the max_len=0 and max_k=0 sets make sums cancel often, so
# the nonzero redraw runs
KWARGS = {
    "random_word": (
        lambda rng, alg, **kw: tuple(map(ord, random_word(rng, alg, **kw))), False,
        ({}, {"max_len": 2}),
    ),
    "random_ncpoly": (
        random_ncpoly, False,
        ({}, {"max_len": 2, "max_terms": 4, "nonzero": False}, {"max_len": 0}),
    ),
    "random_pelement": (
        random_pelement, False,
        ({}, {"max_d": 1, "max_len": 2, "max_terms": 3, "nonzero": False}, {"max_d": 0, "max_len": 0}),
    ),
    "random_normal_word": (random_normal_word, True, ({}, {"max_k": 3, "max_s": 2})),
    "random_element": (
        random_element, True,
        ({}, {"max_k": 1, "max_terms": 4, "nonzero": False}, {"max_k": 0, "max_s": 0}),
    ),
}

DRAW_DIGESTS = {
    ("config_ab", "random_word"): "f5db62bd7ea6e8056db914f1586f6160f546c90134de88dd3919770e3e11c229",
    ("config_ab", "random_ncpoly"): "69f4b4519b23ee68513701b6850a2ed60cced3ae627ca8bb298bcf300d914692",
    ("config_ab", "random_pelement"): "95abff1437de14d623a60917171bed8d7f64d7d5d297f5580c59fd5f6b3c33fb",
    ("config_ab", "random_normal_word"): "0ab220f347f1440d2082c3306d7652cb977ab123354c72a9415a72bf990d9185",
    ("config_ab", "random_element"): "2e2bb59b760f5ae4b22da87b828e016bcc20f04357cf2afbd169cd82b191c347",
    ("config_xyz", "random_word"): "30a13ea119b7ff20230fbe13ea07cd36af9479f1ec54533f344603fb516d668a",
    ("config_xyz", "random_ncpoly"): "fefecacbab98455a9cb05aa1632708e07ab42341feed9801710860e2ab1be047",
    ("config_xyz", "random_pelement"): "0782a90c1fe5f431b15853b5afa295f919c9347e9b727b4d077aabad557b32f4",
    ("config_xyz", "random_normal_word"): "2fcaf52807cd5180f7faed77248c32aeef7ca6ac2c880d1785b9bf3148b18575",
    ("config_xyz", "random_element"): "e8ae2eda3f3e0823d0d040d4b5dbee657ddb052850337238c610ee9158404ef9",
    # commutative words come out sorted; the commutative construction has
    # no normal words
    ("config_comm", "random_word"): "b7781b6c534af68447bdec850f14ed97403934d023ec13e520c48c4b9ec10d85",
    ("config_comm", "random_ncpoly"): "4b900ac21bac1968455f1b396e7d4d03bc247ce46b566e48a1099e10c3993410",
    ("config_comm", "random_pelement"): "c88f2bb3fefc6f8a3a8df9960d9fa8e4876fa89725d7aa0ecf5fe6ef3f48f76a",
}

CHECK_DIGESTS = {
    "config_ab": "256aff01f3dcbdc5246bbc86f1b0cb540d937638dfa102e679672d74a514c5e8",
    "config_comm": "d41187fda2ae63ec1acb1aff089f7ab3524c4e512d7a9b6f7e3601d174e31060",
}


def digest(lines) -> str:
    return hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()


@pytest.mark.parametrize(("config", "draw"), DRAW_DIGESTS, ids=[f"{c}-{d}" for c, d in DRAW_DIGESTS])
def test_seeded_draws_are_pinned(config, draw):
    alg, _ = load_config(str(DATA / f"{config}.json"))
    fn, on_fc, kwargs = KWARGS[draw]
    arg = FreeConformal(alg) if on_fc else alg
    rng = as_rng(2024)
    lines = [repr(fn(rng, arg, **kwargs[i % len(kwargs)])) for i in range(DRAWS)]
    assert digest(lines) == DRAW_DIGESTS[config, draw]


@pytest.mark.parametrize("config", CHECK_DIGESTS)
def test_check_output_is_pinned(config, monkeypatch):
    """Every axiom, seeds 0-2, 5 trials; the pseudo axioms under every
    coaction, so the corrupt one's FAIL and replay lines are pinned too.
    The config is named from its own directory, as replay lines print it."""
    monkeypatch.chdir(DATA)
    lines = []
    for axiom in AXIOMS:
        coactions = ("standard",) if axiom in CONFORMAL_AXIOMS else ("standard", "current", "corrupt")
        for coaction in coactions:
            for seed in range(3):
                argv = [
                    "check", "--config", f"{config}.json", "--axiom", axiom,
                    "--coaction", coaction, "--seed", str(seed), "--trials", "5",
                ]
                out = StringIO()
                with redirect_stdout(out):
                    rc = main(argv)
                lines += [" ".join(argv), str(rc), out.getvalue()]
    assert digest(lines) == CHECK_DIGESTS[config]
