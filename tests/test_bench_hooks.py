"""The benchmark's traced run must still find the functions it patches.

bench/spans.py looks its hook points up in each owner's own __dict__, so a
refactor that moves a method into a base class breaks the traced run
without failing any other test.  This runs the tracer in a fresh
interpreter, because installing it patches confalg for the whole process.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

SCRIPT = """
import json
import spans
from confalg import AlgebraConfig, FreeConformal

tracer = spans.Tracer()
tracer.install()
fc = FreeConformal(AlgebraConfig({"a": 2, "b": 3}))
a, b = fc.generator("a"), fc.generator("b")
x = fc.cprod(a, 1, b)
assert x and x == fc.cprod_rw(a, 1, b)
totals = tracer.layer_totals()
out = {name: row["calls"] for name, row in totals.items()}
out.update(tracer.counts)
print(json.dumps(out))
"""

# 12 D-free words with k <= 1 on {a: 2, b: 3}, n = 0..3: the left words
# have 6 (D-power, tail) keys, and each key meets each of the 12 right words
# once.  The table runs in one process or two (cmd_table), and the tracer
# sees only its own process: each script first sets the CPUs it may use,
# ONE_CPU or TWO_CPUS
TABLE_SCRIPT = """
import contextlib, io, json, os
import spans
from confalg import cli
from confalg.cli import main

%s
tracer = spans.Tracer()
tracer.install()
with contextlib.redirect_stdout(io.StringIO()):
    rc = main(["table", "--config", "tests/data/config_ab.json",
               "--max-k", "1", "--max-n", "3", "--engine", "realize"])
assert rc == 0
print(json.dumps({name: row["calls"] for name, row in tracer.layer_totals().items()}))
"""

# the same table under rewrite, with the counters: bench/test_bench.py's
# contract that the rewrite table reaches no realize layer, at tier-1 size
REWRITE_TABLE_SCRIPT = """
import contextlib, io, json, os
import spans
from confalg import cli
from confalg.cli import main

%s
tracer = spans.Tracer()
tracer.install()
with contextlib.redirect_stdout(io.StringIO()):
    rc = main(["table", "--config", "tests/data/config_ab.json",
               "--max-k", "1", "--max-n", "3", "--engine", "rewrite"])
assert rc == 0
out = {name: row["calls"] for name, row in tracer.layer_totals().items()}
out.update(tracer.counts)
print(json.dumps(out))
"""

# one process: the script narrows its own affinity to one CPU
ONE_CPU = "os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})"
# two processes, however many CPUs the machine has: the parent keeps the 6
# even right words of the 12, and a forked child takes the 6 odd ones
TWO_CPUS = "cli._usable_cpus = lambda: 2"

# one check request; each test fills in the config file and the axiom
CHECK_SCRIPT = """
import contextlib, io, json
import spans
from confalg.cli import main

tracer = spans.Tracer()
tracer.install()
with contextlib.redirect_stdout(io.StringIO()):
    rc = main(["check", "--config", "tests/data/%s", "--axiom", "%s", "--trials", "2"])
assert rc == 0
print(json.dumps({name: row["calls"] for name, row in tracer.layer_totals().items()}))
"""


def traced(script: str) -> dict:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT / "bench")]))
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True, text=True, cwd=ROOT, env=env, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_tracer_installs_and_counts_the_realize_layers():
    calls = traced(SCRIPT)
    for name in ("ncpoly.linear", "ncpoly.mul", "freeconf.cprod", "freeconf.cprod_rw"):
        assert calls[name] > 0, name
    assert calls["fractions.new"] > 0


def test_realize_table_makes_one_pseudoproduct_per_tail_and_right_word():
    calls = traced(TABLE_SCRIPT % ONE_CPU)
    assert calls["pseudo.pprod"] == 72
    assert calls["pseudo.canonicalize"] == 72
    # every split goes through the _unit_row memo, which calls decompose on
    # a miss alone: bench/test_bench.py needs these calls on table-realize
    assert calls["hopf.decompose"] == 16


def test_split_realize_table_traces_the_parents_columns_alone():
    calls = traced(TABLE_SCRIPT % TWO_CPUS)
    assert calls["pseudo.pprod"] == 6 * 6
    assert calls["pseudo.canonicalize"] == 6 * 6


def test_rewrite_table_bypasses_the_realize_layers():
    calls = traced(REWRITE_TABLE_SCRIPT % ONE_CPU)
    touched = {
        name: value for name, value in calls.items()
        if name.startswith(("pseudo.", "ncpoly.", "hopf.")) and value
    }
    assert touched == {}
    assert calls["freeconf.cprod_rw"] == 12 * 12 * 4  # one per cell


def test_split_rewrite_table_traces_the_parents_columns_alone():
    calls = traced(REWRITE_TABLE_SCRIPT % TWO_CPUS)
    assert calls["freeconf.cprod_rw"] == 12 * 6 * 4


@pytest.mark.parametrize(
    ("config", "axiom", "layer"),
    [
        ("config_ab.json", "locality", "freeconf.locality_of"),
        ("config_comm.json", "pseudo-assoc", "pseudo.star_expanded"),
        # both tensor classes share one flatten, which must stay traceable
        ("config_comm.json", "pseudo-assoc", "pseudo.flatten"),
        # pseudo-assoc compares three-slot tensors flat; identity reaches canonical3
        ("config_comm.json", "identity", "pseudo.canonical3"),
    ],
)
def test_check_requests_reach_the_axiom_check_layers(config, axiom, layer):
    assert traced(CHECK_SCRIPT % (config, axiom))[layer] > 0
