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


def test_tracer_installs_and_counts_the_realize_layers():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT / "bench")]))
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT],
        capture_output=True, text=True, cwd=ROOT, env=env, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    calls = json.loads(proc.stdout)
    for name in ("ncpoly.linear", "ncpoly.mul", "freeconf.cprod", "freeconf.cprod_rw"):
        assert calls[name] > 0, name
    assert calls["fractions.new"] > 0
