"""Seeded inputs for the four benchmark workloads.

Everything here is a pure function of the workload seed: the same seed gives
the same config files and the same request stream.  The program under test
only ever sees the generated argv lists and config files.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass, field

WORKLOADS = ("table-realize", "table-rewrite", "axiom-check", "cli-requests")

# The 20 expressions of the CLI corpus (tests/data/corpus.json), copied so
# that editing test data never changes what the benchmark measures.
CORPUS = (
    "a",
    "b",
    "(a .0 b)",
    "(a .2 b)",
    "(a .3 b)",
    "(b .1 a)",
    "(a .0 (b .0 a))",
    "((a .0 b) .1 a)",
    "((a .1 b) .2 (a .0 b))",
    "D^1(a)",
    "D^2((a .0 b))",
    "2 * (a .1 b) - 3/2 * (b .0 a)",
    "(D^1(a) .1 b)",
    "(a .1 D^1(b))",
    "(a .0 a) + (b .2 b) - (a .0 a)",
    "1/3 * ((a .0 a) .0 a)",
    "((b .2 b) .1 (a .1 a))",
    "(b .0 (b .1 (a .0 b)))",
    "-1 * (a .1 b) + (a .1 b)",
    "(D^1((a .0 b)) .2 b)",
)

CONFIG_AB = {
    "mode": "conformal",
    "generators": [{"name": "a", "locality": 2}, {"name": "b", "locality": 3}],
}
CONFIG_COMM = {
    "mode": "pseudo-commutative",
    "generators": [{"name": "a", "locality": 1}, {"name": "b", "locality": 2}],
}

# Table requests: D-free words with k <= 2 on {2, 3} localities and n = 0, 1.
# That is 2 * (1 + 5 + 25) = 62 words and 62 * 62 * 2 = 7688 cells, the
# smallest table that keeps both k = 2 words and more than one n per pair.
TABLE_MAX_K, TABLE_MAX_N = 2, 1
SMOKE_TABLE_MAX_K, SMOKE_TABLE_MAX_N = 1, 1

# Single letters other than the reserved v, so renaming changes the printed
# bytes but not the cost of a table.
NAME_POOL = "abcdeghkmpqrstwxyz"

CHECK_TRIALS = 2
CHECK_KINDS = (
    ("ab", "assoc"),
    ("ab", "sesqui"),
    ("ab", "locality"),
    ("ab", "pseudo-assoc"),
    ("ab", "identity"),
    ("comm", "pseudo-assoc"),
    ("comm", "identity"),
)

COEFFS = ("2", "-1", "1/2", "-3/2", "1/3", "5/4")


@dataclass
class Plan:
    """What one run sends to the program.

    groups: request groups; a group is a list of argv lists that one
        repetition runs back to back (a cli pair, or a single request).
    references: for table workloads, {config path: argv of the same table
        under the other engine}; its stdout must match byte for byte.
    ops: work units credited to each successful request of a group, in order.
    chunk: groups per chunk, the shortest stretch of the stream that holds
        the workload's whole mix; a repetition stops only between chunks.
    """

    workload: str
    groups: list = field(default_factory=list)
    ops: list = field(default_factory=list)
    chunk: int = 1
    references: dict = field(default_factory=dict)
    setup_config: str = ""


def _write_config(workdir: str, name: str, obj) -> str:
    path = os.path.join(workdir, name)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, sort_keys=True)
    return path


def table_cells(max_k: int, max_n: int) -> int:
    words = sum(2 * 5**k for k in range(max_k + 1))
    return words * words * (max_n + 1)


def table_plan(workload: str, seed: int, workdir: str, smoke: bool) -> Plan:
    """Two table requests per pair, one under each generator order.

    The seed picks the two generator names and which order runs first.
    The order changes the monomial order and with it the cost of a table
    (the rewrite table differs by about 15% between the two), so every pair
    covers both orders and the seed does not move the figures.
    """
    rng = random.Random(seed)
    first, second = rng.sample(NAME_POOL, 2)
    orders = [[first, second], [second, first]]
    rng.shuffle(orders)
    engine, other = ("realize", "rewrite") if workload == "table-realize" else ("rewrite", "realize")
    max_k, max_n = (SMOKE_TABLE_MAX_K, SMOKE_TABLE_MAX_N) if smoke else (TABLE_MAX_K, TABLE_MAX_N)
    plan = Plan(workload, chunk=len(orders))
    for i, order in enumerate(orders):
        cfg = {
            "mode": "conformal",
            "generators": [{"name": first, "locality": 2}, {"name": second, "locality": 3}],
            "order": order,
        }
        path = _write_config(workdir, f"table_{i}.json", cfg)
        argv = ["table", "--config", path, "--max-k", str(max_k), "--max-n", str(max_n)]
        plan.groups.append([argv + ["--engine", engine]])
        plan.ops.append([table_cells(max_k, max_n)])
        plan.references[path] = argv + ["--engine", other]
    plan.setup_config = plan.groups[0][0][2]
    return plan


def check_plan(seed: int, workdir: str, count: int, smoke: bool) -> Plan:
    """check requests cycling through the seven axiom/config kinds.

    A chunk is 20 rounds of the cycle: 140 verdicts.
    """
    rng = random.Random(seed)
    paths = {
        "ab": _write_config(workdir, "config_ab.json", CONFIG_AB),
        "comm": _write_config(workdir, "config_comm.json", CONFIG_COMM),
    }
    start = rng.randrange(len(CHECK_KINDS))
    chunk = len(CHECK_KINDS) * (1 if smoke else 20)
    plan = Plan("axiom-check", chunk=chunk, setup_config=paths["ab"])
    for i in range(-(-count // chunk) * chunk):
        cfg, axiom = CHECK_KINDS[(start + i) % len(CHECK_KINDS)]
        argv = [
            "check", "--config", paths[cfg], "--axiom", axiom,
            "--trials", str(CHECK_TRIALS), "--seed", str(rng.randrange(2**31)),
        ]
        plan.groups.append([argv])
        plan.ops.append([CHECK_TRIALS])
    return plan


def _factor(rng: random.Random, depth: int) -> str:
    r = rng.random()
    if depth == 0 or r < 0.4:
        return rng.choice("ab")
    if r < 0.55:
        return f"D^{rng.randint(1, 2)}({_expr(rng, depth - 1)})"
    return f"({_expr(rng, depth - 1)} .{rng.randint(0, 3)} {_expr(rng, depth - 1)})"


def _term(rng: random.Random, depth: int) -> str:
    body = _factor(rng, depth)
    return f"{rng.choice(COEFFS)} * {body}" if rng.random() < 0.3 else body


def _expr(rng: random.Random, depth: int) -> str:
    out = _term(rng, depth)
    if rng.random() < 0.25:
        out += f" {rng.choice('+-')} {_term(rng, depth)}"
    return out


def cli_plan(seed: int, workdir: str, count: int, smoke: bool) -> Plan:
    """reduce/prod requests in pairs, the same argv under each engine.

    The pairs cycle through a corpus reduce, a generated reduce and a
    generated prod.  A chunk is 50 rounds of the cycle: 300 requests.
    """
    rng = random.Random(seed)
    path = _write_config(workdir, "config_ab.json", CONFIG_AB)
    corpus = list(CORPUS)
    rng.shuffle(corpus)
    chunk = 3 if smoke else 150
    plan = Plan("cli-requests", chunk=chunk, setup_config=path)
    for i in range(-(-count // chunk) * chunk):
        kind = i % 3
        if kind == 0:
            argv = ["reduce", "--config", path, "--expr", corpus[(i // 3) % len(corpus)]]
        elif kind == 1:
            argv = ["reduce", "--config", path, "--expr", _expr(rng, 2)]
        else:
            argv = [
                "prod", "--config", path, "--left", _expr(rng, 1),
                "--n", str(rng.randint(0, 4)), "--right", _expr(rng, 1),
            ]
        plan.groups.append([argv + ["--engine", "realize"], argv + ["--engine", "rewrite"]])
        plan.ops.append([1, 1])
    return plan


def build(workload: str, seed: int, workdir: str, count: int, smoke: bool) -> Plan:
    """count is the length of the request stream for the open-ended workloads."""
    if workload in ("table-realize", "table-rewrite"):
        return table_plan(workload, seed, workdir, smoke)
    if workload == "axiom-check":
        return check_plan(seed, workdir, count, smoke)
    return cli_plan(seed, workdir, count, smoke)
