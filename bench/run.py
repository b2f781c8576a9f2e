"""confalg benchmark: end-to-end figures per workload, or per-layer figures.

Run from the repository root:

    python3 bench/run.py --workload table-realize --seed 1 --seconds 12 --trace 0
    python3 bench/run.py --workload axiom-check --seed 1 --seconds 12 --trace 1

Workloads: table-realize, table-rewrite, axiom-check, cli-requests (see
bench/README.md for why each exists).  Every load is a closed loop with one
client: this process starts one fresh interpreter (bench/worker.py) per
repetition, one at a time, and each repetition calls confalg.cli.main(argv)
in-process.  Every timed output is checked; the checks run outside the
timed region.

With --trace 0 the last stdout line carries the end-to-end metrics; with
--trace 1 it carries the per-layer metrics of one fixed-size traced
repetition, compared against the same repetition untraced.  Human-readable
lines before it repeat the figures under their per-workload names.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

import calib
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
OUT = os.path.join(HERE, "out")

# A run must end within 180 s; no child may start a wait beyond this.
DEADLINE_S = 170.0
PROBES = 2  # set-up-only interpreters before each stretch of measurement
SLICES = 3  # repetitions per run of the request-stream workloads
STREAM_PER_S = {"axiom-check": 400, "cli-requests": 800}  # groups generated per second of budget
TRACE_CHUNKS = 2  # fixed size of the traced repetition of a request stream

END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "ops/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "peak_rss_mb": "MiB",
}
PER_LAYER_UNITS = {"trace.overhead_frac": "fraction"}  # the rest follow from the name

# what the worker keeps of each request's stdout for the checks
WANT = {"table-realize": "rows", "table-rewrite": "rows", "axiom-check": "head"}

# per-workload names of the generic figures, as the README tables use them
ALIASES = {
    "table-realize": ("products_per_s", "cells/s", "table_p50_ms", "table_p90_ms"),
    "table-rewrite": ("products_per_s", "cells/s", "table_p50_ms", "table_p90_ms"),
    "axiom-check": ("trials_per_s", "trials/s", "verdict_p50_ms", "verdict_p90_ms"),
    "cli-requests": ("requests_per_s", "req/s", "request_p50_ms", "request_p90_ms"),
}


class BenchError(Exception):
    """The benchmark itself could not run; no result is printed."""


def per_layer_unit(name: str) -> str:
    if name in PER_LAYER_UNITS:
        return PER_LAYER_UNITS[name]
    if name.endswith("self_s"):
        return "s"
    if name.endswith("_per_pair"):
        return "ratio"
    return "count"


def _now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


class Spawner:
    """Runs worker interpreters one at a time, within the run's deadline."""

    def __init__(self):
        self.end = _now() + DEADLINE_S

    def run(self, config: str, groups: list, **header) -> dict:
        """Run groups in a fresh worker; header is the job header of worker.py."""
        remaining = self.end - _now()
        if remaining <= 0:
            raise BenchError("out of time before the run finished")
        t0 = _now()
        try:
            proc = subprocess.run(
                [sys.executable, WORKER, config],
                input="".join(json.dumps(x) + "\n" for x in [header, *groups]),
                capture_output=True,
                text=True,
                cwd=ROOT,
                timeout=remaining,
            )
        except subprocess.TimeoutExpired as exc:
            raise BenchError("a repetition ran past the deadline") from exc
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            tail = proc.stderr.strip().splitlines()[-3:]
            raise BenchError(f"worker exited with {proc.returncode}: {' | '.join(tail)}")
        res = json.loads(lines[-1])
        res["groups"] = [json.loads(line) for line in lines[:-1]]
        res["setup_s"] = res["ready"] - t0
        return res


def percentile(values: list[float], p: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def check_rows(plan, gi: int, rows: list[dict], refs: dict[int, str]) -> list[bool]:
    """Whether each request of group gi passed its output check."""
    ok = []
    for row in rows:
        good = row["error"] is None and row["rc"] == 0
        if plan.workload == "axiom-check":
            first = row["head"].split("\n", 1)[0]
            good = good and first.startswith("axiom ") and ": PASS (" in first
        elif plan.workload.startswith("table"):
            good = good and row["digest"] == refs[gi] and row["rows"] == plan.ops[gi][0]
        ok.append(good)
    if plan.workload == "cli-requests" and rows[0]["digest"] != rows[1]["digest"]:
        ok = [False] * len(rows)
    return ok


def table_references(plan, spawner: Spawner, indices) -> dict[int, str]:
    """stdout digest of the tables at indices under the other engine, untimed."""
    refs = {}
    for gi in indices:
        path = plan.groups[gi][0][2]
        row = spawner.run(path, [[plan.references[path]]])["groups"][0][0]
        refs[gi] = row["digest"] if row["rc"] == 0 and row["error"] is None else "failed"
    return refs


def score(plan, done: list[tuple[int, list, list]], refs: dict[int, str]):
    """Check every request of done, a list of (group index, result rows,
    speed of each row); return (attempted, failed, ops, latencies) where ops
    counts the work of the requests that passed and each latency is
    multiplied by the speed of the machine around it."""
    attempted = failed = 0
    ops = 0.0
    latencies = []
    for gi, rows, speeds in done:
        checks = check_rows(plan, gi, rows, refs)
        for row, ok, credit, speed in zip(rows, checks, plan.ops[gi], speeds):
            attempted += 1
            latencies.append(row["latency_s"] * speed)
            if ok:
                ops += credit
            else:
                failed += 1
    return attempted, failed, ops, latencies


def run_timed(plan, seconds: float, spawner: Spawner) -> dict:
    setups, peaks, samples = [], [], []
    done: list[tuple[int, list, list]] = []

    def setup(res: dict) -> None:
        setups.append(res["setup_s"] * calib.setup_speed(res["samples"]))

    def probe():
        for _ in range(PROBES):
            setup(spawner.run(plan.setup_config, [], calibrate=True))

    def keep(res: dict, first: int) -> None:
        setup(res)
        peaks.append(res["peak_rss_mb"])
        samples.extend(d for _, d in res["samples"])
        spans = [row["span"] for rows in res["groups"] for row in rows]
        speed = iter(calib.speeds(res["samples"], spans))
        for i, rows in enumerate(res["groups"]):
            done.append((first + i, rows, [next(speed) for _ in rows]))

    start = _now()
    if plan.workload.startswith("table"):
        # one fresh interpreter per table; whole pairs only, so both
        # generator orders weigh the same
        while not done or _now() - start < seconds:
            probe()
            for gi, group in enumerate(plan.groups):
                keep(spawner.run(group[0][2], [group], want=WANT[plan.workload], calibrate=True), gi)
        probe()
        refs = table_references(plan, spawner, range(len(plan.groups)))
    else:
        offset = 0
        for _ in range(SLICES):
            probe()
            res = spawner.run(
                plan.setup_config, plan.groups[offset:],
                budget_s=seconds / SLICES, chunk=plan.chunk, want=WANT.get(plan.workload),
                calibrate=True,
            )
            keep(res, offset)
            offset += len(res["groups"])
        refs = {}
    attempted, failed, ops, latencies = score(plan, done, refs)
    metrics = {
        "setup_s": statistics.median(setups),
        "ops_per_s": ops / sum(latencies),
        "latency_p50_ms": 1000 * percentile(latencies, 50),
        "latency_p90_ms": 1000 * percentile(latencies, 90),
        "peak_rss_mb": max(peaks),
    }
    raw = [r["latency_s"] for _, rows, _ in done for r in rows]
    speed = calib.speed(statistics.median(samples))
    rate_name, rate_unit, p50_name, p90_name = ALIASES[plan.workload]
    print(f"workload {plan.workload}: {attempted} requests in {len(peaks)} fresh interpreters, "
          f"closed loop with one client; machine speed {speed:.3f} (median of {len(samples)} "
          f"kernel samples); figures at speed 1, raw in brackets")
    print(f"  {rate_name} = {metrics['ops_per_s']:.2f} {rate_unit} [{ops / sum(raw):.2f}]")
    print(f"  {p50_name} = {metrics['latency_p50_ms']:.3f} ms [{1000 * percentile(raw, 50):.3f}]"
          f" (n={len(latencies)})")
    print(f"  {p90_name} = {metrics['latency_p90_ms']:.3f} ms [{1000 * percentile(raw, 90):.3f}]"
          f" (n={len(latencies)})")
    if plan.workload == "cli-requests":
        print(f"  request_p99_ms = {1000 * percentile(latencies, 99):.3f} ms"
              f" [{1000 * percentile(raw, 99):.3f}] (n={len(latencies)})")
    print(f"  peak_rss_mb = {metrics['peak_rss_mb']:.1f} MiB (largest of {len(peaks)})")
    print(f"  error_rate = {failed / attempted:.6f} ({failed} of {attempted} failed)")
    print(f"  setup_s = {metrics['setup_s']:.4f} s (median of {len(setups)})")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in metrics.items()},
    }


BYPASSED = ("pseudo.", "ncpoly.", "hopf.")


def run_traced(plan, seed: int, spawner: Spawner) -> dict:
    if plan.workload.startswith("table"):
        groups = plan.groups[:1]
    else:
        groups = plan.groups[: plan.chunk * TRACE_CHUNKS]
    want = WANT.get(plan.workload)
    config = plan.setup_config
    plain = spawner.run(config, groups, want=want)
    os.makedirs(OUT, exist_ok=True)
    spans_path = os.path.join(OUT, f"spans-{plan.workload}-seed{seed}.tsv.gz")
    traced = spawner.run(config, groups, want=want, trace={"spans": spans_path})
    refs = table_references(plan, spawner, [0]) if plan.workload.startswith("table") else {}
    ones = [(gi, rows, [1.0] * len(rows)) for gi, rows in enumerate(traced["groups"])]
    attempted, failed, _, _ = score(plan, ones, refs)
    problems = []
    digests = [[r["digest"] for r in g] for g in plain["groups"]]
    if digests != [[r["digest"] for r in g] for g in traced["groups"]]:
        problems.append("traced and untraced outputs differ")
    layers = traced["layers"]
    if plan.workload == "table-rewrite":
        leaks = [
            k for k, v in layers.items()
            if v and (k == "ncpoly.new" or k.startswith(BYPASSED) and k.endswith(".calls"))
        ]
        if leaks:
            problems.append(f"rewrite table reached the realize layers: {', '.join(leaks)}")
    busy_plain = sum(r["latency_s"] for g in plain["groups"] for r in g)
    busy_traced = sum(r["latency_s"] for g in traced["groups"] for r in g)
    layers["trace.overhead_frac"] = (busy_traced - busy_plain) / busy_plain
    print(f"workload {plan.workload}: traced {attempted} requests; spans in {os.path.relpath(spans_path, ROOT)}")
    for k in sorted(layers):
        print(f"  {k} = {layers[k]}")
    for p in problems:
        print(f"  CHECK FAILED: {p}")
    return {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": per_layer_unit(k)} for k, v in layers.items()},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="tiny sizes, for the self-tests")
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "confalg", "cli.py")):
        print("error: no confalg sources under src/; run from a full checkout", file=sys.stderr)
        return 2
    workdir = os.path.join(OUT, f"run-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        count = max(1, int(STREAM_PER_S.get(args.workload, 0) * args.seconds))
        plan = workloads.build(args.workload, args.seed, workdir, count, args.smoke)
        spawner = Spawner()
        if args.trace:
            result = run_traced(plan, args.seed, spawner)
        else:
            result = run_timed(plan, args.seconds, spawner)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
