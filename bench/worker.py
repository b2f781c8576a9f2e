"""One repetition of a workload in a fresh interpreter.

Usage: python3 bench/worker.py CONFIG < job

The interpreter imports confalg.cli, loads CONFIG and builds the first engine
object, then notes the time: the parent measures set-up from its spawn to
that moment.  It then reads the job header line from stdin, and after it one
request group (a JSON list of argv lists) per line.  It runs each group
through confalg.cli.main(argv) with stdout captured and prints one JSON line
of results per group, then a closing summary line.  Groups and results
stream through the pipes, so the request stream does not add to the
interpreter's peak memory.

Caches start empty, as they do for a user who runs the confalg command: the
per-instance caches because the CLI builds a fresh FreeConformal per request,
the module-level ones because the interpreter is new (within one repetition
they carry over between requests).

Header keys:
  budget_s   once this much wall time has passed, stop at the next multiple
             of chunk groups; absent runs every group.
  chunk      groups per chunk (default 1); at least one chunk runs.
  want       "rows": count table rows of stdout; "head": keep its start
  calibrate  time the reference kernel (calib.py) every half second; each
             result row then carries its start and end, and the summary
             lists the kernel samples
  trace      null, or {"spans": path} to record per-layer spans
"""

import sys
import time
from os.path import abspath, dirname, join


def _now() -> float:
    # CLOCK_MONOTONIC is shared by all processes, so the parent can subtract
    # its spawn time from this.
    return time.clock_gettime(time.CLOCK_MONOTONIC)


sys.path.insert(0, join(dirname(dirname(abspath(__file__))), "src"))

import confalg.cli as cli  # noqa: E402
from confalg.freeconf import FreeConformal  # noqa: E402
from confalg.pseudo import PseudoAlgebra  # noqa: E402


def _setup(config_path: str):
    alg, mode = cli.load_config(config_path)
    return FreeConformal(alg) if mode == "conformal" else PseudoAlgebra(alg)


def main() -> None:
    _setup(sys.argv[1])
    ready = _now()

    import contextlib
    import hashlib
    import io
    import json
    import resource

    job = json.loads(sys.stdin.readline())
    tracer = None
    if job.get("trace"):
        import spans

        tracer = spans.Tracer()
        tracer.install()
    want = job.get("want")
    budget = job.get("budget_s")
    chunk = job.get("chunk", 1)
    sampler = None
    if job.get("calibrate"):
        import calib

        sampler = calib.Sampler()
        sampler.start()
    started = _now()
    done = 0
    for line in sys.stdin:
        if done % chunk == 0 and done and budget is not None and _now() - started >= budget:
            break
        group = json.loads(line)
        rows = []
        for argv in group:
            if tracer is not None:
                tracer.request += 1
            out, err = io.StringIO(), io.StringIO()
            error = None
            t0 = _now()
            try:
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    rc = cli.main(argv)
            except Exception as exc:  # a traceback is a failed request, not a crash
                rc, error = None, f"{type(exc).__name__}: {exc}"[:300]
            t1 = _now()
            text = out.getvalue()
            paused = sampler.paused(t0, t1) if sampler is not None else 0.0
            row = {
                "latency_s": t1 - t0 - paused,
                "span": [t0, t1],
                "rc": rc,
                "digest": hashlib.sha256(text.encode()).hexdigest(),
                "error": error,
            }
            if want == "rows":
                row["rows"] = text.count('{"left":')
            elif want == "head":
                row["head"] = text[:120]
            rows.append(row)
        sys.stdout.write(json.dumps(rows) + "\n")
        done += 1

    if sampler is not None:
        sampler.stop()
    result = {
        "ready": ready,
        "samples": sampler.samples if sampler else [],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        result["layers"] = spans.per_layer(tracer.layer_totals(), tracer.counts)
        tracer.write(job["trace"]["spans"])
    sys.stdout.write(json.dumps(result) + "\n")


if __name__ == "__main__":
    main()
