"""bench/run.py with every worker noting its own peak memory.

Usage: HWM_LOG=FILE python3 tools/hwm_run.py --workload W --seed S --seconds T

Takes bench/run.py's options.  It imports bench/run.py as a module, points
its WORKER at tools/hwm_worker.py and runs it, so each fresh interpreter,
set-up probes included, appends its own VmHWM in MiB to FILE.  What
bench/run.py prints is unchanged, but runpy adds to every set-up: take
timed figures from plain bench/run.py runs.
"""

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "bench"))

import run  # noqa: E402

run.WORKER = os.path.join(HERE, "hwm_worker.py")

if __name__ == "__main__":
    if not os.environ.get("HWM_LOG"):
        sys.exit("error: set HWM_LOG to the file that collects the peaks")
    os.environ["HWM_LOG"] = os.path.abspath(os.environ["HWM_LOG"])  # workers run in the root
    sys.exit(run.main())
