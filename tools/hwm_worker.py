"""bench/worker.py, unchanged, noting its own peak memory.

Usage: HWM_LOG=FILE python3 tools/hwm_worker.py CONFIG < job

Runs bench/worker.py as __main__ in this interpreter, then appends the
process's own high-water mark, VmHWM from /proc/self/status, in MiB, as one
line of FILE.  The worker's own peak_rss_mb is ru_maxrss, which on Linux
keeps the size the spawning process had at the fork; VmHWM counts this
process image alone.  tools/hwm_run.py runs bench/run.py with this file as
its worker.
"""

import os
import runpy
import sys

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench")


def vmhwm_mb() -> float:
    with open("/proc/self/status", encoding="ascii") as fh:
        kib = next(line.split()[1] for line in fh if line.startswith("VmHWM:"))
    return int(kib) / 1024.0


if __name__ == "__main__":
    sys.path.insert(0, BENCH)  # worker.py imports calib and spans from beside it
    try:
        runpy.run_path(os.path.join(BENCH, "worker.py"), run_name="__main__")
    finally:
        with open(os.environ["HWM_LOG"], "a", encoding="ascii") as fh:
            fh.write(f"{vmhwm_mb():.3f}\n")
