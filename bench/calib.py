"""Reference kernel that tracks the speed of the machine during a run.

On a shared virtual machine the CPU speed can drift by 30% and more over
tens of seconds (measured on a 2-vCPU Intel Xeon VM).  Raw times then
spread by more than any useful bound from one run to the next.  So every
timed repetition runs this kernel every PERIOD_S seconds, and each request
latency is multiplied by the speed of the machine around it, taken from the
kernel's times: the figures read as if the machine had run at the speed at
which the kernel takes REF_S.

The kernel uses only the standard library and none of confalg, so no change
to confalg moves it.  It does the same kinds of work as confalg does:
Fraction arithmetic accumulated into tuple-keyed dicts, sorting, JSON
encoding of nested results, and integer dict updates.
"""

from __future__ import annotations

import bisect
import gc
import json
import random
import signal
import statistics
import time
from fractions import Fraction

REF_S = 0.020  # kernel time that defines speed 1.0
# confalg's request times follow the kernel's swings only in part: paired
# timings on a shared 2-vCPU Xeon VM gave elasticities of 0.64 to 0.87.  So
# speed = (REF_S / kernel time) ** ELASTICITY.
ELASTICITY = 0.75
PERIOD_S = 0.5  # time between samples
WINDOW_S = 2.0  # samples this close to a request set its speed
START_TICKS = 3  # samples taken back to back right after set-up


def _fractions() -> int:
    a = {(i % 7, i % 5, i % 3): Fraction(i + 1, i % 4 + 1) for i in range(40)}
    b = {(i % 3, i % 2): Fraction(-(i + 2), i % 3 + 2) for i in range(12)}
    out: dict = {}
    for w1, c1 in a.items():
        for w2, c2 in b.items():
            w = w1 + w2
            out[w] = out.get(w, Fraction(0)) + c1 * c2
    return len(sorted(out.items()))


def _json() -> int:
    rng = random.Random(1)
    rows = [
        {
            "left": [rng.randrange(5) for _ in range(3)],
            "n": i % 4,
            "value": [
                {"coeff": str(Fraction(rng.randrange(-9, 9), rng.randrange(1, 5))),
                 "word": {"s": 0, "gens": ["a", "b"][: i % 2 + 1]}}
                for _ in range(3)
            ],
        }
        for i in range(300)
    ]
    return len(json.loads(json.dumps(rows, sort_keys=True)))


def _dicts() -> int:
    d: dict = {}
    for i in range(20000):
        k = (i % 101, i % 7, i % 3)
        d[k] = d.get(k, 0) + i
    return len(sorted(d.items()))


def kernel() -> None:
    """One pass of the kernel, about 20 ms on the reference machine."""
    _fractions()
    _json()
    _dicts()


class Sampler:
    """Times the kernel now and then every PERIOD_S of wall time.

    A SIGALRM timer interrupts whatever runs, requests included, so long
    requests are sampled all along.  samples lists (start, duration) pairs
    on the CLOCK_MONOTONIC scale; a request subtracts the samples that
    started inside it from its latency.
    """

    def __init__(self):
        self.samples: list[tuple[float, float]] = []

    def _tick(self, *_):
        # no cycle collection inside the kernel, so the size of the
        # program's heap does not change the kernel's time
        enabled = gc.isenabled()
        gc.disable()
        t0 = time.clock_gettime(time.CLOCK_MONOTONIC)
        kernel()
        self.samples.append((t0, time.clock_gettime(time.CLOCK_MONOTONIC) - t0))
        if enabled:
            gc.enable()

    def start(self) -> None:
        for _ in range(START_TICKS):
            self._tick()
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        self._tick()

    def paused(self, t0: float, t1: float) -> float:
        """Kernel time that started inside [t0, t1], newest samples first."""
        out = 0.0
        for start, dur in reversed(self.samples):
            if start < t0:
                break
            if start <= t1:
                out += dur
        return out


def speed(kernel_s: float) -> float:
    return (REF_S / kernel_s) ** ELASTICITY


def setup_speed(samples: list) -> float:
    """Speed from the median of the samples taken right after set-up."""
    return speed(statistics.median(d for _, d in samples[:START_TICKS]))


def speeds(samples: list, spans: list[tuple[float, float]]) -> list[float]:
    """Speed from the median kernel time of the samples taken during each
    span, or, for a span too short to hold three, within WINDOW_S of it."""
    starts = [s for s, _ in samples]
    out = []
    for t0, t1 in spans:
        lo, hi = bisect.bisect_left(starts, t0), bisect.bisect_right(starts, t1)
        if hi - lo < 3:
            lo = bisect.bisect_left(starts, t0 - WINDOW_S)
            hi = max(bisect.bisect_right(starts, t1 + WINDOW_S), lo + 1)
        out.append(speed(statistics.median(d for _, d in samples[lo:hi])))
    return out
