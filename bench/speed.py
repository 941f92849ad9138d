"""Speed-normalised timing for a host whose speed changes while it runs.

On a shared host the same code can run at very different speeds from one
second to the next (on the 2-CPU container of ``README.md`` a fixed pass
took either about 2.8 ms or about 4.8 ms, switching every few seconds),
so a plain wall time mostly measures the neighbours.  ``Speedometer``
samples the speed of the host while the timed code runs: an interval
timer interrupts the process every ``INTERVAL_S`` seconds and the signal
handler runs one fixed ``reference_pass`` in the interrupted thread, on
the same CPU.  A timed window then reports

* its work time: wall time minus the time spent in reference passes, and
* its normalised time: work time * ``REF_S`` / mean reference-pass time
  inside the window, that is, the time the window would have taken on a
  host where one reference pass takes ``REF_S`` seconds.

The reference pass mixes what ``walraskit`` does: vectorised rows of a
Cobb-Douglas excess demand, small dense linear algebra and a Python
dictionary loop.  It depends only on this file, so a change to the
program does not change it.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

import numpy as np

INTERVAL_S = 0.05
REF_S = 1.0e-3          # nominal reference-pass time the normalised times are scaled to
FALLBACK_SAMPLES = 4    # samples used when a window is shorter than the interval

_rng = np.random.default_rng(20251017)
_P = _rng.dirichlet(np.ones(4), size=1000)
_W = _rng.uniform(0.25, 2.0, size=(3, 4))
_A = _rng.dirichlet(np.full(4, 5.0), size=3)
_S = _rng.random((6, 6))


def reference_pass() -> float:
    """A fixed piece of work of about a millisecond."""
    total = np.zeros_like(_P)
    for alpha, omega in zip(_A, _W):
        total += alpha * (_P @ omega)[:, None] / _P - omega
    acc = float(np.abs(total).sum())
    for k in range(30):
        acc += float(np.linalg.svd(_S + k, compute_uv=False)[-1])
    seen: dict[int, float] = {}
    for k in range(600):
        key = (k * 7919) % 1009
        seen[key] = seen.get(key, 0.0) + 0.5 * k
    return acc + len(seen)


def reference_now(passes: int = 20) -> float:
    """Mean time of ``passes`` reference passes run right now."""
    t0 = time.perf_counter()
    for _ in range(passes):
        reference_pass()
    return (time.perf_counter() - t0) / passes


class Speedometer:
    """Samples reference-pass times on a timer while it is running."""

    def __init__(self):
        self.starts: list[float] = []   # perf_counter at the start of each sample
        self.samples: list[float] = []  # its reference-pass time
        self._busy = False
        self._previous = None

    def _tick(self, signum, frame) -> None:
        if self._busy:  # a tick that arrives during a slow pass is dropped
            return
        self._busy = True
        try:
            t0 = time.perf_counter()
            reference_pass()
            self.samples.append(time.perf_counter() - t0)
            self.starts.append(t0)
        finally:
            self._busy = False

    def __enter__(self) -> "Speedometer":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def window(self, t0: float, t1: float) -> tuple[float, float]:
        """``(work_s, normalised_s)`` of the window from ``t0`` to ``t1`` (``perf_counter``)."""
        lo = bisect.bisect_left(self.starts, t0)
        hi = bisect.bisect_left(self.starts, t1)
        inside = self.samples[lo:hi]
        work = (t1 - t0) - sum(inside)
        recent = inside or self.samples[max(hi - FALLBACK_SAMPLES, 0):hi]
        if not recent:
            recent = [reference_now(FALLBACK_SAMPLES)]
        return work, work * REF_S / statistics.fmean(recent)
