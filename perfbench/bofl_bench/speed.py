"""Host-speed calibration: measured seconds scaled to a reference machine speed.

On a shared host the same code runs up to ~1.5x slower for seconds to
minutes at a time, because other machines' work slows this CPU.  A
:class:`SpeedSampler` tracks that speed while the measured code runs: a
real-time interval timer interrupts the code every :data:`PERIOD_S` and
times a fixed pure-Python :func:`kernel` of about a millisecond.  A
span of host time is then reported as *normalized seconds*::

    (wall seconds - kernel seconds inside it) * REFERENCE_KERNEL_S / mean kernel seconds

i.e. the seconds the span would have taken at the speed at which the
kernel takes :data:`REFERENCE_KERNEL_S`.  Work the program adds or removes
moves the normalized figure as it moves the wall time; the machine's
speed phases largely cancel.  The ledger keeps the raw wall seconds too.

Only the standard library is imported here, so ``run.py`` can start the
sampler before it imports anything else.
"""

from __future__ import annotations

import bisect
import signal
import time
from typing import Optional

#: Sampling period of the interval timer, in seconds.
PERIOD_S = 0.05

#: Kernel seconds at the reference speed (its typical time on the
#: 2-vCPU Xeon host the benchmark was built on).
REFERENCE_KERNEL_S = 0.55e-3


def kernel() -> int:
    """Fixed integer arithmetic (~1 ms).

    It creates no container, so it never triggers a garbage collection:
    its time must not depend on the size of the measured code's heap.
    """
    total = 0
    for i in range(8000):
        total += i * i % 7
    return total


class SpeedSampler:
    """Times :func:`kernel` every :data:`PERIOD_S` while started."""

    def __init__(self) -> None:
        #: (end time, kernel seconds) of every sample, in time order.
        self.samples: list[tuple[float, float]] = []
        self._ends: list[float] = []
        self._previous: Optional[object] = None

    def _sample(self, signum: int, frame: object) -> None:
        start = time.perf_counter()
        kernel()
        end = time.perf_counter()
        self.samples.append((end, end - start))
        self._ends.append(end)

    def start(self) -> None:
        for _ in range(20):  # past the interpreter's specialization warm-up
            kernel()
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)

    def normalized(self, start: float, end: float) -> float:
        """Normalized seconds of the span ``[start, end]`` of ``perf_counter``.

        The kernel seconds spent inside the span are taken out of it; a
        span without a sample is scaled by the nearest samples around it.
        """
        lo = bisect.bisect_right(self._ends, start)
        hi = bisect.bisect_right(self._ends, end)
        inside = [took for _, took in self.samples[lo:hi]]
        near = inside or [took for _, took in self.samples[max(0, lo - 2):lo + 2]]
        if not near:
            raise RuntimeError("no speed sample near the span; was the sampler started?")
        wall = end - start - sum(inside)
        return wall * REFERENCE_KERNEL_S * len(near) / sum(near)
