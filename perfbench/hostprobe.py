"""Host-speed probe: turns measured seconds into seconds at a reference speed.

On a shared virtual machine the same product can take 1.8 times as long
from one second to the next, because the host's speed changes under the
benchmark; CPU time moves with wall time, so it is not a scheduling effect.
Medians over a run do not cancel that: the share of slow seconds differs
between runs minutes apart. So the benchmark runs a fixed pure-Python probe
``REPS`` times right before every timed step (a product, or one pair made
in set-up) and once more after the last, and records how long each took.
A step's time is then divided by the median probe time of the samples just
before and just after it and multiplied by ``PROBE_REF_S``: the result is
the time on a host where the probe takes ``PROBE_REF_S``.

The probe runs between steps, never inside one, so it adds nothing to a
step's time, and it runs in the benchmark's own thread: there is no
second process or thread and nothing to stop. It is not part of
``minplus``, so a change to the library moves a scaled time by the same
factor as the raw one.

The probe measures interpreter speed. It tracks code whose time is
interpreter time, such as the blocked engines and the walk generator. It
does not track code that streams large numpy arrays through memory, such as
``minplus_naive``.
"""

from __future__ import annotations

import bisect
import statistics
import time

# Probe runs per sample point; a product is scaled by the median of the
# REPS runs before it and the REPS runs after it.
REPS = 5
# Median probe time on the host the benchmark was set up on (2-vCPU x86-64
# VM, CPython 3.11); normalised times are seconds at that speed.
PROBE_REF_S = 0.85e-3


def _probe_work() -> int:
    d: dict[int, int] = {}
    s = 0
    for i in range(3000):
        d[i & 63] = d.get(i & 63, 0) + i
        s += i * 3 % 7
    return s


class HostProbe:
    """Probe times of one run, in the order they were taken."""

    def __init__(self) -> None:
        self.starts: list[float] = []
        self.seconds: list[float] = []

    def sample(self) -> None:
        """Run the probe ``REPS`` times and record each start and duration."""
        for _ in range(REPS):
            t0 = time.perf_counter()
            _probe_work()
            self.starts.append(t0)
            self.seconds.append(time.perf_counter() - t0)

    def normalise(self, start: float, seconds: float) -> float:
        """Seconds at reference speed of an interval timed between samples:
        scaled by the median of the ``REPS`` probe times on each side of its
        midpoint. Unscaled if no sample was taken."""
        k = bisect.bisect_left(self.starts, start + seconds / 2)
        window = self.seconds[max(0, k - REPS):k + REPS]
        if not window:
            return seconds
        return seconds * PROBE_REF_S / statistics.median(window)
