"""Timing in reference-host seconds.

The benchmark's host is shared, and the same code runs up to about 1.7x
slower from one second to the next, and for whole minutes at times.  CPU
time tracks wall time, so the swing is the host's speed, not scheduling.
Wall times over a 15-s run therefore spread more between runs than the
changes the benchmark has to resolve.

A HostClock measures the host's speed at the same moments as the work.
While it is active, a SIGALRM timer runs a fixed probe every INTERVAL_S
seconds of wall time; the probe is small numpy and pure-Python work that
calls nothing in hzreach.  The pieces of work between two probes are
scaled by REF_PROBE_S over the local probe time, and the probe time
itself is left out.  A span's reference seconds are thus its wall time as
it would read at the speed at which the probe takes REF_PROBE_S (this
host's fast level).  Work the program adds or removes changes them in
proportion; the host's speed, to first order, does not.

The timer's handler runs between bytecodes of the main thread, never
inside a native call: during a long HiGHS solve the next probe runs when
the solve returns.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

INTERVAL_S = 0.05
# The probe's duration at the fast level of the reference host (2 vCPUs,
# Intel Xeon at 2.1 GHz).  Fixed: changing it rescales every reference time.
REF_PROBE_S = 0.85e-3
# Each piece of work is scaled by the median of this many probes around it
# (about 0.3 s), so a single probe that is preempted does not skew it.
WINDOW = 6

_rng = np.random.default_rng(20250404)
_M = _rng.standard_normal((24, 24)) + 24.0 * np.eye(24)
_V = _rng.standard_normal(24)
_ROUNDS = 48
_PY_LOOP = 600


def probe() -> float:
    """Fixed work in the program's mix: small dense algebra and interpreter work."""
    acc = 0.0
    table = {}
    for i in range(_PY_LOOP):
        table[i % 17] = table.get(i % 17, 0.0) + i * 0.5
        acc += table[i % 17]
    v = _V
    for _ in range(_ROUNDS):
        x = np.linalg.solve(_M, v)
        v = np.concatenate([(_M @ x)[:12], x[12:]]) / (1.0 + np.abs(x).max())
    return acc + float(v.sum())


def probe_median(count: int = 30) -> float:
    """Median duration of `count` probes run back to back."""
    durations = []
    for _ in range(count):
        start = time.perf_counter()
        probe()
        durations.append(time.perf_counter() - start)
    return statistics.median(durations)


class HostClock:
    """Marks points of a timed run; reports the reference seconds between marks.

    Inactive (the traced round), a mark records only the time, and the
    seconds between marks are plain wall seconds.
    """

    def __init__(self, active: bool = True):
        self.active = active
        self.starts: list = []
        self.probes: list = []  # probe duration at each entry; 0 for a bare mark
        self._busy = False
        self._old_handler = None

    def __enter__(self):
        if self.active:
            self._old_handler = signal.signal(signal.SIGALRM, self._on_alarm)
            signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        if self.active:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, self._old_handler)
        return False

    def _on_alarm(self, signum, frame) -> None:
        if not self._busy:
            self._sample()

    def _sample(self) -> int:
        self._busy = True
        try:
            start = time.perf_counter()
            if self.active:
                probe()
            self.probes.append(time.perf_counter() - start if self.active else 0.0)
            self.starts.append(start)
            return len(self.starts) - 1
        finally:
            self._busy = False

    def mark(self) -> int:
        """A probe (when active) at this point; returns its index."""
        return self._sample()

    @property
    def count(self) -> int:
        """Entries so far; a change across a call means a probe ran inside it."""
        return len(self.starts)

    def wall(self, i: int, j: int) -> float:
        """Wall seconds of work between marks i and j, probes left out."""
        return sum(self._pieces(i, j))

    def seconds(self, i: int, j: int) -> float:
        """Reference seconds of work between marks i and j."""
        if not self.active:
            return self.wall(i, j)
        total = 0.0
        for k, piece in enumerate(self._pieces(i, j), start=i):
            lo = max(0, k - WINDOW // 2 + 1)
            local = statistics.median(self.probes[lo : lo + WINDOW])
            total += piece * REF_PROBE_S / local
        return total

    def _pieces(self, i: int, j: int) -> list:
        starts, probes = self.starts, self.probes
        return [starts[k + 1] - (starts[k] + probes[k]) for k in range(i, j)]
