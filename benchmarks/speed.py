"""CPU-speed probe that normalises timings on a machine whose speed drifts.

On the shared 2-vCPU sandbox this benchmark was tuned on, each vCPU runs at
full speed at some times and up to ~50 % slower at others, in bursts of
seconds and spells of minutes, and a fixed integer loop slows down together
with the CLI.  Raw wall times of one case therefore spread by 15-25 % from
run to run.

While a sample runs, a ``SIGALRM`` interval timer interrupts the
benchmark's own (only) thread every ``INTERVAL_S`` and times one fixed
pure-Python probe.  A sample's time, measured on a clock that excludes the
probes, is scaled by ``PROBE_S / mean(probe times during the sample)``.  It
then reads as seconds on a core that runs the probe in ``PROBE_S``.
"""

from __future__ import annotations

import contextlib
import gc
import signal
import statistics
import time

INTERVAL_S = 0.05
PROBE_S = 0.001   # the unit: normalised seconds assume the probe takes 1 ms
MIN_PROBES = 3    # a sample with fewer probes uses the latest ones instead


def probe_work() -> int:
    """Fixed integer and tuple-keyed dict work, about 1 ms at full speed."""
    table, acc = {}, 0
    for i in range(1500):
        acc ^= (i * 2654435761) & 0xFFFFFFFF
        table[(i & 1023, i >> 10)] = acc
    for i in range(1500):
        acc ^= table[(i & 1023, i >> 10)]
    return acc


class SpeedProbe:
    """Probe times, and a clock that leaves out the time spent in probes."""

    def __init__(self):
        self.times: list[float] = []
        self._in_probes = 0.0
        self.on_probe = None  # called with (start, end) of each probe

    def _probe(self, *_signal_args) -> None:
        # A collection triggered by the probe's allocations would sweep the
        # program's objects and charge that time to the probe.
        gc_was_enabled = gc.isenabled()
        gc.disable()
        t0 = time.perf_counter()
        probe_work()
        dt = time.perf_counter() - t0
        if gc_was_enabled:
            gc.enable()
        self.times.append(dt)
        self._in_probes += dt
        if self.on_probe is not None:
            self.on_probe(t0, t0 + dt)

    def clock(self) -> float:
        return time.perf_counter() - self._in_probes

    def mark(self) -> int:
        return len(self.times)

    def normalise(self, seconds: float, since: int) -> float:
        """Scale ``seconds`` by the speed the probes saw after ``mark()``."""
        seen = self.times[since:]
        if len(seen) < MIN_PROBES:
            seen = self.times[-MIN_PROBES:]
        return seconds * PROBE_S / statistics.fmean(seen)

    @contextlib.contextmanager
    def running(self):
        """Probe every INTERVAL_S for the duration of the block."""
        for _ in range(MIN_PROBES):
            self._probe()
        previous = signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            signal.signal(signal.SIGALRM, previous)
