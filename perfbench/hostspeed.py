"""Wall times scaled to a reference host speed.

The sandboxes this benchmark runs on change speed in phases: a fixed probe
read 27, 48 or 60 ms in different stretches of one minute, slow stretches
lasting up to half a minute and fast ones often under a second. Process CPU
time moves with wall time, so it is the host, not preemption, and medians
inside a 30 s run cannot remove a slow stretch that covers the whole run.

So ``SteadyClock`` times a fixed probe, small complex matrix products plus
integer arithmetic (the interpreter and numpy-dispatch mix of hypermat's hot
paths), after every op, and scales each op's wall time by
``REFERENCE_PROBE_S`` over the median of the probes taken while it ran, or of
the ``WINDOW`` probes around it when fewer ran. The median ignores brief fast
or slow blips that one probe can catch but a longer op mostly does not; the
window is short enough to follow a slow stretch. The program never sees the
probe, and a faster or slower program shows as a smaller or larger scaled
time exactly as in raw time. The probe reacts more strongly to the host's
phases than hypermat does (its medians moved 1.48x where a repeated campaign
moved 1.33x), so scaling narrows the spread without removing it.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

#: The probe's median time on the reference host: a 2-vCPU x86-64 sandbox,
#: Python 3.11, numpy 2.4, one BLAS thread, in its usual (not fast) phase.
REFERENCE_PROBE_S = 4.5e-4

#: Probes in the median that scales one op, centred on the op.
WINDOW = 31

_clock = time.perf_counter
_A = np.array([[0.5 + 0.1j, 0.2], [0.1, 0.4 - 0.2j]])


def probe() -> float:
    """Seconds one fixed unit of interpreter and small-matrix work takes now."""
    start = _clock()
    m = np.eye(2, dtype=complex)
    for k in range(60):
        m = m @ _A + k * 1e-3
    x = 0
    for i in range(1500):
        x += i * i
    return _clock() - start


class SteadyClock:
    """Times calls and scales them to the reference speed once probed around.

    ``time`` returns a sample, the raw seconds and the indices of the probes
    just before and just after the call; ``scaled`` converts a sample once
    the probes after it exist. Calls may nest: probe time spent inside an
    outer call is taken out of its raw time, and its probes scale it.
    """

    def __init__(self):
        self.probes: list[float] = [probe()]
        self.spent = 0.0

    def time(self, fn, *args):
        """(result, (raw seconds, first probe, last probe)) of ``fn(*args)``."""
        spent, first = self.spent, len(self.probes) - 1
        start = _clock()
        try:
            result = fn(*args)
        finally:
            raw = _clock() - start - (self.spent - spent)
            after = probe()
            self.spent += after
            self.probes.append(after)
        return result, (raw, first, len(self.probes) - 1)

    def scaled(self, sample: tuple[float, int, int]) -> float:
        raw, first, last = sample
        if last - first + 1 < WINDOW:
            first = max(0, min((first + last) // 2 - WINDOW // 2, len(self.probes) - WINDOW))
            last = first + WINDOW - 1
        return raw * REFERENCE_PROBE_S / statistics.median(self.probes[first:last + 1])

    def speed(self) -> float:
        """Host speed against the reference over every probe so far (>1 is faster)."""
        return REFERENCE_PROBE_S / statistics.median(self.probes)
