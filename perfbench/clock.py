"""Report times in seconds at a fixed reference speed.

The machines this benchmark runs on are shared, and their speed drifts:
on the one it was built on, identical reports take up to twice as long
for seconds to minutes at a time, with no steal time reported.  No
statistic of a 25-second run removes a slow phase that lasts the whole
run.  So every timed call is followed by a fixed probe: pure-Python
`Fraction` arithmetic, the operation mix that dominates the program but
none of its code.  A call's reference time is its wall time scaled by
`REFERENCE_S` over the median of the five probes around it (two before,
three after), which cancels the machine's speed of the moment while
one disturbed probe cannot move the estimate.  Raw wall times are kept
alongside.
"""

import statistics
import time
from fractions import Fraction

# Duration of one probe on the reference machine (the one the baseline
# in README.md was recorded on) when nothing else slows it down.
REFERENCE_S = 0.010

_VALUES = tuple(Fraction(k, 2 * k + 1) for k in range(1, 33))


def _probe_work():
    acc = Fraction(0)
    for _ in range(8):
        for a in _VALUES:
            for b in _VALUES[:8]:
                acc = acc + a * b - b
    return acc


class ReferenceClock:
    """Times calls in wall seconds; converts them to reference seconds
    once the probes after them have run."""

    def __init__(self):
        self.probes = []
        self._calls = []  # (wall seconds, number of probes before the call)
        self.probe()
        self.probe()

    def probe(self):
        start = time.perf_counter()
        _probe_work()
        self.probes.append(time.perf_counter() - start)

    def time(self, func, *args, **kwargs):
        """(call id, result) of the call."""
        start = time.perf_counter()
        result = func(*args, **kwargs)
        self._calls.append((time.perf_counter() - start, len(self.probes)))
        self.probe()
        return len(self._calls) - 1, result

    def wall(self, call_id):
        return self._calls[call_id][0]

    def reference(self, call_id):
        """Reference seconds of a timed call."""
        wall, k = self._calls[call_id]
        while len(self.probes) < k + 3:  # the last calls need probes after them
            self.probe()
        return wall * REFERENCE_S / statistics.median(self.probes[k - 2:k + 3])

    def speed(self):
        """The machine's speed over the run, as a share of the reference."""
        return REFERENCE_S / statistics.median(self.probes)
