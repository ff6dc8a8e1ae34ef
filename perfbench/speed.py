"""Host-speed reference: scales measured times to a fixed machine speed.

The benchmark runs on a few cores of a shared host whose speed drifts by
±30% over seconds to minutes with its neighbours' load: on a 2-vCPU
virtual machine the same pure Python loop took 1.2 ms in one minute and
1.8 ms in the next, in CPU time as well as wall time.  No statistic over one run removes a drift
that lasts longer than the run, so the benchmark measures the drift
instead.  Between ops it runs a fixed reference routine -- the same code
on every run and every commit, built from the operations the store
itself spends its time on (bisect, dict lookups, bytes packing, small
NumPy arrays) -- and times it in CPU time of the calling thread, so
waiting for the GIL or for a core does not count.  A sample runs the
routine once untimed, then keeps the faster of two timed runs: a cold
run's cost depends on what the op before it left in the caches, which
would tie the reference to the program it is meant to be independent of.

A time measured at instant ``t`` is scaled by ``NOMINAL_NS / cost(t)``,
where ``cost(t)`` is the median cost of the reference samples within
``SPAN_SLICES`` slices of ``SLICE_NS`` either side of the slice holding
``t`` (fewer samples scatter more than the host drifts): the result is
the time the op would have taken on a host where the routine costs
exactly ``NOMINAL_NS``.  A change
to the program moves the scaled time as it moves the raw time; a change
of the host's speed moves both the op and the reference and cancels.
"""

from __future__ import annotations

import bisect
import statistics
import time
from array import array

import numpy as np

clock = time.perf_counter_ns
#: Cost of one reference sample on the nominal host (CPU ns).
NOMINAL_NS = 200_000
#: Minimum wall time between two samples taken by a client loop.
SAMPLE_INTERVAL_NS = 100_000_000
#: Width of the slices that pair ops with the samples around them, and
#: how many neighbouring slices on each side lend their samples too.
SLICE_NS = 1_000_000_000
SPAN_SLICES = 2
#: Samples taken back to back at each edge of a pass (``burst``).
BURST = 5
#: A slice with fewer samples uses the median of the whole pass.
MIN_SLICE_SAMPLES = 3


class SpeedReference:
    """Timed samples of a fixed reference routine, and the scale they give."""

    def __init__(self) -> None:
        # Fixed inputs: every run on every commit times the same work.
        rng = np.random.default_rng(0)
        self._array = np.sort(rng.integers(0, 1 << 32, size=4096, dtype=np.uint64))
        self._keys = [int(k) for k in self._array]
        self._table = {k: k.to_bytes(4, "big") * 8 for k in self._keys[::2]}
        self._probes = [int(k) for k in rng.integers(0, 1 << 32, size=128, dtype=np.uint64)]
        self._batch = rng.integers(0, 1 << 32, size=64, dtype=np.uint64)
        self.times = array("q")
        self.costs = array("q")
        self.next_ns = 0

    def _routine(self) -> int:
        keys, table, array_ = self._keys, self._table, self._array
        acc = 0
        for probe in self._probes:
            i = bisect.bisect_left(keys, probe)
            key = keys[i % len(keys)]
            value = table.get(key)
            if value is not None:
                acc += len(value[4:20])
            acc += len(probe.to_bytes(4, "big") + key.to_bytes(4, "big"))
        for _ in range(8):
            found = np.searchsorted(array_, self._batch)
            acc += int(((self._batch >> np.uint64(6)) & np.uint64(63)).sum()) + int(found[0])
        return acc

    def sample(self) -> None:
        """Record the routine's warm CPU cost."""
        self._routine()
        cost = None
        for _ in range(2):
            start = time.thread_time_ns()
            self._routine()
            elapsed = time.thread_time_ns() - start
            cost = elapsed if cost is None else min(cost, elapsed)
        now = clock()
        self.times.append(now)
        self.costs.append(cost)
        self.next_ns = now + SAMPLE_INTERVAL_NS

    def burst(self) -> None:
        """``BURST`` samples back to back (at the edges of a pass)."""
        for _ in range(BURST):
            self.sample()

    def cost_between(self, start_ns: int, end_ns: int) -> float:
        """Median sample cost within ``[start_ns, end_ns]`` (all samples if none)."""
        lo = bisect.bisect_left(self.times, start_ns)
        hi = bisect.bisect_right(self.times, end_ns)
        costs = self.costs[lo:hi] or self.costs
        return statistics.median(costs)

    def scaler(self, start_ns: int, end_ns: int) -> "Scaler":
        """Per-slice scale factors for a pass that ran from ``start_ns`` to ``end_ns``."""
        return Scaler(self, start_ns, end_ns)


class Scaler:
    """Maps an instant of one pass to the scale factor of its slice."""

    def __init__(self, ref: SpeedReference, start_ns: int, end_ns: int) -> None:
        self.start_ns = start_ns
        self.pass_cost = ref.cost_between(start_ns, end_ns)
        slices = max(1, -(-(end_ns - start_ns) // SLICE_NS))
        self.factors = []
        for index in range(slices):
            low = max(start_ns, start_ns + (index - SPAN_SLICES) * SLICE_NS)
            high = min(end_ns, start_ns + (index + 1 + SPAN_SLICES) * SLICE_NS)
            costs = ref.costs[bisect.bisect_left(ref.times, low):bisect.bisect_left(ref.times, high)]
            cost = statistics.median(costs) if len(costs) >= MIN_SLICE_SAMPLES else self.pass_cost
            self.factors.append(NOMINAL_NS / cost)

    def factor(self, at_ns: int) -> float:
        index = (at_ns - self.start_ns) // SLICE_NS
        return self.factors[min(max(index, 0), len(self.factors) - 1)]
