"""Workload definitions, seeded op streams and the answer model.

Every workload loads ``NUM_KEYS`` uniform 32-bit keys with 32-byte values
into a store filtered by Rosetta (18 bits/key, Rmax = 64) on the ``ssd``
device model, which charges modeled time and never sleeps.  The three
mixes stress different layers:

* ``point_rw`` -- one closed-loop client on a ``DB``: present gets
  (Zipf 0.99), absent gets, 16-key multi_gets and overwrites.  The block
  cache holds about a quarter of the data and small memtables/SSTs make
  flushes and compactions happen inside the timed window.  No ranges.
* ``range_e`` -- the paper's Workload E variant: one closed-loop client,
  read-only after load, the cache holds everything.  Empty short ranges,
  correlated empty ranges (Fig. 5B), non-empty short ranges and scans
  far wider than Rmax.
* ``serving_closed`` -- a two-shard ``ShardedServer`` driven by one
  closed-loop client: get / multi_get / short range through the async
  API, overwrites through ``put``.

An op is ``(kind, args, tag)``: ``kind`` names the call, ``args`` are its
positional arguments and ``tag`` classifies ranges for the workload facts.
Nothing here touches the store; :mod:`perfbench.drive` runs the ops.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field

import numpy as np

KEY_BITS = 32
NUM_KEYS = 50_000
BITS_PER_KEY = 18
MAX_RANGE = 64
DEVICE = "ssd"
DOMAIN = 1 << KEY_BITS
#: Width of a scan: eight mean key gaps, so a scan covers about 8 keys
#: while its filter work (width / Rmax enumerated probes) stays fixed.
SCAN_WIDTH = 8 * (DOMAIN // NUM_KEYS)


@dataclass(frozen=True)
class Workload:
    """Static description of one workload (recorded in provenance)."""

    name: str
    why: str
    #: Share of each op kind in the timed mix (sums to 1).
    mix: dict
    #: ``DBOptions`` fields (besides the shared filter/device/key settings).
    db: dict
    #: ``ServingOptions`` fields, or None for a direct ``DB`` client.
    serving: dict | None = None
    #: Ops run untimed before the window.
    warmup: int = 0
    #: Op kinds missing from ``mix``, timed by the probe pass after the
    #: window (kind -> share), and how many probe ops to generate.
    probe_mix: dict = field(default_factory=dict)
    probe_ops: int = 0
    #: Share of present keys among gets and among multi_get keys.
    present_share: float = 0.5
    #: Shares of short-range categories (empty / correlated / nonempty).
    range_mix: dict = field(default_factory=lambda: {"empty": 1})


_SMALL_LSM = dict(
    memtable_size_bytes=64 << 10,
    sst_size_bytes=128 << 10,
    block_cache_bytes=512 << 10,
    max_background_jobs=1,
)

WORKLOADS = {
    "point_rw": Workload(
        name="point_rw",
        why="point path: memtable, point probes, block cache smaller than "
        "the data, block parse, WAL and compaction; no ranges",
        mix={"get": 0.70, "multi_get": 0.10, "put": 0.20},
        db=dict(_SMALL_LSM),
        warmup=3000,
        probe_mix={"range": 0.95, "scan": 0.05},
        probe_ops=8_000,
        present_share=50 / 70,
    ),
    "range_e": Workload(
        name="range_e",
        why="range-filter probing, ranges within Rmax and far wider; "
        "read-only, cache holds all data, so block parse/WAL/compaction idle",
        mix={"range": 0.97, "scan": 0.03},
        db=dict(_SMALL_LSM, block_cache_bytes=8 << 20),
        warmup=600,
        probe_mix={"get": 0.6, "multi_get": 0.35, "put": 0.05},
        probe_ops=20_000,
        present_share=50 / 70,
        range_mix={"empty": 80, "correlated": 10, "nonempty": 7},
    ),
    "serving_closed": Workload(
        name="serving_closed",
        why="sharded server: queue hand-off, scatter/gather and GIL contention "
        "between the client, the shard workers and background work",
        mix={"get": 0.60, "multi_get": 0.25, "range": 0.10, "put": 0.05},
        db=dict(_SMALL_LSM),
        serving=dict(num_shards=2),
        # One closed-loop client.  An open loop at a fixed offered rate
        # was tried first: at 200 req/s (1/6 of saturation) its tail
        # percentiles moved 2-5x between runs of the same code on a
        # 2-core box, because a few host stalls per second queue the
        # requests due behind them.  A separate writer thread putting
        # at a fixed pace moved them 30-60%, by colliding with reads.
        warmup=1500,
        probe_mix={"scan": 1.0},
        probe_ops=1_000,
        present_share=0.7,
        range_mix={"empty": 70, "nonempty": 30},
    ),
}

#: Length of the probe pass that times the op kinds a mix lacks.
PROBE_SECONDS = 6.0


def value_for(key: int, version: int) -> bytes:
    """The 32-byte value of ``key`` after its ``version``-th write."""
    return version.to_bytes(8, "big") + key.to_bytes(4, "big") * 6


class Dataset:
    """The loaded key set plus the model every answer is checked against.

    Puts overwrite existing keys, so the sorted key set that reads can
    see never changes after load; only values do.
    """

    def __init__(self, seed: int) -> None:
        rng = np.random.default_rng([seed, 1])
        drawn = rng.integers(0, DOMAIN, size=int(NUM_KEYS * 1.3), dtype=np.uint64)
        _, first = np.unique(drawn, return_index=True)
        order = np.sort(first)[:NUM_KEYS]
        if len(order) < NUM_KEYS:
            raise RuntimeError("key draw produced too few distinct keys")
        #: Load order; also the popularity order of the Zipf draw.
        self.load_keys = [int(k) for k in drawn[order]]
        self.sorted_keys = sorted(self.load_keys)
        self.key_set = set(self.load_keys)
        self.model = {k: value_for(k, 0) for k in self.load_keys}

    def user_bytes(self) -> int:
        """Bytes of live user data (4-byte keys plus values)."""
        return sum(4 + len(v) for v in self.model.values())

    def range_answer(self, low: int, high: int) -> list:
        keys = self.sorted_keys
        start = bisect.bisect_left(keys, low)
        stop = bisect.bisect_right(keys, high)
        model = self.model
        return [(k, model[k]) for k in keys[start:stop]]

    def is_empty(self, low: int, high: int) -> bool:
        keys = self.sorted_keys
        i = bisect.bisect_left(keys, low)
        return i == len(keys) or keys[i] > high

    def expected(self, op) -> object:
        """The model's answer to ``op`` (applies puts to the model)."""
        kind, args, _ = op
        if kind == "get":
            return self.model.get(args[0])
        if kind == "multi_get":
            return {k: self.model.get(k) for k in args[0]}
        if kind in ("range", "scan"):
            return self.range_answer(args[0], args[1])
        self.model[args[0]] = args[1]
        return None


class OpGenerator:
    """Seeded op streams over a :class:`Dataset`."""

    def __init__(self, data: Dataset, workload: Workload, seed: int, stream: int) -> None:
        self.data = data
        self.workload = workload
        self.rng = np.random.default_rng([seed, 2, stream])
        n = len(data.load_keys)
        weights = 1.0 / np.arange(1, n + 1) ** 0.99
        self._zipf_cdf = np.cumsum(weights) / weights.sum()
        self._versions: dict[int, int] = {}
        self._present: list[int] = []
        self._absent: list[int] = []

    # -- keys -------------------------------------------------------------
    def present_key(self) -> int:
        if not self._present:
            ranks = np.searchsorted(self._zipf_cdf, self.rng.random(4096))
            keys = self.data.load_keys
            self._present = [keys[min(int(r), len(keys) - 1)] for r in ranks]
        return self._present.pop()

    def absent_key(self) -> int:
        while True:
            if not self._absent:
                self._absent = [
                    int(k)
                    for k in self.rng.integers(0, DOMAIN, size=4096, dtype=np.uint64)
                ]
            k = self._absent.pop()
            if k not in self.data.key_set:
                return k

    # -- ranges -----------------------------------------------------------
    def short_range(self, category: str) -> tuple[int, int]:
        data = self.data
        rng = self.rng
        keys = data.sorted_keys
        while True:
            width = int(rng.integers(2, MAX_RANGE + 1))
            if category == "empty":
                low = int(rng.integers(0, DOMAIN - MAX_RANGE))
            elif category == "correlated":
                low = keys[int(rng.integers(0, len(keys)))] + 1
            else:
                anchor = keys[int(rng.integers(0, len(keys)))]
                low = max(0, anchor - int(rng.integers(0, width)))
            high = min(low + width - 1, DOMAIN - 1)
            if data.is_empty(low, high) == (category != "nonempty"):
                return low, high

    def scan(self) -> tuple[int, int]:
        low = self.data.sorted_keys[int(self.rng.integers(0, NUM_KEYS))]
        return low, min(low + SCAN_WIDTH - 1, DOMAIN - 1)

    # -- ops ----------------------------------------------------------------
    def ops(self, count: int, mix: dict) -> list:
        """``count`` ops drawn from ``mix`` (kind -> share)."""
        kinds = list(mix)
        picks = self.rng.choice(len(kinds), size=count, p=[mix[k] for k in kinds])
        range_mix = self.workload.range_mix
        categories = list(range_mix)
        category_p = np.array([range_mix[c] for c in categories], dtype=float)
        category_p /= category_p.sum()
        present = self.workload.present_share
        out = []
        for pick in picks:
            kind = kinds[pick]
            if kind == "get":
                if self.rng.random() < present:
                    op = ("get", (self.present_key(),), "present")
                else:
                    op = ("get", (self.absent_key(),), "absent")
            elif kind == "multi_get":
                op = ("multi_get", (self.multi_keys(),), None)
            elif kind == "range":
                category = categories[self.rng.choice(len(categories), p=category_p)]
                op = ("range", self.short_range(category), category)
            elif kind == "scan":
                op = ("scan", self.scan(), "scan")
            else:
                op = self.overwrite()
            out.append(op)
        return out

    def multi_keys(self) -> list[int]:
        """16 keys: four present and four absent on each half of the domain."""
        keys: list[int] = []
        for half in (0, 1):
            for draw in (self.present_key, self.absent_key):
                chosen = 0
                while chosen < 4:
                    key = draw()
                    if key >> (KEY_BITS - 1) == half:
                        keys.append(key)
                        chosen += 1
        order = self.rng.permutation(len(keys))
        return [keys[i] for i in order]

    def overwrite(self) -> tuple:
        keys = self.data.load_keys
        key = keys[int(self.rng.integers(0, len(keys)))]
        version = self._versions.get(key, 0) + 1
        self._versions[key] = version
        return ("put", (key, value_for(key, version)), None)
