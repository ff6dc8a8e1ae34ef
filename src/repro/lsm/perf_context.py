"""Per-query performance context — the RocksDB ``PerfContext`` analogue.

``PerfStats`` aggregates over a DB's lifetime; debugging a *single* slow
query needs per-operation numbers: how many runs were considered, how many
filters answered negative, how many blocks were actually read.  The DB
fills one :class:`QueryContext` per read operation from that operation's
own counter deltas (never from a diff of the shared counters, which other
threads and background jobs move too) and exposes the calling thread's
most recent one via ``db.last_query``.

The paper's §4 discussion ("the number of iterators is equal to the number
of SST files") is directly observable here: ``iterators_created`` counts
exactly the child iterators a query wired into its merge.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["QueryContext"]


@dataclass
class QueryContext:
    """Counters for one point, range, or batched multi-point query.

    ``kind="multi_point"`` aggregates a whole :meth:`DB.multi_get` batch
    into one context: ``low``/``high`` span the distinct keys requested,
    ``runs_considered`` counts the runs that received at least one batched
    probe, and the ``keys_requested`` / ``distinct_keys`` /
    ``memtable_hits`` trio describes the batch shape.
    """

    kind: str = ""
    low: int = 0
    high: int = 0

    runs_considered: int = 0      # overlapping runs after fence pruning
    filters_probed: int = 0
    filter_negatives: int = 0
    iterators_created: int = 0    # per-run child iterators actually opened
    blocks_read: int = 0          # block fetches (cache misses)
    block_cache_hits: int = 0
    results: int = 0              # live entries returned
    memtable_hit: bool = False

    # multi_point only: batch shape.
    keys_requested: int = 0       # input keys, duplicates included
    distinct_keys: int = 0        # lookups actually resolved
    memtable_hits: int = 0        # keys answered by the memtable alone

    notes: list[str] = field(default_factory=list)

    @property
    def runs_pruned_by_filters(self) -> int:
        """Runs the filters excused from I/O."""
        return self.filter_negatives

    def summary(self) -> str:
        """One-line human-readable digest."""
        if self.kind == "point":
            label = f"point({self.low})"
        elif self.kind == "multi_point":
            label = (
                f"multi_point({self.distinct_keys} keys in "
                f"[{self.low}, {self.high}], {self.memtable_hits} memtable)"
            )
        else:
            label = f"range[{self.low}, {self.high}]"
        return (
            f"{label}: {self.runs_considered} runs considered, "
            f"{self.filters_probed} filters probed "
            f"({self.filter_negatives} negative), "
            f"{self.iterators_created} iterators, "
            f"{self.blocks_read} block reads "
            f"({self.block_cache_hits} cache hits), "
            f"{self.results} result(s)"
        )
