"""Store set-up and the load generators.

Every run goes through a :class:`RequestLog`: per op, when it was due
(``sched``), when the client called the store (``submit``), when the
answer arrived (``done``) and the answer itself.  A closed-loop client has
``sched == submit``.
"""

from __future__ import annotations

import os
import shutil
import time
from array import array
from functools import partial
from typing import Callable

from repro.bench.factories import make_factory
from repro.lsm import DB, DBOptions
from repro.lsm.serving import ServingOptions, ShardedServer

from perfbench.speed import SpeedReference
from perfbench.workloads import (
    BITS_PER_KEY,
    DEVICE,
    KEY_BITS,
    MAX_RANGE,
    Dataset,
    Workload,
    value_for,
)

clock = time.perf_counter_ns


def db_options(workload: Workload) -> DBOptions:
    return DBOptions(
        key_bits=KEY_BITS,
        device=DEVICE,
        filter_factory=make_factory("rosetta", KEY_BITS, BITS_PER_KEY, max_range=MAX_RANGE),
        **workload.db,
    )


def serving_options(workload: Workload) -> ServingOptions:
    return ServingOptions(**workload.serving)


class Store:
    """A loaded ``DB`` or ``ShardedServer`` plus the directory it lives in."""

    def __init__(self, workload: Workload, path: str) -> None:
        self.path = path
        self.server = None
        if workload.serving is not None:
            self.server = ShardedServer(path, db_options(workload), serving_options(workload))
            self.dbs = self.server.shards
        else:
            self.dbs = (DB(path, db_options(workload)),)

    @property
    def db(self) -> DB:
        return self.dbs[0]

    def load(self, items: list[tuple[int, bytes]]) -> None:
        """Bulk-load ``items`` into each shard's first level (``DB.ingest``)."""
        if self.server is None:
            self.db.ingest(items)
            return
        router = self.server.router
        groups: dict[int, list] = {}
        for key, value in items:
            groups.setdefault(router.shard_of(key), []).append((key, value))
        for shard, group in groups.items():
            self.dbs[shard].ingest(group)

    def settle(self) -> None:
        """Flush every memtable and wait until background work is idle."""
        target = self.server or self.db
        target.flush()
        self._wait_idle()

    def compact(self) -> None:
        """Push L0 into the tree and wait until background work is idle.

        Gives the probe pass the same tree shape on every run instead of
        whatever L0 count the window's last flush left.
        """
        (self.server or self.db).compact()
        self._wait_idle()

    def _wait_idle(self) -> None:
        if not (self.server or self.db).wait_idle(120.0):
            raise RuntimeError("background work did not settle")

    def perf(self):
        """Consistent copy of the store's ``PerfStats`` (summed over shards)."""
        if self.server is not None:
            return self.server.perf_totals()
        return self.db.stats.snapshot()

    def serving_stats(self):
        return self.server.stats() if self.server is not None else None

    def file_bytes(self, suffix: str = "") -> int:
        total = 0
        for root, _, files in os.walk(self.path):
            total += sum(
                os.path.getsize(os.path.join(root, f)) for f in files if f.endswith(suffix)
            )
        return total

    def close(self) -> None:
        (self.server or self.db).close()


def set_up(workload: Workload, path: str, data: Dataset) -> tuple[Store, float]:
    """Empty directory to loaded, idle store; returns how long that took.

    The load is a bulk ingest into the first level, so every run starts
    from the same tree shape; flushes and compactions then come only from
    the workload's own writes.
    """
    shutil.rmtree(path, ignore_errors=True)
    items = [(key, value_for(key, 0)) for key in data.load_keys]
    start = time.perf_counter()
    store = Store(workload, path)
    store.load(items)
    store.settle()
    return store, time.perf_counter() - start


class RequestLog:
    """Per-request timestamps and answers of one pass over an op list.

    Storage is allocated up front, so the benchmark's own memory does not
    grow with the number of ops a run completes (``peak_rss_mb``).  A
    closed loop hands each answer to its ``check`` callback and keeps
    none; the serving reader keeps answers until its pass ends.
    """

    def __init__(self, ops: list, first_rid: int = 0) -> None:
        self.ops = ops
        self.first_rid = first_rid
        n = len(ops)
        self.sched = array("q", bytes(8 * n))
        self.submit = array("q", bytes(8 * n))
        self.done = array("q", bytes(8 * n))
        self.results: list = [None] * n
        self.errors: list = [None] * n
        self.count = 0  # ops actually issued (a prefix of ``ops``)
        self.start_ns = 0
        self.end_ns = 0

    def mark_done(self, index: int, future=None) -> None:
        self.done[index] = clock()

    def latency_us(self, index: int) -> float:
        return (self.done[index] - self.sched[index]) / 1000.0

    def await_callbacks(self, timeout_s: float = 10.0) -> None:
        """Wait for done-callbacks, which run just after a future resolves."""
        limit = clock() + int(timeout_s * 1e9)
        for index in range(self.count):
            while not self.done[index] and self.errors[index] is None and clock() < limit:
                time.sleep(0.0001)


def _db_calls(db: DB) -> dict:
    # Bound here, after any tracer install, so traced runs call the wrappers.
    return {
        "get": db.get,
        "multi_get": db.multi_get,
        "range": db.range_query,
        "scan": db.range_query,
        "put": db.put,
    }


def run_closed(db: DB, log: RequestLog, seconds: float | None, check: Callable,
               tracer=None, memtable=None, ref: SpeedReference | None = None) -> None:
    """One client, one op at a time, until ``seconds`` pass or ops run out.

    ``check(op, result, error)`` sees every answer right after it is timed.
    ``memtable`` (a two-item list) accumulates point lookups answered by a
    memtable and point lookups issued, read from ``db.last_query``.
    ``ref`` samples the host's speed between ops.
    """
    calls = _db_calls(db)
    ops = log.ops
    sched, submit, done, errors = log.sched, log.submit, log.done, log.errors
    log.start_ns = now = clock()
    stop = now + int(seconds * 1e9) if seconds is not None else None
    index = 0
    for index, op in enumerate(ops):
        kind, args, _ = op
        if tracer is not None:
            tracer.set_request(log.first_rid + index)
        result = error = None
        start = clock()
        try:
            result = calls[kind](*args)
        except Exception as exc:  # noqa: BLE001 - counted as a failed op
            error = exc
        end = clock()
        sched[index] = submit[index] = start
        done[index] = end
        errors[index] = error
        check(op, result, error)
        if memtable is not None and kind in ("get", "multi_get"):
            context = db.last_query
            if kind == "get":
                memtable[0] += context.memtable_hit
                memtable[1] += 1
            else:
                memtable[0] += context.memtable_hits
                memtable[1] += context.distinct_keys
        if ref is not None and end >= ref.next_ns:
            ref.sample()
        if stop is not None and end >= stop:
            index += 1
            break
    else:
        index = len(ops)
    log.count = index
    log.end_ns = clock()
    if tracer is not None:
        tracer.set_request(-1)


def _server_calls(server: ShardedServer) -> dict:
    return {
        "get": server.get_async,
        "multi_get": server.multi_get_async,
        "range": server.range_query_async,
        "scan": server.range_query_async,
    }


def run_serving_closed(server: ShardedServer, log: RequestLog, seconds: float | None,
                       ref: SpeedReference | None = None, tracer=None) -> None:
    """One closed-loop client on a ``ShardedServer``, keeping every answer.

    Reads go through the async API and the client waits for each answer
    before it sends the next op; puts go through the blocking ``put``.
    Runs until ``seconds`` pass or the ops run out; answers are checked
    after the pass.
    """
    calls = _server_calls(server)
    log.start_ns = clock()
    stop = log.start_ns + int(seconds * 1e9) if seconds is not None else None
    for index, (kind, args, _) in enumerate(log.ops):
        if stop is not None and clock() >= stop:
            break
        if tracer is not None:
            tracer.set_request(log.first_rid + index)
        log.sched[index] = log.submit[index] = clock()
        try:
            if kind == "put":
                server.put(*args)
                log.done[index] = clock()
            else:
                future = calls[kind](*args)
                future.add_done_callback(partial(log.mark_done, index))
                log.results[index] = future.result(60.0)
        except Exception as exc:  # noqa: BLE001 - counted as a failed op
            log.errors[index] = exc
            log.done[index] = log.done[index] or clock()
        log.count = index + 1
        if ref is not None and clock() >= ref.next_ns:
            ref.sample()
    log.await_callbacks()
    log.end_ns = clock()
    if tracer is not None:
        tracer.set_request(-1)
