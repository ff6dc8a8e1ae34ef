"""Run-time span tracer for the traced benchmark run.

:class:`Tracer.install` wraps public functions of each store layer in
place (class attributes and the module globals the store looks them up
through) and :meth:`Tracer.uninstall` restores the originals; no file of
the program changes.  Every wrapped call records one span::

    (name, start_ns, end_ns, self_ns, span_id, parent_id,
     request_id, op_kind, thread_tag, note)

``self_ns`` is the span's duration minus the time its child spans
covered, computed from a per-thread stack as calls return, so the self
times of one operation's spans add up to its root span's duration.  A
generator (``SSTReader.iterate_from``) records one span per resume.
``op_kind`` is inherited from the nearest public DB or serving operation
on the thread's stack ("bg" on maintenance threads), which is also how
``PerfStats.add`` deltas are attributed to op kinds.  ``note`` carries
what a layer metric needs from a call that returned (a hit flag, a byte
count, the keys a shard worker passed to the DB); it is None when the
call raised.

Spans stay in memory and :meth:`Tracer.write` saves them at the end.
"""

from __future__ import annotations

import gzip
import itertools
import threading
import time
from collections import defaultdict
from typing import Callable

from repro.filters.rosetta_adapter import RosettaFilter
from repro.lsm import db as db_module
from repro.lsm import sstable as sstable_module
from repro.lsm.block_cache import BlockCache
from repro.lsm.db import DB
from repro.lsm.env import StorageEnv
from repro.lsm.filter_integration import FilterDictionary
from repro.lsm.memtable import MemTable
from repro.lsm.scheduler import ThreadPoolScheduler
from repro.lsm.serving import ShardedServer
from repro.lsm.sstable import SSTReader
from repro.lsm.stats import PerfStats
from repro.lsm.wal import WriteAheadLog

from perfbench.workloads import MAX_RANGE


def _range_kind(args) -> str:
    return "range" if args[2] - args[1] + 1 <= MAX_RANGE else "scan"


def _found(args, result) -> int:
    return int(result is not None)


def _length(args, result) -> int:
    return len(result)


def _payload_length(args, result) -> int:
    return len(args[2])


def _keys_arg(args, result):
    return args[1]


def _range_arg(args, result):
    return (args[1], args[2])


def _point_batch(args, result):
    verdicts = result[0]
    return (len(args[1]), len(verdicts) - sum(1 for v in verdicts if v))


def _range_batch(args, result):
    return args[2] - args[1] + 1


def _verdict(args, result) -> int:
    return int(bool(result))


#: (owner, attribute, span name, op kind or a function of the args, note).
#: An op kind marks a public operation: child spans and PerfStats deltas
#: inherit it.  ``None`` inherits the parent's op kind.
CALL_TARGETS = [
    (DB, "get", "db.get", "get", None),
    (DB, "multi_get", "db.multi_get", "multi_get", _keys_arg),
    (DB, "range_query", "db.range", _range_kind, _range_arg),
    (DB, "put", "db.put", "put", None),
    (ShardedServer, "get_async", "serving.submit", "get", None),
    (ShardedServer, "multi_get_async", "serving.submit", "multi_get", None),
    (ShardedServer, "range_query_async", "serving.submit", _range_kind, None),
    (ShardedServer, "put", "serving.put", "put", None),
    (MemTable, "get", "memtable.get", None, _found),
    (MemTable, "put", "memtable.put", None, None),
    (WriteAheadLog, "append_put", "wal.append", None, None),
    (WriteAheadLog, "append_delete", "wal.append", None, None),
    (WriteAheadLog, "append_batch", "wal.append", None, None),
    (db_module, "batched_point_verdicts", "filter.point_batch", None, _point_batch),
    (db_module, "batched_tightened_ranges", "filter.range_batch", None, _range_batch),
    (FilterDictionary, "get_filter", "filter.get_filter", None, None),
    (RosettaFilter, "may_contain", "filter.may_contain", None, _verdict),
    (RosettaFilter, "may_contain_batch", "filter.may_contain_batch", None, None),
    (RosettaFilter, "may_contain_range", "filter.may_contain_range", None, None),
    (RosettaFilter, "tightened_range", "filter.tightened_range", None, None),
    (SSTReader, "get", "sstable.get", None, _found),
    (sstable_module, "decode_data_block", "format.decode_block", None, _length),
    (BlockCache, "get", "block_cache.get", None, _found),
    (BlockCache, "put", "block_cache.put", None, None),
    (StorageEnv, "read_block", "env.read_block", None, _length),
    (StorageEnv, "append_file", "env.append_file", None, _payload_length),
    (StorageEnv, "sync_file", "env.sync_file", None, None),
]

#: Generator functions: one span per resume; note bit 0 marks the first
#: resume of a call, bit 1 a resume that yielded an entry.
GENERATOR_TARGETS = [(SSTReader, "iterate_from", "sstable.iterate")]


class Tracer:
    """Collects spans and per-op-kind ``PerfStats`` deltas in memory."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.thread_names: list[str] = []
        self.block_caches: dict[int, BlockCache] = {}
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._attributions: list[dict] = []
        self._registry_lock = threading.Lock()
        self._saved: list[tuple[object, str, object]] = []

    # -- per-thread state ---------------------------------------------------
    def _state(self):
        local = self._local
        try:
            return local.stack
        except AttributeError:
            with self._registry_lock:
                local.tag = len(self.thread_names)
                self.thread_names.append(threading.current_thread().name)
                local.attribution = defaultdict(lambda: defaultdict(int))
                self._attributions.append(local.attribution)
            local.request = -1
            local.stack = []
            return local.stack

    def set_request(self, request_id: int) -> None:
        """Tag the calling thread's following spans with ``request_id``."""
        self._state()
        self._local.request = request_id

    # -- wrappers -------------------------------------------------------------
    def _call_wrapper(self, fn: Callable, name: str, op_kind, note: Callable | None):
        tracer = self
        spans = self.spans
        ids = self._ids
        clock = time.perf_counter_ns
        fixed_kind = op_kind if isinstance(op_kind, str) else None
        kind_of = op_kind if callable(op_kind) else None

        def traced(*args, **kwargs):
            stack = tracer._state()
            parent = stack[-1] if stack else None
            if fixed_kind is not None:
                kind = fixed_kind
            elif kind_of is not None:
                kind = kind_of(args)
            else:
                kind = parent[2] if parent is not None else "bg"
            frame = [next(ids), 0, kind]
            stack.append(frame)
            result = failed = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException:
                failed = True
                raise
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                if parent is not None:
                    parent[1] += duration
                local = tracer._local
                spans.append((
                    name, start, end, duration - frame[1], frame[0],
                    parent[0] if parent is not None else 0, local.request,
                    kind, local.tag,
                    note(args, result) if note is not None and not failed else None,
                ))

        return traced

    def _generator_wrapper(self, fn: Callable, name: str):
        tracer = self
        spans = self.spans
        ids = self._ids
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            inner = fn(*args, **kwargs)
            first = 1
            try:
                while True:
                    stack = tracer._state()
                    parent = stack[-1] if stack else None
                    kind = parent[2] if parent is not None else "bg"
                    frame = [next(ids), 0, kind]
                    stack.append(frame)
                    yielded = 0
                    start = clock()
                    try:
                        item = next(inner)
                        yielded = 2
                    except StopIteration:
                        return
                    finally:
                        end = clock()
                        stack.pop()
                        duration = end - start
                        if parent is not None:
                            parent[1] += duration
                        local = tracer._local
                        spans.append((
                            name, start, end, duration - frame[1], frame[0],
                            parent[0] if parent is not None else 0,
                            local.request, kind, local.tag, first | yielded,
                        ))
                        first = 0
                    yield item
            finally:
                inner.close()

        return traced

    def _job_submit_wrapper(self, submit: Callable):
        tracer = self

        def traced_submit(scheduler, name, fn):
            job = tracer._call_wrapper(fn, f"job.{name}", "bg", None)
            return submit(scheduler, name, job)

        return traced_submit

    def _stats_add_wrapper(self, add: Callable):
        tracer = self

        def traced_add(stats, **deltas):
            stack = tracer._state()
            kind = stack[-1][2] if stack else "bg"
            bucket = tracer._local.attribution[kind]
            for field_name, delta in deltas.items():
                bucket[field_name] += delta
            return add(stats, **deltas)

        return traced_add

    # -- install / uninstall --------------------------------------------------
    def _patch(self, owner, attr: str, replacement) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def install(self) -> None:
        """Wrap every target (a second install needs an uninstall first)."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        caches = self.block_caches

        # BlockCache.get also remembers its cache, for block_cache.used_bytes.
        def cache_hit(args, result):
            caches.setdefault(id(args[0]), args[0])
            return int(result is not None)

        for owner, attr, name, op_kind, note in CALL_TARGETS:
            if owner is BlockCache and attr == "get":
                note = cache_hit
            fn = owner.__dict__[attr]
            self._patch(owner, attr, self._call_wrapper(fn, name, op_kind, note))
        for owner, attr, name in GENERATOR_TARGETS:
            self._patch(owner, attr, self._generator_wrapper(owner.__dict__[attr], name))
        self._patch(
            ThreadPoolScheduler, "submit",
            self._job_submit_wrapper(ThreadPoolScheduler.__dict__["submit"]),
        )
        self._patch(PerfStats, "add", self._stats_add_wrapper(PerfStats.__dict__["add"]))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # -- results ----------------------------------------------------------------
    def attribution(self) -> dict[str, dict[str, int]]:
        """``PerfStats.add`` deltas summed per op kind across threads."""
        total: dict[str, dict[str, int]] = defaultdict(lambda: defaultdict(int))
        with self._registry_lock:
            parts = list(self._attributions)
        for part in parts:
            for kind, fields in list(part.items()):
                for field_name, value in list(fields.items()):
                    total[kind][field_name] += value
        return total

    def write(self, path: str) -> None:
        """Save the spans as gzipped tab-separated lines."""
        spans = list(self.spans)
        names = self.thread_names
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write(
                "name\tstart_ns\tend_ns\tself_ns\tspan_id\tparent_id"
                "\trequest_id\top_kind\tthread\n"
            )
            for span in spans:
                out.write(
                    f"{span[0]}\t{span[1]}\t{span[2]}\t{span[3]}\t{span[4]}"
                    f"\t{span[5]}\t{span[6]}\t{span[7]}\t{names[span[8]]}\n"
                )
