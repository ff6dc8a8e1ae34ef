"""Per-layer metrics and coverage from one traced pass.

Inputs are the tracer's spans and per-op-kind ``PerfStats`` deltas, the
store's counter deltas over the traced pass and the request logs.  Layer
metrics count foreground work (spans whose op kind is not ``bg``) unless
the metric is a device or background total.  A layer that does not run
in a workload (the serving layer under a direct ``DB`` client) reports 0.
"""

from __future__ import annotations

from collections import defaultdict, deque

import numpy as np

from perfbench.workloads import MAX_RANGE

POINT_KINDS = ("get", "multi_get")

_US, _MS, _N, _R, _B = "us", "ms", "count", "ratio", "bytes"
#: Every per-layer metric and its unit, in report order.
PER_LAYER_UNITS = {
    "serving.requests": _N, "serving.batches": _N, "serving.keys_per_batch": _R,
    "serving.coalesced_frac": _R, "serving.queue_wait_p50_us": _US,
    "serving.queue_wait_p99_us": _US, "serving.exec_p50_us": _US,
    "serving.deliver_p50_us": _US, "serving.max_queue_depth": _N,
    "serving.sheds": _N, "serving.deadline_misses": _N,
    "db.get.self_us": _US, "db.multi_get.self_us": _US, "db.range.self_us": _US,
    "db.put.self_us": _US, "db.write_stall_ms": _MS, "db.write_stops": _N,
    "memtable.get.self_us": _US, "memtable.put.self_us": _US, "memtable.hit_frac": _R,
    "wal.appends": _N, "wal.append.self_us": _US, "wal.bytes": _B,
    "filter.point_probe_us": _US, "filter.range_probe_us": _US,
    "filter.scan_probe_us": _US, "filter.batch_calls": _N, "filter.keys_per_batch": _R,
    "filter.point_fpr": _R, "filter.range_fpr": _R, "filter.negative_frac": _R,
    "filter.deserialize_ms": _MS, "filter.build_ms": _MS, "filter.built": _N,
    "sstable.get.self_us": _US, "sstable.iterate.self_us": _US,
    "format.decode_block.calls": _N, "format.decode_block.us": _US,
    "format.useful_entry_frac": _R,
    "block_cache.hit_frac": _R, "block_cache.get.self_us": _US,
    "block_cache.used_bytes": _B,
    "env.block_reads": _N, "env.read_bytes": _B, "env.read_block.self_us": _US,
    "env.modeled_read_ms": _MS, "env.io_retries": _N, "env.syncs": _N,
    "env.bytes_written": _B,
    "compaction.jobs": _N, "compaction.busy_ms": _MS, "compaction.bytes_read": _B,
    "compaction.bytes_written": _B, "flush.count": _N, "flush.busy_ms": _MS,
    "trace.coverage.get": _R, "trace.coverage.multi_get": _R,
    "trace.coverage.range": _R, "trace.coverage.scan": _R, "trace.coverage.put": _R,
    "trace.overhead": _R,
}


def percentile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=float), q)) if len(values) else 0.0


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _fpr(fields: dict) -> float:
    false_pos = fields.get("filter_false_positives", 0)
    return _ratio(false_pos, fields.get("filter_negatives", 0) + false_pos)


class SpanTable:
    """Spans grouped by name, foreground only unless asked otherwise."""

    def __init__(self, spans: list) -> None:
        self.by_name: dict[str, list] = defaultdict(list)
        for span in spans:
            self.by_name[span[0]].append(span)

    def fg(self, name: str) -> list:
        return [s for s in self.by_name.get(name, ()) if s[7] != "bg"]

    def all(self, name: str) -> list:
        return self.by_name.get(name, [])

    def mean_self_us(self, name: str, spans: list | None = None) -> float:
        spans = self.fg(name) if spans is None else spans
        return _ratio(sum(s[3] for s in spans), len(spans)) / 1000.0


# ---------------------------------------------------------------------------
# Serving: match each request to the shard-worker DB calls that served it
# ---------------------------------------------------------------------------
def match_serving(log, spans: list, thread_names: list, router) -> dict[int, list]:
    """Map request index -> the worker DB call spans that served it.

    Each shard drains its queue in FIFO order: a batch's single
    ``multi_get`` receives the keys of its point-bearing requests in
    submit order, then its range requests run one call each.  A call
    whose keys or bounds disagree with the next queued requests leaves
    them unmatched, which shows as coverage below 1.
    """
    calls: dict[int, list] = defaultdict(list)
    for span in spans:
        name = thread_names[span[8]]
        if span[0] in ("db.multi_get", "db.range") and name.startswith("serving-shard-"):
            calls[int(name.rsplit("-", 1)[1])].append(span)
    point_queue: dict[int, deque] = defaultdict(deque)
    range_queue: dict[int, deque] = defaultdict(deque)
    pieces_of: dict[int, int] = {}
    for index in sorted(range(log.count), key=lambda i: log.submit[i]):
        kind, args, _ = log.ops[index]
        if kind == "put":
            continue
        if kind in POINT_KINDS:
            keys = [args[0]] if kind == "get" else list(args[0])
            groups = router.group_keys(keys)
            for shard, group in groups.items():
                point_queue[shard].append((index, group))
            pieces_of[index] = len(groups)
        else:
            pieces = router.split_range(args[0], args[1])
            for shard, low, high in pieces:
                range_queue[shard].append((index, (low, high)))
            pieces_of[index] = len(pieces)
    matched: dict[int, list] = defaultdict(list)
    for shard, shard_calls in calls.items():
        shard_calls.sort(key=lambda s: s[1])
        for span in shard_calls:
            if span[9] is None:
                continue
            if span[0] == "db.multi_get":
                want = list(span[9])
                taken, got = [], []
                queue = point_queue[shard]
                while queue and len(got) < len(want):
                    index, group = queue.popleft()
                    taken.append(index)
                    got.extend(group)
                if got == want:
                    for index in taken:
                        matched[index].append(span)
            else:
                queue = range_queue[shard]
                if queue and queue[0][1] == tuple(span[9]):
                    matched[queue.popleft()[0]].append(span)
    return {i: s for i, s in matched.items() if len(s) == pieces_of.get(i, -1)}


def serving_breakdown(log, matched: dict[int, list]) -> dict[int, tuple]:
    """Per matched request: (late, queue wait, exec, deliver) in ns.

    The piece whose DB call ended last is the one the answer waited for;
    the four parts tile the request's time from its due time to its answer.
    """
    out = {}
    for index, pieces in matched.items():
        critical = max(pieces, key=lambda s: s[2])
        submit = log.submit[index]
        out[index] = (
            submit - log.sched[index],
            critical[1] - submit,
            critical[2] - critical[1],
            log.done[index] - critical[2],
        )
    return out


# ---------------------------------------------------------------------------
# Coverage: layer self times / measured wall time, per op kind
# ---------------------------------------------------------------------------
def coverage(passes: list, spans: list) -> dict[str, list[float]]:
    """Per op kind: [sum of layer times, sum of wall times] in ns.

    ``passes`` holds ``(log, breakdown)`` pairs.  A request served through
    a shard queue (``breakdown`` given, not a put) counts its four
    :func:`serving_breakdown` parts, or nothing when it was not matched.
    Any other request counts the self time of every span tagged with its
    request id plus how late it was sent.
    """
    self_by_rid: dict[int, int] = defaultdict(int)
    for span in spans:
        if span[6] >= 0:
            self_by_rid[span[6]] += span[3]
    sums: dict[str, list[float]] = defaultdict(lambda: [0.0, 0.0])
    for log, breakdown in passes:
        for index in range(log.count):
            if log.errors[index] is not None:
                continue
            kind = log.ops[index][0]
            if breakdown is not None and kind != "put":
                layered = sum(breakdown.get(index, ()))
            else:
                layered = (self_by_rid.get(log.first_rid + index, 0)
                           + log.submit[index] - log.sched[index])
            sums[kind][0] += layered
            sums[kind][1] += log.done[index] - log.sched[index]
    return sums


# ---------------------------------------------------------------------------
# All per-layer metrics
# ---------------------------------------------------------------------------
def layer_metrics(table: SpanTable, attribution: dict, perf_delta: dict,
                  serving_delta: dict | None, max_queue_depth: int,
                  breakdown: dict | None, cache_bytes: int) -> dict:
    fg_fields: dict[str, int] = defaultdict(int)
    for kind, fields in attribution.items():
        if kind != "bg":
            for name, value in fields.items():
                fg_fields[name] += value
    point_fields: dict[str, int] = defaultdict(int)
    for kind in POINT_KINDS:
        for name, value in attribution.get(kind, {}).items():
            point_fields[name] += value
    m: dict[str, float] = {}

    # serving
    if serving_delta is not None:
        requests = serving_delta["point_requests"] + serving_delta["multi_requests"]
        parts = list(breakdown.values()) if breakdown else []
        m.update({
            "serving.requests": requests + serving_delta["range_requests"],
            "serving.batches": serving_delta["batches"],
            "serving.keys_per_batch": _ratio(serving_delta["batched_keys"], serving_delta["batches"]),
            "serving.coalesced_frac": _ratio(serving_delta["coalesced_requests"], requests),
            "serving.queue_wait_p50_us": percentile([p[1] for p in parts], 50) / 1000,
            "serving.queue_wait_p99_us": percentile([p[1] for p in parts], 99) / 1000,
            "serving.exec_p50_us": percentile([p[2] for p in parts], 50) / 1000,
            "serving.deliver_p50_us": percentile([p[3] for p in parts], 50) / 1000,
            "serving.max_queue_depth": max_queue_depth,
            "serving.sheds": serving_delta["sheds"],
            "serving.deadline_misses": serving_delta["deadline_misses"],
        })
    else:
        for name in ("requests", "batches", "keys_per_batch", "coalesced_frac",
                     "queue_wait_p50_us", "queue_wait_p99_us", "exec_p50_us",
                     "deliver_p50_us", "max_queue_depth", "sheds", "deadline_misses"):
            m[f"serving.{name}"] = 0

    # db: public op self time (short ranges only for db.range)
    short = [s for s in table.fg("db.range") if s[7] == "range"]
    m.update({
        "db.get.self_us": table.mean_self_us("db.get"),
        "db.multi_get.self_us": table.mean_self_us("db.multi_get"),
        "db.range.self_us": table.mean_self_us("db.range", short),
        "db.put.self_us": table.mean_self_us("db.put"),
        "db.write_stall_ms": perf_delta["write_stall_time_ns"] / 1e6,
        "db.write_stops": perf_delta["write_stops"],
    })

    # memtable
    memtable_gets = table.fg("memtable.get")
    m.update({
        "memtable.get.self_us": table.mean_self_us("memtable.get"),
        "memtable.put.self_us": table.mean_self_us("memtable.put"),
        "memtable.hit_frac": _ratio(sum(1 for s in memtable_gets if s[9]), len(memtable_gets)),
    })

    # wal: the env appends made inside a WAL append are the WAL's bytes
    wal = table.fg("wal.append")
    wal_ids = {s[4] for s in wal}
    m.update({
        "wal.appends": len(wal),
        "wal.append.self_us": table.mean_self_us("wal.append"),
        "wal.bytes": sum(s[9] or 0 for s in table.all("env.append_file") if s[5] in wal_ids),
    })

    # filter
    point_batches = table.fg("filter.point_batch")
    scalar_points = [s for s in table.fg("filter.may_contain") if s[7] == "get"]
    point_keys = sum(s[9][0] for s in point_batches if s[9]) + len(scalar_points)
    point_ns = sum(s[2] - s[1] for s in point_batches) + sum(s[2] - s[1] for s in scalar_points)
    range_batches = table.fg("filter.range_batch")
    short_probes = [s for s in range_batches if s[9] is not None and s[9] <= MAX_RANGE]
    wide_probes = [s for s in range_batches if s[9] is not None and s[9] > MAX_RANGE]
    probes = fg_fields.get("filter_probes", 0)
    m.update({
        "filter.point_probe_us": _ratio(point_ns, point_keys) / 1000,
        "filter.range_probe_us": _ratio(sum(s[2] - s[1] for s in short_probes), len(short_probes)) / 1000,
        "filter.scan_probe_us": _ratio(sum(s[2] - s[1] for s in wide_probes), len(wide_probes)) / 1000,
        "filter.batch_calls": len(point_batches) + len(range_batches),
        "filter.keys_per_batch": _ratio(sum(s[9][0] for s in point_batches if s[9]), len(point_batches)),
        "filter.point_fpr": _fpr(point_fields),
        "filter.range_fpr": _fpr(attribution.get("range", {})),
        "filter.negative_frac": _ratio(fg_fields.get("filter_negatives", 0), probes),
        "filter.deserialize_ms": perf_delta["deserialize_ns"] / 1e6,
        "filter.build_ms": perf_delta["filter_construction_ns"] / 1e6,
        "filter.built": perf_delta["filters_built"],
    })

    # sstable / format
    iterate = table.fg("sstable.iterate")
    iterate_calls = sum(1 for s in iterate if s[9] & 1)
    decodes = table.fg("format.decode_block")
    returned = sum(1 for s in table.fg("sstable.get") if s[9]) + sum(
        1 for s in iterate if s[9] & 2
    )
    m.update({
        "sstable.get.self_us": table.mean_self_us("sstable.get"),
        "sstable.iterate.self_us": _ratio(sum(s[3] for s in iterate), iterate_calls) / 1000,
        "format.decode_block.calls": len(decodes),
        "format.decode_block.us": _ratio(sum(s[2] - s[1] for s in decodes), len(decodes)) / 1000,
        "format.useful_entry_frac": _ratio(returned, sum(s[9] or 0 for s in decodes)),
    })

    # block cache
    cache_gets = table.fg("block_cache.get")
    m.update({
        "block_cache.hit_frac": _ratio(sum(1 for s in cache_gets if s[9]), len(cache_gets)),
        "block_cache.get.self_us": table.mean_self_us("block_cache.get"),
        "block_cache.used_bytes": cache_bytes,
    })

    # env: the device layer, every thread
    reads = table.all("env.read_block")
    m.update({
        "env.block_reads": len(reads),
        "env.read_bytes": sum(s[9] or 0 for s in reads),
        "env.read_block.self_us": table.mean_self_us("env.read_block", reads),
        "env.modeled_read_ms": perf_delta["block_read_time_ns"] / 1e6,
        "env.io_retries": perf_delta["io_retries"],
        "env.syncs": len(table.all("env.sync_file")),
        "env.bytes_written": perf_delta["bytes_written"],
    })

    # compaction and flush jobs (background threads)
    compaction_jobs = table.all("job.compaction") + table.all("job.subcompaction")
    m.update({
        "compaction.jobs": len(table.all("job.compaction")),
        "compaction.busy_ms": sum(s[2] - s[1] for s in compaction_jobs) / 1e6,
        "compaction.bytes_read": perf_delta["compaction_bytes_read"],
        "compaction.bytes_written": perf_delta["compaction_bytes_written"],
        "flush.count": perf_delta["flushes"],
        "flush.busy_ms": sum(s[2] - s[1] for s in table.all("job.flush")) / 1e6,
    })
    return m
