"""The repository benchmark: one workload, one seed, one JSON result.

Usage (from the repository root)::

    python3 perfbench/run.py --workload point_rw --seed 1 --seconds 25 --trace 0

Workloads are defined in :mod:`perfbench.workloads`.  A run generates
every op stream from ``--seed`` before anything is timed, sets the store
up from an empty directory, runs an untimed warm-up and then times the
workload for ``--seconds``.  Every answer is checked against the model.

``--trace 0`` reports the end-to-end metrics (no tracing installed):

* ``setup_s`` -- empty directory to bulk-loaded (``DB.ingest``), flushed
  and idle store; the median of ``SETUPS`` set-ups;
* ``<kind>_p50_us`` -- per op kind, from call to return; the median over
  the seconds of the pass that ran the kind of each second's median.
  Kinds missing from a mix are timed by a ``PROBE_SECONDS`` probe pass
  after the window on a compacted tree, so every workload reports every
  kind;
* ``success_rate`` -- 1 - failed/attempted, where wrong answers fail;
* ``io_us_per_op`` -- block fetches in the window (block-cache hits and
  device reads) at the device model's block-read cost, per read op;
* ``write_amp`` -- bytes written since the directory was empty / user
  bytes put (load included);
* ``space_amp`` -- bytes of files on disk after the window is flushed /
  bytes of live user data;
* ``peak_rss_mb`` -- peak resident set of this process.

Every time above is scaled to a nominal host speed measured by a
reference routine timed between ops (:mod:`perfbench.speed`), because
the shared host's own speed drifts by more than the metrics' bounds; the
facts line keeps the unscaled times.  It also holds the client's
``ops_per_s`` and the p90/p99 of every kind, which are not end-to-end
metrics: on a 2-core host, stalls while threads hand over the GIL move
them by 30-180% between runs of the same code.

``--trace 1`` reports per-layer metrics: half the window runs untraced,
half with :class:`perfbench.tracer.Tracer` installed; the probe pass runs
traced too, for coverage.  Spans are written to ``.perfbench_out/``.

The last stdout line is ``{"correct", "attempted", "failed", "metrics"}``;
the line before it holds provenance and workload facts.  The exit code is
0 only when every answer was right and every workload check held.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

import numpy as np  # noqa: E402
from repro.lsm.env import DEVICE_PRESETS  # noqa: E402

from perfbench import layers  # noqa: E402
from perfbench.drive import (  # noqa: E402
    RequestLog,
    db_options,
    run_closed,
    run_serving_closed,
    serving_options,
    set_up,
)
from perfbench.speed import NOMINAL_NS, SLICE_NS, SpeedReference, clock  # noqa: E402
from perfbench.tracer import Tracer  # noqa: E402
from perfbench.workloads import (  # noqa: E402
    DEVICE,
    MAX_RANGE,
    PROBE_SECONDS,
    WORKLOADS,
    Dataset,
    OpGenerator,
)

SETUPS = 5
#: Upper bound on closed-loop op rates, used to size the pre-generated
#: streams (a stream that runs out ends the window early).
STREAM_RATE = {"point_rw": 6_000, "range_e": 1_500, "serving_closed": 1_500}
LATENCY_KINDS = ("get", "multi_get", "range", "scan", "put")
OUT_DIR = ROOT / ".perfbench_out"
#: Request ids of probe passes (window ops use their stream index), so
#: spans of different passes never share an id.
PROBE_RID = 10_000_000


# ---------------------------------------------------------------------------
# Inputs
# ---------------------------------------------------------------------------
class Inputs:
    """Every op stream of one run, generated before anything is timed."""

    def __init__(self, workload, seed: int, seconds: float, trace: bool) -> None:
        self.data = Dataset(seed)
        gen = OpGenerator(self.data, workload, seed, stream=0)
        windows = (seconds / 2, seconds / 2) if trace else (seconds,)
        self.window_seconds = windows
        cap = STREAM_RATE[workload.name]
        self.warmup = gen.ops(workload.warmup, workload.mix)
        self.windows = [gen.ops(int(cap * w) + 1, workload.mix) for w in windows]
        probe_gen = OpGenerator(self.data, workload, seed, stream=1)
        self.probes = probe_gen.ops(workload.probe_ops, workload.probe_mix)


# ---------------------------------------------------------------------------
# Answer checking and facts
# ---------------------------------------------------------------------------
class Checker:
    """Replays the model over executed ops in order; counts wrong answers."""

    def __init__(self, data: Dataset) -> None:
        self.data = data
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.first_problem: str | None = None

    def check(self, log: RequestLog, facts: dict | None = None) -> None:
        """Check the kept answers of a serving or probe log."""
        for index in range(log.count):
            self.check_op(log.ops[index], log.results[index], log.errors[index], facts)

    def closed(self, facts: dict | None = None) -> Callable:
        """A per-op callback for closed loops, which keep no answers."""
        return lambda op, result, error: self.check_op(op, result, error, facts)

    def check_op(self, op, result, error, facts: dict | None = None) -> None:
        kind, args, tag = op
        expected = self.data.expected(op)
        self.attempted += 1
        if error is not None:
            self.failed += 1
            self.first_problem = self.first_problem or f"{kind}{args[:1]}: {error!r}"
            return
        if kind != "put" and result != expected:
            self.failed += 1
            self.wrong += 1
            self.first_problem = self.first_problem or f"wrong answer to {kind} {args!r}"
        if facts is not None:
            _count_facts(facts, kind, args, tag, expected)


def _count_facts(facts: dict, kind: str, args, tag, expected) -> None:
    if kind == "get":
        facts["point_lookups"] += 1
        facts["present"] += expected is not None
    elif kind == "multi_get":
        facts["point_lookups"] += len(expected)
        facts["present"] += sum(v is not None for v in expected.values())
        facts["multi_gets"] += 1
        facts["multi_cross_shard"] += len({k >> 31 for k in args[0]}) > 1
    elif kind in ("range", "scan"):
        facts["ranges"] += 1
        facts["empty"] += not expected
        facts["correlated"] += tag == "correlated"
        facts["within_rmax"] += args[1] - args[0] + 1 <= MAX_RANGE


def _fact_shares(facts: dict, memtable: list | None) -> dict:
    def share(num, den):
        return round(num / den, 4) if den else None

    ranges = facts["ranges"]
    return {
        "range_empty_share": share(facts["empty"], ranges),
        "range_correlated_share": share(facts["correlated"], ranges),
        "range_within_rmax_share": share(facts["within_rmax"], ranges),
        "range_wider_than_rmax_share": share(ranges - facts["within_rmax"], ranges),
        "present_key_share": share(facts["present"], facts["point_lookups"]),
        "memtable_hit_share": share(memtable[0], memtable[1]) if memtable else None,
        "cross_shard_multi_get_share": share(facts["multi_cross_shard"], facts["multi_gets"]),
    }


def _new_facts() -> dict:
    return dict.fromkeys(
        ("point_lookups", "present", "multi_gets", "multi_cross_shard",
         "ranges", "empty", "correlated", "within_rmax"), 0)


# ---------------------------------------------------------------------------
# Provenance
# ---------------------------------------------------------------------------
def _git(*args: str) -> str | None:
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), *args], capture_output=True, text=True, timeout=30,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _options_dict(options) -> dict:
    out = {}
    for f in dataclasses.fields(options):
        value = getattr(options, f.name)
        plain = isinstance(value, (int, float, str, bool, type(None)))
        out[f.name] = value if plain else repr(value)
    return out


def provenance(workload, seed: int, seconds: float, trace: bool) -> dict:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    toplevel = _git("rev-parse", "--show-toplevel")
    in_git = toplevel is not None and Path(toplevel).resolve() == ROOT
    return {
        "git_rev": _git("rev-parse", "HEAD") if in_git else None,
        "git_dirty": bool(_git("status", "--porcelain", "--", "src")) if in_git else None,
        "src_sha256": digest.hexdigest(),
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "workload": dataclasses.asdict(workload),
        "db_options": _options_dict(db_options(workload)),
        "serving_options": (
            _options_dict(serving_options(workload)) if workload.serving is not None else None
        ),
        "device_model": dataclasses.asdict(DEVICE_PRESETS[DEVICE]),
    }


# ---------------------------------------------------------------------------
# One run
# ---------------------------------------------------------------------------
def _delta(after, before) -> dict:
    return {
        f.name: getattr(after, f.name) - getattr(before, f.name)
        for f in dataclasses.fields(after)
    }


def _run_window(store, workload, inputs, index: int, checker, ref, facts=None, tracer=None,
                memtable=None) -> list:
    """Run timed window ``index`` and check it; returns its request logs."""
    if workload.serving is None:
        log = RequestLog(inputs.windows[index])
        run_closed(store.db, log, inputs.window_seconds[index], checker.closed(facts),
                   tracer, memtable, ref)
        return [log]
    log = RequestLog(inputs.windows[index])
    run_serving_closed(store.server, log, inputs.window_seconds[index], ref, tracer)
    checker.check(log, facts)
    return [log]


def _run_probes(store, workload, inputs, checker, ref, tracer=None) -> RequestLog:
    """Time the op kinds missing from the mix, interleaved, one at a time."""
    log = RequestLog(inputs.probes, PROBE_RID)
    if workload.serving is None:
        run_closed(store.db, log, PROBE_SECONDS, checker.closed(), tracer, ref=ref)
    else:
        run_serving_closed(store.server, log, PROBE_SECONDS, ref)
        checker.check(log)
    return log


def _put_bytes(logs: list) -> int:
    """User bytes (4-byte key plus value) of the puts the logs issued."""
    return sum(
        4 + len(log.ops[i][1][1])
        for log in logs
        for i in range(log.count)
        if log.ops[i][0] == "put" and log.errors[i] is None
    )


def _latencies(logs: list, ref: SpeedReference | None, kind: str | None = None) -> list:
    """``(sent_ns, latency_us)`` of the logs' ops of ``kind``, successful ones only.

    ``kind=None`` takes every issued op, failed ones too.  With ``ref``
    each latency is scaled to the nominal host speed of the slice in which
    the op was sent (:mod:`perfbench.speed`).
    """
    out = []
    for log in logs:
        scaler = ref.scaler(log.start_ns, log.end_ns) if ref is not None else None
        for i in range(log.count):
            if kind is not None and (log.errors[i] is not None or log.ops[i][0] != kind):
                continue
            sent, latency = log.sched[i], log.latency_us(i)
            out.append((sent, latency * scaler.factor(sent) if scaler else latency))
    return out


def _latency(logs: list, kind: str, q: float, ref: SpeedReference | None) -> float:
    """Median over the seconds of a pass of each second's percentile ``q``.

    A kind runs either in the window or in the probe pass.  The shared
    host stalls now and then for a few milliseconds; in a 25-second
    window a handful of stalls decide a pooled tail percentile, while
    the median over seconds of each second's percentile reads the typical
    second and ignores up to half of them.
    """
    seconds: dict[int, list[float]] = {}
    samples = _latencies(logs, ref, kind)
    if not samples:
        return 0.0
    first = min(sent for sent, _ in samples)
    for sent, latency in samples:
        seconds.setdefault((sent - first) // SLICE_NS, []).append(latency)
    return statistics.median(layers.percentile(v, q) for v in seconds.values())


def _ops_per_s(logs: list, ref: SpeedReference | None) -> float:
    """The client's ops per second of time spent in store calls.

    Neither the benchmark's own answer checking nor, with ``ref``, the
    host's drift counts.
    """
    ops = sum(log.count for log in logs)
    return ops / (sum(latency for _, latency in _latencies(logs, ref)) / 1e6)


def _traced_window(store, workload, inputs, untraced_ops_per_s: float, checker, ref, tracer):
    """Second half of the window with the tracer on; returns its layer metrics."""
    perf0, serving0 = store.perf(), store.serving_stats()
    tracer.install()
    try:
        logs = _run_window(store, workload, inputs, 1, checker, ref, tracer=tracer)
    finally:
        tracer.uninstall()
    perf1, serving1 = store.perf(), store.serving_stats()
    serving = workload.serving is not None
    breakdown = None
    if serving:
        breakdown = layers.serving_breakdown(logs[0], layers.match_serving(
            logs[0], tracer.spans, tracer.thread_names, store.server.router))
    metrics = layers.layer_metrics(
        layers.SpanTable(tracer.spans), tracer.attribution(), _delta(perf1, perf0),
        _delta(serving1, serving0) if serving else None,
        serving1.max_queue_depth if serving else 0,
        breakdown,
        sum(cache.used_bytes for cache in tracer.block_caches.values()),
    )
    metrics["trace.overhead"] = _ops_per_s(logs, ref) / untraced_ops_per_s
    return metrics, [(log, breakdown) for log in logs], perf1


def _traced_probes(store, workload, inputs, checker, ref, tracer, passes: list) -> RequestLog:
    """The probe pass with the tracer on; adds its log to ``passes``."""
    first_span = len(tracer.spans)
    tracer.install()
    try:
        log = _run_probes(store, workload, inputs, checker, ref, tracer)
    finally:
        tracer.uninstall()
    breakdown = None
    if workload.serving is not None:
        breakdown = layers.serving_breakdown(log, layers.match_serving(
            log, tracer.spans[first_span:], tracer.thread_names, store.server.router))
    passes.append((log, breakdown))
    return log


def run(workload, seed: int, seconds: float, trace: bool, work: Path) -> tuple[dict, dict]:
    inputs = Inputs(workload, seed, seconds, trace)
    # The op streams and the model are the benchmark's own long-lived
    # objects; freezing them keeps them out of the store's GC passes.
    gc.collect()
    gc.freeze()
    data = inputs.data
    checker = Checker(data)
    problems: list[str] = []

    # Set-up from an empty directory; untraced runs take the median of
    # SETUPS, each scaled by the host speed sampled just before and after.
    ref = SpeedReference()
    setup_times, setup_raw = [], []
    store = None
    for attempt in range(1 if trace else SETUPS):
        if store is not None:
            store.close()
            shutil.rmtree(store.path, ignore_errors=True)
        gc.collect()
        before = clock()
        ref.burst()
        store, elapsed = set_up(workload, str(work / f"store{attempt}"), data)
        ref.burst()
        setup_raw.append(elapsed)
        setup_times.append(elapsed * NOMINAL_NS / ref.cost_between(before, clock()))
    load_written = store.perf().bytes_written
    load_bytes = data.user_bytes()

    # Warm-up (untimed): fills the block cache and the filter dictionary.
    if workload.serving is None:
        run_closed(store.db, RequestLog(inputs.warmup), None, checker.closed())
        if workload.name == "range_e":
            for _ in store.db.iterator():
                pass
    else:
        warm_log = RequestLog(inputs.warmup)
        run_serving_closed(store.server, warm_log, None)
        checker.check(warm_log)

    # Timed window, tracing off.
    facts = _new_facts()
    memtable = [0, 0] if workload.serving is None else None
    perf0, serving0 = store.perf(), store.serving_stats()
    window_logs = _run_window(store, workload, inputs, 0, checker, ref, facts, memtable=memtable)
    perf1, serving1 = store.perf(), store.serving_stats()
    untraced_ops_per_s = _ops_per_s(window_logs, ref)
    window = _delta(perf1, perf0)
    # Write amplification of the window's puts; a window without puts
    # (range_e) reports that of the load instead.
    window_put_bytes = _put_bytes(window_logs)
    if window_put_bytes:
        write_amp = window["bytes_written"] / window_put_bytes
    else:
        write_amp = load_written / load_bytes

    # Traced half of the window (per-layer runs only).
    layer, passes, perf_end, tracer = {}, [], perf1, None
    if trace:
        tracer = Tracer()
        layer, passes, perf_end = _traced_window(
            store, workload, inputs, untraced_ops_per_s, checker, ref, tracer)

    # Background work over the whole timed window (both halves when traced).
    background = _delta(perf_end, perf0)
    window_facts = {
        "flushes_in_window": background["flushes"],
        "compactions_in_window": background["compactions"],
        "memtable_seals_in_window": background["memtable_seals"],
    }
    if workload.name == "point_rw" and background["flushes"] < 3:
        problems.append(f"point_rw window saw {background['flushes']} flushes (< 3)")
    if workload.name == "range_e" and (
        background["flushes"] or background["compactions"] or background["memtable_seals"]
    ):
        problems.append("range_e ran background work inside its window")
    if serving0 is not None:
        sd = _delta(serving1, serving0)
        keys_per_batch = sd["batched_keys"] / sd["batches"] if sd["batches"] else 0.0
        window_facts["serving_keys_per_batch"] = keys_per_batch
        if keys_per_batch <= 1:
            problems.append(f"serving.keys_per_batch = {keys_per_batch} (<= 1)")

    # Space after the window, then the probe pass on a compacted tree.
    store.settle()
    space_amp = store.file_bytes() / data.user_bytes()
    options = db_options(workload)
    cache_bytes = options.block_cache_bytes * len(store.dbs)
    data_bytes = store.file_bytes(".sst")
    store.compact()
    if trace:
        probe_log = _traced_probes(store, workload, inputs, checker, ref, tracer, passes)
        sums = layers.coverage(passes, tracer.spans)
        for kind in LATENCY_KINDS:
            traced, wall = sums.get(kind, (0.0, 0.0))
            value = traced / wall if wall else 0.0
            layer[f"trace.coverage.{kind}"] = value
            if not 0.9 <= value <= 1.1:
                problems.append(f"trace.coverage.{kind} = {value:.3f} outside [0.9, 1.1]")
    else:
        probe_log = _run_probes(store, workload, inputs, checker, ref)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    store.close()

    if checker.failed:
        problems.append(
            f"{checker.failed} failed ops ({checker.wrong} wrong answers); "
            f"first: {checker.first_problem}")

    read_ops = sum(
        1 for log in window_logs for i in range(log.count) if log.ops[i][0] != "put")
    # Every block fetch a read made, from the cache or the device, charged
    # at the device's block-read cost, so the metric is not 0 when the
    # cache holds everything (range_e).
    block_ns = DEVICE_PRESETS[DEVICE].block_read_ns(options.block_size_bytes)
    io_ns = window["block_read_time_ns"] + window["block_cache_hits"] * block_ns
    timed = window_logs + [probe_log]
    latencies = {f"{kind}_p50_us": kind for kind in LATENCY_KINDS}
    e2e = {
        "setup_s": (statistics.median(setup_times), "s"),
        **{name: (_latency(timed, kind, 50, ref), "us") for name, kind in latencies.items()},
        "success_rate": (1.0 - checker.failed / checker.attempted, "ratio"),
        "io_us_per_op": (io_ns / read_ops / 1000, "us"),
        "write_amp": (write_amp, "ratio"),
        "space_amp": (space_amp, "ratio"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    spans_file = None
    if trace:
        OUT_DIR.mkdir(exist_ok=True)
        spans_path = OUT_DIR / f"spans-{workload.name}-seed{seed}.tsv.gz"
        tracer.write(str(spans_path))
        spans_file = str(spans_path.relative_to(ROOT))
        window_facts["memtable_get_hit_frac"] = layer["memtable.hit_frac"]
    facts_out = {
        **_fact_shares(facts, memtable),
        **window_facts,
        "data_bytes_per_cache_bytes": data_bytes / cache_bytes,
        "device_us_per_read_op": window["block_read_time_ns"] / read_ops / 1000,
        "error_rate": checker.failed / checker.attempted,
        "setup_s_all": setup_times,
        # Not end-to-end metrics: on a 2-core shared host they move by
        # more than any bound between runs of the same code (see
        # CHANGES.md).  Scaled like the metrics.
        "ops_per_s": untraced_ops_per_s,
        "tail_us": {
            kind: {f"p{q}": _latency(timed, kind, q, ref) for q in (90, 99)}
            for kind in LATENCY_KINDS
        },
        # The times before scaling to the nominal host speed, and the
        # host speed itself (reference cost / nominal cost).
        "unscaled": {
            "setup_s": statistics.median(setup_raw),
            "ops_per_s": _ops_per_s(window_logs, None),
            **{name: _latency(timed, kind, 50, None) for name, kind in latencies.items()},
        },
        "host_slowness": {
            "window": ref.cost_between(window_logs[0].start_ns, window_logs[0].end_ns)
            / NOMINAL_NS,
            "probes": ref.cost_between(probe_log.start_ns, probe_log.end_ns) / NOMINAL_NS,
            "samples": len(ref.costs),
        },
        "samples": {
            kind: sum(1 for log in timed for i in range(log.count) if log.ops[i][0] == kind)
            for kind in LATENCY_KINDS
        },
        "problems": problems,
        "spans_file": spans_file,
    }
    if trace:
        metrics = {k: {"value": v, "unit": layers.PER_LAYER_UNITS[k]} for k, v in layer.items()}
    else:
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in e2e.items()}
    result = {
        "correct": not problems,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": metrics,
    }
    info = {"provenance": provenance(workload, seed, seconds, trace), "facts": facts_out}
    return info, result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]
    work = OUT_DIR / f"work-{args.workload}-{os.getpid()}"
    started = time.perf_counter()
    try:
        info, result = run(workload, args.seed, args.seconds, bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    info["facts"]["run_wall_s"] = time.perf_counter() - started
    OUT_DIR.mkdir(exist_ok=True)
    record = OUT_DIR / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record.write_text(json.dumps({**info, "result": result}, indent=1, default=str))
    print(json.dumps(info, default=str))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
