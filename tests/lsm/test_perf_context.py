"""Tests for per-query performance contexts (db.last_query)."""

import sys
import threading

import pytest

from repro.bench.factories import make_factory
from repro.lsm.db import DB
from repro.lsm.options import DBOptions


@pytest.fixture
def db(tmp_path, small_db_options):
    small_db_options.filter_factory = make_factory(
        "rosetta", 32, 16, max_range=32
    )
    database = DB(str(tmp_path / "ctx"), small_db_options)
    for i in range(3000):
        database.put(i * 7, f"v{i}".encode())
    database.flush()
    yield database
    database.close()


class TestPointContext:
    def test_present_key(self, db):
        assert db.get(7) == b"v1"
        ctx = db.last_query
        assert ctx.kind == "point"
        assert ctx.low == 7
        assert ctx.results == 1
        assert ctx.runs_considered >= 1
        assert "point(7)" in ctx.summary()

    def test_memtable_hit_short_circuits(self, db):
        db.put(999_999, b"fresh")
        db.get(999_999)
        ctx = db.last_query
        assert ctx.memtable_hit
        assert ctx.runs_considered == 0
        assert ctx.blocks_read == 0

    def test_filtered_absent_key_reads_nothing(self, db):
        db.get(8)  # absent, inside the key span
        ctx = db.last_query
        assert ctx.results == 0
        assert ctx.filters_probed >= 1
        if ctx.filter_negatives == ctx.filters_probed:
            assert ctx.iterators_created == 0

    def test_out_of_span_key_considers_no_runs(self, db):
        db.get((1 << 32) - 1)
        assert db.last_query.runs_considered == 0


class TestRangeContext:
    def test_occupied_range(self, db):
        results = db.range_query(0, 70)
        ctx = db.last_query
        assert ctx.kind == "range"
        assert ctx.results == len(results) == 11
        assert ctx.iterators_created >= 1

    def test_filtered_empty_range_creates_no_iterators(self, db):
        db.range_query(1, 6)  # first probe may lazily load filter blocks
        db.range_query(1, 6)  # between multiples of 7, definitely empty
        ctx = db.last_query
        assert ctx.results == 0
        if ctx.filter_negatives == ctx.filters_probed and ctx.filters_probed:
            assert ctx.iterators_created == 0
            assert ctx.blocks_read == 0

    def test_runs_pruned_property(self, db):
        db.range_query(1, 6)
        ctx = db.last_query
        assert ctx.runs_pruned_by_filters == ctx.filter_negatives

    def test_context_replaced_per_query(self, db):
        db.range_query(0, 10)
        first = db.last_query
        db.get(7)
        assert db.last_query is not first
        assert db.last_query.kind == "point"

    def test_iterator_count_tracks_positive_runs(self, db):
        """§4: one child iterator per positive run (plus the memtable)."""
        db.put(50_000_000, b"live-memtable")
        db.range_query(0, 70)
        ctx = db.last_query
        positives = ctx.filters_probed - ctx.filter_negatives
        no_filter_runs = ctx.runs_considered - ctx.filters_probed
        assert ctx.iterators_created == positives + no_filter_runs + 1


class TestConcurrentAttribution:
    """Contexts count only their own operation's work, whatever overlaps.

    Two reader threads issue memtable-hit gets and filter-negative absent
    gets while a third runs range scans that miss the block cache and a
    fourth writes enough to keep flushes and compactions in flight.
    """

    READS = 150
    SCANS = 40

    @pytest.fixture
    def busy_db(self, tmp_path):
        options = DBOptions(
            key_bits=32,
            memtable_size_bytes=8 << 10,
            sst_size_bytes=16 << 10,
            max_bytes_for_level_base=64 << 10,
            block_size_bytes=1024,
            block_cache_bytes=4 << 10,
            max_background_jobs=1,
            filter_factory=make_factory("rosetta", 32, 16, max_range=32),
        )
        database = DB(str(tmp_path / "busy"), options)
        for i in range(3000):
            database.put(i * 7, f"v{i}".encode())
        database.flush()
        assert database.wait_idle(60.0)
        for i in range(0, 21_000, 500):  # load every run's filter up front
            database.get(i + 3)
        assert database.wait_idle(60.0)
        database.stats.reset()
        yield database
        database.close()

    def test_last_query_is_per_thread(self, db):
        db.get(7)
        other: list = []
        worker = threading.Thread(
            target=lambda: other.append((db.range_query(0, 70), db.last_query))
        )
        worker.start()
        worker.join()
        assert db.last_query.kind == "point" and db.last_query.low == 7
        assert other[0][1].kind == "range"
        assert other[0][1].results == len(other[0][0])
        fresh = threading.Thread(target=lambda: other.append(db.last_query))
        fresh.start()
        fresh.join()
        assert other[1] is None  # a thread that has read nothing

    def test_contexts_never_cross_attribute(self, busy_db):
        db = busy_db
        contexts: list = []
        errors: list = []
        record = threading.Lock()

        def keep(ctx):
            with record:
                contexts.append(ctx)

        def reader(slot):
            try:
                for i in range(self.READS):
                    fresh = 10_000_000 + slot * 100_000 + i
                    db.put(fresh, b"fresh")
                    db.get(fresh)
                    hit = db.last_query
                    assert hit.kind == "point" and hit.low == fresh
                    if hit.memtable_hit:  # a flush may have taken the key
                        assert hit.blocks_read == 0
                        assert hit.block_cache_hits == 0
                        assert hit.filters_probed == 0
                    keep(hit)
                    absent = (i * 97 + slot) % 3000 * 7 + 3
                    assert db.get(absent) is None
                    miss = db.last_query
                    assert miss.kind == "point" and miss.low == absent
                    if miss.filter_negatives == miss.filters_probed:
                        # Nothing passed a filter, so no data block was
                        # read; a run first probed here fetched its filter.
                        assert miss.iterators_created == 0
                        assert (
                            miss.blocks_read + miss.block_cache_hits
                            <= miss.filters_probed
                        )
                    keep(miss)
            except BaseException as exc:  # surfaced by the main thread
                errors.append(exc)

        def scanner():
            try:
                for i in range(self.SCANS):
                    low = (i * 523) % 18_000
                    rows = db.range_query(low, low + 2_000)
                    ctx = db.last_query
                    assert ctx.kind == "range" and ctx.low == low
                    assert ctx.results == len(rows)
                    keep(ctx)
            except BaseException as exc:
                errors.append(exc)

        def writer():
            try:
                for i in range(1_500):
                    db.put(50_000_000 + i, b"w" * 24)
            except BaseException as exc:
                errors.append(exc)

        threads = [
            threading.Thread(target=reader, args=(0,)),
            threading.Thread(target=reader, args=(1,)),
            threading.Thread(target=scanner),
            threading.Thread(target=writer),
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # interleave threads as finely as possible
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        finally:
            sys.setswitchinterval(interval)
        assert not errors, errors[0]
        assert db.wait_idle(60.0)
        assert db.stats.flushes > 0

        gets = [ctx for ctx in contexts if ctx.kind == "point"]
        scans = [ctx for ctx in contexts if ctx.kind == "range"]
        assert len(gets) == 4 * self.READS and len(scans) == self.SCANS
        assert sum(ctx.memtable_hit for ctx in gets) > 0
        assert sum(ctx.blocks_read for ctx in scans) > 0
        stats = db.stats
        # Foreground-only counters: the lifetime totals are exactly the
        # sum of the per-operation contexts.
        assert stats.point_queries == len(gets)
        assert stats.range_queries == len(scans)
        assert stats.filter_probes == sum(ctx.filters_probed for ctx in contexts)
        assert stats.filter_negatives == sum(
            ctx.filter_negatives for ctx in contexts
        )
        # Block counters also include flush and compaction reads.
        assert stats.block_reads >= sum(ctx.blocks_read for ctx in contexts)
        assert stats.block_cache_hits >= sum(
            ctx.block_cache_hits for ctx in contexts
        )
