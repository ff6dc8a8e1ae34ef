"""Unit tests for the merging iterator and level/run metadata."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import StoreError
from repro.lsm.format import ValueTag
from repro.lsm.iterators import MergingIterator, live_entries
from repro.lsm.version import Version


def _stream(entries):
    return iter(entries)


class TestMergingIterator:
    def test_merges_in_key_order(self):
        merged = MergingIterator(
            [
                (0, _stream([(b"a", 0, b"1"), (b"c", 0, b"3")])),
                (1, _stream([(b"b", 0, b"2"), (b"d", 0, b"4")])),
            ]
        )
        assert [k for k, _, _ in merged] == [b"a", b"b", b"c", b"d"]

    def test_newest_wins_on_ties(self):
        merged = MergingIterator(
            [
                (1, _stream([(b"k", 0, b"old")])),
                (0, _stream([(b"k", 0, b"new")])),
            ]
        )
        assert list(merged) == [(b"k", 0, b"new")]

    def test_three_way_tie(self):
        merged = MergingIterator(
            [
                (2, _stream([(b"k", 0, b"oldest")])),
                (0, _stream([(b"k", 0, b"newest")])),
                (1, _stream([(b"k", 0, b"middle")])),
            ]
        )
        assert list(merged) == [(b"k", 0, b"newest")]

    def test_empty_sources(self):
        assert list(MergingIterator([])) == []
        assert list(MergingIterator([(0, _stream([]))])) == []

    def test_tombstone_shadows_older_put(self):
        merged = MergingIterator(
            [
                (0, _stream([(b"k", ValueTag.DELETE, b"")])),
                (1, _stream([(b"k", ValueTag.PUT, b"v")])),
            ]
        )
        assert list(live_entries(merged)) == []

    def test_live_entries_strips_tombstones_only(self):
        merged = [
            (b"a", ValueTag.PUT, b"1"),
            (b"b", ValueTag.DELETE, b""),
            (b"c", ValueTag.PUT, b"3"),
        ]
        assert list(live_entries(merged)) == [(b"a", b"1"), (b"c", b"3")]

    def test_interleaved_duplicates_across_streams(self):
        merged = MergingIterator(
            [
                (0, _stream([(b"a", 0, b"A0"), (b"b", 0, b"B0")])),
                (1, _stream([(b"a", 0, b"A1"), (b"c", 0, b"C1")])),
            ]
        )
        assert list(merged) == [
            (b"a", 0, b"A0"),
            (b"b", 0, b"B0"),
            (b"c", 0, b"C1"),
        ]


class _FakeMeta:
    def __init__(self, name, min_key, max_key, size=100):
        self.name = name
        self.min_key = min_key
        self.max_key = max_key
        self.file_size = size
        self.num_entries = 1

    def overlaps(self, low, high):
        return self.min_key <= high and self.max_key >= low


class _FakeReader:
    def __init__(self, meta):
        self.meta = meta


def _run(name, min_key, max_key, level=1, size=100):
    from repro.lsm.version import Run

    meta = _FakeMeta(name, min_key, max_key, size)
    run = Run(reader=_FakeReader(meta), level=level)
    return run


class TestVersion:
    def test_level0_ordering_newest_first(self):
        version = Version()
        version.add_level0(_run("old", b"a", b"z", level=0))
        version.add_level0(_run("new", b"a", b"z", level=0))
        assert [r.name for r in version.level0] == ["new", "old"]

    def test_install_level_sorts(self):
        version = Version()
        version.install_level(
            1, [_run("b", b"m", b"p"), _run("a", b"a", b"c")]
        )
        assert [r.name for r in version.levels[1]] == ["a", "b"]

    def test_install_level_rejects_overlap(self):
        version = Version()
        with pytest.raises(StoreError):
            version.install_level(
                1, [_run("a", b"a", b"m"), _run("b", b"l", b"z")]
            )

    def test_install_level_rejects_level0(self):
        with pytest.raises(StoreError):
            Version().install_level(0, [])

    def test_runs_for_range_newest_first(self):
        version = Version()
        version.add_level0(_run("l0-old", b"a", b"z", level=0))
        version.add_level0(_run("l0-new", b"a", b"z", level=0))
        version.install_level(1, [_run("l1", b"a", b"m")])
        version.install_level(2, [_run("l2", b"a", b"z")])
        names = [r.name for r in version.runs_for_range(b"b", b"c")]
        assert names == ["l0-new", "l0-old", "l1", "l2"]

    def test_runs_for_range_prunes_by_span(self):
        version = Version()
        version.install_level(1, [_run("left", b"a", b"c"), _run("right", b"x", b"z")])
        assert [r.name for r in version.runs_for_range(b"y", b"z")] == ["right"]
        assert version.runs_for_range(b"d", b"e") == []

    def test_level_size_accounting(self):
        version = Version()
        version.install_level(1, [_run("a", b"a", b"b", size=100),
                                  _run("b", b"c", b"d", size=250)])
        assert version.level_size_bytes(1) == 350
        assert version.level_size_bytes(3) == 0

    def test_max_populated_level(self):
        version = Version()
        assert version.max_populated_level() == 0
        version.install_level(3, [_run("x", b"a", b"b")])
        assert version.max_populated_level() == 3

    def test_total_files_and_describe(self):
        version = Version()
        version.add_level0(_run("0", b"a", b"b", level=0))
        version.install_level(1, [_run("1", b"c", b"d")])
        assert version.total_files() == 2
        summary = version.describe()
        assert "L0: 1 files" in summary
        assert "L1: 1 files" in summary

    def test_clear_level0(self):
        version = Version()
        version.add_level0(_run("0", b"a", b"b", level=0))
        cleared = version.clear_level0()
        assert len(cleared) == 1
        assert version.level0 == []


def _linear_runs_for_key(version, key):
    """The selection ``runs_for_key`` replaced: every run, span-checked."""
    return [run for run in version.all_runs_newest_first() if run.overlaps(key, key)]


def _k(value):
    return value.to_bytes(2, "big")


_spans = st.lists(
    st.tuples(st.integers(0, 400), st.integers(0, 40)), max_size=6
)


def _disjoint(spans, prefix, level):
    """Sorted, non-overlapping runs cut from ``spans`` (empty gaps dropped)."""
    runs, floor = [], 0
    for index, (gap, width) in enumerate(spans):
        low = floor + gap
        runs.append(_run(f"{prefix}{index}", _k(low), _k(low + width), level))
        floor = low + width + 1
    return runs


@settings(max_examples=100, deadline=None)
@given(
    level0=_spans,
    leveled=st.lists(_spans, max_size=3),
    tiered_groups=st.lists(_spans, max_size=3),
    replacement=_spans,
    probes=st.lists(st.integers(0, 3_000), min_size=1, max_size=30),
)
def test_runs_for_key_matches_linear_selection(
    level0, leveled, tiered_groups, replacement, probes
):
    version = Version()
    for index, (low, width) in enumerate(level0):
        version.add_level0(_run(f"l0-{index}", _k(low), _k(low + width), 0))
    for depth, spans in enumerate(leveled, start=1):
        version.install_level(depth, _disjoint(spans, f"L{depth}-", depth))
    tiered = len(leveled) + 1
    for group, spans in enumerate(tiered_groups):  # groups may overlap
        runs = _disjoint(spans, f"T{group}-", tiered)
        if runs:
            version.prepend_group(tiered, runs)
    keys = [_k(probe) for probe in probes]
    for key in keys:
        assert version.runs_for_key(key) == _linear_runs_for_key(version, key)
    # An edit after lookups must not serve a stale level index.
    version.install_level(1, _disjoint(replacement, "R-", 1))
    for key in keys:
        assert version.runs_for_key(key) == _linear_runs_for_key(version, key)
