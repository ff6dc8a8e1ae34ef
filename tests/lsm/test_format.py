"""Unit tests for on-disk block encodings."""

from bisect import bisect_left

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import CorruptionError
from repro.lsm.format import (
    Block,
    BlockHandle,
    DataBlockBuilder,
    ValueTag,
    decode_data_block,
    decode_index_block,
    decode_varint,
    encode_index_block,
    encode_varint,
)


class TestVarint:
    @pytest.mark.parametrize("value", [0, 1, 127, 128, 300, 2**32, 2**63 - 1])
    def test_roundtrip(self, value):
        payload = encode_varint(value)
        decoded, offset = decode_varint(payload, 0)
        assert decoded == value
        assert offset == len(payload)

    def test_compactness(self):
        assert len(encode_varint(0)) == 1
        assert len(encode_varint(127)) == 1
        assert len(encode_varint(128)) == 2

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            encode_varint(-1)

    def test_truncated(self):
        with pytest.raises(CorruptionError):
            decode_varint(b"\x80", 0)

    def test_overlong_rejected(self):
        with pytest.raises(CorruptionError):
            decode_varint(b"\x80" * 12, 0)


class TestDataBlock:
    def _entries(self, n=50):
        return [
            (f"key-{i:05d}".encode(), ValueTag.PUT, f"value-{i}".encode())
            for i in range(n)
        ]

    def test_roundtrip(self):
        builder = DataBlockBuilder(restart_interval=8)
        entries = self._entries()
        for key, tag, value in entries:
            builder.add(key, tag, value)
        decoded = decode_data_block(builder.finish())
        assert decoded == entries

    def test_prefix_compression_saves_space(self):
        shared = DataBlockBuilder(restart_interval=64)
        for key, tag, value in self._entries(200):
            shared.add(key, tag, value)
        compressed_size = len(shared.finish())
        raw_size = sum(len(k) + len(v) + 4 for k, _, v in self._entries(200))
        assert compressed_size < raw_size

    def test_tombstones_roundtrip(self):
        builder = DataBlockBuilder()
        builder.add(b"dead", ValueTag.DELETE, b"")
        builder.add(b"live", ValueTag.PUT, b"v")
        decoded = decode_data_block(builder.finish())
        assert decoded[0] == (b"dead", ValueTag.DELETE, b"")
        assert decoded[1] == (b"live", ValueTag.PUT, b"v")

    def test_out_of_order_rejected(self):
        builder = DataBlockBuilder()
        builder.add(b"b", ValueTag.PUT, b"")
        with pytest.raises(ValueError):
            builder.add(b"a", ValueTag.PUT, b"")
        with pytest.raises(ValueError):
            builder.add(b"b", ValueTag.PUT, b"")  # duplicates too

    def test_checksum_detects_corruption(self):
        builder = DataBlockBuilder()
        builder.add(b"k", ValueTag.PUT, b"v")
        payload = bytearray(builder.finish())
        payload[0] ^= 0xFF
        with pytest.raises(CorruptionError):
            decode_data_block(bytes(payload))

    def test_too_small_rejected(self):
        with pytest.raises(CorruptionError):
            decode_data_block(b"tiny")

    def test_restart_interval_one(self):
        builder = DataBlockBuilder(restart_interval=1)
        entries = self._entries(10)
        for key, tag, value in entries:
            builder.add(key, tag, value)
        assert decode_data_block(builder.finish()) == entries

    def test_size_estimate_tracks_growth(self):
        builder = DataBlockBuilder()
        initial = builder.size_estimate()
        builder.add(b"abcdef", ValueTag.PUT, b"x" * 100)
        assert builder.size_estimate() > initial + 100


class TestIndexBlock:
    def test_roundtrip(self):
        entries = [
            (b"key-a", BlockHandle(0, 100)),
            (b"key-b", BlockHandle(100, 250)),
            (b"key-z", BlockHandle(350, 17)),
        ]
        decoded = decode_index_block(encode_index_block(entries))
        assert decoded == entries

    def test_empty(self):
        assert decode_index_block(encode_index_block([])) == []

    def test_checksum_detects_corruption(self):
        payload = bytearray(encode_index_block([(b"k", BlockHandle(0, 5))]))
        payload[4] ^= 0x01
        with pytest.raises(CorruptionError):
            decode_index_block(bytes(payload))

    def test_block_handle_roundtrip(self):
        handle = BlockHandle(123456789, 987)
        assert BlockHandle.from_bytes(handle.to_bytes()) == handle


@settings(max_examples=100)
@given(
    entries=st.lists(
        st.tuples(
            st.binary(min_size=1, max_size=12),
            st.sampled_from([ValueTag.PUT, ValueTag.DELETE]),
            st.binary(max_size=30),
        ),
        min_size=1,
        max_size=60,
        unique_by=lambda e: e[0],
    ),
    restart=st.integers(min_value=1, max_value=20),
)
def test_property_data_block_roundtrip(entries, restart):
    entries = sorted(entries, key=lambda e: e[0])
    builder = DataBlockBuilder(restart_interval=restart)
    for key, tag, value in entries:
        builder.add(key, tag, value)
    assert decode_data_block(builder.finish()) == entries


@st.composite
def _block_entries(draw):
    """Sorted entries whose keys share a prefix of up to 160 bytes.

    Prefixes past 127 bytes and values past 127 bytes take the multi-byte
    varint paths; empty values and tombstones are common.
    """
    prefix = draw(st.binary(max_size=160))
    suffixes = draw(
        st.lists(st.binary(min_size=1, max_size=4), min_size=1, max_size=80, unique=True)
    )
    keys = sorted(prefix + suffix for suffix in suffixes)
    values = st.one_of(
        st.just(b""), st.binary(max_size=8), st.binary(min_size=120, max_size=160)
    )
    tags = st.sampled_from([ValueTag.PUT, ValueTag.DELETE])
    return [(key, draw(tags), draw(values)) for key in keys]


def _probe_keys(keys, extra):
    """Keys before the first entry, on and between entries, after the last."""
    probes = {b"", keys[0][:-1], keys[-1] + b"\xff", *extra}
    for key in keys:
        probes.update((key, key + b"\x00", key[:-1] + b"\xff"))
    return sorted(probes)


@settings(max_examples=150, deadline=None)
@given(
    entries=_block_entries(),
    restart=st.sampled_from([1, 2, 16, 64]),
    extra=st.lists(st.binary(max_size=170), max_size=8),
)
def test_property_block_seek_matches_full_decode(entries, restart, extra):
    builder = DataBlockBuilder(restart_interval=restart)
    for key, tag, value in entries:
        builder.add(key, tag, value)
    payload = builder.finish()
    decoded = decode_data_block(payload)
    assert decoded == entries
    keys = [key for key, _, _ in decoded]
    block = Block(payload)
    assert len(block) == len(payload)
    assert list(block) == decoded
    for probe in _probe_keys(keys, extra):
        at = bisect_left(keys, probe)
        expected = decoded[at][1:] if at < len(keys) and keys[at] == probe else None
        assert block.get(probe) == expected
        assert list(block.entries_from(probe)) == decoded[at:]


@settings(max_examples=150, deadline=None)
@given(
    entries=_block_entries(),
    restart=st.sampled_from([1, 2, 16, 64]),
    data=st.data(),
)
def test_property_block_rejects_any_byte_flip(entries, restart, data):
    builder = DataBlockBuilder(restart_interval=restart)
    for key, tag, value in entries:
        builder.add(key, tag, value)
    payload = bytearray(builder.finish())
    position = data.draw(st.integers(min_value=0, max_value=len(payload) - 1))
    payload[position] ^= data.draw(st.integers(min_value=1, max_value=255))
    with pytest.raises(CorruptionError):
        Block(bytes(payload))
