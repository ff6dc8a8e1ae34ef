"""On-disk block encodings for SST files (RocksDB-style).

Data blocks use restart-point prefix compression: within a block, each
entry stores how many key bytes it shares with its predecessor, and every
``restart_interval`` entries a *restart point* stores the full key so a
reader can binary-search restart points and scan forward.  Blocks end with
the restart offset array, its length, and a CRC32 checksum.

Entries carry a one-byte value tag distinguishing puts from deletion
tombstones — the merge machinery needs tombstones to shadow older values
until they reach the bottom level.

Index blocks map each data block's *last key* to its (offset, size); the
in-memory form of an index block is exactly the paper's fence pointers.
"""

from __future__ import annotations

import re
import struct
import zlib
from bisect import bisect_right
from typing import Iterator, NamedTuple

from repro.errors import CorruptionError

__all__ = [
    "ValueTag",
    "BlockHandle",
    "encode_varint",
    "decode_varint",
    "DataBlockBuilder",
    "Block",
    "decode_data_block",
    "encode_index_block",
    "decode_index_block",
    "sst_file_number",
]

#: ``sst_<level>_<number>.sst`` — the number is allocation order.  The
#: compaction picker uses it as run age; per-SST filter salting mixes it
#: into the store's ``filter_salt_seed`` so every rebuild re-keys.
_SST_NUMBER = re.compile(r"^sst_\d+_(\d+)\.sst$")


def sst_file_number(name: str) -> int:
    """Allocation number embedded in an SST file name (0 if unparsable)."""
    match = _SST_NUMBER.match(name)
    return int(match.group(1)) if match else 0


class ValueTag:
    """One-byte entry type tags."""

    PUT = 0
    DELETE = 1


class BlockHandle(NamedTuple):
    """Location of a block within an SST file."""

    offset: int
    size: int

    def to_bytes(self) -> bytes:
        return struct.pack("<QQ", self.offset, self.size)

    @classmethod
    def from_bytes(cls, payload: bytes) -> "BlockHandle":
        offset, size = struct.unpack("<QQ", payload[:16])
        return cls(offset, size)


def encode_varint(value: int) -> bytes:
    """LEB128 unsigned varint."""
    if value < 0:
        raise ValueError(f"varints are unsigned, got {value}")
    out = bytearray()
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return bytes(out)


def decode_varint(payload: bytes, offset: int) -> tuple[int, int]:
    """Decode a varint at ``offset``; returns (value, next_offset)."""
    value = 0
    shift = 0
    while True:
        if offset >= len(payload):
            raise CorruptionError("truncated varint")
        byte = payload[offset]
        offset += 1
        value |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return value, offset
        shift += 7
        if shift > 63:
            raise CorruptionError("varint too long")


class DataBlockBuilder:
    """Accumulates sorted entries into one prefix-compressed data block."""

    def __init__(self, restart_interval: int = 16) -> None:
        if restart_interval < 1:
            raise ValueError("restart_interval must be >= 1")
        self._restart_interval = restart_interval
        self._buffer = bytearray()
        self._restarts: list[int] = []
        self._entries_since_restart = 0
        self._last_key = b""
        self.num_entries = 0

    def add(self, key: bytes, tag: int, value: bytes) -> None:
        """Append an entry; keys must arrive in strictly increasing order."""
        if self.num_entries and key <= self._last_key:
            raise ValueError("data block keys must be strictly increasing")
        if self._entries_since_restart % self._restart_interval == 0:
            self._restarts.append(len(self._buffer))
            shared = 0
            self._entries_since_restart = 0
        else:
            shared = _shared_prefix_len(self._last_key, key)
        unshared = key[shared:]
        self._buffer += encode_varint(shared)
        self._buffer += encode_varint(len(unshared))
        self._buffer += encode_varint(len(value))
        self._buffer.append(tag)
        self._buffer += unshared
        self._buffer += value
        self._last_key = key
        self._entries_since_restart += 1
        self.num_entries += 1

    def size_estimate(self) -> int:
        """Bytes the finished block will occupy (approximately)."""
        return len(self._buffer) + 4 * len(self._restarts) + 12

    def finish(self) -> bytes:
        """Seal the block: body + restart array + counts + CRC32."""
        out = bytearray(self._buffer)
        for restart in self._restarts:
            out += struct.pack("<I", restart)
        out += struct.pack("<I", len(self._restarts))
        out += struct.pack("<I", self.num_entries)
        out += struct.pack("<I", zlib.crc32(bytes(out)))
        return bytes(out)


class Block:
    """One CRC-verified data block, parsed on demand.

    Construction is the block's only integrity check: it verifies the
    CRC32 and the restart array and decodes the full key stored at every
    restart point (one key per ``restart_interval`` entries).  The object
    is immutable afterwards, so the block cache hands the same instance to
    every reader and a cache hit pays no re-verification.

    :meth:`get` binary-searches the restart keys and parses at most one
    restart interval; :meth:`entries_from` starts at the restart point at
    or before its seek key and decodes lazily; ``len(block)`` is the
    on-disk payload size, which is what the block cache charges.
    """

    __slots__ = ("_payload", "_limit", "_restarts", "_restart_keys", "num_entries")

    def __init__(self, payload: bytes) -> None:
        if len(payload) < 16:
            raise CorruptionError("data block too small")
        crc_at = len(payload) - 4
        (crc,) = struct.unpack_from("<I", payload, crc_at)
        if zlib.crc32(memoryview(payload)[:crc_at]) != crc:
            raise CorruptionError("data block checksum mismatch")
        num_restarts, num_entries = struct.unpack_from("<II", payload, crc_at - 8)
        limit = crc_at - 8 - 4 * num_restarts
        if limit < 0:
            raise CorruptionError("data block restart array overflow")
        restarts = struct.unpack_from(f"<{num_restarts}I", payload, limit)
        if (num_restarts == 0) != (limit == 0) or (restarts and restarts[0] != 0):
            raise CorruptionError("data block restart array malformed")
        restart_keys = []
        for at, end in zip(restarts, restarts[1:] + (limit,)):
            # A restart entry shares nothing: a zero byte, then the key
            # and value lengths, the tag, and the whole key.
            if at >= end or payload[at]:
                raise CorruptionError("data block restart entry malformed")
            key_len = payload[at + 1]
            at += 2
            if key_len >= 0x80:
                key_len, at = decode_varint(payload, at - 1)
            while payload[at] >= 0x80:  # skip the value length
                at += 1
            at += 2
            if at + key_len > end:
                raise CorruptionError("data block restart entry malformed")
            restart_keys.append(payload[at : at + key_len])
        self._payload = payload
        self._limit = limit
        self._restarts = restarts
        self._restart_keys = restart_keys
        self.num_entries = num_entries

    def __len__(self) -> int:
        return len(self._payload)

    def __iter__(self) -> Iterator[tuple[bytes, int, bytes]]:
        return self._decode(0)

    def get(self, key: bytes) -> tuple[int, bytes] | None:
        """``(tag, value)`` of ``key``, or None; parses one restart interval."""
        index = bisect_right(self._restart_keys, key) - 1
        if index < 0:
            return None
        end = (
            self._restarts[index + 1]
            if index + 1 < len(self._restarts)
            else self._limit
        )
        for entry_key, tag, value in self._decode(self._restarts[index], end):
            if entry_key >= key:
                return (tag, value) if entry_key == key else None
        return None

    def entries_from(self, key: bytes) -> Iterator[tuple[bytes, int, bytes]]:
        """Entries with key >= ``key``, in order, decoded lazily."""
        index = bisect_right(self._restart_keys, key) - 1
        entries = self._decode(self._restarts[index] if index > 0 else 0)
        for entry in entries:
            if entry[0] >= key:
                yield entry
                break
        yield from entries

    def entries(self) -> list[tuple[bytes, int, bytes]]:
        """Every entry, checked against the block's advertised count."""
        entries = list(self._decode(0))
        if len(entries) != self.num_entries:
            raise CorruptionError(
                f"data block advertised {self.num_entries} entries, "
                f"decoded {len(entries)}"
            )
        return entries

    def _decode(
        self, offset: int, end: int | None = None
    ) -> Iterator[tuple[bytes, int, bytes]]:
        """Decode entries from the restart point at ``offset`` up to ``end``.

        One-byte varints (every length below 128) are read inline; longer
        ones fall back to :func:`decode_varint`.
        """
        payload = self._payload
        end = self._limit if end is None else end
        last_key = b""
        while offset < end:
            shared = payload[offset]
            if shared < 0x80:
                offset += 1
            else:
                shared, offset = decode_varint(payload, offset)
            key_len = payload[offset]
            if key_len < 0x80:
                offset += 1
            else:
                key_len, offset = decode_varint(payload, offset)
            value_len = payload[offset]
            if value_len < 0x80:
                offset += 1
            else:
                value_len, offset = decode_varint(payload, offset)
            tag = payload[offset]
            offset += 1
            key_end = offset + key_len
            key = (
                last_key[:shared] + payload[offset:key_end]
                if shared
                else payload[offset:key_end]
            )
            offset = key_end + value_len
            yield key, tag, payload[key_end:offset]
            last_key = key
        if offset != end:
            raise CorruptionError("data block entry overruns its region")


def decode_data_block(payload: bytes) -> list[tuple[bytes, int, bytes]]:
    """Decode a data block into ``[(key, tag, value), ...]``.

    Verifies the trailing CRC32 and the advertised entry count, and
    reconstructs prefix-compressed keys (see :class:`Block`).
    """
    return Block(payload).entries()


def encode_index_block(
    entries: list[tuple[bytes, BlockHandle]]
) -> bytes:
    """Encode fence pointers: (last key of block, handle) per data block."""
    out = bytearray(struct.pack("<I", len(entries)))
    for key, handle in entries:
        out += encode_varint(len(key))
        out += key
        out += handle.to_bytes()
    out += struct.pack("<I", zlib.crc32(bytes(out)))
    return bytes(out)


def decode_index_block(payload: bytes) -> list[tuple[bytes, BlockHandle]]:
    """Decode :func:`encode_index_block` output (checksum-verified)."""
    if len(payload) < 8:
        raise CorruptionError("index block too small")
    body, crc_bytes = payload[:-4], payload[-4:]
    if zlib.crc32(body) != struct.unpack("<I", crc_bytes)[0]:
        raise CorruptionError("index block checksum mismatch")
    (count,) = struct.unpack("<I", body[:4])
    offset = 4
    entries: list[tuple[bytes, BlockHandle]] = []
    for _ in range(count):
        key_len, offset = decode_varint(body, offset)
        key = body[offset : offset + key_len]
        offset += key_len
        handle = BlockHandle.from_bytes(body[offset : offset + 16])
        offset += 16
        entries.append((key, handle))
    return entries


def _shared_prefix_len(a: bytes, b: bytes) -> int:
    limit = min(len(a), len(b))
    for index in range(limit):
        if a[index] != b[index]:
            return index
    return limit
