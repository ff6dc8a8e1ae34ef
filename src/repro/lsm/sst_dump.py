"""SST file inspection — the ``sst_dump`` analogue.

Renders one SST file's physical layout (block map, sizes, entry counts),
its filter block's identity and memory, and optionally its entries.  Pure
read-side tooling for debugging store shapes and verifying what a
compaction actually wrote.

::

    from repro.lsm.sst_dump import dump_sst
    print(dump_sst("/path/to/store", "sst_1_00000007.sst"))
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ReproError
from repro.filters.base import deserialize_filter
from repro.lsm.block_cache import BlockCache
from repro.lsm.env import StorageEnv
from repro.lsm.format import ValueTag
from repro.lsm.options import DBOptions
from repro.lsm.sstable import SSTMeta, SSTReader

__all__ = ["SstSummary", "summarize_sst", "dump_sst"]


@dataclass
class SstSummary:
    """Structured facts about one SST file."""

    name: str
    file_size: int
    num_entries: int
    num_tombstones: int
    num_data_blocks: int
    data_bytes: int
    index_bytes: int
    filter_bytes: int
    filter_kind: str
    filter_bits_per_key: float
    min_key: bytes = b""
    max_key: bytes = b""
    block_entry_counts: list[int] = field(default_factory=list)

    @property
    def metadata_overhead(self) -> float:
        """Fraction of the file that is not data blocks."""
        if self.file_size == 0:
            return 0.0
        return 1.0 - self.data_bytes / self.file_size


def summarize_sst(
    store_path: str, name: str, options: DBOptions | None = None
) -> SstSummary:
    """Read and summarize one SST file (full scan; no caching)."""
    options = options if options is not None else DBOptions()
    env = StorageEnv(store_path, "memory")
    try:
        file_size = env.file_size(name)
        meta = SSTMeta(
            name=name, num_entries=0, min_key=b"", max_key=b"",
            file_size=file_size,
        )
        reader = SSTReader(env, meta, options, BlockCache(0))

        entries = tombstones = data_bytes = 0
        block_entry_counts: list[int] = []
        min_key = max_key = b""
        for block_index in range(reader.num_data_blocks()):
            block = reader.data_block(block_index, cacheable=False)
            decoded = block.entries()
            data_bytes += len(block)
            block_entry_counts.append(len(decoded))
            entries += len(decoded)
            tombstones += sum(1 for _, tag, _ in decoded if tag == ValueTag.DELETE)
            if decoded:
                if not min_key:
                    min_key = decoded[0][0]
                max_key = decoded[-1][0]

        filter_kind = "none"
        filter_bits_per_key = 0.0
        filter_size = reader._filter_handle.size  # noqa: SLF001
        if filter_size:
            try:
                filt = deserialize_filter(reader.filter_block_bytes())
                filter_kind = filt.name
                if entries:
                    filter_bits_per_key = filt.size_in_bits() / entries
            except ReproError:
                filter_kind = "corrupt"

        return SstSummary(
            name=name,
            file_size=file_size,
            num_entries=entries,
            num_tombstones=tombstones,
            num_data_blocks=reader.num_data_blocks(),
            data_bytes=data_bytes,
            index_bytes=reader._index_handle.size,  # noqa: SLF001
            filter_bytes=filter_size,
            filter_kind=filter_kind,
            filter_bits_per_key=filter_bits_per_key,
            min_key=min_key,
            max_key=max_key,
            block_entry_counts=block_entry_counts,
        )
    finally:
        env.close()


def dump_sst(
    store_path: str,
    name: str,
    options: DBOptions | None = None,
    show_entries: int = 0,
) -> str:
    """Human-readable report for one SST file.

    ``show_entries`` additionally prints up to that many leading entries.
    """
    summary = summarize_sst(store_path, name, options)
    lines = [
        f"SST {summary.name}: {summary.file_size} bytes",
        f"  entries:     {summary.num_entries} "
        f"({summary.num_tombstones} tombstones)",
        f"  key span:    {summary.min_key.hex()} .. {summary.max_key.hex()}",
        f"  data blocks: {summary.num_data_blocks} "
        f"({summary.data_bytes} bytes)",
        f"  index block: {summary.index_bytes} bytes",
        f"  filter:      {summary.filter_kind} ({summary.filter_bytes} bytes"
        + (
            f", {summary.filter_bits_per_key:.1f} bits/key)"
            if summary.filter_bits_per_key else ")"
        ),
        f"  metadata overhead: {summary.metadata_overhead:.1%}",
    ]
    if show_entries > 0:
        options = options if options is not None else DBOptions()
        env = StorageEnv(store_path, "memory")
        try:
            meta = SSTMeta(
                name=name, num_entries=0, min_key=b"", max_key=b"",
                file_size=env.file_size(name),
            )
            reader = SSTReader(env, meta, options, BlockCache(0))
            lines.append("  leading entries:")
            for index, (key, tag, value) in enumerate(reader.iterate_from(b"")):
                if index >= show_entries:
                    lines.append("    ...")
                    break
                label = "DEL" if tag == ValueTag.DELETE else "PUT"
                lines.append(
                    f"    {label} {key.hex()} -> {len(value)}B"
                )
        finally:
            env.close()
    return "\n".join(lines)
