"""Segment summary blocks (Section 3.2).

Each partial-segment write is led by a summary block identifying every
block in the write: its kind, owning file, position within the file, and
the file's uid version. Summaries serve the cleaner (liveness without a
bitmap) and roll-forward (finding recently written inodes). A CRC over the
described payloads makes a torn partial write self-invalidating.
"""

from __future__ import annotations

import struct
from collections.abc import Callable, Iterator
from dataclasses import dataclass, field

from repro.core.blocks import checksum, require
from repro.core.constants import (
    SUMMARY_ENTRY_SIZE,
    SUMMARY_HEADER_SIZE,
    SUMMARY_MAGIC,
    BlockKind,
)
from repro.core.errors import CorruptionError, InvalidOperationError, TrimmedBlockError

# magic, self_crc, seq, write_time, nentries, crc, youngest_mtime,
# next_segment — ``self_crc`` covers the whole summary block (with the
# field itself zeroed) and lives in former pad bytes, so the header keeps
# its size. It makes rot *inside* the summary — entry identities, the
# payload CRC, the threading pointer — detectable, which payload CRCs
# alone cannot see. Zero means "unwritten" (pre-CRC images), and such
# summaries are accepted unchecked for backward compatibility.
_HEADER = struct.Struct("<IIQdIIdQ")
assert _HEADER.size == SUMMARY_HEADER_SIZE
_MAGIC = struct.pack("<I", SUMMARY_MAGIC)  # a summary block's first bytes

# kind, pad, block_crc, inum, offset, version — the per-block CRC lives in
# what used to be pad bytes, so the entry (and the whole summary) keeps its
# size and the log's timing is untouched by read-path integrity checking.
_ENTRY = struct.Struct("<B3xIQQQ")
assert _ENTRY.size == SUMMARY_ENTRY_SIZE


def summary_capacity(block_size: int) -> int:
    """Maximum blocks one summary block can describe."""
    return (block_size - SUMMARY_HEADER_SIZE) // SUMMARY_ENTRY_SIZE


@dataclass(frozen=True)
class SummaryEntry:
    """Identity of one block within a partial-segment write.

    ``offset`` is the block's position within its owning structure: the
    file block number for data, the logical index for indirect blocks, the
    map/table block index for inode-map and usage blocks, zero otherwise.
    ``version`` is the owning file's uid version at write time (zero for
    structures without one). ``block_crc`` is the CRC-32 of the described
    block's payload, letting reads and the scrubber verify each block
    individually (silent bit-rot becomes a detected error).
    """

    kind: BlockKind
    inum: int = 0
    offset: int = 0
    version: int = 0
    block_crc: int = 0

    def pack(self) -> bytes:
        return _ENTRY.pack(
            int(self.kind), self.block_crc, self.inum, self.offset, self.version
        )

    @classmethod
    def unpack(cls, raw: bytes, pos: int) -> "SummaryEntry":
        kind_raw, block_crc, inum, offset, version = _ENTRY.unpack_from(raw, pos)
        try:
            kind = BlockKind(kind_raw)
        except ValueError as exc:
            raise CorruptionError(f"bad block kind {kind_raw} in summary") from exc
        return cls(
            kind=kind, inum=inum, offset=offset, version=version, block_crc=block_crc
        )


@dataclass
class SegmentSummary:
    """A parsed (or to-be-written) segment summary.

    Attributes:
        seq: globally monotonic partial-write sequence number; recovery
            orders partial writes by it.
        write_time: simulated time of the write.
        youngest_mtime: modification time of the youngest block in the
            write (Section 3.6's age estimate for cost-benefit cleaning).
        entries: one per described block, in on-disk order; the described
            blocks immediately follow the summary block.
        crc: CRC-32 over the described payloads (filled by ``pack``).
        next_segment: the segment the log continues into after the current
            one fills — the paper's segment-by-segment threading, which
            lets roll-forward follow the log without scanning the disk.
            ``NO_SEGMENT`` when the writer has no reserved successor.
    """

    seq: int
    write_time: float
    youngest_mtime: float = 0.0
    entries: list[SummaryEntry] = field(default_factory=list)
    crc: int = 0
    next_segment: int = 0xFFFFFFFFFFFFFFFF

    def pack(self, payloads: list[bytes], block_size: int) -> bytes:
        """Serialize the summary, computing the CRC over ``payloads``.

        Entries are written as given: the log writer builds each one with
        its payload's ``block_crc`` already set (an entry left at zero is
        accepted unchecked by every reader).
        """
        if len(payloads) != len(self.entries):
            raise InvalidOperationError(
                f"{len(self.entries)} entries describe {len(payloads)} payloads"
            )
        if len(self.entries) > summary_capacity(block_size):
            raise InvalidOperationError(
                f"{len(self.entries)} entries exceed summary capacity "
                f"{summary_capacity(block_size)}"
            )
        self.crc = checksum(payloads)
        body = b"".join(e.pack() for e in self.entries)

        def header(self_crc: int) -> bytes:
            return _HEADER.pack(
                SUMMARY_MAGIC,
                self_crc,
                self.seq,
                self.write_time,
                len(self.entries),
                self.crc,
                self.youngest_mtime,
                self.next_segment,
            )

        # Self-CRC over the final block contents with the field zeroed.
        block = (header(0) + body).ljust(block_size, b"\0")
        return header(checksum([block])) + block[_HEADER.size :]

    @classmethod
    def unpack(cls, payload: bytes, block_size: int) -> "SegmentSummary":
        """Parse a summary block; raises :class:`CorruptionError` if invalid."""
        require(len(payload) >= SUMMARY_HEADER_SIZE, "summary block truncated")
        (
            magic,
            self_crc,
            seq,
            write_time,
            nentries,
            crc,
            youngest,
            next_segment,
        ) = _HEADER.unpack_from(payload, 0)
        require(magic == SUMMARY_MAGIC, "bad summary magic")
        if self_crc:
            zeroed = payload[:4] + b"\0\0\0\0" + payload[8:]
            require(
                checksum([zeroed]) == self_crc,
                "summary block fails its self-CRC (bit-rot inside the summary)",
            )
        require(0 <= nentries <= summary_capacity(block_size), "summary entry count out of range")
        entries = []
        pos = SUMMARY_HEADER_SIZE
        require(
            len(payload) >= SUMMARY_HEADER_SIZE + nentries * SUMMARY_ENTRY_SIZE,
            "summary entries truncated",
        )
        for _ in range(nentries):
            entries.append(SummaryEntry.unpack(payload, pos))
            pos += SUMMARY_ENTRY_SIZE
        return cls(
            seq=seq,
            write_time=write_time,
            youngest_mtime=youngest,
            entries=entries,
            crc=crc,
            next_segment=next_segment,
        )

    def verify(self, payloads: list[bytes]) -> bool:
        """True if ``payloads`` match the recorded CRC (torn-write check)."""
        return len(payloads) == len(self.entries) and checksum(payloads) == self.crc


def try_parse_summary(payload: bytes, block_size: int) -> SegmentSummary | None:
    """Parse a block as a summary, returning None when it is not one."""
    if payload[:4] != _MAGIC:
        return None  # most blocks a walk searches: no exception to raise
    try:
        return SegmentSummary.unpack(payload, block_size)
    except CorruptionError:
        return None


#: Step kinds of :func:`walk_segment`: a current-epoch write; a failed
#: block with a later current-epoch write to resume at (rot); the
#: segment's log ending at a block; a valid write from beyond the live
#: writer's cursor.
WRITE, ROT, END, AHEAD = "write", "rot", "end", "ahead"

_NO_BOUND = 1 << 64  # above every 64-bit seq


def walk_segment(
    read: Callable[[int], bytes | None],
    peek: Callable[[int], bytes],
    start: int,
    seg_blocks: int,
    block_size: int,
    *,
    below: int | None = None,
    stop: int | None = None,
) -> Iterator[tuple[str, int, SegmentSummary | None, bytes | None, int]]:
    """Walk the current epoch of the segment at block ``start``.

    Yields ``(kind, offset, summary, raw, resume)`` steps. ``offset`` is
    the step's block within the segment; ``summary`` and ``raw`` (its
    block's bytes) are set for ``WRITE``; ``resume`` is the offset a
    ``ROT`` step picks up at.

    A reused segment holds its current epoch's writes contiguously from
    offset 0, with strictly increasing seqs, followed by residue from
    earlier lives. Seqs are global and never reused, so that residue
    always carries a lower seq than the epoch's last write: the walk
    starts at offset 0 with previous seq 0, and a block leads a write
    only if it parses, its ``seq`` exceeds the previous one, it is below
    ``below`` (the live writer's next seq, when there is one) and the
    write fits in the segment.

    A failed block is either rot or the end of the log. ``peek`` (never
    charged) locates the next summary that would lead a write; a hit
    yields ``ROT`` and the walk resumes there, a miss yields ``END``. A
    block that fails only the ``below`` bound is a write the cursor has
    not replayed yet: ``AHEAD`` ends the walk without a search.

    ``read`` fetches each candidate summary block (the caller's choice of
    charged or free), returning None when the block is unreadable; a
    :class:`TrimmedBlockError` from it ends the log (nothing was
    programmed there this epoch). Offsets from ``stop`` (default
    ``seg_blocks``) on are neither read nor searched. ``END`` and
    ``AHEAD`` are yielded only when the walk stops short of ``stop``.
    """
    hi = _NO_BOUND if below is None else below
    stop = seg_blocks if stop is None else stop
    offset = 0
    prev = 0
    while offset < stop:
        try:
            raw = read(start + offset)
        except TrimmedBlockError:
            yield END, offset, None, None, 0
            return
        summary = try_parse_summary(raw, block_size) if raw is not None else None
        if (
            summary is not None
            and summary.seq > prev
            and offset + 1 + len(summary.entries) <= seg_blocks
        ):
            if summary.seq >= hi:
                yield AHEAD, offset, None, None, 0
                return
            yield WRITE, offset, summary, raw, 0
            prev = summary.seq
            offset += 1 + len(summary.entries)
            continue
        for off in range(offset + 1, stop):
            cand = try_parse_summary(peek(start + off), block_size)
            if (
                cand is not None
                and prev < cand.seq < hi
                and off + 1 + len(cand.entries) <= seg_blocks
            ):
                yield ROT, offset, None, None, off
                offset = off
                break
        else:
            yield END, offset, None, None, 0
            return
