"""dumplog — human-readable inspection of an LFS disk image.

A debugfs-style viewer: prints the superblock, both checkpoint regions,
and the summary chain of any segment, straight from on-disk bytes (via
``peek``, so inspection never advances simulated time).
"""

from __future__ import annotations

from repro.core.checkpoint import read_checkpoint
from repro.core.constants import NO_SEGMENT, NULL_ADDR, BlockKind
from repro.core.errors import CorruptionError
from repro.core.summary import ROT, WRITE, walk_segment
from repro.core.superblock import Superblock
from repro.disk.device import Disk
from repro.tools.lfsck import PeekView


def dump_superblock(disk: Disk) -> str:
    """Render the superblock."""
    try:
        sb = Superblock.from_bytes(disk.peek(0))
    except CorruptionError as exc:
        return f"superblock: INVALID ({exc})"
    return (
        "superblock:\n"
        f"  block size      {sb.block_size}\n"
        f"  segment size    {sb.segment_bytes} ({sb.segment_bytes // sb.block_size} blocks)\n"
        f"  segments        {sb.num_segments} starting at block {sb.segment_area_start}\n"
        f"  max inodes      {sb.max_inodes}\n"
        f"  checkpoints     A@{sb.checkpoint_a} B@{sb.checkpoint_b} "
        f"({sb.checkpoint_blocks} blocks each)"
    )


def dump_checkpoints(disk: Disk) -> str:
    """Render both checkpoint regions."""
    try:
        sb = Superblock.from_bytes(disk.peek(0))
    except CorruptionError as exc:
        return f"superblock: INVALID ({exc})"
    layout = sb.layout()
    view = PeekView(disk)
    parts = []
    for label, region_b in (("A", False), ("B", True)):
        try:
            cp = read_checkpoint(view, layout, region_b=region_b)
        except CorruptionError as exc:
            parts.append(f"checkpoint {label}: invalid ({exc})")
            continue
        nxt = "-" if cp.next_segment == NO_SEGMENT else cp.next_segment
        imap_blocks = sum(1 for a in cp.imap_addrs if a != NULL_ADDR)
        parts.append(
            f"checkpoint {label}: seq={cp.seq} time={cp.timestamp:.3f} "
            f"log_seq={cp.log_seq} tail=seg{cp.tail_segment}+{cp.tail_offset} "
            f"next={nxt} imap_blocks={imap_blocks} usage_blocks={len(cp.usage_addrs)}"
        )
    return "\n".join(parts)


def dump_segment(disk: Disk, seg_no: int, *, max_entries: int = 8) -> str:
    """Render the current epoch's summary chain of one segment."""
    try:
        sb = Superblock.from_bytes(disk.peek(0))
    except CorruptionError as exc:
        return f"superblock: INVALID ({exc})"
    layout = sb.layout()
    if seg_no < 0 or seg_no >= layout.num_segments:
        return f"segment {seg_no}: out of range (0..{layout.num_segments - 1})"
    start = layout.segment_start(seg_no)
    seg_blocks = layout.segment_blocks
    lines = [f"segment {seg_no} (blocks {start}..{start + seg_blocks - 1}):"]
    found = 0
    walk = walk_segment(disk.peek, disk.peek, start, seg_blocks, sb.block_size)
    for kind, offset, summary, _, resume in walk:
        if kind == ROT:
            lines.append(
                f"  +{offset:4}: unparseable (rotted summary?), resuming at +{resume}"
            )
            continue
        if kind != WRITE:
            break
        found += 1
        nxt = "-" if summary.next_segment == NO_SEGMENT else summary.next_segment
        lines.append(
            f"  +{offset:4}: summary seq={summary.seq} t={summary.write_time:.3f} "
            f"{len(summary.entries)} blocks, next_seg={nxt}"
        )
        for i, entry in enumerate(summary.entries[:max_entries]):
            lines.append(
                f"         [{i}] {BlockKind(entry.kind).name.lower():10} "
                f"inum={entry.inum} off={entry.offset} v={entry.version}"
            )
        if len(summary.entries) > max_entries:
            lines.append(f"         ... {len(summary.entries) - max_entries} more")
    if not found:
        lines.append("  (no valid summaries — clean or never written)")
    return "\n".join(lines)
