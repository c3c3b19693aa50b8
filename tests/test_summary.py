"""Tests for segment summary blocks."""

import pytest

from repro.core.constants import BlockKind
from repro.core.errors import CorruptionError, InvalidOperationError, TrimmedBlockError
from repro.core.summary import (
    AHEAD,
    END,
    ROT,
    WRITE,
    SegmentSummary,
    SummaryEntry,
    summary_capacity,
    try_parse_summary,
    walk_segment,
)


def make_summary(n=3, seq=10):
    entries = [SummaryEntry(kind=BlockKind.DATA, inum=i + 1, offset=i, version=2) for i in range(n)]
    return SegmentSummary(seq=seq, write_time=1.0, youngest_mtime=0.5, entries=entries,
                          next_segment=7)


class TestPackUnpack:
    def test_roundtrip(self):
        s = make_summary()
        payloads = [b"a" * 4096, b"b" * 4096, b"c" * 4096]
        raw = s.pack(payloads, 4096)
        got = SegmentSummary.unpack(raw, 4096)
        assert got.seq == 10
        assert got.next_segment == 7
        assert got.youngest_mtime == 0.5
        assert [e.inum for e in got.entries] == [1, 2, 3]
        assert got.verify(payloads)

    def test_crc_detects_payload_change(self):
        s = make_summary(1)
        raw = s.pack([b"a" * 4096], 4096)
        got = SegmentSummary.unpack(raw, 4096)
        assert not got.verify([b"b" * 4096])

    def test_crc_detects_missing_payload(self):
        s = make_summary(2)
        raw = s.pack([b"a" * 4096, b"b" * 4096], 4096)
        got = SegmentSummary.unpack(raw, 4096)
        assert not got.verify([b"a" * 4096])

    def test_mismatched_entry_count_rejected(self):
        with pytest.raises(InvalidOperationError):
            make_summary(2).pack([b"a"], 4096)

    def test_capacity_enforced(self):
        cap = summary_capacity(4096)
        s = make_summary(cap + 1)
        with pytest.raises(InvalidOperationError):
            s.pack([b"x"] * (cap + 1), 4096)

    def test_bad_magic_rejected(self):
        raw = bytearray(make_summary().pack([b"", b"", b""], 4096))
        raw[0] = 0
        with pytest.raises(CorruptionError):
            SegmentSummary.unpack(bytes(raw), 4096)

    def test_bad_kind_rejected(self):
        s = make_summary(1)
        raw = bytearray(s.pack([b""], 4096))
        raw[48] = 200  # first entry's kind byte
        with pytest.raises(CorruptionError):
            SegmentSummary.unpack(bytes(raw), 4096)

    def test_zero_entries(self):
        s = SegmentSummary(seq=1, write_time=0.0)
        raw = s.pack([], 4096)
        got = SegmentSummary.unpack(raw, 4096)
        assert got.entries == []

    def test_capacity_value(self):
        assert summary_capacity(4096) == (4096 - 48) // 32
        assert summary_capacity(1024) == (1024 - 48) // 32


class TestTryParse:
    def test_garbage_returns_none(self):
        assert try_parse_summary(b"\x00" * 4096, 4096) is None

    def test_valid_parses(self):
        raw = make_summary(1).pack([b"x" * 4096], 4096)
        assert try_parse_summary(raw, 4096) is not None

    def test_random_data_block_rarely_parses(self):
        # a data block full of text must not look like a summary
        assert try_parse_summary(b"hello world " * 341, 4096) is None


# ----------------------------------------------------------------------
# the current-epoch walk every summary reader shares

BS = 512
SEG = 12  # blocks per hand-built segment
START = 100  # the segment's first block address


def build_segment(writes, rotted=()):
    """Blocks by address: ``writes`` maps offset -> (seq, entries); each
    offset in ``rotted`` has its summary block overwritten with garbage."""
    blocks = {START + off: bytes(BS) for off in range(SEG)}
    for off, (seq, n) in writes.items():
        payloads = [bytes([off + i + 1]) * BS for i in range(n)]
        blocks[START + off] = make_summary(n=n, seq=seq).pack(payloads, BS)
        for i, payload in enumerate(payloads):
            if off + 1 + i < SEG:
                blocks[START + off + 1 + i] = payload
    for off in rotted:
        blocks[START + off] = b"\xde\xad" * (BS // 2)
    return blocks


EPOCH = {0: (10, 2), 3: (11, 1), 5: (12, 2)}

WALK_CASES = {
    # residue from the segment's previous life carries a lower seq
    "stale-residue-ends-the-epoch": (
        {0: (10, 2), 3: (11, 1), 5: (4, 2)}, (), (), None,
        [(WRITE, 0), (WRITE, 3), (END, 5)],
    ),
    "residue-is-no-resume-target": (
        {0: (10, 2), 3: (11, 1), 5: (4, 2)}, (3,), (), None,
        [(WRITE, 0), (END, 3)],
    ),
    "rotted-summary-resumes-at-next-write": (
        EPOCH, (3,), (), None,
        [(WRITE, 0), (ROT, 3, 5), (WRITE, 5), (END, 8)],
    ),
    "rotted-last-summary-ends-the-log": (
        EPOCH, (5,), (), None,
        [(WRITE, 0), (WRITE, 3), (END, 5)],
    ),
    "write-at-bound-is-ahead": (
        EPOCH, (), (), 12,
        [(WRITE, 0), (WRITE, 3), (AHEAD, 5)],
    ),
    "write-beyond-bound-is-ahead": (
        {0: (10, 2), 3: (40, 1)}, (), (), 12,
        [(WRITE, 0), (AHEAD, 3)],
    ),
    "no-resume-beyond-bound": (
        EPOCH, (3,), (), 12,
        [(WRITE, 0), (END, 3)],
    ),
    "overrunning-write-ends-the-log": (
        {0: (10, 2), 3: (11, 9)}, (), (), None,
        [(WRITE, 0), (END, 3)],
    ),
    "overrunning-write-is-no-resume-target": (
        {0: (10, 2), 10: (11, 3)}, (), (), None,
        [(WRITE, 0), (END, 3)],
    ),
    "unreadable-summary-resumes-at-next-write": (
        EPOCH, (), (3,), None,
        [(WRITE, 0), (ROT, 3, 5), (WRITE, 5), (END, 8)],
    ),
    "unreadable-last-summary-ends-the-log": (
        EPOCH, (), (5,), None,
        [(WRITE, 0), (WRITE, 3), (END, 5)],
    ),
    "full-segment-runs-off-the-end": (
        {0: (10, 5), 6: (11, 5)}, (), (), None,
        [(WRITE, 0), (WRITE, 6)],
    ),
}


def _steps(walk):
    return [
        (kind, offset, resume) if kind == ROT else (kind, offset)
        for kind, offset, _, _, resume in walk
    ]


class TestWalkSegment:
    @pytest.mark.parametrize(
        "writes, rotted, unreadable, below, expected",
        list(WALK_CASES.values()),
        ids=list(WALK_CASES),
    )
    def test_walk_contract(self, writes, rotted, unreadable, below, expected):
        blocks = build_segment(writes, rotted)

        def read(addr):
            return None if addr - START in unreadable else blocks[addr]

        walk = walk_segment(read, blocks.__getitem__, START, SEG, BS, below=below)
        assert _steps(walk) == expected

    def test_write_steps_carry_the_summary_and_its_block(self):
        blocks = build_segment(EPOCH)
        walk = walk_segment(blocks.__getitem__, blocks.__getitem__, START, SEG, BS)
        writes = [(summary.seq, raw) for kind, _, summary, raw, _ in walk if kind == WRITE]
        assert writes == [(seq, blocks[START + o]) for o, (seq, _) in EPOCH.items()]

    def test_trimmed_summary_block_ends_the_log(self):
        blocks = build_segment(EPOCH)

        def read(addr):
            if addr == START + 3:
                raise TrimmedBlockError("trimmed", addr=addr, op="read")
            return blocks[addr]

        walk = walk_segment(read, blocks.__getitem__, START, SEG, BS)
        assert _steps(walk) == [(WRITE, 0), (END, 3)]

    @pytest.mark.parametrize("stop, reads", [(None, [0, 11]), (SEG - 1, [0])])
    def test_reads_only_candidate_summaries_below_stop(self, stop, reads):
        """Only the blocks that could lead a write are read (the charged
        path); the search past a failed block peeks."""
        blocks = build_segment({0: (10, 10)})
        seen = []

        def read(addr):
            seen.append(addr - START)
            return blocks[addr]

        list(walk_segment(read, blocks.__getitem__, START, SEG, BS, stop=stop))
        assert seen == reads
