"""Tests for the offline checker (lfsck) and the log inspector."""

import pytest

from repro.core.filesystem import LFS
from repro.disk.device import Disk
from repro.disk.geometry import DiskGeometry
from repro.tools.dumplog import dump_checkpoints, dump_segment, dump_superblock
from repro.tools.lfsck import check_filesystem

from tests.conftest import small_config


@pytest.fixture
def populated(disk):
    fs = LFS.format(disk, small_config())
    fs.mkdir("/d")
    fs.write_file("/d/a", b"alpha" * 1000)
    fs.write_file("/d/b", b"beta" * 4000)
    fs.write_file("/top", b"top")
    fs.link("/top", "/d/top-link")
    fs.checkpoint()
    return fs


class TestLfsckClean:
    def test_fresh_filesystem_clean(self, disk):
        fs = LFS.format(disk, small_config())
        fs.checkpoint()
        report = check_filesystem(disk)
        assert report.ok, report.render()

    def test_populated_filesystem_clean(self, populated):
        report = check_filesystem(populated.disk)
        assert report.ok, report.render()
        assert report.live_inodes == 5  # root, /d, a, b, top
        assert report.live_blocks > 4

    def test_after_churn_and_cleaning(self, disk):
        fs = LFS.format(disk, small_config())
        for r in range(8):
            for i in range(50):
                fs.write_file(f"/f{i}", bytes([r + i & 0xFF]) * 9000)
            for i in range(0, 50, 3):
                if fs.exists(f"/f{i}"):
                    fs.unlink(f"/f{i}")
        fs.clean_now(fs.usage.clean_count + 3)
        fs.checkpoint()
        report = check_filesystem(disk)
        assert report.ok, report.render()

    def test_after_crash_recovery(self, populated):
        disk = populated.disk
        populated.write_file("/d/late", b"post checkpoint")
        populated.sync()
        populated.crash()
        disk.power_on()
        LFS.mount(disk, small_config())
        report = check_filesystem(disk)
        assert report.ok, report.render()

    def test_check_does_not_advance_time(self, populated):
        t = populated.disk.clock.now
        check_filesystem(populated.disk)
        assert populated.disk.clock.now == t


class TestLfsckDetectsCorruption:
    def test_blank_disk(self):
        disk = Disk(DiskGeometry.wren4(num_blocks=4096))
        report = check_filesystem(disk)
        assert not report.ok

    def test_clobbered_superblock(self, populated):
        disk = populated.disk
        disk.corrupt_block(0, bytes(4096))
        report = check_filesystem(disk)
        assert not report.ok
        assert any("superblock" in e for e in report.errors)

    def test_clobbered_inode_block(self, populated):
        disk = populated.disk
        inum = populated.stat("/d/a").inum
        addr = populated.imap.get(inum).addr
        disk.corrupt_block(addr, bytes(4096))
        report = check_filesystem(disk)
        assert not report.ok

    def test_clobbered_both_checkpoints(self, populated):
        disk = populated.disk
        layout = populated.layout
        for start in (layout.checkpoint_a, layout.checkpoint_b):
            for i in range(layout.checkpoint_blocks):
                disk.corrupt_block(start + i, bytes(4096))
        report = check_filesystem(disk)
        assert not report.ok
        assert any("checkpoint" in e for e in report.errors)


class TestDumplog:
    def test_superblock_dump(self, populated):
        out = dump_superblock(populated.disk)
        assert "segment size" in out
        assert str(populated.config.segment_bytes) in out

    def test_checkpoint_dump(self, populated):
        out = dump_checkpoints(populated.disk)
        assert "checkpoint A" in out and "checkpoint B" in out
        assert "seq=" in out

    def test_segment_dump_shows_summaries(self, populated):
        seg = populated.writer.current_segment
        out = dump_segment(populated.disk, 0)
        assert "summary seq=" in out or "no valid summaries" in out
        # the very first segment holds the mkfs writes
        assert "segment 0" in out

    def test_segment_dump_out_of_range(self, populated):
        assert "out of range" in dump_segment(populated.disk, 10 ** 6)

    def test_dump_is_time_free(self, populated):
        t = populated.disk.clock.now
        dump_superblock(populated.disk)
        dump_checkpoints(populated.disk)
        dump_segment(populated.disk, 0)
        assert populated.disk.clock.now == t

    def test_segment_dump_stops_at_the_epoch_boundary(self, disk):
        """A reused segment's residue from its previous life is not listed:
        the dump walks the current epoch only, so its seqs strictly rise."""
        fs = LFS.format(disk, small_config())
        for rnd in range(12):
            size = 9000 if rnd % 2 else 2000
            for i in range(50):
                fs.write_file(f"/f{i}", bytes([rnd]) * size)
            for i in range(0, 50, 3):
                fs.unlink(f"/f{i}")
            fs.clean_now(fs.usage.clean_count + 3)
        fs.checkpoint()
        for seg in range(fs.layout.num_segments):
            out = dump_segment(disk, seg)
            seqs = [int(tok[4:]) for tok in out.split() if tok.startswith("seq=")]
            assert seqs == sorted(set(seqs)), f"segment {seg}: {seqs}"
