"""Tests for the core LFS file operations."""

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.core.constants import NULL_ADDR, ROOT_INUM, BlockKind, FileType
from repro.core.dirlog import pack_records
from repro.core.errors import (
    DirectoryNotEmptyError,
    FileExistsLFSError,
    FileNotFoundLFSError,
    InvalidOperationError,
    IsADirectoryError_,
    NoSpaceError,
    NotADirectoryError_,
    NotMountedError,
)
from repro.core.filesystem import LFS
from repro.core.inode import inodes_per_block
from repro.disk.device import Disk
from repro.disk.geometry import DiskGeometry
from repro.tools.lfsck import check_filesystem

from tests.conftest import small_config


class TestCreateReadWrite:
    def test_write_read_roundtrip(self, fs):
        fs.write_file("/a", b"hello world")
        assert fs.read("/a") == b"hello world"

    def test_empty_file(self, fs):
        fs.create("/empty")
        assert fs.read("/empty") == b""
        assert fs.stat("/empty").size == 0

    def test_create_duplicate_rejected(self, fs):
        fs.create("/a")
        with pytest.raises(FileExistsLFSError):
            fs.create("/a")

    def test_multi_block_file(self, fs):
        data = bytes(range(256)) * 64  # 16 KB
        fs.write_file("/big", data)
        assert fs.read("/big") == data

    def test_overwrite_middle(self, fs):
        fs.write_file("/f", b"a" * 10000)
        fs.write("/f", b"XYZ", offset=5000)
        got = fs.read("/f")
        assert got[5000:5003] == b"XYZ"
        assert got[:5000] == b"a" * 5000
        assert len(got) == 10000

    def test_append(self, fs):
        fs.write_file("/f", b"head")
        fs.append("/f", b"+tail")
        assert fs.read("/f") == b"head+tail"

    def test_partial_read(self, fs):
        fs.write_file("/f", b"0123456789")
        assert fs.read("/f", offset=3, length=4) == b"3456"

    def test_read_past_eof(self, fs):
        fs.write_file("/f", b"short")
        assert fs.read("/f", offset=100) == b""
        assert fs.read("/f", offset=3, length=100) == b"rt"

    def test_sparse_write_reads_zeros(self, fs):
        inum = fs.create("/sparse")
        fs.write_inum(inum, b"end", 20000)
        got = fs.read("/sparse")
        assert len(got) == 20003
        assert got[:20000] == bytes(20000)
        assert got[20000:] == b"end"

    def test_write_file_replaces_content(self, fs):
        fs.write_file("/f", b"old content that is long")
        fs.write_file("/f", b"new")
        assert fs.read("/f") == b"new"

    def test_negative_offset_rejected(self, fs):
        fs.create("/f")
        with pytest.raises(InvalidOperationError):
            fs.write("/f", b"x", offset=-1)

    def test_write_to_directory_rejected(self, fs):
        fs.mkdir("/d")
        inum = fs.stat("/d").inum
        with pytest.raises(IsADirectoryError_):
            fs.write_inum(inum, b"x")

    def test_stat_fields(self, fs):
        fs.write_file("/f", b"12345")
        st = fs.stat("/f")
        assert st.size == 5
        assert st.nlink == 1
        assert st.ftype == FileType.REGULAR
        assert not st.is_directory


class TestDirectories:
    def test_mkdir_and_readdir(self, fs):
        fs.mkdir("/d")
        fs.write_file("/d/x", b"1")
        fs.write_file("/d/y", b"2")
        assert fs.readdir("/d") == ["x", "y"]

    def test_nested_directories(self, fs):
        fs.mkdir("/a")
        fs.mkdir("/a/b")
        fs.mkdir("/a/b/c")
        fs.write_file("/a/b/c/deep", b"down here")
        assert fs.read("/a/b/c/deep") == b"down here"

    def test_root_listing(self, fs):
        fs.write_file("/one", b"")
        fs.mkdir("/two")
        assert fs.readdir("/") == ["one", "two"]

    def test_readdir_file_rejected(self, fs):
        fs.write_file("/f", b"")
        with pytest.raises(NotADirectoryError_):
            fs.readdir("/f")

    def test_lookup_through_file_rejected(self, fs):
        fs.write_file("/f", b"")
        with pytest.raises(NotADirectoryError_):
            fs.read("/f/child")

    def test_missing_component(self, fs):
        with pytest.raises(FileNotFoundLFSError):
            fs.read("/no/such/path")

    def test_relative_path_rejected(self, fs):
        with pytest.raises(InvalidOperationError):
            fs.create("relative")

    def test_many_entries_one_directory(self, fs):
        for i in range(300):
            fs.create(f"/f{i:03}")
        assert len(fs.readdir("/")) == 300
        assert fs.exists("/f123")

    def test_exists(self, fs):
        assert not fs.exists("/nope")
        fs.create("/yes")
        assert fs.exists("/yes")
        assert fs.exists("/")


class TestDelete:
    def test_unlink_removes(self, fs):
        fs.write_file("/f", b"bye")
        fs.unlink("/f")
        assert not fs.exists("/f")
        with pytest.raises(FileNotFoundLFSError):
            fs.read("/f")

    def test_unlink_missing_raises(self, fs):
        with pytest.raises(FileNotFoundLFSError):
            fs.unlink("/ghost")

    def test_rmdir_empty(self, fs):
        fs.mkdir("/d")
        fs.rmdir("/d")
        assert not fs.exists("/d")

    def test_rmdir_nonempty_rejected(self, fs):
        fs.mkdir("/d")
        fs.write_file("/d/f", b"x")
        with pytest.raises(DirectoryNotEmptyError):
            fs.rmdir("/d")

    def test_rmdir_on_file_rejected(self, fs):
        fs.write_file("/f", b"")
        with pytest.raises(NotADirectoryError_):
            fs.rmdir("/f")

    def test_delete_frees_space(self, fs):
        fs.write_file("/f", b"x" * 100000)
        fs.sync()
        live_before = fs.usage.total_live_bytes()
        fs.unlink("/f")
        assert fs.usage.total_live_bytes() < live_before - 90000

    def test_inum_reuse_bumps_version(self, fs):
        fs.write_file("/a", b"first")
        v1 = fs.stat("/a").version
        inum1 = fs.stat("/a").inum
        fs.unlink("/a")
        fs.write_file("/b", b"second")
        # if the inum got reused, the uid (version) must differ
        if fs.stat("/b").inum == inum1:
            assert fs.stat("/b").version > v1


class TestTruncate:
    def test_truncate_to_zero(self, fs):
        fs.write_file("/f", b"data" * 100)
        fs.truncate("/f", 0)
        assert fs.read("/f") == b""
        assert fs.stat("/f").size == 0

    def test_truncate_bumps_version(self, fs):
        fs.write_file("/f", b"data")
        v0 = fs.stat("/f").version
        fs.truncate("/f", 0)
        assert fs.stat("/f").version == v0 + 1

    def test_partial_truncate(self, fs):
        fs.write_file("/f", b"0123456789" * 1000)
        fs.truncate("/f", 5)
        assert fs.read("/f") == b"01234"

    def test_truncate_grow_rejected(self, fs):
        fs.write_file("/f", b"abc")
        with pytest.raises(InvalidOperationError):
            fs.truncate("/f", 10)

    def test_truncate_directory_rejected(self, fs):
        fs.mkdir("/d")
        with pytest.raises(IsADirectoryError_):
            fs.truncate("/d", 0)


class TestRenameAndLink:
    def test_rename_same_dir(self, fs):
        fs.write_file("/old", b"content")
        fs.rename("/old", "/new")
        assert not fs.exists("/old")
        assert fs.read("/new") == b"content"

    def test_rename_across_dirs(self, fs):
        fs.mkdir("/a")
        fs.mkdir("/b")
        fs.write_file("/a/f", b"x")
        fs.rename("/a/f", "/b/g")
        assert fs.read("/b/g") == b"x"
        assert fs.readdir("/a") == []

    def test_rename_replaces_target(self, fs):
        fs.write_file("/src", b"src")
        fs.write_file("/dst", b"dst")
        fs.rename("/src", "/dst")
        assert fs.read("/dst") == b"src"
        assert not fs.exists("/src")

    def test_rename_onto_nonempty_dir_rejected(self, fs):
        fs.write_file("/f", b"")
        fs.mkdir("/d")
        fs.write_file("/d/x", b"")
        with pytest.raises(DirectoryNotEmptyError):
            fs.rename("/f", "/d")

    def test_rename_missing_source(self, fs):
        with pytest.raises(FileNotFoundLFSError):
            fs.rename("/ghost", "/new")

    def test_rename_directory(self, fs):
        fs.mkdir("/d")
        fs.write_file("/d/f", b"inside")
        fs.rename("/d", "/e")
        assert fs.read("/e/f") == b"inside"

    def test_link_shares_content(self, fs):
        fs.write_file("/a", b"shared")
        fs.link("/a", "/b")
        assert fs.read("/b") == b"shared"
        assert fs.stat("/a").nlink == 2
        assert fs.stat("/a").inum == fs.stat("/b").inum

    def test_unlink_one_of_two_links(self, fs):
        fs.write_file("/a", b"keep")
        fs.link("/a", "/b")
        fs.unlink("/a")
        assert fs.read("/b") == b"keep"
        assert fs.stat("/b").nlink == 1

    def test_link_to_directory_rejected(self, fs):
        fs.mkdir("/d")
        with pytest.raises(IsADirectoryError_):
            fs.link("/d", "/d2")


class TestMountState:
    def test_unmounted_ops_rejected(self, fs):
        fs.unmount()
        with pytest.raises(NotMountedError):
            fs.create("/x")
        with pytest.raises(NotMountedError):
            fs.read("/")

    def test_root_inum(self, fs):
        assert fs.stat("/").inum == ROOT_INUM
        assert fs.stat("/").is_directory


# ----------------------------------------------------------------------
# flush cost: the dirty-filemap set


def kib_fs(**overrides):
    """A 16 MB LFS with 1 KB blocks, so files reach the single- and
    double-indirect ranges (past block 10 and block 138) while small."""
    disk = Disk(DiskGeometry.wren4(block_size=1024, num_blocks=16384))
    cfg = small_config(block_size=1024, segment_bytes=64 * 1024, **overrides)
    return disk, LFS.format(disk, cfg)


def full_scan_items(fs, *, include_meta, cleaning=False):
    """The flush item sequence, computed the old way: every cached
    FileMap visited in inum order, dirty or not. Each item is
    (kind, inum, offset, version, mtime)."""
    bs = fs.config.block_size
    now = fs.disk.clock.now
    out = [(BlockKind.DIROP_LOG, 0, 0, 0, now)] * len(
        pack_records(fs._pending_dirops, bs) if fs._pending_dirops else []
    )
    dirty = fs.cache.dirty_blocks()
    if cleaning and fs.config.age_sort:
        dirty.sort(key=lambda t: (t[2].mtime, t[0], t[1]))
    for inum, fbn, entry in dirty:
        fs.filemap(inum).ensure_structures(fbn)  # idempotent
        out.append((BlockKind.DATA, inum, fbn, fs.imap.version_of(inum), entry.mtime))
    doubles = []
    for inum, fmap in sorted(fs._filemaps.items()):
        version = fs.imap.version_of(inum)
        mtime = fmap.inode.mtime
        for child_idx in sorted(fmap.dirty_children):
            out.append((BlockKind.INDIRECT, inum, 1 + child_idx, version, mtime))
        if fmap.l1_dirty:
            out.append((BlockKind.INDIRECT, inum, 0, version, mtime))
        if fmap.l2_dirty or (fmap.dirty_children and fmap.inode.dindirect == NULL_ADDR):
            doubles.append((BlockKind.DINDIRECT, inum, 0, version, mtime))
    out += doubles
    inums = sorted(fs._dirty_inodes)
    per = inodes_per_block(bs)
    for start in range(0, len(inums), per):
        group = inums[start : start + per]
        out.append((BlockKind.INODE, group[0], 0, 0, max(fs._inodes[i].mtime for i in group)))
    if include_meta:
        out += [(BlockKind.INODE_MAP, 0, i, 0, now) for i in fs.imap.dirty_block_indexes()]
        out += [(BlockKind.SEG_USAGE, 0, i, 0, now) for i in fs.usage.dirty_block_indexes()]
    return out


def check_every_flush_against_full_scan(fs, flushes):
    """Make every flush of ``fs`` (explicit, threshold, cleaner or
    checkpoint) assert it built exactly the full scan's items."""
    build = fs._build_flush_items

    def checked(*, include_meta, cleaning=False):
        expected = full_scan_items(fs, include_meta=include_meta, cleaning=cleaning)
        items = build(include_meta=include_meta, cleaning=cleaning)
        got = [(i.kind, i.inum, i.offset, i.version, i.mtime) for i in items]
        assert got == expected
        flushes.append(len(items))
        return items

    fs._build_flush_items = checked


def assert_dirty_set_invariant(fs):
    dirty = {inum for inum, fmap in fs._filemaps.items() if fmap.dirty}
    assert dirty <= fs._dirty_filemaps <= fs._filemaps.keys()
    assert fs.usage.clean_count == sum(s.clean for s in fs.usage._segments)


FILES = 3
_op = st.one_of(
    # start block: direct, single-indirect, the single/double boundary, and
    # the first and second double-indirect children (which start at 138
    # and 266)
    st.tuples(st.just("write"), st.integers(0, FILES - 1),
              st.sampled_from([0, 6, 60, 134, 150, 270]), st.integers(1, 12)),
    st.tuples(st.just("truncate"), st.integers(0, FILES - 1),
              st.sampled_from([0, 5, 12, 100, 140, 266])),
    st.tuples(st.just("delete"), st.integers(0, FILES - 1)),
    st.sampled_from([("flush",), ("clean",), ("checkpoint",), ("crash",)]),
)


class TestDirtyFilemapSet:
    @settings(
        max_examples=40,
        deadline=None,
        derandomize=True,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(script=st.lists(_op, min_size=1, max_size=30))
    # a truncate that dirties one double-indirect child, then flushes
    @example([("write", 0, 134, 12), ("flush",), ("truncate", 0, 140), ("flush",)])
    # a map dirtied by truncate, deleted before any flush writes it
    @example([("write", 0, 60, 12), ("flush",), ("truncate", 0, 12), ("delete", 0),
              ("write", 1, 0, 3), ("flush",)])
    # freeing an on-disk child that maps no data dirties only the
    # double-indirect block (the second flush writes the L2 that the
    # first one's child placement re-dirtied)
    @example([("write", 0, 300, 4), ("flush",), ("truncate", 0, 280), ("flush",),
              ("flush",), ("truncate", 0, 266), ("flush",)])
    # dirty maps lost in a crash, then rebuilt by roll-forward and cleaning
    @example([("write", 1, 150, 12), ("flush",), ("truncate", 1, 100), ("crash",),
              ("write", 1, 6, 12), ("clean",), ("checkpoint",)])
    def test_flush_matches_full_scan_oracle(self, script):
        disk, fs = kib_fs(write_buffer_blocks=48)
        flushes = []
        check_every_flush_against_full_scan(fs, flushes)
        bs = fs.config.block_size
        for op in script:
            name = op[0]
            if name == "write":
                _, f, start, nblocks = op
                path = f"/f{f}"
                if not fs.exists(path):
                    fs.create(path)
                fs.write(path, bytes([start % 251 + 1]) * (nblocks * bs), offset=start * bs)
            elif name == "truncate":
                _, f, keep = op
                if fs.exists(f"/f{f}"):
                    size = fs.stat(f"/f{f}").size
                    fs.truncate(f"/f{f}", min(size, keep * bs))
            elif name == "delete":
                if fs.exists(f"/f{op[1]}"):
                    fs.unlink(f"/f{op[1]}")
            elif name == "flush":
                fs.flush()
            elif name == "clean":
                fs.clean_now(fs.usage.clean_count + 2)
            elif name == "checkpoint":
                fs.checkpoint()
            else:
                fs.crash()
                fs = LFS.mount(disk)
                check_every_flush_against_full_scan(fs, flushes)
            assert_dirty_set_invariant(fs)
        fs.unmount()
        assert not fs._dirty_filemaps
        assert check_filesystem(disk).ok

    def test_flush_work_tracks_dirty_files_not_cached_files(self):
        """Flush cost must not grow with the number of cached files."""
        disk, fs = kib_fs(max_inodes=4096, write_buffer_blocks=256, cache_blocks=8192)
        for i in range(2000):
            fs.write_file(f"/c{i}", b"clean")
        fs.checkpoint()
        assert len(fs._filemaps) >= 2000
        assert not fs._dirty_filemaps

        fs.write_file("/hot", b"h" * (30 * fs.config.block_size))  # direct + L1
        dirty_blocks = fs.cache.dirty_count
        dirty_files = len({inum for inum, _, _ in fs.cache.dirty_blocks()})
        version_of = fs.imap.version_of
        calls = []

        def counting(inum):
            calls.append(inum)
            return version_of(inum)

        fs.imap.version_of = counting
        fs.flush()
        # one lookup per dirty data block plus one per dirty filemap, and
        # no term for the 2,000 clean files
        assert 0 < len(calls) <= dirty_blocks + dirty_files
        assert not fs._dirty_filemaps

    def test_append_failing_part_way_keeps_unplaced_filemaps(self):
        disk, fs = kib_fs(write_buffer_blocks=1024)
        bs = fs.config.block_size
        old = bytes(range(256)) * 4 * 150  # 150 blocks: direct, L1 and one L2 child
        fs.write_file("/old", old)
        fs.flush()
        # A map with a dirty indirect block and no dirty data: only the
        # set remembers it.
        fs.truncate("/old", 100 * bs)
        new = bytes(range(255, -1, -1)) * 4 * 150
        fs.write_file("/new", new)
        inums = [fs.stat(p).inum for p in ("/old", "/new")]
        writer = fs.writer
        advance = writer._advance_segment

        def log_full():
            raise NoSpaceError("no clean segments left for the log")

        # The flush fills the open segment, then finds no successor: the
        # data placed so far is on disk, the indirect blocks are not.
        writer._advance_segment = log_full
        with pytest.raises(NoSpaceError):
            fs.flush()
        writer._advance_segment = advance
        old_map, new_map = (fs._filemaps[i] for i in inums)
        assert old_map.l1_dirty
        assert new_map.l1_dirty and new_map.dirty_children and new_map.l2_dirty
        assert fs._dirty_filemaps >= set(inums)
        assert 0 < fs.cache.dirty_count < 150

        fs.flush()
        assert not old_map.dirty and not new_map.dirty and not fs._dirty_filemaps
        fs.unmount()
        assert check_filesystem(disk).ok
        remounted = LFS.mount(disk)
        assert remounted.read("/old") == old[: 100 * bs]
        assert remounted.read("/new") == new

    def test_cleaner_revives_indirect_block_with_no_dirty_data(self):
        disk, fs = kib_fs()
        bs = fs.config.block_size
        data = bytes(range(256)) * 4 * 20  # 20 blocks: direct and single-indirect
        fs.write_file("/f", data)
        fs.write_file("/filler", b"f" * (80 * bs))  # move the log past /f's data
        fs.checkpoint()
        fs.truncate("/f", 15 * bs)  # rewrites the L1 alone
        fs.checkpoint()
        fmap = fs._filemaps[fs.stat("/f").inum]
        seg = fs.layout.segment_of(fmap.inode.indirect)
        assert all(fs.layout.segment_of(fmap.get(fbn)) != seg for fbn in range(15))
        fs.write_file("/filler", b"g" * (80 * bs))  # seal the L1's segment
        fs.checkpoint()
        assert seg not in fs.writer.open_segments()

        fs._in_cleaner = True
        fs.writer.exempt = True
        try:
            fs.cleaner._clean_pass([seg])
        finally:
            fs._in_cleaner = False
            fs.writer.exempt = False
        assert fs.layout.segment_of(fmap.inode.indirect) != seg
        assert not fs._dirty_filemaps
        fs.unmount()
        assert check_filesystem(disk).ok
        assert LFS.mount(disk).read("/f") == data[: 15 * bs]
