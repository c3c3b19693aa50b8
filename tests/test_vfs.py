"""Tests for the file-handle (VFS) layer over both file systems."""

import pytest

from repro.core.errors import (
    FileNotFoundLFSError,
    InvalidOperationError,
    IsADirectoryError_,
    NotADirectoryError_,
)
from repro.core.filesystem import LFS
from repro.disk.device import Disk
from repro.disk.geometry import DiskGeometry
from repro.ffs.filesystem import FFS, FFSConfig
from repro.tools.lfsck import check_filesystem
from repro.vfs import FileSystemView

from tests.conftest import small_config


def make_lfs_view():
    disk = Disk(DiskGeometry.wren4(num_blocks=4096))
    return FileSystemView(LFS.format(disk, small_config()))


def make_ffs_view():
    disk = Disk(DiskGeometry.wren4(block_size=8192, num_blocks=2048))
    return FileSystemView(FFS.format(disk, FFSConfig(max_inodes=1024)))


@pytest.fixture(params=["lfs", "ffs"])
def vfs(request):
    return make_lfs_view() if request.param == "lfs" else make_ffs_view()


class TestOpenModes:
    def test_write_then_read(self, vfs):
        with vfs.open("/f", "w") as fh:
            fh.write(b"hello")
        with vfs.open("/f") as fh:
            assert fh.read() == b"hello"

    def test_r_requires_existing(self, vfs):
        with pytest.raises(FileNotFoundLFSError):
            vfs.open("/missing", "r")

    def test_w_truncates(self, vfs):
        with vfs.open("/f", "w") as fh:
            fh.write(b"long old content")
        with vfs.open("/f", "w") as fh:
            fh.write(b"new")
        with vfs.open("/f") as fh:
            assert fh.read() == b"new"

    def test_append_mode(self, vfs):
        with vfs.open("/log", "a") as fh:
            fh.write(b"one\n")
        with vfs.open("/log", "a") as fh:
            fh.write(b"two\n")
        with vfs.open("/log") as fh:
            assert fh.read() == b"one\ntwo\n"

    def test_append_always_writes_at_end(self, vfs):
        with vfs.open("/f", "w") as fh:
            fh.write(b"base")
        with vfs.open("/f", "a") as fh:
            fh.seek(0)
            fh.write(b"+tail")  # append mode ignores the seek for writes
        with vfs.open("/f") as fh:
            assert fh.read() == b"base+tail"

    def test_rplus_reads_and_writes(self, vfs):
        with vfs.open("/f", "w") as fh:
            fh.write(b"0123456789")
        with vfs.open("/f", "r+") as fh:
            fh.seek(4)
            fh.write(b"XY")
            fh.seek(0)
            assert fh.read() == b"0123XY6789"

    def test_bad_mode(self, vfs):
        with pytest.raises(InvalidOperationError):
            vfs.open("/f", "wb")

    def test_read_on_write_only_rejected(self, vfs):
        with vfs.open("/f", "w") as fh:
            with pytest.raises(InvalidOperationError):
                fh.read()

    def test_write_on_read_only_rejected(self, vfs):
        with vfs.open("/f", "w") as fh:
            fh.write(b"x")
        with vfs.open("/f", "r") as fh:
            with pytest.raises(InvalidOperationError):
                fh.write(b"y")


class TestSeekTell:
    def test_tell_tracks_reads(self, vfs):
        with vfs.open("/f", "w") as fh:
            fh.write(b"abcdef")
        with vfs.open("/f") as fh:
            fh.read(2)
            assert fh.tell() == 2

    def test_seek_whences(self, vfs):
        with vfs.open("/f", "w") as fh:
            fh.write(b"0123456789")
        with vfs.open("/f") as fh:
            assert fh.seek(3) == 3
            assert fh.seek(2, whence=1) == 5
            assert fh.seek(-4, whence=2) == 6
            assert fh.read() == b"6789"

    def test_negative_seek_rejected(self, vfs):
        with vfs.open("/f", "w") as fh:
            with pytest.raises(InvalidOperationError):
                fh.seek(-1)

    def test_sparse_write_via_seek(self, vfs):
        with vfs.open("/f", "r+" if vfs.exists("/f") else "w") as fh:
            fh.seek(10000)
            fh.write(b"end")
        with vfs.open("/f") as fh:
            data = fh.read()
            assert data[10000:] == b"end"
            assert data[:10000] == bytes(10000)


class TestHandleLifecycle:
    def test_closed_handle_rejects_io(self, vfs):
        fh = vfs.open("/f", "w")
        fh.close()
        assert fh.closed
        with pytest.raises(InvalidOperationError):
            fh.write(b"x")

    def test_double_close_raises(self, vfs):
        fh = vfs.open("/f", "w")
        fh.close()
        with pytest.raises(InvalidOperationError):
            fh.close()

    def test_close_all(self, vfs):
        handles = [vfs.open(f"/h{i}", "w") for i in range(3)]
        vfs.close_all()
        assert all(h.closed for h in handles)

    def test_truncate_via_handle(self, vfs):
        with vfs.open("/f", "w") as fh:
            fh.write(b"0123456789")
        with vfs.open("/f", "r+") as fh:
            fh.seek(4)
            fh.truncate()
            fh.seek(0)
            assert fh.read() == b"0123"

    def test_line_iteration(self, vfs):
        with vfs.open("/lines", "w") as fh:
            fh.write(b"a\nbb\nccc")
        with vfs.open("/lines") as fh:
            assert list(fh) == [b"a\n", b"bb\n", b"ccc"]

    def test_flush_makes_durable_on_lfs(self):
        vfs = make_lfs_view()
        with vfs.open("/d", "w") as fh:
            fh.write(b"durable")
            fh.flush()
        fs = vfs.fs
        disk = fs.disk
        fs.crash()
        disk.power_on()
        fs2 = LFS.mount(disk, small_config())
        assert fs2.read("/d") == b"durable"


class TestViewHelpers:
    def test_listdir_remove_mkdir_rename(self, vfs):
        vfs.mkdir("/d")
        with vfs.open("/d/x", "w") as fh:
            fh.write(b"1")
        assert vfs.listdir("/d") == ["x"]
        vfs.rename("/d/x", "/d/y")
        assert vfs.listdir("/d") == ["y"]
        vfs.remove("/d/y")
        assert vfs.listdir("/d") == []


class TestRenameChecks:
    """rename(2)'s refusals, which both file systems share."""

    def _tree(self, vfs):
        vfs.mkdir("/a")
        vfs.mkdir("/a/b")
        with vfs.open("/a/b/data", "w") as fh:
            fh.write(b"kept")

    def test_directory_into_own_subtree_rejected(self, vfs):
        self._tree(vfs)
        with pytest.raises(InvalidOperationError):
            vfs.rename("/a", "/a/b/c")
        assert vfs.listdir("/") == ["a"]
        with vfs.open("/a/b/data") as fh:
            assert fh.read() == b"kept"

    def test_subtree_rename_leaves_lfs_image_clean(self):
        vfs = make_lfs_view()
        self._tree(vfs)
        with pytest.raises(InvalidOperationError):
            vfs.rename("/a", "/a/b/c")
        vfs.fs.unmount()
        report = check_filesystem(vfs.fs.disk)
        assert report.ok, report.errors

    def test_file_and_directory_do_not_replace_each_other(self, vfs):
        vfs.mkdir("/d")
        vfs.open("/f", "w").close()
        with pytest.raises(IsADirectoryError_):
            vfs.rename("/f", "/d")
        with pytest.raises(NotADirectoryError_):
            vfs.rename("/d", "/f")
        assert vfs.listdir("/") == ["d", "f"]
        assert vfs.fs.stat("/d").is_directory
        assert not vfs.fs.stat("/f").is_directory
