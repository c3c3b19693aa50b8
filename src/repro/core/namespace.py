"""The UNIX namespace that Sprite LFS and the FFS baseline share.

The paper's Section 5.1 runs the same benchmarks on both systems, and
only the I/O pattern under the namespace is meant to differ: LFS logs
directory operations and buffers everything in the cache, FFS writes
inodes and directory blocks synchronously in place. Path resolution,
the in-memory directory images and the byte-range read/write facade are
therefore written once, here, as the base class of both.

A subclass provides the storage:

- ``get_inode(inum)`` and ``_read_data_block(inum, fbn)`` fetch state,
  charging whatever reads its layout needs;
- ``_block_written(inum, fbn, start, end)``: a cached block just took the
  new bytes ``[start, end)``;
- ``_dir_block_changed(dir_inum, block_idx, state)``: one directory
  block gained or lost an entry;
- ``_after_op()``: per-operation housekeeping (counts, write-back);
- ``sync()``;

and the attributes ``config.block_size``, ``disk``, ``cache``, ``stats``
(with ``reads`` and ``writes``) and ``_dir_states``. The guards
``_require_mounted``/``_require_writable`` and the read hook
``_accessed`` do nothing unless the subclass overrides them.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core import directory as dirfmt
from repro.core.constants import ROOT_INUM, FileType
from repro.core.directory import DirState
from repro.core.errors import (
    DirectoryNotEmptyError,
    FileExistsLFSError,
    FileNotFoundLFSError,
    InvalidOperationError,
    IsADirectoryError_,
    NotADirectoryError_,
)
from repro.core.inode import Inode


@dataclass
class StatResult:
    """Metadata returned by :meth:`Namespace.stat`."""

    inum: int
    ftype: FileType
    size: int
    nlink: int
    mtime: float
    version: int

    @property
    def is_directory(self) -> bool:
        return self.ftype == FileType.DIRECTORY


class Namespace:
    """Paths, directories and byte-range I/O over a subclass's storage."""

    _dir_states: dict[int, DirState]

    def _require_mounted(self) -> None:
        """Raise when the file system cannot serve calls."""

    def _require_writable(self) -> None:
        """Raise when the file system cannot take mutations."""

    def _accessed(self, inum: int) -> None:
        """A read of ``inum`` returned data."""

    # ==================================================================
    # path resolution

    @staticmethod
    def _split_path(path: str) -> list[str]:
        if not path.startswith("/"):
            raise InvalidOperationError(f"path {path!r} must be absolute")
        return [part for part in path.split("/") if part]

    def _resolve(self, path: str) -> int:
        """Path -> inode number; raises if any component is missing."""
        inum = ROOT_INUM
        for part in self._split_path(path):
            inode = self.get_inode(inum)
            if not inode.is_directory:
                raise NotADirectoryError_(f"{part!r} looked up under a non-directory")
            child = self._dir_state(inum).lookup(part)
            if child is None:
                raise FileNotFoundLFSError(f"path {path!r}: component {part!r} not found")
            inum = child
        return inum

    def _resolve_parent(self, path: str) -> tuple[int, str]:
        """Path -> (parent directory inum, final component name)."""
        parts = self._split_path(path)
        if not parts:
            raise InvalidOperationError("the root directory has no parent")
        parent = self._resolve("/" + "/".join(parts[:-1]))
        if not self.get_inode(parent).is_directory:
            raise NotADirectoryError_(f"parent of {path!r} is not a directory")
        return parent, parts[-1]

    def exists(self, path: str) -> bool:
        """True if ``path`` names a file or directory."""
        self._require_mounted()
        try:
            self._resolve(path)
            return True
        except (FileNotFoundLFSError, NotADirectoryError_):
            return False

    # ==================================================================
    # directory state

    def _dir_state(self, inum: int) -> DirState:
        state = self._dir_states.get(inum)
        if state is not None:
            return state
        inode = self.get_inode(inum)
        if not inode.is_directory:
            raise NotADirectoryError_(f"inode {inum} is not a directory")
        blocks = [
            dirfmt.parse_block(self._read_data_block(inum, fbn))
            for fbn in range(inode.nblocks(self.config.block_size))
        ]
        state = DirState(blocks)
        self._dir_states[inum] = state
        return state

    def _dir_insert(self, dir_inum: int, name: str, file_inum: int) -> None:
        state = self._dir_state(dir_inum)
        block_idx = state.insert(name, file_inum, self.config.block_size)
        self._dir_block_changed(dir_inum, block_idx, state)

    def _dir_remove(self, dir_inum: int, name: str) -> int:
        state = self._dir_state(dir_inum)
        inum, block_idx = state.remove(name)
        self._dir_block_changed(dir_inum, block_idx, state)
        return inum

    def _new_entry(self, path: str) -> tuple[int, str]:
        """(parent, name) for a name ``path`` may take; raises if taken."""
        parent, name = self._resolve_parent(path)
        dirfmt.validate_name(name)
        if self._dir_state(parent).lookup(name) is not None:
            raise FileExistsLFSError(f"{path!r} already exists")
        return parent, name

    def _removable_entry(self, path: str) -> tuple[int, str, int, Inode]:
        """(parent, name, inum, inode) of an entry that unlink may drop."""
        parent, name = self._resolve_parent(path)
        inum = self._dir_state(parent).lookup(name)
        if inum is None:
            raise FileNotFoundLFSError(f"{path!r} not found")
        inode = self.get_inode(inum)
        if inode.is_directory and len(self._dir_state(inum)):
            raise DirectoryNotEmptyError(f"{path!r} is not empty")
        return parent, name, inum, inode

    def _rename_entries(
        self, oldpath: str, newpath: str
    ) -> tuple[int, str, int, str, int, int | None] | None:
        """Check a rename(2): ``(old_parent, old_name, new_parent,
        new_name, inum, displaced inum or None)``, or None when both paths
        already name the same file.

        As in POSIX, a directory may not move into its own subtree, only
        an empty directory may be replaced, and a file and a directory
        may not replace each other. The subtree check compares path
        components (a directory has exactly one path, as it cannot be
        hard-linked), so it reads nothing.
        """
        old_parent, old_name = self._resolve_parent(oldpath)
        new_parent, new_name = self._resolve_parent(newpath)
        dirfmt.validate_name(new_name)
        inum = self._dir_state(old_parent).lookup(old_name)
        if inum is None:
            raise FileNotFoundLFSError(f"{oldpath!r} not found")
        displaced = self._dir_state(new_parent).lookup(new_name)
        if displaced == inum:
            return None
        is_dir = self.get_inode(inum).is_directory
        old_parts = self._split_path(oldpath)
        if self._split_path(newpath)[: len(old_parts)] == old_parts:
            raise InvalidOperationError(f"cannot move {oldpath!r} into its own subtree")
        if displaced is not None:
            victim = self.get_inode(displaced)
            if victim.is_directory and len(self._dir_state(displaced)):
                raise DirectoryNotEmptyError(f"{newpath!r} is not empty")
            if victim.is_directory and not is_dir:
                raise IsADirectoryError_(f"{newpath!r} is a directory")
            if is_dir and not victim.is_directory:
                raise NotADirectoryError_(f"{newpath!r} is not a directory")
        return old_parent, old_name, new_parent, new_name, inum, displaced

    # ==================================================================
    # public operations

    def mkdir(self, path: str) -> int:
        """Create a directory."""
        return self.create(path, ftype=FileType.DIRECTORY)

    def write(self, path: str, data: bytes, offset: int = 0) -> None:
        """Write ``data`` at ``offset``, extending the file as needed."""
        self._require_mounted()
        self.write_inum(self._resolve(path), data, offset)

    def write_inum(self, inum: int, data: bytes, offset: int = 0) -> None:
        """Write by inode number (avoids path resolution in benchmarks)."""
        self._require_writable()
        if offset < 0:
            raise InvalidOperationError("negative offset")
        inode = self.get_inode(inum)
        if inode.is_directory:
            raise IsADirectoryError_(f"inode {inum} is a directory")
        if not data:
            return
        bs = self.config.block_size
        now = self.disk.clock.now
        end = offset + len(data)
        pos = offset
        while pos < end:
            fbn = pos // bs
            block_off = pos % bs
            take = min(bs - block_off, end - pos)
            if take == bs:
                payload = bytes(data[pos - offset : pos - offset + bs])
            else:
                base = bytearray(self._read_data_block(inum, fbn))
                base[block_off : block_off + take] = data[pos - offset : pos - offset + take]
                payload = bytes(base)
            self.cache.write(inum, fbn, payload, now)
            self._block_written(inum, fbn, block_off, block_off + take)
            pos += take
        if end > inode.size:
            inode.size = end
        inode.mtime = now
        self.stats.writes += 1
        self._after_op()

    def write_file(self, path: str, data: bytes) -> int:
        """Create (if needed) and write a whole file; returns the inum."""
        self._require_mounted()
        if self.exists(path):
            inum = self._resolve(path)
            self.truncate(path, 0)
        else:
            inum = self.create(path)
        self.write_inum(inum, data)
        return inum

    def read(self, path: str, offset: int = 0, length: int | None = None) -> bytes:
        """Read ``length`` bytes (default: to EOF) starting at ``offset``."""
        self._require_mounted()
        return self.read_inum(self._resolve(path), offset, length)

    def read_inum(self, inum: int, offset: int = 0, length: int | None = None) -> bytes:
        """Read by inode number."""
        self._require_mounted()
        if offset < 0:
            raise InvalidOperationError("negative offset")
        inode = self.get_inode(inum)
        if length is None:
            length = max(0, inode.size - offset)
        end = min(offset + length, inode.size)
        if end <= offset:
            return b""
        bs = self.config.block_size
        chunks = []
        pos = offset
        while pos < end:
            fbn = pos // bs
            block_off = pos % bs
            take = min(bs - block_off, end - pos)
            payload = self._read_data_block(inum, fbn)
            chunks.append(payload[block_off : block_off + take])
            pos += take
        self._accessed(inum)
        self.stats.reads += 1
        self._after_op()
        return b"".join(chunks)

    def readdir(self, path: str) -> list[str]:
        """Names in a directory, sorted."""
        self._require_mounted()
        inum = self._resolve(path)
        if not self.get_inode(inum).is_directory:
            raise NotADirectoryError_(f"{path!r} is not a directory")
        return self._dir_state(inum).names()

    def stat(self, path: str) -> StatResult:
        """Attributes of a file or directory."""
        self._require_mounted()
        inum = self._resolve(path)
        inode = self.get_inode(inum)
        return StatResult(
            inum=inum,
            ftype=inode.ftype,
            size=inode.size,
            nlink=inode.nlink,
            mtime=inode.mtime,
            version=inode.version,
        )

    def fsync(self, path: str) -> None:
        """fsync(2): make ``path``'s acknowledged state durable.

        The path is resolved first (fsync on a deleted file is an error,
        mirroring the VFS's closed-handle check), then the call provides
        the same durability as ``sync``. The sync absorbs the *whole*
        pending set rather than one file's slice: batching is the point
        of the log and of the NVM staging log, and the crash oracle
        treats fsync as a full barrier, so over-delivering keeps every
        persistence domain simple and sound.
        """
        self._require_mounted()
        self._resolve(path)
        self.sync()
