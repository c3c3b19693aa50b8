"""Directory file format.

A directory is an ordinary file whose data blocks hold packed entries
(inode number, name). Each block is self-contained: entries never span
blocks, and a zero name length terminates the block's used region. Insert
rewrites only the single block that gains the entry; remove compacts the
single block that loses it — so a create in a directory of N entries dirties
one block, not N/entries-per-block blocks.
"""

from __future__ import annotations

import struct

from repro.core.errors import (
    CorruptionError,
    FileExistsLFSError,
    FileNotFoundLFSError,
    InvalidOperationError,
)

_ENTRY_HEAD = struct.Struct("<QH")

MAX_NAME_LEN = 255


def entry_size(name: str) -> int:
    """Bytes one entry occupies in a directory block."""
    encoded = name.encode("utf-8")
    return _ENTRY_HEAD.size + len(encoded)


def validate_name(name: str) -> bytes:
    """Check a file name and return its encoded form."""
    if not name or name in (".", ".."):
        raise InvalidOperationError(f"invalid file name {name!r}")
    if "/" in name or "\0" in name:
        raise InvalidOperationError(f"file name {name!r} contains '/' or NUL")
    encoded = name.encode("utf-8")
    if len(encoded) > MAX_NAME_LEN:
        raise InvalidOperationError(f"file name longer than {MAX_NAME_LEN} bytes")
    return encoded


def parse_block(payload: bytes) -> list[tuple[str, int]]:
    """Decode every entry in one directory block.

    Returns (name, inum) pairs in block order.
    """
    entries: list[tuple[str, int]] = []
    pos = 0
    limit = len(payload)
    while pos + _ENTRY_HEAD.size <= limit:
        inum, namelen = _ENTRY_HEAD.unpack_from(payload, pos)
        if namelen == 0:
            break
        end = pos + _ENTRY_HEAD.size + namelen
        if end > limit:
            raise CorruptionError("directory entry overruns its block")
        name_bytes = payload[pos + _ENTRY_HEAD.size : end]
        try:
            name = name_bytes.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise CorruptionError("directory entry name is not valid UTF-8") from exc
        entries.append((name, inum))
        pos = end
    return entries


def pack_block(entries: list[tuple[str, int]], block_size: int) -> bytes:
    """Encode entries into one zero-padded directory block payload."""
    parts = []
    used = 0
    for name, inum in entries:
        encoded = validate_name(name)
        record = _ENTRY_HEAD.pack(inum, len(encoded)) + encoded
        used += len(record)
        if used > block_size:
            raise InvalidOperationError("directory entries overflow one block")
        parts.append(record)
    return b"".join(parts).ljust(block_size, b"\0")


def block_used_bytes(entries: list[tuple[str, int]]) -> int:
    """Bytes the given entries occupy when packed."""
    return sum(entry_size(name) for name, _ in entries)


def block_has_room(entries: list[tuple[str, int]], name: str, block_size: int) -> bool:
    """True if one more entry for ``name`` fits alongside ``entries``."""
    return block_used_bytes(entries) + entry_size(name) <= block_size


class DirState:
    """In-memory image of one directory: per-block entries plus an index.

    ``insert`` and ``remove`` return the index of the one block they
    change, which is the block the caller must write back.
    """

    def __init__(self, blocks: list[list[tuple[str, int]]]) -> None:
        self.blocks = blocks
        self.index: dict[str, tuple[int, int]] = {}
        for block_idx, entries in enumerate(blocks):
            for name, inum in entries:
                if inum != 0:
                    self.index[name] = (inum, block_idx)

    def lookup(self, name: str) -> int | None:
        hit = self.index.get(name)
        return hit[0] if hit else None

    def names(self) -> list[str]:
        return sorted(self.index.keys())

    def __len__(self) -> int:
        return len(self.index)

    def insert(self, name: str, inum: int, block_size: int) -> int:
        """Add an entry: the last block if it has room, else first fit."""
        if name in self.index:
            raise FileExistsLFSError(f"{name!r} already exists")
        blocks = self.blocks
        target = None
        if blocks and block_has_room(blocks[-1], name, block_size):
            target = len(blocks) - 1
        else:
            for idx, entries in enumerate(blocks):
                if block_has_room(entries, name, block_size):
                    target = idx
                    break
        if target is None:
            blocks.append([])
            target = len(blocks) - 1
        blocks[target].append((name, inum))
        self.index[name] = (inum, target)
        return target

    def remove(self, name: str) -> tuple[int, int]:
        """Drop an entry; returns ``(inum, block index)``."""
        hit = self.index.pop(name, None)
        if hit is None:
            raise FileNotFoundLFSError(f"{name!r} not found")
        block_idx = hit[1]
        self.blocks[block_idx] = [e for e in self.blocks[block_idx] if e[0] != name]
        return hit
