"""Tests for low-level serialization helpers."""

import struct

import pytest

from repro.core.blocks import (
    checksum,
    pack_addr_list,
    pack_addrs,
    require,
    unpack_addr_list,
    unpack_addrs,
)
from repro.core.errors import CorruptionError


class TestAddrPacking:
    def test_roundtrip(self):
        addrs = [1, 2, 3, 0xFFFFFFFFFFFF]
        payload = pack_addrs(addrs, 4096)
        assert unpack_addrs(payload, 4) == addrs

    @pytest.mark.parametrize("count", [0, 1, 7, 512])
    def test_bytes_match_per_address_packing(self, count):
        addrs = [(i * 0x9E3779B97F4A7C15) % 2**64 for i in range(count)]
        reference = b"".join(struct.pack("<Q", a) for a in addrs).ljust(4096, b"\0")
        assert pack_addrs(addrs, 4096) == reference

    def test_payload_is_block_sized(self):
        assert len(pack_addrs([1], 4096)) == 4096

    def test_too_many_addrs_rejected(self):
        with pytest.raises(ValueError):
            pack_addrs(list(range(513)), 4096)

    def test_unpack_truncated_raises(self):
        with pytest.raises(CorruptionError):
            unpack_addrs(b"\0" * 8, 2)

    def test_unpack_zero_count(self):
        assert unpack_addrs(b"", 0) == []

    def test_list_spans_blocks(self):
        addrs = list(range(1000))
        blocks = pack_addr_list(addrs, 4096)
        assert len(blocks) == 2
        assert unpack_addr_list(blocks, 1000, 4096) == addrs

    def test_empty_list_gives_one_block(self):
        blocks = pack_addr_list([], 4096)
        assert len(blocks) == 1
        assert unpack_addr_list(blocks, 0, 4096) == []

    def test_unpack_list_truncated_raises(self):
        blocks = pack_addr_list(list(range(10)), 4096)
        with pytest.raises(CorruptionError):
            unpack_addr_list(blocks[:0], 10, 4096)


class TestChecksum:
    def test_deterministic(self):
        assert checksum([b"abc", b"def"]) == checksum([b"abc", b"def"])

    def test_order_sensitive(self):
        assert checksum([b"abc", b"def"]) != checksum([b"def", b"abc"])

    def test_detects_corruption(self):
        assert checksum([b"abcd"]) != checksum([b"abce"])

    def test_empty(self):
        assert checksum([]) == 0


class TestRequire:
    def test_passes(self):
        require(True, "nope")

    def test_raises(self):
        with pytest.raises(CorruptionError, match="boom"):
            require(False, "boom")
