"""Tests for configuration and disk layout computation."""

import dataclasses
import enum

import pytest

from repro.core.config import CleaningPolicy, LFSConfig, compute_layout
from repro.core.filesystem import LFS
from repro.disk.device import Disk
from repro.disk.geometry import DiskGeometry

from tests.conftest import SMALL_BLOCKS, small_config


class TestLFSConfig:
    def test_defaults_match_paper(self):
        cfg = LFSConfig()
        assert cfg.block_size == 4096
        assert cfg.segment_bytes == 512 * 1024
        assert cfg.cleaning_policy == CleaningPolicy.COST_BENEFIT
        assert cfg.checkpoint_interval == 30.0

    def test_segment_blocks(self):
        assert LFSConfig().segment_blocks == 128

    def test_rejects_unaligned_segment(self):
        with pytest.raises(ValueError):
            LFSConfig(segment_bytes=4096 * 3 + 1)

    def test_rejects_bad_block_size(self):
        with pytest.raises(ValueError):
            LFSConfig(block_size=1000)

    def test_rejects_inverted_watermarks(self):
        with pytest.raises(ValueError):
            LFSConfig(clean_low_water=10, clean_high_water=5)

    def test_rejects_tiny_segments(self):
        with pytest.raises(ValueError):
            LFSConfig(segment_bytes=4096 * 2)

    def test_imap_blocks(self):
        cfg = LFSConfig(max_inodes=1000)
        assert cfg.imap_entries_per_block == 128
        assert cfg.imap_blocks == 8

    def test_usage_entries_per_block(self):
        assert LFSConfig().seg_usage_entries_per_block == 4096 // 24


class TestLayout:
    def test_structure_order(self):
        cfg = LFSConfig(max_inodes=1024, segment_bytes=128 * 1024)
        layout = compute_layout(cfg, 8192)
        assert layout.checkpoint_a == 1
        assert layout.checkpoint_b == layout.checkpoint_a + layout.checkpoint_blocks
        assert layout.segment_area_start == layout.checkpoint_b + layout.checkpoint_blocks
        assert layout.num_segments >= 1

    def test_segments_fit_on_device(self):
        cfg = LFSConfig(max_inodes=1024, segment_bytes=128 * 1024)
        layout = compute_layout(cfg, 8192)
        last_end = layout.segment_start(layout.num_segments - 1) + cfg.segment_blocks
        assert last_end <= 8192

    def test_segment_addressing_roundtrip(self):
        cfg = LFSConfig(max_inodes=1024, segment_bytes=128 * 1024)
        layout = compute_layout(cfg, 8192)
        for seg in (0, 1, layout.num_segments - 1):
            start = layout.segment_start(seg)
            assert layout.segment_of(start) == seg
            assert layout.segment_of(start + cfg.segment_blocks - 1) == seg

    def test_segment_of_rejects_fixed_area(self):
        cfg = LFSConfig(max_inodes=1024, segment_bytes=128 * 1024)
        layout = compute_layout(cfg, 8192)
        with pytest.raises(ValueError):
            layout.segment_of(0)

    def test_segment_start_rejects_out_of_range(self):
        cfg = LFSConfig(max_inodes=1024, segment_bytes=128 * 1024)
        layout = compute_layout(cfg, 8192)
        with pytest.raises(ValueError):
            layout.segment_start(layout.num_segments)

    def test_too_small_device_rejected(self):
        cfg = LFSConfig(max_inodes=1024, segment_bytes=512 * 1024)
        with pytest.raises(ValueError):
            compute_layout(cfg, 512)

    def test_checkpoint_region_scales_with_inodes(self):
        small = compute_layout(LFSConfig(max_inodes=1024, segment_bytes=128 * 1024), 65536)
        big = compute_layout(LFSConfig(max_inodes=500000, segment_bytes=128 * 1024), 65536)
        assert big.checkpoint_blocks > small.checkpoint_blocks


GEOMETRY_FIELDS = ("block_size", "segment_bytes", "max_inodes")


def _changed(f: dataclasses.Field, value):
    """A valid value for field ``f`` that differs from ``value`` and the default."""
    while True:
        if isinstance(value, bool):
            value = not value
        elif isinstance(value, enum.Enum):
            members = list(type(value))
            value = members[(members.index(value) + 1) % len(members)]
        elif f.name in GEOMETRY_FIELDS:
            value *= 2
        elif isinstance(f.default, float):
            value += 0.25
        else:
            value += 1
        if value != f.default:
            return value


class TestMountConfig:
    """``LFS.mount`` takes geometry from the superblock, the rest from ``config``."""

    @pytest.mark.parametrize(
        "field", dataclasses.fields(LFSConfig), ids=lambda f: f.name
    )
    def test_field_survives_mount(self, field):
        formatted = small_config()
        disk = Disk(DiskGeometry.wren4(num_blocks=SMALL_BLOCKS))
        LFS.format(disk, formatted).unmount()
        value = _changed(field, getattr(formatted, field.name))
        runtime = dataclasses.replace(formatted, **{field.name: value})
        fs = LFS.mount(disk, runtime)
        if field.name in GEOMETRY_FIELDS:
            assert getattr(fs.config, field.name) == getattr(formatted, field.name)
        else:
            assert getattr(fs.config, field.name) == value
            assert fs.config == runtime
