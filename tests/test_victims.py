"""Tests for incremental victim selection (the lazy heap and both cleaners).

The contract under test: the incremental paths pick bit-identical
victims to the legacy full-scan, full-sort oracles in ``tests/oracles.py``
— for the simulator and for the core cleaner — across randomized segment
states and both policies.
"""

import random

import pytest

from repro.core.config import CleaningPolicy
from repro.core.filesystem import LFS
from repro.disk.device import Disk
from repro.disk.geometry import DiskGeometry
from repro.simulator.model import SimConfig, Simulator
from repro.simulator.patterns import HotColdPattern, UniformPattern
from repro.simulator.policies import GroupingPolicy, SelectionPolicy
from repro.victims import LazyVictimHeap, partial_sort

from tests.conftest import small_config
from tests.oracles import cleaner_victims, legacy_simulator, simulator_victims


class TestPartialSort:
    def test_matches_full_sort_prefix(self):
        rng = random.Random(1)
        for _ in range(50):
            items = [rng.randrange(20) for _ in range(rng.randrange(1, 40))]
            k = rng.randrange(1, len(items) + 2)
            assert partial_sort(items, k, key=lambda x: x) == sorted(items)[:k]

    def test_stable_on_ties(self):
        # equal keys keep original order, like a stable full sort
        items = ["b1", "a1", "b2", "a2", "b3"]
        got = partial_sort(items, 3, key=lambda s: s[0])
        assert got == ["a1", "a2", "b1", "b2", "b3"][:3]

    def test_count_past_end(self):
        assert partial_sort([3, 1, 2], 10, key=lambda x: x) == [1, 2, 3]


class TestLazyVictimHeap:
    def test_orders_by_score_then_segment(self):
        heap = LazyVictimHeap()
        for seg, score in ((3, 5), (1, 5), (2, 0), (7, 9)):
            heap.update(seg, score)
        assert heap.select(4) == [2, 1, 3, 7]

    def test_select_has_peek_semantics(self):
        heap = LazyVictimHeap()
        for seg in range(10):
            heap.update(seg, seg % 3)
        first = heap.select(5)
        assert heap.select(5) == first

    def test_stale_entries_discarded(self):
        heap = LazyVictimHeap()
        heap.update(1, 10)
        heap.update(2, 20)
        heap.update(1, 30)  # the (10, 1) entry is now stale
        assert heap.select(2) == [2, 1]
        assert heap.stale_discards > 0

    def test_score_cycle_does_not_duplicate(self):
        # A -> B -> A leaves two current-score entries; selection must
        # still yield each segment at most once.
        heap = LazyVictimHeap()
        heap.update(1, 5)
        heap.update(1, 9)
        heap.update(1, 5)
        heap.update(2, 6)
        assert heap.select(3) == [1, 2]
        assert heap.select(3) == [1, 2]

    def test_remove(self):
        heap = LazyVictimHeap()
        heap.update(1, 1)
        heap.update(2, 2)
        heap.remove(1)
        assert 1 not in heap
        assert heap.select(2) == [2]

    def test_exclude_keeps_entry(self):
        heap = LazyVictimHeap()
        heap.update(1, 1)
        heap.update(2, 2)
        assert heap.select(2, exclude=lambda s: s == 1) == [2]
        assert heap.select(2) == [1, 2]

    def test_stop_score(self):
        heap = LazyVictimHeap()
        heap.update(1, 1)
        heap.update(2, 8)
        heap.update(3, 9)
        assert heap.select(3, stop_score=8) == [1]

    def test_rebuild_bounds_heap_growth(self):
        heap = LazyVictimHeap(min_rebuild=32)
        rng = random.Random(0)
        for _ in range(2000):
            heap.update(rng.randrange(8), rng.randrange(100))
        assert heap.rebuilds > 0
        assert len(heap._heap) < 200  # far below the 2000 pushes

    def test_matches_full_sort_under_churn(self):
        """Property: selection equals sorted((score, seg)) at all times."""
        rng = random.Random(7)
        heap = LazyVictimHeap(min_rebuild=16)
        scores: dict[int, int] = {}
        for _ in range(300):
            op = rng.random()
            seg = rng.randrange(30)
            if op < 0.75:
                score = rng.randrange(12)
                heap.update(seg, score)
                scores[seg] = score
            elif scores:
                victim = rng.choice(sorted(scores))
                heap.remove(victim)
                del scores[victim]
            k = rng.randrange(1, 6)
            expect = [s for _, s in sorted((sc, s) for s, sc in scores.items())][:k]
            assert heap.select(k) == expect


def _drive(sim: Simulator, steps: int) -> None:
    for _ in range(steps):
        sim.step()


class TestSimulatorSelection:
    @pytest.mark.parametrize(
        "selection", [SelectionPolicy.GREEDY, SelectionPolicy.COST_BENEFIT]
    )
    def test_incremental_matches_oracle_across_random_states(self, selection):
        """Property: same victims as the full-sort oracle at every state."""
        rng = random.Random(11)
        cfg = SimConfig(
            num_segments=36,
            blocks_per_segment=24,
            utilization=0.72,
            selection=selection,
            grouping=GroupingPolicy.AGE_SORT,
            seed=rng.randrange(10_000),
        )
        sim = Simulator(cfg, HotColdPattern())
        for _ in range(40):
            _drive(sim, rng.randrange(1, 200))
            for count in (1, 2, 4):
                assert sim._select_victims(count) == simulator_victims(sim, count)

    @pytest.mark.parametrize(
        "selection,pattern_cls,grouping",
        [
            (SelectionPolicy.GREEDY, UniformPattern, GroupingPolicy.NONE),
            (SelectionPolicy.GREEDY, HotColdPattern, GroupingPolicy.AGE_SORT),
            (SelectionPolicy.COST_BENEFIT, HotColdPattern, GroupingPolicy.AGE_SORT),
        ],
    )
    def test_full_run_identical_to_legacy_engine(
        self, selection, pattern_cls, grouping
    ):
        kw = dict(
            num_segments=40,
            blocks_per_segment=32,
            utilization=0.75,
            selection=selection,
            grouping=grouping,
            warmup_factor=3,
            measure_factor=2,
            max_windows=5,
            stable_windows=1,
            seed=9,
        )
        fast = Simulator(SimConfig(**kw), pattern_cls()).run()
        oracle = legacy_simulator(Simulator(SimConfig(**kw), pattern_cls())).run()
        assert fast.write_cost == oracle.write_cost
        assert fast.new_blocks == oracle.new_blocks
        assert fast.moved_blocks == oracle.moved_blocks
        assert fast.read_blocks == oracle.read_blocks
        assert fast.segments_cleaned == oracle.segments_cleaned
        assert fast.total_steps == oracle.total_steps
        assert fast.cleaned_utilizations == oracle.cleaned_utilizations
        assert fast.utilization_histogram == oracle.utilization_histogram


class TestCoreCleanerSelection:
    @pytest.mark.parametrize(
        "policy", [CleaningPolicy.GREEDY, CleaningPolicy.COST_BENEFIT]
    )
    def test_heap_selection_matches_reference(self, policy):
        disk = Disk(DiskGeometry.wren4(num_blocks=4096))
        fs = LFS.format(disk, small_config(cleaning_policy=policy))
        rng = random.Random(5)
        for r in range(6):
            for i in range(50):
                fs.write_file(f"/f{i}", bytes([(r * 17 + i) % 256]) * rng.randrange(2000, 12000))
            for i in range(0, 50, 3):
                if fs.exists(f"/f{i}"):
                    fs.unlink(f"/f{i}")
            for count in (1, 2, 4):
                assert fs.cleaner.select_segments(count) == (
                    cleaner_victims(fs.cleaner, count)
                )
        # and after real cleaning reshuffles the usage table
        fs.clean_now(fs.usage.clean_count + 2)
        for count in (1, 3):
            assert fs.cleaner.select_segments(count) == (
                cleaner_victims(fs.cleaner, count)
            )
