"""Full-sort victim-selection oracles for both cleaners.

The simulator (Section 3.5) and the core file system's cleaner each pick
victims through one incremental path: a lazy-invalidation heap, with a
top-k partial selection for the clock-dependent cost-benefit score. The
functions here are the full-scan, full-sort selections those paths
replaced. They exist only to prove equivalence: tests bind them to a live
:class:`Simulator` or :class:`LFS` and assert the same victims, step by
step and over whole runs.
"""

from __future__ import annotations

from functools import partial
from typing import Sequence

from repro.core.config import CleaningPolicy
from repro.simulator.model import Simulator
from repro.simulator.policies import SegmentView, SelectionPolicy, cost_benefit_key


def rank_greedy(candidates: Sequence[int], view: SegmentView) -> list[int]:
    """Least-utilized segments first — the paper's simple greedy policy."""
    return sorted(candidates, key=view.live_blocks)


def rank_cost_benefit(
    candidates: Sequence[int], view: SegmentView, now: float, blocks_per_segment: int
) -> list[int]:
    """Highest benefit-to-cost ratio first (Section 3.5).

    Cold segments get cleaned at much higher utilizations than hot ones.
    """
    return sorted(
        candidates, key=cost_benefit_key(view, now, blocks_per_segment), reverse=True
    )


def rank(
    policy: SelectionPolicy,
    candidates: Sequence[int],
    view: SegmentView,
    now: float,
    blocks_per_segment: int,
) -> list[int]:
    """Dispatch to the configured selection policy."""
    if policy == SelectionPolicy.GREEDY:
        return rank_greedy(candidates, view)
    return rank_cost_benefit(candidates, view, now, blocks_per_segment)


def simulator_victims(sim: Simulator, count: int) -> list[int]:
    """The simulator's original full-scan, full-sort victim selection."""
    candidates = sim._candidates()
    if not candidates:
        return []
    B = sim.config.blocks_per_segment
    ranked = rank(sim.config.selection, candidates, sim, float(sim.step_no), B)
    # A fully live segment yields nothing: cleaning it is pure cost
    # (benefit is zero under both policies), so never pick one while
    # anything better exists.
    ranked = [s for s in ranked if sim.seg_live[s] < B]
    return ranked[:count]


def legacy_simulator(sim: Simulator) -> Simulator:
    """Rebind ``sim``'s cleaner to the full-sort oracle; returns ``sim``."""
    sim._select_victims = partial(simulator_victims, sim)
    return sim


def cleaner_victims(cleaner, count: int) -> list[int]:
    """The core cleaner's original full-scan, full-sort selection."""
    fs = cleaner.fs
    candidates = cleaner._candidates()
    if not candidates:
        return []
    empty = [s for s in candidates if fs.usage.get(s).live_bytes == 0]
    if empty:
        return empty[:count]
    now = fs.disk.clock.now
    if fs.config.cleaning_policy == CleaningPolicy.GREEDY:
        candidates.sort(key=lambda s: fs.usage.utilization(s))
    else:
        candidates.sort(key=lambda s: -cleaner._benefit_cost(s, now))
    return candidates[:count]
