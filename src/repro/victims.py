"""Incremental cleaner victim selection: a lazy-invalidation heap.

Both cleaners — the Section 3.5 simulator's and the real file system's —
used to re-scan and fully re-sort every candidate segment on every
cleaning pass: an O(S log S) cost paid roughly every segment's worth of
writes, which dominates sweep wall-clock. Lomet & Luo ("Efficiently
Reclaiming Space in a Log Structured Store") make the same observation
for production log-structured stores: victim selection must be
incremental, not a full rescan.

:class:`LazyVictimHeap` maintains a min-heap of ``(score, seg)`` entries
over an authoritative ``seg -> score`` map. Updates push a fresh entry
and never delete in place; an entry is *stale* once the map has moved
on, and stale entries are discarded as they surface at the top. When
stale entries outnumber live ones by ``rebuild_factor`` the heap is
rebuilt from the map, bounding memory and amortized pop cost.

Selection order is exactly ``sorted(candidates, key=score)`` with ties
broken by ascending segment number — bit-identical to the legacy stable
full sort over an ascending candidate list, which is what lets the
incremental path replace the sort without changing any simulation or
cleaning result. Time-dependent scores (the cost-benefit policy's age
term moves with the clock) cannot live in a persistent heap; for those
:func:`partial_sort` provides the fallback path — a ``heapq.nsmallest``
style top-k selection, O(S log k) instead of O(S log S), with the same
stable tie-breaking as a full sort.
"""

from __future__ import annotations

import heapq
from typing import Callable, Iterable, Sequence, TypeVar

T = TypeVar("T")


def partial_sort(
    candidates: Sequence[T], count: int, key: Callable[[T], float]
) -> list[T]:
    """The first ``count`` items of ``sorted(candidates, key=key)``.

    Explicitly decorates with the original index so ties break exactly
    like a stable full sort, independent of the heapq implementation.
    """
    if count >= len(candidates):
        decorated = sorted((key(c), i) for i, c in enumerate(candidates))
    else:
        decorated = heapq.nsmallest(
            count, ((key(c), i) for i, c in enumerate(candidates))
        )
    return [candidates[i] for _, i in decorated]


class LazyVictimHeap:
    """A min-heap of ``(score, seg)`` with lazy invalidation.

    ``update`` and ``remove`` are O(log n) amortized; ``select`` pops
    victims in exact ``(score, seg)`` order and has *peek* semantics —
    every entry it consumes is pushed back, so repeated selection
    without intervening updates returns the same victims.
    """

    def __init__(self, *, rebuild_factor: float = 4.0, min_rebuild: int = 64) -> None:
        self._heap: list[tuple[float, int]] = []
        self._score: dict[int, float] = {}
        self.rebuild_factor = rebuild_factor
        self.min_rebuild = min_rebuild
        # introspection counters (exposed for tests and benchmarks)
        self.rebuilds = 0
        self.stale_discards = 0

    def __len__(self) -> int:
        return len(self._score)

    def __contains__(self, seg: int) -> bool:
        return seg in self._score

    def __iter__(self) -> Iterable[int]:
        return iter(self._score)

    def update(self, seg: int, score: float) -> None:
        """Insert ``seg`` or change its score; the old entry goes stale."""
        if self._score.get(seg) == score:
            return
        self._score[seg] = score
        heapq.heappush(self._heap, (score, seg))
        self._maybe_rebuild()

    def remove(self, seg: int) -> None:
        """Drop ``seg``; any heap entries for it go stale."""
        self._score.pop(seg, None)

    def _maybe_rebuild(self) -> None:
        if len(self._heap) >= self.min_rebuild and len(self._heap) > (
            self.rebuild_factor * max(1, len(self._score))
        ):
            self._heap = [(score, seg) for seg, score in self._score.items()]
            heapq.heapify(self._heap)
            self.rebuilds += 1

    def select(
        self,
        count: int,
        *,
        exclude: Callable[[int], bool] | None = None,
        stop_score: float | None = None,
    ) -> list[int]:
        """Up to ``count`` victims in exact ``(score, seg)`` order.

        ``exclude`` skips segments that are temporarily not candidates
        (they stay in the heap); ``stop_score`` ends the selection as
        soon as the best remaining score reaches it (used to refuse
        fully-live segments, which can never yield free space).
        """
        heap = self._heap
        victims: list[int] = []
        seen: set[int] = set()
        push_back: list[tuple[float, int]] = []
        while len(victims) < count and heap:
            score, seg = heapq.heappop(heap)
            if self._score.get(seg) != score or seg in seen:
                self.stale_discards += 1
                continue
            if stop_score is not None and score >= stop_score:
                push_back.append((score, seg))
                break
            seen.add(seg)
            push_back.append((score, seg))
            if exclude is not None and exclude(seg):
                continue
            victims.append(seg)
        for entry in push_back:
            heapq.heappush(heap, entry)
        return victims
