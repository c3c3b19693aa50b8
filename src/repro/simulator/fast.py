"""The vectorized simulation engine (bit-identical to the reference).

:class:`FastSimulator` re-implements :class:`repro.simulator.model.Simulator`
with all per-step state in flat numpy arrays and the write path executed
in batches. It is *not* an approximation: for any config and pattern it
produces the same victims, the same counters, the same ``write_cost``,
the same ``cleaned_utilizations`` — byte-for-byte equal ``SimResult``s —
which the test suite asserts across the full selection×grouping×pattern
matrix and under hypothesis-generated random configs.

Why it is fast:

- **Batched access draws** — :mod:`repro.simulator.fastrand` replays the
  reference RNG's exact word stream with numpy, so a whole window of
  file choices materializes as one int64 array.
- **Batched write steps** — between cleaner invocations the log has a
  known free capacity, so that many steps can be applied at once: one
  scatter finds each file's last write in the batch, two ``bincount``
  calls produce all live-count deltas, and segment fills/mtimes follow
  analytically from the append positions. The only scalar step left is
  the boundary step that trips the cleaner.
- **Array victim selection** — greedy ranks by the composite key
  ``live * S + seg`` (exactly the reference's ``(live, seg)`` order);
  cost-benefit evaluates the ratio vectorized with the reference's
  operation order and breaks ties by segment with ``np.lexsort``.
- **Slot-table membership** — per-segment live files are recovered from
  an ``(S, B)`` slot table instead of per-segment dicts: slot ``i`` of
  segment ``s`` holds file ``f`` and is live iff ``file_seg[f] == s``
  and ``file_slot[f] == i``. Enumerating a victim's live files is one
  gather + compare, and the resulting order is log order — the same
  order the reference's insertion-ordered dicts iterate in.
"""

from __future__ import annotations

import numpy as np

from repro.simulator.fastrand import make_sampler
from repro.simulator.model import SimConfig, SimResult
from repro.simulator.patterns import AccessPattern, UniformPattern
from repro.simulator.policies import GroupingPolicy, SelectionPolicy
from repro.simulator.writecost import measured_write_cost

# largest single vectorized batch; bounds scratch-array sizes
_MAX_BATCH = 1 << 16

# the batched write path scatters whole batches unfiltered and relies
# on fancy assignment being last-write-wins for duplicate indices
_probe = np.zeros(2, dtype=np.int64)
_probe[np.array([0, 0])] = np.array([1, 2])
assert int(_probe[0]) == 2, "numpy fancy assignment is not last-write-wins"
del _probe


class FastSimulator:
    """One simulated log-structured disk under churn — vectorized.

    State mirrors the reference :class:`Simulator` field-for-field (the
    invariant tests run against both), with lists replaced by ndarrays
    and per-segment membership dicts replaced by the slot table.
    """

    def __init__(self, config: SimConfig, pattern: AccessPattern | None = None) -> None:
        self.config = config
        self.pattern = pattern if pattern is not None else UniformPattern()
        self._sampler = make_sampler(self.pattern, config.num_files, config.seed)

        S, B, F = config.num_segments, config.blocks_per_segment, config.num_files
        self._S, self._B = S, B

        self.file_seg = np.empty(F, dtype=np.int64)
        self.file_slot = np.empty(F, dtype=np.int64)
        self.file_mtime = np.zeros(F, dtype=np.float64)
        self.seg_live = np.zeros(S, dtype=np.int64)
        self.seg_mtime = np.zeros(S, dtype=np.float64)
        self.seg_fill = np.zeros(S, dtype=np.int64)
        self.seg_slots = np.full(S * B, -1, dtype=np.int64)
        self.clean_mask = np.ones(S, dtype=bool)
        self.step_no = 0

        # counters (identical meaning to the reference)
        self.new_blocks = 0
        self.moved_blocks = 0
        self.read_blocks = 0
        self.segments_cleaned = 0
        self.measuring = False
        self.m_new = 0
        self.m_moved = 0
        self.m_read = 0
        # cleaned-segment utilizations and utilization-histogram samples,
        # kept as ndarray parts and only materialized to float lists
        # once, when the result is built
        self._cu_parts: list = []
        self._snap_parts: list = []

        # scratch
        self._arange = np.arange(_MAX_BATCH, dtype=np.int64)
        self._seg_ids = np.arange(S, dtype=np.int64)
        self._slot_ids = np.arange(B, dtype=np.int64)
        self._last_pos = np.zeros(F, dtype=np.int64)
        self._gpos = 1  # global write position; 1-based so zeros never match
        self._eligible = np.empty(S, dtype=bool)
        self._inlog = np.zeros(S, dtype=bool)  # maintained as ~clean_mask
        # slot of append position j is j % B: slices of this table give a
        # whole batch's slots without any arithmetic
        self._slotcyc = np.arange(_MAX_BATCH + B, dtype=np.int64) % B
        # float step clock: _far[j] == float(j); slices give a whole
        # batch's mtimes without add/astype round trips (grown on demand)
        self._far = np.arange(2 * B + 2, dtype=np.float64)
        self._samples: "np.ndarray | None" = None
        self._spos = 0

        # initial layout: every file written once, in file order — the
        # reference appends files 0..F-1 into segments popped ascending
        # (0, 1, ...), so file f lands at segment f // B, slot f % B
        last_seg = (F - 1) // B
        ids = np.arange(F, dtype=np.int64)
        self.file_seg[:] = ids // B
        self.file_slot[:] = ids % B
        self.seg_slots[:F] = ids
        self.seg_live[:last_seg] = B
        self.seg_live[last_seg] = F - last_seg * B
        self.seg_fill[: last_seg + 1] = self.seg_live[: last_seg + 1]
        self.clean_mask[: last_seg + 1] = False
        self._inlog[: last_seg + 1] = True
        self.clean_segs = list(range(S - 1, last_seg, -1))  # stack, same order
        self.cur_seg = last_seg
        self.cur_fill = F - last_seg * B
        self.out_seg = -1
        self.out_fill = 0
        self.new_blocks = F

    # ------------------------------------------------------------------
    # write path

    def _advance(self, steps: int) -> None:
        """Execute ``steps`` churn steps, batching between cleanings."""
        self._samples = self._sampler.take(steps)
        self._spos = 0
        B = self._B
        limit = self.step_no + steps + 2
        if limit > len(self._far):
            self._far = np.arange(max(limit, 2 * len(self._far)), dtype=np.float64)
        remaining = steps
        while remaining:
            capacity = (B - self.cur_fill) + B * len(self.clean_segs)
            if capacity <= 0:
                # the next append must trip the cleaner: replicate the
                # reference's exact mid-step cleaning semantics scalar
                self._boundary_step()
                remaining -= 1
                continue
            k = min(capacity, remaining, _MAX_BATCH)
            self._batch_steps(k)
            remaining -= k
        self._samples = None

    def _batch_steps(self, k: int) -> None:
        """Apply ``k`` overwrite steps known not to trigger the cleaner.

        Net effect of the batch (what the cleaner could observe at the
        next boundary): each touched file lives at its *last* write
        position; every pre-batch location loses one live block; the
        appended segments' fills and mtimes follow from the positions.

        All per-file scatters run unfiltered over the whole batch: numpy
        fancy assignment is last-write-wins on duplicate indices (checked
        at import), which is exactly the log's semantics. Only the
        live-count deltas need the duplicates distinguished, and those
        are fixed up scalar — a batch rarely holds more than a couple.
        """
        S, B = self._S, self._B
        sp = self._spos
        fs = self._samples[sp : sp + k]
        self._spos = sp + k
        base = self.step_no

        # normalize: a full current segment rolls over at the next
        # append; popping it now is unobservable inside the batch
        if self.cur_fill >= B:
            self.cur_seg = self._pop_clean()
            self.cur_fill = 0
        start = self.cur_fill

        # destination runs: contiguous slices of the batch per segment
        pos_seg = np.empty(k, dtype=np.int64)
        seg = self.cur_seg
        lo, hi = 0, min(k, B - start)
        pos_seg[lo:hi] = seg
        fill_runs = [(seg, start, lo, hi)]
        while hi < k:
            seg = self._pop_clean()
            lo, hi = hi, min(k, hi + B)
            pos_seg[lo:hi] = seg
            fill_runs.append((seg, 0, lo, hi))

        # live-count deltas: +1 at every write position, -1 at every
        # written file's current location; for files written twice the
        # intermediate positions cancel in the scalar fixup below
        old = self.file_seg[fs]
        inc = np.bincount(pos_seg, minlength=S)
        dec = np.bincount(old, minlength=S)
        np.subtract(inc, dec, out=inc)
        self.seg_live += inc

        ar = self._arange[:k]
        gp = self._gpos
        t = gp + ar
        self._last_pos[fs] = t
        is_last = self._last_pos[fs] == t
        self._gpos = gp + k
        ndup = k - int(is_last.sum())
        if ndup:
            live = self.seg_live
            for j in np.flatnonzero(~is_last).tolist():
                # write j was superseded within the batch: its file's
                # pre-batch block never died here and position j's block
                # died immediately
                live[old[j]] += 1
                live[pos_seg[j]] -= 1

        self.file_seg[fs] = pos_seg
        self.file_slot[fs] = self._slotcyc[start : start + k]
        self.file_mtime[fs] = self._far[base + 1 : base + 1 + k]

        # slot table: every position is appended (duplicates leave dead
        # slots behind, exactly like the log), contiguously per segment
        slots = self.seg_slots
        seg_fill = self.seg_fill
        seg_mtime = self.seg_mtime
        for seg, sstart, lo, hi in fill_runs:
            b = seg * B + sstart
            slots[b : b + hi - lo] = fs[lo:hi]
            seg_fill[seg] = sstart + hi - lo
            # last append into seg happened at step base + hi
            seg_mtime[seg] = float(base + hi)

        self.step_no = base + k
        last_seg, last_start, last_lo, last_hi = fill_runs[-1]
        self.cur_seg = last_seg
        self.cur_fill = last_start + last_hi - last_lo
        self.new_blocks += k
        if self.measuring:
            self.m_new += k

    def _boundary_step(self) -> None:
        """One scalar step whose append runs the cleaner mid-step.

        Field updates happen in the reference's exact order: bump the
        clock, evict the file from its old segment, stamp its mtime, and
        only then append — so the cleaner (invoked from the append) sees
        the old current segment still full and the overwritten file
        already dead.
        """
        self.step_no += 1
        f = int(self._samples[self._spos])
        self._spos += 1
        self._gpos += 1
        old = int(self.file_seg[f])
        self.seg_live[old] -= 1
        self.file_seg[f] = -1  # dead: the cleaner must not carry it
        now = float(self.step_no)
        self.file_mtime[f] = now

        B = self._B
        if self.cur_fill >= B:
            if not self.clean_segs:
                self._run_cleaner()
            if not self.clean_segs:
                raise RuntimeError("cleaner could not produce a clean segment")
            self.cur_seg = self._pop_clean()
            self.cur_fill = 0
        seg = self.cur_seg
        slot = self.cur_fill
        self.file_seg[f] = seg
        self.file_slot[f] = slot
        self.seg_slots[seg * B + slot] = f
        self.seg_live[seg] += 1
        self.seg_fill[seg] = slot + 1
        if now > self.seg_mtime[seg]:
            self.seg_mtime[seg] = now
        self.cur_fill = slot + 1
        self.new_blocks += 1
        if self.measuring:
            self.m_new += 1

    def _pop_clean(self) -> int:
        seg = self.clean_segs.pop()
        self.clean_mask[seg] = False
        self._inlog[seg] = True
        return seg

    # ------------------------------------------------------------------
    # cleaning

    def _eligible_mask(self) -> "np.ndarray":
        """Candidate mask: in the log and not an active append head."""
        buf = self._eligible
        buf[:] = self._inlog
        buf[self.cur_seg] = False
        if self.out_seg >= 0:
            buf[self.out_seg] = False
        return buf

    def _rank_victims(self, now: float) -> tuple["np.ndarray", "np.ndarray"]:
        """All eligible victims, best first, in the reference's order.

        Greedy: ascending ``(live, seg)`` — one composite int key.
        Cost-benefit: descending ratio, ties by ascending segment — the
        ratio is computed with the reference's operation order so the
        floats (and therefore the sort) are bit-identical.

        Returns ``(ranked, keys)`` ndarrays with ``keys`` ascending and
        aligned to ``ranked``, so a late arrival can be merged by
        ``searchsorted``. Arrays (not lists): consumers slice out the
        few victims they actually take, avoiding a full materialization
        per invocation.
        """
        S, B = self._S, self._B
        live = self.seg_live
        buf = self._eligible
        np.less(live, B, out=buf)
        buf &= self._inlog
        buf[self.cur_seg] = False
        if self.out_seg >= 0:
            buf[self.out_seg] = False
        cand = np.flatnonzero(buf)
        if cand.size == 0:
            return cand, cand
        if self.config.selection is SelectionPolicy.GREEDY:
            key = live[cand]
            key *= S
            key += cand
            order = key.argsort(kind="stable")
            return cand[order], key[order]
        u = live[cand] / B
        age = now - self.seg_mtime[cand]
        np.maximum(age, 0.0, out=age)
        ratio = (1.0 - u) * age / (1.0 + u)
        np.negative(ratio, out=ratio)
        order = np.lexsort((cand, ratio))
        return cand[order], ratio[order]

    def _victim_key(self, seg: int, now: float):
        """The sort key ``_rank_victims`` would assign ``seg``."""
        if self.config.selection is SelectionPolicy.GREEDY:
            return int(self.seg_live[seg]) * self._S + seg
        u = self.seg_live[seg] / self._B
        age = max(0.0, now - self.seg_mtime[seg])
        return -((1.0 - u) * age / (1.0 + u))

    def _gather_live_files(self, victims: list[int]) -> "np.ndarray":
        """The victims' live files, concatenated.

        Files come out grouped by victim in the given order, within each
        victim in slot (log) order — the order the reference's
        insertion-ordered membership dicts iterate in (the per-victim
        counts are the victims' live counts). Valid only while no victim
        has received writes since its blocks became live.
        """
        B = self._B
        vs = np.array(victims, dtype=np.int64)
        vcol = vs[:, None]
        slot2 = self.seg_slots[vcol * B + self._slot_ids]
        alive = self.file_seg[slot2] == vcol
        alive &= self.file_slot[slot2] == self._slot_ids
        return slot2[alive]

    def _rolled_out_mtime(
        self,
        seg: int,
        count: int,
        victims_all: list[int],
        victim_pass: list[int],
    ) -> float:
        """``seg_mtime[seg]`` after the first ``count`` moves land in it.

        Used when the initial output head rolls over during a dry-run
        invocation: its cost-benefit age must reflect the blocks this
        invocation moved into it, which are exactly the first ``count``
        elements of the (per-pass age-sorted) move stream.
        """
        mt = float(self.seg_mtime[seg])
        age_sort = self.config.grouping == GroupingPolicy.AGE_SORT
        i = 0
        while count > 0 and i < len(victims_all):
            # one pass's victims at a time: grouping sorts per pass
            j = i
            while j < len(victims_all) and victim_pass[j] == victim_pass[i]:
                j += 1
            files = self._gather_live_files(victims_all[i:j])
            mts = self.file_mtime[files]
            c = min(count, len(mts))
            if c > 0:
                if age_sort:
                    mts = np.sort(mts)
                    top = float(mts[c - 1])
                else:
                    top = float(mts[:c].max())
                if top > mt:
                    mt = top
            count -= c
            i = j
        return mt

    def _run_cleaner(self) -> None:
        """Clean until the threshold of clean segments is available.

        The victim ranking is computed once per invocation: between
        passes the only segments whose score or eligibility changes are
        freshly cleaned victims and the cleaner's output segments, and
        almost none of those can re-enter the candidate set mid-cleaning
        (victims are clean; output segments are excluded while active
        and fully live once rolled over). The one exception is the
        *initial* output segment — it may hold blocks killed by ordinary
        overwrites before this invocation, so once it rolls over full it
        becomes a real candidate. Its score is frozen from that moment
        (nothing further is written to it), so it is merged into the
        standing ranking at its sorted position.

        Because the ranking is static, the whole invocation can be *dry
        run* first with plain integer arithmetic — victim sequence,
        output-segment pops, per-pass move counts — and the array state
        committed afterwards in one batched update. Only when the dry
        run discovers that the merged initial output segment would
        itself be picked as a victim (its live files then depend on
        moves made earlier in the same invocation) does it defer to the
        pass-at-a-time path.
        """
        now = float(self.step_no)
        if self.measuring:
            self._snapshot_utils()
        ranked, keys = self._rank_victims(now)
        plan = self._dry_run(ranked, keys, now)
        if plan is None:
            # rare: the rolled-over initial output head was selected as a
            # victim this same invocation — replay pass-at-a-time
            self._run_cleaner_passwise(now)
            return
        self._commit_cleaning(*plan)

    def _snapshot_utils(self) -> None:
        """Record the per-segment utilization histogram sample."""
        cands = np.flatnonzero(self._eligible_mask())
        self._snap_parts.append(self.seg_live[cands] / self._B)

    def _dry_run(self, ranked: "np.ndarray", keys: "np.ndarray", now: float):
        """Simulate one cleaner invocation with scalar arithmetic only.

        ``ranked``/``keys`` are the arrays from :meth:`_rank_victims`
        (merging the initial output head rebinds local copies, the
        caller's arrays are never mutated). Returns the commit plan
        ``(victims_all, victim_live, victim_pass, runs, popped,
        clean_list, out_seg, out_fill)``, or ``None`` when the
        invocation must be replayed pass-at-a-time (see
        :meth:`_run_cleaner`). No array state is touched.
        """
        cfg = self.config
        B = self._B

        # ---- dry run on scalar copies (no array state touched) ----
        init_out = self.out_seg
        out_seg = self.out_seg
        out_fill = self.out_fill
        clean_list = list(self.clean_segs)
        popped: list[int] = []
        victims_all: list[int] = []
        victim_live: list[int] = []
        victim_pass: list[int] = []
        runs: list[tuple[int, int, int]] = []  # (seg, start_slot, count)
        seg_live = self.seg_live
        spp = cfg.segments_per_pass
        threshold = cfg.clean_threshold
        n_ranked = len(ranked)
        taken = 0
        pass_no = 0
        # The rolled-over initial output head is merged *lazily*: instead
        # of inserting it into ranked/keys, remember its key and check at
        # every pass whether it would displace one of the picks. Its
        # exact sorted position only matters if it would be picked — and
        # that case defers to the pass-at-a-time path anyway. For
        # cost-benefit even the exact key is deferred behind a cheap
        # lower bound (the head's mtime only grows as moves land in it),
        # so the expensive rolled-out-mtime walk almost never runs.
        pend = False
        pend_seg = -1
        pend_key: float = 0.0  # exact when pend_exact, else a lower bound
        pend_exact = True
        pend_count = 0  # blocks moved into the head before it rolled over
        while len(clean_list) < threshold:
            hi = taken + spp
            if hi > n_ranked:
                hi = n_ranked
            if pend:
                if hi == taken:
                    return None  # the merged head is the only candidate
                # (key, seg) comparison against the pass's worst pick —
                # exactly the sorted position a real insert would take
                kj = keys[hi - 1]
                if not pend_exact and not pend_key > kj:
                    pend_key = self._merged_key(pend_seg, pend_count,
                                                victims_all, victim_pass, now)
                    pend_exact = True
                if pend_exact and (
                    pend_key < kj or (pend_key == kj and pend_seg < ranked[hi - 1])
                ):
                    return None  # the merged head would be picked
                if hi - taken < spp:
                    return None  # underfull window: the head fills a slot
            elif hi == taken:
                break
            victims = ranked[taken:hi].tolist()
            taken = hi
            pending = 0
            for v in victims:
                lv = int(seg_live[v])
                victim_live.append(lv)
                victim_pass.append(pass_no)
                pending += lv
                clean_list.append(v)
            victims_all.extend(victims)
            pass_no += 1
            while pending:
                if out_seg < 0 or out_fill >= B:
                    if not clean_list:
                        raise RuntimeError("cleaner ran out of output segments")
                    if out_seg == init_out and init_out >= 0:
                        # the pre-invocation output head rolls over full:
                        # it joins the candidate pool (unless fully live)
                        # exactly as per-pass re-selection would see it;
                        # its final live count is its pre-invocation one
                        # plus every block moved into it this invocation
                        live0 = int(seg_live[init_out]) + (B - self.out_fill)
                        if live0 < B:
                            pend = True
                            pend_seg = init_out
                            pend_count = B - self.out_fill
                            if cfg.selection is SelectionPolicy.GREEDY:
                                pend_key = live0 * self._S + init_out
                                pend_exact = True
                            else:
                                # ratio ≤ (1-u)·(now - current mtime)/(1+u)
                                u = live0 / B
                                age = max(0.0, now - float(self.seg_mtime[init_out]))
                                pend_key = -((1.0 - u) * age / (1.0 + u))
                                pend_exact = False
                        init_out = -1
                    out_seg = clean_list.pop()
                    popped.append(out_seg)
                    out_fill = 0
                run = min(B - out_fill, pending)
                runs.append((out_seg, out_fill, run))
                out_fill += run
                pending -= run
        return (
            victims_all, victim_live, victim_pass, runs, popped,
            clean_list, out_seg, out_fill,
        )

    def _merged_key(
        self,
        seg: int,
        count: int,
        victims_all: list[int],
        victim_pass: list[int],
        now: float,
    ) -> float:
        """The exact cost-benefit key of the rolled-over output head.

        ``count`` blocks of this invocation's move stream landed in it;
        the stream's extra victims past ``count`` blocks are never
        consulted, so computing this late (with more victims accumulated
        than at roll-over time) yields the same value.
        """
        B = self._B
        live0 = int(self.seg_live[seg]) + count
        mt = self._rolled_out_mtime(seg, count, victims_all, victim_pass)
        u = live0 / B
        age = max(0.0, now - mt)
        return -((1.0 - u) * age / (1.0 + u))

    def _commit_cleaning(
        self,
        victims_all: list[int],
        victim_live: list[int],
        victim_pass: list[int],
        runs: list[tuple[int, int, int]],
        popped: list[int],
        clean_list: list[int],
        out_seg: int,
        out_fill: int,
    ) -> None:
        """Apply a dry-run cleaning invocation to the array state."""
        B = self._B
        nv = len(victims_all)
        if nv == 0:
            return
        measuring = self.measuring
        varr = np.array(victim_live, dtype=np.int64)
        self._cu_parts.append(varr / B)
        nz = nv - victim_live.count(0)
        self.read_blocks += B * nz
        if measuring:
            self.m_read += B * nz
        self.segments_cleaned += nv

        # live files of every victim, gathered at once: safe because no
        # victim receives writes mid-invocation (the one segment that
        # could — the merged initial output head — routes to the
        # pass-at-a-time path instead)
        vs = np.array(victims_all, dtype=np.int64)
        moved = self._gather_live_files(victims_all)
        mtimes = self.file_mtime[moved]
        if self.config.grouping == GroupingPolicy.AGE_SORT and len(victims_all) > 0:
            # one stable sort for all passes: key = pass * b + mtime with
            # b a power of two above every mtime, so the composite float
            # is exact and orders (pass, mtime) lexicographically
            pass_of = np.array(victim_pass, dtype=np.int64).repeat(varr)
            bound = float(2 ** (int(self.step_no).bit_length() + 1))
            key = pass_of * bound
            key += mtimes
            order = key.argsort(kind="stable")
            moved = moved[order]
            mtimes = mtimes[order]

        self.seg_live[vs] = 0
        self.seg_fill[vs] = 0
        self.seg_mtime[vs] = 0.0
        self.clean_mask[vs] = True
        self._inlog[vs] = False
        if popped:
            pa = np.array(popped, dtype=np.int64)
            self.clean_mask[pa] = False
            self._inlog[pa] = True
        self.clean_segs = clean_list

        total = len(moved)
        if total:
            ar = self._arange
            seg_live = self.seg_live
            seg_fill = self.seg_fill
            seg_mtime = self.seg_mtime
            b = 0
            for s, sstart, c in runs:
                e = b + c
                mv = moved[b:e]
                self.file_seg[mv] = s
                self.file_slot[mv] = ar[sstart : sstart + c]
                base = s * B + sstart
                self.seg_slots[base : base + c] = mv
                seg_live[s] += c
                seg_fill[s] = sstart + c
                top = mtimes[b:e].max()
                if top > seg_mtime[s]:
                    seg_mtime[s] = top
                b = e
        self.out_seg = out_seg
        self.out_fill = out_fill
        self.moved_blocks += total
        if measuring:
            self.m_moved += total

    def _run_cleaner_passwise(self, now: float) -> None:
        """Pass-at-a-time cleaning (reference-shaped; the rare path)."""
        cfg = self.config
        B = self._B
        ranked, keys = self._rank_victims(now)
        init_out = self.out_seg
        taken = 0
        while len(self.clean_segs) < cfg.clean_threshold:
            victims = ranked[taken : taken + cfg.segments_per_pass].tolist()
            taken += len(victims)
            if not victims:
                break  # everything left is fully live: no reclaimable space
            moved_parts = []
            pass_lives = []
            for v in victims:
                lv = int(self.seg_live[v])
                pass_lives.append(lv)
                if lv > 0:
                    self.read_blocks += B
                    if self.measuring:
                        self.m_read += B
                fill = int(self.seg_fill[v])
                slot_files = self.seg_slots[v * B : v * B + fill]
                alive = (self.file_seg[slot_files] == v) & (
                    self.file_slot[slot_files] == self._slot_ids[:fill]
                )
                moved_parts.append(slot_files[alive])
                self.seg_live[v] = 0
                self.seg_fill[v] = 0
                self.seg_mtime[v] = 0.0
                self.clean_segs.append(v)
                self.clean_mask[v] = True
                self._inlog[v] = False
                self.segments_cleaned += 1
            self._cu_parts.append(np.array(pass_lives, dtype=np.int64) / B)
            moved = (
                np.concatenate(moved_parts) if len(moved_parts) > 1 else moved_parts[0]
            )
            if cfg.grouping == GroupingPolicy.AGE_SORT:
                moved = moved[np.argsort(self.file_mtime[moved], kind="stable")]
            self._append_moved_batch(moved)
            if init_out >= 0 and self.out_seg != init_out:
                # the pre-invocation output head rolled over: it joins
                # the candidate pool (unless fully live) exactly as the
                # reference's per-pass re-selection would see it
                if self.seg_live[init_out] < B:
                    k0 = self._victim_key(init_out, now)
                    lo = taken + int(np.searchsorted(keys[taken:], k0, side="left"))
                    hi = lo + int(np.searchsorted(keys[lo:], k0, side="right"))
                    pos = lo + int(np.searchsorted(ranked[lo:hi], init_out))
                    keys = np.insert(keys, pos, k0)
                    ranked = np.insert(ranked, pos, init_out)
                init_out = -1

    def _append_moved_batch(self, moved: "np.ndarray") -> None:
        """Write the carried live blocks to the cleaner's output head."""
        k = len(moved)
        if k == 0:
            return
        B = self._B
        if self.out_seg < 0 or self.out_fill >= B:
            if not self.clean_segs:
                raise RuntimeError("cleaner ran out of output segments")
            self.out_seg = self._pop_clean()
            self.out_fill = 0
        start = self.out_fill
        if start + k <= B:
            # common case: the whole batch fits the current output head
            s = self.out_seg
            self.file_seg[moved] = s
            self.file_slot[moved] = self._arange[:k] + start
            self.seg_slots[s * B + start : s * B + start + k] = moved
            self.seg_live[s] += k
            self.seg_fill[s] = start + k
            top = float(self.file_mtime[moved].max())
            if top > self.seg_mtime[s]:
                self.seg_mtime[s] = top
            self.out_fill = start + k
            self.moved_blocks += k
            if self.measuring:
                self.m_moved += k
            return
        n_more = (start + k - 1) // B
        seg_seq = [self.out_seg]
        for _ in range(n_more):
            if not self.clean_segs:
                raise RuntimeError("cleaner ran out of output segments")
            seg_seq.append(self._pop_clean())

        ar = self._arange[:k]
        offs = start + ar
        seg_arr = np.array(seg_seq, dtype=np.int64)
        pos_seg = seg_arr[offs // B]
        self.file_seg[moved] = pos_seg
        self.file_slot[moved] = offs % B
        mtimes = self.file_mtime[moved]
        slots = self.seg_slots
        for i, s in enumerate(seg_seq):
            lo = max(0, i * B - start)
            hi = min(k, (i + 1) * B - start)
            slots[s * B + start + lo - i * B : s * B + start + hi - i * B] = moved[
                lo:hi
            ]
            self.seg_live[s] += hi - lo
            self.seg_fill[s] = start + hi - i * B
            top = float(mtimes[lo:hi].max())
            if top > self.seg_mtime[s]:
                self.seg_mtime[s] = top
        self.out_seg = seg_seq[-1]
        self.out_fill = start + k - n_more * B
        self.moved_blocks += k
        if self.measuring:
            self.m_moved += k

    # ------------------------------------------------------------------
    # runs

    def _reset_window(self) -> None:
        self.m_new = self.m_moved = self.m_read = 0
        self._cu_parts.clear()
        self._snap_parts.clear()

    def run(self) -> SimResult:
        """Run to steady state; the loop mirrors the reference exactly."""
        cfg = self.config
        warmup = int(cfg.warmup_factor * cfg.total_blocks)
        window = max(1, int(cfg.measure_factor * cfg.total_blocks))
        if warmup:
            self._advance(warmup)
        self.measuring = True
        prev_cost = None
        stable = 0
        for _ in range(cfg.max_windows):
            self._reset_window()
            self._advance(window)
            cost = measured_write_cost(self.m_new, self.m_moved, self.m_read)
            if prev_cost is not None and prev_cost > 0:
                if abs(cost - prev_cost) / prev_cost <= cfg.stable_tol:
                    stable += 1
                else:
                    stable = 0
            prev_cost = cost
            if stable >= cfg.stable_windows:
                break
        return self._result(prev_cost)

    def _result(self, prev_cost: float | None) -> SimResult:
        """Materialize the measured window into a :class:`SimResult`."""
        parts = self._snap_parts
        hist = np.concatenate(parts).tolist() if parts else []
        cparts = self._cu_parts
        cleaned = np.concatenate(cparts).tolist() if cparts else []
        return SimResult(
            config=self.config,
            pattern_name=self.pattern.name,
            write_cost=prev_cost if prev_cost is not None else 1.0,
            new_blocks=self.m_new,
            moved_blocks=self.m_moved,
            read_blocks=self.m_read,
            segments_cleaned=self.segments_cleaned,
            total_steps=self.step_no,
            cleaned_utilizations=cleaned,
            utilization_histogram=hist,
        )

