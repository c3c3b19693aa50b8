"""Fused lockstep execution of many simulations in one process.

On few-core machines a process pool cannot buy much for a parameter
sweep, and the per-point cost of the vectorized engine is dominated by
fixed per-call overhead: every numpy kernel call costs ~1µs no matter
whether it touches one simulation's 100 segments or sixteen
simulations' 1600. :class:`_Fleet` exploits that by running a whole
sweep's points *in lockstep through shared arrays*:

- Every point's state lives in one fused buffer, namespaced by offset:
  point ``p`` owns global files ``[fb_p, fb_p + F_p)`` and global
  segments ``[p*S, (p+1)*S)``. Each point's :class:`FastSimulator` is
  rebound to **views** of the fused buffers, so all of its scalar and
  per-point vector methods (dry run, pass-at-a-time fallback) keep
  working unchanged and stay bit-identical.
- Each driver round gathers which points can take a plain write batch
  and which have tripped the cleaner, then executes *one* fused batch
  kernel and *one* fused cleaning pipeline (snapshot, rank, commit)
  for the whole cohort. Per-point work that is inherently sequential —
  the cleaner dry run — stays scalar but tiny.
- Victim ranking fuses across points with point-major composite keys:
  greedy sorts ``pid * ((B+1)*S) + (live*S + seg)``; cost-benefit
  lexsorts ``(seg, -ratio, pid)``. Within each point the order — and
  therefore every victim choice — is exactly the solo engine's.

Results are byte-for-byte equal to running each point alone (the test
suite asserts this), because every fused kernel computes the same
values in the same float operation order; only *which call* computes
them is shared.

The fused kernels require congruent geometry (same ``num_segments``
and ``blocks_per_segment``); :func:`run_fleet` groups points
accordingly and falls back to solo execution for singleton groups.

If any point's run raises (e.g. the cleaner runs out of output
segments), the whole fused run raises — matching what a sequential
sweep would ultimately do.
"""

from __future__ import annotations

import numpy as np

from repro.simulator.fast import _MAX_BATCH, FastSimulator
from repro.simulator.policies import GroupingPolicy, SelectionPolicy
from repro.simulator.writecost import measured_write_cost


class _Run:
    """Per-point driver bookkeeping: the window script and its budget."""

    __slots__ = ("sim", "gen", "remaining", "sink")

    def __init__(self, sim, gen):
        self.sim = sim
        self.gen = gen
        self.remaining = 0
        self.sink: list = []


class _Fleet:
    """A congruent group of simulations advancing in lockstep."""

    def __init__(self, pairs: list) -> None:
        self.sims = sims = [FastSimulator(cfg, pat) for cfg, pat in pairs]
        S = sims[0]._S
        B = sims[0]._B
        if any(s._S != S or s._B != B for s in sims):
            raise ValueError("fleet points must share disk geometry")
        P = len(sims)
        self._S, self._B, self._P = S, B, P
        TOT = P * S
        self._TOT = TOT
        NF = sum(len(s.file_seg) for s in sims)

        # fused state buffers; every simulator's arrays become views
        self.fseg = np.empty(NF, dtype=np.int64)
        self.fslot = np.empty(NF, dtype=np.int64)
        self.fmtime = np.zeros(NF, dtype=np.float64)
        self._lastpos = np.zeros(NF, dtype=np.int64)
        self._gpos = 1
        self.slive = np.zeros(TOT, dtype=np.int64)
        self.smtime = np.zeros(TOT, dtype=np.float64)
        self.sfill = np.zeros(TOT, dtype=np.int64)
        self.slots = np.full(TOT * B, -1, dtype=np.int64)
        self.clean = np.ones(TOT, dtype=bool)
        self.inlog = np.zeros(TOT, dtype=bool)

        shared_cyc = sims[0]._slotcyc
        shared_ar = sims[0]._arange
        shared_slot_ids = sims[0]._slot_ids
        fb = 0
        for pid, sim in enumerate(sims):
            sb = pid * S
            sim._pid = pid
            sim._fb = fb
            sim._sb = sb
            F = len(sim.file_seg)
            for name, fused in (
                ("file_seg", self.fseg),
                ("file_slot", self.fslot),
                ("file_mtime", self.fmtime),
                ("_last_pos", self._lastpos),
            ):
                v = fused[fb : fb + F]
                v[:] = getattr(sim, name)
                setattr(sim, name, v)
            for name, fused in (
                ("seg_live", self.slive),
                ("seg_mtime", self.smtime),
                ("seg_fill", self.sfill),
                ("clean_mask", self.clean),
                ("_inlog", self.inlog),
            ):
                v = fused[sb : sb + S]
                v[:] = getattr(sim, name)
                setattr(sim, name, v)
            v = self.slots[sb * B : (sb + S) * B]
            v[:] = sim.seg_slots
            sim.seg_slots = v
            sim._slotcyc = shared_cyc
            sim._arange = shared_ar
            sim._slot_ids = shared_slot_ids
            fb += F

        # static per-policy candidate masks (selection is per-config)
        self._greedy_mask = np.zeros(TOT, dtype=bool)
        self._cb_mask = np.zeros(TOT, dtype=bool)
        for sim in sims:
            mask = (
                self._greedy_mask
                if sim.config.selection is SelectionPolicy.GREEDY
                else self._cb_mask
            )
            mask[sim._sb : sim._sb + S] = True
        self.measmask = np.zeros(TOT, dtype=bool)
        self._nowvec = np.zeros(P, dtype=np.float64)
        self._slot_ids = shared_slot_ids
        # greedy composite stride: one point's keys live in [0, (B+1)*S)
        self._pblk = (B + 1) * S

        # scratch
        self._actbuf = np.empty(TOT, dtype=bool)
        self._rankbuf = np.empty(TOT, dtype=bool)
        self._tmpbuf = np.empty(TOT, dtype=bool)
        self._far = np.arange(4096, dtype=np.float64)
        self._bigar = np.arange(_MAX_BATCH, dtype=np.int64)

    # ------------------------------------------------------------------
    # clocks and scratch growth

    def _ensure_clock(self, limit: int) -> None:
        if limit > len(self._far):
            self._far = np.arange(max(limit, 2 * len(self._far)), dtype=np.float64)

    def _ensure_big(self, n: int) -> None:
        if n > len(self._bigar):
            self._bigar = np.arange(max(n, 2 * len(self._bigar)), dtype=np.int64)

    # ------------------------------------------------------------------
    # per-point window script (mirrors FastSimulator.run exactly)

    def _script(self, sim, sink: list):
        cfg = sim.config
        warmup = int(cfg.warmup_factor * cfg.total_blocks)
        window = max(1, int(cfg.measure_factor * cfg.total_blocks))
        if warmup:
            yield warmup
        sim.measuring = True
        self.measmask[sim._sb : sim._sb + self._S] = True
        prev_cost = None
        stable = 0
        for _ in range(cfg.max_windows):
            sim._reset_window()
            yield window
            cost = measured_write_cost(sim.m_new, sim.m_moved, sim.m_read)
            if prev_cost is not None and prev_cost > 0:
                if abs(cost - prev_cost) / prev_cost <= cfg.stable_tol:
                    stable += 1
                else:
                    stable = 0
            prev_cost = cost
            if stable >= cfg.stable_windows:
                break
        sink.append(prev_cost)

    # ------------------------------------------------------------------
    # driver

    def run(self) -> list:
        results: list = [None] * self._P
        pending = []
        for sim in self.sims:
            r = _Run(sim, None)
            r.gen = self._script(sim, r.sink)
            pending.append(r)
        B = self._B
        while pending:
            nxt = []
            batch_sims: list = []
            batch_ks: list = []
            clean_sims: list = []
            for r in pending:
                sim = r.sim
                if r.remaining == 0:
                    try:
                        n = next(r.gen)
                    except StopIteration:
                        results[sim._pid] = sim._result(
                            r.sink[0] if r.sink else None
                        )
                        continue
                    r.remaining = n
                    sim._samples = sim._sampler.take(n)
                    sim._spos = 0
                    self._ensure_clock(sim.step_no + n + 2)
                nxt.append(r)
                capacity = (B - sim.cur_fill) + B * len(sim.clean_segs)
                if capacity > 0:
                    k = capacity if capacity < r.remaining else r.remaining
                    if k > _MAX_BATCH:
                        k = _MAX_BATCH
                    r.remaining -= k
                    batch_sims.append(sim)
                    batch_ks.append(k)
                else:
                    r.remaining -= 1
                    clean_sims.append(sim)
            pending = nxt
            if batch_sims:
                self._fused_batch(batch_sims, batch_ks)
            if clean_sims:
                self._fused_clean(clean_sims)
        return results

    # ------------------------------------------------------------------
    # fused write batches

    def _fused_batch(self, sims: list, ks: list) -> None:
        """One `_batch_steps` for the whole cohort, namespaced.

        Semantics per point are exactly :meth:`FastSimulator._batch_steps`;
        only the kernel calls are shared. Values written into the file
        and slot tables stay *local* (the per-point views read them);
        indices are global.
        """
        B = self._B
        total = sum(ks)
        self._ensure_big(total)
        self._ensure_clock(total)
        pos_loc = np.empty(total, dtype=np.int64)
        fs_parts = []
        slot_off: list = []
        mt_off: list = []
        run_seg: list = []
        run_fill: list = []
        run_mt: list = []
        fb_l: list = []
        sb_l: list = []
        pop_g: list = []
        o = 0
        for sim, k in zip(sims, ks):
            sp = sim._spos
            fs_parts.append(sim._samples[sp : sp + k])
            sim._spos = sp + k
            base = sim.step_no
            sb = sim._sb
            clean_pop = sim.clean_segs.pop
            if sim.cur_fill >= B:
                sim.cur_seg = seg = clean_pop()
                pop_g.append(sb + seg)
                sim.cur_fill = 0
            start = sim.cur_fill
            # slot and mtime sequences are pure arithmetic in the batch
            # index: slot = (start + j) % B, mtime = base + 1 + j — so
            # only their per-point offsets are collected here and both
            # arrays are built with two fused kernels below
            slot_off.append(start - o)
            mt_off.append(float(base + 1 - o))
            seg = sim.cur_seg
            lo, hi = 0, min(k, B - start)
            pos_loc[o + lo : o + hi] = seg
            run_seg.append(sb + seg)
            run_fill.append(start + hi)
            run_mt.append(float(base + hi))
            while hi < k:
                seg = clean_pop()
                pop_g.append(sb + seg)
                lo, hi = hi, min(k, hi + B)
                pos_loc[o + lo : o + hi] = seg
                run_seg.append(sb + seg)
                run_fill.append(hi - lo)
                run_mt.append(float(base + hi))
            sim.step_no = base + k
            sim.cur_seg = seg
            sim.cur_fill = run_fill[-1]
            sim.new_blocks += k
            if sim.measuring:
                sim.m_new += k
            fb_l.append(sim._fb)
            sb_l.append(sb)
            o += k
        if pop_g:
            pa = np.array(pop_g, dtype=np.int64)
            self.clean[pa] = False
            self.inlog[pa] = True

        ks_arr = np.array(ks, dtype=np.int64)
        fb_e = np.array(fb_l, dtype=np.int64).repeat(ks_arr)
        sb_e = np.array(sb_l, dtype=np.int64).repeat(ks_arr)
        ar = self._bigar[:total]
        slot = np.array(slot_off, dtype=np.int64).repeat(ks_arr)
        slot += ar
        slot %= B
        mt = np.array(mt_off).repeat(ks_arr)
        mt += self._far[:total]
        fs = np.concatenate(fs_parts) if len(fs_parts) > 1 else fs_parts[0]
        fs_g = fs + fb_e
        old_g = self.fseg[fs_g]
        old_g += sb_e
        pos_g = pos_loc + sb_e

        inc = np.bincount(pos_g, minlength=self._TOT)
        dec = np.bincount(old_g, minlength=self._TOT)
        np.subtract(inc, dec, out=inc)
        self.slive += inc

        t = self._gpos + ar
        self._lastpos[fs_g] = t
        is_last = self._lastpos[fs_g] == t
        self._gpos += total
        ndup = total - int(is_last.sum())
        if ndup:
            live = self.slive
            for j in np.flatnonzero(~is_last).tolist():
                live[old_g[j]] += 1
                live[pos_g[j]] -= 1

        self.fseg[fs_g] = pos_loc
        self.fslot[fs_g] = slot
        self.fmtime[fs_g] = mt
        flat = pos_g * B
        flat += slot
        self.slots[flat] = fs
        rs = np.array(run_seg, dtype=np.int64)
        self.sfill[rs] = np.array(run_fill, dtype=np.int64)
        self.smtime[rs] = np.array(run_mt)

    # ------------------------------------------------------------------
    # fused cleaning

    def _fused_clean(self, sims: list) -> None:
        """One boundary step + cleaner invocation for the whole cohort.

        Mirrors :meth:`FastSimulator._boundary_step` +
        :meth:`FastSimulator._run_cleaner`: prologue kill, utilization
        snapshot, victim ranking and commit fuse across points; the dry
        run (and the rare pass-at-a-time fallback) stay per point.
        """
        S, B = self._S, self._B
        # prologue: each point's overwrite kills its file mid-step
        fs_loc: list = []
        sb_l: list = []
        pid_l: list = []
        fs_glob: list = []
        step_l: list = []
        nows: list = []
        for sim in sims:
            sim.step_no = now_i = sim.step_no + 1
            f = int(sim._samples[sim._spos])
            sim._spos += 1
            fs_loc.append(f)
            fs_glob.append(f + sim._fb)
            sb_l.append(sim._sb)
            pid_l.append(sim._pid)
            step_l.append(now_i)
            nows.append(float(now_i))
        self._gpos += len(sims)
        ptab = np.array((fs_glob, sb_l, pid_l, step_l), dtype=np.int64)
        fs_g = ptab[0]
        sb_arr = ptab[1]
        now_arr = ptab[3].astype(np.float64)
        self._nowvec[ptab[2]] = now_arr
        old_g = self.fseg.take(fs_g)
        old_g += sb_arr
        self.slive[old_g] -= 1
        self.fseg[fs_g] = -1  # dead: the cleaners must not carry them
        self.fmtime[fs_g] = now_arr

        # cohort segments in the log minus active append heads
        act = self._actbuf
        if len(sims) == self._P:
            np.copyto(act, self.inlog)
        else:
            act[:] = False
            for sim in sims:
                act[sim._sb : sim._sb + S] = True
            act &= self.inlog
        for sim in sims:
            sb = sim._sb
            act[sb + sim.cur_seg] = False
            if sim.out_seg >= 0:
                act[sb + sim.out_seg] = False

        # fused utilization snapshot for the measuring points
        if any(sim.measuring for sim in sims):
            tmp = self._tmpbuf
            np.logical_and(act, self.measmask, out=tmp)
            snap = np.flatnonzero(tmp)
            utils = self.slive[snap] / B
            counts = np.bincount(snap // S, minlength=self._P).tolist()
            off = 0
            for sim in sims:
                c = counts[sim._pid]
                if c:
                    sim._snap_parts.append(utils[off : off + c])
                    off += c

        # fused victim ranking, one composite sort per selection policy
        rank_out: dict = {}
        rb = self._rankbuf
        np.less(self.slive, B, out=rb)
        rb &= act
        gsims = [s for s in sims if s.config.selection is SelectionPolicy.GREEDY]
        csims = [s for s in sims if s.config.selection is not SelectionPolicy.GREEDY]
        if gsims:
            self._fused_rank_greedy(gsims, rb, rank_out)
        if csims:
            self._fused_rank_cb(csims, rb, rank_out)

        # per-point dry runs (inherently sequential, but tiny)
        commit_sims: list = []
        commit_plans: list = []
        for sim, now in zip(sims, nows):
            ranked, keys = rank_out[sim._pid]
            plan = sim._dry_run(ranked, keys, now)
            if plan is None:
                # rare: the merged initial output head was itself picked
                sim._run_cleaner_passwise(now)
            else:
                commit_sims.append(sim)
                commit_plans.append(plan)
        if commit_sims:
            self._fused_commit(commit_sims, commit_plans)

        # epilogue: each point appends its file to a fresh head segment
        pos_loc: list = []
        for sim in sims:
            if not sim.clean_segs:
                raise RuntimeError("cleaner could not produce a clean segment")
            seg = sim.clean_segs.pop()
            sim.cur_seg = seg
            sim.cur_fill = 1
            sim.new_blocks += 1
            if sim.measuring:
                sim.m_new += 1
            pos_loc.append(seg)
        etab = np.array((pos_loc, fs_loc), dtype=np.int64)
        pos_g = etab[0] + sb_arr
        self.clean[pos_g] = False
        self.inlog[pos_g] = True
        self.fseg[fs_g] = etab[0]
        self.fslot[fs_g] = 0
        self.slots[pos_g * B] = etab[1]
        self.slive[pos_g] += 1
        self.sfill[pos_g] = 1
        # a freshly popped head is clean, so its mtime was zeroed: assign
        self.smtime[pos_g] = now_arr

    def _fused_rank_greedy(self, sims: list, rb, rank_out: dict) -> None:
        S = self._S
        tmp = self._tmpbuf
        np.logical_and(rb, self._greedy_mask, out=tmp)
        cand = np.flatnonzero(tmp)
        pid, loc = np.divmod(cand, S)
        keyloc = self.slive.take(cand)
        keyloc *= S
        keyloc += loc
        gkey = pid * self._pblk
        gkey += keyloc
        order = gkey.argsort(kind="stable")
        loc_s = loc[order]
        key_s = keyloc[order]
        counts = np.bincount(pid, minlength=self._P).tolist()
        off = 0
        for sim in sims:
            c = counts[sim._pid]
            rank_out[sim._pid] = (loc_s[off : off + c], key_s[off : off + c])
            off += c

    def _fused_rank_cb(self, sims: list, rb, rank_out: dict) -> None:
        S, B = self._S, self._B
        tmp = self._tmpbuf
        np.logical_and(rb, self._cb_mask, out=tmp)
        cand = np.flatnonzero(tmp)
        pid, loc = np.divmod(cand, S)
        # the reference's exact float operation order, per element
        u = self.slive.take(cand) / B
        age = self._nowvec.take(pid)
        age -= self.smtime.take(cand)
        np.maximum(age, 0.0, out=age)
        ratio = (1.0 - u) * age / (1.0 + u)
        np.negative(ratio, out=ratio)
        order = np.lexsort((loc, ratio, pid))
        loc_s = loc[order]
        key_s = ratio[order]
        counts = np.bincount(pid, minlength=self._P).tolist()
        off = 0
        for sim in sims:
            c = counts[sim._pid]
            rank_out[sim._pid] = (loc_s[off : off + c], key_s[off : off + c])
            off += c

    def _fused_commit(self, sims: list, plans: list) -> None:
        """Apply every point's dry-run plan in shared kernels.

        Per-point values are collected as one scalar per *point* and
        expanded to per-victim / per-block arrays with ``repeat``; the
        only per-victim python work left is extending the plan lists.
        """
        B = self._B
        csims: list = []
        nv_l: list = []
        sbv_l: list = []
        fbv_l: list = []
        pid_l: list = []
        bound_l: list = []
        flag_l: list = []
        maxpass = 0
        maxbound = 0.0
        vloc_parts: list = []
        vcnt_parts: list = []
        vpass_parts: list = []
        rloc_l: list = []
        rsb_l: list = []
        rstart_l: list = []
        rcnt_l: list = []
        pop_g: list = []
        for sim, plan in zip(sims, plans):
            (victims_all, victim_live, victim_pass, runs, popped,
             clean_list, out_seg, out_fill) = plan
            nv = len(victims_all)
            if nv == 0:
                continue
            csims.append(sim)
            nv_l.append(nv)
            sb = sim._sb
            sbv_l.append(sb)
            fbv_l.append(sim._fb)
            pid_l.append(sim._pid)
            vloc_parts.extend(victims_all)
            vcnt_parts.extend(victim_live)
            vpass_parts.extend(victim_pass)
            if sim.config.grouping == GroupingPolicy.AGE_SORT:
                bound = float(2 ** (int(sim.step_no).bit_length() + 1))
                flag = 1.0
                if victim_pass[-1] > maxpass:  # passes are nondecreasing
                    maxpass = victim_pass[-1]
                if bound > maxbound:
                    maxbound = bound
            else:
                bound = 0.0
                flag = 0.0
            bound_l.append(bound)
            flag_l.append(flag)
            for s, sstart, c in runs:
                rloc_l.append(s)
                rstart_l.append(sstart)
                rcnt_l.append(c)
            rsb_l.extend([sb] * len(runs))
            for p in popped:
                pop_g.append(p + sb)
            nz = nv - victim_live.count(0)
            tot_moved = sum(victim_live)
            sim.read_blocks += B * nz
            sim.moved_blocks += tot_moved
            if sim.measuring:
                sim.m_read += B * nz
                sim.m_moved += tot_moved
            sim.segments_cleaned += nv
            sim.clean_segs = clean_list
            sim.out_seg = out_seg
            sim.out_fill = out_fill
        if not csims:
            return

        # one stacked build per shape class instead of one np.array
        # call per collected list
        psim = np.array((nv_l, sbv_l, fbv_l, pid_l), dtype=np.int64)
        nvs = psim[0]
        vtab = np.array((vloc_parts, vcnt_parts, vpass_parts), dtype=np.int64)
        vloc = vtab[0]
        vcnt = vtab[1]
        vs = vloc + psim[1].repeat(nvs)
        u_all = vcnt / B
        off = 0
        for sim, nv in zip(csims, nv_l):
            sim._cu_parts.append(u_all[off : off + nv])
            off += nv

        # gather every victim's live files at once; rows are global
        # segments, stored slot values are local file ids
        slot2 = self.slots[(vs * B)[:, None] + self._slot_ids]
        fb_v = psim[2].repeat(nvs)
        slot2g = slot2 + fb_v[:, None]
        alive = self.fseg.take(slot2g) == vloc[:, None]
        alive &= self.fslot.take(slot2g) == self._slot_ids
        alive &= slot2 >= 0  # empty slots must not alias other points
        moved_g = slot2g[alive]
        mtimes = self.fmtime.take(moved_g)
        fb_e = fb_v.repeat(vcnt)

        total = len(moved_g)
        if total and maxbound:
            # one composite stable sort orders all points' move streams
            # at once: key = pid*PB + pass*bound + mtime*flag. Every
            # addend is an integer below 2**53 and PB bounds any
            # point's subkey, so the float64 sum is exact and orders
            # (point, pass, mtime) lexicographically; the zero flag and
            # bound freeze non-age-sorting points in gather order. With
            # no age-sorting point in the cohort the gather order is
            # already final and the sort is skipped.
            PB = maxbound * float(2 ** (maxpass + 1).bit_length())
            bf = np.array((bound_l, flag_l))
            key = vtab[2] * bf[0].repeat(nvs)
            key += (psim[3] * PB).repeat(nvs)
            key = key.repeat(vcnt)
            key += mtimes * bf[1].repeat(nvs).repeat(vcnt)
            order = key.argsort(kind="stable")
            moved_g = moved_g[order]
            mtimes = mtimes[order]
            fb_e = fb_e[order]

        self.slive[vs] = 0
        self.sfill[vs] = 0
        self.smtime[vs] = 0.0
        self.clean[vs] = True
        self.inlog[vs] = False
        if pop_g:
            pa = np.array(pop_g, dtype=np.int64)
            self.clean[pa] = False
            self.inlog[pa] = True

        if total:
            self._ensure_big(total)
            rtab = np.array((rloc_l, rsb_l, rstart_l, rcnt_l), dtype=np.int64)
            rloc = rtab[0]
            rglob = rloc + rtab[1]
            rstart = rtab[2]
            rcnt = rtab[3]
            ends = np.cumsum(rcnt)
            begins = ends - rcnt
            dest_loc = rloc.repeat(rcnt)
            dest_slot = self._bigar[:total] - (begins - rstart).repeat(rcnt)
            self.fseg[moved_g] = dest_loc
            self.fslot[moved_g] = dest_slot
            dest_g = rglob.repeat(rcnt)
            flat = dest_g * B
            flat += dest_slot
            self.slots[flat] = moved_g - fb_e
            np.add.at(self.slive, rglob, rcnt)
            self.sfill[rglob] = rstart + rcnt  # chronological: last wins
            tops = np.maximum.reduceat(mtimes, begins)
            np.maximum.at(self.smtime, rglob, tops)


def run_fleet(pairs: list) -> list:
    """Run ``(config, pattern)`` points fused in one process.

    Returns one :class:`SimResult` per input, each byte-for-byte equal
    to ``FastSimulator(config, pattern).run()``. Points are grouped by
    disk geometry (the fused kernels require congruent ``num_segments``
    × ``blocks_per_segment``); singleton groups run solo.
    """
    if not pairs:
        return []
    groups: dict = {}
    for i, (cfg, _pat) in enumerate(pairs):
        groups.setdefault(
            (cfg.num_segments, cfg.blocks_per_segment), []
        ).append(i)
    results: list = [None] * len(pairs)
    for idxs in groups.values():
        if len(idxs) == 1:
            i = idxs[0]
            cfg, pat = pairs[i]
            results[i] = FastSimulator(cfg, pat).run()
        else:
            fleet = _Fleet([pairs[i] for i in idxs])
            for i, res in zip(idxs, fleet.run()):
                results[i] = res
    return results
