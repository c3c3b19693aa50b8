"""The segment-lifecycle ledger: every segment's biography, live.

The paper's argument lives in *distributions* — Figure 6's segment
utilization distribution under cost-benefit cleaning, Table 2's
"utilization at cleaning time" production statistics, the
age-vs-utilization bimodality that motivates the policy. The flat
counters give totals; the ledger reconstructs lives.

It subscribes to the tracer (``log.segment_open`` / ``log.write`` /
``clean.segment`` / ``clean.quarantine``) for lifecycle edges and
installs a :class:`~repro.core.seg_usage.SegmentUsageTable` observer for
byte-level liveness, maintaining per segment: birth sequence number,
block kinds written during its life, bounded utilization-over-time
samples, age at cleaning, and death cause. From closed lives it derives
the Figure 6 distribution and the Table 2 summary via the *same*
arithmetic as the legacy counters (:func:`repro.obs.derive.cleaning_summary`),
so the two paths agree bit-identically — and the watchdog can hold them
to that continuously.

The byte mirror tracks **every** segment (not just ones with an open
life), so ``total_live_bytes()`` and ``utilization_histogram()`` must
equal the usage table's own answers exactly, at any instant.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.obs.derive import cleaning_summary
from repro.obs.events import (
    CLEAN_QUARANTINE,
    CLEAN_SEGMENT,
    FLASH_ERASE,
    FLASH_TRIM,
    LOG_SEGMENT_OPEN,
    LOG_WRITE,
    NVM_APPEND,
    NVM_TRUNCATE,
    Event,
)

#: Cap on utilization-over-time samples retained per life; when full,
#: every other sample is discarded and the stride doubles, keeping a
#: bounded, evenly thinned history however long the life runs.
MAX_SAMPLES = 64


@dataclass
class SegmentLife:
    """One segment's biography from log-open to cleaning (or quarantine)."""

    segment: int
    opened_at: float
    birth_seq: int | None = None
    writes: int = 0
    blocks_by_kind: dict[str, int] = field(default_factory=dict)
    #: tenant -> blocks written into this segment on that tenant's
    #: behalf (``log.write`` events emitted inside a tenant scope);
    #: blocks written outside any scope are not tenant-attributed.
    blocks_by_tenant: dict[str, int] = field(default_factory=dict)
    live_bytes: int = 0
    last_write: float = 0.0
    #: (time, live_bytes) samples, thinned to at most MAX_SAMPLES
    samples: list[tuple[float, int]] = field(default_factory=list)
    death_cause: str | None = None  # "cleaned" | "cleaned-empty" | "quarantined"
    death_time: float | None = None
    death_utilization: float | None = None
    age_at_death: float | None = None
    #: opened by the cold (cleaner-output) cursor under hot/cold segregation
    cold: bool = False
    #: the file system TRIMmed this segment after its death
    trimmed: bool = False

    @property
    def closed(self) -> bool:
        return self.death_cause is not None


class SegmentLedger:
    """Live per-segment history, fed by trace events + seg-usage updates."""

    def __init__(self) -> None:
        self.segment_bytes: int | None = None
        #: open lives by segment number
        self.lives: dict[int, SegmentLife] = {}
        #: closed lives, in death order
        self.history: list[SegmentLife] = []
        #: mirror of CleanerStats.cleaned_utilizations, in event order
        self.cleaned_utilizations: list[float] = []
        #: segments retired by media errors (never to be reopened)
        self.quarantined: set[int] = set()
        #: byte-level mirror of the usage table: seg -> (live, clean, quar)
        self._mirror: dict[int, tuple[int, bool, bool]] = {}
        self._sample_stride: dict[int, int] = {}
        self._fs = None
        # Flash lifecycle totals (all zero off flash).
        self.erase_events = 0
        self.erases_by_reason: dict[str, int] = {}
        self.trim_events = 0
        self.trim_blocks = 0
        # NVM staging lifecycle totals (all zero without the board).
        # Conservation view for the watchdog/report: every record that
        # enters the staging log (append) must leave it via exactly one
        # truncate after a covering disk flush — destaged can never
        # exceed staged, and at quiesce the two agree.
        self.nvm_appends = 0
        self.nvm_bytes_staged = 0
        self.nvm_truncates = 0
        self.nvm_records_destaged = 0
        self.nvm_peak_used = 0
        #: most recent closed life per segment, for TRIM annotation
        self._last_closed: dict[int, SegmentLife] = {}

    def install(self, obs) -> "SegmentLedger":
        """Subscribe to an :class:`~repro.obs.observation.Observation`."""
        obs.subscribe(self)
        return self

    # ------------------------------------------------------------------
    # wiring

    def on_attach(self, fs) -> None:
        """Mirror the usage table of a newly attached LFS instance."""
        if not hasattr(fs, "usage"):  # FFS baseline has no segments
            return
        self._fs = fs
        self.segment_bytes = fs.usage.segment_bytes
        fs.usage.observer = self.on_usage
        for seg_no in range(fs.usage.num_segments):
            rec = fs.usage.get(seg_no)
            self._mirror[seg_no] = (rec.live_bytes, rec.clean, rec.quarantined)
            if rec.quarantined:
                self.quarantined.add(seg_no)

    def on_usage(self, seg_no: int, rec, when: float | None) -> None:
        """SegmentUsageTable observer: keep the byte mirror exact."""
        self._mirror[seg_no] = (rec.live_bytes, rec.clean, rec.quarantined)
        if rec.quarantined:
            self.quarantined.add(seg_no)
        life = self.lives.get(seg_no)
        if life is not None and not life.closed:
            life.live_bytes = rec.live_bytes
            life.last_write = rec.last_write
            self._sample(life, when if when is not None else rec.last_write)

    def _sample(self, life: SegmentLife, when: float) -> None:
        stride = self._sample_stride.setdefault(life.segment, 1)
        life.samples.append((when, life.live_bytes))
        if len(life.samples) > MAX_SAMPLES:
            life.samples = life.samples[::2]
            self._sample_stride[life.segment] = stride * 2

    # ------------------------------------------------------------------
    # event stream

    def on_event(self, event: Event) -> None:
        kind = event.kind
        if kind == LOG_SEGMENT_OPEN:
            self._open_life(event)
        elif kind == LOG_WRITE:
            self._record_write(event)
        elif kind == CLEAN_SEGMENT:
            self._close_life(
                event,
                cause="cleaned-empty" if event.fields.get("empty") else "cleaned",
                utilization=event.fields["utilization"],
            )
        elif kind == CLEAN_QUARANTINE:
            self._close_life(event, cause="quarantined", utilization=None)
            self.quarantined.add(event.fields["segment"])
        elif kind == FLASH_ERASE:
            self.erase_events += 1
            reason = event.fields.get("reason", "?")
            self.erases_by_reason[reason] = self.erases_by_reason.get(reason, 0) + 1
        elif kind == FLASH_TRIM:
            self.trim_events += 1
            self.trim_blocks += event.fields.get("blocks", 0)
            life = self._last_closed.get(event.fields["segment"])
            if life is not None:
                life.trimmed = True
        elif kind == NVM_APPEND:
            self.nvm_appends += 1
            self.nvm_bytes_staged += event.fields.get("bytes", 0)
            self.nvm_peak_used = max(self.nvm_peak_used, event.fields.get("used", 0))
        elif kind == NVM_TRUNCATE:
            self.nvm_truncates += 1
            self.nvm_records_destaged += event.fields.get("records", 0)

    def _open_life(self, event: Event) -> None:
        seg_no = event.fields["segment"]
        stale = self.lives.pop(seg_no, None)
        if stale is not None:  # should not happen; keep the evidence
            stale.death_cause = "reopened"
            stale.death_time = event.time
            self.history.append(stale)
        self._sample_stride.pop(seg_no, None)
        mirror = self._mirror.get(seg_no)
        life = SegmentLife(segment=seg_no, opened_at=event.time)
        life.cold = bool(event.fields.get("cold"))
        if mirror is not None:
            life.live_bytes = mirror[0]
        self.lives[seg_no] = life

    def _record_write(self, event: Event) -> None:
        life = self.lives.get(event.fields["segment"])
        if life is None or life.closed:
            return
        life.writes += 1
        if life.birth_seq is None:
            life.birth_seq = event.fields.get("seq")
        for kind_name, count in event.fields.get("kinds", {}).items():
            life.blocks_by_kind[kind_name] = life.blocks_by_kind.get(kind_name, 0) + count
        tenant = event.fields.get("tenant")
        if tenant is not None:
            life.blocks_by_tenant[tenant] = (
                life.blocks_by_tenant.get(tenant, 0) + event.fields.get("blocks", 0)
            )

    def _close_life(self, event: Event, *, cause: str, utilization) -> None:
        seg_no = event.fields["segment"]
        if utilization is not None:
            # Same float the cleaner appended to its own counter at the
            # same instant — the bit-identity the watchdog holds us to.
            self.cleaned_utilizations.append(utilization)
        life = self.lives.pop(seg_no, None)
        if life is None:
            # A segment written before this ledger attached (e.g. cleaned
            # right after a remount): synthesize a stub so death
            # statistics still count it.
            life = SegmentLife(segment=seg_no, opened_at=event.time)
            mirror = self._mirror.get(seg_no)
            if mirror is not None:
                life.live_bytes = mirror[0]
        life.death_cause = cause
        life.death_time = event.time
        life.death_utilization = utilization
        life.age_at_death = max(0.0, event.time - life.last_write)
        self.history.append(life)
        self._last_closed[seg_no] = life

    # ------------------------------------------------------------------
    # derived views

    def total_live_bytes(self) -> int:
        """Live bytes across the mirror; must equal the usage table's."""
        return sum(live for live, _clean, _quar in self._mirror.values())

    def live_bytes_of(self, seg_no: int) -> int:
        """Mirrored live bytes of one segment (0 if never seen)."""
        entry = self._mirror.get(seg_no)
        return entry[0] if entry is not None else 0

    def utilization_histogram(self, bins: int = 20) -> list[int]:
        """Live per-segment utilization histogram from the mirror.

        Same binning as ``SegmentUsageTable.utilization_histogram`` (clean
        and quarantined segments excluded), so the two are comparable
        integer-for-integer.
        """
        counts = [0] * bins
        if not self.segment_bytes:
            return counts
        for live, clean, quarantined in self._mirror.values():
            if clean or quarantined:
                continue
            u = min(1.0, live / self.segment_bytes)
            counts[min(bins - 1, int(u * bins))] += 1
        return counts

    def figure6_distribution(self, bins: int = 20) -> list[int]:
        """Figure 6: distribution of segment utilization *at cleaning*."""
        counts = [0] * bins
        for u in self.cleaned_utilizations:
            counts[min(bins - 1, int(u * bins))] += 1
        return counts

    def table2_summary(self) -> dict:
        """Table 2's cleaning stats via the shared derive arithmetic."""
        return cleaning_summary(self.cleaned_utilizations)

    def death_causes(self) -> dict[str, int]:
        causes: dict[str, int] = {}
        for life in self.history:
            causes[life.death_cause] = causes.get(life.death_cause, 0) + 1
        return causes

    def stats(self) -> dict:
        """Summary dict for run reports."""
        ages = [l.age_at_death for l in self.history if l.age_at_death is not None]
        writes = [l.writes for l in self.history]
        out = {
            "lives_open": len(self.lives),
            "lives_closed": len(self.history),
            "death_causes": self.death_causes(),
            "quarantined": sorted(self.quarantined),
            "mean_age_at_death": (sum(ages) / len(ages)) if ages else 0.0,
            "mean_writes_per_life": (sum(writes) / len(writes)) if writes else 0.0,
            "total_live_bytes": self.total_live_bytes(),
            "segments_cleaned": len(self.cleaned_utilizations),
        }
        if self.erase_events or self.trim_events:
            all_lives = list(self.lives.values()) + self.history
            out["flash"] = {
                "erase_events": self.erase_events,
                "erases_by_reason": dict(sorted(self.erases_by_reason.items())),
                "trim_events": self.trim_events,
                "trim_blocks": self.trim_blocks,
                "lives_cold": sum(1 for l in all_lives if l.cold),
                "lives_trimmed": sum(1 for l in self.history if l.trimmed),
            }
        if self.nvm_appends or self.nvm_truncates:
            out["nvm"] = {
                "appends": self.nvm_appends,
                "bytes_staged": self.nvm_bytes_staged,
                "truncates": self.nvm_truncates,
                "records_destaged": self.nvm_records_destaged,
                "records_in_flight": self.nvm_appends - self.nvm_records_destaged,
                "peak_used_bytes": self.nvm_peak_used,
            }
        return out
