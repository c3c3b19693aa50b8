"""The benchmark's four workloads, each driven through one public entry point.

Every workload builds its inputs from the seed alone and runs in this
process, with no worker pool:

- ``serve-wide`` and ``serve-sync`` call :func:`repro.server.run_server`
  with a fresh :class:`~repro.obs.Observation` that a :class:`ServerProbe`
  subscribes to;
- ``sweep`` calls :func:`repro.simulator.sweep.run_sweep` on the
  vectorized engine;
- ``torture`` calls :func:`repro.torture.runner.run_torture` once per
  history, on recordings made during set-up.

A workload object has two steps. ``prepare`` is set-up: it builds the
inputs and makes one small warm-up call. ``run(tracer, check)`` makes the
timed call, with the layer spans installed around it if a tracer is
given, and returns a :class:`Run`. With ``check`` it then verifies the
outputs, untimed: the image a server run leaves, or the smallest sweep
point against the reference simulator. Torture violations are checked
on every call, as they come with the result.
"""

from __future__ import annotations

import math
import statistics
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field

from repro.core.errors import LFSError
from repro.core.filesystem import LFS
from repro.obs import CAUSES, Observation
from repro.obs.events import CACHE_FLUSH, CLEAN_SEGMENT, FS_SYNC, SERVER_DONE, SERVER_START
from repro.server import ServerConfig, WorkloadConfig, run_server
from repro.simulator.batch import _Fleet
from repro.simulator.model import SimConfig, Simulator
from repro.simulator.policies import GroupingPolicy, SelectionPolicy
from repro.simulator.sweep import (
    SweepPoint,
    derive_point_seed,
    make_pattern,
    result_digest,
    run_sweep,
)
from repro.tools.lfsck import check_filesystem
from repro.torture import runner as torture_runner
from repro.torture.oracle import DIR, snapshot_namespace
from repro.torture.workloads import record_workload


@dataclass
class Run:
    """What one timed call produced, reduced to what the benchmark reports."""

    #: the timed call's windows (see :class:`WindowClock`)
    clock: "WindowClock"
    ops: int                 # work units done: requests, steps or points
    attempted: int
    failed: int
    digests: tuple           # must repeat exactly for the same seed
    #: deterministic counts, simulated times and the paper's write cost,
    #: reported by the traced run; they too must repeat exactly
    layer: dict = field(default_factory=dict)
    #: untimed output checks that failed
    errors: list = field(default_factory=list)

    @property
    def wall(self) -> float:
        return self.clock.elapsed


#: iterations of the reference loop timed after every window
REFERENCE_LOOP = 100

#: windows on each side whose reference loops rate the host for a window
HOST_SPAN = 8

#: the reference loop's time at the nominal host speed: its uncontended
#: time on a 2.0 GHz Xeon VM
NOMINAL_REFERENCE_S = 5e-6


def reference_seconds() -> float:
    """Seconds of a fixed small loop: how fast the host runs right now."""
    start = time.perf_counter()
    total = 0
    for i in range(REFERENCE_LOOP):
        total += i * i
    return time.perf_counter() - start


class WindowClock:
    """Cuts one timed call into windows and samples the host's speed.

    Every call with the same seed does the same work window by window: a
    server call is cut as each request starts and completes, a sweep after
    each fused step, a torture run after each stage of each crash point.
    After each window the clock times :func:`reference_seconds`; that time
    is left out of the windows, and out of the layers' self times when a
    tracer is installed.
    """

    def __init__(self) -> None:
        self.windows: list[float] = []   # seconds of program work
        self.refs: list[float] = []      # reference loop after each window
        self.elapsed = 0.0               # the whole call, loops included
        self.work = 0.0                  # the windows' sum
        self.count = 0                   # the number of windows
        self.tracer = None
        self._start = self._last = 0.0

    def start(self) -> None:
        self._start = self._last = time.perf_counter()

    def mark(self) -> None:
        now = time.perf_counter()
        self.windows.append(now - self._last)
        self.refs.append(reference_seconds())
        self._last = time.perf_counter()
        if self.tracer is not None:
            self.tracer.exclude(self._last - now)

    def stop(self) -> None:
        self.mark()
        self.elapsed = self._last - self._start
        self.work = sum(self.windows)
        self.count = len(self.windows)

    def scaled(self) -> list[float]:
        """Each window's seconds at the nominal host speed.

        Other tenants of a shared host slow this process by up to half, in
        phases from milliseconds to tens of seconds, and a phase can cover
        a whole run. So each window's wall time is scaled by how fast the
        host ran around it: ``NOMINAL_REFERENCE_S`` over the median of the
        reference loops timed after the windows within ``HOST_SPAN`` of it.
        """
        loops = self.refs
        return [
            wall * NOMINAL_REFERENCE_S
            / statistics.median(loops[max(0, i - HOST_SPAN):i + HOST_SPAN + 1])
            for i, wall in enumerate(self.windows)
        ]

    def release(self) -> None:
        """Drop the per-window lists, keeping the totals."""
        self.windows, self.refs = [], []


@contextmanager
def marking(clock: WindowClock, owner, *attrs: str):
    """Close a window of ``clock`` after every call of each ``owner.attr``;
    the functions themselves are untouched."""
    originals = {attr: owner.__dict__[attr] for attr in attrs}

    def marked(original):
        def call(*args, **kwargs):
            result = original(*args, **kwargs)
            clock.mark()
            return result
        return call

    for attr, original in originals.items():
        setattr(owner, attr, marked(original))
    try:
        yield
    finally:
        for attr, original in originals.items():
            setattr(owner, attr, original)


def timed(tracer, call, clock: WindowClock, marker=None):
    """``call()``, timed on ``clock`` and traced if a tracer is given.

    Windows close at the caller's own hook or through ``marker`` (a
    :func:`marking`), and at the end of the call.
    """
    clock.tracer = tracer
    if tracer is not None:
        tracer.install()
    try:
        with marker or nullcontext():
            clock.start()
            result = call()
            clock.stop()
    finally:
        if tracer is not None:
            tracer.restore()
    return result


def ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def exact_quantile(values, q: float) -> float:
    """Nearest-rank quantile over every sample (0.0 when there are none)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


# ----------------------------------------------------------------------
# the server workloads


class ServerProbe:
    """Observation subscriber: keeps the file system and exact event streams."""

    def __init__(self, clock: WindowClock) -> None:
        self.fs = None
        self.clock = clock
        self.latencies: list[float] = []
        self.waits: list[float] = []
        self.flushes = 0
        self.flush_items = 0
        self.syncs = 0
        self.staged = 0
        self.segments_cleaned = 0
        self.empty_cleaned = 0

    def on_attach(self, fs) -> None:
        self.fs = fs

    def on_event(self, event) -> None:
        kind = event.kind
        if kind == SERVER_DONE:
            self.clock.mark()
            self.latencies.append(event.fields["latency"])
        elif kind == SERVER_START:
            self.clock.mark()
            self.waits.append(event.fields["wait"])
        elif kind == CACHE_FLUSH:
            self.flushes += 1
            self.flush_items += event.fields["items"]
        elif kind == FS_SYNC:
            self.syncs += 1
            self.staged += bool(event.fields["staged"])
        elif kind == CLEAN_SEGMENT:
            self.segments_cleaned += 1
            self.empty_cleaned += bool(event.fields["empty"])


def namespace_view(fs) -> dict:
    """``path -> (size, contents)`` for files, ``path -> DIR`` for directories."""
    view = snapshot_namespace(fs)
    return {
        path: value if value is DIR else (fs.stat(path).size, value)
        for path, value in view.items()
    }


class ServerWorkload:
    """A multi-tenant serving run: DRR over 8 tenants, 40% aggressor."""

    def __init__(self, seed: int, **shape) -> None:
        self.seed = seed
        self.shape = shape
        self.config = None

    def _config(self, **overrides) -> ServerConfig:
        shape = {**self.shape, **overrides}
        server = {k: shape.pop(k) for k in ("disk_headroom", "nvram") if k in shape}
        workload = WorkloadConfig(
            tenants=8, heavy_fraction=0.4, mode="closed", think_seconds=0.25,
            seed=self.seed, **shape,
        )
        return ServerConfig(workload=workload, policy="drr", cleaner=True, **server)

    def prepare(self) -> None:
        self.config = self._config()
        self._serve(self._config(clients=16, ops_per_client=4))

    def _serve(self, config: ServerConfig, tracer=None):
        obs = Observation(ring_capacity=4096)  # run_server's own default
        probe = ServerProbe(WindowClock())
        obs.subscribe(probe)
        result = timed(tracer, lambda: run_server(config, obs=obs), probe.clock)
        return result, obs, probe

    def run(self, tracer=None, check: bool = True) -> Run:
        result, obs, probe = self._serve(self.config, tracer)
        fs = probe.fs
        cleaner = fs.cleaner.stats
        layer = {
            "write_cost": fs.write_cost,
            "sim_p99_s": exact_quantile(probe.latencies, 0.99),
            "server.frontend.sim_wait_p99_s": exact_quantile(probe.waits, 0.99),
            "core.flush.items": probe.flush_items,
            "core.flush.items_per_flush": ratio(probe.flush_items, probe.flushes),
            "core.nvstage.staged_fraction": ratio(probe.staged, probe.syncs),
            "core.cleaner.live_blocks_moved": cleaner.live_blocks_moved,
            "core.cleaner.empty_fraction": ratio(probe.empty_cleaned, probe.segments_cleaned),
            "core.segments.blocks_written": fs.writer.stats.total_blocks,
            "core.cache.hit_rate": fs.cache.hit_rate,
            "disk.device.blocks_read": fs.disk.stats.blocks_read,
        }
        for cause in CAUSES:
            layer[f"disk.device.sim_busy_s.{cause}"] = obs.attribution.seconds.get(cause, 0.0)
        run = Run(
            clock=probe.clock,
            ops=result.requests,
            attempted=result.requests + result.failed,
            failed=result.failed,
            digests=(result.digest, result.latency_digest),
            layer=layer,
        )
        if check:
            run.errors = self._check_image(fs)
        return run

    @staticmethod
    def _check_image(fs) -> list[str]:
        """Unmount, lfsck, remount: the image must hold exactly the live view."""
        before = namespace_view(fs)
        disk = fs.disk
        fs.unmount()
        report = check_filesystem(disk)
        errors = [f"lfsck after serving: {msg}" for msg in report.errors]
        if not report.ok and not errors:
            errors.append("lfsck after serving: not clean")
        try:
            after = namespace_view(LFS.mount(disk))
        except LFSError as exc:
            return errors + [f"remount after serving failed: {exc}"]
        if after != before:
            changed = sorted(set(before) ^ set(after)) or sorted(
                p for p in before if before[p] != after[p]
            )
            errors.append(f"remount differs from the served view at {changed[:3]}")
        return errors


# ----------------------------------------------------------------------
# the simulator sweep


class SweepWorkload:
    """Figures 4-7 grid through the vectorized fleet, checked on the reference."""

    UTILS = (0.4, 0.6, 0.75, 0.85)
    POLICIES = (SelectionPolicy.GREEDY, SelectionPolicy.COST_BENEFIT)
    PATTERNS = ("uniform", "hot-cold")

    def __init__(self, seed: int, **shape) -> None:
        self.seed = seed
        self.shape = shape
        self.points: list[SweepPoint] = []

    def _points(self, **overrides) -> list[SweepPoint]:
        shape = {**self.shape, **overrides}
        return [
            SweepPoint(
                SimConfig(
                    utilization=util,
                    selection=selection,
                    grouping=GroupingPolicy.AGE_SORT,
                    seed=derive_point_seed(self.seed, util, selection.value, pattern),
                    **shape,
                ),
                pattern,
            )
            for util in self.UTILS
            for selection in self.POLICIES
            for pattern in self.PATTERNS
        ]

    def prepare(self) -> None:
        self.points = self._points()
        # numpy's first-call kernels, on a grid small enough to be instant
        run_sweep(
            self._points(num_segments=20, blocks_per_segment=16, max_windows=2),
            workers=1, engine="vectorized",
        )

    def run(self, tracer=None, check: bool = True) -> Run:
        clock = WindowClock()
        results = timed(
            tracer, lambda: run_sweep(self.points, workers=1, engine="vectorized"),
            clock, marking(clock, _Fleet, "_fused_batch", "_fused_clean"),
        )
        run = Run(
            clock=clock,
            ops=sum(r.total_steps for r in results),
            attempted=len(results),
            failed=0,
            digests=(result_digest(results),),
            layer={
                "write_cost": sum(r.write_cost for r in results) / len(results),
                "simulator.segments_cleaned": sum(r.segments_cleaned for r in results),
                "simulator.moved_blocks": sum(r.moved_blocks for r in results),
                "simulator.steps": sum(r.total_steps for r in results),
            },
        )
        if check:
            # The point with the fewest steps, re-run on the reference engine.
            i = min(range(len(results)), key=lambda k: results[k].total_steps)
            point = self.points[i]
            if Simulator(point.config, make_pattern(point.pattern)).run() != results[i]:
                run.errors.append(f"sweep point {i} differs from the reference simulator")
        return run


# ----------------------------------------------------------------------
# crash torture


class TortureWorkload:
    """Sampled clean/torn/reorder crash points of the ``cleaning`` workload.

    One call explores ``sample`` points of each of ``histories`` recorded
    histories, each recorded under its own seed derived from the run's
    seed: one history's cost depends on how much its cleaner happened to
    run, and several even that out.
    """

    WORKLOAD = "cleaning"
    #: the runner's steps of one crash point, each closing a timing window
    STAGES = ("crash_state_bounds", "snapshot_namespace", "verify_recovered",
              "check_filesystem", "explore_point")

    def __init__(self, seed: int, *, histories: int, sample: int) -> None:
        self.seeds = [derive_point_seed(seed, "torture", k) for k in range(histories)]
        self.sample = sample
        self.recordings: dict = {}

    @contextmanager
    def _recorded(self):
        """Let ``run_torture`` reuse the set-up recordings instead of re-recording."""
        def reuse(workload, seed, **kwargs):
            if workload == self.WORKLOAD and seed in self.recordings and not any(kwargs.values()):
                return self.recordings[seed]
            return record_workload(workload, seed, **kwargs)

        torture_runner.record_workload = reuse
        try:
            yield
        finally:
            torture_runner.record_workload = record_workload

    def _explore(self, sample: int) -> list:
        return [
            torture_runner.run_torture(self.WORKLOAD, sample=sample, seed=seed, workers=1)
            for seed in self.seeds
        ]

    def prepare(self) -> None:
        self.recordings = {seed: record_workload(self.WORKLOAD, seed) for seed in self.seeds}
        with self._recorded():
            self._explore(sample=1)

    def run(self, tracer=None, check: bool = True) -> Run:
        clock = WindowClock()
        with self._recorded():
            results = timed(
                tracer, lambda: self._explore(self.sample),
                clock, marking(clock, torture_runner, *self.STAGES),
            )
        points = [p for result in results for p in result.points]
        bad = [p for p in points if not p.ok]
        run = Run(
            clock=clock,
            ops=len(points),
            attempted=len(points),
            failed=len(bad),
            digests=tuple(result.outcome_digest for result in results),
            layer={
                "write_cost": self._recorded_write_cost(),
                "sim_recovery_s": sum(p.recovery_elapsed for p in points) / len(points),
            },
        )
        if bad:
            run.errors.append(
                f"{len(bad)} crash points with violations, first at cut "
                f"{bad[0].cut}/{bad[0].variant}: {bad[0].violations[0]}"
            )
        return run

    def _recorded_write_cost(self) -> float:
        """Bytes the recorded histories wrote to disk per byte of file data."""
        written = data = 0
        for rec in self.recordings.values():
            written += rec.total_blocks * rec.config.block_size
            data += sum(len(op.data) for op in rec.ops if op.data)
        return written / data


# ----------------------------------------------------------------------

#: workload name -> factory(seed); the sizes are fixed here
WORKLOADS = {
    "serve-wide": lambda seed: ServerWorkload(
        seed, clients=400, files_per_client=2, file_size=20480, ops_per_client=4,
        disk_headroom=0.8,
    ),
    "serve-sync": lambda seed: ServerWorkload(
        seed, clients=256, files_per_client=2, file_size=1024, ops_per_client=12,
        mix=(0.6, 0.4, 0.0), sync_writes=True, nvram=True, disk_headroom=0.3,
    ),
    "sweep": lambda seed: SweepWorkload(
        seed, num_segments=200, blocks_per_segment=128,
        warmup_factor=1.0, measure_factor=0.5, max_windows=2,
    ),
    "torture": lambda seed: TortureWorkload(seed, histories=4, sample=40),
}
