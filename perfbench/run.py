"""The repository's benchmark: one workload per call, metrics as JSON.

Usage, from the repository root::

    python3 perfbench/run.py --workload serve-wide --seed 1 --seconds 10 --trace 0

Workloads: ``serve-wide``, ``serve-sync``, ``sweep``, ``torture`` (see
``workloads.py``; why each exists is in ``BENCHMARK.json``). The program
is imported from ``src/`` next to this directory; nothing is installed
or built, and the benchmark writes no files.

``--trace 0`` repeats the workload's timed call until ``--seconds`` of
timed work are spent and reports the end-to-end metrics:

- ``ops_per_s``: work units per second of one timed call, at a nominal
  host speed (see ``measure``). The unit is a served request
  (``serve-*``), a simulator step (``sweep``) or a verified crash point
  (``torture``);
- ``setup_s``: seconds from interpreter start to the first timed call:
  imports, input build, torture recording and one small warm-up call.
  It is the median of five set-ups: this process's own and four more in
  fresh interpreters (``--setup-only``), since imports happen once per
  process;
- ``peak_rss_mb``: peak resident memory of this process.

``--trace 1`` spends half the time untraced and half with every layer's
public functions wrapped in spans (``layers.py``), and reports the
per-layer metrics: calls, self time and share of wall time per layer,
the layers' counts and simulated times, the paper's ``write_cost``, and
``trace_overhead``.

The outputs of the first call in each half are checked in full (see
``workloads.py``), torture violations on every call, and every call with
the same seed must give the same digests and counts, traced or not. The
last line of output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.
"""

from __future__ import annotations

import time

_START = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

SRC = Path(__file__).resolve().parent.parent / "src"

#: set-ups per run; ``setup_s`` reports their median
SETUP_REPEATS = 5

#: a child process that does not finish its set-up within this is stuck
SETUP_TIMEOUT_S = 120

#: failed checks printed before the rest are only counted
MAX_PRINTED_ERRORS = 10

#: per-layer metrics the traced run reports on every workload, with units
#: (a layer the workload never enters reports zeros)
LAYER_METRICS = {
    "write_cost": "ratio",
    "core.flush.items": "count",
    "core.flush.items_per_flush": "count",
    "core.flush.us_per_item": "us",
    "core.nvstage.us_per_sync": "us",
    "core.nvstage.staged_fraction": "ratio",
    "server.frontend.dispatch_p50_us": "us",
    "server.frontend.dispatch_p999_us": "us",
    "server.frontend.sim_wait_p99_s": "sim_s",
    "sim_p99_s": "sim_s",
    "core.cleaner.live_blocks_moved": "count",
    "core.cleaner.empty_fraction": "ratio",
    "core.segments.blocks_written": "count",
    "core.cache.hit_rate": "ratio",
    "disk.device.blocks_read": "count",
    "sim_recovery_s": "sim_s",
    "simulator.steps": "count",
    "simulator.us_per_kstep": "us",
    "simulator.segments_cleaned": "count",
    "simulator.moved_blocks": "count",
    "other.self_s": "s",
    "other.share": "ratio",
    "trace_overhead": "ratio",
}


def per_layer_units(layer_names, causes) -> dict:
    """Every per-layer metric name -> unit, in report order."""
    units = {}
    for layer in layer_names:
        units[f"{layer}.calls"] = "count"
        units[f"{layer}.self_s"] = "s"
        units[f"{layer}.share"] = "ratio"
    for cause in causes:
        units[f"disk.device.sim_busy_s.{cause}"] = "sim_s"
    units.update(LAYER_METRICS)
    return units


def measure(workload, seconds: float, tracer=None) -> tuple[list, float]:
    """Call the workload until the next call would overrun ``seconds``.

    Returns the calls and the seconds of one call at the nominal host
    speed: the sum over its windows of that window's least scaled time
    (``WindowClock.scaled``) over the calls, which repeat window by window
    for one seed. The first call's outputs are checked in full. Garbage is
    collected before each call, untimed, so each starts from the same heap.
    """
    runs, best = [], None
    while True:
        gc.collect()
        run = workload.run(tracer, check=not runs)
        costs = run.clock.scaled()
        best = costs if best is None else list(map(min, best, costs))
        run.clock.release()
        runs.append(run)
        spent = sum(r.wall for r in runs)
        if spent + spent / len(runs) > seconds:
            return runs, sum(best)


def traced_metrics(traced, tracer, layer_names, units, overhead) -> dict:
    """Per-layer metrics from the traced calls, per call."""
    n = len(traced)
    wall_ns = sum(r.clock.work for r in traced) * 1e9
    values = dict.fromkeys(units, 0.0)
    values.update(traced[0].layer)
    covered = 0
    for layer in layer_names:
        calls, self_ns, _ = tracer.totals[layer]
        covered += self_ns
        values[f"{layer}.calls"] = calls / n
        values[f"{layer}.self_s"] = self_ns / n / 1e9
        values[f"{layer}.share"] = self_ns / wall_ns
    values["other.self_s"] = (wall_ns - covered) / n / 1e9
    values["other.share"] = (wall_ns - covered) / wall_ns

    def inclusive_us(layer):
        return tracer.totals[layer][2] / 1e3 / n

    if values["core.flush.items"]:
        values["core.flush.us_per_item"] = inclusive_us("core.flush") / values["core.flush.items"]
    if tracer.totals["core.nvstage"][0]:
        values["core.nvstage.us_per_sync"] = (
            inclusive_us("core.nvstage") / values["core.nvstage.calls"]
        )
    if values["simulator.steps"]:
        values["simulator.us_per_kstep"] = (
            inclusive_us("simulator") / (values["simulator.steps"] / 1e3)
        )
    dispatch = sorted(tracer.durations["server.frontend"])
    if dispatch:
        values["server.frontend.dispatch_p50_us"] = statistics.median(dispatch) / 1e3
        values["server.frontend.dispatch_p999_us"] = dispatch[int(0.999 * (len(dispatch) - 1))] / 1e3
    values["trace_overhead"] = overhead
    return values


def fresh_setup_seconds(args) -> float:
    """One more set-up, timed in a fresh interpreter."""
    child = subprocess.run(
        [sys.executable, __file__, "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", "0", "--setup-only"],
        capture_output=True, text=True, timeout=SETUP_TIMEOUT_S, check=True,
    )
    return json.loads(child.stdout.splitlines()[-1])["setup_s"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "repro").is_dir():
        print(f"perfbench: no program sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from layers import LAYER_NAMES, LayerTracer
    from workloads import WORKLOADS

    from repro.obs import CAUSES

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r} "
              f"(one of {', '.join(WORKLOADS)})", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload](args.seed)
    workload.prepare()
    own_setup_s = time.perf_counter() - _START
    if args.setup_only:
        print(json.dumps({"setup_s": own_setup_s}))
        return 0

    tracer = None
    if args.trace:
        runs, steady_s = measure(workload, args.seconds / 2)
        tracer = LayerTracer()
        traced, traced_s = measure(workload, args.seconds / 2, tracer)
    else:
        runs, steady_s = measure(workload, args.seconds)
    every = runs + traced if args.trace else runs

    errors = [msg for r in every for msg in r.errors]
    outcomes = {(r.digests, tuple(sorted(r.layer.items())), r.clock.count) for r in every}
    if len(outcomes) > 1:
        errors.append(f"same seed, {len(outcomes)} different outcomes over {len(every)} calls")
    failed = sum(r.failed for r in every) + sum(bool(r.errors) for r in every)
    failed += len(outcomes) > 1
    attempted = sum(r.attempted for r in every)

    print(f"{args.workload} seed={args.seed}: untraced calls "
          + " ".join(f"{r.wall:.2f}s" for r in runs)
          + (", traced " + " ".join(f"{r.wall:.2f}s" for r in traced) if args.trace else "")
          + f"; digests {' '.join(every[0].digests)}")
    for msg in errors[:MAX_PRINTED_ERRORS]:
        print(f"CHECK FAILED: {msg}")
    if len(errors) > MAX_PRINTED_ERRORS:
        print(f"CHECK FAILED: ... and {len(errors) - MAX_PRINTED_ERRORS} more")

    if args.trace:
        units = per_layer_units(LAYER_NAMES, CAUSES)
        values = traced_metrics(traced, tracer, LAYER_NAMES, units, traced_s / steady_s)
    else:
        units = {"ops_per_s": "ops/s", "setup_s": "s", "peak_rss_mb": "MB"}
        values = {
            "ops_per_s": runs[0].ops / steady_s,
            "setup_s": statistics.median([own_setup_s] + [
                fresh_setup_seconds(args) for _ in range(SETUP_REPEATS - 1)
            ]),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    for name, metric in metrics.items():
        print(f"  {name:44s} {metric['value']:>16.6g} {metric['unit']}")
    correct = not errors and failed == 0
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
