"""Figure 7 — write cost with the cost-benefit policy.

Paper: cost-benefit reduces the write cost by as much as 50% over greedy
under hot-and-cold access, and a log-structured file system out-performs
even an improved Unix FFS (write cost 4) at high disk utilizations.
"""

from conftest import record_bench, run_once_timed, save_result

from repro.analysis.figures import fig07_costbenefit_writecost
from repro.simulator.sweep import resolve_workers
from repro.simulator.writecost import FFS_IMPROVED_WRITE_COST

UTILS = (0.2, 0.4, 0.6, 0.7, 0.75, 0.8, 0.85, 0.9)


def test_fig07_costbenefit_writecost(benchmark):
    workers = resolve_workers(None, njobs=2 * len(UTILS))
    result, wall = run_once_timed(
        benchmark, lambda: fig07_costbenefit_writecost(UTILS, workers=workers)
    )
    save_result("fig07_costbenefit_writecost", result.render())
    record_bench(
        "fig07_costbenefit_writecost",
        wall_seconds=wall,
        workers=workers,
        engine="vectorized",
        steps=result.sim_steps,
        write_costs={name: list(curve) for name, curve in result.curves.items()},
    )

    greedy = dict(result.curves["LFS greedy"])
    costben = dict(result.curves["LFS cost-benefit"])
    # substantial win at high utilization ("as much as 50%")
    assert costben[0.75] < 0.8 * greedy[0.75]
    assert costben[0.85] < 0.85 * greedy[0.85]
    # beats the improved-FFS reference around the paper's 75% point
    assert costben[0.75] < FFS_IMPROVED_WRITE_COST
