"""Workloads and metrics of the campaign benchmark.

`BENCHMARK.json` at the repository root is generated from these tables by
`python3 campaignbench/run.py --write-benchmark-json`; edit them here, not
there.  This module does not import fpselberg, so the file can be written
without the program.
"""

from __future__ import annotations

from dataclasses import dataclass

COMMAND = ["python3", "campaignbench/run.py"]
PATHS = ["campaignbench"]
RUN_SECONDS = 30


@dataclass(frozen=True)
class Campaign:
    """One `run_campaign` call.  samples=None means exhaustive."""

    name: str
    p: int
    k: tuple[int, ...] | None = None
    samples: int | None = None


@dataclass(frozen=True)
class Workload:
    why: str
    full: tuple[Campaign, ...]
    tiny: tuple[Campaign, ...]


# Sizes are chosen so that one repetition takes 4-9 s on one core: the
# sample is large enough that which points a seed picks moves the wall by a
# few percent, and a run of RUN_SECONDS still holds at least three
# repetitions.
WORKLOADS = {
    "main_dense": Workload(
        why="main k=(3,2) p=13, 36 sampled points: large dense tensors, engine-bound, "
            "no weighted integrals",
        full=(Campaign("main", 13, (3, 2), 36),),
        tiny=(Campaign("main", 13, (3, 2), 2),),
    ),
    "main_chain": Workload(
        why="main k=(3,2,1) p=11, 96 sampled points: three-group chain where per-axis "
            "projection keeps the live tensor far below the 32 M slot cap box",
        full=(Campaign("main", 11, (3, 2, 1), 96),),
        tiny=(Campaign("main", 11, (3, 2, 1), 2),),
    ),
    "sweep_small": Workload(
        why="thousands of cheap points over seven campaigns: per-point overhead in "
            "admissible, formulas, master polynomials, harness; only user of weighted integrals",
        full=(
            Campaign("thm_4_111", 7),
            Campaign("thm_3_11", 7),
            Campaign("main", 13, (2, 1)),
            Campaign("main", 11, (3, 1)),
            Campaign("i000", 11, (3, 1), 30),
            Campaign("relations_II0", 11, (3, 1), 16),
            Campaign("relations_S1S2", 11, (2, 1), 20),
        ),
        tiny=(
            Campaign("thm_4_111", 5),
            Campaign("thm_3_11", 5),
            Campaign("main", 7, (2, 1)),
            Campaign("main", 7, (3, 1)),
            Campaign("i000", 11, (3, 1), 2),
            Campaign("relations_II0", 11, (3, 1), 1),
            Campaign("relations_S1S2", 11, (2, 1), 1),
        ),
    ),
}


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    bound: float | None = None


# Reported with --trace 0.  A failed point (a mismatch, or a capacity skip of
# a point whose closed form is defined) is carried by the result's
# `failed`/`attempted` counts; failed_ratio is printed and saved with the
# result but is not a metric here, because a metric must never read 0.
END_TO_END = (
    Metric("setup_s", "s", "lower", 0.25),
    Metric("wall_s", "s", "lower", 0.25),
    Metric("points_per_s", "1/s", "higher", 0.25),
    Metric("peak_rss_mb", "MB", "lower", 0.05),
)

# Reported with --trace 1, from the traced repetitions of the run.
PER_LAYER = (
    Metric("mpoly.busy_s", "s", "lower"),
    Metric("mpoly.calls", "count", "lower"),
    Metric("mpoly.call_ms.p50", "ms", "lower"),
    Metric("mpoly.call_ms.pNN", "ms", "lower"),
    Metric("mpoly.target_slots", "slots_computed", "lower"),
    Metric("integrals.weighted_calls", "count", "lower"),
    Metric("integrals.weighted_summands", "count", "lower"),
    Metric("integrals.build_s", "s", "lower"),
    Metric("integrals.self_s", "s", "lower"),
    Metric("formulas.busy_s", "s", "lower"),
    Metric("formulas.calls", "count", "lower"),
    Metric("admissible.busy_s", "s", "lower"),
    Metric("admissible.calls", "count", "lower"),
    Metric("harness.self_s", "s", "lower"),
    Metric("trace.wall_s", "s", "lower"),
    Metric("trace.overhead_s", "s", "lower"),
)


def benchmark_json() -> dict:
    """The contents of BENCHMARK.json."""
    return {
        "command": COMMAND,
        "paths": PATHS,
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": name, "why": w.why} for name, w in WORKLOADS.items()],
        "end_to_end": [{"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
                       for m in END_TO_END],
        "per_layer": [{"name": m.name, "unit": m.unit, "better": m.better} for m in PER_LAYER],
    }
