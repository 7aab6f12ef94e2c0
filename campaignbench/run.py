"""Campaign benchmark for fpselberg.

    python3 campaignbench/run.py --workload main_dense --seed 1 --seconds 30 --trace 0
    python3 campaignbench/run.py --write-benchmark-json

Runs the workload's verification campaigns through `harness.run_campaign`,
in this process with jobs=1, repeating the whole workload until `--seconds`
have been spent (at least three repetitions, or two untraced/traced pairs
with `--trace 1`).  Every report is checked; the run exits 1 on any
mismatch and 2 when it cannot run or check its results.  Otherwise the last
line of standard output is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`: the end-to-end metrics with
`--trace 0`, the per-layer metrics with `--trace 1`.  Earlier lines, and a
file under campaignbench/out/, record the environment, the per-campaign
accounting and, for traced runs, the spans of the last traced repetition.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import suite

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"
BUDGET_ENV = "FP_SELBERG_MEM_BUDGET"

MIN_REPS = 3
MIN_TRACED_PAIRS = 2
MIN_SETUP_PROBES = 5
# Layers whose self times must add up to the traced wall of a repetition.
ACCOUNTED_LAYERS = ("harness", "admissible", "formulas", "integrals", "integrals.build", "mpoly")


class BenchmarkError(Exception):
    """The benchmark cannot run, or cannot check what it measured."""


class Mismatch(Exception):
    """A campaign reported a failed check."""


def load_program():
    """Import fpselberg from this checkout's sources, never from elsewhere."""
    if not (SRC / "fpselberg" / "__init__.py").is_file():
        raise BenchmarkError(f"fpselberg sources not found under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import fpselberg
    if not Path(fpselberg.__file__).resolve().is_relative_to(SRC):
        raise BenchmarkError(f"fpselberg was imported from {fpselberg.__file__}, not {SRC}")
    return fpselberg


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def environment(fpselberg, args) -> dict:
    import numpy
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "workload": args.workload,
        "seed": args.seed,
        "size": args.size,
        "seconds": args.seconds,
        "trace": args.trace,
        BUDGET_ENV: os.environ.get(BUDGET_ENV),
        "slot_budget": fpselberg.slot_budget(),
    }


def probe_setup(primes: list[int]) -> float:
    """Seconds a fresh interpreter takes to import numpy and fpselberg and
    build the workload's FpContexts."""
    done = subprocess.run(
        [sys.executable, str(BENCH_DIR / "setup_probe.py"), str(SRC), *map(str, primes)],
        capture_output=True, text=True, timeout=120)
    if done.returncode != 0:
        raise BenchmarkError(f"setup probe failed: {done.stderr.strip()}")
    return float(done.stdout.split()[-1])


def campaign_specs(harness, workload: str, seed: int, size: str) -> list:
    w = suite.WORKLOADS[workload]
    return [harness.CampaignSpec(c.name, c.p, c.k, exhaustive=c.samples is None,
                                 samples=c.samples or 0, seed=seed, jobs=1)
            for c in (w.tiny if size == "tiny" else w.full)]


@dataclass
class Repetition:
    wall: float          # first campaign start to last report
    checked: int
    tracer: object = None


class Ledger:
    """Accounting over every repetition of a run."""

    def __init__(self, accounting):
        self._accounting = accounting
        self._domain: list[int] | None = None
        self.first: list = []
        self.attempted = 0
        self.failed = 0

    def add(self, specs, reports) -> int:
        """Checks one repetition's reports; returns its checked points."""
        acc = self._accounting
        if self._domain is None:
            self._domain = [acc.domain_skips(s, r) for s, r in zip(specs, reports)]
        tallies = [acc.tally(s, r, d) for s, r, d in zip(specs, reports, self._domain)]
        for spec, report, t in zip(specs, reports, tallies):
            if t.mismatches:
                raise Mismatch(f"{spec.campaign} p={spec.p} k={spec.k}: {t.mismatches} "
                               f"mismatches, first {report.failures[0]}")
        if not self.first:
            self.first = list(zip(specs, tallies))
        self.attempted += sum(t.attempted for t in tallies)
        self.failed += sum(t.failed for t in tallies)
        return sum(t.checked for t in tallies)


def run_repetition(harness, specs, tracer=None) -> tuple[float, list]:
    reports = []
    start = time.perf_counter()
    for spec in specs:
        if tracer is None:
            reports.append(harness.run_campaign(spec))
            continue
        idx = tracer.begin(spec.campaign, "harness")
        try:
            reports.append(harness.run_campaign(spec))
        finally:
            tracer.end(idx)
    return time.perf_counter() - start, reports


def measure(harness, tracing, ledger: Ledger, specs, seconds: float, trace: bool,
            between):
    """Repeats the workload until `seconds` are spent.  With tracing, each
    iteration is an untraced and a traced repetition, in alternating order.
    `between` is called before each iteration, outside the timed walls."""
    untraced: list[Repetition] = []
    traced: list[Repetition] = []
    durations = []
    start = time.perf_counter()
    while True:
        between()
        began = time.perf_counter()
        order = ((False, True) if len(durations) % 2 == 0 else (True, False)) if trace else (False,)
        for with_trace in order:
            if with_trace:
                tracer = tracing.Tracer()
                with tracer:
                    wall, reports = run_repetition(harness, specs, tracer)
                traced.append(Repetition(wall, ledger.add(specs, reports), tracer))
            else:
                wall, reports = run_repetition(harness, specs)
                untraced.append(Repetition(wall, ledger.add(specs, reports)))
        durations.append(time.perf_counter() - began)
        enough = len(durations) >= (MIN_TRACED_PAIRS if trace else MIN_REPS)
        if enough and time.perf_counter() + statistics.mean(durations) > start + seconds:
            return untraced, traced


def end_to_end_metrics(untraced: list[Repetition], setup_s: float) -> dict[str, float]:
    return {
        "setup_s": setup_s,
        "wall_s": statistics.median(r.wall for r in untraced),
        "points_per_s": statistics.median(r.checked / r.wall for r in untraced),
        # ru_maxrss is in KiB on Linux
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def layer_metrics(tracing, rep: Repetition) -> dict[str, float]:
    """Per-layer metrics of one traced repetition."""
    tracer = rep.tracer
    totals = tracing.layer_totals(tracer.spans)
    unknown = set(totals) - set(ACCOUNTED_LAYERS)
    if unknown:
        raise BenchmarkError(f"spans of unexpected layers {sorted(unknown)}")
    accounted = sum(entry["self_s"] for entry in totals.values())
    if abs(accounted - rep.wall) > 0.01 * rep.wall + 0.005:
        raise BenchmarkError(f"layer self times add up to {accounted:.4f} s, "
                             f"traced wall is {rep.wall:.4f} s")

    def total(layer, key):
        return totals.get(layer, {}).get(key, 0)

    call_ms = [s.duration * 1000 for s in tracer.spans if s.layer == "mpoly"]
    level = tracing.tail_percentile_level(len(call_ms))
    return {
        "mpoly.busy_s": total("mpoly", "busy_s"),
        "mpoly.calls": total("mpoly", "calls"),
        "mpoly.call_ms.p50": tracing.percentile(call_ms, 50) if call_ms else 0.0,
        "mpoly.call_ms.pNN": tracing.percentile(call_ms, level) if call_ms else 0.0,
        "mpoly.target_slots": tracer.target_slots,
        "integrals.weighted_calls": tracer.counts["integrals.weighted_calls"],
        "integrals.weighted_summands": tracer.counts["integrals.weighted_summands"],
        "integrals.build_s": total("integrals.build", "self_s"),
        "integrals.self_s": total("integrals", "self_s"),
        "formulas.busy_s": total("formulas", "busy_s"),
        "formulas.calls": total("formulas", "calls"),
        "admissible.busy_s": total("admissible", "busy_s"),
        "admissible.calls": total("admissible", "calls"),
        "harness.self_s": total("harness", "self_s"),
        "trace.wall_s": rep.wall,
    }


def per_layer_metrics(tracing, untraced, traced) -> dict[str, float]:
    """Medians over the traced repetitions, and the tracing overhead as the
    median difference between paired traced and untraced walls."""
    each = [layer_metrics(tracing, rep) for rep in traced]
    metrics = {name: _median([m[name] for m in each]) for name in each[0]}
    metrics["trace.overhead_s"] = statistics.median(
        t.wall - u.wall for u, t in zip(untraced, traced))
    return metrics


def _median(values: list):
    """Median; of whole numbers (counts), the lower median, so counts stay whole."""
    if all(isinstance(v, int) for v in values):
        return statistics.median_low(values)
    return statistics.median(values)


def spans_json(tracer) -> list[dict]:
    origin = tracer.spans[0].start if tracer.spans else 0.0
    return [{"name": s.name, "layer": s.layer, "start": s.start - origin,
             "end": s.end - origin, "parent": s.parent} for s in tracer.spans]


def write_benchmark_json() -> Path:
    path = ROOT / "BENCHMARK.json"
    path.write_text(json.dumps(suite.benchmark_json(), indent=2) + "\n")
    return path


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(suite.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=suite.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: small campaigns, for self-tests")
    parser.add_argument("--write-benchmark-json", action="store_true",
                        help="regenerate BENCHMARK.json from suite.py and exit")
    args = parser.parse_args(argv)
    if not args.write_benchmark_json and args.workload is None:
        parser.error("--workload is required")
    if args.seconds < 0:
        parser.error("--seconds must be >= 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.write_benchmark_json:
        print(f"wrote {write_benchmark_json()}")
        return 0
    try:
        return run(args)
    except BenchmarkError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    except Mismatch as exc:
        print(f"MISMATCH: {exc}", file=sys.stderr)
        return 1


def run(args) -> int:
    if os.environ.get(BUDGET_ENV) is not None:
        raise BenchmarkError(f"{BUDGET_ENV} is set; it changes which points are skipped, "
                             "so results would not be comparable")
    fpselberg = load_program()
    import accounting
    import tracing
    from fpselberg import harness

    env = environment(fpselberg, args)
    specs = campaign_specs(harness, args.workload, args.seed, args.size)
    primes = sorted({s.p for s in specs})
    # Set-up is probed between repetitions, so that its median spans the
    # same stretch of machine time as the walls do.
    setup_times: list[float] = []
    ledger = Ledger(accounting)
    try:
        untraced, traced = measure(harness, tracing, ledger, specs, args.seconds,
                                   bool(args.trace),
                                   between=lambda: setup_times.append(probe_setup(primes)))
    except accounting.AccountingError as exc:
        raise BenchmarkError(str(exc)) from exc
    while len(setup_times) < MIN_SETUP_PROBES:
        setup_times.append(probe_setup(primes))
    setup_s = statistics.median(setup_times)

    if args.trace:
        metrics = per_layer_metrics(tracing, untraced, traced)
        declared = suite.PER_LAYER
    else:
        metrics = end_to_end_metrics(untraced, setup_s)
        declared = suite.END_TO_END
    if set(metrics) != {m.name for m in declared}:
        raise BenchmarkError(f"emitted metrics {sorted(metrics)} differ from suite.py")
    failed_ratio = ledger.failed / ledger.attempted

    record = {
        "env": env,
        "failed_ratio": failed_ratio,
        "campaigns": [{"campaign": s.campaign, "p": s.p, "k": s.k, "samples": s.samples,
                       "checked": t.checked, "domain_skips": t.domain_skips,
                       "capacity_skips": t.capacity_skips, "mismatches": t.mismatches}
                      for s, t in ledger.first],
        "setup_probes_s": setup_times,
        "untraced_walls_s": [r.wall for r in untraced],
        "traced_walls_s": [r.wall for r in traced],
        "metrics": metrics,
    }
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if traced:
        last = traced[-1].tracer
        record["layers_last_traced"] = tracing.layer_totals(last.spans)
        record["mpoly_tail_percentile"] = tracing.tail_percentile_level(
            record["layers_last_traced"].get("mpoly", {}).get("calls", 0))
        (OUT_DIR / f"{stem}-spans.json").write_text(json.dumps(spans_json(last)))
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")

    print("env " + json.dumps(env))
    for entry in record["campaigns"]:
        print("campaign " + json.dumps(entry))
    print(f"failed_ratio {failed_ratio!r} ({ledger.failed}/{ledger.attempted})")
    print(f"repetitions untraced={len(untraced)} traced={len(traced)}")
    if traced:
        for layer, entry in record["layers_last_traced"].items():
            print(f"layer {layer} " + " ".join(f"{k}={v!r}" for k, v in entry.items()))
        print(f"mpoly.call_ms.pNN is p{record['mpoly_tail_percentile']}")
    units = {m.name: m.unit for m in declared}
    for name, value in metrics.items():
        print(f"metric {name} {value!r} {units[name]}")
    print(json.dumps({
        "correct": True,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {m.name: {"value": metrics[m.name], "unit": m.unit} for m in declared},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
