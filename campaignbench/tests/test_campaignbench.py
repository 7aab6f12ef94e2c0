"""Self-tests of the campaign benchmark.

    python3 -m pytest campaignbench/tests

Each workload is run at tiny size, untraced and traced, in a subprocess as
the benchmark command is run; an injected mismatch must fail the run.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402
import suite  # noqa: E402

run.load_program()

from fpselberg import formulas  # noqa: E402
from fpselberg.formulas import FormulaResult  # noqa: E402

TINY = ["--seed", "5", "--seconds", "0", "--size", "tiny"]


def _bench(*args, env=None):
    return subprocess.run([sys.executable, str(BENCH_DIR / "run.py"), *args],
                          capture_output=True, text=True, timeout=300, env=env)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(suite.WORKLOADS))
def test_tiny_run_emits_every_metric_with_its_unit(workload, trace):
    done = _bench("--workload", workload, "--trace", str(trace), *TINY)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    declared = suite.PER_LAYER if trace else suite.END_TO_END
    assert result["metrics"] == {
        m.name: {"value": result["metrics"][m.name]["value"], "unit": m.unit} for m in declared}
    for m in declared:
        assert isinstance(result["metrics"][m.name]["value"], (int, float))
    if trace:
        summands = result["metrics"]["integrals.weighted_summands"]["value"]
        assert (summands > 0) == (workload == "sweep_small")


def test_injected_mismatch_fails_the_run(monkeypatch, capsys):
    real = formulas.r_value

    def off_by_one(k, pt, ctx):
        result = real(k, pt, ctx)
        return FormulaResult(value=result.value + 1) if result.ok else result

    monkeypatch.setattr(formulas, "r_value", off_by_one)
    code = run.main(["--workload", "main_chain", "--trace", "0", *TINY])
    out, err = capsys.readouterr()
    assert code == 1
    assert "MISMATCH" in err
    assert '"correct"' not in out


def test_refuses_to_run_with_a_memory_budget_override():
    env = dict(os.environ, FP_SELBERG_MEM_BUDGET="1000")
    done = _bench("--workload", "main_dense", "--trace", "0", *TINY, env=env)
    assert done.returncode == 2
    assert "FP_SELBERG_MEM_BUDGET" in done.stderr
    assert done.stdout == ""


def test_benchmark_json_matches_suite():
    committed = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    assert committed == suite.benchmark_json()


def test_tail_percentile_level_leaves_ten_samples_beyond():
    from tracing import percentile, tail_percentile_level
    for n in (20, 24, 48, 100, 797, 4000):
        level = tail_percentile_level(n)
        values = list(range(n))
        assert n - 1 - percentile(values, level) >= 10
        assert level == 99 or n - 1 - percentile(values, level + 1) < 10
