import ast
import importlib
import json
from pathlib import Path

import fpselberg
from fpselberg import harness, mpoly

SOURCES = sorted(Path(fpselberg.__file__).parent.glob("*.py"))
BENCH_DIR = Path(__file__).resolve().parents[1] / "campaignbench"
GOLDEN = Path(__file__).resolve().parent / "golden_reports.json"


def test_package_sources_found():
    assert any(path.name == "integrals.py" for path in SOURCES)


def test_no_assert_statements():
    # `python -O` strips asserts; invariants must raise explicit errors
    found = [f"{path.name}:{node.lineno}" for path in SOURCES
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Assert)]
    assert found == []


def test_benchmark_entry_points_resolve(monkeypatch):
    # the campaign benchmark reaches into the package from outside; this
    # imports its modules, patches and restores every name its tracer wraps,
    # and builds every workload's campaign specs, without running any
    monkeypatch.syspath_prepend(str(BENCH_DIR))
    run = importlib.import_module("run")
    tracing = importlib.import_module("tracing")
    importlib.import_module("accounting")
    original = harness.selberg_integral
    with tracing.Tracer():
        assert harness.selberg_integral is not original
    assert harness.selberg_integral is original
    for workload in run.suite.WORKLOADS:
        for size in ("tiny", "full"):
            specs = run.campaign_specs(harness, workload, 1, size)
            assert specs and all(spec.campaign in harness.CAMPAIGNS for spec in specs)


def test_weighted_campaigns_need_no_per_point_expansion(monkeypatch):
    # weighted integrals run on the cached block chain; a per-point
    # expansion of their integrand would reach extract_coefficient
    def expansion(*_args):
        raise RuntimeError("per-point expansion in a weighted campaign")

    monkeypatch.setattr(mpoly, "extract_coefficient", expansion)
    golden = {report["campaign"]: report for report in json.loads(GOLDEN.read_text())
              if report["k"] == [2, 1] and report["seed"] is None}
    for name in ("i000", "relations_IS", "relations_II0", "relations_B1", "relations_B2"):
        report = harness.run_campaign(harness.CampaignSpec(name, 7, (2, 1))).as_dict()
        report.pop("elapsed_ms")
        assert report == golden[name], name
