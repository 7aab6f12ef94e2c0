import ast
import functools
import importlib
import json
import sys
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


def test_block_cache_policy_stays_in_integrals():
    # which blocks are kept, and so in what order points may be evaluated,
    # is decided in integrals alone; no other module may reach the cache
    cache_names = {"_BLOCKS", "_BlockCache"}
    found = []
    for path in SOURCES:
        if path.name == "integrals.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            names = {getattr(node, "id", None), getattr(node, "attr", None)}
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                names |= {alias.name for alias in node.names}
            found += [f"{path.name}:{node.lineno} {name}" for name in names & cache_names]
    assert found == []


@functools.cache
def _calls() -> list[tuple[str, str, set[str]]]:
    """(file, function, names it calls) for every function in the package,
    nested ones included; a nested function's calls count for its parents."""
    found = []
    for path in SOURCES:
        tree = ast.parse(path.read_text(), str(path))
        for function in ast.walk(tree):
            if isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                found.append((path.name, getattr(function, "name", "<lambda>"),
                              {getattr(node.func, "attr", None) or getattr(node.func, "id", None)
                               for node in ast.walk(function) if isinstance(node, ast.Call)}))
    return found


def _callers(names: set[str]) -> set[tuple[str, str]]:
    """(file, function) of every function in the package that calls one of names."""
    return {(path, function) for path, function, called in _calls() if called & names}


def test_only_the_block_chain_runs_the_chain_kernels():
    # one evaluator: a per-point chain kept beside the batched `_chain`
    # would be a second caller of the contraction or the row product
    assert _callers({"contract", "multiply_along_axes"}) == {("integrals.py", "_chain")}


def test_one_batch_runner_runs_the_chain():
    # Selberg and weighted integrals share the batch runner; a second
    # caller of `_chain` would be a second evaluator to keep in step
    assert _callers({"_chain"}) == {("integrals.py", "_batches")}
    assert _callers({"_batches"}) == {("integrals.py", "selberg_integrals"),
                                      ("integrals.py", "weighted_integrals")}


def test_one_shift_table_builds_every_weight_row():
    # Selberg and weighted rows come from the batch runner's shift table;
    # no package code expands an integrand per point, and the per-point
    # engine serves only the reference integral and the Dyson constant terms
    assert _callers({"_weight_rows"}) == {("integrals.py", "_batches")}
    assert _callers({"fp_integral"}) == set()
    assert _callers({"extract_coefficient"}) == {("integrals.py", "fp_integral"),
                                                 ("harness.py", "dyson_constant_term")}


def test_both_domains_are_walked_by_one_interval_walker():
    # the admissible and the I_000 domain are each a table of intervals,
    # enumerated by the same walk rather than by filtering a box
    assert _callers({"_b_tuples"}) == {("admissible.py", "enumerate_admissible"),
                                       ("admissible.py", "enumerate_admissible_I")}


def test_closed_forms_evaluate_through_the_factorial_product():
    # r_value, rhs_3_11, rhs_4_111 and i000_rhs take one product over their
    # factorial terms; a per-factor evaluator beside it would call
    # checked_factorial or build its own FormulaResult
    assert _callers({"checked_factorial"}) == {
        ("gf.py", "wilson_cancel"), ("formulas.py", "beta_rhs"),
        ("formulas.py", "dyson_constant"), ("formulas.py", "induction_factor")}
    assert _callers({"FormulaResult"}) == {("formulas.py", "_factorial_product")}
    assert _callers({"_factorial_product"}) == {
        ("formulas.py", "_table_product"), ("formulas.py", "rhs_3_11"),
        ("formulas.py", "rhs_4_111")}
    assert _callers({"_table_product"}) == {("formulas.py", "r_value"),
                                            ("formulas.py", "i000_rhs")}


def test_package_imports_only_stdlib_and_numpy():
    # numpy is the one declared dependency; no path may quietly need another
    allowed = set(sys.stdlib_module_names) | {"numpy", "fpselberg"}
    found = []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            found += [f"{path.name}:{node.lineno} {name}" for name in names
                      if name.partition(".")[0] not in allowed]
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
    # weighted integrals, and beta's one-group integral, run on the cached
    # block chain; a per-point expansion would reach extract_coefficient
    def expansion(*_args):
        raise RuntimeError("per-point expansion in a chain campaign")

    monkeypatch.setattr(mpoly, "extract_coefficient", expansion)
    golden = {report["campaign"]: report for report in json.loads(GOLDEN.read_text())
              if report["seed"] is None}
    for name in ("beta", "i000", "relations_IS", "relations_II0", "relations_B1",
                 "relations_B2"):
        k = (2, 1) if golden[name]["k"] else None
        report = harness.run_campaign(harness.CampaignSpec(name, 7, k)).as_dict()
        report.pop("elapsed_ms")
        assert report == golden[name], name
