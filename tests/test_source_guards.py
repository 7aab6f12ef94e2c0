import ast
import functools
import importlib
import inspect
import json
import sys
from pathlib import Path

import numpy as np

import fpselberg
from fpselberg import harness, mpoly
from fpselberg.gf import FpContext

SOURCES = sorted(Path(fpselberg.__file__).parent.glob("*.py"))
BENCH_DIR = Path(__file__).resolve().parents[1] / "campaignbench"
GOLDEN = Path(__file__).resolve().parent / "golden_reports.json"
REFERENCE_ENGINE = Path(__file__).resolve().parent / "reference_engine.py"


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
    # one evaluator: a per-point chain kept beside the stage path
    # `_prefix_chain` would be a second caller of the contraction, the row
    # product or the top coefficient that finishes it
    for kernel in ("contract", "multiply_along_axes", "top_coefficient"):
        assert _callers({kernel}) == {("integrals.py", "_prefix_chain")}, kernel


def test_one_row_product_path():
    # the row product sums in float64 under its own bound, and only the
    # engine, the contraction and the top coefficient sum in int64; an
    # int64 matmul kept beside the BLAS one would bring the int64 check
    # with it, and a float64 top coefficient the float64 check
    assert _callers({"check_float64_sum"}) == {("mpoly.py", "multiply_along_axes")}
    assert _callers({"check_int64_sum"}) == {("mpoly.py", "expand"),
                                             ("mpoly.py", "contract"),
                                             ("mpoly.py", "top_coefficient")}


def test_the_chain_kernels_reduce_by_floor_division_alone():
    # the chain's kernels reduce through `reduce_mod` (a multiply and a
    # shift where `%` is a hardware division per element), and only where
    # their stated bounds need it; a `%` on an array, or another reduction,
    # would bring back a reduction per product
    reductions = {"mod", "remainder", "fmod", "divmod", "reduce_mod"}
    kernels = {("mpoly.py", "contract"), ("mpoly.py", "multiply_along_axes"),
               ("mpoly.py", "top_coefficient"), ("integrals.py", "_prefix_chain")}
    found = set()
    for path in SOURCES:
        for function in ast.walk(ast.parse(path.read_text(), str(path))):
            if (isinstance(function, ast.FunctionDef)
                    and (path.name, function.name) in kernels):
                found.add((path.name, function.name))
                assert not [node for node in ast.walk(function)
                            if isinstance(node, (ast.BinOp, ast.AugAssign))
                            and isinstance(node.op, ast.Mod)], function.name
    assert found == kernels
    assert all(called & reductions == {"reduce_mod"}
               for path, function, called in _calls() if (path, function) in kernels)


def test_every_campaign_checks_a_key_list():
    # every check takes a key list (rows, for the campaigns over a domain of
    # rows): a per-key check would bring back an adapter, and with it the
    # per-point integrals that only `bench` still times; and every check
    # returns one result shape, so `_outcome` has one path
    assert not hasattr(harness, "_per_key")
    assert not hasattr(harness, "_Skip") and not hasattr(harness, "_elements")
    assert "isinstance" not in inspect.getsource(harness._outcome)
    ctx = FpContext(7)
    for name, entry in harness._CAMPAIGNS.items():
        k = None if entry.k_len is None else (2, 1)
        _, keys = entry.keys(harness.CampaignSpec(name, 7, k), ctx)
        assert harness._outcome(name, ctx, k, keys[:0]) == (0, []), name
        verdicts = entry.check(ctx, k, keys[:5])
        assert isinstance(verdicts, harness._Verdicts), name
        assert [(side.dtype, side.shape) for side in verdicts[:3]] == [
            (np.int64, (5,)), (np.int64, (5,)), (np.bool_, (5,))], name
        classifiers = verdicts.classifiers
        assert isinstance(classifiers, str) or (
            isinstance(classifiers, list) and len(classifiers) == 5), name

    def in_harness(names):
        return {caller for caller in _callers(names) if caller[0] == "harness.py"}

    assert in_harness({"selberg_integral"}) == {("harness.py", "bench")}
    assert in_harness({"weighted_integral", "fp_integral"}) == set()


def test_one_expansion_mode():
    # `expand` is the one expansion; extracting a coefficient reads it, and
    # the projecting per-point reference lives in the tests
    found = [path.name for path in SOURCES if "project_targets" in path.read_text()]
    assert found == []
    assert _callers({"_factor_terms"}) == {("mpoly.py", "expand")}


def test_reference_engine_shares_no_package_code():
    # the tests' reference reads the factor-product data classes and
    # nothing else of the package, so an engine fault cannot reach it
    imported = set()
    for node in ast.walk(ast.parse(REFERENCE_ENGINE.read_text())):
        if isinstance(node, ast.Import):
            imported |= {(alias.name, None) for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            imported |= {(node.module, alias.name) for alias in node.names}
    assert {(module, name) for module, name in imported
            if module.partition(".")[0] == "fpselberg"} == {
        ("fpselberg.mpoly", "FactorProduct"), ("fpselberg.mpoly", "LinearForm")}


def test_one_batch_runner_runs_the_chain():
    # Selberg and weighted integrals and `stokes` share the batch runner; a second
    # caller of the stage path would be a second evaluator to keep in step
    assert _callers({"_prefix_chain"}) == {("integrals.py", "chain_integrals")}
    assert _callers({"chain_integrals"}) == {("integrals.py", "selberg_integrals"),
                                             ("integrals.py", "weighted_integrals"),
                                             ("harness.py", "_stokes_check")}


def test_one_shift_table_builds_every_weight_row():
    # Selberg and weighted rows come from the batch runner's shift table;
    # no package code expands an integrand per point, and the per-point
    # engine serves only the reference integral (the Dyson constant terms
    # are one-group Selberg integrals)
    # (`group_rows` is the runner's own nested gather, counted for it too)
    assert _callers({"_weight_rows"}) == {("integrals.py", "chain_integrals"),
                                          ("integrals.py", "group_rows")}
    assert _callers({"_padded_powers"}) == {("integrals.py", "chain_integrals")}
    assert _callers({"fp_integral"}) == set()
    assert _callers({"extract_coefficient"}) == {("integrals.py", "fp_integral")}


def test_both_domains_are_walked_by_one_interval_walker():
    # the admissible and the I_000 domain are each a table of intervals,
    # enumerated by the same vector walk rather than by filtering a box: only
    # `_spread` expands intervals, for `_walk` and the harness's theorem key
    # lists, and campaigns take the re-checked rows of `admissible_rows`, or
    # the rows of `i000_rows` whose sampled rows the `i000` check
    # re-checks, rather than a second walk
    assert {(path, function) for path, function in _callers({"repeat"})
            if path == "admissible.py"} == {("admissible.py", "_spread")}
    assert _callers({"_spread"}) == {("admissible.py", "_walk"), ("harness.py", "_thm_keys")}
    assert all(function != "_b_tuples" for _, function, _ in _calls())
    assert _callers({"_walk"}) == {("admissible.py", "admissible_rows"),
                                   ("admissible.py", "i000_rows")}
    assert _callers({"admissible_rows"}) == {("admissible.py", "enumerate_admissible"),
                                             ("harness.py", "_admissible")}
    assert _callers({"i000_rows"}) == {("admissible.py", "enumerate_admissible_I"),
                                       ("harness.py", "_i000_keys")}
    assert _callers({"i000_closed_forms"}) == {("admissible.py", "enumerate_admissible_I"),
                                               ("harness.py", "_i000_check")}


def test_each_ac_condition_is_written_in_its_table_alone():
    # the conditions on a and c alone are entries of the domain tables; a
    # function that restated one would name it outside them (docstrings,
    # which may describe the conditions, are not code)
    conditions = ("ine14[a]", "ine14[kc]", "thmI[a]", "thmI[kc]")
    scopes = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
    found = set()
    for path in SOURCES:
        tree = ast.parse(path.read_text(), str(path))
        docstrings = {id(node.body[0].value) for node in ast.walk(tree)
                      if isinstance(node, scopes) and node.body
                      and isinstance(node.body[0], ast.Expr)}

        def visit(node, owner):
            for child in ast.iter_child_nodes(node):
                if (isinstance(child, ast.Constant) and isinstance(child.value, str)
                        and id(child) not in docstrings
                        and any(name in child.value for name in conditions)):
                    found.add((path.name, owner))
                visit(child, getattr(child, "name", owner) if isinstance(child, scopes)
                      else owner)

        visit(tree, "<module>")
    assert found == {("admissible.py", "_b_system"), ("admissible.py", "_i000_system")}


def test_closed_forms_evaluate_through_the_factorial_product():
    # every closed form and recurrence factor the campaigns check is one
    # term table, evaluated through the one evaluator by its batch form, and
    # the scalar forms left are batches of one; a per-factor or per-point
    # evaluator beside it would call checked_factorial or sign_pow, which
    # only the test oracle uses, or build its own FormulaResult
    assert _callers({"_evaluate"}) == {
        ("formulas.py", name) for name in (
            "r_values", "rhs_3_11_values", "rhs_4_111_values", "i000_rhs_values", "beta_values",
            "dyson_values", "induction_values", "b_factor_values", "shift_factor_values")}
    assert {path for path, _ in _callers({"checked_factorial", "sign_pow"})} <= {"gf.py"}
    assert _callers({"FormulaResult"}) == {("formulas.py", "_result")}
    assert _callers({"_result"}) == {
        ("formulas.py", name) for name in ("r_value", "rhs_3_11", "i000_rhs")}
    # the checks take their sides as residue arrays from the batch forms
    # and the integrals: no check or key list turns rows into points, or
    # points into rows, or builds a field element
    assert {function for path, function in _callers({"row_points", "point_rows", "FpElement"})
            if path == "harness.py"} == set()


def test_one_first_offending_row_check():
    # a batch rejects a bad row in one way: its conditions, in the order a
    # row is checked, go to `errors.raise_first`; a second predicate kept
    # in step with a scalar check, or a raise block of its own, would be a
    # second path for the same errors
    defined = {node.name for path in SOURCES for node in ast.walk(ast.parse(path.read_text()))
               if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))}
    gone = {"_invalid", "_weighted_flags", "_check_weighted_point", "_raise_at_first"}
    assert defined & gone == set()
    assert not _callers(gone)
    assert _callers({"raise_first"}) == {
        ("integrals.py", "chain_integrals"), ("integrals.py", "weighted_integrals"),
        ("formulas.py", "_require"), ("admissible.py", "admissible_rows"),
        ("admissible.py", "i000_closed_forms"), ("admissible.py", "distinguished_rows"),
        ("admissible.py", "decrement_edges"), ("harness.py", "_defined")}
    assert _callers({"_require"}) == {
        ("formulas.py", name) for name in (
            "rhs_3_11_values", "rhs_4_111_values", "beta_values", "dyson_values",
            "induction_values")}


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
    # weighted integrals, and the one-group integrals of beta and dyson, run
    # on the cached block chain; a per-point expansion would reach
    # extract_coefficient
    def expansion(*_args):
        raise RuntimeError("per-point expansion in a chain campaign")

    monkeypatch.setattr(mpoly, "extract_coefficient", expansion)
    golden = {report["campaign"]: report for report in json.loads(GOLDEN.read_text())
              if report["seed"] is None}
    for name in ("beta", "dyson", "i000", "relations_IS", "relations_II0", "relations_B1",
                 "relations_B2"):
        k = (2, 1) if golden[name]["k"] else None
        report = harness.run_campaign(harness.CampaignSpec(name, 7, k)).as_dict()
        report.pop("elapsed_ms")
        assert report == golden[name], name
