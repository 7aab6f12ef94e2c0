"""The campaign report contract, pinned.

`golden_reports.json` holds `as_dict()` without `elapsed_ms` for every
campaign at p = 7 (k = (2, 1) where a composition is needed, the default
compositions for `induction`) plus one sampled `main` run, one report per
line, as produced before the harness was reorganized around its campaign
table.  A change that alters any report fails here; if the change is meant,
regenerate the file from `GOLDEN_SPECS` and say why.

The failure path is pinned the same way: with every integral the checks
compute shifted by one (each value of a `selberg_integrals` or
`weighted_integrals` batch too), each campaign's checked count, failure
count and first failure record are frozen; with every integral zeroed or
doubled, its checked and failure counts.
"""

import json
import math
from pathlib import Path

import pytest

from fpselberg import formulas, harness
from fpselberg.harness import CAMPAIGNS, CampaignSpec, run_campaign
from fpselberg.integrals import KComposition, cycle_from_composition

NEEDS_K = {"main", "relations_IS", "relations_II0", "relations_B1", "relations_B2",
           "relations_S1S2", "i000"}
GOLDEN_SPECS = [CampaignSpec(name, 7, (2, 1) if name in NEEDS_K else None)
                for name in CAMPAIGNS]
GOLDEN_SPECS.append(CampaignSpec("main", 7, (2, 1), exhaustive=False, samples=10, seed=5))
GOLDEN = Path(__file__).parent / "golden_reports.json"


def _report(spec):
    report = run_campaign(spec).as_dict()
    report.pop("elapsed_ms")
    return report


def test_reports_match_golden_file():
    lines = [json.dumps(_report(spec)) for spec in GOLDEN_SPECS]
    text = "[\n" + ",\n".join(lines) + "\n]\n"
    assert text == GOLDEN.read_text()


# campaign: (checked, failures, first failure) with every integral off by one;
# dyson and stokes compute no integral through these entry points
FAULTED = {
    "main": (61, 61, {"point": {"a": 1, "b": [2, 5], "c": 3}, "lhs": 0, "rhs": 6,
                      "classifier": "mismatch"}),
    "beta": (49, 49, {"point": {"a": 0, "b": 0, "c": None}, "lhs": 1, "rhs": 0,
                      "classifier": "mismatch"}),
    "dyson": (9, 0, None),
    "thm_3_11": (658, 658, {"point": {"a": 0, "b": [0, 6], "c": 1}, "lhs": 2, "rhs": 1,
                            "classifier": "mismatch"}),
    "thm_4_111": (2298, 2298, {"point": {"a": 0, "b": [0, 0, 6], "c": 1}, "lhs": 2,
                               "rhs": 1, "classifier": "mismatch"}),
    "relations_IS": (61, 0, None),
    "relations_II0": (61, 51, {"point": {"a": 1, "b": [2, 5], "c": 3}, "lhs": 4, "rhs": 0,
                               "classifier": "chain step i=0 nonzero"}),
    "relations_B1": (19, 17, {"point": {"a": 1, "b": [2, 5], "c": 3}, "lhs": 1, "rhs": 6,
                              "classifier": "mismatch"}),
    "relations_B2": (16, 12, {"point": {"a": 2, "b": [1, 5], "c": 3}, "lhs": 1, "rhs": 6,
                              "classifier": "mismatch"}),
    "relations_S1S2": (52, 40, {"point": {"a": 1, "b": [2, 6], "c": 3}, "lhs": 0, "rhs": 3,
                                "classifier": "edge b2-1 mismatch"}),
    "induction": (21, 18, {"point": {"a": 1, "b": None, "c": 1}, "lhs": 3, "rhs": 1,
                           "classifier": "k=(2, 1) factored identity"}),
    "i000": (60, 60, {"point": {"a": 1, "b": [3, 6], "c": 3}, "lhs": 2, "rhs": 1,
                      "classifier": "mismatch"}),
    "stokes": (500, 0, None),
}


# campaign: (checked, failures) with every integral zeroed, and the same with
# every integral doubled; the six relation campaigns are homogeneous in the
# integrals, so such a fault passes them
SCALED = {"main": (61, 61), "beta": (49, 28), "dyson": (9, 0), "thm_3_11": (658, 658),
          "thm_4_111": (2298, 2298), "relations_IS": (61, 0), "relations_II0": (61, 0),
          "relations_B1": (19, 0), "relations_B2": (16, 0), "relations_S1S2": (52, 0),
          "induction": (21, 0), "i000": (60, 60), "stokes": (500, 0)}
FAULTS = {"plus_one": lambda value, ctx: value + ctx.one,
          "zero": lambda value, ctx: ctx.zero,
          "double": lambda value, ctx: value + value}


@pytest.mark.parametrize("fault, spec", [
    pytest.param(fault, spec, id=spec.campaign if fault == "plus_one" else f"{fault}-{spec.campaign}")
    for fault in FAULTS for spec in GOLDEN_SPECS[:len(CAMPAIGNS)]])
def test_failure_records_under_a_planted_fault(monkeypatch, fault, spec):
    planted = FAULTS[fault]
    for name in ("selberg_integral", "weighted_integral", "fp_integral"):
        integral = getattr(harness, name)
        monkeypatch.setattr(harness, name,
                            lambda *args, integral=integral: planted(integral(*args), args[-1]))
    for name in ("selberg_integrals", "weighted_integrals"):
        batched = getattr(harness, name)
        monkeypatch.setattr(harness, name, lambda *args, batched=batched: [
            planted(value, args[-1]) for value in batched(*args)])
    report = run_campaign(spec)
    if fault == "plus_one":
        checked, failed, first = FAULTED[spec.campaign]
        assert (report.failures[0] if report.failures else None) == first
    else:
        checked, failed = SCALED[spec.campaign]
    assert (report.checked, len(report.failures)) == (checked, failed)
    assert report.passed == checked - failed


CLOSED_FORMS = {"main": "r_value", "thm_3_11": "rhs_3_11", "thm_4_111": "rhs_4_111",
                "i000": "i000_rhs"}


@pytest.mark.parametrize("campaign", sorted(CLOSED_FORMS))
def test_a_planted_closed_form_fault_fails_every_check(monkeypatch, campaign):
    # the campaigns (and the benchmark's injected-mismatch self-test) look the
    # closed forms up by module attribute; a fault planted there reaches every check
    for name in CLOSED_FORMS.values():
        closed_form = getattr(formulas, name)

        def off_by_one(*args, closed_form=closed_form):
            result = closed_form(*args)
            return formulas.FormulaResult(value=result.value + 1) if result.ok else result
        monkeypatch.setattr(formulas, name, off_by_one)
    golden = next(report for report in json.loads(GOLDEN.read_text())
                  if report["campaign"] == campaign and report["seed"] is None)
    report = run_campaign(CampaignSpec(campaign, 7, (2, 1) if campaign in NEEDS_K else None))
    assert report.checked == golden["checked"] > 0
    assert len(report.failures) == report.checked and report.passed == 0


def test_capacity_skips_every_main_point(monkeypatch):
    box = math.prod(t + 1 for t in cycle_from_composition(KComposition((2, 1))).targets(7))
    monkeypatch.setenv("FP_SELBERG_MEM_BUDGET", str(box - 1))
    report = run_campaign(CampaignSpec("main", 7, (2, 1)))
    assert report.checked == report.passed == 0 and report.failures == []
    assert report.skipped == report.total == 13 ** 4
