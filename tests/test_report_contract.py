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
count and first failure record are frozen.
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


@pytest.mark.parametrize("spec", GOLDEN_SPECS[:len(CAMPAIGNS)], ids=CAMPAIGNS)
def test_failure_records_under_a_planted_fault(monkeypatch, spec):
    for name in ("selberg_integral", "weighted_integral", "fp_integral"):
        integral = getattr(harness, name)
        monkeypatch.setattr(harness, name,
                            lambda *args, integral=integral: integral(*args) + args[-1].one)
    for name in ("selberg_integrals", "weighted_integrals"):
        batched = getattr(harness, name)
        monkeypatch.setattr(harness, name, lambda *args, batched=batched: [
            value + args[-1].one for value in batched(*args)])
    report = run_campaign(spec)
    checked, failed, first = FAULTED[spec.campaign]
    assert (report.checked, len(report.failures)) == (checked, failed)
    assert report.passed == checked - failed
    assert (report.failures[0] if report.failures else None) == first


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
