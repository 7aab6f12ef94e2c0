"""The campaign report contract, pinned.

`golden_reports.json` holds `as_dict()` without `elapsed_ms` for every
campaign at p = 7 (k = (2, 1) where a composition is needed, the default
compositions for `induction`) plus one sampled `main` run, one report per
line, as produced before the harness was reorganized around its campaign
table.  A change that alters any report fails here; if the change is meant,
regenerate the file from `GOLDEN_SPECS` and say why.

The failure path is pinned the same way: with every integral the checks
compute shifted by one (each residue of a `selberg_integrals`,
`weighted_integrals` or `chain_integrals` batch too), each campaign's
checked count, failure count and first failure record are frozen; with
every integral zeroed or doubled, its checked and failure counts.  The
`stokes` identity is homogeneous too, and a fault in the chain or in the
engine that builds its blocks fails it.  A campaign's failure records do
not depend on how its keys are cut into chunks, and the relation
campaigns', `induction`'s and `stokes`'s counts of nontrivial checks (sides
not both 0) are frozen.
"""

import json
import math
from pathlib import Path

import numpy as np
import pytest

from fpselberg import formulas, harness, integrals
from fpselberg.gf import FpContext, FpElement
from fpselberg.harness import CAMPAIGNS, CampaignSpec, run_campaign
from fpselberg.integrals import AllowableTriple, KComposition, cycle_from_composition
from test_integrals import _plant_doubled_term

NEEDS_K = {"main", "relations_IS", "relations_II0", "relations_B1", "relations_B2",
           "relations_S1S2", "i000", "stokes"}
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


# campaign: (checked, failures, first failure) with every integral off by one
FAULTED = {
    "main": (61, 61, {"point": {"a": 1, "b": [2, 5], "c": 3}, "lhs": 0, "rhs": 6,
                      "classifier": "mismatch"}),
    "beta": (49, 49, {"point": {"a": 0, "b": 0, "c": None}, "lhs": 1, "rhs": 0,
                      "classifier": "mismatch"}),
    "dyson": (9, 9, {"point": {"a": None, "b": [1], "c": 1}, "lhs": 2, "rhs": 1,
                     "classifier": "mismatch at k=1"}),
    "thm_3_11": (658, 658, {"point": {"a": 0, "b": [0, 6], "c": 1}, "lhs": 2, "rhs": 1,
                            "classifier": "mismatch"}),
    "thm_4_111": (2298, 2298, {"point": {"a": 0, "b": [0, 0, 6], "c": 1}, "lhs": 2,
                               "rhs": 1, "classifier": "mismatch"}),
    "relations_IS": (61, 0, None),
    "relations_II0": (61, 51, {"point": {"a": 1, "b": [2, 5], "c": 3}, "lhs": 4, "rhs": 0,
                               "classifier": "chain step i=0 nonzero"}),
    "relations_B1": (26, 23, {"point": {"a": 1, "b": [2, 5], "c": 3}, "lhs": 1, "rhs": 6,
                              "classifier": "mismatch"}),
    "relations_B2": (25, 20, {"point": {"a": 1, "b": [3, 5], "c": 3}, "lhs": 1, "rhs": 3,
                              "classifier": "mismatch"}),
    "relations_S1S2": (52, 40, {"point": {"a": 1, "b": [2, 6], "c": 3}, "lhs": 0, "rhs": 3,
                                "classifier": "edge b2-1 mismatch"}),
    "induction": (21, 18, {"point": {"a": 1, "b": None, "c": 1}, "lhs": 3, "rhs": 1,
                           "classifier": "k=(2, 1) factored identity"}),
    "i000": (60, 60, {"point": {"a": 1, "b": [3, 6], "c": 3}, "lhs": 2, "rhs": 1,
                      "classifier": "mismatch"}),
    "stokes": (1296, 1116, {"point": {"a": 1, "b": [1, 1], "c": 1}, "lhs": 3, "rhs": 0,
                            "classifier": "mismatch"}),
}


# campaign: (checked, failures) with every integral zeroed, and the same with
# every integral doubled; the six relation campaigns and stokes are
# homogeneous in the integrals, so such a fault passes them
SCALED = {"main": (61, 61), "beta": (49, 28), "dyson": (9, 9), "thm_3_11": (658, 658),
          "thm_4_111": (2298, 2298), "relations_IS": (61, 0), "relations_II0": (61, 0),
          "relations_B1": (26, 0), "relations_B2": (25, 0), "relations_S1S2": (52, 0),
          "induction": (21, 0), "i000": (60, 60), "stokes": (1296, 0)}
# each acts on an int64 array of residues mod p
FAULTS = {"plus_one": lambda values, p: (values + 1) % p,
          "zero": lambda values, p: values * 0,
          "double": lambda values, p: values * 2 % p}


def _plant(monkeypatch, planted):
    """Apply a fault of FAULTS to every integral the checks compute."""
    for name in ("selberg_integral", "weighted_integral", "fp_integral"):
        integral = getattr(harness, name)
        monkeypatch.setattr(harness, name, lambda *args, integral=integral: FpElement(
            int(planted(np.array([int(integral(*args))]), args[-1].p)[0]), args[-1]))
    for name in ("selberg_integrals", "weighted_integrals", "chain_integrals"):
        batched = getattr(harness, name)
        monkeypatch.setattr(harness, name, lambda *args, batched=batched: planted(
            batched(*args), next(arg.p for arg in args if isinstance(arg, FpContext))))


@pytest.mark.parametrize("fault, spec", [
    pytest.param(fault, spec, id=spec.campaign if fault == "plus_one" else f"{fault}-{spec.campaign}")
    for fault in FAULTS for spec in GOLDEN_SPECS[:len(CAMPAIGNS)]])
def test_failure_records_under_a_planted_fault(monkeypatch, fault, spec):
    _plant(monkeypatch, FAULTS[fault])
    report = run_campaign(spec)
    if fault == "plus_one":
        checked, failed, first = FAULTED[spec.campaign]
        assert (report.failures[0] if report.failures else None) == first
    else:
        checked, failed = SCALED[spec.campaign]
    assert (report.checked, len(report.failures)) == (checked, failed)
    assert report.passed == checked - failed


@pytest.mark.parametrize("spec", GOLDEN_SPECS,
                         ids=lambda spec: spec.campaign if spec.exhaustive else "main-sampled")
def test_failure_records_do_not_depend_on_chunking(monkeypatch, spec):
    # the runner cuts the keys into chunks (smaller ones under --jobs), and
    # a per-key classifier list is local to its chunk: the whole key list
    # and its 7-key slices give the same count and records, in key order
    _plant(monkeypatch, FAULTS["plus_one"])
    ctx = FpContext(spec.p)
    _, keys = harness._CAMPAIGNS[spec.campaign].keys(spec, ctx)
    parts = [harness._outcome(spec.campaign, ctx, spec.k, keys[start:start + 7])
             for start in range(0, len(keys), 7)]
    assert harness._outcome(spec.campaign, ctx, spec.k, keys) == (
        sum(count for count, _ in parts), [record for _, records in parts for record in records])


@pytest.mark.parametrize("p", [7, 11])
def test_relations_ii0_reports_each_rows_first_nonzero_step(monkeypatch, p):
    # the chain steps as arrays against a loop over field elements; at
    # (3, 2) there are two steps, and a row can fail at the second alone
    _plant(monkeypatch, FAULTS["plus_one"])
    ctx, (k1, k2) = FpContext(p), (3, 2)
    spec = CampaignSpec("relations_II0", p, (k1, k2))
    _, rows = harness._CAMPAIGNS[spec.campaign].keys(spec, ctx)
    values = [harness.weighted_integrals(k1, k2, AllowableTriple(0, i, 0), rows, ctx).tolist()
              for i in range(k2 + 1)]
    expected = []
    for t, (a, b1, b2, c) in enumerate(rows.tolist()):
        for i in range(k2):
            step = (ctx.element((k1 - k2 + i + 1) * c) * values[i][t]
                    + ctx.element(b2 + i * c) * values[i + 1][t])
            if step != ctx.zero:
                expected.append({"point": {"a": a, "b": [b1, b2], "c": c}, "lhs": step.residue,
                                 "rhs": 0, "classifier": f"chain step i={i} nonzero"})
                break
    assert harness._outcome(spec.campaign, ctx, spec.k, rows) == (len(rows), expected)
    assert "chain step i=1 nonzero" in {record["classifier"] for record in expected}


# campaign: (nontrivial, checked) at its golden spec, a checked row being
# trivial where both its sides are 0; relations_II0 reports (0, 0) at every
# passing row, so its count is of the rows where some I_{0,i,0} is nonzero
NONTRIVIAL = {"relations_IS": (15, 61), "relations_II0": (15, 61), "relations_B1": (5, 26),
              "relations_B2": (5, 25), "relations_S1S2": (52, 52), "induction": (21, 21),
              "stokes": (165, 1296)}


@pytest.mark.parametrize("campaign", sorted(NONTRIVIAL))
def test_nontrivial_check_counts(campaign):
    spec = next(spec for spec in GOLDEN_SPECS if spec.campaign == campaign)
    ctx = FpContext(spec.p)
    entry = harness._CAMPAIGNS[campaign]
    _, keys = entry.keys(spec, ctx)
    lhs, rhs, checked, _ = entry.check(ctx, spec.k, keys)
    if campaign == "relations_II0":
        k1, k2 = spec.k
        lhs = np.stack([harness.weighted_integrals(k1, k2, AllowableTriple(0, i, 0), keys, ctx)
                        for i in range(k2 + 1)]).any(axis=0)
    nontrivial = checked & ((lhs != 0) | (rhs != 0))
    assert (int(nontrivial.sum()), int(checked.sum())) == NONTRIVIAL[campaign]


@pytest.mark.parametrize("fault", ["chain_plus_one", "doubled_term"])
def test_a_planted_chain_or_engine_fault_fails_stokes(monkeypatch, fault):
    # Stokes' identity reads four integrals of the chain, so a fault in the
    # chain or in the engine that builds its blocks leaves a residual
    if fault == "chain_plus_one":
        chain = integrals._chain
        monkeypatch.setattr(integrals, "_chain",
                            lambda rows, blocks, p: (chain(rows, blocks, p) + 1) % p)
    else:
        _plant_doubled_term(monkeypatch)
    report = run_campaign(CampaignSpec("stokes", 7, (2, 1)))
    assert (report.checked, len(report.failures)) == (
        1296, {"chain_plus_one": 1116, "doubled_term": 78}[fault])


CLOSED_FORMS = {"main": "r_values", "thm_3_11": "rhs_3_11_values",
                "thm_4_111": "rhs_4_111_values", "i000": "i000_rhs_values"}


@pytest.mark.parametrize("campaign", sorted(CLOSED_FORMS))
def test_a_planted_closed_form_fault_fails_every_check(monkeypatch, campaign):
    # the campaigns look the closed forms' batch forms up by module
    # attribute; a fault planted there reaches every check
    for name in CLOSED_FORMS.values():
        closed_form = getattr(formulas, name)

        def off_by_one(*args, closed_form=closed_form):
            values, first = closed_form(*args)
            return np.where(first < 0, (values + 1) % args[-1].p, values), first
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
