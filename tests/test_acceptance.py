"""End-to-end acceptance: the eleven verification criteria.

Every comparison is exact equality in F_p.  Counts that appear as literals
(36 admissible points, 61 points, 190/85 splits, ...) were derived once by
independent brute-force enumeration and are frozen here as regression
anchors.
"""

import math
import random
import time

import pytest

import reference_engine as ref
from fpselberg.admissible import (distinguished_point, enumerate_admissible,
                                  enumerate_admissible_I, is_admissible)
from fpselberg.formulas import beta_rhs, i000_rhs, r_value
from fpselberg.gf import FpContext, checked_factorial, sign_pow
from fpselberg.harness import CampaignSpec, run_campaign, bench
from fpselberg.integrals import (AllowableTriple, KComposition, ParamPoint,
                                 cycle_from_composition,
                                 master_polynomial, selberg_integral,
                                 weighted_integral)
from fpselberg.mpoly import (DEFAULT_SLOT_BUDGET, FactorProduct, LinearForm,
                             expand, sparse_expand_oracle)


def _green(spec: CampaignSpec):
    report = run_campaign(spec)
    assert report.failures == [], report.failures[:3]
    assert report.passed == report.checked
    return report


def test_criterion_01_beta_exhaustive():
    t0 = time.monotonic()
    for p in (5, 7, 11, 13):
        report = _green(CampaignSpec("beta", p))
        assert report.total == p * p
        ctx = FpContext(p)
        values = [int(beta_rhs(a, b, ctx)) for a in range(p) for b in range(p)]
        assert values.count(0) > 0 and len(values) - values.count(0) > 0
    elapsed = time.monotonic() - t0
    assert elapsed < 1.0
    print(f"\nPASS criterion 1: beta exhaustive p in {{5,7,11,13}}, both branches, {elapsed:.2f}s")


def test_criterion_02_dyson():
    t0 = time.monotonic()
    for p in (7, 11, 13):
        report = _green(CampaignSpec("dyson", p))
        assert report.total == sum(1 for k in range(1, 5) for c in range(1, 4)
                                   if k * c <= p - 1)
    elapsed = time.monotonic() - t0
    assert elapsed < 5.0
    print(f"PASS criterion 2: Dyson constant terms k<=4, c<=3, p in {{7,11,13}}, {elapsed:.2f}s")


def test_criterion_03_main_rank_one():
    t0 = time.monotonic()
    counts = {}
    for p in (5, 7, 11, 13):
        for k1 in (1, 2, 3):
            report = _green(CampaignSpec("main", p, (k1,)))
            counts[(p, k1)] = report.checked
    assert counts[(5, 1)] == 36
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0
    print(f"PASS criterion 3: rank-1 exhaustive, {sum(counts.values())} points "
          f"(36 at p=5, k=(1)), {elapsed:.2f}s")


def test_criterion_04_main_rank_two():
    t0 = time.monotonic()
    checked = 0
    # frozen exhaustive counts: a capacity skip would lower them
    exhaustive_counts = {((2, 1), 7): 61, ((2, 1), 11): 440, ((3, 1), 7): 22,
                         ((3, 1), 11): 192, ((3, 2), 7): 22, ((3, 2), 11): 192}
    for k in ((2, 1), (3, 1), (3, 2)):
        for p in (7, 11):
            report = _green(CampaignSpec("main", p, k))
            assert report.checked == exhaustive_counts[(k, p)], (k, p, report.checked)
            checked += report.checked
        sampled = _green(CampaignSpec("main", 13, k, exhaustive=False,
                                      samples=200, seed=13))
        assert sampled.checked == 200
        checked += sampled.checked
    # every point of the largest block chain of the suite
    exhaustive = _green(CampaignSpec("main", 17, (3, 2)))
    assert exhaustive.checked == 1300
    checked += exhaustive.checked
    elapsed = time.monotonic() - t0
    assert elapsed < 900.0
    print(f"PASS criterion 4: rank-2 exhaustive p in {{7,11}} + 200-point "
          f"samples at p=13 + exhaustive k=(3,2) p=17, {checked} points, "
          f"{elapsed:.2f}s")


def test_criterion_05_main_rank_three():
    t0 = time.monotonic()
    k = KComposition((3, 2, 1))
    box = 1
    for t in cycle_from_composition(k).targets(11):
        box *= t + 1
    assert box <= DEFAULT_SLOT_BUDGET
    exhaustive = _green(CampaignSpec("main", 7, (3, 2, 1)))
    assert exhaustive.checked == 38
    ctx = FpContext(11)
    dist_checked = 0
    for c in (1, 2, 3):
        for a in range(1, 10 - 2 * c):
            pt = distinguished_point(k, a, c, ctx)
            rhs = r_value(k, pt, ctx)
            assert rhs.ok
            assert selberg_integral(k, pt, ctx) == rhs.value
            dist_checked += 1
    sampled = _green(CampaignSpec("main", 11, (3, 2, 1), exhaustive=False,
                                  samples=25, seed=5))
    assert sampled.checked == 25
    elapsed = time.monotonic() - t0
    assert elapsed < 1800.0
    print(f"PASS criterion 5: rank-3 exhaustive p=7 (38 points) + p=11 "
          f"distinguished grid ({dist_checked}) + 25 samples, {elapsed:.2f}s")


def test_criterion_06_two_and_three_group_closed_forms():
    t0 = time.monotonic()
    r5 = _green(CampaignSpec("thm_3_11", 5))
    assert (r5.checked, r5.skipped) == (190, 85)
    r7 = _green(CampaignSpec("thm_3_11", 7))
    assert (r7.checked, r7.skipped) == (658, 322)
    assert _green(CampaignSpec("thm_4_111", 5)).checked == 492
    assert _green(CampaignSpec("thm_4_111", 7)).checked == 2298
    # the hand-checked value: p=5, (a,b1,b2,c) = (1,3,2,2) evaluates to 3
    ctx = FpContext(5)
    from fpselberg.formulas import rhs_3_11
    hand = rhs_3_11(1, 3, 2, 2, ctx)
    assert hand.ok and int(hand.value) == 3
    assert int(selberg_integral(KComposition((1, 1)), ParamPoint(1, (3, 2), 2), ctx)) == 3
    elapsed = time.monotonic() - t0
    assert elapsed < 120.0
    print(f"PASS criterion 6: two/three-group closed forms exhaustive p in {{5,7}}, "
          f"hand value 3 confirmed, {elapsed:.2f}s")


def test_criterion_07_recurrence_suite():
    t0 = time.monotonic()
    k = (2, 1)
    # checked counts frozen at seed 7: S1S2 checks the 125 decrement edges
    # of its 50 sampled points, B1 and B2 each skip only where their own
    # factor vanishes
    for name, samples, checked in (("relations_IS", 50, 50), ("relations_II0", 50, 50),
                                   ("relations_B1", 120, 89), ("relations_B2", 120, 86),
                                   ("relations_S1S2", 50, 125)):
        report = _green(CampaignSpec(name, 11, k, exhaustive=False,
                                     samples=samples, seed=7))
        assert report.checked == checked, (name, report.checked)
    elapsed = time.monotonic() - t0
    print(f"PASS criterion 7: recurrences IS, II=0, B1, B2, S-1/S-2 at p=11, "
          f"frozen checked counts, {elapsed:.2f}s")


def test_criterion_08_induction():
    t0 = time.monotonic()
    r7 = _green(CampaignSpec("induction", 7))
    r11 = _green(CampaignSpec("induction", 11))
    assert r7.checked == 21 and r11.checked == 75
    elapsed = time.monotonic() - t0
    print(f"PASS criterion 8: induction identities n in {{2,3}}, p in {{7,11}}, "
          f"{r7.checked + r11.checked} points, {elapsed:.2f}s")


def test_criterion_09_weighted_closed_form():
    t0 = time.monotonic()
    exhaustive = _green(CampaignSpec("i000", 7, (2, 1)))
    assert exhaustive.checked == 60
    # boundary b2 = (k1-k2+1)c is in the exhaustive domain
    pts7 = enumerate_admissible_I(2, 1, FpContext(7))
    assert any(pt.b[1] == 2 * pt.c for pt in pts7)
    sampled = _green(CampaignSpec("i000", 11, (2, 1), exhaustive=False,
                                  samples=150, seed=7))
    assert sampled.checked == 150
    # boundary at p=11, checked directly
    ctx = FpContext(11)
    pt = next(pt for pt in enumerate_admissible_I(2, 1, ctx) if pt.b[1] == 2 * pt.c)
    rhs = i000_rhs(2, 1, pt, ctx)
    assert rhs.ok
    assert weighted_integral(2, 1, AllowableTriple(0, 0, 0), pt, ctx) == rhs.value
    # two groups of sizes 3 and 2, every point: the closed form and the
    # II=0 chain of weighted integrals
    assert _green(CampaignSpec("i000", 11, (3, 2))).checked == 191
    assert _green(CampaignSpec("relations_II0", 11, (3, 2))).checked == 192
    assert _green(CampaignSpec("relations_II0", 13, (3, 2))).checked == 407
    elapsed = time.monotonic() - t0
    print(f"PASS criterion 9: weighted-integral closed form, exhaustive p=7 "
          f"(60 points) + 150 samples p=11, boundary included, exhaustive "
          f"k=(3,2) p=11 for i000 (191) and II=0 (192), II=0 at p=13 (407), "
          f"{elapsed:.2f}s")


def test_criterion_10_property_suites():
    t0 = time.monotonic()
    stokes = _green(CampaignSpec("stokes", 7, (3, 2), exhaustive=False, samples=500, seed=3))
    assert stokes.checked == 500

    # group-internal transpositions leave the integral unchanged
    rng = random.Random(20250825)
    sym_checked = 0
    while sym_checked < 100:
        kparts = rng.choice(((2, 1), (3, 1), (3, 2)))
        p = rng.choice((5, 7))
        ctx = FpContext(p)
        k = KComposition(kparts)
        pt = ParamPoint(rng.randint(0, 3),
                        tuple(rng.randint(0, p - 1) for _ in range(k.n)),
                        rng.randint(1, max((p - 1) // k.part(1), 1)))
        groups = [(g, k.part(g)) for g in range(1, k.n + 1) if k.part(g) >= 2]
        g, size = rng.choice(groups)
        offset = sum(k.part(i) for i in range(1, g))
        i, j = rng.sample(range(size), 2)
        perm = list(range(k.num_variables()))
        perm[offset + i], perm[offset + j] = perm[offset + j], perm[offset + i]
        fp = master_polynomial(k, pt, ctx)
        targets = cycle_from_composition(k).targets(p)
        assert ref.coefficient(fp, targets) == ref.coefficient(ref.relabelled(fp, perm), targets)
        sym_checked += 1

    # truncated engine vs sparse oracle on random products
    for trial in range(200):
        trng = random.Random(5000 + trial)
        p = trng.choice((5, 7, 11))
        ctx = FpContext(p)
        nv = trng.randint(1, 3)
        factors = []
        for _ in range(trng.randint(1, 4)):
            kind = trng.randint(0, 2)
            if kind == 0:
                form = LinearForm.var(trng.randrange(nv))
            elif kind == 1:
                form = LinearForm.one_minus(trng.randrange(nv))
            else:
                i = trng.randrange(nv)
                j = trng.randrange(nv)
                form = LinearForm.diff(i, j) if i != j else LinearForm.var(i)
            factors.append((form, trng.randint(0, 5)))
        fp = FactorProduct(ctx, nv, tuple(factors), trng.randint(1, p - 1))
        caps = tuple(trng.randint(0, 8) for _ in range(nv))
        poly = expand(fp, caps)
        table = sparse_expand_oracle(fp)
        for mono, value in table.items():
            if all(m <= c for m, c in zip(mono, caps)):
                assert int(poly.coefficient(mono)) == value

    # Wilson cancellation, exhaustive per prime
    for p in (5, 7, 11, 13):
        ctx = FpContext(p)
        for a in range(p):
            assert (checked_factorial(ctx, a) * checked_factorial(ctx, p - 1 - a)
                    == sign_pow(ctx, a + 1))

    elapsed = time.monotonic() - t0
    assert elapsed < 60.0
    print(f"PASS criterion 10: 500 Stokes + 100 transpositions + 200 oracle "
          f"comparisons + Wilson exhaustive, {elapsed:.2f}s")


def test_criterion_11_bench_informational():
    # bench times the block chain; its value is checked against the
    # independent reference engine, not against the chain itself
    out = bench(13, (3, 2))
    ctx = FpContext(13)
    k = KComposition((3, 2))
    pt = distinguished_point(k, 1, 1, ctx)
    assert out["value"] == ref.coefficient(master_polynomial(k, pt, ctx),
                                           cycle_from_composition(k).targets(13))
    assert out["target_slots"] <= out["budget"]
    assert out["trunc_ms"] < 10_000
    status = out["oracle_status"]
    agrees = out["oracle_agrees"]
    assert status == "completed" or status.startswith("aborted")
    if status == "completed":
        assert agrees is True
    print(f"PASS criterion 11: bench k=(3,2), p=13: block chain {out['trunc_ms']} ms "
          f"within budget; oracle {status} after {out['oracle_ms']} ms (informational)")
