import dataclasses
import json
import os
import random
import re
import subprocess
import sys
import textwrap
from collections import Counter
from itertools import product
from pathlib import Path

import numpy as np
import pytest

from fpselberg import formulas, harness, integrals, mpoly
from fpselberg.admissible import distinguished_point, enumerate_admissible
from fpselberg.errors import InvariantViolation, ZeroFactor
from fpselberg.formulas import b_factor, induction_factor
from fpselberg.gf import FpContext, FpElement
from fpselberg.integrals import KComposition, ParamPoint, row_points, selberg_integral
from fpselberg.mpoly import LinearForm
from fpselberg.harness import (CAMPAIGNS, CampaignSpec, VerificationReport, bench,
                               run_campaign)

REPORT_KEYS = ["campaign", "p", "k", "total", "checked", "passed", "skipped",
               "failures", "elapsed_ms", "seed"]


def test_campaign_spec_validation():
    with pytest.raises(ValueError):
        CampaignSpec("nonsense", 7)
    spec = CampaignSpec("main", 7, [2, 1])
    assert spec.k == (2, 1)
    with pytest.raises(ValueError, match="samples must be at least 0"):
        CampaignSpec("stokes", 7, (2, 1), samples=-3)
    # a sample count on an exhaustive spec used to be ignored: the whole
    # domain was swept and the report said seed None
    for campaign in ("i000", "main", "beta", "stokes"):
        with pytest.raises(ValueError, match="exhaustive .* takes no samples"):
            CampaignSpec(campaign, 7, (2, 1), samples=3, seed=4)
    # a worker count below 1 used to run silently in this process
    for jobs in (0, -3):
        with pytest.raises(ValueError, match="jobs must be at least 1"):
            CampaignSpec("beta", 5, jobs=jobs)


@pytest.mark.parametrize("campaign", ["beta", "dyson", "thm_3_11", "thm_4_111", "induction"])
def test_campaigns_without_a_sampler_reject_samples(campaign):
    # these sweep every point: a sample count used to be ignored while the
    # report still claimed the seed
    with pytest.raises(ValueError, match="takes no samples"):
        run_campaign(CampaignSpec(campaign, 5, exhaustive=False, samples=3, seed=9))


def test_sampled_spec_needs_a_sample():
    # a sampled run of 0 points used to report total 0, checked 0: a pass
    with pytest.raises(ValueError, match="at least 1 sample"):
        CampaignSpec("main", 7, (2, 1), exhaustive=False, samples=0, seed=4)
    # stokes used to take its point count from samples, sampled or not; it
    # samples its box as main samples its domain
    with pytest.raises(ValueError, match="exhaustive stokes run takes no samples"):
        CampaignSpec("stokes", 7, (2, 1), samples=500, seed=3)
    report = run_campaign(CampaignSpec("stokes", 5, (2, 1), exhaustive=False, samples=3, seed=6))
    assert (report.total, report.checked, report.seed) == (3, 3, 6)


def test_report_schema_and_key_order():
    report = run_campaign(CampaignSpec("beta", 5))
    d = report.as_dict()
    assert list(d) == REPORT_KEYS
    assert d["campaign"] == "beta" and d["p"] == 5 and d["k"] is None
    assert d["total"] == 25 and d["checked"] == 25 == d["passed"]
    assert d["skipped"] == 0 and d["failures"] == [] and d["seed"] is None
    assert isinstance(d["elapsed_ms"], int)
    json.dumps(d)  # serializable as-is


ACCOUNTING_SPECS = {
    "main": CampaignSpec("main", 5, (1,)),
    "thm_3_11": CampaignSpec("thm_3_11", 5),
    "relations_B1": CampaignSpec("relations_B1", 7, (2, 1), exhaustive=False,
                                 samples=10, seed=1),
    "relations_B2": CampaignSpec("relations_B2", 7, (2, 1)),
    "stokes": CampaignSpec("stokes", 5, (3, 2, 1), exhaustive=False, samples=20, seed=2),
}


@pytest.mark.parametrize("campaign", CAMPAIGNS)
def test_accounting_invariants(campaign):
    k = (2, 1) if harness._CAMPAIGNS[campaign].k_len is not None else None
    r = run_campaign(ACCOUNTING_SPECS.get(campaign, CampaignSpec(campaign, 5, k)))
    assert r.passed + len(r.failures) == r.checked
    assert r.checked + r.skipped == r.total


def test_reports_are_deterministic():
    spec = CampaignSpec("main", 7, (2, 1), exhaustive=False, samples=20, seed=9)
    a = run_campaign(spec).as_dict()
    b = run_campaign(spec).as_dict()
    a.pop("elapsed_ms"), b.pop("elapsed_ms")
    assert a == b


def test_different_seed_changes_sample():
    base = CampaignSpec("relations_IS", 11, (2, 1), exhaustive=False, samples=5, seed=1)
    other = CampaignSpec("relations_IS", 11, (2, 1), exhaustive=False, samples=5, seed=2)
    assert run_campaign(base).seed == 1
    # same sizes either way, whatever the draw
    ra, rb = run_campaign(base), run_campaign(other)
    assert ra.checked == rb.checked == 5


@pytest.mark.parametrize("campaign", ["main", "relations_B2"])
def test_sampling_indices_picks_the_keys_of_sampling_the_key_list(campaign):
    # keys are drawn as indices into the domain's rows; random.sample reads
    # only the population's length and the items it picks, so the draw is
    # the one over the list of the enumerated points' keys, and the rows
    # are those keys
    ctx = FpContext(13)
    population = [(pt.a, pt.b, pt.c) for pt in enumerate_admissible(KComposition((3, 2)), ctx)
                  if campaign == "main" or pt.b[1] >= 2]
    n = len(population)
    for seed in range(21):
        for samples in (1, 36, n, n + 5):
            spec = CampaignSpec(campaign, 13, (3, 2), exhaustive=False, samples=samples,
                                seed=seed)
            expected = sorted(random.Random(seed).sample(population, min(samples, n)))
            total, rows = harness._CAMPAIGNS[campaign].keys(spec, ctx)
            keys = [(a, tuple(b), c) for a, *b, c in rows.tolist()]
            assert (total, keys) == (len(expected), expected), (seed, samples)
    assert rows.dtype == np.int64


def test_sampled_i000_rechecks_its_sample_alone(monkeypatch):
    # the I_000 domain of (3,1) at p=11 stays rows (191); the closed form,
    # which re-checks walked rows, is asked in one batch call over the 30
    # sampled rows (at all 191 points, and again at the 30, while keys were
    # taken from `enumerate_admissible_I`; then once per sampled key)
    asked = []
    closed_form = formulas.i000_rhs_values

    def counting(k1, k2, rows, ctx):
        asked.append(row_points(rows))
        return closed_form(k1, k2, rows, ctx)

    monkeypatch.setattr(formulas, "i000_rhs_values", counting)
    spec = CampaignSpec("i000", 11, (3, 1), exhaustive=False, samples=30, seed=7)
    report = run_campaign(spec)
    assert report.checked == report.passed == 30
    sample, = asked
    assert len(sample) == len(set(sample)) == 30
    # a sampled point where the closed form is undefined is a fault of the walk
    victim = sample[5]

    def undefined_at_victim(k1, k2, rows, ctx):
        values, first = closed_form(k1, k2, rows, ctx)
        return values, np.where([pt == victim for pt in row_points(rows)], 0, first)

    monkeypatch.setattr(formulas, "i000_rhs_values", undefined_at_victim)
    with pytest.raises(InvariantViolation,
                       match=rf"enumerated point {re.escape(str(victim))} has no I_000 closed "
                             "form: factorial argument"):
        run_campaign(spec)


def test_sampled_main_builds_points_for_its_sample_alone(monkeypatch):
    # the domain's 407 points stay rows from the key list to the verdict,
    # and a passing run builds no ParamPoint (36, one per sampled key, while
    # keys were tuples; 443 in all while they were taken from the public
    # enumerator's points)
    built = []
    post_init = ParamPoint.__post_init__

    def counting(self):
        built.append(self)
        post_init(self)

    monkeypatch.setattr(ParamPoint, "__post_init__", counting)
    report = run_campaign(CampaignSpec("main", 13, (3, 2), exhaustive=False, samples=36, seed=1))
    assert report.checked == report.passed == 36 and len(built) == 0


def _objects_built(monkeypatch, spec) -> tuple[VerificationReport, Counter]:
    """The report of a run, and how many ParamPoints, FpElements and
    FormulaResults it built."""
    built = Counter()
    for cls, name in ((ParamPoint, "__post_init__"), (FpElement, "__init__"),
                      (formulas.FormulaResult, "__init__")):
        def counting(self, *args, original=getattr(cls, name), cls=cls, **kwargs):
            built[cls.__name__] += 1
            original(self, *args, **kwargs)
        monkeypatch.setattr(cls, name, counting)
    report = run_campaign(spec)
    monkeypatch.undo()
    return report, built


@pytest.mark.parametrize("small, large", [
    (CampaignSpec("main", 7, (2, 1)), CampaignSpec("main", 13, (2, 1))),
    (CampaignSpec("thm_3_11", 5), CampaignSpec("thm_3_11", 7)),
    (CampaignSpec("thm_4_111", 5), CampaignSpec("thm_4_111", 7)),
    (CampaignSpec("i000", 7, (2, 1)), CampaignSpec("i000", 11, (3, 1))),
], ids=lambda spec: f"{spec.campaign}-p{spec.p}")
def test_row_campaigns_build_no_objects_per_key(monkeypatch, small, large):
    # main, thm_3_11, thm_4_111 and i000 keep their keys as int64 rows from
    # the key list to the verdict: a passing run builds no ParamPoint, and
    # as many FpElements and FormulaResults however many keys it checks
    # (a ParamPoint, a FormulaResult and two FpElements per key while keys
    # were tuples: 890, 890 and 1 780 for main (2,1) at p=13)
    (few, at_few), (many, at_many) = (_objects_built(monkeypatch, spec) for spec in (small, large))
    assert few.all_passed and many.all_passed and 0 < few.checked < many.checked
    assert at_few["ParamPoint"] == at_many["ParamPoint"] == 0
    assert at_few == at_many


@pytest.mark.parametrize("p", [5, 7, 11, 13])
def test_induction_keys_are_the_ac_pairs_of_the_domain_table(p):
    # the key list as it was written before it was read off the table's a/c
    # entries: per composition, c with k_1 c < p, then a with
    # a + (k_1-1)c < p-1
    for k in (None, (2, 1), (3, 2), (3, 2, 1)):
        expected = [(kparts, a, c)
                    for kparts in (harness._INDUCTION_COMPOSITIONS if k is None else (k,))
                    for c in range(1, (p - 1) // kparts[0] + 1)
                    for a in range(1, p - 1 - (kparts[0] - 1) * c)]
        spec = CampaignSpec("induction", p, k)
        assert harness._induction_keys(spec, FpContext(p)) == (len(expected), expected)


def test_parallel_matches_sequential():
    seq = run_campaign(CampaignSpec("beta", 7)).as_dict()
    par = run_campaign(CampaignSpec("beta", 7, jobs=2)).as_dict()
    seq.pop("elapsed_ms"), par.pop("elapsed_ms")
    assert seq == par


@pytest.mark.parametrize("spec", [
    CampaignSpec("main", 7, (2, 1)),
    CampaignSpec("induction", 7),
    CampaignSpec("relations_S1S2", 7, (2, 1)),
    # key order interleaves c values and the weighted blocks' lowered pairs
    CampaignSpec("relations_II0", 7, (2, 1)),
    CampaignSpec("i000", 7, (2, 1)),
])
def test_parallel_matches_sequential_on_selberg_campaigns(spec):
    seq = run_campaign(spec).as_dict()
    par = run_campaign(CampaignSpec(spec.campaign, spec.p, spec.k, jobs=2)).as_dict()
    seq.pop("elapsed_ms"), par.pop("elapsed_ms")
    assert seq == par


def _recorded_chunks(monkeypatch, jobs):
    """The key lists thm_3_11 at p=5 hands its check, the report with and
    without the recording, and the campaign's key list."""
    spec = CampaignSpec("thm_3_11", 5)
    entry = harness._CAMPAIGNS["thm_3_11"]
    expect = run_campaign(spec).as_dict()
    _, keys = entry.keys(spec, FpContext(5))
    seen = []
    if jobs == 1:
        def recording(ctx, k, chunk):
            seen.append(chunk)
            return entry.check(ctx, k, chunk)

        monkeypatch.setitem(harness._CAMPAIGNS, "thm_3_11",
                            dataclasses.replace(entry, check=recording))
    else:
        # a pool worker runs the campaign table it imports, so the chunks
        # are recorded where the pool hands them out, to threads here
        import concurrent.futures

        class RecordingPool(concurrent.futures.ThreadPoolExecutor):
            def map(self, fn, *iterables):
                campaigns, ctxs, ks, chunks = iterables
                chunks = list(chunks)
                seen.extend(chunks)
                return super().map(fn, campaigns, ctxs, ks, chunks)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    got = run_campaign(dataclasses.replace(spec, jobs=jobs)).as_dict()
    expect.pop("elapsed_ms"), got.pop("elapsed_ms")
    return seen, expect, got, keys


def test_a_second_pass_builds_no_block_and_runs_one_batch_per_c_group(monkeypatch):
    # the blocks of every prime stay cached across the primes of a sweep,
    # and each chunk's c groups, which fit under BATCH_SLOTS, run as one
    # batch each; at 256 keys a chunk cut thm_4_111 at p=5 (492 keys) and
    # thm_3_11 at p=7 (980) and so their c groups into more batches
    specs = [CampaignSpec("thm_4_111", 5), CampaignSpec("thm_3_11", 7),
             CampaignSpec("main", 11, (2, 1))]
    monkeypatch.setattr(integrals, "_BLOCKS", integrals._BlockCache())
    first = [run_campaign(spec).as_dict() for spec in specs]
    built, groups, batches = [], [], []
    expand, runner, chain = mpoly.expand, integrals.chain_integrals, integrals._chain

    def recording_expand(fp, caps):
        built.append(caps)
        return expand(fp, caps)

    def recording_runner(k, rows, *args):
        groups.append(sorted(Counter(rows[:, -1].tolist()).values()))
        batches.append([])
        return runner(k, rows, *args)

    def recording_chain(rows, blocks, p):
        batches[-1].append(len(rows[0][0]))
        return chain(rows, blocks, p)

    monkeypatch.setattr(mpoly, "expand", recording_expand)
    monkeypatch.setattr(integrals, "chain_integrals", recording_runner)
    monkeypatch.setattr(integrals, "_chain", recording_chain)
    second = [run_campaign(spec).as_dict() for spec in specs]
    assert built == []
    assert len(groups) == len(specs)  # one chunk each
    assert [sorted(sizes) for sizes in batches] == groups
    for report in first + second:
        report.pop("elapsed_ms")
    assert second == first


def test_tasks_run_in_key_order(monkeypatch):
    # thm_3_11 keys vary c fastest; the block cache keeps every c of the
    # prime, so evaluation follows the key list as it is, in contiguous
    # key lists of at most CHUNK_KEYS (lowered below the 275 keys at p=5)
    monkeypatch.setattr(harness, "CHUNK_KEYS", 100)
    seen, expect, got, keys = _recorded_chunks(monkeypatch, 1)
    assert np.array_equal(np.concatenate(seen), keys)
    assert max(map(len, seen)) <= harness.CHUNK_KEYS < len(keys)
    assert got == expect


def test_pool_chunks_run_in_key_order(monkeypatch):
    # the pool hands each worker several contiguous chunks, in key order
    seen, expect, got, keys = _recorded_chunks(monkeypatch, 2)
    assert np.array_equal(np.concatenate(seen), keys)
    assert len(seen) >= harness._CHUNKS_PER_JOB * 2
    assert got == expect


def test_failures_populate_all_passed():
    report = VerificationReport("main", 7, (2, 1), 1, 1, 0, 0, failures=[
        {"point": {"a": 1, "b": [2, 5], "c": 3}, "lhs": 0, "rhs": 1,
         "classifier": "mismatch"}])
    assert not report.all_passed
    d = report.as_dict()
    assert d["failures"][0]["point"] == {"a": 1, "b": [2, 5], "c": 3}


def test_campaigns_requiring_k_reject_its_absence():
    for campaign in ("main", "stokes"):
        with pytest.raises(ValueError, match="needs a composition k"):
            run_campaign(CampaignSpec(campaign, 7))
    with pytest.raises(ValueError):
        run_campaign(CampaignSpec("relations_IS", 7, (2, 1, 1)))


@pytest.mark.parametrize("campaign, k", [("beta", (2, 1)), ("dyson", (2,)), ("thm_3_11", (1, 1)),
                                         ("thm_4_111", (1, 1, 1))])
def test_campaigns_without_k_reject_one(campaign, k):
    # these never read a composition: the report used to echo it anyway
    with pytest.raises(ValueError, match="takes no composition k"):
        run_campaign(CampaignSpec(campaign, 5, k))


def test_relations_s1s2_edges_pass():
    # edges from points one b1-step and one b2-step above the distinguished point
    ctx = FpContext(11)
    keys = [((2, 6, 5, 3), 0), ((2, 5, 6, 3), 1)]
    assert harness._outcome("relations_S1S2", ctx, (2, 1), keys) == (2, [])


@pytest.mark.parametrize("campaign, key", [("relations_B1", (1, 2, 6, 3)),
                                           ("relations_B2", (1, 3, 5, 3))])
def test_b_relations_check_where_only_the_other_factor_vanishes(campaign, key):
    # at p = 7, k = (2, 1): B2's first-ratio numerator vanishes at the B1
    # key, B1's first-product numerator at the B2 key
    assert harness._outcome(campaign, FpContext(7), (2, 1), np.array([key])) == (1, [])


@pytest.mark.parametrize("p", [7, 11])
@pytest.mark.parametrize("idx", [0, 1])
def test_b_relations_skip_exactly_where_their_factor_vanishes(p, idx):
    spec = CampaignSpec(f"relations_B{idx + 1}", p, (2, 1))
    ctx = FpContext(p)
    _, keys = harness._CAMPAIGNS[spec.campaign].keys(spec, ctx)
    vanishing = 0
    for pt in row_points(keys):
        try:
            b_factor(2, 1, idx, pt, ctx)
        except ZeroFactor:
            vanishing += 1
    report = run_campaign(spec)
    assert report.skipped == vanishing > 0 and report.all_passed


def test_induction_points_pass():
    for p, key in ((7, ((2, 1), 1, 1)), (7, ((3, 2, 1), 1, 1)), (11, ((2, 1), 2, 3))):
        assert harness._outcome("induction", FpContext(p), None, [key]) == (1, [])


def test_induction_runner_skips_oversized_last_group():
    # k_n c = 8 > p - 1: an unchecked row
    key = ((3, 2), 1, 4)
    verdicts = harness._CAMPAIGNS["induction"].check(FpContext(7), None, [key])
    assert verdicts.checked.tolist() == [False]
    assert harness._outcome("induction", FpContext(7), None, [key]) == (0, [])


def test_induction_batches_each_run_of_one_composition():
    # two runs of (2,1) around one of (3,2,1), a repeated key, and a key
    # whose last group is too large for its c: one row per key, in key
    # order, each side equal to the integral at its distinguished point
    ctx = FpContext(11)
    keys = [((2, 1), 2, 3), ((2, 1), 1, 1), ((2, 1), 2, 3), ((3, 2, 1), 1, 1),
            ((3, 2, 1), 1, 11), ((3, 2, 1), 2, 2), ((2, 1), 3, 2)]
    lhs, rhs, checked, classifiers = harness._CAMPAIGNS["induction"].check(ctx, None, keys)
    assert len(lhs) == len(rhs) == len(classifiers) == len(keys)
    assert checked.tolist() == [True] * 4 + [False] + [True] * 2
    rows = list(zip(lhs.tolist(), rhs.tolist(), classifiers))
    for (kparts, a, c), row in zip(keys[:4] + keys[5:], rows[:4] + rows[5:]):
        comp = KComposition(kparts)
        trunc = comp.truncated()
        full = selberg_integral(comp, distinguished_point(comp, a, c, ctx), ctx)
        factored = induction_factor(comp, c, ctx) * selberg_integral(
            trunc, distinguished_point(trunc, a, c, ctx), ctx)
        assert row == (full.residue, factored.residue, f"k={kparts} factored identity")
    assert rows[0] == rows[2]


def test_induction_takes_two_integral_calls_per_composition(monkeypatch):
    calls = {"selberg_integrals": 0, "selberg_integral": 0}

    def counted(name):
        original = getattr(harness, name)

        def wrapper(*args):
            calls[name] += 1
            return original(*args)
        return wrapper

    for name in calls:
        monkeypatch.setattr(harness, name, counted(name))
    report = run_campaign(CampaignSpec("induction", 13))
    assert report.all_passed and report.checked > 0
    assert calls == {"selberg_integrals": 2 * len(harness._INDUCTION_COMPOSITIONS),
                     "selberg_integral": 0}


def test_outcomes_follow_the_keys_through_skips(monkeypatch):
    # one row list mixing passes and a main skip (r_value undefined), with
    # a row repeated: one verdict per row, in row order
    ctx = FpContext(7)
    rows = np.array([(1, 2, 5, 3), (0, 0, 0, 1), (2, 3, 5, 3), (1, 2, 5, 3)])
    assert harness._outcome("main", ctx, (2, 1), rows) == (3, [])
    lhs, rhs, checked, classifiers = harness._CAMPAIGNS["main"].check(ctx, (2, 1), rows)
    assert classifiers == "mismatch"
    assert checked.tolist() == [True, False, True, True]
    assert lhs[checked].tolist() == rhs[checked].tolist() == harness.selberg_integrals(
        KComposition((2, 1)), rows[checked], ctx).tolist()
    # a closed form off by one where a = 1 fails the repeated row twice, in
    # row order, and nothing else
    r_values = formulas.r_values

    def off_at_a_one(k, rows, ctx):
        values, first = r_values(k, rows, ctx)
        return np.where(rows[:, 0] == 1, (values + 1) % ctx.p, values), first

    monkeypatch.setattr(formulas, "r_values", off_at_a_one)
    count, failures = harness._outcome("main", ctx, (2, 1), rows)
    assert count == 3
    assert [(f["point"], (f["lhs"] + 1) % 7 == f["rhs"]) for f in failures] == [
        ({"a": 1, "b": [2, 5], "c": 3}, True)] * 2


def test_stokes_campaign_runs_clean():
    r = run_campaign(CampaignSpec("stokes", 7, (3, 2), exhaustive=False, samples=25, seed=4))
    assert r.total == r.checked == r.passed == 25
    assert r.seed == 4
    # the keys are the box a, b_i, c in [1, p), in lexicographic order
    total, rows = harness._CAMPAIGNS["stokes"].keys(CampaignSpec("stokes", 7, (3, 2)),
                                                    FpContext(7))
    assert total == 6 ** 4 and rows.tolist() == [list(row) for row in product(range(1, 7),
                                                                             repeat=4)]


def test_stokes_identity_holds_over_the_whole_box():
    # beyond the golden (2, 1) at p=7: one group with and without its
    # in-group term, and cross terms through a third group
    for parts, p in (((1,), 7), ((3,), 7), ((3, 2), 7), ((2, 1, 1), 5), ((3, 2, 1), 5)):
        report = run_campaign(CampaignSpec("stokes", p, parts))
        assert report.checked == report.passed == (p - 1) ** (len(parts) + 2), parts
    # the in-group and cross sums of the product rule are k_1 - 1 and k_2
    # times one of their terms, a lowered (t_1 - t_j) or (s_m - t_1), by
    # symmetry within a group; unshifted, the in-group term is 0, since
    # swapping t_1 and t_j negates it, and with t_1^{a-1} it is not
    ctx, comp = FpContext(7), KComposition((3, 2))
    _, rows = harness._CAMPAIGNS["stokes"].keys(CampaignSpec("stokes", 7, (3, 2)), ctx)
    lowered = {(pair, shift): integrals.chain_integrals(
        comp, rows, ctx, [[shift, (0, 0), (0, 0)], [(0, 0)] * 2],
        frozenset({LinearForm.diff(*pair)}))
        for pair in ((0, 1), (0, 2), (3, 0), (4, 0)) for shift in ((0, 0), (-1, 0))}
    assert not lowered[(0, 1), (0, 0)].any() and not lowered[(0, 2), (0, 0)].any()
    for first, other, shift in (((0, 1), (0, 2), (-1, 0)), ((3, 0), (4, 0), (0, 0)),
                                ((3, 0), (4, 0), (-1, 0))):
        assert lowered[first, shift].any(), (first, shift)
        assert np.array_equal(lowered[first, shift], lowered[other, shift]), (first, shift)


def test_bench_reports_comparison():
    out = bench(7, (2, 1))
    assert out["p"] == 7 and out["k"] == [2, 1]
    assert out["trunc_ms"] >= 0
    assert out["oracle_status"] == "completed" or out["oracle_status"].startswith("aborted")
    if out["oracle_status"] == "completed":
        assert out["oracle_agrees"] is True


def test_the_benchmark_workloads_leave_numpy_ma_unimported():
    # numpy 2.4 imports numpy.ma the first time np.unique runs without
    # return_index, which adds about 1.3 MB to a process that runs main
    # (3,2,1) at p=11; the campaigns of every benchmark workload, run in a
    # fresh interpreter, must not import it
    bench = Path(__file__).resolve().parents[1] / "campaignbench"
    script = textwrap.dedent(f"""
        import sys
        sys.path.insert(0, {str(bench)!r})
        import suite
        from fpselberg import harness
        for workload in suite.WORKLOADS.values():
            for c in workload.full:
                report = harness.run_campaign(harness.CampaignSpec(
                    c.name, c.p, c.k, exhaustive=c.samples is None, samples=c.samples or 0,
                    seed=1))
                assert report.checked > 0 and report.all_passed, report
        print(sorted(name for name in sys.modules
                     if name == "numpy.ma" or name.startswith("numpy.ma.")))
    """)
    src = str(Path(harness.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          timeout=300, env=env)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"
