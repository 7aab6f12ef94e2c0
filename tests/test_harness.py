import dataclasses
import json
import random

import pytest

from fpselberg import harness
from fpselberg.admissible import distinguished_point, enumerate_admissible
from fpselberg.formulas import induction_factor
from fpselberg.gf import FpContext
from fpselberg.integrals import KComposition, ParamPoint, selberg_integral
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
        CampaignSpec("stokes", 7, samples=-3)
    # a sample count on an exhaustive spec used to be ignored: the whole
    # domain was swept and the report said seed None
    for campaign in ("i000", "main", "beta"):
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
    # stokes takes its point count from samples, sampled or not
    assert CampaignSpec("stokes", 7, samples=500, seed=3).exhaustive
    assert run_campaign(CampaignSpec("stokes", 5, exhaustive=False, samples=3)).total == 3


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
    "stokes": CampaignSpec("stokes", 5, samples=20, seed=2),
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
    # the one over the list of the enumerated points' keys
    ctx = FpContext(13)
    population = [(pt.a, pt.b, pt.c) for pt in enumerate_admissible(KComposition((3, 2)), ctx)
                  if campaign == "main" or pt.b[1] >= 2]
    n = len(population)
    for seed in range(21):
        for samples in (1, 36, n, n + 5):
            spec = CampaignSpec(campaign, 13, (3, 2), exhaustive=False, samples=samples,
                                seed=seed)
            expected = sorted(random.Random(seed).sample(population, min(samples, n)))
            total, keys = harness._CAMPAIGNS[campaign].keys(spec, ctx)
            assert (total, keys) == (len(expected), expected), (seed, samples)
    assert all(type(x) is int for a, b, c in keys for x in (a, *b, c))


def test_sampled_main_builds_points_for_its_sample_alone(monkeypatch):
    # the domain's 407 points stay rows; a ParamPoint is built only for each
    # of the 36 sampled keys (the whole domain was built, 443 in all, while
    # keys were taken from the public enumerator's points)
    built = []
    post_init = harness.ParamPoint.__post_init__

    def counting(self):
        built.append(self)
        post_init(self)

    monkeypatch.setattr(harness.ParamPoint, "__post_init__", counting)
    report = run_campaign(CampaignSpec("main", 13, (3, 2), exhaustive=False, samples=36, seed=1))
    assert report.checked == 36 and len(built) == 36


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
            seen.append(list(chunk))
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


def test_tasks_run_in_key_order(monkeypatch):
    # thm_3_11 keys vary c fastest; the block cache keeps every c of the
    # prime, so evaluation follows the key list as it is, in contiguous
    # key lists of at most CHUNK_KEYS
    seen, expect, got, keys = _recorded_chunks(monkeypatch, 1)
    assert [key for chunk in seen for key in chunk] == keys
    assert max(map(len, seen)) <= harness.CHUNK_KEYS < len(keys)
    assert got == expect


def test_pool_chunks_run_in_key_order(monkeypatch):
    # the pool hands each worker several contiguous chunks, in key order
    seen, expect, got, keys = _recorded_chunks(monkeypatch, 2)
    assert [key for chunk in seen for key in chunk] == keys
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
    with pytest.raises(ValueError):
        run_campaign(CampaignSpec("main", 7))
    with pytest.raises(ValueError):
        run_campaign(CampaignSpec("relations_IS", 7, (2, 1, 1)))


@pytest.mark.parametrize("campaign, k", [("beta", (2, 1)), ("dyson", (2,)), ("thm_3_11", (1, 1)),
                                         ("thm_4_111", (1, 1, 1)), ("stokes", (7,))])
def test_campaigns_without_k_reject_one(campaign, k):
    # these never read a composition: the report used to echo it anyway
    with pytest.raises(ValueError, match="takes no composition k"):
        run_campaign(CampaignSpec(campaign, 5, k))


def test_relations_s1s2_edges_pass():
    # edges from points one b1-step and one b2-step above the distinguished point
    ctx = FpContext(11)
    keys = [((2, (6, 5), 3), 0), ((2, (5, 6), 3), 1)]
    assert harness._outcome("relations_S1S2", ctx, (2, 1), keys) == [("pass", None)] * 2


def test_induction_points_pass():
    for p, key in ((7, ((2, 1), 1, 1)), (7, ((3, 2, 1), 1, 1)), (11, ((2, 1), 2, 3))):
        assert harness._outcome("induction", FpContext(p), None, [key]) == [("pass", None)]


def test_induction_runner_skips_oversized_last_group():
    key = ((3, 2), 1, 4)
    skip, = harness._CAMPAIGNS["induction"].check(FpContext(7), None, [key])
    assert isinstance(skip, harness._Skip) and "k_n c" in str(skip)
    assert harness._outcome("induction", FpContext(7), None, [key]) == [("skip", None)]


def test_induction_batches_each_run_of_one_composition():
    # two runs of (2,1) around one of (3,2,1), a repeated key, and a key
    # whose last group is too large for its c: one result per key, in key
    # order, each side equal to the integral at its distinguished point
    ctx = FpContext(11)
    keys = [((2, 1), 2, 3), ((2, 1), 1, 1), ((2, 1), 2, 3), ((3, 2, 1), 1, 1),
            ((3, 2, 1), 1, 11), ((3, 2, 1), 2, 2), ((2, 1), 3, 2)]
    results = harness._CAMPAIGNS["induction"].check(ctx, None, keys)
    assert len(results) == len(keys)
    assert isinstance(results[4], harness._Skip) and "k_n c" in str(results[4])
    for (kparts, a, c), result in zip(keys[:4] + keys[5:], results[:4] + results[5:]):
        comp = KComposition(kparts)
        trunc = comp.truncated()
        lhs = selberg_integral(comp, distinguished_point(comp, a, c, ctx), ctx)
        rhs = induction_factor(comp, c, ctx) * selberg_integral(
            trunc, distinguished_point(trunc, a, c, ctx), ctx)
        assert result == (lhs, rhs, f"k={kparts} factored identity")
    assert results[0] == results[2]


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


def test_outcomes_follow_the_keys_through_skips():
    # one key list mixing passes and a main skip (r_value undefined), with
    # a key repeated: one outcome per key, in key order
    ctx = FpContext(7)
    keys = [(1, (2, 5), 3), (0, (0, 0), 1), (2, (3, 5), 3), (1, (2, 5), 3)]
    outcomes = harness._outcome("main", ctx, (2, 1), keys)
    assert [status for status, _ in outcomes] == ["pass", "skip", "pass", "pass"]
    checks = harness._CAMPAIGNS["main"].check(ctx, (2, 1), keys)
    assert isinstance(checks[1], harness._Skip)
    assert [lhs for lhs, _, _ in checks[:1] + checks[2:]] == harness.selberg_integrals(
        KComposition((2, 1)), [ParamPoint(*key) for key in keys[:1] + keys[2:]], ctx)


def test_stokes_campaign_runs_clean():
    r = run_campaign(CampaignSpec("stokes", 7, samples=25, seed=4))
    assert r.total == r.checked == r.passed == 25
    assert r.seed == 4


def test_bench_reports_comparison():
    out = bench(7, (2, 1))
    assert out["p"] == 7 and out["k"] == [2, 1]
    assert out["trunc_ms"] >= 0
    assert out["oracle_status"] == "completed" or out["oracle_status"].startswith("aborted")
    if out["oracle_status"] == "completed":
        assert out["oracle_agrees"] is True
