import itertools
import math
from collections import Counter
import random
import re
import tracemalloc

import numpy as np
import pytest

import reference_engine as ref
from reference_formulas import beta_rhs
from fpselberg import harness, integrals, mpoly
from fpselberg.admissible import enumerate_admissible
from fpselberg.errors import (AccumulatorOverflow, CapacityExceeded, InvalidExponent,
                              InvariantViolation, NegativeExponent,
                              NotAllowable, PreconditionViolation)
from fpselberg.gf import FpContext
from fpselberg.harness import _CAMPAIGNS, CampaignSpec
from fpselberg.integrals import (AllowableTriple, KComposition, ParamPoint,
                                 PCycle, cycle_from_composition, fp_integral,
                                 master_polynomial, point_rows, row_points,
                                 selberg_integral, selberg_integrals,
                                 weight_summands, weighted_integral)
from fpselberg.mpoly import FactorProduct, LinearForm


def test_cycle_targets():
    assert PCycle((1, 1)).targets(5) == (4, 4)
    assert PCycle((2, 3)).targets(7) == (13, 20)
    with pytest.raises(PreconditionViolation):
        PCycle((1, 0))


def test_composition_basics():
    k = KComposition((3, 2))
    assert k.n == 2
    assert (k.part(0), k.part(1), k.part(2), k.part(3)) == (0, 3, 2, 0)
    assert k.num_variables() == 5
    assert k.truncated() == KComposition((3,))
    assert k.is_strictly_decreasing()
    assert not KComposition((2, 2)).is_strictly_decreasing()
    with pytest.raises(PreconditionViolation):
        KComposition((2, 3))
    with pytest.raises(PreconditionViolation):
        KComposition(())


def test_cycle_from_composition():
    assert cycle_from_composition(KComposition((3, 2))).lengths == (1, 1, 1, 3, 3)
    assert cycle_from_composition(KComposition((2, 1))).lengths == (1, 1, 2)
    assert cycle_from_composition(KComposition((3, 2, 1))).lengths == (1, 1, 1, 3, 3, 2)
    assert cycle_from_composition(KComposition((1,))).lengths == (1,)
    assert cycle_from_composition(KComposition((1, 1, 1))).lengths == (1, 1, 1)


def test_param_point_validation():
    pt = ParamPoint(2, (4, 2), 1)
    assert pt.n == 2
    ParamPoint(0, (0, 0), 1)  # shifted points may touch zero
    with pytest.raises(PreconditionViolation):
        ParamPoint(-1, (1,), 1)
    with pytest.raises(PreconditionViolation):
        ParamPoint(1, (1,), 0)


def test_master_polynomial_factor_inventory():
    ctx = FpContext(7)
    k = KComposition((2, 1))
    fp = master_polynomial(k, ParamPoint(1, (2, 5), 3), ctx)
    by_exponent = {}
    for form, e in fp.factors:
        by_exponent.setdefault(e, []).append(form)
    # a=1 on the two first-group vars; b1=2 twice, b2=5 once; 2c=6 once
    # within group 1; p-c=4 on the two cross pairs
    assert len(by_exponent[1]) == 2
    assert len(by_exponent[2]) == 2
    assert len(by_exponent[5]) == 1
    assert len(by_exponent[6]) == 1
    assert len(by_exponent[4]) == 2


def test_master_polynomial_c_equal_p_drops_cross_factors():
    ctx = FpContext(5)
    fp = master_polynomial(KComposition((1, 1)), ParamPoint(1, (1, 1), 5), ctx)
    assert all(len(form.variables()) == 1 for form, _ in fp.factors)


def test_selberg_integral_known_value():
    ctx = FpContext(5)
    got = selberg_integral(KComposition((1, 1)), ParamPoint(1, (3, 2), 2), ctx)
    assert int(got) == 3
    assert int(selberg_integral(KComposition((1,)), ParamPoint(2, (2,), 1), ctx)) == 1


def test_fp_integral_basic_one_variable():
    ctx = FpContext(5)
    cubed = FactorProduct(ctx, 1, ((LinearForm.var(0), 3),))
    assert int(fp_integral(cubed, PCycle((1,)), ctx)) == 0  # no x^4 term
    sym = FactorProduct(ctx, 1, ((LinearForm.var(0), 2), (LinearForm.one_minus(0), 2)))
    assert int(fp_integral(sym, PCycle((1,)), ctx)) == 1


def test_master_polynomial_two_singleton_groups():
    ctx = FpContext(5)
    fp = master_polynomial(KComposition((1, 1)), ParamPoint(1, (3, 2), 2), ctx)
    forms = {(form, e) for form, e in fp.factors}
    assert forms == {
        (LinearForm.var(0), 1),
        (LinearForm.one_minus(0), 3),
        (LinearForm.diff(1, 0), 3),   # (s - t)^(p-c)
        (LinearForm.one_minus(1), 2),
    }


def test_beta_case_by_hand():
    # single variable: coefficient of x^{p-1} in x^a (1-x)^b is C(b, p-1-a)*(-1)^(p-1-a)
    ctx = FpContext(7)
    for a in range(4):
        fp = FactorProduct(ctx, 1, ((LinearForm.var(0), a), (LinearForm.one_minus(0), 6)))
        got = fp_integral(fp, PCycle((1,)), ctx)
        expect = math.comb(6, 6 - a) * (-1) ** (6 - a) % 7
        assert int(got) == expect


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
def test_beta_integral_is_the_one_group_chain(p):
    # the beta campaign's integral, x^a (1-x)^b over [1]_p, is the Selberg
    # integral of k = (1,) on the block chain
    ctx = FpContext(p)
    for a in range(p):
        for b in range(p):
            factors = ((LinearForm.var(0), a), (LinearForm.one_minus(0), b))
            expect = fp_integral(FactorProduct(ctx, 1, factors), PCycle((1,)), ctx)
            assert selberg_integral(KComposition((1,)), ParamPoint(a, (b,), 1), ctx) == expect


def _full_expansion(k, pt, ctx):
    targets = cycle_from_composition(k).targets(ctx.p)
    return ctx.element(ref.coefficient(master_polynomial(k, pt, ctx), targets))


def _edge_points(n, p):
    """a = 0, b_i in {0, p-1, p+1} and c in {1, p}, beside the admissible sets."""
    return [ParamPoint(a, bs, c) for a in (0, 2) for c in (1, p)
            for bs in itertools.product((0, p - 1, p + 1), repeat=n)]


@pytest.mark.parametrize("p", [5, 7])
@pytest.mark.parametrize("parts", [(1,), (1, 1), (2, 1), (3, 1), (3, 2), (1, 1, 1), (3, 2, 1)])
def test_selberg_chain_matches_full_expansion(parts, p):
    # the chained block evaluation against the reference engine, one
    # projecting expansion per point that shares no code with the package
    ctx = FpContext(p)
    k = KComposition(parts)
    if k.is_strictly_decreasing():
        points = enumerate_admissible(k, ctx)
    else:
        # the closed-form domains of the equal-part compositions reach
        # c = p, a = 0 and b_i >= p
        name = {2: "thm_3_11", 3: "thm_4_111"}[k.n]
        _, keys = _CAMPAIGNS[name].keys(CampaignSpec(name, p), ctx)
        points = row_points(keys)
    points += _edge_points(k.n, p)
    for pt in points:
        assert selberg_integral(k, pt, ctx) == _full_expansion(k, pt, ctx), pt


def _point_counts(parts, p):
    """(-1)^n times the sum over F_p^n of the paper's product
    prod t^a_i (1-t)^b_i, in-group (t-t')^2c, adjacent-group (t'-t)^(p-c),
    at every point a, b_i < p, 1 <= c < p where each variable has degree at
    most 2p-3.  The sum of x^m over F_p is -1 when m > 0 and p-1 divides m,
    and 0 otherwise; so under that bound the count is the coefficient of
    prod x^(p-1), the integral over an all-ones cycle.  Numpy power tables
    mod p only: no package arithmetic."""
    n = sum(parts)
    group = np.repeat(np.arange(len(parts)), parts)
    x = np.array(list(itertools.product(range(p), repeat=n)), dtype=np.int64).T
    powers = np.ones((2 * p, p), dtype=np.int64)  # powers[e, y] = y^e mod p
    for e in range(1, 2 * p):
        powers[e] = powers[e - 1] * np.arange(p) % p
    counts = {}
    for c in range(1, p):
        pairs, degree = np.ones(p ** n, dtype=np.int64), np.zeros(n, dtype=np.int64)
        for u, v in itertools.combinations(range(n), 2):
            e = {0: 2 * c, 1: p - c}.get(group[v] - group[u], 0)
            pairs = pairs * powers[e, (x[v] - x[u]) % p] % p
            degree[[u, v]] += e
        for a, *b in itertools.product(range(p), repeat=len(parts) + 1):
            a_exp, b_exp = np.where(group == 0, a, 0), np.array(b)[group]
            if (a_exp + b_exp + degree).max() > 2 * p - 3:
                continue
            f = pairs
            for v in range(n):
                f = f * powers[a_exp[v], x[v]] % p * powers[b_exp[v], (1 - x[v]) % p] % p
            counts[(a, tuple(b), c)] = (-1) ** n * int(f.sum()) % p
    return counts


POINT_COUNT_CASES = [((1, 1), 7, 1456), ((1, 1), 11, 10120), ((1, 1, 1), 5, 1080),
                     ((2,), 7, 111), ((3,), 7, 44)]


def _chain_against_point_counts(parts, p):
    counts = _point_counts(parts, p)
    rows = np.array([(a, *b, c) for a, b, c in counts])
    values = selberg_integrals(KComposition(parts), rows, FpContext(p))
    return values.tolist(), list(counts.values())


@pytest.mark.parametrize("parts, p, size", POINT_COUNT_CASES)
def test_selberg_chain_matches_point_counts(parts, p, size):
    # an oracle that shares nothing with the chain: the all-ones cycle
    # integral as a point count, at every degree-bounded point of the box,
    # closed-form domain or not
    chain, counts = _chain_against_point_counts(parts, p)
    assert len(counts) == size and any(counts)
    assert chain == counts


def test_a_planted_chain_fault_fails_the_point_counts(monkeypatch):
    chain = integrals._prefix_chain
    monkeypatch.setattr(integrals, "_prefix_chain", lambda *args: chain(*args) + 1)
    values, counts = _chain_against_point_counts((1, 1), 7)
    assert all(value != count for value, count in zip(values, counts))


@pytest.mark.parametrize("p, parts", [(7, (2, 1)), (5, (3, 2, 1))])
def test_selberg_capacity_fires_exactly_above_target_box(monkeypatch, p, parts):
    ctx = FpContext(p)
    k = KComposition(parts)
    pt = ParamPoint(1, (p,) * k.n, 1)
    points = [pt, ParamPoint(1, (p,) * k.n, 2), ParamPoint(2, (p - 1,) * k.n, 1)]
    box = math.prod(t + 1 for t in cycle_from_composition(k).targets(p))
    monkeypatch.setenv("FP_SELBERG_MEM_BUDGET", str(box - 1))
    with pytest.raises(CapacityExceeded):
        selberg_integral(k, pt, ctx)
    with pytest.raises(CapacityExceeded):
        selberg_integrals(k, point_rows(points, k.n), ctx)
    monkeypatch.setenv("FP_SELBERG_MEM_BUDGET", str(box))
    assert selberg_integral(k, pt, ctx) == _full_expansion(k, pt, ctx)
    assert selberg_integrals(k, point_rows(points, k.n), ctx).tolist() == [
        int(_full_expansion(k, q, ctx)) for q in points]


def _batch_cases():
    """(p, parts, points): the thm_3_11 and thm_4_111 keys at p=5 and p=7,
    and every admissible point of (2,1), (3,1) and (3,2) at p=7 and of
    (3,2,1) at p=5, with the edge points beside them."""
    cases = []
    for p in (5, 7):
        for name, n in (("thm_3_11", 2), ("thm_4_111", 3)):
            _, keys = _CAMPAIGNS[name].keys(CampaignSpec(name, p), FpContext(p))
            cases.append((p, (1,) * n, row_points(keys)))
    for p, parts in ((7, (2, 1)), (7, (3, 1)), (7, (3, 2)), (5, (3, 2, 1))):
        cases.append((p, parts, enumerate_admissible(KComposition(parts), FpContext(p))))
    return [(p, parts, points + _edge_points(len(parts), p)) for p, parts, points in cases]


def _record_stages(monkeypatch):
    """Record each batch of the stage path as (run, stage, size, ncols):
    run counts the `_prefix_chain` calls, whose blocks are in runs[run];
    stage i < len(blocks) contracts block i+1 on `size` prefixes into
    `ncols` slots each, and stage len(blocks), the top coefficient of
    n >= 2, reads `size` rows (ncols 0).  Stage n-1 is the last."""
    calls, runs = [], []
    prefix_chain, contract, top = integrals._prefix_chain, mpoly.contract, mpoly.top_coefficient

    def run(new, weights, blocks, slots, p):
        runs.append(blocks)
        return prefix_chain(new, weights, blocks, slots, p)

    def contracting(vectors, block, p):
        stage = [held is block for held in runs[-1]].index(True)
        calls.append((len(runs) - 1, stage, len(vectors), block.ncols))
        return contract(vectors, block, p)

    def reading(poly, rows, p):
        calls.append((len(runs) - 1, len(runs[-1]), len(poly), 0))
        return top(poly, rows, p)

    monkeypatch.setattr(integrals, "_prefix_chain", run)
    monkeypatch.setattr(mpoly, "contract", contracting)
    monkeypatch.setattr(mpoly, "top_coefficient", reading)
    return calls, runs


@pytest.mark.parametrize("p, parts, points", _batch_cases(),
                         ids=lambda value: str(value) if isinstance(value, (int, tuple)) else "")
def test_batched_integrals_match_single_points(monkeypatch, p, parts, points):
    ctx, k = FpContext(p), KComposition(parts)
    # shuffled, so that c changes from point to point
    points = random.Random(p).sample(points, len(points))
    expect = [selberg_integral(k, pt, ctx) for pt in points]
    calls, runs = _record_stages(monkeypatch)
    # the minimum cap evaluates each prefix of every stage alone (on the
    # first 200 points, which mix every c); 2^9 slots split a stage of a c
    # group of (1,1,1) and (2,1) into batches of several prefixes
    for cap, count in ((1, 200), (2**9, len(points)), (2**12, len(points)),
                       (integrals.BATCH_SLOTS, len(points))):
        monkeypatch.setattr(integrals, "BATCH_SLOTS", cap)
        calls.clear()
        runs.clear()
        assert selberg_integrals(k, point_rows(points[:count], k.n), ctx).tolist() == [
            int(value) for value in expect[:count]], cap
        # blocks are cached per c, so block 1 names a run's c group
        batches = [(id(runs[run][0]), stage, size) for run, stage, size, _ in calls]
        assert sum(size for _, stage, size in batches if stage == k.n - 1) == len(points[:count])
        if cap == 1:
            assert all(size == 1 for _, _, size in batches)
        if cap == 2**9 and parts in ((1, 1, 1), (2, 1)):
            stages = [(group, stage) for group, stage, _ in batches]
            assert any(stages.count(stage) > 1 for stage in stages)
            assert any(size > 1 for _, _, size in batches)
    # the first points against one expansion of the whole integrand
    for pt, value in list(zip(points, expect))[:3]:
        assert value == _full_expansion(k, pt, ctx), pt


def _box(parts, p, cs):
    """Every row (a, b_1, ..., b_n, c) with a and the b_i in [1, p) and c
    in cs, as `stokes` checks them."""
    return np.array([(a, *b, c) for a, *b in itertools.product(range(1, p), repeat=len(parts) + 1)
                     for c in cs], dtype=np.int64)


def test_batches_stay_under_the_slot_cap(monkeypatch):
    # per run, what the stage path allocates stays within 3.5 times the
    # cap's bytes: two arrays carried between stages, each within the cap,
    # and one stage batch, within one and a half times it.  A c group of
    # thm_4_111 p=7 (at most 533 points of about 70 slots) barely exceeds
    # the default cap, so there it is lowered to 2^12.  The (3,2) box at
    # p=11 has 100 stage-1 prefixes per c, whose carried polynomials of 1089
    # slots would take 3.3 times the cap, so its runs are cut by the cap
    chain = integrals._prefix_chain
    peaks = []

    def traced(*args):
        tracemalloc.reset_peak()
        start, _ = tracemalloc.get_traced_memory()
        value = chain(*args)
        peaks.append(tracemalloc.get_traced_memory()[1] - start)
        return value

    monkeypatch.setattr(integrals, "_prefix_chain", traced)
    ctx7, ctx11, ctx13 = FpContext(7), FpContext(11), FpContext(13)
    _, keys = _CAMPAIGNS["thm_4_111"].keys(CampaignSpec("thm_4_111", 7), ctx7)
    for k, rows, ctx, cap in (
            (KComposition((1, 1, 1)), keys, ctx7, 2**12),
            (KComposition((2, 1)),
             point_rows(enumerate_admissible(KComposition((2, 1)), ctx13), 2), ctx13,
             integrals.BATCH_SLOTS),
            (KComposition((3, 1)), point_rows([pt for pt in enumerate_admissible(
                KComposition((3, 1)), ctx11) if pt.c == 1][:20], 2), ctx11, integrals.BATCH_SLOTS),
            (KComposition((3, 2)), _box((3, 2), 11, (1,)), ctx11, integrals.BATCH_SLOTS)):
        monkeypatch.setattr(integrals, "BATCH_SLOTS", cap)
        selberg_integrals(k, rows[:50], ctx)  # builds the blocks untraced
        peaks.clear()
        tracemalloc.start()
        try:
            selberg_integrals(k, rows, ctx)
        finally:
            tracemalloc.stop()
        assert 0 < max(peaks) <= 3.5 * cap * 8, (k, max(peaks))


def test_a_two_one_batch_holds_more_points_without_the_last_block(monkeypatch):
    # the last stage of (2,1) at p=13 allocates, per row, its 26-slot group
    # tensor only, no Toeplitz matrix and no block 2, so its batches hold
    # more points than the 46 a Toeplitz step used to allow, and more than
    # the 168 that block 1's step allowed while every point ran every step
    ctx = FpContext(13)
    k = KComposition((2, 1))
    points = enumerate_admissible(k, ctx)
    calls, _ = _record_stages(monkeypatch)
    selberg_integrals(k, point_rows(points, k.n), ctx)
    sizes = [size for _, stage, size, _ in calls if stage == 1]
    assert sum(sizes) == len(points) and max(sizes) > 168, sizes


@pytest.mark.parametrize("parts, p, samples, size, prefixes", [
    ((3, 1), 11, None, 192, [64]),
    ((2, 1), 13, None, 890, [245]),
    ((3, 2, 1), 11, 96, 96, [38, 78]),  # the `main_chain` benchmark sample, seed 1
])
def test_each_stage_contracts_each_distinct_prefix_once(monkeypatch, parts, p, samples, size,
                                                        prefixes):
    # after block i a value depends only on (c, a, b_1, ..., b_i), so stage
    # i contracts its block once per distinct prefix, not once per row
    ctx, k = FpContext(p), KComposition(parts)
    spec = CampaignSpec("main", p, parts, exhaustive=samples is None, samples=samples or 0,
                        seed=1)
    _, keys = _CAMPAIGNS["main"].keys(spec, ctx)
    calls, _ = _record_stages(monkeypatch)
    selberg_integrals(k, keys, ctx)
    assert len(keys) == size
    assert [sum(size for _, stage, size, _ in calls if stage == i)
            for i in range(len(prefixes))] == prefixes
    assert [len(np.unique(keys[:, [-1, *range(i + 2)]], axis=0))
            for i in range(len(prefixes))] == prefixes


def test_the_arrays_carried_between_stages_stay_under_the_cap(monkeypatch):
    # a run carries out of stage i its distinct prefixes times block i's
    # ncols slots; runs are cut at stage-1 prefixes only, so each prefix is
    # still contracted once, and every carried array stays within
    # BATCH_SLOTS unless its run holds one stage-1 prefix, which exceeds the
    # smaller cap alone (1089 slots for (3,2) at p=11, 225 for (3,2,1) at
    # p=5, whose stage 2 carries 10 slots per prefix)
    calls, _ = _record_stages(monkeypatch)
    for parts, p, cs, caps in (((3, 2), 11, (1, 2), (2**10, integrals.BATCH_SLOTS)),
                               ((3, 2, 1), 5, (1, 2, 3), (2**7, 2**11))):
        k, ctx = KComposition(parts), FpContext(p)
        rows = _box(parts, p, cs)
        distinct = len(np.unique(rows[:, [-1, 0, 1]], axis=0))
        expect = selberg_integrals(k, rows, ctx).tolist()
        for cap in caps:
            monkeypatch.setattr(integrals, "BATCH_SLOTS", cap)
            calls.clear()
            assert selberg_integrals(k, rows, ctx).tolist() == expect, (parts, cap)
            carried, firsts = Counter(), Counter()
            for run, stage, size, ncols in calls:
                carried[run, stage] += size * ncols
                firsts[run] += size * (stage == 0)
            assert sum(firsts.values()) == distinct, (parts, cap)
            assert all(slots <= cap or firsts[run] == 1
                       for (run, _), slots in carried.items()), (parts, cap, carried)
            # the cap, not the c groups alone, cuts the runs
            assert len(firsts) > len(cs), (parts, cap)
        assert max(carried.values()) > cap // 2, parts


def _chain_callers(ctx):
    """Each caller of the batch runner, at (3,2), as a function of rows."""
    k = KComposition((3, 2))
    return {
        "selberg": lambda rows: selberg_integrals(k, rows, ctx),
        # two denominator pairs lowered in block 1
        "weighted": lambda rows: integrals.weighted_integrals(3, 2, AllowableTriple(1, 1, 1),
                                                              rows, ctx),
        "stokes": lambda rows: harness._stokes_check(ctx, k.parts, rows),
    }


@pytest.mark.parametrize("caller", ["selberg", "weighted", "stokes"])
def test_chain_values_do_not_depend_on_row_order_or_batch_cap(monkeypatch, caller):
    # every `chain_integrals` call of each caller gives each row the same
    # value with its rows shuffled and under a cap of 1 slot, where every
    # stage runs one prefix at a time
    ctx = FpContext(7)
    evaluate = _chain_callers(ctx)[caller]
    runner, values = integrals.chain_integrals, []

    def recording(*args):
        values.append(runner(*args))
        return values[-1]

    monkeypatch.setattr(integrals, "chain_integrals", recording)
    monkeypatch.setattr(harness, "chain_integrals", recording)
    rows = _box((3, 2), 7, range(1, 7))
    evaluate(rows)
    expect = values[:]
    values.clear()
    order = np.random.default_rng(5).permutation(len(rows))
    monkeypatch.setattr(integrals, "BATCH_SLOTS", 1)
    evaluate(rows[order])
    assert len(values) == len(expect) == {"selberg": 1, "weighted": 1, "stokes": 4}[caller]
    for got, want in zip(values, expect):
        assert np.array_equal(got, want[order])


def test_folded_blocks_leave_every_chain_value_unchanged(monkeypatch):
    # every `chain_integrals` call over whole boxes: `selberg_integrals` over
    # those of (2,1) and (3,2) at p=7 and of (3,2,1) at p=5, each of the four
    # terms of `stokes` at (3,2), p=7, and `weighted_integrals` at every
    # allowable triple of (3,2), p=7, gives the same values with its
    # symmetric groups folded as with none folded; with every orbit size
    # taken as 1, some value differs, so the comparison can fail
    runner, values = integrals.chain_integrals, []

    def recording(*args):
        values.append(runner(*args))
        return values[-1]

    monkeypatch.setattr(integrals, "chain_integrals", recording)
    monkeypatch.setattr(harness, "chain_integrals", recording)
    ctx = FpContext(7)
    rows = _box((3, 2), 7, range(1, 7))
    triples = [AllowableTriple(l1, l2, m) for l2 in range(3) for l1 in range(2 + l2)
               for m in range(min(l1, l2) + 1)]

    def evaluate():
        monkeypatch.setattr(integrals, "_BLOCKS", integrals._BlockCache())
        values.clear()
        for parts, p in (((2, 1), 7), ((3, 2), 7), ((3, 2, 1), 5)):
            selberg_integrals(KComposition(parts), _box(parts, p, range(1, p + 1)), FpContext(p))
        harness._stokes_check(ctx, (3, 2), rows)
        for tr in triples:
            integrals.weighted_integrals(3, 2, tr, rows, ctx)
        return values[:]

    folded = evaluate()
    assert len(folded) == 3 + 4 + 16
    symmetric = integrals._symmetric_groups
    monkeypatch.setattr(integrals, "_symmetric_groups", lambda k, shifts, lowered: [False] * k.n)
    assert all(np.array_equal(got, want) for got, want in zip(folded, evaluate(), strict=True))
    monkeypatch.setattr(integrals, "_symmetric_groups", symmetric)
    monkeypatch.setattr(integrals, "_orbit_sizes", lambda tuples: np.ones(len(tuples), np.int64))
    assert not all(np.array_equal(got, want) for got, want in zip(folded, evaluate(), strict=True))


def test_the_chain_runner_rejects_rows_or_shifts_that_do_not_fit_k(monkeypatch):
    # rows of a width other than n+2, or shifts of other than n groups, do
    # not fit the composition; the one-group weighted integrals (k2 = 0)
    # hand the runner (k1,)'s own rows (a, b1, c) and its one shift group
    runner, seen = integrals.chain_integrals, []

    def recording(k, rows, ctx, shifts, *args):
        seen.append((k.parts, rows.shape[1], len(shifts)))
        return runner(k, rows, ctx, shifts, *args)

    monkeypatch.setattr(integrals, "chain_integrals", recording)
    ctx = FpContext(7)
    rows = np.array([(2, 1, 3, 2), (3, 2, 2, 1)])
    values = integrals.weighted_integrals(3, 0, AllowableTriple(2, 0, 0), rows, ctx)
    assert seen == [((3,), 3, 1)]
    assert values.tolist() == [int(weighted_integral(3, 0, AllowableTriple(2, 0, 0),
                                                     ParamPoint(a, (b1, b2), c), ctx))
                               for a, b1, b2, c in rows.tolist()]
    evaluated = []
    monkeypatch.setattr(integrals, "_prefix_chain", lambda *args: evaluated.append(args))
    for rows, shifts in ((np.array([(2, 1, 3, 2)]), [[(0, 0)] * 3]),
                         (np.array([(2, 1, 2)]), [[(0, 0)] * 3, []])):
        with pytest.raises(PreconditionViolation, match=r"n=1$"):
            runner(KComposition((3,)), rows, ctx, shifts)
    assert evaluated == []


def _calls_per_kernel(monkeypatch, parts, p):
    """How often one point's chain calls each `mpoly` chain kernel."""
    counts = {}
    for name in ("multiply_along_axes", "contract", "top_coefficient"):
        kernel = getattr(mpoly, name)

        def counted(*args, name=name, kernel=kernel):
            counts[name] = counts.get(name, 0) + 1
            return kernel(*args)
        monkeypatch.setattr(mpoly, name, counted)
    selberg_integral(KComposition(parts), ParamPoint(1, (1,) * len(parts), 1), FpContext(p))
    monkeypatch.undo()
    return counts


def test_the_last_group_is_read_by_the_top_coefficient(monkeypatch):
    # with n >= 2 the last group's rows go to the top coefficient alone: no
    # row product and no contraction of the last group; one group contracts
    # its block 1, which holds the in-group factors
    assert _calls_per_kernel(monkeypatch, (1,), 5) == {"contract": 1}
    assert _calls_per_kernel(monkeypatch, (3,), 5) == {"contract": 1}
    assert _calls_per_kernel(monkeypatch, (2, 1), 5) == {"contract": 1, "top_coefficient": 1}
    assert _calls_per_kernel(monkeypatch, (3, 2, 1), 5) == {
        "contract": 2, "multiply_along_axes": 1, "top_coefficient": 1}


def _ones_block(nrows, ncols):
    """The all-ones nrows x ncols matrix as a sparse block."""
    return mpoly.SparseBlock(np.tile(np.arange(nrows), ncols),
                             np.ones(nrows * ncols, dtype=np.int64),
                             np.arange(ncols), np.arange(ncols) * nrows, ncols)


def test_selberg_chain_checks_int64_bounds(monkeypatch):
    # at these limits a sum of five products of residues mod 5 no longer
    # fits, in the int64 of the contraction and the top coefficient or the
    # row product's float64; the bound is per point, whatever the batch size
    monkeypatch.setattr(mpoly, "INT64_LIMIT", 5 * 4**2)
    monkeypatch.setattr(mpoly, "FLOAT64_EXACT_LIMIT", 5 * 4**2)
    ones = np.ones((3, 5), dtype=np.int64)
    mpoly.contract(ones[:, :4], _ones_block(4, 2), 5)
    with pytest.raises(AccumulatorOverflow):
        mpoly.contract(ones[:1], _ones_block(5, 2), 5)
    with pytest.raises(AccumulatorOverflow):
        mpoly.multiply_along_axes(ones[:1], [ones[:1]], 5)
    assert list(mpoly.top_coefficient(np.ones((3, 4, 4), dtype=np.int64),
                                      [ones[:, :4]] * 2, 5)) == [1, 1, 1]  # 16 = 1 mod 5
    with pytest.raises(AccumulatorOverflow):
        mpoly.top_coefficient(ones[:1], [ones[:1]], 5)
    with pytest.raises(AccumulatorOverflow):
        selberg_integral(KComposition((2, 1)), ParamPoint(1, (3, 2), 1), FpContext(5))
    with pytest.raises(AccumulatorOverflow):
        selberg_integrals(KComposition((2, 1)), np.array([(1, 3, 2, 1)] * 4), FpContext(5))


@pytest.mark.parametrize("p, parts", [(7, (3, 2)), (5, (3, 2, 1))])
def test_delayed_reductions_leave_the_chain_values_unchanged(monkeypatch, p, parts):
    # the longest sum of the chain is the contraction of its largest group
    # tensor (the last group's is read by the top coefficient); at the
    # smallest limits that its check accepts, group 1's outer product, the
    # row product and the top coefficient reduce after every factor or axis,
    # and the values are those of the real limits, where none reduces early
    # at these primes; at every limit, the entries the contraction sums
    # keep within the bound that it leaves to its caller
    ctx, k = FpContext(p), KComposition(parts)
    rows = point_rows(enumerate_admissible(k, ctx), k.n)
    terms = max((integrals._group_cap(k, i, p) + 1) ** part
                for i, part in enumerate(parts[:-1], 1))
    reductions = []
    reduce_mod, contract = mpoly.reduce_mod, mpoly.contract

    def counting(x, modulus):
        reductions.append(x.shape)
        return reduce_mod(x, modulus)

    def bounded(vectors, block, modulus):
        out = contract(vectors, block, modulus)
        assert vectors.shape[1] * int(vectors.max()) * (modulus - 1) < mpoly.INT64_LIMIT
        return out

    monkeypatch.setattr(mpoly, "reduce_mod", counting)
    monkeypatch.setattr(mpoly, "contract", bounded)
    expect = selberg_integrals(k, rows, ctx)
    at_real_limits = len(reductions)
    smallest = terms * (p - 1)**2 + 1
    monkeypatch.setattr(mpoly, "INT64_LIMIT", smallest)
    monkeypatch.setattr(mpoly, "FLOAT64_EXACT_LIMIT", smallest)
    reductions.clear()
    assert np.array_equal(selberg_integrals(k, rows, ctx), expect)
    assert len(reductions) > at_real_limits
    monkeypatch.setattr(mpoly, "INT64_LIMIT", smallest - 1)
    with pytest.raises(AccumulatorOverflow):
        selberg_integrals(k, rows, ctx)


def _full_box_block(k, i, c, ctx, lowered=frozenset()):
    """Block i as first built: the pair factors, those in `lowered` one
    lower, expanded over the whole block box, as a dense matrix of the flat
    group-i slots times the flat group-(i+1) slots."""
    p = ctx.p
    sizes = (k.part(i), k.part(i + 1))
    cap = integrals._group_cap(k, i, p)
    caps = (cap,) * sizes[0] + (integrals._group_cap(k, i + 1, p),) * sizes[1]
    factors = [(f, e - (f in lowered))
               for f, e in integrals._pair_factors(sizes, c, p, first_in_group=i == 1)]
    full = mpoly.expand(FactorProduct(ctx, sum(sizes), tuple(factors)), caps).coeffs
    return full.reshape((cap + 1) ** sizes[0], -1)


def _dense(block, nrows):
    """A sparse block as a dense nrows x block.ncols matrix; the cache
    stores its positions reversed against the nrows slots of its group."""
    ends = np.append(block.starts[1:], len(block.values))
    dense = np.zeros((nrows, block.ncols), dtype=np.int64)
    dense[nrows - 1 - block.positions, np.repeat(block.columns, ends - block.starts)] = (
        block.values)
    return dense


def _orbit_weights(size, cap, fold):
    """Per flat slot of a group of `size` variables of this cap, its weight
    in a block folded over the group: the number of distinct orderings of
    its exponent tuple where that is non-decreasing, else 0; all 1 unfolded."""
    weights = []
    for tup in itertools.product(range(cap + 1), repeat=size):
        orderings = math.factorial(size)
        for count in Counter(tup).values():
            orderings //= math.factorial(count)
        weights.append(1 if not fold else orderings if list(tup) == sorted(tup) else 0)
    return np.array(weights, dtype=np.int64)


@pytest.mark.parametrize("p", [5, 7])
def test_dehomogenized_blocks_match_full_box_expansion(monkeypatch, p):
    # every block, with every lowered set and fold pattern the runner asks
    # for, against the whole block box expanded at once: folded over a
    # group, a block keeps the non-decreasing tuples of that group, times
    # their orbit sizes, mod p
    ctx = FpContext(p)
    expanded_axes = []
    expand = mpoly.expand

    def recording_expand(fp, caps):
        expanded_axes.append(len(caps))
        return expand(fp, caps)

    monkeypatch.setattr(mpoly, "expand", recording_expand)
    keys, patterns = set(), set()
    cache = integrals._BlockCache()  # one cache: blocks of every c coexist
    for c in range(1, p + 1):  # c = p: no cross factors
        for parts in [(1,), (1, 1), (1, 1, 1), (2, 1), (3, 1), (3, 2), (3, 2, 1)]:
            k = KComposition(parts)
            for i in range(1, k.n + 1):
                # (lowered, whether group i may fold, whether group i+1 may);
                # the runner folds group i on block i's rows at i = 1 only,
                # and builds no block n of n >= 2, whose columns are empty
                variants = [(frozenset(), i == 1, i < k.n)]
                if k.n == 2 and i == 1:
                    # the weighted integrals' block 1: the pair (s_1, t_1) one lower
                    variants.append((frozenset({LinearForm.diff(k.part(1), 0)}), False, False))
                if i == 1 < k.part(1):
                    # stokes' in-group term: the pair (t_1, t_2) one lower
                    variants.append((frozenset({LinearForm.diff(0, 1)}), False, i < k.n))
                for lowered, rows_fold, columns_fold in variants:
                    for folds in itertools.product(*({False, rows_fold}, {False, columns_fold})):
                        expanded_axes.clear()
                        block = cache.block(k, i, c, ctx, lowered, folds)
                        # built one axis smaller than the block, or taken from the cache
                        assert expanded_axes in ([], [k.part(i) + k.part(i + 1) - 1])
                        keys.add((k.part(i - 1), k.part(i), k.part(i + 1)))
                        patterns.add(folds)
                        rows, columns = (_orbit_weights(k.part(j), integrals._group_cap(k, j, p),
                                                        fold)
                                         for j, fold in zip((i, i + 1), folds))
                        expect = (_full_box_block(k, i, c, ctx, lowered)
                                  * rows[:, None] * columns[None, :] % p)
                        where = (parts, i, c, lowered, folds)
                        assert np.array_equal(_dense(block, len(expect)), expect), where
                        # no zero is stored, and no slot twice
                        assert len(block.values) == np.count_nonzero(expect), where
    # the single-variable last block of (3,2,1), and every fold pattern
    assert (2, 1, 0) in keys
    assert patterns == set(itertools.product((False, True), repeat=2))


def test_weighted_block_stays_small():
    # block 1 of the weighted integrals of (3,2) at p=17 has 4913 x 2601
    # slots (102 MB as a dense int64 matrix), under 0.1 % of them nonzero
    ctx = FpContext(17)
    k = KComposition((3, 2))
    lowered = frozenset({LinearForm.diff(3, 0)})
    tracemalloc.start()
    try:
        block = integrals._BlockCache().block(k, 1, 1, ctx, lowered)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert block.ncols == 51**2 and block.positions.max() < 17**3
    assert 0 < len(block.values) < 17**3 * block.ncols // 100
    assert peak < 16 * 2**20


def test_the_padded_table_holds_the_rows_asked_for(monkeypatch):
    # one row per distinct exponent of 1-x asked for at a (p, cap), not one
    # for every exponent below the largest: at p = 32749 a table of every
    # n <= 20000 would hold 1.3 G entries
    monkeypatch.setattr(integrals, "_PADDED", {})
    ctx = FpContext(32749)
    value = selberg_integral(KComposition((1,)), ParamPoint(20000, (20000,), 1), ctx)
    assert value == beta_rhs(20000, 20000, ctx) != ctx.zero
    (key, (index, table)), = integrals._PADDED.items()
    assert key == (32749, 32748) and table.shape == (1, 2 * 32749)
    # a call adds the rows of the exponents the table lacks, each once
    ctx = FpContext(7)
    values = selberg_integrals(KComposition((1,)), np.array([(4, 3, 1), (2, 9, 1), (5, 3, 1)]), ctx)
    assert [values[0], values[2]] == [int(beta_rhs(4, 3, ctx)), int(beta_rhs(5, 3, ctx))]
    index, table = integrals._PADDED[7, 6]
    assert len(table) == 2 and index[[3, 9]].tolist() == [0, 1]


def test_selberg_and_weighted_integrals_share_their_blocks(monkeypatch):
    # a weighted integral without denominator pairs runs on the Selberg
    # blocks: I_{0,k2,0}(a, b1, b2, c) = S(a-1, b1, b2-1, c), one build each
    ctx = FpContext(7)
    expanded_axes = []
    expand = mpoly.expand

    def recording_expand(fp, caps):
        expanded_axes.append(len(caps))
        return expand(fp, caps)

    monkeypatch.setattr(mpoly, "expand", recording_expand)
    monkeypatch.setattr(integrals, "_BLOCKS", integrals._BlockCache())
    k = KComposition((3, 2))
    selberg = selberg_integral(k, ParamPoint(1, (3, 1), 2), ctx)
    assert expanded_axes == [4]  # block 1; the last block is not built
    weighted = weighted_integral(3, 2, AllowableTriple(0, 2, 0), ParamPoint(2, (3, 2), 2), ctx)
    assert expanded_axes == [4]
    assert weighted == selberg


def test_blocks_are_built_once_per_prime_in_any_point_order(monkeypatch):
    # enumeration order varies c fastest (59 changes of c over (3,2) at
    # p=11); the cache keeps every block of the prime, so each
    # (k_{i-1}, k_i, k_{i+1}, c, lowered) block is built once
    ctx = FpContext(11)
    expanded_axes = []
    expand = mpoly.expand

    def recording_expand(fp, caps):
        expanded_axes.append(len(caps))
        return expand(fp, caps)

    monkeypatch.setattr(mpoly, "expand", recording_expand)
    monkeypatch.setattr(integrals, "_BLOCKS", integrals._BlockCache())
    k = KComposition((3, 2))
    points = list(enumerate_admissible(k, ctx))
    for pt in points:
        selberg_integral(k, pt, ctx)
        for i in range(3):
            weighted_integral(3, 2, AllowableTriple(0, i, 0), pt, ctx)
    # per c: block 1 with two, one or no lowered pairs (I_{0,0,0}, I_{0,1,0},
    # and I_{0,2,0} on Selberg's); the last block is not built
    cs = {pt.c for pt in points}
    assert len(cs) == 3
    assert expanded_axes == [4] * (3 * len(cs))
    # the blocks of every prime are kept: evaluating at p=7 builds its
    # block, and those of p=11 survive it
    expanded_axes.clear()
    selberg_integral(k, ParamPoint(1, (1, 1), 1), FpContext(7))
    selberg_integral(k, points[0], ctx)
    assert expanded_axes == [4]


def test_the_block_cache_drops_the_least_recently_used_prime(monkeypatch):
    # past CACHE_ENTRIES stored entries, whole primes are dropped, the least
    # recently used first; the prime in use never is, whatever the bound
    k = KComposition((2, 1))
    points = {p: point_rows(enumerate_admissible(k, FpContext(p)), k.n) for p in (5, 7, 11)}
    cs = {p: set(rows[:, -1].tolist()) for p, rows in points.items()}
    # the entries of the blocks the runner stores for every point of p
    expect, entries = {}, {}
    for p, rows in points.items():
        fresh = integrals._BlockCache()
        monkeypatch.setattr(integrals, "_BLOCKS", fresh)
        expect[p] = selberg_integrals(k, rows, FpContext(p)).tolist()
        entries[p] = sum(len(block.values) for block in fresh._blocks.values())
    assert entries[5] < entries[7] < entries[11]
    built = []
    expand = mpoly.expand

    def recording_expand(fp, caps):
        built.append(fp.ctx.p)
        return expand(fp, caps)

    def builds(p):
        # the blocks built to evaluate every point of p, with the values
        # checked against those of a fresh cache
        built.clear()
        assert selberg_integrals(k, points[p], FpContext(p)).tolist() == expect[p], p
        return len(built)

    monkeypatch.setattr(mpoly, "expand", recording_expand)
    monkeypatch.setattr(integrals, "_BLOCKS", integrals._BlockCache())
    monkeypatch.setattr(integrals, "CACHE_ENTRIES", entries[5] + entries[11])
    assert [builds(5), builds(7), builds(5)] == [len(cs[5]), len(cs[7]), 0]
    # 5, 7 and 11 are over the bound: 7, the least recently used, goes
    assert builds(11) == len(cs[11])
    assert [builds(5), builds(11), builds(7)] == [0, 0, len(cs[7])]
    # under a bound of no entries, each block of the prime in use is still
    # built once; every other prime goes
    monkeypatch.setattr(integrals, "CACHE_ENTRIES", 0)
    assert [builds(11), builds(11), builds(7), builds(11)] == [
        len(cs[11]), 0, len(cs[7]), len(cs[11])]


def test_block_build_requires_difference_factors(monkeypatch):
    monkeypatch.setattr(integrals, "_pair_factors",
                        lambda sizes, c, p, first_in_group=True: [(LinearForm.one_minus(0), 2)])
    with pytest.raises(InvariantViolation):
        integrals._BlockCache().block(KComposition((2, 1)), 1, 1, FpContext(5))


def test_fp_integral_dimension_mismatch():
    ctx = FpContext(5)
    fp = FactorProduct(ctx, 2, ((LinearForm.var(0), 1),))
    with pytest.raises(PreconditionViolation):
        fp_integral(fp, PCycle((1,)), ctx)
    with pytest.raises(PreconditionViolation):
        fp_integral(fp, PCycle((1, 1)), FpContext(7))


def test_fp_integral_budget(monkeypatch):
    ctx = FpContext(11)
    fp = master_polynomial(KComposition((2, 1)), ParamPoint(1, (1, 1), 1), ctx)
    monkeypatch.setenv("FP_SELBERG_MEM_BUDGET", "100")
    with pytest.raises(CapacityExceeded):
        fp_integral(fp, cycle_from_composition(KComposition((2, 1))), ctx)


def test_group_transposition_symmetry():
    # the integrand is symmetric under permutations inside a variable group,
    # so the extracted coefficient must not move
    rng = random.Random(2)
    ctx = FpContext(5)
    k = KComposition((2, 1))
    targets = cycle_from_composition(k).targets(ctx.p)
    for _ in range(10):
        pt = ParamPoint(rng.randint(0, 3), (rng.randint(0, 4), rng.randint(0, 4)),
                        rng.randint(1, 2))
        fp = master_polynomial(k, pt, ctx)
        swapped = ref.relabelled(fp, [1, 0, 2])  # transpose the two group-1 variables
        assert ref.coefficient(fp, targets) == ref.coefficient(swapped, targets)


def test_allowable_triple_check():
    AllowableTriple(1, 1, 1).check(2, 1)
    with pytest.raises(NotAllowable):
        AllowableTriple(2, 0, 0).check(2, 1)
    with pytest.raises(NotAllowable):
        AllowableTriple(0, 2, 0).check(2, 1)
    with pytest.raises(NotAllowable):
        AllowableTriple(1, 1, 2).check(2, 2)
    with pytest.raises(PreconditionViolation):
        AllowableTriple(-1, 0, 0)


def test_weight_summand_equal_groups_and_empty_bottom():
    # k1 = k2 = 1, (0,1,0): the single summand is just (1-t), no s factors
    only, = weight_summands(1, 1, AllowableTriple(0, 1, 0))
    assert only.t_num == () and only.t_one_minus == (0,)
    assert only.s_one_minus == () and only.pairs == ()
    # k2 = 0, (1,0,0): W = t
    only, = weight_summands(1, 0, AllowableTriple(1, 0, 0))
    assert only.t_num == (0,) and only.t_one_minus == ()
    assert only.s_one_minus == () and only.pairs == ()


def test_weighted_integral_equal_group_value():
    ctx = FpContext(5)
    got = weighted_integral(1, 1, AllowableTriple(0, 1, 0), ParamPoint(2, (3, 3), 2), ctx)
    assert int(got) == 3


def test_weight_summand_count_and_structure():
    assert len(weight_summands(2, 1, AllowableTriple(0, 0, 0))) == 2
    assert len(weight_summands(3, 2, AllowableTriple(1, 1, 1))) == 12
    # (l1,l2,m)=(0,1,0) for k=(2,1): no numerator t, all t in 1-t, no s factor
    for s in weight_summands(2, 1, AllowableTriple(0, 1, 0)):
        assert s.t_num == ()
        assert sorted(s.t_one_minus) == [0, 1]
        assert s.s_one_minus == ()
        assert s.pairs == ()
    # (0,0,0): the single s pairs against t_{sigma(1+k1-k2)}
    for s in weight_summands(2, 1, AllowableTriple(0, 0, 0)):
        assert s.s_one_minus == (0,)
        assert len(s.pairs) == 1
        assert s.pairs[0][0] == 0


def test_weighted_integral_requires_two_groups():
    ctx = FpContext(7)
    with pytest.raises(PreconditionViolation):
        weighted_integral(2, 1, AllowableTriple(0, 0, 0), ParamPoint(1, (2,), 1), ctx)


def test_weighted_integral_negative_exponent():
    ctx = FpContext(7)
    # a=0 with l1=0 puts the bare t exponent at a-1 = -1
    with pytest.raises(NegativeExponent):
        weighted_integral(2, 1, AllowableTriple(0, 1, 0), ParamPoint(0, (1, 1), 1), ctx)


def test_weighted_integral_at_c_equal_p():
    # the cross exponent p - c is 0: a summand with a denominator pair would
    # need it at -1, one without has no cross factors at all
    ctx = FpContext(7)
    with pytest.raises(NegativeExponent, match="s1-t2 exponent -1"):
        weighted_integral(2, 1, AllowableTriple(0, 0, 0), ParamPoint(1, (2, 2), 7), ctx)
    with pytest.raises(NegativeExponent, match="s1-t1 exponent -1"):
        weighted_integral(3, 2, AllowableTriple(1, 1, 1), ParamPoint(2, (2, 2), 7), ctx)
    tr, pt = AllowableTriple(0, 1, 0), ParamPoint(2, (5, 7), 7)
    assert not weight_summands(1, 1, tr)[0].pairs
    got = weighted_integral(1, 1, tr, pt, ctx)
    assert got == _full_sum_weighted(1, 1, tr, pt, ctx) and int(got) == 6


def test_weighted_integral_shift_identity():
    # I_{0,k2,0}(a, b1, b2, c) = S(a-1, b1, b2-1, c) on admissible points
    ctx = FpContext(7)
    k = KComposition((2, 1))
    for pt in enumerate_admissible(k, ctx)[:12]:
        lhs = weighted_integral(2, 1, AllowableTriple(0, 1, 0), pt, ctx)
        rhs = selberg_integral(k, ParamPoint(pt.a - 1, (pt.b[0], pt.b[1] - 1), pt.c), ctx)
        assert lhs == rhs


def _full_sum_weighted(k1, k2, tr, pt, ctx):
    """I_{l1,l2,m} as first defined: every (sigma, tau) summand of
    weight_summands integrated by the reference engine, the sum divided by
    k1! k2!.  With k2 = 0 the cycle is (1, ..., 1)."""
    p = ctx.p
    a, (b1, b2), c = pt.a, pt.b, pt.c
    cycle = cycle_from_composition(KComposition((k1, k2))) if k2 else PCycle((1,) * k1)
    targets = cycle.targets(p)
    total = 0
    for sm in weight_summands(k1, k2, tr):
        factors = []
        for i in range(k1):
            factors.append((LinearForm.var(i), a - 1 + (i in sm.t_num)))
            factors.append((LinearForm.one_minus(i), b1 - 1 + (i in sm.t_one_minus)))
        for j in range(k2):
            factors.append((LinearForm.one_minus(k1 + j), b2 - 1 + (j in sm.s_one_minus)))
            for i in range(k1):
                factors.append((LinearForm.diff(k1 + j, i), p - c - ((j, i) in sm.pairs)))
        for i, ip in itertools.combinations(range(k1), 2):
            factors.append((LinearForm.diff(i, ip), 2 * c))
        for j, jp in itertools.combinations(range(k2), 2):
            factors.append((LinearForm.diff(k1 + j, k1 + jp), 2 * c))
        fp = FactorProduct(ctx, k1 + k2, tuple((f, e) for f, e in factors if e))
        total += ref.coefficient(fp, targets)
    return ctx.element(total) / ctx.element(math.factorial(k1) * math.factorial(k2))


def _allowable_triples(k1, k2):
    """Every (l1, l2, m) that AllowableTriple.check accepts for (k1, k2)."""
    return [AllowableTriple(l1, l2, m) for l2 in range(k2 + 1)
            for l1 in range(k1 - k2 + l2 + 1) for m in range(min(l1, l2) + 1)]


@pytest.mark.parametrize("k1, k2, p", [(k1, k2, p) for p in (7, 11)
                                       for k1, k2 in ((2, 1), (3, 1), (3, 2))] + [(3, 0, 7)])
def test_weighted_integral_is_one_summand_of_the_full_sum(k1, k2, p):
    # at p=7 with k2 <= 1 every allowable triple: m > 0, a single group
    # (k2 = 0), and l1 > 0 without pairs, where the rows differ within a
    # group while the block is symmetric, so the chain must not assume
    # symmetric rows
    ctx = FpContext(p)
    # a one-group point takes any b2: there is no s variable
    points = [ParamPoint(pt.a, (pt.b[0], pt.b[-1] if k2 else 1), pt.c)
              for pt in enumerate_admissible(KComposition((k1, k2) if k2 else (k1,)), ctx)
              if pt.a >= 1 and min(pt.b) >= 1 and pt.c < p]
    if p == 7 and k2 <= 1:
        triples = _allowable_triples(k1, k2)
    else:
        triples = (AllowableTriple(0, 0, 0), AllowableTriple(0, k2, 0),
                   AllowableTriple(1, 1, 1), AllowableTriple(1, 1, 0))
        count = 1 if (k1, k2, p) == (3, 2, 11) else 4  # 48 summands, about 4 s
        points = random.Random(p * 10 + k1 + k2).sample(points, count)
    for pt in points:
        for tr in triples:
            expect = _full_sum_weighted(k1, k2, tr, pt, ctx)
            assert weighted_integral(k1, k2, tr, pt, ctx) == expect, (pt, tr)


def _weighted_points(k1, k2, p):
    """The admissible points of (k1, k2) at p, or of (k1,) with b2 = a when
    k2 = 0 (a one-group point takes any b2: there is no s variable)."""
    ctx = FpContext(p)
    if k2:
        return enumerate_admissible(KComposition((k1, k2)), ctx)
    return [ParamPoint(pt.a, (pt.b[0], pt.a), pt.c)
            for pt in enumerate_admissible(KComposition((k1,)), ctx)]


@pytest.mark.parametrize("k1, k2", [(2, 1), (3, 1), (3, 2), (3, 0), (2, 0)])
def test_batched_weighted_integrals_match_single_points(monkeypatch, k1, k2):
    # every allowable triple at p=7, the points shuffled so that c changes
    # from point to point; the minimum cap evaluates each point alone, and
    # 2^12 slots put several points of one c in a batch
    ctx = FpContext(7)
    points = random.Random(k1 * 10 + k2).sample(_weighted_points(k1, k2, 7),
                                                len(_weighted_points(k1, k2, 7)))
    rows = point_rows(points, 2)
    n = 1 + (k2 > 0)
    for tr in _allowable_triples(k1, k2):
        expect = [int(weighted_integral(k1, k2, tr, pt, ctx)) for pt in points]
        calls, _ = _record_stages(monkeypatch)
        for cap in (1, 2**12, integrals.BATCH_SLOTS):
            monkeypatch.setattr(integrals, "BATCH_SLOTS", cap)
            calls.clear()
            assert integrals.weighted_integrals(k1, k2, tr, rows, ctx).tolist() == expect, (
                tr, cap)
            # every point is its own last-stage prefix (b2 = a when k2 = 0)
            assert sum(size for _, stage, size, _ in calls if stage == n - 1) == len(points)
            sizes = [size for _, _, size, _ in calls]
            assert (max(sizes) == 1) == (cap == 1), (tr, cap, calls)
        monkeypatch.undo()
    assert integrals.weighted_integrals(k1, k2, AllowableTriple(0, 0, 0),
                                        np.zeros((0, 4), dtype=np.int64), ctx).tolist() == []


@pytest.mark.parametrize("k1, k2, tr, bad", [
    # a = 0 under a bare t, b1 = 0 under a bare 1-t, b2 = 0 under a bare 1-s
    (2, 1, AllowableTriple(0, 1, 0), [(0, 2, 2, 1), (1, 2, 0, 1)]),
    (3, 2, AllowableTriple(1, 1, 0), [(1, 0, 3, 1), (1, 2, 0, 1)]),
    (3, 0, AllowableTriple(2, 0, 0), [(1, 0, 0, 1), (0, 1, 0, 1)]),
    # a denominator pair at c = p; c > p; a row that is not a parameter point
    (3, 2, AllowableTriple(1, 1, 1), [(2, 2, 2, 7), (2, 2, 2, 8), (2, 2, -1, 1)]),
])
def test_weighted_integrals_raise_as_the_first_offending_point(monkeypatch, k1, k2, tr, bad):
    # whatever the order, the batch raises what weighted_integral raises at
    # its first offending row's point, before any point is evaluated
    ctx = FpContext(7)
    good = point_rows(_weighted_points(k1, k2, 7)[:3], 2).tolist()
    errors = []
    for a, b1, b2, c in bad:
        with pytest.raises(Exception) as info:
            weighted_integral(k1, k2, tr, ParamPoint(a, (b1, b2), c), ctx)
        errors.append(info.value)
    evaluated = []
    monkeypatch.setattr(integrals, "_prefix_chain", lambda *args: evaluated.append(args))
    for order in itertools.permutations(range(len(bad))):
        rows = good[:1] + [bad[i] for i in order] + good[1:]
        first = errors[order[0]]
        with pytest.raises(type(first)) as info:
            integrals.weighted_integrals(k1, k2, tr, np.array(rows), ctx)
        assert str(info.value) == str(first), order
    # b of the wrong length, as weighted_integral raises for it
    with pytest.raises(PreconditionViolation, match=r"^weighted integrals take b = \(b1, b2\)$"):
        weighted_integral(k1, k2, tr, ParamPoint(2, (2,), 1), ctx)
    with pytest.raises(PreconditionViolation, match=r"^weighted integrals take b = \(b1, b2\)$"):
        integrals.weighted_integrals(k1, k2, tr, np.array([(2, 2, 1)]), ctx)
    assert evaluated == []


@pytest.mark.parametrize("parts, bad", [
    # c > p; a row that is not a parameter point (a, a b or c too low)
    ((2, 1), [(1, 2, 2, 8), (-1, 2, 2, 1), (1, 2, -3, 1), (1, 2, 2, 0)]),
    ((1,), [(0, 0, 9), (2, -1, 1)]),
])
def test_selberg_integrals_raise_as_the_first_offending_row(monkeypatch, parts, bad):
    # whatever the order, the batch raises what selberg_integral raises at
    # its first offending row's point, before any point is evaluated
    ctx, k = FpContext(7), KComposition(parts)
    good = point_rows(enumerate_admissible(k, ctx)[:3], k.n).tolist()
    errors = []
    for a, *b, c in bad:
        with pytest.raises(Exception) as info:
            selberg_integral(k, ParamPoint(a, tuple(b), c), ctx)
        errors.append(info.value)
    evaluated = []
    monkeypatch.setattr(integrals, "_prefix_chain", lambda *args: evaluated.append(args))
    for order in itertools.permutations(range(len(bad))):
        rows = good[:1] + [bad[i] for i in order] + good[1:]
        first = errors[order[0]]
        with pytest.raises(type(first)) as info:
            selberg_integrals(k, np.array(rows), ctx)
        assert str(info.value) == str(first), order
    # b of the wrong length, as selberg_integral raises for it
    with pytest.raises(PreconditionViolation) as info:
        selberg_integral(k, ParamPoint(1, (1,) * (k.n + 1), 1), ctx)
    with pytest.raises(PreconditionViolation, match=f"^{re.escape(str(info.value))}$"):
        selberg_integrals(k, np.ones((2, k.n + 3), dtype=np.int64), ctx)
    assert evaluated == []


@pytest.mark.parametrize("bad, shift, lowered, error, message", [
    ((2, 0, 3, 2), (0, -1), (), NegativeExponent,
     r"row \(2, 0, 3, 2\): .* of 1-x in group 1 to -1"),
    ((0, 2, 3, 2), (-1, 0), (), NegativeExponent, r"row \(0, 2, 3, 2\): .* of x in group 1 to -1"),
    ((2, 1, 3, 0), (0, 0), (), PreconditionViolation, r"^bad parameter point \(2, \(1, 3\), 0\)$"),
    ((2, 1, 3, 8), (0, 0), (), InvalidExponent, r"^c=8 > p=7 makes the cross exponent negative$"),
    ((2, 1, 3, 7), (0, 0), ((2, 0),), NegativeExponent,
     r"^row \(2, 1, 3, 7\): the lowered cross pair s1-t1 takes its exponent p - c = 0 to -1$"),
    ((2, 1, 3, 2), (0, 0), ((0, 2),), PreconditionViolation,
     r"^the lowered pair t1-s1 is no pair factor of block 1$"),
    ((2, 1, 3, 2), (0, 0), ((2, 0), (9, 0)), PreconditionViolation,
     r"^the lowered pair variable 9-t1 is no pair factor of block 1$"),
], ids=["db-at-b1-0", "da-at-a-0", "c-0", "c-above-p", "cross-pair-at-c-p", "reversed-pair",
        "pair-of-no-variable"])
def test_the_chain_runner_rejects_a_shift_below_zero(monkeypatch, bad, shift, lowered, error,
                                                     message):
    # db = -1 at b_1 = 0 used to read the padded row of index -1, that of
    # the largest b, and return 6 at this row; da = -1 at a = 0 raised a
    # bare IndexError.  The runner also rejects, as selberg_integral does,
    # rows that are not parameter points with c <= p, and a lowered cross
    # pair (s_1 - t_1) at c = p, where p - c = 0 leaves the cross factors out
    # of the block, so that there is nothing to lower.  A lowered pair that
    # is no pair factor of block 1, the reversed t_1 - s_1 or one naming
    # variable 9 of (2,1), used to be ignored; it would also decide which
    # groups fold
    evaluated = []
    monkeypatch.setattr(integrals, "_prefix_chain", lambda *args: evaluated.append(args))
    with pytest.raises(error, match=message):
        integrals.chain_integrals(KComposition((2, 1)), np.array([(2, 1, 3, 2), bad]),
                                  FpContext(7), [[shift, (0, 0)], [(0, 0)]],
                                  frozenset(LinearForm.diff(*pair) for pair in lowered))
    assert evaluated == []


def _plant_doubled_term(monkeypatch):
    """Plant an engine fault: in every power form**e with e >= 3 that the
    package expands, double the term with d = 1, the one in which the
    second monomial has exponent e - 1.  The chain's blocks are expanded
    anew under it; the reference engine does not call the package."""
    factor_terms = mpoly._factor_terms

    def doubled(ctx, form, e, caps):
        terms = factor_terms(ctx, form, e, caps)
        if e < 3:
            return terms
        second = form.terms[-1][0]
        return [(shifts, coeff * 2 % ctx.p if (second, e - 1) in shifts else coeff)
                for shifts, coeff in terms]

    monkeypatch.setattr(mpoly, "_factor_terms", doubled)
    monkeypatch.setattr(integrals, "_BLOCKS", integrals._BlockCache())


@pytest.mark.parametrize("check, args", [
    (test_selberg_chain_matches_full_expansion, ((2, 1), 5)),
    (test_selberg_chain_matches_full_expansion, ((1, 1, 1), 7)),
    (test_selberg_chain_matches_full_expansion, ((3, 2), 7)),
    (test_selberg_chain_matches_full_expansion, ((3, 2, 1), 5)),
    (test_weighted_integral_is_one_summand_of_the_full_sum, (2, 1, 7)),
    (test_weighted_integral_is_one_summand_of_the_full_sum, (3, 0, 7)),
], ids=["selberg-2,1-p5", "selberg-1,1,1-p7", "selberg-3,2-p7", "selberg-3,2,1-p5",
        "weighted-2,1-p7", "weighted-3,0-p7"])
def test_a_planted_engine_fault_fails_the_chain_checks(monkeypatch, check, args):
    # the chain-versus-reference checks are independent of the engine that
    # builds the chain's blocks: a fault there fails them
    _plant_doubled_term(monkeypatch)
    with pytest.raises(AssertionError):
        check(*args)


# a top coefficient that reads each row unreversed, or reversed and shifted
# by one slot
TOP_COEFFICIENT_FAULTS = {
    "unreversed": lambda row: row[:, ::-1],
    "shifted": lambda row: np.roll(row, 1, axis=1),
}


@pytest.mark.parametrize("fault", sorted(TOP_COEFFICIENT_FAULTS))
@pytest.mark.parametrize("check, args", [
    (test_selberg_chain_matches_full_expansion, ((3, 2), 7)),
    (test_selberg_chain_matches_full_expansion, ((3, 2, 1), 5)),
    (test_weighted_integral_is_one_summand_of_the_full_sum, (2, 1, 7)),
], ids=["selberg-3,2-p7", "selberg-3,2,1-p5", "weighted-2,1-p7"])
def test_a_planted_top_coefficient_fault_fails_the_chain_checks(monkeypatch, fault, check,
                                                               args):
    # the reference engine shares no code with the chain's last step either
    top_coefficient, moved = mpoly.top_coefficient, TOP_COEFFICIENT_FAULTS[fault]
    monkeypatch.setattr(mpoly, "top_coefficient", lambda poly, rows, p: top_coefficient(
        poly, [moved(row) for row in rows], p))
    with pytest.raises(AssertionError):
        check(*args)
