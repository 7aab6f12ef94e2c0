"""The table evaluators of `fpselberg.formulas` against the per-factor
reference in `reference_formulas`: the same value, or the same error text,
at every point tried.

The points are every key of the campaigns the `sweep_small` benchmark
workload runs (the whole candidate box of the I_{0,0,0} domain walk), plus
seeded random points in and out of each domain.
"""

import random

import pytest

import reference_formulas as ref
from fpselberg import formulas, harness
from fpselberg.admissible import enumerate_admissible
from fpselberg.errors import PreconditionViolation, ZeroFactor
from fpselberg.gf import FpContext
from fpselberg.integrals import KComposition, ParamPoint

PRIMES = (3, 5, 7, 11, 13, 17)
R_COMPOSITIONS = ((1,), (2,), (2, 1), (3, 1), (3, 2), (3, 2, 1), (1, 1, 1), (4, 2, 1))
I000_PAIRS = ((2, 1), (3, 1), (3, 2), (4, 1), (4, 3))
RANDOM_POINTS = 300


def _outcome(result: formulas.FormulaResult):
    return ("value", int(result.value)) if result.ok else ("error", result.error)


def _raised(evaluate, *args):
    """The outcome of a closed form, or the PreconditionViolation it raised."""
    try:
        return _outcome(evaluate(*args))
    except PreconditionViolation as exc:
        return ("precondition", str(exc))


def _keys(campaign, p, k=None):
    spec = harness.CampaignSpec(campaign, p, k)
    return harness._CAMPAIGNS[campaign].keys(spec, FpContext(p))[1]


def _tally(outcomes) -> set:
    return {kind for kind, _ in outcomes}


def test_r_value_on_the_sweep_main_populations():
    for p, parts in ((13, (2, 1)), (11, (3, 1))):
        ctx, k = FpContext(p), KComposition(parts)
        for key in _keys("main", p, parts):
            pt = ParamPoint(*key)
            assert _outcome(formulas.r_value(k, pt, ctx)) == _outcome(ref.r_value(k, pt, ctx)), pt


@pytest.mark.parametrize("campaign, evaluate, reference", [
    ("thm_3_11", formulas.rhs_3_11, ref.rhs_3_11),
    ("thm_4_111", formulas.rhs_4_111, ref.rhs_4_111),
])
def test_two_and_three_group_forms_on_the_sweep_populations(campaign, evaluate, reference):
    ctx = FpContext(7)
    outcomes = []
    for a, b, c in _keys(campaign, 7):
        got = _raised(evaluate, a, *b, c, ctx)
        assert got == _raised(reference, a, *b, c, ctx), (a, b, c)
        outcomes.append(got)
    assert "value" in _tally(outcomes)


def test_i000_rhs_on_the_sweep_domain_walk():
    # the candidate box that the I_000 domain was once filtered from (see
    # reference_admissible.py), and the domain itself
    ctx = FpContext(11)
    for a in range(1, 11):
        for b1 in range(1, 11):
            for b2 in range(1, 11):
                for c in range(1, 4):
                    pt = ParamPoint(a, (b1, b2), c)
                    assert (_outcome(formulas.i000_rhs(3, 1, pt, ctx))
                            == _outcome(ref.i000_rhs(3, 1, pt, ctx))), pt
    assert all(formulas.i000_rhs(3, 1, ParamPoint(*key), ctx).ok for key in _keys("i000", 11, (3, 1)))


def _random_points(rng: random.Random, n: int, k1: int, p: int) -> list[ParamPoint]:
    """RANDOM_POINTS points: half with a, b_i below 2p and c up to p + 1,
    past both ends of [0, p) and mostly out of the domain; half with a, b_i
    below p and k1*c below p, where many are in it."""
    wide = [ParamPoint(rng.randrange(2 * p), tuple(rng.randrange(2 * p) for _ in range(n)),
                       rng.randint(1, p + 1)) for _ in range(RANDOM_POINTS // 2)]
    near = [ParamPoint(rng.randrange(p), tuple(rng.randrange(p) for _ in range(n)),
                       rng.randint(1, max(1, (p - 1) // k1))) for _ in range(RANDOM_POINTS // 2)]
    return wide + near


@pytest.mark.parametrize("p", PRIMES)
def test_r_value_on_random_points(p):
    ctx, rng = FpContext(p), random.Random(1000 + p)
    outcomes = []
    for parts in R_COMPOSITIONS:
        k = KComposition(parts)
        points = _random_points(rng, k.n, parts[0], p)
        if k.is_strictly_decreasing():
            admissible = enumerate_admissible(k, ctx)
            points += rng.sample(admissible, min(len(admissible), RANDOM_POINTS // 4))
        for pt in points:
            got = _outcome(formulas.r_value(k, pt, ctx))
            assert got == _outcome(ref.r_value(k, pt, ctx)), (parts, pt)
            outcomes.append(got)
        # the precondition on the length of b
        bad = _random_points(rng, k.n + 1, parts[0], p)[0]
        assert _raised(formulas.r_value, k, bad, ctx) == _raised(ref.r_value, k, bad, ctx)
    assert _tally(outcomes) == {"value", "error"}


@pytest.mark.parametrize("p", PRIMES)
def test_i000_rhs_on_random_points(p):
    ctx, rng = FpContext(p), random.Random(2000 + p)
    outcomes = []
    for k1, k2 in I000_PAIRS:
        for pt in _random_points(rng, 2, k1, p):
            got = _outcome(formulas.i000_rhs(k1, k2, pt, ctx))
            assert got == _outcome(ref.i000_rhs(k1, k2, pt, ctx)), (k1, k2, pt)
            outcomes.append(got)
    assert _tally(outcomes) == {"value", "error"}
    for k1, k2, pt in ((2, 2, ParamPoint(1, (1, 1), 1)), (2, 1, ParamPoint(1, (1,), 1))):
        got = _raised(formulas.i000_rhs, k1, k2, pt, ctx)
        assert got[0] == "precondition" and got == _raised(ref.i000_rhs, k1, k2, pt, ctx)


@pytest.mark.parametrize("p", PRIMES)
def test_rhs_3_11_and_rhs_4_111_on_random_points(p):
    ctx, rng = FpContext(p), random.Random(3000 + p)
    outcomes = []
    for _ in range(RANDOM_POINTS * 4):
        # a and c range past their preconditions on both sides
        a, c = rng.randint(-1, 2 * p), rng.randint(-1, p + 2)
        b = [rng.randint(-1, 2 * p) for _ in range(3)]
        got = _raised(formulas.rhs_3_11, a, b[0], b[1], c, ctx)
        assert got == _raised(ref.rhs_3_11, a, b[0], b[1], c, ctx), (a, b[:2], c)
        outcomes.append(got)
        got = _raised(formulas.rhs_4_111, a, *b, c, ctx)
        assert got == _raised(ref.rhs_4_111, a, *b, c, ctx), (a, b, c)
        outcomes.append(got)
    assert _tally(outcomes) == {"value", "error", "precondition"}


def _ratio_outcome(ratio_product, ctx, pairs):
    try:
        return ("value", int(ratio_product(ctx, pairs)))
    except ZeroFactor as exc:
        return ("zero", str(exc))


@pytest.mark.parametrize("p", PRIMES)
def test_ratio_products_on_random_pairs(p):
    ctx, rng = FpContext(p), random.Random(4000 + p)
    outcomes = []
    for size in range(5):
        for _ in range(RANDOM_POINTS // 5):
            # the program's pairs carry (name, i) and label a pair "name at i=<i>"
            pairs = [(rng.randint(-p, 3 * p), rng.randint(-p, 3 * p), "term", j)
                     for j in range(size)]
            got = _ratio_outcome(formulas._ratio_product, ctx, pairs)
            labelled = [(n, d, f"{name} at i={j}") for n, d, name, j in pairs]
            assert got == _ratio_outcome(ref._ratio_product, ctx, labelled), pairs
            outcomes.append(got)
    assert _tally(outcomes) == {"value", "zero"}
