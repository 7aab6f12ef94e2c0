"""The table evaluators of `fpselberg.formulas` against the per-factor
reference in `reference_formulas`: the same value, or the same error text,
at every point tried, for the batch forms over rows and for the scalar
forms, their batches of one.  The recurrence factors' ratio tables give the
reference's residue, or the ZeroFactor text of their first vanishing term.

The points are every key of the campaigns the `sweep_small` benchmark
workload runs (the whole candidate box of the I_{0,0,0} domain walk), boxes
of rows in, out of and around each domain (rows that fail a precondition
among them), plus seeded random points in and out of each domain.  The row
key lists of `thm_3_11` and `thm_4_111` are pinned against the nested loops
that first wrote them.
"""

import itertools
import random

import numpy as np
import pytest

import reference_formulas as ref
from fpselberg import formulas, harness
from fpselberg.admissible import enumerate_admissible
from fpselberg.errors import OutOfRange, PreconditionViolation, ZeroFactor
from fpselberg.gf import FpContext
from fpselberg.integrals import KComposition, ParamPoint, row_points

PRIMES = (3, 5, 7, 11, 13, 17)
R_COMPOSITIONS = ((1,), (2,), (2, 1), (3, 1), (3, 2), (3, 2, 1), (1, 1, 1), (4, 2, 1))
I000_PAIRS = ((2, 1), (3, 1), (3, 2), (4, 1), (4, 3))
RANDOM_POINTS = 300


def _outcome(result: formulas.FormulaResult):
    return ("value", int(result.value)) if result.ok else ("error", result.error)


def _raised(evaluate, *args):
    """The outcome of a closed form, a FormulaResult or a field element, or
    the OutOfRange or PreconditionViolation it raised."""
    try:
        result = evaluate(*args)
    except OutOfRange as exc:
        return ("error", str(exc))
    except PreconditionViolation as exc:
        return ("precondition", str(exc))
    return _outcome(result) if isinstance(result, formulas.FormulaResult) else ("value", int(result))


def rhs_4_111(a, b1, b2, b3, c, ctx) -> formulas.FormulaResult:
    """`rhs_4_111_values` at one point, as a FormulaResult."""
    row = np.array([[a, b1, b2, b3, c]], dtype=np.int64)
    return formulas._result(formulas.rhs_4_111_values(row, ctx), formulas._rhs_4_111_table(ctx.p),
                            row, ctx)


def _keys(campaign, p, k=None):
    spec = harness.CampaignSpec(campaign, p, k)
    return harness._CAMPAIGNS[campaign].keys(spec, FpContext(p))[1]


def _tally(outcomes) -> set:
    return {kind for kind, _ in outcomes}


def test_r_value_on_the_sweep_main_populations():
    for p, parts in ((13, (2, 1)), (11, (3, 1))):
        ctx, k = FpContext(p), KComposition(parts)
        for pt in row_points(_keys("main", p, parts)):
            assert _outcome(formulas.r_value(k, pt, ctx)) == _outcome(ref.r_value(k, pt, ctx)), pt


@pytest.mark.parametrize("campaign, evaluate, reference", [
    ("thm_3_11", formulas.rhs_3_11, ref.rhs_3_11),
    ("thm_4_111", rhs_4_111, ref.rhs_4_111),
])
def test_two_and_three_group_forms_on_the_sweep_populations(campaign, evaluate, reference):
    ctx = FpContext(7)
    outcomes = []
    for row in _keys(campaign, 7).tolist():
        got = _raised(evaluate, *row, ctx)
        assert got == _raised(reference, *row, ctx), row
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
    assert all(formulas.i000_rhs(3, 1, pt, ctx).ok for pt in row_points(_keys("i000", 11, (3, 1))))


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
        got = _raised(rhs_4_111, a, *b, c, ctx)
        assert got == _raised(ref.rhs_4_111, a, *b, c, ctx), (a, b, c)
        outcomes.append(got)
    assert _tally(outcomes) == {"value", "error", "precondition"}


def _ratio_outcome(factor, *args):
    try:
        return ("value", int(factor(*args)))
    except ZeroFactor as exc:
        return ("zero", str(exc))


# name: (batch form, idx, shift, reference), the four ratio tables
RATIO_TABLES = {
    "B1": (formulas.b_factor_values, 0, 0, lambda k1, k2, pt, ctx: ref.b_factor(k1, k2, 0, pt, ctx)),
    "B2": (formulas.b_factor_values, 1, 0, lambda k1, k2, pt, ctx: ref.b_factor(k1, k2, 1, pt, ctx)),
    "b1-shift": (formulas.shift_factor_values, 0, 1, ref.shift_factor_b1),
    "b2-shift": (formulas.shift_factor_values, 1, 1, ref.shift_factor_b2),
}


@pytest.mark.parametrize("p", PRIMES)
def test_ratio_products_on_random_pairs(p):
    # rows far outside the domain as well as in it: a, b_i from 0 to 3p and
    # c from 1 to 2p, where the ratios' arguments range past 0 and p on both
    # sides, and each side of each ratio vanishes somewhere
    ctx, rng = FpContext(p), random.Random(4000 + p)
    rows = np.array([[rng.randint(0, 3 * p) for _ in range(3)] + [rng.randint(1, 2 * p)]
                     for _ in range(RANDOM_POINTS)], dtype=np.int64)
    for k1, k2 in I000_PAIRS:
        for name, (batch_form, idx, shift, reference) in RATIO_TABLES.items():
            table = formulas._ratio_table(k1, k2, idx, shift, p)
            values, first = batch_form(k1, k2, idx, rows, ctx)
            got = [("value", int(values[t])) if first[t] < 0 else
                   ("zero", str(formulas._failure(table, rows[t], int(first[t]), p)))
                   for t in range(len(rows))]
            expect = [_ratio_outcome(reference, k1, k2, ParamPoint(a, (b1, b2), c), ctx)
                      for a, b1, b2, c in rows.tolist()]
            assert got == expect, (name, k1, k2)
            assert _tally(got) == {"value", "zero"}, (name, k1, k2)


# the batch forms over boxes of rows

def _box(*ranges) -> np.ndarray:
    """Every row of the product of the ranges, in lexicographic order."""
    return np.array(list(itertools.product(*ranges)), dtype=np.int64)


def _batch_outcomes(batch, table, rows, ctx) -> list:
    """Per row, ("value", residue) or ("error", the OutOfRange text of its
    first argument outside [0, p)), read off one batch call."""
    values, first = batch
    return [_outcome(formulas._result((values[t:t + 1], first[t:t + 1]), table, rows[t:t + 1],
                                      ctx)) for t in range(len(rows))]


def _precondition(evaluate, *args):
    try:
        evaluate(*args)
    except PreconditionViolation as exc:
        return str(exc)
    return None


def _check_box(batch_form, table, reference, rows, ctx):
    """The batch form over rows against the reference row by row: a batch
    holding rows that fail a precondition raises the first one's error,
    such a row alone raises its own (checked at about 50 of them, spread
    over the box), and the other rows give the reference's residue or first
    OutOfRange text.  Returns the kinds seen."""
    expect = [_raised(reference, row) for row in rows.tolist()]
    failing = [t for t, (kind, _) in enumerate(expect) if kind == "precondition"]
    if failing:
        assert _precondition(batch_form, rows) == expect[failing[0]][1]
        for t in failing[::max(1, len(failing) // 50)]:
            assert _precondition(batch_form, rows[t:t + 1]) == expect[t][1], rows[t]
    kept = np.array([kind != "precondition" for kind, _ in expect], dtype=bool)
    got = _batch_outcomes(batch_form(rows[kept]), table, rows[kept], ctx)
    assert got == [outcome for outcome, keep in zip(expect, kept) if keep]
    return _tally(expect)


@pytest.mark.parametrize("p, compositions", [
    (5, ((1,), (2,), (2, 1), (3, 1), (1, 1, 1), (3, 2, 1))),
    (7, ((1,), (3,), (2, 1), (3, 2))),
])
def test_r_values_on_boxes(p, compositions):
    # a, b_i in [0, p], c in [1, p]: every admissible point and the rows
    # around it; a row of another length than k's fails the precondition
    ctx = FpContext(p)
    seen = set()
    for parts in compositions:
        k = KComposition(parts)
        rows = _box(range(p + 1), *[range(p + 1)] * k.n, range(1, p + 1))
        seen |= _check_box(lambda rows: formulas.r_values(k, rows, ctx),
                           formulas._r_table(parts, p),
                           lambda row: ref.r_value(k, ParamPoint(row[0], tuple(row[1:-1]), row[-1]),
                                                   ctx), rows, ctx)
        wide = _box(range(2), *[range(2)] * (k.n + 1), range(1, 2))
        assert _precondition(formulas.r_values, k, wide, ctx) == _raised(
            ref.r_value, k, ParamPoint(0, (0,) * (k.n + 1), 1), ctx)[1]
    assert seen == {"value", "error"}


@pytest.mark.parametrize("p, pairs", [(5, ((2, 1), (3, 1), (3, 2), (4, 1))),
                                      (7, ((2, 1), (3, 2)))])
def test_i000_rhs_values_on_boxes(p, pairs):
    ctx = FpContext(p)
    seen = set()
    rows = _box(range(p + 1), range(p + 1), range(p + 1), range(1, p + 1))
    for k1, k2 in pairs:
        seen |= _check_box(lambda rows: formulas.i000_rhs_values(k1, k2, rows, ctx),
                           formulas._i000_table(k1, k2, p),
                           lambda row: ref.i000_rhs(k1, k2, ParamPoint(row[0], tuple(row[1:3]),
                                                                       row[3]), ctx), rows, ctx)
    assert seen == {"value", "error"}
    # the preconditions on k and on the length of b fail the whole batch
    for k1, k2, width in ((2, 2, 4), (1, 2, 4), (2, 1, 3)):
        pt = ParamPoint(1, (1,) * (width - 2), 1)
        assert _precondition(formulas.i000_rhs_values, k1, k2, np.ones((3, width), dtype=np.int64),
                             ctx) == _raised(ref.i000_rhs, k1, k2, pt, ctx)[1] is not None


@pytest.mark.parametrize("p", [3, 5])
def test_rhs_3_11_and_rhs_4_111_values_on_boxes(p):
    # a, b_i and c range past their preconditions on both sides
    ctx = FpContext(p)
    rows = _box(range(-1, p + 1), range(-1, 2 * p), range(-1, 2 * p), range(-1, p + 2))
    assert _check_box(lambda rows: formulas.rhs_3_11_values(rows, ctx),
                      formulas._rhs_3_11_table(p), lambda row: ref.rhs_3_11(*row, ctx),
                      rows, ctx) == {"value", "error", "precondition"}
    rows = _box(range(-1, p + 1), *[range(-1, p + 2)] * 3, range(-1, p + 1))
    assert _check_box(lambda rows: formulas.rhs_4_111_values(rows, ctx),
                      formulas._rhs_4_111_table(p), lambda row: ref.rhs_4_111(*row, ctx),
                      rows, ctx) == {"value", "error", "precondition"}


@pytest.mark.parametrize("p", [5, 7, 11])
def test_beta_values_on_boxes(p):
    # a, b in [-1, p]: the rows where a+b < p-1, where a+b >= p-1 and where
    # a or b fails its precondition; an undefined row, (a+b+1-p)! outside
    # [0, p), is the reference's 0 branch
    ctx = FpContext(p)
    rows = _box(range(-1, p + 1), range(-1, p + 1), range(1, 2))
    expect = [_raised(ref.beta_rhs, a, b, ctx) for a, b, _ in rows.tolist()]
    kept = np.array([kind != "precondition" for kind, _ in expect], dtype=bool)
    failing = np.flatnonzero(~kept)
    assert _precondition(formulas.beta_values, rows, ctx) == expect[failing[0]][1]
    for t in failing:
        assert _precondition(formulas.beta_values, rows[t:t + 1], ctx) == expect[t][1]
    values, first = formulas.beta_values(rows[kept], ctx)
    assert [("value", value) for value in values.tolist()] == [
        outcome for outcome, keep in zip(expect, kept) if keep]
    a, b = rows[kept, 0], rows[kept, 1]
    assert ((first >= 0) == (a + b < p - 1)).all()
    assert (first[a + b < p - 1] == 2).all() and (values[a + b >= p - 1] != 0).all()


@pytest.mark.parametrize("p", [5, 7, 13])
def test_dyson_values_on_boxes(p):
    # k from 0 to 5 and c in [-1, p + 1]: rows where kc < p, where kc or c
    # reaches p, and where k or c fails its precondition; a and b do not
    # enter, and vary
    ctx = FpContext(p)
    seen = set()
    rows = _box(range(2), range(2), range(-1, p + 2))
    for k in range(6):
        seen |= _check_box(lambda rows: formulas.dyson_values(k, rows, ctx),
                           formulas._dyson_table(k, p),
                           lambda row: ref.dyson_constant(k, row[-1], ctx), rows, ctx)
    assert seen == {"value", "error", "precondition"}


@pytest.mark.parametrize("p", [5, 7, 11])
def test_induction_values_on_boxes(p):
    # c in [-1, p + 1], of both parities, for last groups k_n of both
    # parities; the rest of the row does not enter, and varies
    ctx = FpContext(p)
    seen = set()
    for parts in ((2, 1), (3, 1), (3, 2), (2, 2), (4, 3), (3, 2, 1), (4, 2, 2), (5, 3, 1, 1)):
        k = KComposition(parts)
        rows = _box(range(2), *[range(2)] * k.n, range(-1, p + 2))
        seen |= _check_box(lambda rows: formulas.induction_values(k, rows, ctx),
                           formulas._induction_table(parts, p),
                           lambda row: ref.induction_factor(k, row[-1], ctx), rows, ctx)
    assert seen == {"value", "error", "precondition"}
    # one group has no induction factor, and a row must be (a, b_1, ..., b_n, c)
    for parts, width in (((2,), 3), ((2, 1), 3), ((2, 1), 5)):
        assert _precondition(formulas.induction_values, KComposition(parts),
                             np.ones((2, width), dtype=np.int64), ctx) is not None


def _thm_3_11_loops(p):
    keys = []
    for a in range(p):
        for c in range(1, p + 1):
            for b2 in range(max(c - 1, 0), p + c - 1):
                for b1 in range(0, p + c - 1 - b2):
                    if p - 1 <= a + b1 + b2 - c + 1 < 2 * p - 1:
                        keys.append((a, (b1, b2), c))
    return sorted(keys)


def _thm_4_111_loops(p):
    keys = []
    for c in range(1, p + 1):
        for a in range(p):
            # 0 <= b3-c+1, b2+b3-c+1, b2+b3-2c+2, b1+b2+b3-2c+2 < p
            for b3 in range(c - 1, p):
                for b2 in range(max(0, 2 * c - 2 - b3), p + c - 1 - b3):
                    for b1 in range(0, p + 2 * c - 2 - b2 - b3):
                        if 0 <= a + b1 + b2 + b3 - 2 * c + 3 - p < p:
                            keys.append((a, (b1, b2, b3), c))
    return sorted(keys)


@pytest.mark.parametrize("p", [3, 5, 7, 11])
@pytest.mark.parametrize("campaign, loops", [("thm_3_11", _thm_3_11_loops),
                                             ("thm_4_111", _thm_4_111_loops)])
def test_theorem_rows_are_the_nested_loop_keys(campaign, loops, p):
    # the key lists as they were first written, by nested loops over the
    # closed forms' preconditions, then sorted
    rows = _keys(campaign, p)
    assert rows.dtype == np.int64
    assert [(a, tuple(b), c) for a, *b, c in rows.tolist()] == loops(p)
