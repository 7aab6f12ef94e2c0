from functools import partial

import numpy as np
import pytest

from fpselberg import formulas
from fpselberg.admissible import (decrement_path, distinguished_point,
                                  enumerate_admissible, enumerate_admissible_I)
from fpselberg.errors import OutOfRange, PreconditionViolation, ZeroFactor
from fpselberg.formulas import (FormulaResult, b_factor_values, beta_values,
                                dyson_values, i000_rhs, induction_values,
                                r_value, rhs_3_11, rhs_4_111_values,
                                shift_factor_values)
from fpselberg.gf import FpContext, checked_factorial, sign_pow
from fpselberg.integrals import KComposition, ParamPoint


# the batch forms at one row: (its residue, its first undefined term's
# error or None); table() is the batch form's term table

def _one(batch_form, table, *args, row, ctx):
    row = np.array([row], dtype=np.int64)
    values, first = batch_form(*args, row, ctx)
    j = int(first[0])
    return int(values[0]), None if j < 0 else formulas._failure(table(), row[0], j, ctx.p)


def _beta(a, b, ctx):
    return _one(beta_values, lambda: formulas._beta_table(ctx.p), row=(a, b, 1), ctx=ctx)


def _dyson(k, c, ctx):
    return _one(dyson_values, lambda: formulas._dyson_table(k, ctx.p), k, row=(0, 0, c), ctx=ctx)


def _induction(k, c, ctx):
    return _one(induction_values, lambda: formulas._induction_table(k.parts, ctx.p), k,
                row=(0,) * (k.n + 1) + (c,), ctx=ctx)


def _b_factor(k1, k2, idx, pt, ctx):
    return _one(b_factor_values, lambda: formulas._ratio_table(k1, k2, idx, 0, ctx.p), k1, k2, idx,
                row=(pt.a, *pt.b, pt.c), ctx=ctx)


def _shift_factor(k1, k2, idx, pt, ctx):
    return _one(shift_factor_values, lambda: formulas._ratio_table(k1, k2, idx, 1, ctx.p), k1, k2, idx,
                row=(pt.a, *pt.b, pt.c), ctx=ctx)


def test_formula_result_exactly_one_side():
    ctx = FpContext(5)
    assert FormulaResult(value=ctx.one).ok
    assert not FormulaResult(error="nope").ok
    with pytest.raises(PreconditionViolation):
        FormulaResult()
    with pytest.raises(PreconditionViolation):
        FormulaResult(value=ctx.one, error="both")


def test_beta_rhs_branches():
    ctx = FpContext(5)
    # below the threshold a+b >= p-1 the integral is 0: (a+b+1-p)! is undefined
    for a, b in ((1, 1), (0, 0)):
        value, error = _beta(a, b, ctx)
        assert value == 0 and isinstance(error, OutOfRange) and error.what == "a+b+1-p"
    # at a=b=2, p=5: -2!2!/1! = -4 = 1
    assert _beta(2, 2, ctx) == (1, None)
    assert _beta(4, 4, ctx) == (int(-ctx.element(24 * 24) / ctx.element(24)), None)
    assert _beta(6, 6, FpContext(7)) == (1, None)  # -6!6!/6! = -6! = 1
    with pytest.raises(PreconditionViolation):
        _beta(5, 0, ctx)
    with pytest.raises(PreconditionViolation):
        _beta(-1, 0, ctx)


def test_dyson_constant_values():
    ctx = FpContext(7)
    assert _dyson(1, 1, ctx) == (1, None)
    assert _dyson(2, 1, ctx) == (2, None)
    assert _dyson(3, 1, ctx) == (6, None)
    assert _dyson(2, 2, ctx) == (6, None)  # 4!/2!2! = 6
    assert _dyson(1, 5, ctx) == (1, None)
    value, error = _dyson(4, 2, ctx)  # kc = 8 > p-1
    assert value == 0 and isinstance(error, OutOfRange) and (error.argument, error.what) == (8, "kc")


def test_r_value_known():
    ctx = FpContext(5)
    got = r_value(KComposition((1,)), ParamPoint(2, (2,), 1), ctx)
    assert got.ok and int(got.value) == 1


def test_r_value_out_of_range_classifier():
    ctx = FpContext(5)
    got = r_value(KComposition((1,)), ParamPoint(1, (1,), 1), ctx)
    assert not got.ok
    assert "outside [0, p)" in got.error


def r_a2(k1: int, k2: int, pt: ParamPoint, ctx: FpContext) -> FormulaResult:
    """The two-group specialization, transcribed literally as its own product.

    Structural cross-check: must agree with r_value((k1, k2), pt) everywhere.
    """
    if not k1 > k2 > 0:
        raise PreconditionViolation(f"need k1 > k2 > 0, got ({k1}, {k2})")
    if pt.n != 2:
        raise PreconditionViolation("two-group formula takes b = (b1, b2)")
    a, (b1, b2), c = pt.a, pt.b, pt.c
    p = ctx.p
    try:
        val = sign_pow(ctx, k1 + k2)
        for i in range(1, k1 - k2 + 1):
            val = val * checked_factorial(ctx, b1 + (i - 1) * c, f"b1+(i-1)c at i={i}")
            val = val / checked_factorial(ctx, 1 + a + b1 + (i + k1 - 2) * c - p,
                                          f"1+a+b1+(i+k1-2)c-p at i={i}")
        for i in range(1, k2 + 1):
            val = val * checked_factorial(ctx, b2 + (i - 1) * c, f"b2+(i-1)c at i={i}")
            val = val / checked_factorial(ctx, 1 + b2 + (i + k2 - k1 - 2) * c,
                                          f"1+b2+(i+k2-k1-2)c at i={i}")
            val = val * checked_factorial(ctx, 1 + b1 + b2 + (i - 2) * c,
                                          f"1+b1+b2+(i-2)c at i={i}")
            val = val / checked_factorial(ctx, 2 + a + b1 + b2 + (i + k1 - 3) * c - p,
                                          f"2+a+b1+b2+(i+k1-3)c-p at i={i}")
        for i in range(1, k1 + 1):
            val = val * checked_factorial(ctx, a + (i - 1) * c, f"a+(i-1)c at i={i}")
        for i in range(1, k2 + 1):
            val = val * checked_factorial(ctx, p + (i - k1 - 1) * c, f"p+(i-k1-1)c at i={i}")
        c_fact = checked_factorial(ctx, c, "c")
        for kr in (k1, k2):
            for i in range(1, kr + 1):
                val = val * checked_factorial(ctx, i * c, f"ic at i={i}") / c_fact
        return FormulaResult(value=val)
    except OutOfRange as exc:
        return FormulaResult(error=str(exc))


def test_r_value_matches_on_all_admissible_points():
    # S = R is checked by campaign; here pin the closed form against itself
    # through the specialized two-group rewrite
    for p, kparts in ((7, (2, 1)), (11, (2, 1)), (13, (3, 1))):
        ctx = FpContext(p)
        k = KComposition(kparts)
        for pt in enumerate_admissible(k, ctx):
            general = r_value(k, pt, ctx)
            special = r_a2(kparts[0], kparts[1], pt, ctx)
            assert general.ok and special.ok
            assert general.value == special.value


def test_r_a2_rejects_bad_shape():
    ctx = FpContext(7)
    with pytest.raises(PreconditionViolation):
        r_a2(1, 1, ParamPoint(1, (1, 1), 1), ctx)
    with pytest.raises(PreconditionViolation):
        r_a2(2, 1, ParamPoint(1, (1,), 1), ctx)


def test_rhs_3_11_hand_value():
    ctx = FpContext(5)
    got = rhs_3_11(1, 3, 2, 2, ctx)
    assert got.ok and int(got.value) == 3


def test_rhs_3_11_precondition():
    ctx = FpContext(5)
    with pytest.raises(PreconditionViolation):
        rhs_3_11(1, 0, 0, 2, ctx)  # b2 - c + 1 < 0
    with pytest.raises(PreconditionViolation):
        rhs_3_11(0, 0, 1, 1, ctx)  # a + b1 + b2 - c + 1 below p-1 window


def test_rhs_3_11_out_of_range_is_a_result():
    # b2 >= p makes b2! undefined without violating the inequality system
    ctx = FpContext(5)
    got = rhs_3_11(4, 0, 5, 2, ctx)
    assert not got.ok
    assert "outside [0, p)" in got.error


@pytest.mark.parametrize("batch_form, row", [(formulas.rhs_3_11_values, (1, 3, 2, 2)),
                                             (formulas.rhs_4_111_values, (2, 1, 1, 1, 1))])
def test_theorem_forms_reject_rows_of_another_width(batch_form, row):
    # such rows once raised numpy's own ValueError: "too many values to
    # unpack" for rhs_3_11_values, a matmul core dimension for rhs_4_111_values
    ctx, width = FpContext(5), len(row)
    for rows in (np.ones((3, width - 1), dtype=np.int64), np.ones((3, width + 1), dtype=np.int64),
                 np.ones(width, dtype=np.int64)):
        with pytest.raises(PreconditionViolation,
                           match=f"b has length {rows.shape[-1] - 2}, Theorem .* has n={width - 2}"):
            batch_form(rows, ctx)
    values, first = batch_form(np.array([row] * 3, dtype=np.int64), ctx)
    assert (first == -1).all() and len(set(values.tolist())) == 1


def test_rhs_4_111_value_against_integral():
    from fpselberg.integrals import selberg_integral
    ctx = FpContext(5)
    k = KComposition((1, 1, 1))
    # one interior point, checked end to end
    a, b1, b2, b3, c = 2, 1, 1, 1, 1
    value, error = _one(rhs_4_111_values, lambda: formulas._rhs_4_111_table(5), row=(a, b1, b2, b3, c),
                        ctx=ctx)
    assert error is None
    assert selberg_integral(k, ParamPoint(a, (b1, b2, b3), c), ctx).residue == value


def test_b_factor_known_point():
    ctx = FpContext(11)
    pt = ParamPoint(2, (5, 5), 3)
    assert _b_factor(2, 1, 0, pt, ctx) == (5, None)
    assert _b_factor(2, 1, 1, pt, ctx) == (5, None)
    with pytest.raises(PreconditionViolation, match="idx must be 0"):
        _b_factor(2, 1, 2, pt, ctx)


def test_b_factor_zero_denominator():
    ctx = FpContext(11)
    # b1 + b2 - c = 0 mod 11 kills the second-product denominator both share
    for idx in (0, 1):
        value, error = _b_factor(2, 1, idx, ParamPoint(1, (5, 6), 11), ctx)
        assert value == 0 and isinstance(error, ZeroFactor)
        assert str(error).startswith("denominator") and "second" in str(error)


def test_b_factor_raises_only_for_its_own_pairs():
    ctx = FpContext(7)
    # only B2's first-ratio numerator b2 + (1 + k2 - k1 - 2)c vanishes
    pt = ParamPoint(1, (2, 6), 3)
    value, error = _b_factor(2, 1, 0, pt, ctx)
    assert value != 0 and error is None
    value, error = _b_factor(2, 1, 1, pt, ctx)
    assert value == 0 and isinstance(error, ZeroFactor)
    assert str(error).startswith("numerator B2 first ratio at i=1")
    # only B1's first-product numerator a + b1 + (1 + k1 - 2)c vanishes
    pt = ParamPoint(1, (3, 5), 3)
    value, error = _b_factor(2, 1, 1, pt, ctx)
    assert value != 0 and error is None
    value, error = _b_factor(2, 1, 0, pt, ctx)
    assert value == 0 and isinstance(error, ZeroFactor)
    assert str(error).startswith("numerator B1 first product at i=1")


@pytest.mark.parametrize("k, b", [((2, 1), (2,)), ((2, 2), (2, 2)), ((1, 2), (2, 2))])
def test_two_group_factors_check_their_input(k, b):
    ctx = FpContext(7)
    rows = np.array([(1, *b, 3)], dtype=np.int64)
    for factor in (partial(b_factor_values, *k, 0), partial(b_factor_values, *k, 1),
                   partial(shift_factor_values, *k, 0), partial(shift_factor_values, *k, 1)):
        with pytest.raises(PreconditionViolation):
            factor(rows, ctx)
    with pytest.raises(PreconditionViolation):
        i000_rhs(*k, ParamPoint(1, b, 3), ctx)


def test_induction_factor_values():
    ctx = FpContext(11)
    assert _induction(KComposition((2, 1)), 3, ctx) == (10, None)
    assert _induction(KComposition((3, 2)), 1, ctx) == (9, None)
    with pytest.raises(PreconditionViolation):
        _induction(KComposition((2,)), 1, ctx)
    value, error = _induction(KComposition((3, 2)), 9, ctx)  # k_n * c = 18 > p-1
    assert value == 0 and isinstance(error, OutOfRange) and error.argument == 18


def test_induction_factor_single_bottom_group():
    # k_n = 1: factor reduces to (-1)^{b_n} * c!/c! = +-1
    ctx = FpContext(7)
    for c in (1, 2, 3):
        bn = (2 - 1 + 1) * c - 1
        expect = ctx.element((-1) ** (bn % 2))
        assert _induction(KComposition((2, 1)), c, ctx) == (expect.residue, None)


def test_i000_rhs_defined_on_its_domain():
    ctx = FpContext(7)
    for pt in enumerate_admissible_I(2, 1, ctx):
        assert i000_rhs(2, 1, pt, ctx).ok
    bad = i000_rhs(2, 1, ParamPoint(1, (1, 1), 1), ctx)
    assert not bad.ok


def test_shift_factors_along_a_path():
    from fpselberg.integrals import selberg_integral
    ctx = FpContext(11)
    k = KComposition((2, 1))
    frm = next(pt for pt in enumerate_admissible(k, ctx)
               if sum(pt.b) - sum(distinguished_point(k, pt.a, pt.c, ctx).b) >= 2)
    path = decrement_path(k, frm, ctx)
    assert len(path) >= 2
    cur = frm
    for idx, nxt in path:
        factor, error = _shift_factor(2, 1, idx, cur, ctx)
        assert error is None
        assert selberg_integral(k, nxt, ctx) == factor * selberg_integral(k, cur, ctx)
        cur = nxt
    assert cur == distinguished_point(k, frm.a, frm.c, ctx)


# (function, k, point, ZeroFactor text): for each ratio pair of the four
# factors (B1 and B2 are `b_factor_values` at idx 0 and 1, the shift
# factors `shift_factor_values` at idx 0 and 1), and each side of it,
# the first point of a sweep (k = (3,2), (3,1) and (2,1) in turn; p = 7;
# c-major over c <= p, then a, b1, b2 < 2p) where it is the pair that raises.
PINNED_ZERO_FACTORS = [
    ("B1", (3, 2), (0, (0, 0), 1), "denominator B1 first product at i=1 = 0 vanishes mod 7"),
    ("B1", (3, 1), (0, (6, 0), 1), "denominator B1 first product at i=2 = 7 vanishes mod 7"),
    ("B1", (3, 2), (0, (5, 0), 1), "numerator B1 first product at i=1 = 7 vanishes mod 7"),
    ("B1", (3, 1), (0, (4, 0), 1), "numerator B1 first product at i=2 = 7 vanishes mod 7"),
    ("B1", (3, 2), (0, (1, 0), 1), "denominator B1 second product at i=1 = 0 vanishes mod 7"),
    ("B1", (3, 2), (0, (1, 6), 1), "denominator B1 second product at i=2 = 7 vanishes mod 7"),
    ("B1", (3, 2), (0, (1, 5), 1), "numerator B1 second product at i=1 = 7 vanishes mod 7"),
    ("B1", (3, 2), (0, (1, 4), 1), "numerator B1 second product at i=2 = 7 vanishes mod 7"),
    ("B2", (3, 2), (0, (0, 0), 1), "denominator B2 first ratio at i=1 = 0 vanishes mod 7"),
    ("B2", (3, 2), (0, (1, 6), 1), "denominator B2 first ratio at i=2 = 7 vanishes mod 7"),
    ("B2", (3, 2), (0, (0, 2), 1), "numerator B2 first ratio at i=1 = 0 vanishes mod 7"),
    ("B2", (3, 2), (0, (1, 1), 1), "numerator B2 first ratio at i=2 = 0 vanishes mod 7"),
    ("B2", (3, 2), (0, (0, 1), 1), "denominator B2 second ratio at i=1 = 0 vanishes mod 7"),
    ("B2", (3, 2), (0, (2, 5), 1), "denominator B2 second ratio at i=2 = 7 vanishes mod 7"),
    ("B2", (3, 2), (0, (0, 6), 1), "numerator B2 second ratio at i=1 = 7 vanishes mod 7"),
    ("B2", (3, 2), (0, (0, 5), 1), "numerator B2 second ratio at i=2 = 7 vanishes mod 7"),
    ("shift_factor_b1", (3, 2), (0, (0, 0), 1),
     "denominator b1-shift first product at i=1 = 0 vanishes mod 7"),
    ("shift_factor_b1", (3, 1), (0, (6, 0), 1),
     "denominator b1-shift first product at i=2 = 7 vanishes mod 7"),
    ("shift_factor_b1", (3, 2), (0, (4, 0), 1),
     "numerator b1-shift first product at i=1 = 0 vanishes mod 7"),
    ("shift_factor_b1", (3, 1), (0, (3, 0), 1),
     "numerator b1-shift first product at i=2 = 0 vanishes mod 7"),
    ("shift_factor_b1", (3, 2), (0, (1, 6), 1),
     "denominator b1-shift second product at i=1 = 7 vanishes mod 7"),
    ("shift_factor_b1", (3, 2), (0, (1, 5), 1),
     "denominator b1-shift second product at i=2 = 7 vanishes mod 7"),
    ("shift_factor_b1", (3, 2), (0, (1, 3), 1),
     "numerator b1-shift second product at i=1 = 0 vanishes mod 7"),
    ("shift_factor_b1", (3, 2), (0, (1, 2), 1),
     "numerator b1-shift second product at i=2 = 0 vanishes mod 7"),
    ("shift_factor_b2", (3, 2), (0, (0, 0), 1),
     "denominator b2-shift first ratio at i=1 = 0 vanishes mod 7"),
    ("shift_factor_b2", (3, 2), (0, (0, 6), 1),
     "denominator b2-shift first ratio at i=2 = 7 vanishes mod 7"),
    ("shift_factor_b2", (3, 2), (0, (0, 1), 1),
     "numerator b2-shift first ratio at i=1 = 0 vanishes mod 7"),
    ("shift_factor_b2", (3, 2), (0, (1, 1), 2),
     "numerator b2-shift first ratio at i=2 = 0 vanishes mod 7"),
    ("shift_factor_b2", (3, 2), (0, (1, 6), 1),
     "denominator b2-shift second ratio at i=1 = 7 vanishes mod 7"),
    ("shift_factor_b2", (3, 2), (0, (1, 5), 1),
     "denominator b2-shift second ratio at i=2 = 7 vanishes mod 7"),
    ("shift_factor_b2", (3, 2), (0, (0, 4), 1),
     "numerator b2-shift second ratio at i=1 = 0 vanishes mod 7"),
    ("shift_factor_b2", (3, 2), (0, (0, 3), 1),
     "numerator b2-shift second ratio at i=2 = 0 vanishes mod 7"),
]


def test_zero_factor_texts_name_the_vanishing_pair():
    functions = {"B1": partial(_b_factor, idx=0), "B2": partial(_b_factor, idx=1),
                 "shift_factor_b1": partial(_shift_factor, idx=0),
                 "shift_factor_b2": partial(_shift_factor, idx=1)}
    ctx = FpContext(7)
    for name, (k1, k2), (a, b, c), text in PINNED_ZERO_FACTORS:
        value, error = functions[name](k1, k2, pt=ParamPoint(a, b, c), ctx=ctx)
        assert value == 0 and isinstance(error, ZeroFactor), (name, (k1, k2), (a, b, c))
        assert str(error) == text, (name, (k1, k2), (a, b, c))
