import pytest

from fpselberg.admissible import (decrement_path, distinguished_point,
                                  enumerate_admissible, enumerate_admissible_I)
from fpselberg.errors import OutOfRange, PreconditionViolation, ZeroFactor
from fpselberg.formulas import (FormulaResult, b_factors, beta_rhs,
                                dyson_constant, i000_rhs, induction_factor,
                                r_value, rhs_3_11, rhs_4_111,
                                shift_factor_b1, shift_factor_b2)
from fpselberg.gf import FpContext, checked_factorial, sign_pow
from fpselberg.integrals import KComposition, ParamPoint


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
    # below the threshold a+b >= p-1 the integral is 0
    assert int(beta_rhs(1, 1, ctx)) == 0
    assert int(beta_rhs(0, 0, ctx)) == 0
    # at a=b=2, p=5: -2!2!/1! = -4 = 1
    assert int(beta_rhs(2, 2, ctx)) == 1
    assert int(beta_rhs(4, 4, ctx)) == int(-ctx.element(24 * 24) / ctx.element(24))
    assert int(beta_rhs(6, 6, FpContext(7))) == 1  # -6!6!/6! = -6! = 1
    with pytest.raises(PreconditionViolation):
        beta_rhs(5, 0, ctx)
    with pytest.raises(PreconditionViolation):
        beta_rhs(-1, 0, ctx)


def test_dyson_constant_values():
    ctx = FpContext(7)
    assert int(dyson_constant(1, 1, ctx)) == 1
    assert int(dyson_constant(2, 1, ctx)) == 2
    assert int(dyson_constant(3, 1, ctx)) == 6
    assert int(dyson_constant(2, 2, ctx)) == 6  # 4!/2!2! = 6
    assert int(dyson_constant(1, 5, ctx)) == 1
    with pytest.raises(OutOfRange):
        dyson_constant(4, 2, ctx)  # kc = 8 > p-1


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


def test_rhs_4_111_value_against_integral():
    from fpselberg.integrals import selberg_integral
    ctx = FpContext(5)
    k = KComposition((1, 1, 1))
    # one interior point, checked end to end
    a, b1, b2, b3, c = 2, 1, 1, 1, 1
    got = rhs_4_111(a, b1, b2, b3, c, ctx)
    assert got.ok
    assert selberg_integral(k, ParamPoint(a, (b1, b2, b3), c), ctx) == got.value


def test_b_factors_known_point():
    ctx = FpContext(11)
    b0, b1f, b2f = b_factors(2, 1, ParamPoint(2, (5, 5), 3), ctx)
    # B0 = -(k1-k2+1)c / b2 = -6/5 = 1 mod 11
    assert int(b0) == 1
    assert int(b1f) == 5
    assert int(b2f) == 5


def test_b_factors_zero_denominator():
    ctx = FpContext(11)
    # b1 + b2 - c = 0 mod 11 kills the shared second-product denominator
    with pytest.raises(ZeroFactor):
        b_factors(2, 1, ParamPoint(1, (5, 6), 11), ctx)
    # b2 = 0 mod 11 kills the B0 denominator
    with pytest.raises(ZeroFactor):
        b_factors(2, 1, ParamPoint(1, (5, 11), 1), ctx)


def test_induction_factor_values():
    ctx = FpContext(11)
    assert int(induction_factor(KComposition((2, 1)), 3, ctx)) == 10
    assert int(induction_factor(KComposition((3, 2)), 1, ctx)) == 9
    with pytest.raises(PreconditionViolation):
        induction_factor(KComposition((2,)), 1, ctx)
    with pytest.raises(OutOfRange):
        induction_factor(KComposition((3, 2)), 9, ctx)  # k_n * c = 18 > p-1


def test_induction_factor_single_bottom_group():
    # k_n = 1: factor reduces to (-1)^{b_n} * c!/c! = +-1
    ctx = FpContext(7)
    for c in (1, 2, 3):
        bn = (2 - 1 + 1) * c - 1
        expect = ctx.element((-1) ** (bn % 2))
        assert induction_factor(KComposition((2, 1)), c, ctx) == expect


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
        factor = (shift_factor_b1 if idx == 0 else shift_factor_b2)(2, 1, cur, ctx)
        assert selberg_integral(k, nxt, ctx) == factor * selberg_integral(k, cur, ctx)
        cur = nxt
    assert cur == distinguished_point(k, frm.a, frm.c, ctx)
