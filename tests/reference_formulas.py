"""The closed forms as they were first written: one `checked_factorial` and
one field operation per factor.

Reference for tests/test_formulas_reference.py, which requires the table
evaluators of `fpselberg.formulas` to give the same value or the same error
text.  `_ratio_product` is the per-factor form of the ratio products behind
`b_factor` and the shift factors.
"""

from fpselberg.errors import OutOfRange, PreconditionViolation, ZeroFactor
from fpselberg.formulas import FormulaResult
from fpselberg.gf import FpContext, FpElement, checked_factorial, sign_pow
from fpselberg.integrals import KComposition, ParamPoint


def r_value(k: KComposition, pt: ParamPoint, ctx: FpContext) -> FormulaResult:
    """The full closed-form product for the composition k at (a, b, c).

    Conventions: a_1 = a, a_s = 0 for s >= 2; k_0 = k_{n+1} = 0; the -p
    subtraction in the denominator block applies only at s = 1.
    """
    n = k.n
    if pt.n != n:
        raise PreconditionViolation(f"b has length {pt.n}, composition has n={n}")
    a, b, c = pt.a, pt.b, pt.c
    p = ctx.p
    try:
        val = sign_pow(ctx, sum(k.parts))
        for s in range(1, n + 1):
            a_s = a if s == 1 else 0
            delta_p = p if s == 1 else 0
            for r in range(s, n + 1):
                bsum = sum(b[s - 1:r])
                for i in range(1, k.part(r) - k.part(r + 1) + 1):
                    num = (r - s) + bsum + (i + s - r - 1) * c
                    den = ((r - s + 1) + a_s + bsum
                           + (i + s - r + k.part(s) - k.part(s - 1) - 2) * c - delta_p)
                    val = val * checked_factorial(
                        ctx, num, f"r-s+b_s+..+b_r+(i+s-r-1)c at s={s},r={r},i={i}")
                    val = val / checked_factorial(
                        ctx, den,
                        f"r-s+1+a_s+b_s+..+b_r+(i+s-r+k_s-k_(s-1)-2)c-d(s,1)p at s={s},r={r},i={i}")
        for i in range(1, k.part(1) + 1):
            val = val * checked_factorial(ctx, a + (i - 1) * c, f"a+(i-1)c at i={i}")
        c_fact = checked_factorial(ctx, c, "c")
        for r in range(1, n + 1):
            for i in range(1, k.part(r) + 1):
                val = val * checked_factorial(ctx, i * c, f"ic at i={i}") / c_fact
        for r in range(2, n + 1):
            for i in range(1, k.part(r) + 1):
                val = val * checked_factorial(
                    ctx, p + (i - k.part(r - 1) - 1) * c, f"p+(i-k_(r-1)-1)c at r={r},i={i}")
        return FormulaResult(value=val)
    except OutOfRange as exc:
        return FormulaResult(error=str(exc))


def rhs_3_11(a: int, b1: int, b2: int, c: int, ctx: FpContext) -> FormulaResult:
    """Closed form for the two-variable integrand t^a (1-t)^b1 (s-t)^{p-c} (1-s)^b2."""
    p = ctx.p
    if b1 < 0 or b2 < 0:
        raise PreconditionViolation("b1, b2 must be nonnegative")
    checks = [
        (0 <= a < p, f"0 <= a < p fails for a={a}"),
        (0 < c <= p, f"0 < c <= p fails for c={c}"),
        (0 <= b2 - c + 1 < p, f"0 <= b2-c+1 < p fails for b2-c+1={b2 - c + 1}"),
        (0 <= b1 + b2 - c + 1 < p, f"0 <= b1+b2-c+1 < p fails for {b1 + b2 - c + 1}"),
        (p - 1 <= a + b1 + b2 - c + 1 < 2 * p - 1,
         f"p-1 <= a+b1+b2-c+1 < 2p-1 fails for {a + b1 + b2 - c + 1}"),
    ]
    for ok, msg in checks:
        if not ok:
            raise PreconditionViolation(msg)
    try:
        val = checked_factorial(ctx, a, "a")
        val = val * checked_factorial(ctx, b1 + b2 - c + 1, "b1+b2-c+1")
        val = val / checked_factorial(ctx, a + b1 + b2 - c + 2 - p, "a+b1+b2-c+2-p")
        val = val * checked_factorial(ctx, p - c, "p-c")
        val = val * checked_factorial(ctx, b2, "b2")
        val = val / checked_factorial(ctx, b2 - c + 1, "b2-c+1")
        return FormulaResult(value=val)
    except OutOfRange as exc:
        return FormulaResult(error=str(exc))


def rhs_4_111(a: int, b1: int, b2: int, b3: int, c: int, ctx: FpContext) -> FormulaResult:
    """Closed form for the three-variable chain integrand.

    The third 1-minus factor carries b3 (the printed integrand's repeated b2
    is inconsistent with this right-hand side).
    """
    p = ctx.p
    if a < 0 or b1 < 0 or b2 < 0 or b3 < 0 or c < 1:
        raise PreconditionViolation("need a, b_i >= 0 and c >= 1")
    try:
        val = -checked_factorial(ctx, a, "a")
        val = val * checked_factorial(ctx, b1 + b2 + b3 - 2 * c + 2, "b1+b2+b3-2c+2")
        val = val / checked_factorial(ctx, a + b1 + b2 + b3 - 2 * c + 3 - p,
                                      "a+b1+b2+b3-2c+3-p")
        val = val * checked_factorial(ctx, p - c, "p-c")
        val = val * checked_factorial(ctx, b2 + b3 - c + 1, "b2+b3-c+1")
        val = val / checked_factorial(ctx, b2 + b3 - 2 * c + 2, "b2+b3-2c+2")
        val = val * checked_factorial(ctx, p - c, "p-c")
        val = val * checked_factorial(ctx, b3, "b3")
        val = val / checked_factorial(ctx, b3 - c + 1, "b3-c+1")
        return FormulaResult(value=val)
    except OutOfRange as exc:
        return FormulaResult(error=str(exc))


def _ratio_product(ctx: FpContext, pairs) -> FpElement:
    """prod num/den over (num, den, name) with a ZeroFactor guard."""
    val = ctx.one
    for num, den, name in pairs:
        nr, dr = num % ctx.p, den % ctx.p
        if nr == 0:
            raise ZeroFactor(f"numerator {name} = {num} vanishes mod {ctx.p}")
        if dr == 0:
            raise ZeroFactor(f"denominator {name} = {den} vanishes mod {ctx.p}")
        val = val * ctx.element(nr) / ctx.element(dr)
    return val


def i000_rhs(k1: int, k2: int, pt: ParamPoint, ctx: FpContext) -> FormulaResult:
    """Closed form for the fully-lowered weighted integral I_{0,0,0}."""
    if not k1 > k2 > 0:
        raise PreconditionViolation(f"need k1 > k2 > 0, got ({k1}, {k2})")
    if pt.n != 2:
        raise PreconditionViolation("takes b = (b1, b2)")
    a, (b1, b2), c = pt.a, pt.b, pt.c
    p = ctx.p
    try:
        val = sign_pow(ctx, k1 + k2)
        for i in range(1, k1 - k2 + 1):
            val = val * checked_factorial(ctx, b1 + (i - 1) * c, f"b1+(i-1)c at i={i}")
            val = val / checked_factorial(ctx, a + b1 + (i + k1 - 2) * c - p,
                                          f"a+b1+(i+k1-2)c-p at i={i}")
        for i in range(1, k2 + 1):
            val = val * checked_factorial(ctx, b2 + (i - 1) * c, f"b2+(i-1)c at i={i}")
            val = val / checked_factorial(ctx, b2 + (i + k2 - k1 - 2) * c,
                                          f"b2+(i+k2-k1-2)c at i={i}")
            val = val * checked_factorial(ctx, b1 + b2 + (i - 2) * c, f"b1+b2+(i-2)c at i={i}")
            val = val / checked_factorial(ctx, a + b1 + b2 + (i + k1 - 3) * c - p,
                                          f"a+b1+b2+(i+k1-3)c-p at i={i}")
        for i in range(1, k1 + 1):
            val = val * checked_factorial(ctx, a + (i - 1) * c - 1, f"a+(i-1)c-1 at i={i}")
        for i in range(1, k2 + 1):
            val = val * checked_factorial(ctx, p + (i - k1 - 1) * c - 1,
                                          f"p+(i-k1-1)c-1 at i={i}")
        c_fact = checked_factorial(ctx, c, "c")
        for kr in (k1, k2):
            for i in range(1, kr + 1):
                val = val * checked_factorial(ctx, i * c, f"ic at i={i}") / c_fact
        return FormulaResult(value=val)
    except OutOfRange as exc:
        return FormulaResult(error=str(exc))
