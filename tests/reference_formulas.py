"""The closed forms as they were first written: one `checked_factorial` and
one field operation per factor.

Reference for tests/test_formulas_reference.py, which requires the table
evaluators of `fpselberg.formulas` to give the same value or the same error
text.  `_ratio_product` is the per-factor form of the ratio products, and
`b_factor`, `shift_factor_b1` and `shift_factor_b2` list their pairs.
`beta_rhs`, `dyson_constant` and `induction_factor` are one field element
per point, raising OutOfRange where a factorial is undefined.
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


def beta_rhs(a: int, b: int, ctx: FpContext) -> FpElement:
    """-a! b!/(a+b+1-p)! when a+b >= p-1, else 0."""
    p = ctx.p
    if not (0 <= a < p and 0 <= b < p):
        raise PreconditionViolation(f"a={a}, b={b} must lie in [0, {p})")
    if a + b < p - 1:
        return ctx.zero
    num = checked_factorial(ctx, a) * checked_factorial(ctx, b)
    return -(num / checked_factorial(ctx, a + b + 1 - p))


def dyson_constant(k: int, c: int, ctx: FpContext) -> FpElement:
    """(kc)!/(c!)^k; the constant term of prod (1-x_i/x_j)^c over i != j."""
    if k < 1 or c < 1:
        raise PreconditionViolation(f"need k, c >= 1, got k={k}, c={c}")
    num = checked_factorial(ctx, k * c, "kc")
    return num / checked_factorial(ctx, c, "c") ** k


def induction_factor(k: KComposition, c: int, ctx: FpContext) -> FpElement:
    """The scalar relating the n-group integral at b_n = (k_{n-1}-k_n+1)c - 1
    to the (n-1)-group integral: (-1)^{b_n k_n + c k_n(k_n-1)/2} (k_n c)!/(c!)^{k_n}.
    """
    if k.n < 2:
        raise PreconditionViolation("induction factor needs n >= 2")
    if c < 1:
        raise PreconditionViolation("c must be positive")
    kn = k.part(k.n)
    bn = (k.part(k.n - 1) - kn + 1) * c - 1
    sign = sign_pow(ctx, bn * kn + c * kn * (kn - 1) // 2)
    return sign * checked_factorial(ctx, kn * c, "k_n c") / checked_factorial(ctx, c, "c") ** kn


def b_factor(k1: int, k2: int, idx: int, pt: ParamPoint, ctx: FpContext) -> FpElement:
    """The contiguous-relation factor B1 (idx 0) or B2 (idx 1); ZeroFactor
    names the first of its own pairs that vanishes."""
    a, (b1, b2), c = pt.a, pt.b, pt.c
    if idx == 0:
        pairs = [(a + b1 + (i + k1 - 2) * c, b1 + (i - 1) * c, f"B1 first product at i={i}")
                 for i in range(1, k1 - k2 + 1)]
        pairs += [(a + b1 + b2 + (i + k1 - 3) * c, b1 + b2 + (i - 2) * c,
                   f"B1 second product at i={i}") for i in range(1, k2 + 1)]
    else:
        pairs = []
        for i in range(1, k2 + 1):
            pairs.append((b2 + (i + k2 - k1 - 2) * c, b2 + (i - 1) * c, f"B2 first ratio at i={i}"))
            pairs.append((a + b1 + b2 + (i + k1 - 3) * c, b1 + b2 + (i - 2) * c,
                          f"B2 second ratio at i={i}"))
    return _ratio_product(ctx, pairs)


def shift_factor_b1(k1: int, k2: int, pt: ParamPoint, ctx: FpContext) -> FpElement:
    """Factor F with S(a, b1-1, b2, c) = F * S(a, b1, b2, c), evaluated at pt."""
    a, (b1, b2), c = pt.a, pt.b, pt.c
    p = ctx.p
    pairs = [(1 + a + b1 + (i + k1 - 2) * c - p, b1 + (i - 1) * c,
              f"b1-shift first product at i={i}") for i in range(1, k1 - k2 + 1)]
    pairs += [(2 + a + b1 + b2 + (i + k1 - 3) * c - p, 1 + b1 + b2 + (i - 2) * c,
               f"b1-shift second product at i={i}") for i in range(1, k2 + 1)]
    return _ratio_product(ctx, pairs)


def shift_factor_b2(k1: int, k2: int, pt: ParamPoint, ctx: FpContext) -> FpElement:
    """Factor F with S(a, b1, b2-1, c) = F * S(a, b1, b2, c), evaluated at pt."""
    a, (b1, b2), c = pt.a, pt.b, pt.c
    p = ctx.p
    pairs = []
    for i in range(1, k2 + 1):
        pairs.append((1 + b2 + (i + k2 - k1 - 2) * c, b2 + (i - 1) * c,
                      f"b2-shift first ratio at i={i}"))
        pairs.append((2 + a + b1 + b2 + (i + k1 - 3) * c - p, 1 + b1 + b2 + (i - 2) * c,
                      f"b2-shift second ratio at i={i}"))
    return _ratio_product(ctx, pairs)
