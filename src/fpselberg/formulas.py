"""Closed-form product formulas and recurrence factors.

A factorial argument outside [0, p) — the definition of a non-admissible
parameter point — either surfaces as a structured `FormulaResult` error (for
the formula-shaped results) or propagates as OutOfRange (for the
always-defined helpers, which work through `checked_factorial`).

The formula-shaped results `r_value`, `rhs_3_11`, `rhs_4_111` and `i000_rhs`
are each one signed product of factorials n!^e.  Each passes its arguments
as a list of ints, with one term (e, label) per argument, to
`_factorial_product`.  It range-checks the arguments in the product's order,
multiplies the residues as ints and inverts the denominator once.
`r_value` and `i000_rhs` build their arguments from a term table, made once
per (k, p), whose arguments are linear forms in a, contiguous sums of the
b_i and c; `rhs_3_11` and `rhs_4_111` write theirs out.

Two places deliberately deviate from a printed form; see the repository
notes for the numeric evidence:

* the second product in B1/B2 uses (i + k1 - 3)c, matching the contiguous
  relations that the weighted integrals actually satisfy;
* `induction_factor` uses the sign (-1)^{b_n k_n + c k_n (k_n-1)/2} with
  b_n = (k_{n-1}-k_n+1)c - 1, the exponent under which the factored identity
  holds exactly.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import accumulate

from .errors import OutOfRange, PreconditionViolation, ZeroFactor
from .gf import FpContext, FpElement, checked_factorial, sign_pow
from .integrals import KComposition, ParamPoint


class FormulaResult:
    """A value, or the out-of-range classifier naming the offending factorial.

    Built by keyword, FormulaResult(value=...) or FormulaResult(error=...),
    with exactly one of the two set.  A plain slotted class, because every
    closed form builds one: it constructs in about half the time of a
    frozen dataclass.
    """

    __slots__ = ("value", "error")

    def __init__(self, value: FpElement | None = None, error: str | None = None):
        if (value is None) == (error is None):
            raise PreconditionViolation("exactly one of value/error must be set")
        self.value = value
        self.error = error

    @property
    def ok(self) -> bool:
        return self.error is None

    def __eq__(self, other):
        if not isinstance(other, FormulaResult):
            return NotImplemented
        return (self.value, self.error) == (other.value, other.error)

    def __hash__(self):
        return hash((self.value, self.error))

    def __repr__(self):
        return f"FormulaResult(value={self.value!r}, error={self.error!r})"


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


def _factorial_product(ctx: FpContext, sign: int, args: list[int], terms) -> FormulaResult:
    """sign * prod n!^e over the arguments n and their terms (e, label),
    e being 1 or negative; or, at the first argument n outside [0, p), the
    error with the text of OutOfRange(n, label)."""
    p, fact = ctx.p, ctx._fact
    num, den = sign, 1
    for n, (e, label) in zip(args, terms):
        if n < 0 or n >= p:
            return FormulaResult(error=str(OutOfRange(n, label)))
        if e == 1:
            num = num * fact[n] % p
        elif e == -1:
            den = den * fact[n] % p
        else:
            den = den * pow(fact[n], -e, p) % p
    return FormulaResult(value=FpElement(num * pow(den, p - 2, p), ctx))


def _table_product(table, a: int, b: tuple[int, ...], c: int, ctx: FpContext) -> FormulaResult:
    """A term table's product at (a, b, c).  Each argument is
    k0 + ka*a + (b_{lo+1} + ... + b_hi) + kc*c for its form (k0, ka, lo, hi, kc)."""
    sign, forms, terms = table
    pre = [0, *accumulate(b)]
    return _factorial_product(
        ctx, sign, [k0 + ka * a + pre[hi] - pre[lo] + kc * c for k0, ka, lo, hi, kc in forms],
        terms)


@lru_cache(maxsize=64)
def _r_table(parts: tuple[int, ...], p: int):
    """r_value's term table for k = parts: (sign, forms, terms)."""
    k = KComposition(parts)
    n = k.n
    forms, terms = [], []
    for s in range(1, n + 1):
        a_s = 1 if s == 1 else 0
        delta_p = p if s == 1 else 0
        for r in range(s, n + 1):
            for i in range(1, k.part(r) - k.part(r + 1) + 1):
                forms.append((r - s, 0, s - 1, r, i + s - r - 1))
                terms.append((1, f"r-s+b_s+..+b_r+(i+s-r-1)c at s={s},r={r},i={i}"))
                forms.append((r - s + 1 - delta_p, a_s, s - 1, r,
                              i + s - r + k.part(s) - k.part(s - 1) - 2))
                terms.append((-1, "r-s+1+a_s+b_s+..+b_r+(i+s-r+k_s-k_(s-1)-2)c-d(s,1)p"
                                  f" at s={s},r={r},i={i}"))
    for i in range(1, k.part(1) + 1):
        forms.append((0, 1, 0, 0, i - 1))
        terms.append((1, f"a+(i-1)c at i={i}"))
    forms.append((0, 0, 0, 0, 1))
    terms.append((-sum(parts), "c"))
    for r in range(1, n + 1):
        for i in range(1, k.part(r) + 1):
            forms.append((0, 0, 0, 0, i))
            terms.append((1, f"ic at i={i}"))
    for r in range(2, n + 1):
        for i in range(1, k.part(r) + 1):
            forms.append((p, 0, 0, 0, i - k.part(r - 1) - 1))
            terms.append((1, f"p+(i-k_(r-1)-1)c at r={r},i={i}"))
    return (-1) ** sum(parts), tuple(forms), tuple(terms)


def r_value(k: KComposition, pt: ParamPoint, ctx: FpContext) -> FormulaResult:
    """The full closed-form product for the composition k at (a, b, c).

    Conventions: a_1 = a, a_s = 0 for s >= 2; k_0 = k_{n+1} = 0; the -p
    subtraction in the denominator block applies only at s = 1.
    """
    if pt.n != k.n:
        raise PreconditionViolation(f"b has length {pt.n}, composition has n={k.n}")
    return _table_product(_r_table(k.parts, ctx.p), pt.a, pt.b, pt.c, ctx)


_RHS_3_11 = ((1, "a"), (1, "b1+b2-c+1"), (-1, "a+b1+b2-c+2-p"), (1, "p-c"), (1, "b2"),
             (-1, "b2-c+1"))


def rhs_3_11(a: int, b1: int, b2: int, c: int, ctx: FpContext) -> FormulaResult:
    """Closed form for the two-variable integrand t^a (1-t)^b1 (s-t)^{p-c} (1-s)^b2."""
    p = ctx.p
    if b1 < 0 or b2 < 0:
        raise PreconditionViolation("b1, b2 must be nonnegative")
    if not 0 <= a < p:
        raise PreconditionViolation(f"0 <= a < p fails for a={a}")
    if not 0 < c <= p:
        raise PreconditionViolation(f"0 < c <= p fails for c={c}")
    if not 0 <= b2 - c + 1 < p:
        raise PreconditionViolation(f"0 <= b2-c+1 < p fails for b2-c+1={b2 - c + 1}")
    if not 0 <= b1 + b2 - c + 1 < p:
        raise PreconditionViolation(f"0 <= b1+b2-c+1 < p fails for {b1 + b2 - c + 1}")
    if not p - 1 <= a + b1 + b2 - c + 1 < 2 * p - 1:
        raise PreconditionViolation(f"p-1 <= a+b1+b2-c+1 < 2p-1 fails for {a + b1 + b2 - c + 1}")
    return _factorial_product(
        ctx, 1, [a, b1 + b2 - c + 1, a + b1 + b2 - c + 2 - p, p - c, b2, b2 - c + 1], _RHS_3_11)


_RHS_4_111 = ((1, "a"), (1, "b1+b2+b3-2c+2"), (-1, "a+b1+b2+b3-2c+3-p"), (1, "p-c"),
              (1, "b2+b3-c+1"), (-1, "b2+b3-2c+2"), (1, "p-c"), (1, "b3"), (-1, "b3-c+1"))


def rhs_4_111(a: int, b1: int, b2: int, b3: int, c: int, ctx: FpContext) -> FormulaResult:
    """Closed form for the three-variable chain integrand.

    The third 1-minus factor carries b3 (the printed integrand's repeated b2
    is inconsistent with this right-hand side).
    """
    p = ctx.p
    if a < 0 or b1 < 0 or b2 < 0 or b3 < 0 or c < 1:
        raise PreconditionViolation("need a, b_i >= 0 and c >= 1")
    return _factorial_product(
        ctx, -1, [a, b1 + b2 + b3 - 2 * c + 2, a + b1 + b2 + b3 - 2 * c + 3 - p, p - c,
                  b2 + b3 - c + 1, b2 + b3 - 2 * c + 2, p - c, b3, b3 - c + 1], _RHS_4_111)


def _ratio_product(ctx: FpContext, pairs) -> FpElement:
    """prod num/den over (num, den, name, i) with a ZeroFactor guard; the
    pair's label, "<name> at i=<i>", is formatted only for the error."""
    p = ctx.p
    num = den = 1
    for n, d, name, i in pairs:
        nr, dr = n % p, d % p
        if nr == 0:
            raise ZeroFactor(f"numerator {name} at i={i} = {n} vanishes mod {p}")
        if dr == 0:
            raise ZeroFactor(f"denominator {name} at i={i} = {d} vanishes mod {p}")
        num = num * nr % p
        den = den * dr % p
    return FpElement(num * pow(den, p - 2, p), ctx)


def b_factors(k1: int, k2: int, pt: ParamPoint, ctx: FpContext):
    """The three contiguous-relation factors (B0, B1, B2) as field elements."""
    if not k1 > k2 > 0:
        raise PreconditionViolation(f"need k1 > k2 > 0, got ({k1}, {k2})")
    if pt.n != 2:
        raise PreconditionViolation("b_factors take b = (b1, b2)")
    a, (b1, b2), c = pt.a, pt.b, pt.c
    b0 = sign_pow(ctx, k2) * _ratio_product(ctx, [
        ((k1 - k2 + i + 1) * c, b2 + i * c, "B0 term", i) for i in range(k2)])
    b1_pairs = [(a + b1 + (i + k1 - 2) * c, b1 + (i - 1) * c, "B1 first product", i)
                for i in range(1, k1 - k2 + 1)]
    b1_pairs += [(a + b1 + b2 + (i + k1 - 3) * c, b1 + b2 + (i - 2) * c,
                  "B1 second product", i) for i in range(1, k2 + 1)]
    b2_pairs = []
    for i in range(1, k2 + 1):
        b2_pairs.append((b2 + (i + k2 - k1 - 2) * c, b2 + (i - 1) * c, "B2 first ratio", i))
        b2_pairs.append((a + b1 + b2 + (i + k1 - 3) * c, b1 + b2 + (i - 2) * c,
                         "B2 second ratio", i))
    return b0, _ratio_product(ctx, b1_pairs), _ratio_product(ctx, b2_pairs)


@lru_cache(maxsize=64)
def _i000_table(k1: int, k2: int, p: int):
    """i000_rhs's term table: (sign, forms, terms); in the forms, b1 is the
    b-range 0..1, b2 is 1..2 and b1 + b2 is 0..2."""
    forms, terms = [], []
    for i in range(1, k1 - k2 + 1):
        forms += [(0, 0, 0, 1, i - 1), (-p, 1, 0, 1, i + k1 - 2)]
        terms += [(1, f"b1+(i-1)c at i={i}"), (-1, f"a+b1+(i+k1-2)c-p at i={i}")]
    for i in range(1, k2 + 1):
        forms += [(0, 0, 1, 2, i - 1), (0, 0, 1, 2, i + k2 - k1 - 2),
                  (0, 0, 0, 2, i - 2), (-p, 1, 0, 2, i + k1 - 3)]
        terms += [(1, f"b2+(i-1)c at i={i}"), (-1, f"b2+(i+k2-k1-2)c at i={i}"),
                  (1, f"b1+b2+(i-2)c at i={i}"), (-1, f"a+b1+b2+(i+k1-3)c-p at i={i}")]
    for i in range(1, k1 + 1):
        forms.append((-1, 1, 0, 0, i - 1))
        terms.append((1, f"a+(i-1)c-1 at i={i}"))
    for i in range(1, k2 + 1):
        forms.append((p - 1, 0, 0, 0, i - k1 - 1))
        terms.append((1, f"p+(i-k1-1)c-1 at i={i}"))
    forms.append((0, 0, 0, 0, 1))
    terms.append((-(k1 + k2), "c"))
    for kr in (k1, k2):
        for i in range(1, kr + 1):
            forms.append((0, 0, 0, 0, i))
            terms.append((1, f"ic at i={i}"))
    return (-1) ** (k1 + k2), tuple(forms), tuple(terms)


def i000_rhs(k1: int, k2: int, pt: ParamPoint, ctx: FpContext) -> FormulaResult:
    """Closed form for the fully-lowered weighted integral I_{0,0,0}."""
    if not k1 > k2 > 0:
        raise PreconditionViolation(f"need k1 > k2 > 0, got ({k1}, {k2})")
    if pt.n != 2:
        raise PreconditionViolation("takes b = (b1, b2)")
    return _table_product(_i000_table(k1, k2, ctx.p), pt.a, pt.b, pt.c, ctx)


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


def shift_factor_b1(k1: int, k2: int, pt: ParamPoint, ctx: FpContext) -> FpElement:
    """Factor F with S(a, b1-1, b2, c) = F * S(a, b1, b2, c), evaluated at pt."""
    a, (b1, b2), c = pt.a, pt.b, pt.c
    p = ctx.p
    pairs = [(1 + a + b1 + (i + k1 - 2) * c - p, b1 + (i - 1) * c,
              "b1-shift first product", i) for i in range(1, k1 - k2 + 1)]
    pairs += [(2 + a + b1 + b2 + (i + k1 - 3) * c - p, 1 + b1 + b2 + (i - 2) * c,
               "b1-shift second product", i) for i in range(1, k2 + 1)]
    return _ratio_product(ctx, pairs)


def shift_factor_b2(k1: int, k2: int, pt: ParamPoint, ctx: FpContext) -> FpElement:
    """Factor F with S(a, b1, b2-1, c) = F * S(a, b1, b2, c), evaluated at pt."""
    a, (b1, b2), c = pt.a, pt.b, pt.c
    p = ctx.p
    pairs = []
    for i in range(1, k2 + 1):
        pairs.append((1 + b2 + (i + k2 - k1 - 2) * c, b2 + (i - 1) * c,
                      "b2-shift first ratio", i))
        pairs.append((2 + a + b1 + b2 + (i + k1 - 3) * c - p, 1 + b1 + b2 + (i - 2) * c,
                      "b2-shift second ratio", i))
    return _ratio_product(ctx, pairs)
