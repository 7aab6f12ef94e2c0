"""Closed-form product formulas and recurrence factors.

A factorial argument outside [0, p) — the definition of a non-admissible
parameter point — either surfaces as a structured error (for the
formula-shaped results) or propagates as OutOfRange (for the always-defined
helpers, which work through `checked_factorial`).

The formula-shaped results are each one signed product of factorials n!^e,
written once as a term table (`_Table`): per term, its argument as a linear
form in the row (a, b_1, ..., b_n, c), its exponent and its label.  The
batch forms `r_values`, `rhs_3_11_values`, `rhs_4_111_values` and
`i000_rhs_values` take int64 rows and return, per row, the residue and the
index of the first term whose argument lies outside [0, p) (-1 where there
is none), from one evaluator (`_evaluate`): the arguments are one matrix
product, and the product is a sum of discrete logarithms of factorials.  A
batch raises the PreconditionViolation of the first row that fails a
precondition.  `r_value`, `rhs_3_11`, `rhs_4_111` and `i000_rhs` are their
batches of one, as a `FormulaResult` whose error is the OutOfRange text of
that first term.

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
from typing import NamedTuple

import numpy as np

from .errors import OutOfRange, PreconditionViolation, ZeroFactor
from .gf import FpContext, FpElement, checked_factorial, sign_pow
from .integrals import KComposition, ParamPoint, point_rows


class FormulaResult:
    """A value, or the out-of-range classifier naming the offending factorial.

    Built by keyword, FormulaResult(value=...) or FormulaResult(error=...),
    with exactly one of the two set: what a closed form's batch of one
    returns.
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


class _Table(NamedTuple):
    """A signed product of factorials over rows (a, b_1, ..., b_n, c): term
    j is n_j!^exponents[j], labelled labels[j], with the argument
    n_j = consts[j] + coeffs[j] . row."""

    sign: int
    consts: np.ndarray
    coeffs: np.ndarray
    exponents: np.ndarray
    labels: tuple[str, ...]


def _table(sign: int, n: int, forms, terms) -> _Table:
    """The table of terms (e, label) whose arguments are the forms
    (k0, ka, lo, hi, kc), each k0 + ka*a + (b_{lo+1} + ... + b_hi) + kc*c."""
    coeffs = np.zeros((len(forms), n + 2), dtype=np.int64)
    for row, (_, ka, lo, hi, kc) in zip(coeffs, forms):
        row[0], row[1 + lo:1 + hi], row[-1] = ka, 1, kc
    return _Table(sign, np.array([form[0] for form in forms], dtype=np.int64), coeffs,
                  np.array([e for e, _ in terms], dtype=np.int64),
                  tuple(label for _, label in terms))


@lru_cache(maxsize=64)
def _log_tables(p: int) -> tuple[np.ndarray, np.ndarray]:
    """(log n! for n in [0, p), then 0; g^e for e in [0, p-1)), the
    logarithms to the base g, the least primitive root mod p.  Every n! with
    n < p is a unit, so a product of powers of them is g to the sum of their
    logs."""
    order, factors, m = p - 1, set(), p - 1
    for q in range(2, p):
        while m % q == 0:
            factors.add(q)
            m //= q
        if q * q > m:
            break
    factors |= {m} - {1}
    g = next(g for g in range(2, p) if all(pow(g, order // q, p) != 1 for q in factors))
    power = np.ones(order, dtype=np.int64)
    for e in range(1, order):
        power[e] = power[e - 1] * g % p
    log = np.zeros(p, dtype=np.int64)
    log[power] = np.arange(order)
    fact = np.ones(p, dtype=np.int64)
    for n in range(2, p):
        fact[n] = fact[n - 1] * n % p
    return np.append(log[fact], 0), power


def _evaluate(table: _Table, rows: np.ndarray, p: int) -> tuple[np.ndarray, np.ndarray]:
    """Per row, the residue of the table's product, and the index of its
    first term whose argument lies outside [0, p), or -1; the residue of
    such a row is 0."""
    arguments = rows @ table.coeffs.T
    arguments += table.consts
    # read as unsigned, a negative argument lies above p - 1 too; p marks
    # every argument outside [0, p), and its log is 0
    index = np.minimum(arguments.view(np.uint64), p)
    outside = index == p
    undefined = outside.any(axis=1)
    first = np.where(undefined, outside.argmax(axis=1), -1)
    log_fact, power = _log_tables(p)
    values = power[log_fact[index] @ table.exponents % (p - 1)]
    if table.sign < 0:
        values = p - values
    values[undefined] = 0
    return values, first


def _result(batch: tuple[np.ndarray, np.ndarray], table: _Table, row: np.ndarray,
            ctx: FpContext) -> FormulaResult:
    """A batch of one as a FormulaResult: its value, or the OutOfRange text
    of its first argument outside [0, p)."""
    values, first = batch
    j = int(first[0])
    if j < 0:
        return FormulaResult(value=FpElement(int(values[0]), ctx))
    argument = int(table.consts[j] + table.coeffs[j] @ row[0])
    return FormulaResult(error=str(OutOfRange(argument, table.labels[j])))


def _require(rows: np.ndarray, conditions) -> None:
    """Raise PreconditionViolation at the first row that fails one of the
    conditions, (holds per row, message) pairs in the order a row is
    checked, with the message, given that row's entries, of the first one
    it fails."""
    holds = np.array([held for held, _ in conditions]).reshape(len(conditions), len(rows))
    failing = np.flatnonzero(~holds.all(axis=0))
    if len(failing):
        t = failing[0]
        _, message = conditions[int(np.argmin(holds[:, t]))]
        raise PreconditionViolation(message(*rows[t].tolist()))


@lru_cache(maxsize=64)
def _r_table(parts: tuple[int, ...], p: int) -> _Table:
    """r_value's term table for k = parts."""
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
    return _table((-1) ** sum(parts), n, forms, terms)


def r_values(k: KComposition, rows: np.ndarray, ctx: FpContext) -> tuple[np.ndarray, np.ndarray]:
    """The full closed-form product for the composition k at each row
    (a, b_1, ..., b_n, c), as `_evaluate` returns it.

    Conventions: a_1 = a, a_s = 0 for s >= 2; k_0 = k_{n+1} = 0; the -p
    subtraction in the denominator block applies only at s = 1.
    """
    if rows.shape[1] != k.n + 2:
        raise PreconditionViolation(f"b has length {rows.shape[1] - 2}, composition has n={k.n}")
    return _evaluate(_r_table(k.parts, ctx.p), rows, ctx.p)


def r_value(k: KComposition, pt: ParamPoint, ctx: FpContext) -> FormulaResult:
    """`r_values` at one point."""
    row = point_rows([pt], pt.n)
    return _result(r_values(k, row, ctx), _r_table(k.parts, ctx.p), row, ctx)


@lru_cache(maxsize=64)
def _rhs_3_11_table(p: int) -> _Table:
    return _table(1, 2, [(0, 1, 0, 0, 0), (1, 0, 0, 2, -1), (2 - p, 1, 0, 2, -1),
                         (p, 0, 0, 0, -1), (0, 0, 1, 2, 0), (1, 0, 1, 2, -1)],
                  [(1, "a"), (1, "b1+b2-c+1"), (-1, "a+b1+b2-c+2-p"), (1, "p-c"), (1, "b2"),
                   (-1, "b2-c+1")])


def rhs_3_11_values(rows: np.ndarray, ctx: FpContext) -> tuple[np.ndarray, np.ndarray]:
    """Closed form for the two-variable integrand t^a (1-t)^b1 (s-t)^{p-c}
    (1-s)^b2 at each row (a, b1, b2, c), as `_evaluate` returns it."""
    p = ctx.p
    a, b1, b2, c = rows.T
    _require(rows, [
        ((b1 >= 0) & (b2 >= 0), lambda *_: "b1, b2 must be nonnegative"),
        ((0 <= a) & (a < p), lambda a, *_: f"0 <= a < p fails for a={a}"),
        ((0 < c) & (c <= p), lambda *row: f"0 < c <= p fails for c={row[3]}"),
        ((0 <= b2 - c + 1) & (b2 - c + 1 < p),
         lambda a, b1, b2, c: f"0 <= b2-c+1 < p fails for b2-c+1={b2 - c + 1}"),
        ((0 <= b1 + b2 - c + 1) & (b1 + b2 - c + 1 < p),
         lambda a, b1, b2, c: f"0 <= b1+b2-c+1 < p fails for {b1 + b2 - c + 1}"),
        ((p - 1 <= a + b1 + b2 - c + 1) & (a + b1 + b2 - c + 1 < 2 * p - 1),
         lambda a, b1, b2, c: f"p-1 <= a+b1+b2-c+1 < 2p-1 fails for {a + b1 + b2 - c + 1}"),
    ])
    return _evaluate(_rhs_3_11_table(p), rows, p)


def rhs_3_11(a: int, b1: int, b2: int, c: int, ctx: FpContext) -> FormulaResult:
    """`rhs_3_11_values` at one point."""
    row = np.array([[a, b1, b2, c]], dtype=np.int64)
    return _result(rhs_3_11_values(row, ctx), _rhs_3_11_table(ctx.p), row, ctx)


@lru_cache(maxsize=64)
def _rhs_4_111_table(p: int) -> _Table:
    return _table(-1, 3, [(0, 1, 0, 0, 0), (2, 0, 0, 3, -2), (3 - p, 1, 0, 3, -2),
                          (p, 0, 0, 0, -1), (1, 0, 1, 3, -1), (2, 0, 1, 3, -2),
                          (p, 0, 0, 0, -1), (0, 0, 2, 3, 0), (1, 0, 2, 3, -1)],
                  [(1, "a"), (1, "b1+b2+b3-2c+2"), (-1, "a+b1+b2+b3-2c+3-p"), (1, "p-c"),
                   (1, "b2+b3-c+1"), (-1, "b2+b3-2c+2"), (1, "p-c"), (1, "b3"),
                   (-1, "b3-c+1")])


def rhs_4_111_values(rows: np.ndarray, ctx: FpContext) -> tuple[np.ndarray, np.ndarray]:
    """Closed form for the three-variable chain integrand at each row
    (a, b1, b2, b3, c), as `_evaluate` returns it.

    The third 1-minus factor carries b3 (the printed integrand's repeated b2
    is inconsistent with this right-hand side).
    """
    _require(rows, [((rows[:, :-1] >= 0).all(axis=1) & (rows[:, -1] >= 1),
                     lambda *_: "need a, b_i >= 0 and c >= 1")])
    return _evaluate(_rhs_4_111_table(ctx.p), rows, ctx.p)


def rhs_4_111(a: int, b1: int, b2: int, b3: int, c: int, ctx: FpContext) -> FormulaResult:
    """`rhs_4_111_values` at one point."""
    row = np.array([[a, b1, b2, b3, c]], dtype=np.int64)
    return _result(rhs_4_111_values(row, ctx), _rhs_4_111_table(ctx.p), row, ctx)


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


def _two_groups(k1: int, k2: int, n: int) -> None:
    """The precondition of the two-group forms: k1 > k2 > 0 and b = (b1, b2),
    n being the length of b."""
    if not k1 > k2 > 0:
        raise PreconditionViolation(f"need k1 > k2 > 0, got ({k1}, {k2})")
    if n != 2:
        raise PreconditionViolation("takes b = (b1, b2)")


def b_factor(k1: int, k2: int, idx: int, pt: ParamPoint, ctx: FpContext) -> FpElement:
    """The contiguous-relation factor B1 (idx 0) or B2 (idx 1), idx being the
    index of the lowered b as in `admissible.lowered`, as a field element;
    ZeroFactor names the first of its own pairs that vanishes."""
    _two_groups(k1, k2, pt.n)
    a, (b1, b2), c = pt.a, pt.b, pt.c
    if idx == 0:
        pairs = [(a + b1 + (i + k1 - 2) * c, b1 + (i - 1) * c, "B1 first product", i)
                 for i in range(1, k1 - k2 + 1)]
        pairs += [(a + b1 + b2 + (i + k1 - 3) * c, b1 + b2 + (i - 2) * c,
                   "B1 second product", i) for i in range(1, k2 + 1)]
    elif idx == 1:
        pairs = []
        for i in range(1, k2 + 1):
            pairs.append((b2 + (i + k2 - k1 - 2) * c, b2 + (i - 1) * c, "B2 first ratio", i))
            pairs.append((a + b1 + b2 + (i + k1 - 3) * c, b1 + b2 + (i - 2) * c,
                          "B2 second ratio", i))
    else:
        raise PreconditionViolation(f"idx must be 0 (B1) or 1 (B2), got {idx}")
    return _ratio_product(ctx, pairs)


@lru_cache(maxsize=64)
def _i000_table(k1: int, k2: int, p: int) -> _Table:
    """i000_rhs's term table; in its forms, b1 is the b-range 0..1, b2 is
    1..2 and b1 + b2 is 0..2."""
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
    return _table((-1) ** (k1 + k2), 2, forms, terms)


def i000_rhs_values(k1: int, k2: int, rows: np.ndarray,
                    ctx: FpContext) -> tuple[np.ndarray, np.ndarray]:
    """Closed form for the fully-lowered weighted integral I_{0,0,0} at each
    row (a, b1, b2, c), as `_evaluate` returns it."""
    _two_groups(k1, k2, rows.shape[1] - 2)
    return _evaluate(_i000_table(k1, k2, ctx.p), rows, ctx.p)


def i000_rhs(k1: int, k2: int, pt: ParamPoint, ctx: FpContext) -> FormulaResult:
    """`i000_rhs_values` at one point."""
    row = point_rows([pt], pt.n)
    return _result(i000_rhs_values(k1, k2, row, ctx), _i000_table(k1, k2, ctx.p), row, ctx)


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
    _two_groups(k1, k2, pt.n)
    a, (b1, b2), c = pt.a, pt.b, pt.c
    p = ctx.p
    pairs = [(1 + a + b1 + (i + k1 - 2) * c - p, b1 + (i - 1) * c,
              "b1-shift first product", i) for i in range(1, k1 - k2 + 1)]
    pairs += [(2 + a + b1 + b2 + (i + k1 - 3) * c - p, 1 + b1 + b2 + (i - 2) * c,
               "b1-shift second product", i) for i in range(1, k2 + 1)]
    return _ratio_product(ctx, pairs)


def shift_factor_b2(k1: int, k2: int, pt: ParamPoint, ctx: FpContext) -> FpElement:
    """Factor F with S(a, b1, b2-1, c) = F * S(a, b1, b2, c), evaluated at pt."""
    _two_groups(k1, k2, pt.n)
    a, (b1, b2), c = pt.a, pt.b, pt.c
    p = ctx.p
    pairs = []
    for i in range(1, k2 + 1):
        pairs.append((1 + b2 + (i + k2 - k1 - 2) * c, b2 + (i - 1) * c,
                      "b2-shift first ratio", i))
        pairs.append((2 + a + b1 + b2 + (i + k1 - 3) * c - p, 1 + b1 + b2 + (i - 2) * c,
                      "b2-shift second ratio", i))
    return _ratio_product(ctx, pairs)
