"""Closed-form product formulas and recurrence factors.

Each is one signed product of powers of linear forms in the row (a, b_1,
..., b_n, c), written once as a term table (`_Table`): per term, its
argument as a linear form in the row, its exponent and its label; the sign
is (-1) to a linear form in the row.  A factorial table's term n! is
undefined where n lies outside [0, p) (the definition of a non-admissible
parameter point); a ratio table's term n, where n vanishes mod p.  Each
batch form (`r_values`, ..., `induction_values`) takes int64 rows and
returns, per row, the residue (0 where undefined) and the index of the
first undefined term (-1 where there is none), from one evaluator
(`_evaluate`); it raises the PreconditionViolation of the first row that
fails a precondition.  `r_value`, `rhs_3_11` and `i000_rhs` are batches of
one, a `FormulaResult` with the OutOfRange text of the first undefined
term, for the CLI's `eval r`, the campaign benchmark's accounting and the
error text of `admissible.i000_closed_forms`.

Two places deliberately deviate from a printed form; see the repository
notes for the numeric evidence:

* the second product in B1/B2 uses (i + k1 - 3)c, matching the contiguous
  relations that the weighted integrals actually satisfy;
* the induction factor uses the sign (-1)^{b_n k_n + c k_n (k_n-1)/2} with
  b_n = (k_{n-1}-k_n+1)c - 1, the exponent under which the factored
  identity holds exactly.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .errors import FpSelbergError, OutOfRange, PreconditionViolation, ZeroFactor
from .gf import FpContext, FpElement
from .integrals import KComposition, ParamPoint, point_rows


class FormulaResult:
    """A value, or the out-of-range classifier naming the offending
    factorial, exactly one of the two set: a closed form's batch of one."""

    __slots__ = ("value", "error")

    def __init__(self, value: FpElement | None = None, error: str | None = None):
        if (value is None) == (error is None):
            raise PreconditionViolation("exactly one of value/error must be set")
        self.value = value
        self.error = error

    @property
    def ok(self) -> bool:
        return self.error is None

    def __repr__(self):
        return f"FormulaResult(value={self.value!r}, error={self.error!r})"


class _Table(NamedTuple):
    """A signed product over rows (a, b_1, ..., b_n, c): term j is
    n_j!^exponents[j], or n_j^exponents[j] in a ratio table, labelled
    labels[j], with the argument n_j = consts[j] + coeffs[j] . row; the sign
    is (-1)^(s_0 + s . row) for parity = (s_0, s)."""

    parity: tuple[int, np.ndarray]
    consts: np.ndarray
    coeffs: np.ndarray
    exponents: np.ndarray
    labels: tuple[str, ...]
    ratio: bool


def _table(parity, n: int, forms, terms, ratio: bool = False) -> _Table:
    """The table of terms (e, label) whose arguments are the forms, with the
    sign (-1) to the form parity (an int: a constant); a form (k0, ka, lo,
    hi, kc) is k0 + ka*a + (b_{lo+1} + ... + b_hi) + kc*c."""
    forms = [(parity, 0, 0, 0, 0) if isinstance(parity, int) else parity, *forms]
    coeffs = np.zeros((len(forms), n + 2), dtype=np.int64)
    for row, (_, ka, lo, hi, kc) in zip(coeffs, forms):
        row[0], row[1 + lo:1 + hi], row[-1] = ka, 1, kc
    consts = np.array([form[0] for form in forms], dtype=np.int64)
    return _Table((int(consts[0]), coeffs[0]), consts[1:], coeffs[1:],
                  np.array([e for e, _ in terms], dtype=np.int64),
                  tuple(label for _, label in terms), ratio)


@lru_cache(maxsize=64)
def _log_tables(p: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(log n! for n in [0, p), then 0; log n for n in [0, p), log 0 read as
    0; g^e for e in [0, p-1)), the logarithms to the base g, the least
    primitive root mod p.  Every n! with n < p is a unit, so a product of
    powers of them, or of units n, is g to the sum of their logs."""
    order = p - 1
    primes = [q for q in range(2, p) if order % q == 0 and all(q % d for d in range(2, q))]
    g = next(g for g in range(2, p) if all(pow(g, order // q, p) != 1 for q in primes))
    power = np.ones(order, dtype=np.int64)
    for e in range(1, order):
        power[e] = power[e - 1] * g % p
    log = np.zeros(p, dtype=np.int64)
    log[power] = np.arange(order)
    return np.concatenate([[0], np.cumsum(log[1:]) % order, [0]]), log, power


def _evaluate(table: _Table, rows: np.ndarray, p: int) -> tuple[np.ndarray, np.ndarray]:
    """Per row, the residue of the table's product, and the index of its
    first undefined term, or -1; the residue of such a row is 0."""
    arguments = rows @ table.coeffs.T
    arguments += table.consts
    log_fact, log, power = _log_tables(p)
    # a ratio term is undefined at 0 mod p; read as unsigned, a negative
    # factorial argument lies above p - 1 too, and p, whose log is 0, marks
    # every argument outside [0, p)
    index, mark, logs = ((arguments % p, 0, log) if table.ratio else
                         (np.minimum(arguments.view(np.uint64), p), p, log_fact))
    undefined_terms = index == mark
    undefined = undefined_terms.any(axis=1)
    first = np.where(undefined, undefined_terms.argmax(axis=1), -1)
    values = power[logs[index] @ table.exponents % (p - 1)]
    s0, s = table.parity
    values = np.where((rows @ s + s0) % 2 == 1, p - values, values)
    values[undefined] = 0
    return values, first


def _failure(table: _Table, row: np.ndarray, j: int, p: int) -> FpSelbergError:
    """The error of the row's term j: the OutOfRange of a factorial argument
    outside [0, p), or the ZeroFactor of a ratio term that vanishes mod p."""
    argument = int(table.consts[j] + table.coeffs[j] @ row)
    if table.ratio:
        return ZeroFactor(f"{table.labels[j]} = {argument} vanishes mod {p}")
    return OutOfRange(argument, table.labels[j])


def _result(batch: tuple[np.ndarray, np.ndarray], table: _Table, row: np.ndarray,
            ctx: FpContext) -> FormulaResult:
    """A batch of one as a FormulaResult: its value, or the error text of
    its first undefined term."""
    values, first = batch
    j = int(first[0])
    if j < 0:
        return FormulaResult(value=FpElement(int(values[0]), ctx))
    return FormulaResult(error=str(_failure(table, row[0], j, ctx.p)))


def _width(rows: np.ndarray, n: int, form: str) -> None:
    """Raise PreconditionViolation unless rows are rows (a, b_1, ..., b_n, c)."""
    if rows.shape[1:] != (n + 2,):
        raise PreconditionViolation(f"b has length {rows.shape[-1] - 2}, {form} has n={n}")


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
    return _table(sum(parts), n, forms, terms)


def r_values(k: KComposition, rows: np.ndarray, ctx: FpContext) -> tuple[np.ndarray, np.ndarray]:
    """The full closed-form product for the composition k at each row
    (a, b_1, ..., b_n, c), as `_evaluate` returns it.

    Conventions: a_1 = a, a_s = 0 for s >= 2; k_0 = k_{n+1} = 0; the -p
    subtraction in the denominator block applies only at s = 1.
    """
    _width(rows, k.n, "composition")
    return _evaluate(_r_table(k.parts, ctx.p), rows, ctx.p)


def r_value(k: KComposition, pt: ParamPoint, ctx: FpContext) -> FormulaResult:
    """`r_values` at one point."""
    row = point_rows([pt], pt.n)
    return _result(r_values(k, row, ctx), _r_table(k.parts, ctx.p), row, ctx)


@lru_cache(maxsize=64)
def _rhs_3_11_table(p: int) -> _Table:
    return _table(0, 2, [(0, 1, 0, 0, 0), (1, 0, 0, 2, -1), (2 - p, 1, 0, 2, -1),
                         (p, 0, 0, 0, -1), (0, 0, 1, 2, 0), (1, 0, 1, 2, -1)],
                  [(1, "a"), (1, "b1+b2-c+1"), (-1, "a+b1+b2-c+2-p"), (1, "p-c"), (1, "b2"),
                   (-1, "b2-c+1")])


def rhs_3_11_values(rows: np.ndarray, ctx: FpContext) -> tuple[np.ndarray, np.ndarray]:
    """Closed form for the two-variable integrand t^a (1-t)^b1 (s-t)^{p-c}
    (1-s)^b2 at each row (a, b1, b2, c), as `_evaluate` returns it."""
    p = ctx.p
    _width(rows, 2, "Theorem 3.11")
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
    return _table(1, 3, [(0, 1, 0, 0, 0), (2, 0, 0, 3, -2), (3 - p, 1, 0, 3, -2),
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
    _width(rows, 3, "Theorem 4.111")
    _require(rows, [((rows[:, :-1] >= 0).all(axis=1) & (rows[:, -1] >= 1),
                     lambda *_: "need a, b_i >= 0 and c >= 1")])
    return _evaluate(_rhs_4_111_table(ctx.p), rows, ctx.p)


@lru_cache(maxsize=64)
def _beta_table(p: int) -> _Table:
    return _table(1, 1, [(0, 1, 0, 0, 0), (0, 0, 0, 1, 0), (1 - p, 1, 0, 1, 0)],
                  [(1, "a"), (1, "b"), (-1, "a+b+1-p")])


def beta_values(rows: np.ndarray, ctx: FpContext) -> tuple[np.ndarray, np.ndarray]:
    """-a! b!/(a+b+1-p)! at each row (a, b, c) of k = (1,), as `_evaluate`
    returns it: for a, b in [0, p), undefined, so 0, where a+b < p-1."""
    p = ctx.p
    _width(rows, 1, "beta")
    _require(rows, [((rows[:, :2] >= 0).all(axis=1) & (rows[:, :2] < p).all(axis=1),
                     lambda a, b, _: f"a={a}, b={b} must lie in [0, {p})")])
    return _evaluate(_beta_table(p), rows, p)


@lru_cache(maxsize=64)
def _dyson_table(k: int, p: int) -> _Table:
    return _table(0, 1, [(0, 0, 0, 0, k), (0, 0, 0, 0, 1)], [(1, "kc"), (-k, "c")])


def dyson_values(k: int, rows: np.ndarray, ctx: FpContext) -> tuple[np.ndarray, np.ndarray]:
    """(kc)!/(c!)^k, the constant term of prod (1-x_i/x_j)^c over i != j,
    at each row (a, b, c) of the one group k, as `_evaluate` returns it."""
    _width(rows, 1, "dyson")
    _require(rows, [((rows[:, -1] >= 1) & (k >= 1),
                     lambda *row: f"need k, c >= 1, got k={k}, c={row[-1]}")])
    return _evaluate(_dyson_table(k, ctx.p), rows, ctx.p)


@lru_cache(maxsize=64)
def _induction_table(parts: tuple[int, ...], p: int) -> _Table:
    kn, before = parts[-1], parts[-2]
    # the sign's exponent b_n k_n + c k_n(k_n-1)/2 at b_n = (k_{n-1}-k_n+1)c - 1
    return _table((-kn, 0, 0, 0, kn * (before - kn + 1) + kn * (kn - 1) // 2), len(parts),
                  [(0, 0, 0, 0, kn), (0, 0, 0, 0, 1)], [(1, "k_n c"), (-kn, "c")])


def induction_values(k: KComposition, rows: np.ndarray,
                     ctx: FpContext) -> tuple[np.ndarray, np.ndarray]:
    """(-1)^{b_n k_n + c k_n(k_n-1)/2} (k_n c)!/(c!)^{k_n}, relating the
    n-group integral at b_n = (k_{n-1}-k_n+1)c - 1 to the (n-1)-group one,
    at each row (a, b_1, ..., b_n, c), as `_evaluate` returns it."""
    if k.n < 2:
        raise PreconditionViolation("induction factor needs n >= 2")
    _width(rows, k.n, "composition")
    _require(rows, [(rows[:, -1] >= 1, lambda *_: "c must be positive")])
    return _evaluate(_induction_table(k.parts, ctx.p), rows, ctx.p)


def _two_groups(k1: int, k2: int, n: int) -> None:
    """The two-group forms' precondition: k1 > k2 > 0, and b of length n = 2."""
    if not k1 > k2 > 0:
        raise PreconditionViolation(f"need k1 > k2 > 0, got ({k1}, {k2})")
    if n != 2:
        raise PreconditionViolation("takes b = (b1, b2)")


@lru_cache(maxsize=64)
def _ratio_table(k1: int, k2: int, idx: int, shift: int, p: int) -> _Table:
    """B1 (idx 0) or B2 (idx 1), or with shift = 1 the b1- or b2-shift
    factor: per ratio, its numerator, then its denominator.  In the forms,
    b1 is the b-range 0..1, b2 is 1..2 and b1 + b2 is 0..2."""
    name = f"b{idx + 1}-shift" if shift else f"B{idx + 1}"
    ratios = []  # (numerator form, denominator form, label)
    if idx == 0:
        ratios += [((shift * (1 - p), 1, 0, 1, i + k1 - 2), (0, 0, 0, 1, i - 1),
                    f"first product at i={i}") for i in range(1, k1 - k2 + 1)]
        ratios += [((shift * (2 - p), 1, 0, 2, i + k1 - 3), (shift, 0, 0, 2, i - 2),
                    f"second product at i={i}") for i in range(1, k2 + 1)]
    elif idx == 1:
        for i in range(1, k2 + 1):
            ratios += [((shift, 0, 1, 2, i + k2 - k1 - 2), (0, 0, 1, 2, i - 1),
                        f"first ratio at i={i}"),
                       ((shift * (2 - p), 1, 0, 2, i + k1 - 3), (shift, 0, 0, 2, i - 2),
                        f"second ratio at i={i}")]
    else:
        raise PreconditionViolation(f"idx must be 0 (b1) or 1 (b2), got {idx}")
    return _table(0, 2, [form for num, den, _ in ratios for form in (num, den)],
                  [(e, f"{side} {name} {label}") for _, _, label in ratios
                   for e, side in ((1, "numerator"), (-1, "denominator"))], ratio=True)


def b_factor_values(k1: int, k2: int, idx: int, rows: np.ndarray,
                    ctx: FpContext) -> tuple[np.ndarray, np.ndarray]:
    """The contiguous-relation factor B1 (idx 0) or B2 (idx 1), idx being
    the index of the lowered b as in `admissible.lowered`, at each row
    (a, b1, b2, c), as `_evaluate` returns it."""
    _two_groups(k1, k2, rows.shape[1] - 2)
    return _evaluate(_ratio_table(k1, k2, idx, 0, ctx.p), rows, ctx.p)


def shift_factor_values(k1: int, k2: int, idx: int, rows: np.ndarray,
                        ctx: FpContext) -> tuple[np.ndarray, np.ndarray]:
    """The factor F with S at b_{idx+1} - 1 = F * S, at each row
    (a, b1, b2, c), as `_evaluate` returns it."""
    _two_groups(k1, k2, rows.shape[1] - 2)
    return _evaluate(_ratio_table(k1, k2, idx, 1, ctx.p), rows, ctx.p)


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
    return _table(k1 + k2, 2, forms, terms)


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
