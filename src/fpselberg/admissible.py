"""Admissibility systems, parameter enumeration, and decrement paths.

A point (a, b, c) in Z_{>0}^{n+2} is admissible for a strictly decreasing
composition k when a + (k_1 - 1)c < p - 1 and every factorial argument of the
closed-form product lies in [0, p).  At fixed (a, c) the equivalent
inequality system is one table (`_b_system`) of bounds on contiguous sums
b_s + ... + b_r, and the conditions on a and c alone are its entries over
the empty sum.  The domain of the I_{0,0,0} closed form (Theorem I) is a
table of the same shape (`_i000_system`), written from the theorem's
factorial arguments.  One evaluator (`_broken`) flags the entries that
int64 rows (a, b_1, ..., b_n, c) break: `is_admissible` and
`is_admissible_I` report a point's, e.g. "ine1[s=1,r=2,upper]".  One walker
(`_walk`) enumerates both domains as rows, picking each b_r for all
prefixes at once from the intervals the table leaves; `admissible_rows`
re-checks its rows in one vector pass, `i000_closed_forms` in one batch
call of `formulas.i000_rhs_values`, which builds its arguments apart from
the table, and a failure raises InvariantViolation.  `distinguished_rows`
(one formula) and `decrement_edges` (every unit b-decrement path at once,
one vector step at a time) have `distinguished_point` and `decrement_path`
as their batches of one.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain
from math import inf

import numpy as np

from . import formulas
from .errors import InvariantViolation, NoPath, PreconditionViolation, raise_first
from .gf import FpContext
from .integrals import KComposition, ParamPoint, point_rows, row_point, row_points


@dataclass(frozen=True)
class AdmissibilityReport:
    admissible: bool
    violated: tuple[str, ...] = ()

    def __post_init__(self):
        if self.admissible != (not self.violated):
            raise PreconditionViolation("admissible must match violated being empty")
        object.__setattr__(self, "violated", tuple(self.violated))

    def __bool__(self):
        return self.admissible


def _require_strict(k: KComposition):
    if not k.is_strictly_decreasing():
        raise PreconditionViolation(f"composition {k.parts} must be strictly decreasing")


@lru_cache(maxsize=1024)
def _b_system(parts: tuple[int, ...], a: int, c: int,
              p: int) -> tuple[tuple[str, int, int, float, float], ...]:
    """The inequality system of k = `parts` at fixed (a, c).

    Entry (identifier, s, r, lo, hi) means lo <= b_s + ... + b_r <= hi, with
    -inf or inf for an open side; an entry with (s, r) = (1, 0) bounds the
    empty sum, 0, so it is a condition on a and c alone.  In report order:
    a, c >= 1 and b_i >= 1 (all reported as "positivity"), ine1 for every
    s <= r, ine2 for every 2 <= s <= r, ine13 (s = 1, a moved into the
    constants) for every r, ine14[a] (a + (k_1-1)c < p-1), ine14[b1], and
    ine14[kc] (0 < k_1 c < p) last.
    """
    n = len(parts)
    kp = (0,) + parts + (0,)  # kp[i] = k_i, with k_0 = k_{n+1} = 0
    system = [("positivity", 1, 0, 1 - a, inf), ("positivity", 1, 0, 1 - c, inf)]
    system += [("positivity", i, i, 1, inf) for i in range(1, n + 1)]
    for s in range(1, n + 1):
        for r in range(s, n + 1):
            system += [(f"ine1[s={s},r={r},lower]", s, r, (r - s) * (c - 1), inf),
                       (f"ine1[s={s},r={r},upper]", s, r, -inf,
                        p - 1 - (r - s) - (kp[r] - kp[r + 1] + s - r - 1) * c)]
    for s in range(2, n + 1):
        for r in range(s, n + 1):
            ks = kp[s] - kp[s - 1]
            system += [(f"ine2[s={s},r={r},lower]", s, r,
                        -(r - s + 1) - (s - r + ks - 1) * c, inf),
                       (f"ine2[s={s},r={r},upper]", s, r, -inf,
                        p - 1 - (r - s + 1) - (s - r + kp[r] - kp[r + 1] + ks - 2) * c)]
    for r in range(1, n + 1):
        system += [(f"ine13[r={r},lower]", 1, r, p - r - a - (kp[1] - r) * c, inf),
                   (f"ine13[r={r},upper]", 1, r, -inf,
                    2 * p - 1 - r - a - (kp[r] - kp[r + 1] + kp[1] - r - 1) * c)]
    system += [("ine14[a]", 1, 0, -inf, p - 2 - (a + (kp[1] - 1) * c)),
               ("ine14[b1]", 1, 1, p - 1 - (a + (kp[1] - 1) * c), inf),
               ("ine14[kc]", 1, 0, kp[1] * c - (p - 1), kp[1] * c - 1)]
    return tuple(system)


def _failed_ac(system) -> list[str]:
    """The names of the failing entries of `system` on a and c alone."""
    return [name for name, _, r, lo, hi in system if r == 0 and not lo <= 0 <= hi]


def _report(system, b: tuple[int, ...]) -> AdmissibilityReport:
    """`_broken`'s flags at the row (0, *b, 0) by name, in table order, "positivity" once."""
    flags = _broken(_table_bounds(system), np.array((0, *b, 0), dtype=np.int64))[0]
    bad = tuple(dict.fromkeys(system[j][0] for j in np.flatnonzero(flags).tolist()))
    return AdmissibilityReport(not bad, bad)


def is_admissible(k: KComposition, pt: ParamPoint, ctx: FpContext) -> AdmissibilityReport:
    """The entries of the `_b_system` table that pt violates (k strictly decreasing)."""
    _require_strict(k)
    if pt.n != k.n:
        raise PreconditionViolation(f"b has length {pt.n}, composition has n={k.n}")
    return _report(_b_system(k.parts, pt.a, pt.c, ctx.p), pt.b)


def _ac_tables(system: Callable[[int, int], tuple], p: int) -> list[tuple[int, int, tuple]]:
    """(a, c, system(a, c)) for each (a, c) in [1, p)^2 whose entries over
    the empty sum hold, in lexicographic order.  Each such entry that can
    fail caps a nonnegative combination of a and c, so one failing c ends
    the run of c."""
    out = []
    for a in range(1, p):
        for c in range(1, p):
            table = system(a, c)
            if _failed_ac(table):
                break
            out.append((a, c, table))
    return out


_OPEN = 2**62  # an open side as an int64 bound, beyond every sum a walk or a re-check forms


def _bounds(tables: list[tuple]) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(s, r, lo, hi) of tables of one shape: s and r per entry, and lo and
    hi as int64 arrays with one row per table."""
    _, s, r, lo, hi = zip(*chain.from_iterable(tables))
    shape = (len(tables), len(tables[0]))
    lo, hi = (np.array(side, dtype=float).clip(-_OPEN, _OPEN).astype(np.int64).reshape(shape)
              for side in (lo, hi))
    return np.array(s[:shape[1]]), np.array(r[:shape[1]]), lo, hi


_table_bounds = lru_cache(maxsize=1024)(lambda system: _bounds([system]))  # `_report`'s, kept


def _spread(low: np.ndarray, high: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Every integer of every interval [low[t], high[t]], as (t, integer)
    arrays, t ascending and the integers ascending within each t."""
    counts = np.maximum(high - low + 1, 0)
    which = np.repeat(np.arange(len(counts)), counts)
    return which, low[which] + np.arange(len(which)) - (np.cumsum(counts) - counts)[which]


def _walk(system: Callable[[int, int], tuple], n: int, p: int) -> np.ndarray:
    """The domain whose table at (a, c) is `system(a, c)`, as int64 rows
    (a, b_1, ..., b_n, c) in lexicographic order.  b_r is picked for every
    prefix of every (a, c) at once, from the intersection of the intervals
    that the entries ending at r leave it; b_r >= 1 and an upper entry on
    b_r alone (ine1[s=r,r=r,upper]; thmI[b1+(i-1)c,i=1,upper] and
    thmI[b2+(i-1)c,i=1,upper]) make it finite."""
    pairs = _ac_tables(system, p)
    if not pairs:
        return np.empty((0, n + 2), dtype=np.int64)
    s, r, lo, hi = _bounds([table for _, _, table in pairs])
    which = np.arange(len(pairs))  # per prefix, its (a, c) as an index into pairs
    sums = np.zeros((len(pairs), 1), dtype=np.int64)  # sums[:, j] = b_1 + ... + b_j
    for end in range(1, n + 1):
        ends = [j for j, r_j in enumerate(r.tolist()) if r_j == end]
        before = sums[:, -1:] - np.take(sums, s[ends] - 1, axis=1)  # b_s + ... + b_{end-1}
        low = (np.take(lo, ends, axis=1)[which] - before).max(axis=1)
        prefix, b = _spread(low, (np.take(hi, ends, axis=1)[which] - before).min(axis=1))
        which, sums = which[prefix], np.column_stack([sums[prefix], sums[prefix, -1] + b])
    ac = np.array([(a, c) for a, c, _ in pairs], dtype=np.int64)[which]
    rows = np.column_stack([ac[:, 0], np.diff(sums, axis=1), ac[:, 1]])
    return rows[np.lexsort(rows.T[::-1])]


def _row_bounds(parts: tuple[int, ...], p: int, rows: np.ndarray) -> tuple:
    """`_bounds` of the `_b_system` tables at the rows' own (a, c), lo and hi
    one row per row; the table at (1, 1) gives an empty batch its shape."""
    a, c = rows[:, 0], rows[:, -1]
    _, first, which = np.unique(a * (c.max(initial=0) - c.min(initial=0) + 1) + c,  # per (a, c)
                                return_index=True, return_inverse=True)
    pairs = rows[first][:, [0, -1]].tolist() or [(1, 1)]
    s, r, lo, hi = _bounds([_b_system(parts, *ac, p) for ac in pairs])
    return s, r, lo[which], hi[which]


def _broken(bounds: tuple, rows: np.ndarray) -> np.ndarray:
    """Per row (a, ..., c) on the last axis, whether it breaks each entry (s, r, lo, hi)."""
    s, r, lo, hi = bounds
    sums = rows[..., :-1].cumsum(axis=-1) - rows[..., :1]  # sums[..., j] = b_1 + ... + b_j
    between = sums[..., r] - sums[..., s - 1]
    return (between < lo) | (between > hi)


def _outside(parts: tuple[int, ...], p: int, rows: np.ndarray) -> np.ndarray:
    """Per row, whether it breaks an entry of its own `_b_system` table."""
    return _broken(_row_bounds(parts, p, rows), rows).any(axis=1)


def admissible_rows(k: KComposition, ctx: FpContext) -> np.ndarray:
    """All admissible points, as int64 rows (a, b_1, ..., b_n, c) in
    lexicographic order, re-checked against their tables in one vector
    pass; a failure is a fault of the walk and raises InvariantViolation
    naming what `is_admissible` reports for the first failing row."""
    _require_strict(k)
    rows = _walk(lambda a, c: _b_system(k.parts, a, c, ctx.p), k.n, ctx.p)
    raise_first(rows, [(_outside(k.parts, ctx.p, rows), lambda *row: InvariantViolation(
        f"enumerated point {row_point(row)} violates "
        f"{is_admissible(k, row_point(row), ctx).violated}"))])
    return rows


def enumerate_admissible(k: KComposition, ctx: FpContext) -> list[ParamPoint]:
    """The points of `admissible_rows`."""
    return row_points(admissible_rows(k, ctx))


def distinguished_rows(k: KComposition, ac: np.ndarray, ctx: FpContext) -> np.ndarray:
    """(a, p-1-(a+(k_1-1)c), (k_1-k_2+1)c-1, ..., (k_{n-1}-k_n+1)c-1, c) per
    row (a, c) of ac.  The first row that breaks its table raises
    PreconditionViolation if an a/c entry fails, else InvariantViolation."""
    _require_strict(k)
    (a, c), parts = np.asarray(ac, dtype=np.int64).reshape(-1, 2).T, np.array(k.parts)
    rows = np.column_stack([a, ctx.p - 1 - a - (parts[0] - 1) * c,
                            (parts[:-1] - parts[1:] + 1) * c[:, None] - 1, c])

    def error(*row):  # is_admissible flags what `_outside` flags: one evaluator
        a, c = row[0], row[-1]
        if failed := tuple(dict.fromkeys(_failed_ac(_b_system(k.parts, a, c, ctx.p)))):
            return PreconditionViolation(f"(a, c) = ({a}, {c}) violates {failed}")
        return InvariantViolation(f"distinguished point {row_point(row)} violates "
                                  f"{is_admissible(k, row_point(row), ctx).violated}")
    raise_first(rows, [(_outside(k.parts, ctx.p, rows), error)])
    return rows


def distinguished_point(k: KComposition, a: int, c: int, ctx: FpContext) -> ParamPoint:
    """The point of `distinguished_rows` at (a, c)."""
    return row_points(distinguished_rows(k, np.array([(a, c)]), ctx))[0]


def decrement_edges(k: KComposition, rows: np.ndarray, ctx: FpContext) -> np.ndarray:
    """Every edge of the unit b-decrement paths from admissible rows down to
    their distinguished points, as int64 rows (a, b_1, ..., b_n, c, index of
    the lowered b), step by step, in row order within a step.  Each step
    takes the admissible lower end of largest slack, ties to the smallest
    index, checked against the row's table, read once as a and c stay put.
    A dead end raises NoPath: the domain should be decrement-connected."""
    target = distinguished_rows(k, rows[:, [0, -1]], ctx)
    s, r, lo, hi = _row_bounds(k.parts, ctx.p, rows)
    steps, edges = np.eye(k.n + 2, dtype=np.int64)[1:-1], [np.empty((0, k.n + 3), dtype=np.int64)]
    dead = lambda text: lambda *ends: NoPath(text.format(*row_points(np.reshape(ends, (2, -1)))))
    while len(rows):
        live = (rows != target).any(axis=1)
        rows, target, lo, hi = (x[live] for x in (rows, target, lo, hi))
        slack = rows[:, 1:-1] - target[:, 1:-1]
        fits = ~_broken((s, r, lo[:, None], hi[:, None]), rows[:, None] - steps).any(axis=2)
        rank = np.where((slack > 0) & fits, slack * k.n - np.arange(k.n), -1)
        raise_first(np.column_stack([rows, target]), [
            ((slack < 0).any(axis=1), dead("{} sits below the distinguished point {}")),
            ((rank < 0).all(axis=1), dead("no admissible unit decrement from {} toward {}"))])
        edges.append(np.column_stack([rows, rank.argmax(axis=1)]))
        rows = rows - steps[edges[-1][:, -1]]  # steps[i] lowers b_{i+1}
    return np.concatenate(edges)


def decrement_path(k: KComposition, frm: ParamPoint, ctx: FpContext) -> list[tuple[int, ParamPoint]]:
    """The steps (index of the lowered b, lower end) of `decrement_edges`."""
    if not is_admissible(k, frm, ctx):
        raise PreconditionViolation(f"{frm} is not admissible")
    edges = decrement_edges(k, point_rows([frm], k.n), ctx)
    lows = edges[:, :-1] - np.eye(k.n + 2, dtype=np.int64)[1 + edges[:, -1]]
    return list(zip(edges[:, -1].tolist(), row_points(lows)))


@lru_cache(maxsize=1024)
def _i000_system(k1: int, k2: int, a: int, c: int,
                 p: int) -> tuple[tuple[str, int, int, float, float], ...]:
    """The I_{0,0,0} domain of k = (k1, k2) at fixed (a, c), shaped like
    `_b_system`.

    Theorem I asks every factorial argument of its product to lie in
    [0, p).  Those that involve b are b_s + ... + b_r plus a constant in a
    and c, for (s, r) = (1, 1), (2, 2) or (1, 2); each gives a lower and an
    upper entry, "thmI[<argument>,i=<i>,lower]" and "...,upper]", after a,
    c, b_1, b_2 >= 1 (reported as "positivity").  Those in a and c alone,
    (a+(i-1)c-1)! for i <= k1, (p+(i-k1-1)c-1)! for i <= k2, c! and (ic)!
    for i <= k1, lie in [0, p) exactly when a+(k1-1)c <= p and k1 c <= p-1,
    given a, c >= 1; the last two entries are a+(k1-1)c < p (thmI[a], the
    stricter of the first two) and k1 c < p (thmI[kc]).
    """
    arguments = []  # (argument, s, r, its constant)
    for i in range(1, k1 - k2 + 1):
        arguments += [(f"b1+(i-1)c,i={i}", 1, 1, (i - 1) * c),
                      (f"a+b1+(i+k1-2)c-p,i={i}", 1, 1, a + (i + k1 - 2) * c - p)]
    for i in range(1, k2 + 1):
        arguments += [(f"b2+(i-1)c,i={i}", 2, 2, (i - 1) * c),
                      (f"b2+(i+k2-k1-2)c,i={i}", 2, 2, (i + k2 - k1 - 2) * c),
                      (f"b1+b2+(i-2)c,i={i}", 1, 2, (i - 2) * c),
                      (f"a+b1+b2+(i+k1-3)c-p,i={i}", 1, 2, a + (i + k1 - 3) * c - p)]
    system = [("positivity", 1, 0, 1 - a, inf), ("positivity", 1, 0, 1 - c, inf),
              ("positivity", 1, 1, 1, inf), ("positivity", 2, 2, 1, inf)]
    for argument, s, r, constant in arguments:
        system += [(f"thmI[{argument},lower]", s, r, -constant, inf),
                   (f"thmI[{argument},upper]", s, r, -inf, p - 1 - constant)]
    system += [("thmI[a]", 1, 0, -inf, p - 1 - (a + (k1 - 1) * c)),
               ("thmI[kc]", 1, 0, -inf, p - 1 - k1 * c)]
    return tuple(system)


def is_admissible_I(k1: int, k2: int, pt: ParamPoint, ctx: FpContext) -> AdmissibilityReport:
    """Domain of the I_{0,0,0} closed form: the `_i000_system` table."""
    formulas._two_groups(k1, k2, pt.n)
    return _report(_i000_system(k1, k2, pt.a, pt.c, ctx.p), pt.b)


def i000_rows(k1: int, k2: int, ctx: FpContext) -> np.ndarray:
    """All points in the I_{0,0,0} domain, as int64 rows (a, b1, b2, c) in
    lexicographic order, as walked; `i000_closed_forms` re-checks rows."""
    formulas._two_groups(k1, k2, 2)
    return _walk(lambda a, c: _i000_system(k1, k2, a, c, ctx.p), 2, ctx.p)


def i000_closed_forms(k1: int, k2: int, rows: np.ndarray, ctx: FpContext) -> np.ndarray:
    """`formulas.i000_rhs_values` at rows of `i000_rows`, in one batch call.
    It builds its arguments apart from the table, so an undefined row is a
    fault of the walk: InvariantViolation names the first and its term."""
    values, first = formulas.i000_rhs_values(k1, k2, rows, ctx)
    raise_first(np.column_stack([np.arange(len(first)), first]), [
        (first >= 0, lambda t, term: InvariantViolation(
            f"enumerated point {row_point(rows[t].tolist())} has no I_000 closed form: "
            f"{formulas._failure(formulas._i000_table(k1, k2, ctx.p), rows[t], term, ctx.p)}"))])
    return values


def enumerate_admissible_I(k1: int, k2: int, ctx: FpContext) -> list[ParamPoint]:
    """The points of `i000_rows`, re-checked by `i000_closed_forms`."""
    rows = i000_rows(k1, k2, ctx)
    i000_closed_forms(k1, k2, rows, ctx)
    return row_points(rows)
