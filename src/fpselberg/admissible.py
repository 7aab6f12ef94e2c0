"""Admissibility systems, parameter enumeration, and decrement paths.

A point (a, b, c) in Z_{>0}^{n+2} is admissible for a strictly decreasing
composition k when a + (k_1 - 1)c < p - 1 and every factorial argument of the
closed-form product lies in [0, p).  At fixed (a, c) the equivalent
inequality system is one table (`_b_system`) of bounds on contiguous sums
b_s + ... + b_r, and the conditions on a and c alone are its entries over
the empty sum.  The domain of the I_{0,0,0} closed form (Theorem I) is a
table of the same shape (`_i000_system`), written from the theorem's
factorial arguments.  `is_admissible` and `is_admissible_I` report the
entries a point violates, e.g. "ine1[s=1,r=2,upper]" or "ine14[a]".  One
walker (`_walk`) enumerates both domains as int64 rows (a, b_1, ..., b_n, c),
picking each b_r for all prefixes at once from the intervals the table
leaves, so it emits the points of the domain and no others.  What it emits
is re-checked, and a point that fails raises InvariantViolation:
`admissible_rows` compares all rows with their tables in one vector pass,
and `i000_closed_forms` asks `formulas.i000_rhs_values`, which builds its
arguments apart from that table, in one batch call whether the closed form
is defined at rows of `i000_rows`; `enumerate_admissible_I` asks it at
every row, and the `i000` campaign at the rows it samples.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate, chain
from math import inf

import numpy as np

from . import formulas
from .errors import InvariantViolation, NoPath, PreconditionViolation
from .gf import FpContext
from .integrals import KComposition, ParamPoint, row_points


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
    """The identifiers of the entries of `system` over the empty sum, the
    conditions on a and c alone, that fail."""
    return [name for name, _, r, lo, hi in system if r == 0 and not lo <= 0 <= hi]


def _report(system, b: tuple[int, ...]) -> AdmissibilityReport:
    """The entries of `system` (a `_b_system` or `_i000_system` table) that
    b violates, in table order, with one "positivity" however many trip it;
    an entry over the empty sum is evaluated at 0."""
    sums = (0, *accumulate(b))  # sums[r] = b_1 + ... + b_r
    bad = tuple(dict.fromkeys(name for name, s, r, lo, hi in system
                              if not lo <= sums[r] - sums[s - 1] <= hi))
    return AdmissibilityReport(not bad, bad)


def is_admissible(k: KComposition, pt: ParamPoint, ctx: FpContext) -> AdmissibilityReport:
    """Check the full inequality system, the `_b_system` table, for a
    strictly decreasing k."""
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


def _outside(parts: tuple[int, ...], p: int, rows: np.ndarray) -> np.ndarray:
    """Per row (a, b_1, ..., b_n, c), whether it breaks an entry of its own
    `_b_system` table; an entry over the empty sum is compared with 0."""
    if not len(rows):
        return np.zeros(0, dtype=bool)
    a, c = rows[:, 0], rows[:, -1]
    _, first, which = np.unique(a * (c.max() - c.min() + 1) + c,  # one integer per (a, c)
                                return_index=True, return_inverse=True)
    s, r, lo, hi = _bounds([_b_system(parts, *ac, p) for ac in rows[first][:, [0, -1]].tolist()])
    sums = np.zeros((len(rows), rows.shape[1] - 1), dtype=np.int64)
    np.cumsum(rows[:, 1:-1], axis=1, out=sums[:, 1:])
    between = sums[:, r] - sums[:, s - 1]
    return ((between < lo[which]) | (between > hi[which])).any(axis=1)


def admissible_rows(k: KComposition, ctx: FpContext) -> np.ndarray:
    """All admissible points, as int64 rows (a, b_1, ..., b_n, c) in
    lexicographic order, re-checked against their tables in one vector
    pass; a failure is a fault of the walk and raises InvariantViolation
    naming what `is_admissible` reports for the first failing row."""
    _require_strict(k)
    rows = _walk(lambda a, c: _b_system(k.parts, a, c, ctx.p), k.n, ctx.p)
    bad = rows[_outside(k.parts, ctx.p, rows)]
    if len(bad):
        pt, = row_points(bad[:1])
        raise InvariantViolation(
            f"enumerated point {pt} violates {is_admissible(k, pt, ctx).violated}")
    return rows


def enumerate_admissible(k: KComposition, ctx: FpContext) -> list[ParamPoint]:
    """The points of `admissible_rows`."""
    return row_points(admissible_rows(k, ctx))


def distinguished_point(k: KComposition, a: int, c: int, ctx: FpContext) -> ParamPoint:
    """(a, p-1-(a+(k_1-1)c), (k_1-k_2+1)c-1, ..., (k_{n-1}-k_n+1)c-1, c)."""
    _require_strict(k)
    p = ctx.p
    failed = tuple(dict.fromkeys(_failed_ac(_b_system(k.parts, a, c, p))))
    if failed:
        raise PreconditionViolation(f"(a, c) = ({a}, {c}) violates {failed}")
    b = (p - 1 - (a + (k.part(1) - 1) * c),)
    b += tuple((k.part(i - 1) - k.part(i) + 1) * c - 1 for i in range(2, k.n + 1))
    pt = ParamPoint(a, b, c)
    report = is_admissible(k, pt, ctx)
    if not report.admissible:
        raise InvariantViolation(f"distinguished point {pt} violates {report.violated}")
    return pt


def lowered(pt: ParamPoint, idx: int) -> ParamPoint:
    """pt with b_{idx+1} one lower."""
    return ParamPoint(pt.a, pt.b[:idx] + (pt.b[idx] - 1,) + pt.b[idx + 1:], pt.c)


def decrement_path(k: KComposition, frm: ParamPoint, ctx: FpContext) -> list[tuple[int, ParamPoint]]:
    """Unit b-decrements from `frm` down to the distinguished point.

    Each step is (index of the decremented b, resulting point); every
    intermediate point is admissible.  Strategy: largest slack above the
    floor first, ties to the smallest index; a dead end raises NoPath since
    the admissible region is expected to be decrement-connected.
    """
    _require_strict(k)
    if not is_admissible(k, frm, ctx):
        raise PreconditionViolation(f"{frm} is not admissible")
    target = distinguished_point(k, frm.a, frm.c, ctx)
    path: list[tuple[int, ParamPoint]] = []
    cur = frm
    while cur.b != target.b:
        slacks = [(cur.b[i] - target.b[i], i) for i in range(k.n)]
        candidates = sorted((-s, i) for s, i in slacks if s > 0)
        if any(s < 0 for s, _ in slacks) or not candidates:
            raise NoPath(f"{cur} sits below the distinguished point {target}")
        for _, i in candidates:
            nxt = lowered(cur, i)
            if is_admissible(k, nxt, ctx):
                path.append((i, nxt))
                cur = nxt
                break
        else:
            raise NoPath(f"no admissible unit decrement from {cur} toward {target}")
    return path


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
    if not k1 > k2 > 0:
        raise PreconditionViolation(f"need k1 > k2 > 0, got ({k1}, {k2})")
    p = ctx.p
    return _walk(lambda a, c: _i000_system(k1, k2, a, c, p), 2, p)


def i000_closed_forms(k1: int, k2: int, rows: np.ndarray, ctx: FpContext) -> np.ndarray:
    """`formulas.i000_rhs_values` at rows of `i000_rows`, in one batch call.
    The table and the closed form build their arguments apart, so a row
    where the closed form is undefined is a fault of the walk and raises
    InvariantViolation, naming the first such row and its undefined term."""
    values, first = formulas.i000_rhs_values(k1, k2, rows, ctx)
    undefined = np.flatnonzero(first >= 0)
    if len(undefined):
        t = int(undefined[0])
        pt, = row_points(rows[t:t + 1])
        error = formulas._failure(formulas._i000_table(k1, k2, ctx.p), rows[t], int(first[t]),
                                  ctx.p)
        raise InvariantViolation(f"enumerated point {pt} has no I_000 closed form: {error}")
    return values


def enumerate_admissible_I(k1: int, k2: int, ctx: FpContext) -> list[ParamPoint]:
    """The points of `i000_rows`, re-checked by `i000_closed_forms`."""
    rows = i000_rows(k1, k2, ctx)
    i000_closed_forms(k1, k2, rows, ctx)
    return row_points(rows)
