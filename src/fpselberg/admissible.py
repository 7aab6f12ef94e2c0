"""Admissibility systems, parameter enumeration, and decrement paths.

A point (a, b, c) in Z_{>0}^{n+2} is admissible for a strictly decreasing
composition k when a + (k_1 - 1)c < p - 1 and every factorial argument of the
closed-form product lies in [0, p).  The equivalent explicit inequality
system in (a, b_1, ..., b_n, c) is written once.  Its b-part bounds only
contiguous sums b_s + ... + b_r, so at fixed (a, c) it is one table of
intervals (`_b_system`); the rest are the a/c-only conditions a, c >= 1,
ine14[a] and ine14[kc].  `is_admissible` evaluates both; identifiers in the
report name the violated system block, e.g. "ine1[s=1,r=2,upper]" or
"ine14[b1]".  `enumerate_admissible` loops over a and c and picks b_1, ...,
b_n in turn, each from the intersection of the intervals of the table
entries that end at it (`_b_tuples`), so it emits the admissible points and
no others.  The domain of the I_{0,0,0} closed form (Theorem I) is written
the same way, from the theorem's statement: its factorial arguments in b_1,
b_2 or b_1 + b_2 make a table of the same shape (`_i000_system`), and
those in a and c alone reduce to the conditions thmI[a] and thmI[kc].
`is_admissible_I` evaluates them, and `enumerate_admissible_I` walks the
table with the same `_b_tuples`.  Each enumerator re-checks what it emits
and raises InvariantViolation on a point that fails: `enumerate_admissible`
against its table, `enumerate_admissible_I` by asking `formulas.i000_rhs`,
which builds its arguments apart from that table, whether the closed form
is defined.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate

from . import formulas
from .errors import InvariantViolation, NoPath, PreconditionViolation
from .gf import FpContext
from .integrals import KComposition, ParamPoint


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
              p: int) -> tuple[tuple[str, int, int, int | None, int | None], ...]:
    """The b-part of the inequality system of k = `parts` at fixed (a, c).

    Entry (identifier, s, r, lo, hi) means lo <= b_s + ... + b_r <= hi, with
    None for an open side.  In report order: b_i >= 1 (reported as
    "positivity"), ine1 for every s <= r, ine2 for every 2 <= s <= r, ine13
    (s = 1, a moved into the constants) for every r, and ine14[b1] last.
    """
    n = len(parts)
    kp = (0,) + parts + (0,)  # kp[i] = k_i, with k_0 = k_{n+1} = 0
    system = [("positivity", i, i, 1, None) for i in range(1, n + 1)]
    for s in range(1, n + 1):
        for r in range(s, n + 1):
            system += [(f"ine1[s={s},r={r},lower]", s, r, (r - s) * (c - 1), None),
                       (f"ine1[s={s},r={r},upper]", s, r, None,
                        p - 1 - (r - s) - (kp[r] - kp[r + 1] + s - r - 1) * c)]
    for s in range(2, n + 1):
        for r in range(s, n + 1):
            ks = kp[s] - kp[s - 1]
            system += [(f"ine2[s={s},r={r},lower]", s, r,
                        -(r - s + 1) - (s - r + ks - 1) * c, None),
                       (f"ine2[s={s},r={r},upper]", s, r, None,
                        p - 1 - (r - s + 1) - (s - r + kp[r] - kp[r + 1] + ks - 2) * c)]
    for r in range(1, n + 1):
        system += [(f"ine13[r={r},lower]", 1, r, p - r - a - (kp[1] - r) * c, None),
                   (f"ine13[r={r},upper]", 1, r, None,
                    2 * p - 1 - r - a - (kp[r] - kp[r + 1] + kp[1] - r - 1) * c)]
    system.append(("ine14[b1]", 1, 1, p - 1 - (a + (kp[1] - 1) * c), None))
    return tuple(system)


def _violated(system, b: tuple[int, ...]) -> list[str]:
    """The identifiers of the entries of `system` (a `_b_system` or
    `_i000_system` table) that b violates, in table order."""
    sums = (0, *accumulate(b))  # sums[r] = b_1 + ... + b_r
    return [name for name, s, r, lo, hi in system
            if not (lo is None or lo <= sums[r] - sums[s - 1])
            or not (hi is None or sums[r] - sums[s - 1] <= hi)]


def is_admissible(k: KComposition, pt: ParamPoint, ctx: FpContext) -> AdmissibilityReport:
    """Check the full inequality system for a strictly decreasing k: the
    `_b_system` entries, plus a, c >= 1, ine14[a] and ine14[kc]."""
    _require_strict(k)
    if pt.n != k.n:
        raise PreconditionViolation(f"b has length {pt.n}, composition has n={k.n}")
    a, c, p, k1 = pt.a, pt.c, ctx.p, k.part(1)
    bad = _violated(_b_system(k.parts, a, c, p), pt.b)
    if a < 1 or c < 1:
        bad.insert(0, "positivity")
    if not a + (k1 - 1) * c < p - 1:  # reported before ine14[b1], the table's last entry
        bad.insert(len(bad) - (bad[-1:] == ["ine14[b1]"]), "ine14[a]")
    if not 0 < k1 * c < p:
        bad.append("ine14[kc]")
    bad = tuple(dict.fromkeys(bad))  # one "positivity", however many variables trip it
    return AdmissibilityReport(not bad, bad)


def _b_tuples(system, n: int) -> list[tuple[int, ...]]:
    """Every (b_1, ..., b_n) within all entries of `system` (a `_b_system`
    or `_i000_system` table), in lexicographic order.  b_r is picked after
    b_1, ..., b_{r-1}: each entry ending at r leaves it an interval, and it
    runs over their intersection, which is finite by b_r >= 1 and an upper
    entry on b_r alone (ine1[s=r,r=r,upper]; thmI[b1+(i-1)c,i=1,upper] and
    thmI[b2+(i-1)c,i=1,upper])."""
    prefixes: list[tuple[int, ...]] = [()]
    for r in range(1, n + 1):
        ends = [(s, lo, hi) for _, s, end, lo, hi in system if end == r]
        prefixes = [b + (x,) for b in prefixes for x in range(
            max(lo - sum(b[s - 1:]) for s, lo, _ in ends if lo is not None),
            min(hi - sum(b[s - 1:]) for s, _, hi in ends if hi is not None) + 1)]
    return prefixes


def enumerate_admissible(k: KComposition, ctx: FpContext,
                         limit: int | None = None) -> list[ParamPoint]:
    """All admissible points, in lexicographic (a, b_1, ..., b_n, c) order.

    a and c run over the a/c-only conditions: c <= (p-1)/k_1 (ine14[kc])
    and a + (k_1-1)c < p-1 (ine14[a]).  At each (a, c), `_b_tuples` walks
    the intervals of the `_b_system` table, which emits exactly the
    admissible b.  Points are collected per a and sorted by (b, c).  With
    `limit`, only the first `limit` points (limit >= 0).  Every returned
    point is re-checked against the a/c-only conditions and the table
    entries; a failure is a fault of the walk and raises InvariantViolation
    naming what `is_admissible` reports.
    """
    _require_strict(k)
    if limit is not None and limit < 0:
        raise PreconditionViolation(f"limit must be at least 0, got {limit}")
    p, k1 = ctx.p, k.part(1)
    out: list[ParamPoint] = []
    for a in range(1, max(p - 1 - (k1 - 1), 1)):
        batch = [(b, c) for c in range(1, (p - 1) // k1 + 1) if a + (k1 - 1) * c < p - 1
                 for b in _b_tuples(_b_system(k.parts, a, c, p), k.n)]
        out += [ParamPoint(a, b, c) for b, c in sorted(batch)]
        if limit is not None and len(out) >= limit:
            out = out[:limit]
            break
    for pt in out:
        a, c = pt.a, pt.c
        if (not (a >= 1 and c >= 1 and a + (k1 - 1) * c < p - 1 and k1 * c < p)
                or _violated(_b_system(k.parts, a, c, p), pt.b)):
            raise InvariantViolation(
                f"enumerated point {pt} violates {is_admissible(k, pt, ctx).violated}")
    return out


def distinguished_point(k: KComposition, a: int, c: int, ctx: FpContext) -> ParamPoint:
    """(a, p-1-(a+(k_1-1)c), (k_1-k_2+1)c-1, ..., (k_{n-1}-k_n+1)c-1, c)."""
    _require_strict(k)
    p = ctx.p
    if a < 1 or c < 1:
        raise PreconditionViolation("a and c must be positive")
    if not 0 < k.part(1) * c <= p - 1:
        raise PreconditionViolation(f"k1*c = {k.part(1) * c} outside (0, p-1]")
    if not a + (k.part(1) - 1) * c < p - 1:
        raise PreconditionViolation(f"a+(k1-1)c = {a + (k.part(1) - 1) * c} >= p-2+1")
    b = (p - 1 - (a + (k.part(1) - 1) * c),)
    b += tuple((k.part(i - 1) - k.part(i) + 1) * c - 1 for i in range(2, k.n + 1))
    pt = ParamPoint(a, b, c)
    report = is_admissible(k, pt, ctx)
    if not report.admissible:
        raise InvariantViolation(f"distinguished point {pt} violates {report.violated}")
    return pt


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
            nxt = ParamPoint(cur.a, cur.b[:i] + (cur.b[i] - 1,) + cur.b[i + 1:], cur.c)
            if is_admissible(k, nxt, ctx):
                path.append((i, nxt))
                cur = nxt
                break
        else:
            raise NoPath(f"no admissible unit decrement from {cur} toward {target}")
    return path


@lru_cache(maxsize=1024)
def _i000_system(k1: int, k2: int, a: int, c: int,
                 p: int) -> tuple[tuple[str, int, int, int | None, int | None], ...]:
    """The b-part of the I_{0,0,0} domain of k = (k1, k2) at fixed (a, c),
    shaped like `_b_system`.

    Theorem I asks every factorial argument of its product to lie in
    [0, p).  Those that involve b are b_s + ... + b_r plus a constant in a
    and c, for (s, r) = (1, 1), (2, 2) or (1, 2); each gives a lower and an
    upper entry, "thmI[<argument>,i=<i>,lower]" and "...,upper]", after b_1,
    b_2 >= 1 (reported as "positivity").
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
    system = [("positivity", 1, 1, 1, None), ("positivity", 2, 2, 1, None)]
    for argument, s, r, constant in arguments:
        system += [(f"thmI[{argument},lower]", s, r, -constant, None),
                   (f"thmI[{argument},upper]", s, r, None, p - 1 - constant)]
    return tuple(system)


def is_admissible_I(k1: int, k2: int, pt: ParamPoint, ctx: FpContext) -> AdmissibilityReport:
    """Domain of the I_{0,0,0} closed form: a, c >= 1, the `_i000_system`
    entries, a+(k1-1)c < p (thmI[a]) and k1 c < p (thmI[kc]).

    The factorial arguments in a and c alone, (a+(i-1)c-1)! for i <= k1,
    (p+(i-k1-1)c-1)! for i <= k2, c! and (ic)! for i <= k1, lie in [0, p)
    exactly when a+(k1-1)c <= p and k1 c <= p-1, given a, c >= 1; thmI[a]
    is the stricter of the first two.  "positivity" is reported first,
    then the table's entries in order, then thmI[a] and thmI[kc].
    """
    if not k1 > k2 > 0:
        raise PreconditionViolation(f"need k1 > k2 > 0, got ({k1}, {k2})")
    if pt.n != 2:
        raise PreconditionViolation("takes b = (b1, b2)")
    a, c, p = pt.a, pt.c, ctx.p
    bad = _violated(_i000_system(k1, k2, a, c, p), pt.b)
    if a < 1 or c < 1:
        bad.insert(0, "positivity")
    if not a + (k1 - 1) * c < p:
        bad.append("thmI[a]")
    if not k1 * c < p:
        bad.append("thmI[kc]")
    bad = tuple(dict.fromkeys(bad))  # one "positivity", however many variables trip it
    return AdmissibilityReport(not bad, bad)


def enumerate_admissible_I(k1: int, k2: int, ctx: FpContext) -> list[ParamPoint]:
    """All points in the I_{0,0,0} domain, lexicographic in (a, b1, b2, c).

    a and c run over thmI[a] and thmI[kc]; at each (a, c), `_b_tuples`
    walks the `_i000_system` table.  Every returned point is re-checked by
    `formulas.i000_rhs`, once, and a point where the closed form is
    undefined raises InvariantViolation.
    """
    if not k1 > k2 > 0:
        raise PreconditionViolation(f"need k1 > k2 > 0, got ({k1}, {k2})")
    p = ctx.p
    out: list[ParamPoint] = []
    for a in range(1, p):
        batch = [(b, c) for c in range(1, (p - 1) // k1 + 1) if a + (k1 - 1) * c < p
                 for b in _b_tuples(_i000_system(k1, k2, a, c, p), 2)]
        out += [ParamPoint(a, b, c) for b, c in sorted(batch)]
    for pt in out:
        closed_form = formulas.i000_rhs(k1, k2, pt, ctx)
        if not closed_form.ok:
            raise InvariantViolation(f"enumerated point {pt} has no I_000 closed form: "
                                     f"{closed_form.error}")
    return out
