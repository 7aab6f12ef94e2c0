"""Admissibility systems, parameter enumeration, and decrement paths.

A point (a, b, c) in Z_{>0}^{n+2} is admissible for a strictly decreasing
composition k when a + (k_1 - 1)c < p - 1 and every factorial argument of the
closed-form product lies in [0, p).  `is_admissible` checks the equivalent
explicit inequality system directly; identifiers in the report name the
violated system block, e.g. "ine1[s=1,r=2,upper]" or "ine14[b1]".
`is_admissible_I`, the domain of the I_{0,0,0} closed form, asks
`formulas.i000_rhs` itself whether the closed form is defined.
"""

from __future__ import annotations

from dataclasses import dataclass

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


def is_admissible(k: KComposition, pt: ParamPoint, ctx: FpContext) -> AdmissibilityReport:
    """Check the full inequality system for a strictly decreasing k."""
    _require_strict(k)
    n = k.n
    kp = (0,) + k.parts + (0,)  # kp[i] = k_i, with k_0 = k_{n+1} = 0
    if pt.n != n:
        raise PreconditionViolation(f"b has length {pt.n}, composition has n={n}")
    a, b, c = pt.a, pt.b, pt.c
    p = ctx.p
    bad: list[str] = []
    if a < 1 or c < 1 or any(x < 1 for x in b):
        bad.append("positivity")
    for s in range(1, n + 1):
        for r in range(s, n + 1):
            bsum = sum(b[s - 1:r])
            if not 0 <= (r - s) + bsum + (s - r) * c:
                bad.append(f"ine1[s={s},r={r},lower]")
            if not (r - s) + bsum + (kp[r] - kp[r + 1] + s - r - 1) * c <= p - 1:
                bad.append(f"ine1[s={s},r={r},upper]")
    for s in range(2, n + 1):
        for r in range(s, n + 1):
            bsum = sum(b[s - 1:r])
            base = (r - s + 1) + bsum
            if not 0 <= base + (s - r + kp[s] - kp[s - 1] - 1) * c:
                bad.append(f"ine2[s={s},r={r},lower]")
            if not base + (s - r + kp[r] - kp[r + 1] + kp[s] - kp[s - 1] - 2) * c <= p - 1:
                bad.append(f"ine2[s={s},r={r},upper]")
    for r in range(1, n + 1):
        bsum = sum(b[:r])
        if not p <= r + a + bsum + (kp[1] - r) * c:
            bad.append(f"ine13[r={r},lower]")
        if not r + a + bsum + (kp[r] - kp[r + 1] + kp[1] - r - 1) * c < 2 * p:
            bad.append(f"ine13[r={r},upper]")
    if not a + (kp[1] - 1) * c < p - 1:
        bad.append("ine14[a]")
    if not b[0] >= p - 1 - (a + (kp[1] - 1) * c):
        bad.append("ine14[b1]")
    if not 0 < kp[1] * c < p:
        bad.append("ine14[kc]")
    return AdmissibilityReport(not bad, tuple(bad))


def lower_bounds(k: KComposition, a: int, c: int, ctx: FpContext) -> tuple[int, ...]:
    """Least possible b_i at fixed (a, c): the floor every admissible point sits on."""
    _require_strict(k)
    first = ctx.p - 1 - (a + (k.part(1) - 1) * c)
    rest = [(k.part(i - 1) - k.part(i) + 1) * c - 1 for i in range(2, k.n + 1)]
    return (max(first, 1),) + tuple(max(x, 1) for x in rest)


def enumerate_admissible(k: KComposition, ctx: FpContext,
                         limit: int | None = None) -> list[ParamPoint]:
    """All admissible points, in lexicographic (a, b_1, ..., b_n, c) order.

    The inequality system itself bounds the search: each b_i <= p-1 (from
    the s = r case of the first block), c <= (p-1)/k_1, and
    a <= p-2 - (k_1-1)c.  Points are collected per-a and sorted, so pruning
    by the c-dependent lower bounds cannot disturb the output order.  With
    `limit`, only the first `limit` points (limit >= 0).
    """
    _require_strict(k)
    if limit is not None and limit < 0:
        raise PreconditionViolation(f"limit must be at least 0, got {limit}")
    p = ctx.p
    out: list[ParamPoint] = []
    c_max = (p - 1) // k.part(1)
    for a in range(1, max(p - 1 - (k.part(1) - 1), 1)):
        batch: list[tuple] = []
        for c in range(1, c_max + 1):
            if a + (k.part(1) - 1) * c >= p - 1:
                continue
            lows = lower_bounds(k, a, c, ctx)
            highs = tuple(p - 1 - (k.part(i) - k.part(i + 1) - 1) * c
                          for i in range(1, k.n + 1))
            def rec(i: int, prefix: tuple):
                if i == k.n:
                    pt = ParamPoint(a, prefix, c)
                    if is_admissible(k, pt, ctx):
                        batch.append((prefix, c, pt))
                    return
                for bi in range(lows[i], highs[i] + 1):
                    rec(i + 1, prefix + (bi,))
            rec(0, ())
        batch.sort(key=lambda item: (item[0], item[1]))
        out += [pt for _, _, pt in batch]
        if limit is not None and len(out) >= limit:
            return out[:limit]
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


def is_admissible_I(k1: int, k2: int, pt: ParamPoint, ctx: FpContext) -> AdmissibilityReport:
    """Domain of the I_{0,0,0} closed form: a, b_1, b_2, c >= 1,
    a+(k1-1)c < p, and `formulas.i000_rhs` defined (all of its factorial
    arguments in [0, p)); the last is reported by its first OutOfRange."""
    closed_form = formulas.i000_rhs(k1, k2, pt, ctx)
    bad: list[str] = []
    if pt.a < 1 or pt.c < 1 or min(pt.b) < 1:
        bad.append("positivity")
    if not pt.a + (k1 - 1) * pt.c < ctx.p:
        bad.append("thmI[a]")
    if not closed_form.ok:
        bad.append(f"i000_rhs[{closed_form.error}]")
    return AdmissibilityReport(not bad, tuple(bad))


def enumerate_admissible_I(k1: int, k2: int, ctx: FpContext) -> list[ParamPoint]:
    """All points in the I_{0,0,0} domain, lexicographic in (a, b1, b2, c)."""
    p = ctx.p
    out: list[ParamPoint] = []
    for a in range(1, p):
        for b1 in range(1, p):
            for b2 in range(1, p):
                for c in range(1, (p - 1) // k1 + 1):
                    if a + (k1 - 1) * c >= p:
                        break  # thmI[a] fails from here on
                    pt = ParamPoint(a, (b1, b2), c)
                    if is_admissible_I(k1, k2, pt, ctx):
                        out.append(pt)
    return out
