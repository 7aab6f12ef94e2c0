"""References for tests/test_admissible.py.

The I_{0,0,0} domain as it was first enumerated: a filter over the whole
(a, b1, b2, c) box that asks `formulas.i000_rhs_values`, in one batch call
over the candidates, whether the closed form is defined at each; the
interval walk of `fpselberg.admissible.enumerate_admissible_I` must give the
same point list.  And a decrement path as a scalar greedy walk, one point
at a time, against which the vector walk `admissible.decrement_edges` is
checked.
"""

import numpy as np

from fpselberg import formulas
from fpselberg.admissible import is_admissible
from fpselberg.errors import NoPath
from fpselberg.gf import FpContext
from fpselberg.integrals import ParamPoint


def enumerate_admissible_I(k1: int, k2: int, ctx: FpContext) -> list[ParamPoint]:
    """All points in the I_{0,0,0} domain, lexicographic in (a, b1, b2, c):
    the candidates a, b_1, b_2, c >= 1 with a+(k1-1)c < p where
    `formulas.i000_rhs_values` is defined."""
    p = ctx.p
    candidates = []
    for a in range(1, p):
        for b1 in range(1, p):
            for b2 in range(1, p):
                for c in range(1, (p - 1) // k1 + 1):
                    if a + (k1 - 1) * c >= p:
                        break  # a+(k1-1)c < p fails from here on
                    candidates.append((a, b1, b2, c))
    rows = np.array(candidates, dtype=np.int64).reshape(-1, 4)
    defined = formulas.i000_rhs_values(k1, k2, rows, ctx)[1] < 0
    return [ParamPoint(a, (b1, b2), c) for (a, b1, b2, c), ok in zip(candidates, defined) if ok]


def decrement_path(k, frm: ParamPoint, ctx: FpContext) -> list[tuple[int, ParamPoint]]:
    """The decrement path from the admissible point frm as a scalar greedy
    walk that asks `is_admissible` alone: per step, the candidates b_i above
    the distinguished point's b_i, largest slack first, ties to the smallest
    index, and the first admissible lower end taken.  The distinguished
    point is (a, p-1-(a+(k_1-1)c), (k_1-k_2+1)c-1, ..., c)."""
    parts, (a, c) = k.parts, (frm.a, frm.c)
    target = (ctx.p - 1 - (a + (parts[0] - 1) * c),) + tuple(
        (before - part + 1) * c - 1 for before, part in zip(parts, parts[1:]))
    path, cur = [], frm
    while cur.b != target:
        candidates = sorted((target[i] - cur.b[i], i) for i in range(k.n) if cur.b[i] > target[i])
        for _, i in candidates:
            nxt = ParamPoint(a, cur.b[:i] + (cur.b[i] - 1,) + cur.b[i + 1:], c)
            if is_admissible(k, nxt, ctx):
                path.append((i, nxt))
                cur = nxt
                break
        else:
            raise NoPath(f"no admissible unit decrement from {cur} toward {target}")
    return path
