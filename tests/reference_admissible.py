"""The I_{0,0,0} domain as it was first enumerated: a filter over the whole
(a, b1, b2, c) box that asks `formulas.i000_rhs` at every candidate whether
the closed form is defined.

Reference for tests/test_admissible.py, which requires the interval walk of
`fpselberg.admissible.enumerate_admissible_I` to give the same point list.
"""

from fpselberg import formulas
from fpselberg.gf import FpContext
from fpselberg.integrals import ParamPoint


def in_domain_I(k1: int, k2: int, pt: ParamPoint, ctx: FpContext) -> bool:
    """a, b_1, b_2, c >= 1, a+(k1-1)c < p, and `formulas.i000_rhs` defined."""
    return (min(pt.a, pt.c, *pt.b) >= 1 and pt.a + (k1 - 1) * pt.c < ctx.p
            and formulas.i000_rhs(k1, k2, pt, ctx).ok)


def enumerate_admissible_I(k1: int, k2: int, ctx: FpContext) -> list[ParamPoint]:
    """All points in the I_{0,0,0} domain, lexicographic in (a, b1, b2, c)."""
    p = ctx.p
    out: list[ParamPoint] = []
    for a in range(1, p):
        for b1 in range(1, p):
            for b2 in range(1, p):
                for c in range(1, (p - 1) // k1 + 1):
                    if a + (k1 - 1) * c >= p:
                        break  # a+(k1-1)c < p fails from here on
                    pt = ParamPoint(a, (b1, b2), c)
                    if in_domain_I(k1, k2, pt, ctx):
                        out.append(pt)
    return out
