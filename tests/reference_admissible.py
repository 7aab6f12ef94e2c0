"""The I_{0,0,0} domain as it was first enumerated: a filter over the whole
(a, b1, b2, c) box that asks `formulas.i000_rhs_values`, in one batch call
over the candidates, whether the closed form is defined at each.

Reference for tests/test_admissible.py, which requires the interval walk of
`fpselberg.admissible.enumerate_admissible_I` to give the same point list.
"""

import numpy as np

from fpselberg import formulas
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
