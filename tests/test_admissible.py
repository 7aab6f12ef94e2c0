import re
from itertools import product

import numpy as np
import pytest

import reference_admissible
from fpselberg import admissible, formulas
from fpselberg.admissible import (AdmissibilityReport, decrement_path,
                                  distinguished_point, enumerate_admissible,
                                  enumerate_admissible_I, is_admissible,
                                  is_admissible_I)
from fpselberg.errors import InvariantViolation, PreconditionViolation
from fpselberg.formulas import r_value
from fpselberg.gf import FpContext
from fpselberg.integrals import KComposition, ParamPoint


def test_report_consistency():
    assert AdmissibilityReport(True)
    assert not AdmissibilityReport(False, ("ine14[a]",))
    with pytest.raises(PreconditionViolation):
        AdmissibilityReport(True, ("ine14[a]",))
    with pytest.raises(PreconditionViolation):
        AdmissibilityReport(False)


def test_requires_strictly_decreasing():
    ctx = FpContext(7)
    with pytest.raises(PreconditionViolation):
        is_admissible(KComposition((2, 2)), ParamPoint(1, (1, 1), 1), ctx)
    with pytest.raises(PreconditionViolation):
        enumerate_admissible(KComposition((1, 1)), ctx)


def test_known_admissible_counts():
    assert len(enumerate_admissible(KComposition((1,)), FpContext(5))) == 36
    assert len(enumerate_admissible(KComposition((2, 1)), FpContext(7))) == 61


def test_enumeration_order():
    ctx = FpContext(5)
    pts = enumerate_admissible(KComposition((1,)), ctx)
    keys = [(pt.a, pt.b, pt.c) for pt in pts]
    assert keys == sorted(keys)


# Full reports: together they trip every identifier family (positivity, ine1 and ine2 lower
# and upper, ine13 lower and upper, ine14[a], ine14[b1], ine14[kc]) for each
# composition, so a renamed, reordered or dropped identifier fails.
PINNED_VIOLATIONS = [
    ((2, 1), 7, (3, (8, 2), 5),
     ("ine1[s=1,r=1,upper]", "ine2[s=2,r=2,lower]", "ine13[r=1,upper]",
      "ine13[r=2,upper]", "ine14[a]", "ine14[kc]")),
    ((2, 1), 7, (2, (1, 0), 3),
     ("positivity", "ine1[s=1,r=2,lower]", "ine2[s=2,r=2,lower]", "ine13[r=2,lower]")),
    ((2, 1), 7, (3, (10, 14), 3),
     ("ine1[s=1,r=1,upper]", "ine1[s=1,r=2,upper]", "ine1[s=2,r=2,upper]",
      "ine2[s=2,r=2,upper]", "ine13[r=1,upper]", "ine13[r=2,upper]", "ine14[a]")),
    ((2, 1), 7, (2, (1, 0), 1),
     ("positivity", "ine2[s=2,r=2,lower]", "ine13[r=1,lower]", "ine13[r=2,lower]",
      "ine14[b1]")),
    ((2, 1), 7, (1, (1, 2), 1), ("ine13[r=1,lower]", "ine13[r=2,lower]", "ine14[b1]")),
    ((2, 1), 11, (2, (5, 5), 3), ()),
    ((3, 2, 1), 11, (5, (16, 7, 22), 4),
     ("ine1[s=1,r=1,upper]", "ine1[s=1,r=2,upper]", "ine1[s=1,r=3,upper]",
      "ine1[s=2,r=3,upper]", "ine1[s=3,r=3,upper]", "ine2[s=2,r=3,upper]",
      "ine2[s=3,r=3,upper]", "ine13[r=1,upper]", "ine13[r=2,upper]",
      "ine13[r=3,upper]", "ine14[a]", "ine14[kc]")),
    ((3, 2, 1), 11, (1, (8, 3, 3), 10),
     ("ine1[s=1,r=3,lower]", "ine1[s=2,r=3,lower]", "ine2[s=2,r=2,lower]",
      "ine2[s=2,r=3,lower]", "ine2[s=3,r=3,lower]", "ine13[r=1,upper]",
      "ine13[r=2,upper]", "ine14[a]", "ine14[kc]")),
    ((3, 2, 1), 11, (20, (3, 0, 18), 10),
     ("positivity", "ine1[s=1,r=2,lower]", "ine1[s=3,r=3,upper]",
      "ine2[s=2,r=2,lower]", "ine2[s=2,r=3,lower]", "ine2[s=3,r=3,lower]",
      "ine13[r=1,upper]", "ine13[r=2,upper]", "ine13[r=3,upper]", "ine14[a]",
      "ine14[kc]")),
    ((3, 2, 1), 11, (0, (3, 7, 16), 2),
     ("positivity", "ine1[s=1,r=3,upper]", "ine1[s=2,r=3,upper]",
      "ine1[s=3,r=3,upper]", "ine2[s=2,r=3,upper]", "ine2[s=3,r=3,upper]",
      "ine13[r=1,lower]", "ine13[r=3,upper]", "ine14[b1]")),
    ((4, 3, 2, 1), 13, (26, (1, 12, 26, 16), 8),
     ("ine1[s=1,r=3,upper]", "ine1[s=1,r=4,upper]", "ine1[s=2,r=3,upper]",
      "ine1[s=2,r=4,upper]", "ine1[s=3,r=3,upper]", "ine1[s=3,r=4,upper]",
      "ine1[s=4,r=4,upper]", "ine2[s=2,r=2,lower]", "ine2[s=2,r=3,upper]",
      "ine2[s=2,r=4,upper]", "ine2[s=3,r=4,upper]", "ine13[r=1,upper]",
      "ine13[r=2,upper]", "ine13[r=3,upper]", "ine13[r=4,upper]", "ine14[a]",
      "ine14[kc]")),
    ((4, 3, 2, 1), 13, (11, (0, 7, 11, 13), 9),
     ("positivity", "ine1[s=1,r=2,lower]", "ine1[s=2,r=4,upper]",
      "ine1[s=3,r=4,upper]", "ine1[s=4,r=4,upper]", "ine2[s=2,r=2,lower]",
      "ine2[s=2,r=3,lower]", "ine2[s=2,r=4,lower]", "ine2[s=3,r=3,lower]",
      "ine2[s=3,r=4,lower]", "ine2[s=4,r=4,lower]", "ine13[r=1,upper]",
      "ine13[r=2,upper]", "ine13[r=3,upper]", "ine13[r=4,upper]", "ine14[a]",
      "ine14[kc]")),
    ((4, 3, 2, 1), 13, (1, (3, 3, 0, 21), 2),
     ("positivity", "ine1[s=1,r=4,upper]", "ine1[s=2,r=4,upper]",
      "ine1[s=3,r=4,upper]", "ine1[s=4,r=4,upper]", "ine2[s=2,r=3,lower]",
      "ine2[s=2,r=4,upper]", "ine2[s=3,r=3,lower]", "ine2[s=3,r=4,upper]",
      "ine2[s=4,r=4,upper]", "ine13[r=1,lower]", "ine13[r=3,lower]",
      "ine13[r=4,upper]", "ine14[b1]")),
]


def test_violation_identifiers():
    for kparts, p, (a, b, c), violated in PINNED_VIOLATIONS:
        rep = is_admissible(KComposition(kparts), ParamPoint(a, b, c), FpContext(p))
        assert rep.violated == violated, (kparts, p, (a, b, c))
        assert bool(rep) == (not violated)


def test_every_enumerated_point_is_admissible():
    ctx = FpContext(7)
    for k in (KComposition((2, 1)), KComposition((3, 1)), KComposition((3, 2))):
        for pt in enumerate_admissible(k, ctx):
            assert is_admissible(k, pt, ctx)


@pytest.mark.parametrize("kparts,p", [
    ((1,), 5), ((2,), 5), ((1,), 7), ((3,), 7),
    ((2, 1), 5), ((2, 1), 7), ((3, 1), 7), ((3, 2), 7),
])
def test_admissible_iff_closed_form_defined(kparts, p):
    # the inequality system is exactly "every factorial argument of the
    # closed form lies in [0,p)" plus a+(k1-1)c < p-1, over positive tuples;
    # the enumeration emits exactly the points of the box that pass it
    ctx = FpContext(p)
    k = KComposition(kparts)
    passed = []
    for a in range(1, 2 * p - 1):
        for b in product(range(1, 2 * p - 1), repeat=k.n):
            for c in range(1, 2 * p - 1):
                pt = ParamPoint(a, b, c)
                direct = bool(is_admissible(k, pt, ctx))
                via_formula = (r_value(k, pt, ctx).ok
                               and a + (k.part(1) - 1) * c < p - 1)
                assert direct == via_formula
                if direct:
                    passed.append(pt)
    assert enumerate_admissible(k, ctx) == passed


@pytest.mark.parametrize("kparts,p", [((3, 2, 1), 7), ((4, 3, 2, 1), 5), ((4, 3, 2, 1), 7),
                                     ((3, 2), 17), ((4, 2, 1), 11)])
def test_enumeration_equals_box_filter(kparts, p):
    # the box a, c, b_i in 1..2p-2 holds every admissible point; an (a, c)
    # that fails ine14[a] or ine14[kc] fails whatever b is, so only the other
    # (a, c) are swept over the whole b box ((4,3,2,1) at p=5 has none)
    ctx = FpContext(p)
    k = KComposition(kparts)
    rng = range(1, 2 * p - 1)
    pairs = [(a, c) for a in rng for c in rng
             if not {"ine14[a]", "ine14[kc]"} & set(
                 is_admissible(k, ParamPoint(a, (1,) * k.n, c), ctx).violated)]
    passed = sorted(((a, b, c) for a, c in pairs for b in product(rng, repeat=k.n)
                     if is_admissible(k, ParamPoint(a, b, c), ctx)))
    assert [(pt.a, pt.b, pt.c) for pt in enumerate_admissible(k, ctx)] == passed


@pytest.mark.parametrize("kparts", [(3, 2, 1), (4, 3, 2, 1)])
def test_enumeration_checks_each_point_once(monkeypatch, kparts):
    # one vector re-check sees every row the walk emits, and is_admissible
    # runs only to name what a failing row violates
    k, ctx = KComposition(kparts), FpContext(11)
    rechecked, reports = [], []
    outside, report, walk = admissible._outside, admissible.is_admissible, admissible._walk

    def recording(parts, p, rows):
        rechecked.append(rows.copy())
        return outside(parts, p, rows)

    def reporting(*args):
        reports.append(args[1])
        return report(*args)

    monkeypatch.setattr(admissible, "_outside", recording)
    monkeypatch.setattr(admissible, "is_admissible", reporting)
    pts = enumerate_admissible(k, ctx)
    assert pts and len(rechecked) == 1 and reports == []
    assert [(a, tuple(b), c) for a, *b, c in rechecked[0].tolist()] == [
        (pt.a, pt.b, pt.c) for pt in pts]
    # a row past the table (b_1 >= p breaks ine1[s=1,r=1,upper]) at the first
    # and at the last (a, c) of the walk
    pairs = admissible._ac_tables(lambda a, c: admissible._b_system(kparts, a, c, ctx.p), ctx.p)
    for a, c, _ in (pairs[0], pairs[-1]):
        planted = ParamPoint(a, (2 * ctx.p,) + (1,) * (k.n - 1), c)
        violated = is_admissible(k, planted, ctx).violated
        assert "ine1[s=1,r=1,upper]" in violated
        monkeypatch.setattr(admissible, "_walk", lambda *args: np.vstack(
            [walk(*args), [planted.a, *planted.b, planted.c]]))
        reports.clear()
        with pytest.raises(InvariantViolation, match=re.escape(f"violates {violated}")):
            enumerate_admissible(k, ctx)
        assert reports == [planted]


def test_enumeration_raises_when_a_point_is_not_admissible(monkeypatch):
    # a walk that also emits one b past the table at one (a, c) is caught by
    # the re-check, which names what is_admissible reports for that point
    k, ctx = KComposition((3, 2, 1)), FpContext(11)
    victim = enumerate_admissible(k, ctx)[100]
    planted = (victim.b[0] + 20,) + victim.b[1:]
    violated = is_admissible(k, ParamPoint(victim.a, planted, victim.c), ctx).violated
    assert violated
    walk = admissible._walk
    monkeypatch.setattr(admissible, "_walk", lambda *args: np.insert(
        walk(*args), 101, [victim.a, *planted, victim.c], axis=0))
    with pytest.raises(InvariantViolation, match=re.escape(f"violates {violated}")):
        enumerate_admissible(k, ctx)


def test_distinguished_point_values():
    assert distinguished_point(KComposition((2, 1)), 2, 3, FpContext(11)) \
        == ParamPoint(2, (5, 5), 3)
    assert distinguished_point(KComposition((3, 2, 1)), 1, 1, FpContext(7)) \
        == ParamPoint(1, (3, 1, 1), 1)


def test_distinguished_point_raises_when_not_admissible(monkeypatch):
    monkeypatch.setattr(admissible, "is_admissible",
                        lambda k, pt, ctx: AdmissibilityReport(False, ("forced",)))
    with pytest.raises(InvariantViolation):
        distinguished_point(KComposition((2, 1)), 2, 3, FpContext(11))


def test_distinguished_point_preconditions():
    ctx = FpContext(7)
    k = KComposition((2, 1))
    with pytest.raises(PreconditionViolation, match=re.escape("ine14[kc]")):
        distinguished_point(k, 1, 4, ctx)  # k1*c = 8 > p-1
    with pytest.raises(PreconditionViolation, match=re.escape("ine14[a]")):
        distinguished_point(k, 5, 1, ctx)  # a + (k1-1)c = 6 = p-1
    with pytest.raises(PreconditionViolation, match="positivity"):
        distinguished_point(k, 0, 1, ctx)


def test_distinguished_point_is_admissible_everywhere_defined():
    for p in (7, 11):
        ctx = FpContext(p)
        for k in (KComposition((2, 1)), KComposition((3, 2, 1))):
            for c in range(1, (p - 1) // k.part(1) + 1):
                for a in range(1, p - 1 - (k.part(1) - 1) * c):
                    pt = distinguished_point(k, a, c, ctx)
                    assert is_admissible(k, pt, ctx)


def test_decrement_path_reaches_distinguished_point():
    for p in (7, 11):
        ctx = FpContext(p)
        k = KComposition((2, 1))
        for frm in enumerate_admissible(k, ctx):
            target = distinguished_point(k, frm.a, frm.c, ctx)
            path = decrement_path(k, frm, ctx)
            assert len(path) == sum(frm.b) - sum(target.b)
            cur = frm
            for idx, nxt in path:
                assert nxt.b[idx] == cur.b[idx] - 1
                assert sum(nxt.b) == sum(cur.b) - 1
                assert is_admissible(k, nxt, ctx)
                cur = nxt
            assert cur == target


def test_decrement_path_edge_cases():
    ctx = FpContext(11)
    k = KComposition((2, 1))
    base = ParamPoint(2, (5, 5), 3)
    assert is_admissible(k, base, ctx)
    # already at the bottom: nothing to decrement
    assert decrement_path(k, base, ctx) == []
    # one unit of slack in b1 only: a single step back to the base point
    assert decrement_path(k, ParamPoint(2, (6, 5), 3), ctx) == [(0, base)]


def test_decrement_path_tie_break_prefers_small_index():
    ctx = FpContext(11)
    k = KComposition((2, 1))
    frm = next(pt for pt in enumerate_admissible(k, ctx)
               if len(decrement_path(k, pt, ctx)) >= 2)
    target = distinguished_point(k, frm.a, frm.c, ctx)
    slacks = [frm.b[i] - target.b[i] for i in range(2)]
    first_idx = decrement_path(k, frm, ctx)[0][0]
    assert first_idx == max(range(2), key=lambda i: (slacks[i], -i))


def test_decrement_path_rejects_inadmissible_start():
    ctx = FpContext(7)
    with pytest.raises(PreconditionViolation):
        decrement_path(KComposition((2, 1)), ParamPoint(1, (1, 1), 1), ctx)


def test_admissible_I_counts_and_boundary():
    ctx = FpContext(7)
    pts = enumerate_admissible_I(2, 1, ctx)
    assert len(pts) == 60
    # lower boundary b2 = (k1-k2+1)c must be populated
    assert any(pt.b[1] == 2 * pt.c for pt in pts)
    for pt in pts:
        assert pt.b[1] >= 2 * pt.c
        assert pt.b[0] >= ctx.p - (pt.a + pt.c)
        assert is_admissible_I(2, 1, pt, ctx)


# (k1, k2, p, point, violated): together they trip every identifier family
# of the I_000 domain that a point with a, b_i >= 0 can trip (positivity,
# thmI[a], thmI[kc] and each argument's lower and upper entry, but the lower
# entries of b1+(i-1)c and b2+(i-1)c, which b_i >= 0 meets)
PINNED_VIOLATIONS_I = [
    (2, 1, 7, (1, (1, 1), 1),
     ("thmI[a+b1+(i+k1-2)c-p,i=1,lower]", "thmI[b2+(i+k2-k1-2)c,i=1,lower]",
      "thmI[a+b1+b2+(i+k1-3)c-p,i=1,lower]")),
    (2, 1, 7, (0, (6, 6), 7),
     ("positivity", "thmI[b2+(i+k2-k1-2)c,i=1,lower]", "thmI[a]", "thmI[kc]")),
    (2, 1, 7, (3, (3, 6), 3), ()),
    (3, 1, 7, (5, (6, 1), 3),
     ("thmI[a+b1+(i+k1-2)c-p,i=1,upper]", "thmI[b1+(i-1)c,i=2,upper]",
      "thmI[a+b1+(i+k1-2)c-p,i=2,upper]", "thmI[b2+(i+k2-k1-2)c,i=1,lower]",
      "thmI[a+b1+b2+(i+k1-3)c-p,i=1,upper]", "thmI[a]", "thmI[kc]")),
    (3, 2, 11, (0, (11, 0), 11),
     ("positivity", "thmI[b1+(i-1)c,i=1,upper]", "thmI[a+b1+(i+k1-2)c-p,i=1,upper]",
      "thmI[b2+(i+k2-k1-2)c,i=1,lower]", "thmI[a+b1+b2+(i+k1-3)c-p,i=1,upper]",
      "thmI[b2+(i-1)c,i=2,upper]", "thmI[b2+(i+k2-k1-2)c,i=2,lower]",
      "thmI[b1+b2+(i-2)c,i=2,upper]", "thmI[a+b1+b2+(i+k1-3)c-p,i=2,upper]", "thmI[a]",
      "thmI[kc]")),
    (3, 2, 11, (0, (0, 0), 1),
     ("positivity", "thmI[a+b1+(i+k1-2)c-p,i=1,lower]", "thmI[b2+(i+k2-k1-2)c,i=1,lower]",
      "thmI[b1+b2+(i-2)c,i=1,lower]", "thmI[a+b1+b2+(i+k1-3)c-p,i=1,lower]",
      "thmI[b2+(i+k2-k1-2)c,i=2,lower]", "thmI[a+b1+b2+(i+k1-3)c-p,i=2,lower]")),
    (3, 2, 11, (0, (0, 12), 1),
     ("positivity", "thmI[a+b1+(i+k1-2)c-p,i=1,lower]", "thmI[b2+(i-1)c,i=1,upper]",
      "thmI[b1+b2+(i-2)c,i=1,upper]", "thmI[b2+(i-1)c,i=2,upper]",
      "thmI[b2+(i+k2-k1-2)c,i=2,upper]", "thmI[b1+b2+(i-2)c,i=2,upper]")),
]


def test_admissible_I_identifiers():
    for k1, k2, p, (a, b, c), violated in PINNED_VIOLATIONS_I:
        rep = is_admissible_I(k1, k2, ParamPoint(a, b, c), FpContext(p))
        assert rep.violated == violated, (k1, k2, p, (a, b, c))
        assert bool(rep) == (not violated)
    ctx = FpContext(7)
    with pytest.raises(PreconditionViolation):
        is_admissible_I(1, 1, ParamPoint(1, (1, 1), 1), ctx)
    with pytest.raises(PreconditionViolation):
        is_admissible_I(2, 1, ParamPoint(1, (1,), 1), ctx)
    with pytest.raises(PreconditionViolation):
        enumerate_admissible_I(2, 2, ctx)


I_CASES = [(k1, k2, p) for k1 in (2, 3, 4) for k2 in range(1, k1) for p in (3, 5, 7, 11, 13, 17)]


@pytest.mark.parametrize("k1, k2, p", I_CASES)
def test_I_enumeration_equals_box_filter(k1, k2, p):
    # the interval walk against the filter over the candidate box that it replaced
    ctx = FpContext(p)
    assert enumerate_admissible_I(k1, k2, ctx) == reference_admissible.enumerate_admissible_I(
        k1, k2, ctx)


@pytest.mark.parametrize("k1, k2, p", [(2, 1, 7), (3, 2, 11), (4, 1, 13)])
def test_I_enumeration_asks_the_closed_form_once_per_point(monkeypatch, k1, k2, p):
    # no closed form is evaluated for a rejected candidate
    calls = []
    closed_form = formulas.i000_rhs

    def counting(*args):
        calls.append(args[2])
        return closed_form(*args)

    monkeypatch.setattr(formulas, "i000_rhs", counting)
    pts = enumerate_admissible_I(k1, k2, FpContext(p))
    assert pts and calls == pts


def test_I_enumeration_raises_where_the_closed_form_is_undefined(monkeypatch):
    ctx = FpContext(11)
    victim = enumerate_admissible_I(3, 2, ctx)[50]
    closed_form = formulas.i000_rhs
    monkeypatch.setattr(formulas, "i000_rhs", lambda k1, k2, pt, ctx: (
        formulas.FormulaResult(error="forced") if pt == victim else closed_form(k1, k2, pt, ctx)))
    with pytest.raises(InvariantViolation, match="forced"):
        enumerate_admissible_I(3, 2, ctx)


@pytest.mark.parametrize("k1, k2, p", [(2, 1, 7), (3, 1, 7), (3, 2, 7), (3, 2, 11), (4, 3, 11)])
def test_admissible_I_iff_closed_form_defined(k1, k2, p):
    # over a box around the candidates of the box filter (a, b_i in 1..p-1,
    # k1 c < p, thmI[a]), where the domain is exactly "i000_rhs is defined":
    # the table and the a/c conditions are the closed form's ranges, written apart
    ctx = FpContext(p)
    for a, b1, b2 in product(range(p + 2), repeat=3):
        for c in range(1, p + 1):
            pt = ParamPoint(a, (b1, b2), c)
            closed_form = formulas.i000_rhs(k1, k2, pt, ctx).ok
            candidate = min(a, b1, b2) >= 1 and a + (k1 - 1) * c < p
            assert is_admissible_I(k1, k2, pt, ctx).admissible == (closed_form and candidate), pt
