"""Failure accounting for campaign reports, made from outside the harness.

A report only counts its skips.  A point skipped because it lies outside the
campaign's domain is expected; a point skipped although its closed form is
defined (the engine raised `CapacityExceeded`) is a failure that a report
would otherwise hide.  The two are told apart by recounting the out-of-domain
points with the public `admissible` and `formulas` functions: every skip
beyond that count is a capacity skip.
"""

from __future__ import annotations

from dataclasses import dataclass

from fpselberg import (FpContext, KComposition, PreconditionViolation,
                       admissible, formulas)


class AccountingError(Exception):
    """A report is inconsistent, or its skips cannot be classified."""


@dataclass(frozen=True)
class Tally:
    checked: int
    mismatches: int
    capacity_skips: int
    domain_skips: int

    @property
    def attempted(self) -> int:
        """Points whose closed form is defined: checked, or skipped for capacity."""
        return self.checked + self.capacity_skips

    @property
    def failed(self) -> int:
        return self.mismatches + self.capacity_skips


def check_counts(spec, report) -> None:
    """The report echoes its spec and its counts add up."""
    if (report.campaign, report.p, report.k) != (spec.campaign, spec.p, spec.k):
        raise AccountingError(f"report for {report.campaign} p={report.p} k={report.k} "
                              f"does not match {spec}")
    if report.total != report.checked + report.skipped:
        raise AccountingError(f"{spec.campaign}: total {report.total} != checked "
                              f"{report.checked} + skipped {report.skipped}")
    if report.checked != report.passed + len(report.failures):
        raise AccountingError(f"{spec.campaign}: checked {report.checked} != passed "
                              f"{report.passed} + failures {len(report.failures)}")


def domain_skips(spec, report) -> int:
    """Number of the campaign's points outside its domain.

    Raises AccountingError for a campaign with skips that this function
    cannot recount; extend it before adding such a campaign to a workload.
    """
    if report.skipped == 0:
        return 0
    ctx = FpContext(spec.p)
    if spec.campaign == "main":
        comp = KComposition(spec.k)
        population = admissible.enumerate_admissible(comp, ctx)
        undefined = sum(not formulas.r_value(comp, pt, ctx).ok for pt in population)
        if spec.exhaustive:
            box = (2 * spec.p - 1) ** (len(spec.k) + 2)
            return box - len(population) + undefined
        return _sampled_domain_skips(spec, undefined)
    if spec.campaign == "i000":
        k1, k2 = spec.k
        population = admissible.enumerate_admissible_I(k1, k2, ctx)
        undefined = sum(not formulas.i000_rhs(k1, k2, pt, ctx).ok for pt in population)
        return undefined if spec.exhaustive else _sampled_domain_skips(spec, undefined)
    if spec.campaign == "thm_3_11":
        return _thm_3_11_domain_skips(ctx, report.total)
    raise AccountingError(f"{spec.campaign} skipped {report.skipped} points and its skips "
                          "cannot be classified")


def _sampled_domain_skips(spec, undefined: int) -> int:
    if undefined:
        raise AccountingError(f"{spec.campaign}: {undefined} population points lie outside "
                              "the domain, so a sample's skips cannot be classified")
    return 0


def _thm_3_11_domain_skips(ctx: FpContext, total: int) -> int:
    """The campaign's points are those meeting the preconditions of
    `rhs_3_11`; a point is outside the domain when the closed form is not
    defined there."""
    p = ctx.p
    points = undefined = 0
    for a in range(p):
        for c in range(1, p + 1):
            for b1 in range(2 * p):
                for b2 in range(2 * p):
                    try:
                        result = formulas.rhs_3_11(a, b1, b2, c, ctx)
                    except PreconditionViolation:
                        continue
                    points += 1
                    undefined += not result.ok
    if points != total:
        raise AccountingError(f"thm_3_11: recounted {points} points, report has {total}")
    return undefined


def tally(spec, report, domain: int) -> Tally:
    check_counts(spec, report)
    capacity = report.skipped - domain
    if capacity < 0:
        raise AccountingError(f"{spec.campaign}: {report.skipped} skips, fewer than the "
                              f"{domain} points outside the domain")
    return Tally(checked=report.checked, mismatches=len(report.failures),
                 capacity_skips=capacity, domain_skips=domain)
