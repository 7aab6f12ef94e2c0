"""Verification campaigns: left sides by coefficient extraction, right sides
by closed form (or recurrence factors), exact equality only.

A campaign turns into a list of point-level tasks, each executed by a pure
function keyed on (campaign, p, k, point).  Tasks are evaluated grouped by
the point's c (a stable sort on the c that `_point_json` reports), because
`selberg_integral` caches the expanded pair blocks of one (p, c) at a time:
in key order, campaigns whose keys vary c fastest would rebuild them at
almost every point.  Tasks run sequentially by default; with jobs > 1 the
pool maps them in the same grouped order, so each worker's cache sees runs
of one c.  Outcomes are folded back into key order either way, so reports
do not depend on the evaluation order.  Skips (non-admissible points,
formula classifiers, capacity blowups) are counted separately from
failures.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field

from . import admissible as adm
from . import formulas, mpoly
from .errors import CapacityExceeded, ZeroFactor
from .gf import FpContext, sign_pow
from .integrals import (AllowableTriple, FactorProduct, KComposition, LinearForm,
                        ParamPoint, PCycle, VarSpace, cycle_from_composition,
                        fp_integral, master_polynomial, selberg_integral,
                        weighted_integral)

CAMPAIGNS = (
    "main", "beta", "dyson", "thm_3_11", "thm_4_111",
    "relations_IS", "relations_II0", "relations_B1", "relations_B2",
    "relations_S1S2", "induction", "i000", "stokes",
)

A2_COMPOSITIONS = ((2, 1), (3, 1), (3, 2))
A3_COMPOSITIONS = ((3, 2, 1),)


@dataclass(frozen=True)
class CampaignSpec:
    campaign: str
    p: int
    k: tuple[int, ...] | None = None
    exhaustive: bool = True
    samples: int = 0
    seed: int = 0
    jobs: int = 1

    def __post_init__(self):
        if self.campaign not in CAMPAIGNS:
            raise ValueError(f"unknown campaign {self.campaign!r}")
        if self.k is not None:
            object.__setattr__(self, "k", tuple(self.k))


@dataclass
class VerificationReport:
    campaign: str
    p: int
    k: tuple[int, ...] | None
    total: int
    checked: int
    passed: int
    skipped: int
    failures: list = field(default_factory=list)
    elapsed_ms: int = 0
    seed: int | None = None

    def as_dict(self) -> dict:
        return {
            "campaign": self.campaign,
            "p": self.p,
            "k": list(self.k) if self.k is not None else None,
            "total": self.total,
            "checked": self.checked,
            "passed": self.passed,
            "skipped": self.skipped,
            "failures": self.failures,
            "elapsed_ms": self.elapsed_ms,
            "seed": self.seed,
        }

    @property
    def all_passed(self) -> bool:
        return not self.failures


# ---------------------------------------------------------------------------
# point-level checks
# ---------------------------------------------------------------------------

def _beta_point(ctx, _k, key):
    a, b = key
    space = VarSpace(1, ("x",))
    factors = []
    if a:
        factors.append((LinearForm.var(0), a))
    if b:
        factors.append((LinearForm.one_minus(0), b))
    lhs = fp_integral(FactorProduct(ctx, space, tuple(factors)), PCycle((1,)), ctx)
    rhs = formulas.beta_rhs(a, b, ctx)
    if lhs == rhs:
        return ("pass", lhs.residue, rhs.residue, None)
    return ("fail", lhs.residue, rhs.residue, "mismatch")


def dyson_constant_term(k: int, c: int, ctx: FpContext):
    """C.T. of prod_{i != j} (1 - x_i/x_j)^c, computed by clearing denominators:
    it is (-1)^{c k(k-1)/2} times the balanced coefficient of prod (x_i - x_j)^{2c}.
    """
    space = VarSpace(k, tuple(f"x{i+1}" for i in range(k)))
    factors = tuple((LinearForm.diff(i, j), 2 * c)
                    for i in range(k) for j in range(i + 1, k))
    fp = FactorProduct(ctx, space, factors)
    target = ((k - 1) * c,) * k
    coeff = mpoly.extract_coefficient(fp, target)
    return sign_pow(ctx, c * k * (k - 1) // 2) * ctx.element(coeff)


def _dyson_point(ctx, _k, key):
    kk, c = key
    lhs = dyson_constant_term(kk, c, ctx)
    rhs = formulas.dyson_constant(kk, c, ctx)
    if lhs == rhs:
        return ("pass", lhs.residue, rhs.residue, None)
    return ("fail", lhs.residue, rhs.residue, f"mismatch at k={kk}")


def _main_point(ctx, k, key):
    pt = ParamPoint(key[0], key[1], key[2])
    comp = KComposition(k)
    rhs = formulas.r_value(comp, pt, ctx)
    if not rhs.ok:
        return ("skip", None, None, rhs.error)
    try:
        lhs = selberg_integral(comp, pt, ctx)
    except CapacityExceeded as exc:
        return ("skip", None, None, str(exc))
    if lhs == rhs.value:
        return ("pass", lhs.residue, rhs.value.residue, None)
    return ("fail", lhs.residue, rhs.value.residue, "mismatch")


def _thm_3_11_point(ctx, _k, key):
    a, b1, b2, c = key
    rhs = formulas.rhs_3_11(a, b1, b2, c, ctx)
    if not rhs.ok:
        return ("skip", None, None, rhs.error)
    lhs = selberg_integral(KComposition((1, 1)), ParamPoint(a, (b1, b2), c), ctx)
    if lhs == rhs.value:
        return ("pass", lhs.residue, rhs.value.residue, None)
    return ("fail", lhs.residue, rhs.value.residue, "mismatch")


def _thm_4_111_point(ctx, _k, key):
    a, b1, b2, b3, c = key
    rhs = formulas.rhs_4_111(a, b1, b2, b3, c, ctx)
    if not rhs.ok:
        return ("skip", None, None, rhs.error)
    lhs = selberg_integral(KComposition((1, 1, 1)), ParamPoint(a, (b1, b2, b3), c), ctx)
    if lhs == rhs.value:
        return ("pass", lhs.residue, rhs.value.residue, None)
    return ("fail", lhs.residue, rhs.value.residue, "mismatch")


def _relations_is_point(ctx, k, key):
    k1, k2 = k
    pt = ParamPoint(key[0], key[1], key[2])
    lhs = weighted_integral(k1, k2, AllowableTriple(0, k2, 0), pt, ctx)
    shifted = ParamPoint(pt.a - 1, (pt.b[0], pt.b[1] - 1), pt.c)
    rhs = selberg_integral(KComposition(k), shifted, ctx)
    if lhs == rhs:
        return ("pass", lhs.residue, rhs.residue, None)
    return ("fail", lhs.residue, rhs.residue, "mismatch")


def _relations_ii0_point(ctx, k, key):
    k1, k2 = k
    pt = ParamPoint(key[0], key[1], key[2])
    b2, c = pt.b[1], pt.c
    values = [weighted_integral(k1, k2, AllowableTriple(0, i, 0), pt, ctx)
              for i in range(k2 + 1)]
    for i in range(k2):
        combo = (ctx.element((k1 - k2 + i + 1) * c) * values[i]
                 + ctx.element(b2 + i * c) * values[i + 1])
        if combo != ctx.zero:
            return ("fail", combo.residue, 0, f"chain step i={i} nonzero")
    return ("pass", 0, 0, None)


def _relations_b1_point(ctx, k, key):
    k1, k2 = k
    pt = ParamPoint(key[0], key[1], key[2])
    if pt.b[0] < 2:
        return ("skip", None, None, "b1 < 2")
    try:
        _, factor_b1, _ = formulas.b_factors(k1, k2, pt, ctx)
    except ZeroFactor as exc:
        return ("skip", None, None, str(exc))
    tr = AllowableTriple(0, 0, 0)
    lhs = weighted_integral(k1, k2, tr, ParamPoint(pt.a, (pt.b[0] - 1, pt.b[1]), pt.c), ctx)
    rhs = factor_b1 * weighted_integral(k1, k2, tr, pt, ctx)
    if lhs == rhs:
        return ("pass", lhs.residue, rhs.residue, None)
    return ("fail", lhs.residue, rhs.residue, "mismatch")


def _relations_b2_point(ctx, k, key):
    k1, k2 = k
    pt = ParamPoint(key[0], key[1], key[2])
    if pt.b[1] < 2:
        return ("skip", None, None, "b2 < 2")
    try:
        _, _, factor_b2 = formulas.b_factors(k1, k2, pt, ctx)
    except ZeroFactor as exc:
        return ("skip", None, None, str(exc))
    tr = AllowableTriple(0, 0, 0)
    lhs = weighted_integral(k1, k2, tr, ParamPoint(pt.a, (pt.b[0], pt.b[1] - 1), pt.c), ctx)
    rhs = factor_b2 * weighted_integral(k1, k2, tr, pt, ctx)
    if lhs == rhs:
        return ("pass", lhs.residue, rhs.residue, None)
    return ("fail", lhs.residue, rhs.residue, "mismatch")


def verify_relation_S1(k: KComposition, pt: ParamPoint, ctx: FpContext) -> bool:
    """S at (a, b1-1, b2, c) equals the b1-shift factor times S at pt."""
    from .errors import PreconditionViolation
    lower = ParamPoint(pt.a, (pt.b[0] - 1, pt.b[1]), pt.c)
    if not (adm.is_admissible(k, pt, ctx) and adm.is_admissible(k, lower, ctx)):
        raise PreconditionViolation("both endpoints must be admissible")
    factor = formulas.shift_factor_b1(k.part(1), k.part(2), pt, ctx)
    return selberg_integral(k, lower, ctx) == factor * selberg_integral(k, pt, ctx)


def verify_relation_S2(k: KComposition, pt: ParamPoint, ctx: FpContext) -> bool:
    """S at (a, b1, b2-1, c) equals the b2-shift factor times S at pt."""
    from .errors import PreconditionViolation
    lower = ParamPoint(pt.a, (pt.b[0], pt.b[1] - 1), pt.c)
    if not (adm.is_admissible(k, pt, ctx) and adm.is_admissible(k, lower, ctx)):
        raise PreconditionViolation("both endpoints must be admissible")
    factor = formulas.shift_factor_b2(k.part(1), k.part(2), pt, ctx)
    return selberg_integral(k, lower, ctx) == factor * selberg_integral(k, pt, ctx)


def _relations_s1s2_edge(ctx, k, key):
    hi_key, idx = key
    comp = KComposition(k)
    hi = ParamPoint(hi_key[0], hi_key[1], hi_key[2])
    lo_b = list(hi.b)
    lo_b[idx] -= 1
    lo = ParamPoint(hi.a, tuple(lo_b), hi.c)
    if idx == 0:
        factor = formulas.shift_factor_b1(k[0], k[1], hi, ctx)
    else:
        factor = formulas.shift_factor_b2(k[0], k[1], hi, ctx)
    lhs = selberg_integral(comp, lo, ctx)
    rhs = factor * selberg_integral(comp, hi, ctx)
    if lhs == rhs:
        return ("pass", lhs.residue, rhs.residue, None)
    return ("fail", lhs.residue, rhs.residue, f"edge b{idx + 1}-1 mismatch")


def verify_induction(k: KComposition, a: int, c: int, ctx: FpContext) -> bool:
    """Factored identity at the distinguished point: the n-group integral
    equals induction_factor times the (n-1)-group integral."""
    full = adm.distinguished_point(k, a, c, ctx)
    trunc = adm.distinguished_point(k.truncated(), a, c, ctx)
    factor = formulas.induction_factor(k, c, ctx)
    lhs = selberg_integral(k, full, ctx)
    rhs = factor * selberg_integral(k.truncated(), ParamPoint(a, trunc.b, c), ctx)
    return lhs == rhs


def _induction_point(ctx, _k, key):
    kparts, a, c = key
    comp = KComposition(kparts)
    if comp.part(comp.n) * c > ctx.p - 1:
        return ("skip", None, None, "k_n c > p-1")
    full = adm.distinguished_point(comp, a, c, ctx)
    trunc = adm.distinguished_point(comp.truncated(), a, c, ctx)
    factor = formulas.induction_factor(comp, c, ctx)
    lhs = selberg_integral(comp, full, ctx)
    rhs = factor * selberg_integral(comp.truncated(), trunc, ctx)
    if lhs == rhs:
        return ("pass", lhs.residue, rhs.residue, None)
    return ("fail", lhs.residue, rhs.residue, f"k={kparts} factored identity")


def _i000_point(ctx, k, key):
    k1, k2 = k
    pt = ParamPoint(key[0], key[1], key[2])
    rhs = formulas.i000_rhs(k1, k2, pt, ctx)
    if not rhs.ok:
        return ("skip", None, None, rhs.error)
    lhs = weighted_integral(k1, k2, AllowableTriple(0, 0, 0), pt, ctx)
    if lhs == rhs.value:
        return ("pass", lhs.residue, rhs.value.residue, None)
    return ("fail", lhs.residue, rhs.value.residue, "mismatch")


def random_factor_product(ctx: FpContext, rng: random.Random,
                          max_vars: int = 3) -> tuple[FactorProduct, PCycle]:
    """A random small product of x, 1-x, and difference factors with a cycle."""
    nv = rng.randint(1, max_vars)
    space = VarSpace(nv, tuple(f"x{i+1}" for i in range(nv)))
    factors = []
    for v in range(nv):
        factors.append((LinearForm.var(v), rng.randint(0, ctx.p)))
        factors.append((LinearForm.one_minus(v), rng.randint(0, ctx.p)))
    for i in range(nv):
        for j in range(i + 1, nv):
            if rng.random() < 0.6:
                factors.append((LinearForm.diff(i, j), rng.randint(1, ctx.p // 2 + 1)))
    scalar = rng.randint(1, ctx.p - 1)
    lengths = tuple(rng.randint(1, 2) for _ in range(nv))
    return FactorProduct(ctx, space, tuple(factors), scalar), PCycle(lengths)


def _stokes_point(ctx, _k, key):
    (seed, index) = key
    rng = random.Random(seed * 1_000_003 + index)
    fp, cycle = random_factor_product(ctx, rng)
    var = rng.randrange(fp.space.num_vars)
    targets = cycle.targets(ctx.p)
    caps = tuple(t + 1 if v == var else t for v, t in enumerate(targets))
    poly = mpoly.expand(fp, caps)
    deriv = mpoly.derivative(poly, var)
    got = deriv.coefficient(targets)
    if got == ctx.zero:
        return ("pass", got.residue, 0, None)
    return ("fail", got.residue, 0, f"derivative in x{var+1} has nonzero integral")


_POINT_RUNNERS = {
    "beta": _beta_point,
    "dyson": _dyson_point,
    "main": _main_point,
    "thm_3_11": _thm_3_11_point,
    "thm_4_111": _thm_4_111_point,
    "relations_IS": _relations_is_point,
    "relations_II0": _relations_ii0_point,
    "relations_B1": _relations_b1_point,
    "relations_B2": _relations_b2_point,
    "relations_S1S2": _relations_s1s2_edge,
    "induction": _induction_point,
    "i000": _i000_point,
    "stokes": _stokes_point,
}


# ---------------------------------------------------------------------------
# task enumeration
# ---------------------------------------------------------------------------

def _point_key(pt: ParamPoint) -> tuple:
    return (pt.a, pt.b, pt.c)


def _require_k(spec: CampaignSpec, length: int | None = None) -> tuple[int, ...]:
    if spec.k is None:
        raise ValueError(f"campaign {spec.campaign} needs a composition k")
    if length is not None and len(spec.k) != length:
        raise ValueError(f"campaign {spec.campaign} needs k of length {length}")
    return spec.k


def _sampled(population: list, spec: CampaignSpec) -> list:
    if spec.exhaustive:
        return population
    rng = random.Random(spec.seed)
    n = min(spec.samples, len(population))
    return sorted(rng.sample(population, n))


def _admissible_population(spec: CampaignSpec, ctx, k: tuple[int, ...]) -> list[tuple]:
    return [_point_key(pt) for pt in adm.enumerate_admissible(KComposition(k), ctx)]


def _enumerate_tasks(spec: CampaignSpec, ctx: FpContext):
    """Returns (total, pre_skipped, keys) for the campaign."""
    p = spec.p
    name = spec.campaign
    if name == "beta":
        keys = [(a, b) for a in range(p) for b in range(p)]
        return len(keys), 0, keys
    if name == "dyson":
        keys = [(kk, c) for kk in range(1, 5) for c in range(1, 4) if kk * c <= p - 1]
        return len(keys), 0, keys
    if name == "main":
        k = _require_k(spec)
        population = _admissible_population(spec, ctx, k)
        if spec.exhaustive:
            box = (2 * p - 1) ** (len(k) + 2)
            return box, box - len(population), population
        keys = _sampled(population, spec)
        return len(keys), 0, keys
    if name == "thm_3_11":
        keys = []
        for a in range(p):
            for c in range(1, p + 1):
                for b2 in range(max(c - 1, 0), p + c - 1):
                    for b1 in range(0, p + c - 1 - b2):
                        if p - 1 <= a + b1 + b2 - c + 1 < 2 * p - 1:
                            keys.append((a, b1, b2, c))
        keys.sort()
        return len(keys), 0, keys
    if name == "thm_4_111":
        keys = []
        for c in range(1, p + 1):
            for a in range(p):
                for b3 in range(c - 1, p):
                    if not 0 <= b3 - c + 1 < p:
                        continue
                    for b2 in range(0, 3 * p):
                        if not (0 <= b2 + b3 - c + 1 < p and 0 <= b2 + b3 - 2 * c + 2 < p):
                            continue
                        for b1 in range(0, 4 * p):
                            if not 0 <= b1 + b2 + b3 - 2 * c + 2 < p:
                                continue
                            if 0 <= a + b1 + b2 + b3 - 2 * c + 3 - p < p:
                                keys.append((a, b1, b2, b3, c))
        keys.sort()
        return len(keys), 0, keys
    if name in ("relations_IS", "relations_II0", "relations_B1", "relations_B2"):
        k = _require_k(spec, 2)
        population = _admissible_population(spec, ctx, k)
        if name == "relations_B1":
            population = [key for key in population if key[1][0] >= 2]
        if name == "relations_B2":
            population = [key for key in population if key[1][1] >= 2]
        keys = _sampled(population, spec)
        return len(keys), 0, keys
    if name == "relations_S1S2":
        k = _require_k(spec, 2)
        comp = KComposition(k)
        population = _admissible_population(spec, ctx, k)
        sampled = _sampled(population, spec)
        edges = set()
        for key in sampled:
            cur = ParamPoint(key[0], key[1], key[2])
            for idx, nxt in adm.decrement_path(comp, cur, ctx):
                edges.add((_point_key(cur), idx))
                cur = nxt
        keys = sorted(edges)
        return len(keys), 0, keys
    if name == "induction":
        ksets = A2_COMPOSITIONS + A3_COMPOSITIONS if spec.k is None else (spec.k,)
        keys = []
        for kparts in ksets:
            k1 = kparts[0]
            for c in range(1, (p - 1) // k1 + 1):
                for a in range(1, p - 1 - (k1 - 1) * c):
                    keys.append((kparts, a, c))
        return len(keys), 0, keys
    if name == "i000":
        k = _require_k(spec, 2)
        population = [_point_key(pt) for pt in adm.enumerate_admissible_I(k[0], k[1], ctx)]
        keys = _sampled(population, spec)
        return len(keys), 0, keys
    if name == "stokes":
        count = spec.samples if spec.samples else 500
        keys = [(spec.seed, i) for i in range(count)]
        return count, 0, keys
    raise ValueError(f"unknown campaign {name!r}")


def _point_json(campaign: str, key) -> dict:
    if campaign == "beta":
        return {"a": key[0], "b": key[1], "c": None}
    if campaign == "dyson":
        return {"a": None, "b": [key[0]], "c": key[1]}
    if campaign == "thm_3_11":
        return {"a": key[0], "b": [key[1], key[2]], "c": key[3]}
    if campaign == "thm_4_111":
        return {"a": key[0], "b": [key[1], key[2], key[3]], "c": key[4]}
    if campaign == "relations_S1S2":
        (a, b, c), idx = key
        return {"a": a, "b": list(b), "c": c}
    if campaign == "induction":
        _, a, c = key
        return {"a": a, "b": None, "c": c}
    if campaign == "stokes":
        return {"a": None, "b": None, "c": None}
    a, b, c = key
    return {"a": a, "b": list(b), "c": c}


def _run_task(args):
    campaign, p, k, key = args
    ctx = FpContext(p)
    return _POINT_RUNNERS[campaign](ctx, k, key)


def run_campaign(spec: CampaignSpec) -> VerificationReport:
    ctx = FpContext(spec.p)
    t0 = time.monotonic()
    total, pre_skipped, keys = _enumerate_tasks(spec, ctx)
    runner = _POINT_RUNNERS[spec.campaign]
    order = sorted(range(len(keys)),
                   key=lambda i: _point_json(spec.campaign, keys[i])["c"] or 0)
    if spec.jobs > 1:
        # imported here: the pool machinery costs about a tenth of start-up
        from concurrent.futures import ProcessPoolExecutor
        tasks = [(spec.campaign, spec.p, spec.k, keys[i]) for i in order]
        with ProcessPoolExecutor(max_workers=spec.jobs) as pool:
            grouped = list(pool.map(_run_task, tasks, chunksize=8))
    else:
        grouped = [runner(ctx, spec.k, keys[i]) for i in order]
    outcomes = [None] * len(keys)
    for i, outcome in zip(order, grouped):
        outcomes[i] = outcome

    checked = passed = 0
    skipped = pre_skipped
    failures = []
    for key, (status, lhs, rhs, classifier) in zip(keys, outcomes):
        if status == "skip":
            skipped += 1
        elif status == "pass":
            checked += 1
            passed += 1
        else:
            checked += 1
            failures.append({
                "point": _point_json(spec.campaign, key),
                "lhs": lhs,
                "rhs": rhs,
                "classifier": classifier,
            })
    elapsed_ms = int((time.monotonic() - t0) * 1000)
    return VerificationReport(
        campaign=spec.campaign, p=spec.p, k=spec.k,
        total=total, checked=checked, passed=passed, skipped=skipped,
        failures=failures, elapsed_ms=elapsed_ms,
        seed=None if spec.exhaustive and spec.campaign != "stokes" else spec.seed,
    )


# ---------------------------------------------------------------------------
# benchmark
# ---------------------------------------------------------------------------

def bench(p: int, k: tuple[int, ...], a: int = 1, c: int = 1) -> dict:
    """Truncated engine vs the sparse full-expansion oracle on one integral.

    The oracle is aborted once it exceeds 10x the truncated runtime or the
    slot budget; that outcome is reported, not treated as an error.
    """
    ctx = FpContext(p)
    comp = KComposition(k)
    pt = adm.distinguished_point(comp, a, c, ctx)
    cycle = cycle_from_composition(comp)
    fp = master_polynomial(comp, pt, ctx)
    targets = cycle.targets(p)

    t0 = time.monotonic()
    value = fp_integral(fp, cycle, ctx)
    trunc_s = time.monotonic() - t0

    result = {
        "p": p, "k": list(k), "point": {"a": pt.a, "b": list(pt.b), "c": pt.c},
        "target_slots": 1,
        "budget": mpoly.slot_budget(),
        "trunc_ms": int(trunc_s * 1000),
        "value": value.residue,
    }
    for t in targets:
        result["target_slots"] *= t + 1
    t0 = time.monotonic()
    try:
        table = mpoly.sparse_expand_oracle(fp, deadline_s=max(10 * trunc_s, 0.5))
        oracle_s = time.monotonic() - t0
        oracle_value = table.get(targets, 0)
        result.update(oracle_ms=int(oracle_s * 1000), oracle_status="completed",
                      oracle_terms=len(table), oracle_agrees=(oracle_value == value.residue))
    except CapacityExceeded as exc:
        oracle_s = time.monotonic() - t0
        result.update(oracle_ms=int(oracle_s * 1000), oracle_status=f"aborted: {exc}",
                      oracle_terms=None, oracle_agrees=None)
    return result
