"""Verification campaigns: left sides by coefficient extraction, right sides
by closed form (or recurrence factors), exact equality only.

`_CAMPAIGNS` holds one entry per campaign: its key list (and reported total;
`_sampled` draws a seeded sample, `_swept` rejects a sampled spec), a check
that takes a list of keys, the composition length it needs, and the JSON
form of a key in a failure record.  The campaigns over a domain of points,
`main`, `thm_3_11`, `thm_4_111`, `i000` and the relation campaigns but
`relations_S1S2`, take their keys as int64 rows (a, b_1, ..., b_n, c):
`admissible_rows` and `i000_rows` return them, `_sampled` samples row
indices, and the theorem key lists are built by interval expansion
(`_thm_keys`).  `main`, `thm_3_11`, `thm_4_111`, `i000` and `relations_IS`
keep them as rows to the verdict: their checks return `_Verdicts`, per row
the two sides as residues and whether the row was checked, from one batch
call of their closed form (`formulas.r_values`, `rhs_3_11_values`,
`rhs_4_111_values`; `adm.i000_closed_forms`) and of their integrals, and
build no point and no field element per key.  The other checks return
one (lhs, rhs, mismatch classifier) or `_Skip` per key, building their
points where their recurrence factors need them and converting them to
rows where they call an integral.  Checks take their integrals in
batches: `beta` (the one group k = (1,)), `main`, `thm_3_11`, `thm_4_111`
and `relations_S1S2` from one `selberg_integrals` call per key list;
`induction` from two per run of one composition (the full and the
truncated composition); `i000`, `relations_II0`, `relations_B1` and
`relations_B2` from one `weighted_integrals` call per allowable triple;
`relations_IS` from one of each.  `dyson` takes one `selberg_integrals`
call per key, on the one group of its k, and `stokes` reads one
coefficient off one expansion per key.  `run_campaign` splits the keys
into contiguous chunks of at most CHUNK_KEYS, and `_outcome` turns each
chunk's results into its count of checked keys and its failure records,
in key order, with one array comparison for `_Verdicts`, sequentially or
in the jobs > 1 pool.  A chunk's integrals run in batches per c
(`integrals._batches`), and a chunk boundary cuts each c group it crosses
into one more batch, so chunks are large.  Checks look up integrals,
`formulas.*` and `adm.*` by module attribute at call time, so code that
patches those attributes sees every call.  Only `bench` calls
`selberg_integral`, and nothing calls `weighted_integral` or
`fp_integral`; they stay imported, as module attributes that the campaign
benchmark's tracer wraps.
"""

from __future__ import annotations

import math
import random
import time
from itertools import compress, groupby, repeat
from collections.abc import Callable
from dataclasses import asdict, dataclass, field
from typing import NamedTuple

import numpy as np

from . import admissible as adm
from . import formulas, mpoly
from .errors import CapacityExceeded, ZeroFactor
from .gf import FpContext, FpElement, sign_pow
from .integrals import (AllowableTriple, FactorProduct, KComposition, LinearForm,
                        ParamPoint, PCycle, cycle_from_composition, fp_integral,
                        master_polynomial, point_rows, row_points, selberg_integral,
                        selberg_integrals, weighted_integral, weighted_integrals)

_INDUCTION_COMPOSITIONS = ((2, 1), (3, 1), (3, 2), (3, 2, 1))


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
        if self.samples < 0:
            raise ValueError(f"samples must be at least 0, got {self.samples}")
        if not self.exhaustive and self.samples == 0:
            raise ValueError("a sampled run needs at least 1 sample")
        # stokes reads samples as its point count in both modes
        if self.exhaustive and self.samples and self.campaign != "stokes":
            raise ValueError(f"an exhaustive {self.campaign} run takes no samples, "
                             f"got {self.samples}")
        if self.jobs < 1:
            raise ValueError(f"jobs must be at least 1, got {self.jobs}")
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
        """The JSON report: the fields in declaration order, k as a list."""
        report = asdict(self)
        report["k"] = list(self.k) if self.k is not None else None
        return report

    @property
    def all_passed(self) -> bool:
        return not self.failures


class _Skip(Exception):
    """A check's point lies outside its identity's domain or cannot be computed."""


class _Verdicts(NamedTuple):
    """The results of a check over rows: per row, its lhs and rhs residues,
    and whether it was checked; a row not checked is a skip.  A checked row
    whose sides differ is a "mismatch"."""

    lhs: np.ndarray
    rhs: np.ndarray
    checked: np.ndarray


def _elements(values: np.ndarray, ctx: FpContext) -> list[FpElement]:
    return [FpElement(value, ctx) for value in values.tolist()]


def _against_closed_forms(rows: np.ndarray, closed_form: tuple[np.ndarray, np.ndarray],
                          integrals: Callable, capacity_skips: bool = False) -> _Verdicts:
    """The integrals against a closed form, (residues, first term out of
    range) as a batch form of `formulas` returns it, at the rows where it is
    defined; `integrals` maps those rows to their integrals in one call.
    The other rows are skips, and with capacity_skips, CapacityExceeded
    skips every row."""
    rhs, first = closed_form
    checked = first < 0
    lhs = np.zeros(len(rows), dtype=np.int64)
    try:
        lhs[checked] = integrals(rows[checked])
    except CapacityExceeded:
        if not capacity_skips:
            raise
        checked[:] = False
    return _Verdicts(lhs, rhs, checked)


def _beta_check(ctx, _k, keys):
    """x^a (1-x)^b over [1]_p: the Selberg integral of the one group k = (1,)."""
    rows = np.array([(a, b, 1) for a, b in keys], dtype=np.int64).reshape(len(keys), 3)
    lhs = _elements(selberg_integrals(KComposition((1,)), rows, ctx), ctx)
    return [(value, formulas.beta_rhs(a, b, ctx), "mismatch")
            for value, (a, b) in zip(lhs, keys)]


def dyson_constant_term(k: int, c: int, ctx: FpContext):
    """C.T. of prod_{i != j} (1 - x_i/x_j)^c, computed by clearing denominators:
    it is (-1)^{c k(k-1)/2} times the balanced coefficient, at x^{(k-1)c} in
    every variable, of prod (x_i - x_j)^{2c}.  That is the coefficient of
    x^{p-1} in x^a prod (x_i - x_j)^{2c} for a = p-1-(k-1)c, the Selberg
    integral of the one group k at (a, b = 0, c); so (k-1)c <= p-1.
    """
    pt = ParamPoint(ctx.p - 1 - (k - 1) * c, (0,), c)
    value, = selberg_integrals(KComposition((k,)), point_rows([pt], 1), ctx).tolist()
    return sign_pow(ctx, c * k * (k - 1) // 2) * value


def _dyson_check(ctx, _k, keys):
    return [(dyson_constant_term(kk, c, ctx), formulas.dyson_constant(kk, c, ctx),
             f"mismatch at k={kk}") for kk, c in keys]


def _main_check(ctx, k, rows):
    comp = KComposition(k)
    return _against_closed_forms(rows, formulas.r_values(comp, rows, ctx),
                                 lambda rows: selberg_integrals(comp, rows, ctx),
                                 capacity_skips=True)


def _thm(n: int) -> Callable:
    """The check of Theorem 3.11 (n = 2) or 4.111 (n = 3): k = (1,)*n, one b
    per group."""
    def check(ctx, _k, rows):
        closed_form = formulas.rhs_3_11_values if n == 2 else formulas.rhs_4_111_values
        comp = KComposition((1,) * n)
        return _against_closed_forms(rows, closed_form(rows, ctx),
                                     lambda rows: selberg_integrals(comp, rows, ctx))
    return check


def _relations_is_check(ctx, k, rows):
    """I_{0,k2,0}(a, b1, b2, c) = S(a-1, b1, b2-1, c).  Homogeneous in the
    integrals, so a fault that zeroes or scales every integral passes it."""
    k1, k2 = k
    lhs = weighted_integrals(k1, k2, AllowableTriple(0, k2, 0), rows, ctx)
    rhs = selberg_integrals(KComposition(k), rows - (1, 0, 1, 0), ctx)
    return _Verdicts(lhs, rhs, np.ones(len(rows), dtype=bool))


def _relations_ii0_check(ctx, k, rows):
    """(k1-k2+i+1)c I_{0,i,0} + (b2+ic) I_{0,i+1,0} = 0 for i < k2.
    Homogeneous in the integrals, so a fault that zeroes or scales every
    integral passes it."""
    k1, k2 = k
    values = [_elements(weighted_integrals(k1, k2, AllowableTriple(0, i, 0), rows, ctx), ctx)
              for i in range(k2 + 1)]
    results = []
    for t, (_, _, b2, c) in enumerate(rows.tolist()):
        for i in range(k2):
            combo = (ctx.element((k1 - k2 + i + 1) * c) * values[i][t]
                     + ctx.element(b2 + i * c) * values[i + 1][t])
            if combo != ctx.zero:
                results.append((combo, ctx.zero, f"chain step i={i} nonzero"))
                break
        else:
            results.append((ctx.zero, ctx.zero, None))
    return results


def _relations_b(idx: int) -> "_Campaign":
    """I_{0,0,0} at b_{idx+1} - 1 = `formulas.b_factor(k1, k2, idx, ...)`
    times I_{0,0,0}, at admissible points where b_{idx+1} - 1 stays positive;
    a point is skipped only where a ratio of its own factor vanishes.
    Homogeneous in the integrals, so a fault that zeroes or scales every
    integral passes it."""
    def keys(spec, ctx):
        rows = _admissible(spec.k, ctx)
        return _sampled(rows[rows[:, 1 + idx] >= 2], spec)

    def check(ctx, k, rows):
        k1, k2 = k
        points, factors = [], []
        for pt in row_points(rows):
            try:
                factors.append(formulas.b_factor(k1, k2, idx, pt, ctx))
                points.append(pt)
            except ZeroFactor as exc:
                factors.append(_Skip(str(exc)))
        values = _elements(weighted_integrals(
            k1, k2, AllowableTriple(0, 0, 0),
            point_rows([adm.lowered(pt, idx) for pt in points] + points, 2), ctx), ctx)
        lows, highs = iter(values[:len(points)]), iter(values[len(points):])
        return [factor if isinstance(factor, _Skip)
                else (next(lows), factor * next(highs), "mismatch") for factor in factors]
    return _Campaign(keys, check, 2)


def _relations_s1s2_check(ctx, k, keys):
    """Decrement edges: S(lower end) = shift factor * S(upper end).
    Homogeneous in the integrals, so a fault that zeroes or scales every
    integral passes it."""
    highs = [ParamPoint(a, (b1, b2), c) for (a, b1, b2, c), _ in keys]
    factors = [(formulas.shift_factor_b1 if idx == 0 else formulas.shift_factor_b2)(
        k[0], k[1], hi, ctx) for hi, (_, idx) in zip(highs, keys)]
    lows = [adm.lowered(hi, idx) for hi, (_, idx) in zip(highs, keys)]
    values = _elements(selberg_integrals(KComposition(k), point_rows(lows + highs, 2), ctx), ctx)
    return [(lhs, factor * rhs, f"edge b{idx + 1}-1 mismatch")
            for lhs, factor, rhs, (_, idx) in zip(values, factors, values[len(keys):], keys)]


def _induction_check(ctx, _k, keys):
    """Factored identity at the distinguished point: the n-group integral
    equals induction_factor times the (n-1)-group integral, each side of a
    run of keys of one composition from one `selberg_integrals` call.
    Homogeneous in the integrals, so a fault that zeroes or scales every
    integral passes it."""
    results = []
    for kparts, run in groupby(keys, key=lambda key: key[0]):
        comp = KComposition(kparts)
        trunc = comp.truncated()
        pairs = [(a, c) for _, a, c in run]
        fits = [comp.part(comp.n) * c <= ctx.p - 1 for _, c in pairs]
        kept = list(compress(pairs, fits))
        fulls, truncs = (iter(_elements(selberg_integrals(part, point_rows(
            [adm.distinguished_point(part, a, c, ctx) for a, c in kept], part.n), ctx), ctx))
            for part in (comp, trunc))
        results += [(next(fulls), formulas.induction_factor(comp, c, ctx) * next(truncs),
                     f"k={kparts} factored identity") if fit else _Skip("k_n c > p-1")
                    for (_, c), fit in zip(pairs, fits)]
    return results


def _i000_check(ctx, k, rows):
    """I_{0,0,0} against its closed form, which the rows' domain defines:
    the closed form re-checks the rows (`adm.i000_closed_forms`)."""
    k1, k2 = k
    rhs = adm.i000_closed_forms(k1, k2, rows, ctx)
    return _Verdicts(weighted_integrals(k1, k2, AllowableTriple(0, 0, 0), rows, ctx), rhs,
                     np.ones(len(rows), dtype=bool))


def random_factor_product(ctx: FpContext, rng: random.Random) -> tuple[FactorProduct, PCycle]:
    """A random product of x, 1-x, and difference factors in 1 to 3 variables, with a cycle."""
    nv = rng.randint(1, 3)
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
    return FactorProduct(ctx, nv, tuple(factors), scalar), PCycle(lengths)


def _stokes_check(ctx, _k, keys):
    """The integral of a partial derivative of a random product is 0.

    No fault in the expansion engine can fail this check: the coefficient
    of x^T in d f / d x_v is (T_v + 1) [x^(T + e_v)] f, and T_v + 1 = l_v p
    is 0 mod p, whatever `mpoly.expand` returns for f.
    """
    results = []
    for seed, index in keys:
        rng = random.Random(seed * 1_000_003 + index)
        fp, cycle = random_factor_product(ctx, rng)
        var = rng.randrange(fp.num_vars)
        targets = cycle.targets(ctx.p)
        caps = tuple(t + 1 if v == var else t for v, t in enumerate(targets))
        deriv = mpoly.derivative(mpoly.expand(fp, caps), var)
        results.append((deriv.coefficient(targets), ctx.zero,
                        f"derivative in x{var+1} has nonzero integral"))
    return results


# key lists: (spec, ctx) -> (total, keys); total - len(keys) points are skips

def _sampled(rows: np.ndarray, spec: CampaignSpec) -> tuple[int, np.ndarray]:
    """The rows (a, b_1, ..., b_n, c), which are in key order, or a seeded
    sample of them, in the same order.  `random.sample` reads only the
    population's length and the items it picks, so sampling the row indices
    picks the rows that sampling a list of them would."""
    if not spec.exhaustive:
        picked = random.Random(spec.seed).sample(range(len(rows)), min(spec.samples, len(rows)))
        rows = rows[sorted(picked)]
    return len(rows), rows


def _swept(keys: list, spec: CampaignSpec) -> tuple[int, list]:
    """Every key, for the campaigns that have no sampler."""
    if not spec.exhaustive:
        raise ValueError(f"campaign {spec.campaign} sweeps every point and takes no samples")
    return len(keys), keys


def _admissible(k: tuple[int, ...], ctx: FpContext) -> np.ndarray:
    return adm.admissible_rows(KComposition(k), ctx)


def _admissible_keys(spec, ctx):
    return _sampled(_admissible(spec.k, ctx), spec)


def _main_keys(spec, ctx):
    total, keys = _admissible_keys(spec, ctx)
    # an exhaustive run counts the whole parameter box; its inadmissible points are skips
    return (2 * spec.p - 1) ** (len(spec.k) + 2) if spec.exhaustive else total, keys


def _beta_keys(spec, _ctx):
    return _swept([(a, b) for a in range(spec.p) for b in range(spec.p)], spec)


def _dyson_keys(spec, _ctx):
    return _swept([(kk, c) for kk in range(1, 5) for c in range(1, 4)
                   if kk * c <= spec.p - 1], spec)


def _thm_keys(p: int, bounds: list[Callable], order: list[int]) -> np.ndarray:
    """Rows (a, c) for a in [0, p) and c in [1, p], extended by one column
    per entry of bounds, each mapping the columns so far to the interval of
    the next (each row repeated once per integer of its interval); then the
    columns in `order`, in lexicographic order."""
    rows = np.indices((p, p)).reshape(2, -1).T + (0, 1)
    for bound in bounds:
        which, values = adm._spread(*bound(*rows.T))
        rows = np.column_stack([rows[which], values])
    rows = rows[:, order]
    return rows[np.lexsort(rows.T[::-1])]


def _thm_3_11_keys(spec, _ctx):
    """The rows (a, b1, b2, c) with c in [1, p] where `rhs_3_11`'s
    preconditions hold: 0 <= a < p, 0 <= b2-c+1, b1+b2-c+1 < p and
    p-1 <= a+b1+b2-c+1 < 2p-1."""
    p = spec.p
    return _swept(_thm_keys(p, [
        lambda a, c: (c - 1, p + c - 2),  # b2
        lambda a, c, b2: (np.maximum(0, p - 2 - a - b2 + c),  # b1
                          np.minimum(p + c - 2 - b2, 2 * p - 3 - a - b2 + c)),
    ], [0, 3, 2, 1]), spec)


def _thm_4_111_keys(spec, _ctx):
    """The rows (a, b1, b2, b3, c) with 0 <= a < p and c in [1, p] where
    b3-c+1, b2+b3-c+1, b2+b3-2c+2, b1+b2+b3-2c+2 and a+b1+b2+b3-2c+3-p
    all lie in [0, p)."""
    p = spec.p
    return _swept(_thm_keys(p, [
        lambda a, c: (c - 1, np.full_like(c, p - 1)),  # b3
        lambda a, c, b3: (np.maximum(0, 2 * c - 2 - b3), p + c - 2 - b3),  # b2
        lambda a, c, b3, b2: (np.maximum(0, p - 3 - a - b2 - b3 + 2 * c),  # b1
                              np.minimum(p - 3 - b2 - b3 + 2 * c, 2 * p - 4 - a - b2 - b3 + 2 * c)),
    ], [0, 4, 3, 2, 1]), spec)


def _relations_s1s2_keys(spec, ctx):
    """The edges (upper end, index of the lowered b) of the decrement paths
    from the sampled points down to their distinguished points."""
    comp = KComposition(spec.k)
    edges = set()
    for cur in row_points(_admissible_keys(spec, ctx)[1]):
        for idx, nxt in adm.decrement_path(comp, cur, ctx):
            edges.add(((cur.a, *cur.b, cur.c), idx))
            cur = nxt
    return len(edges), sorted(edges)


def _induction_keys(spec, _ctx):
    """Per composition, c-major, the (a, c) whose a/c conditions hold."""
    p, keys = spec.p, []
    for kparts in (_INDUCTION_COMPOSITIONS if spec.k is None else (spec.k,)):
        pairs = adm._ac_tables(lambda a, c: adm._b_system(kparts, a, c, p), p)
        keys += [(kparts, a, c) for c, a in sorted((c, a) for a, c, _ in pairs)]
    return _swept(keys, spec)


def _i000_keys(spec, ctx):
    return _sampled(adm.i000_rows(*spec.k, ctx), spec)


def _stokes_keys(spec, _ctx):
    keys = [(spec.seed, i) for i in range(spec.samples or 500)]
    return len(keys), keys


def _point(row) -> dict:
    a, *b, c = (int(x) for x in row)
    return {"a": a, "b": b, "c": c}


@dataclass(frozen=True)
class _Campaign:
    keys: Callable        # (spec, ctx) -> (total, keys)
    check: Callable       # (ctx, k, keys) -> _Verdicts, or per key (lhs, rhs, classifier) or _Skip
    k_len: int | None = None  # k needed: None no (induction: optional), 0 any, n length n
    point: Callable = _point  # key -> {"a", "b", "c"} of a failure record


_CAMPAIGNS = {
    "main": _Campaign(_main_keys, _main_check, 0),
    "beta": _Campaign(_beta_keys, _beta_check,
                      point=lambda key: {"a": key[0], "b": key[1], "c": None}),
    "dyson": _Campaign(_dyson_keys, _dyson_check,
                       point=lambda key: {"a": None, "b": [key[0]], "c": key[1]}),
    "thm_3_11": _Campaign(_thm_3_11_keys, _thm(2)),
    "thm_4_111": _Campaign(_thm_4_111_keys, _thm(3)),
    "relations_IS": _Campaign(_admissible_keys, _relations_is_check, 2),
    "relations_II0": _Campaign(_admissible_keys, _relations_ii0_check, 2),
    "relations_B1": _relations_b(0),
    "relations_B2": _relations_b(1),
    "relations_S1S2": _Campaign(_relations_s1s2_keys, _relations_s1s2_check, 2,
                                point=lambda key: _point(key[0])),
    "induction": _Campaign(_induction_keys, _induction_check,
                           point=lambda key: {"a": key[1], "b": None, "c": key[2]}),
    "i000": _Campaign(_i000_keys, _i000_check, 2),
    "stokes": _Campaign(_stokes_keys, _stokes_check,
                        point=lambda key: {"a": None, "b": None, "c": None}),
}

CAMPAIGNS = tuple(_CAMPAIGNS)

# Checks run on contiguous chunks of the key list, of at most CHUNK_KEYS
# keys, so that what a check holds per key stays bounded: a few int64
# arrays of a row's width for the checks over rows, and at most about 1 KB
# of Python objects per key (points, factors, integrals and results) for
# the others, so at most about 1 MB per chunk, the order of one batch's
# arrays.  The jobs > 1 pool gets at least _CHUNKS_PER_JOB chunks per worker.
_CHUNKS_PER_JOB = 4
CHUNK_KEYS = 1024


def _outcome(campaign: str, ctx: FpContext, k, keys) -> tuple[int, list[dict]]:
    """The number of keys checked, and the failure records in key order."""
    entry = _CAMPAIGNS[campaign]
    results = entry.check(ctx, k, keys)
    if isinstance(results, _Verdicts):
        lhs, rhs, checked = results
        return int(checked.sum()), [
            {"point": entry.point(keys[t]), "lhs": int(lhs[t]), "rhs": int(rhs[t]),
             "classifier": "mismatch"} for t in np.flatnonzero(checked & (lhs != rhs)).tolist()]
    count, failures = 0, []
    for key, result in zip(keys, results, strict=True):
        if isinstance(result, _Skip):
            continue
        count += 1
        lhs, rhs, classifier = result
        if lhs != rhs:
            failures.append({"point": entry.point(key), "lhs": lhs.residue, "rhs": rhs.residue,
                             "classifier": classifier})
    return count, failures


def run_campaign(spec: CampaignSpec) -> VerificationReport:
    entry = _CAMPAIGNS[spec.campaign]
    ctx = FpContext(spec.p)
    if entry.k_len is not None and spec.k is None:
        raise ValueError(f"campaign {spec.campaign} needs a composition k")
    if entry.k_len and len(spec.k) != entry.k_len:
        raise ValueError(f"campaign {spec.campaign} needs k of length {entry.k_len}")
    if entry.k_len is None and spec.k is not None and spec.campaign != "induction":
        raise ValueError(f"campaign {spec.campaign} takes no composition k, got {spec.k}")
    t0 = time.monotonic()
    total, keys = entry.keys(spec, ctx)
    size = CHUNK_KEYS
    if spec.jobs > 1:
        size = max(1, min(size, -(-len(keys) // (_CHUNKS_PER_JOB * spec.jobs))))
    chunks = [keys[start:start + size] for start in range(0, len(keys), size)]
    args = (repeat(spec.campaign), repeat(ctx), repeat(spec.k), chunks)
    if spec.jobs > 1:
        # imported here: the pool machinery costs about a tenth of start-up
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=spec.jobs) as pool:
            results = list(pool.map(_outcome, *args))
    else:
        results = list(map(_outcome, *args))
    checked = sum(count for count, _ in results)
    failures = [record for _, records in results for record in records]
    return VerificationReport(
        campaign=spec.campaign, p=spec.p, k=spec.k,
        total=total, checked=checked, passed=checked - len(failures), skipped=total - checked,
        failures=failures, elapsed_ms=int((time.monotonic() - t0) * 1000),
        seed=None if spec.exhaustive and spec.campaign != "stokes" else spec.seed,
    )


# benchmark

def bench(p: int, k: tuple[int, ...], a: int = 1, c: int = 1) -> dict:
    """The block chain vs the sparse full-expansion oracle on one integral.

    The oracle is aborted once it exceeds 10x the chain's runtime (at least
    0.5 s) or the slot budget; that outcome is reported, not treated as an
    error.
    """
    ctx = FpContext(p)
    comp = KComposition(k)
    pt = adm.distinguished_point(comp, a, c, ctx)
    targets = cycle_from_composition(comp).targets(p)

    t0 = time.monotonic()
    value = selberg_integral(comp, pt, ctx)
    trunc_s = time.monotonic() - t0

    result = {
        "p": p, "k": list(k), "point": {"a": pt.a, "b": list(pt.b), "c": pt.c},
        "target_slots": math.prod(t + 1 for t in targets),
        "budget": mpoly.slot_budget(),
        "trunc_ms": int(trunc_s * 1000),
        "value": value.residue,
    }
    fp = master_polynomial(comp, pt, ctx)
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
