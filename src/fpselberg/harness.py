"""Verification campaigns: left sides by coefficient extraction, right sides
by closed form (or recurrence factors), exact equality only.

`_CAMPAIGNS` holds one entry per campaign: its key list (and reported
total; `_sampled` draws a seeded sample, `_swept` rejects a sampled spec),
a check that takes a list of keys, the composition length it needs, and the
JSON form of a key in a failure record.  The campaigns over a domain of
points, `main`, `thm_3_11`, `thm_4_111`, `i000`, `stokes` and the relation
campaigns but `relations_S1S2`, take their keys as int64 rows (a, b_1, ...,
b_n, c): `admissible_rows` and `i000_rows` return them, `stokes` takes the
box a, b_i, c in [1, p), `_sampled` samples row indices, and the theorem
key lists are built by interval expansion (`_thm_keys`).  Every check
returns one `_Verdicts`: per key, the two sides as int64 residues, whether
the key was checked (a key not checked is a skip), and its failure
classifier.  `main`, `thm_3_11`, `thm_4_111` and `i000` evaluate their
closed forms over the rows in one batch call (`formulas.r_values`,
`rhs_3_11_values`, `rhs_4_111_values`; `adm.i000_closed_forms`) and build
no point and no field element per key; the other closed forms and the
recurrence factors are field elements per key, turned into residues.  Checks take their integrals in batches: `beta`
(the one group k = (1,)), `main`, `thm_3_11`, `thm_4_111` and
`relations_S1S2` from one `selberg_integrals` call per key list, `dyson`
from one per k; `induction` from two per run of one composition (the full
and the truncated composition); `i000`, `relations_II0`, `relations_B1` and
`relations_B2` from one `weighted_integrals` call per allowable triple;
`relations_IS` from one of each; `stokes` from at most four calls of the
batch runner `chain_integrals`, whose other callers are `selberg_integrals`
and `weighted_integrals`.  `run_campaign` splits the keys into contiguous
chunks of at most CHUNK_KEYS, and `_outcome` turns each chunk's verdicts
into its count of checked keys and its failure records, in key order, with
one array comparison, sequentially or in the jobs > 1 pool.  A chunk's
integrals run in batches per c (`chain_integrals`), and a chunk boundary
cuts each c group it crosses into one more batch, so chunks are large.
Checks look up integrals, `formulas.*` and `adm.*` by module attribute at
call time, so code that patches those attributes sees every call.  Only
`bench` calls `selberg_integral`, and nothing calls `weighted_integral` or
`fp_integral`; they stay imported, as module attributes that the campaign
benchmark's tracer wraps.
"""

from __future__ import annotations

import math
import random
import time
from itertools import groupby, repeat
from collections.abc import Callable
from dataclasses import asdict, dataclass, field
from typing import NamedTuple

import numpy as np

from . import admissible as adm
from . import formulas, mpoly
from .errors import CapacityExceeded, ZeroFactor
from .gf import FpContext
from .integrals import (AllowableTriple, KComposition, LinearForm, chain_integrals,
                        cycle_from_composition, fp_integral, master_polynomial,
                        point_rows, row_points, selberg_integral, selberg_integrals,
                        weighted_integral, weighted_integrals)

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
        if self.exhaustive and self.samples:
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


class _Verdicts(NamedTuple):
    """A check's results over its keys: per key, its lhs and rhs residues
    (int64) and whether it was checked (bool), a key not checked being a
    skip; and the classifier of a failure, one for every key or a list of
    one per key.  A checked key fails where its two sides differ."""

    lhs: np.ndarray
    rhs: np.ndarray
    checked: np.ndarray
    classifiers: str | list[str] = "mismatch"


def _everywhere(lhs: np.ndarray, rhs: np.ndarray,
                classifiers: str | list[str] = "mismatch") -> _Verdicts:
    """The verdicts of a check that checks every key."""
    return _Verdicts(lhs, rhs, np.ones(len(lhs), dtype=bool), classifiers)


def _residues(elements) -> np.ndarray:
    """Field elements, or ints, as an int64 array."""
    return np.array([int(value) for value in elements], dtype=np.int64)


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
    return _everywhere(selberg_integrals(KComposition((1,)), rows, ctx),
                       _residues(formulas.beta_rhs(a, b, ctx) for a, b in keys))


def _dyson_check(ctx, _k, keys):
    """C.T. of prod_{i != j} (1 - x_i/x_j)^c, computed by clearing
    denominators: it is (-1)^{c k(k-1)/2} times the balanced coefficient, at
    x^{(k-1)c} in every variable, of prod (x_i - x_j)^{2c}.  That is the
    coefficient of x^{p-1} in x^a prod (x_i - x_j)^{2c} for a = p-1-(k-1)c,
    the Selberg integral of the one group k at (a, b = 0, c), so (k-1)c <=
    p-1: one `selberg_integrals` call per k."""
    kc = np.array(keys, dtype=np.int64).reshape(len(keys), 2)
    lhs = np.zeros(len(keys), dtype=np.int64)
    for kk in dict.fromkeys(kc[:, 0].tolist()):
        at = kc[:, 0] == kk
        c = kc[at, 1]
        values = selberg_integrals(KComposition((kk,)), np.column_stack(
            [ctx.p - 1 - (kk - 1) * c, np.zeros_like(c), c]), ctx)
        lhs[at] = np.where(c * kk * (kk - 1) // 2 % 2, -values % ctx.p, values)
    return _everywhere(lhs, _residues(formulas.dyson_constant(kk, c, ctx) for kk, c in keys),
                       [f"mismatch at k={kk}" for kk, _ in keys])


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
    return _everywhere(weighted_integrals(k1, k2, AllowableTriple(0, k2, 0), rows, ctx),
                       selberg_integrals(KComposition(k), rows - (1, 0, 1, 0), ctx))


def _relations_ii0_check(ctx, k, rows):
    """(k1-k2+i+1)c I_{0,i,0} + (b2+ic) I_{0,i+1,0} = 0 for i < k2; a row
    reports its first nonzero step as lhs, against rhs 0.  Homogeneous in
    the integrals, so a fault that zeroes or scales every integral passes
    it."""
    k1, k2 = k
    p = ctx.p
    values = np.stack([weighted_integrals(k1, k2, AllowableTriple(0, i, 0), rows, ctx)
                       for i in range(k2 + 1)])
    i, b2, c = np.arange(k2)[:, None], rows[:, 2], rows[:, 3]
    steps = ((k1 - k2 + i + 1) * c % p * values[:-1] + (b2 + i * c) % p * values[1:]) % p
    first = (steps != 0).argmax(axis=0)
    lhs = steps[first, np.arange(len(rows))]
    labels = [f"chain step i={step} nonzero" for step in range(k2)]
    return _everywhere(lhs, np.zeros_like(lhs), [labels[step] for step in first.tolist()])


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
        factors = np.zeros(len(rows), dtype=np.int64)
        checked = np.ones(len(rows), dtype=bool)
        for t, pt in enumerate(row_points(rows)):
            try:
                factors[t] = int(formulas.b_factor(k1, k2, idx, pt, ctx))
            except ZeroFactor:
                checked[t] = False
        highs = rows[checked]
        lows = highs - np.eye(4, dtype=np.int64)[1 + idx]
        values = weighted_integrals(k1, k2, AllowableTriple(0, 0, 0),
                                    np.concatenate([lows, highs]), ctx)
        lhs, rhs = np.zeros((2, len(rows)), dtype=np.int64)
        lhs[checked] = values[:len(highs)]
        rhs[checked] = factors[checked] * values[len(highs):] % ctx.p
        return _Verdicts(lhs, rhs, checked)
    return _Campaign(keys, check, 2)


def _relations_s1s2_check(ctx, k, keys):
    """Decrement edges: S(lower end) = shift factor * S(upper end).
    Homogeneous in the integrals, so a fault that zeroes or scales every
    integral passes it."""
    highs = np.array([row for row, _ in keys], dtype=np.int64).reshape(len(keys), 4)
    idxs = np.array([idx for _, idx in keys], dtype=np.int64)
    factors = _residues((formulas.shift_factor_b1 if idx == 0 else formulas.shift_factor_b2)(
        k[0], k[1], hi, ctx) for hi, idx in zip(row_points(highs), idxs.tolist()))
    lows = highs - np.eye(4, dtype=np.int64)[1 + idxs]
    values = selberg_integrals(KComposition(k), np.concatenate([lows, highs]), ctx)
    return _everywhere(values[:len(keys)], factors * values[len(keys):] % ctx.p,
                       [f"edge b{idx + 1}-1 mismatch" for idx in idxs.tolist()])


def _induction_check(ctx, _k, keys):
    """Factored identity at the distinguished point: the n-group integral
    equals induction_factor times the (n-1)-group integral, each side of a
    run of checked keys of one composition from one `selberg_integrals`
    call; a key with k_n c > p-1 is not checked.  Homogeneous in the
    integrals, so a fault that zeroes or scales every integral passes it."""
    lhs, rhs = np.zeros((2, len(keys)), dtype=np.int64)
    checked = np.array([kparts[-1] * c <= ctx.p - 1 for kparts, _, c in keys], dtype=bool)
    for kparts, run in groupby(np.flatnonzero(checked).tolist(), key=lambda t: keys[t][0]):
        comp, run = KComposition(kparts), list(run)
        full, trunc = (selberg_integrals(part, point_rows(
            [adm.distinguished_point(part, *keys[t][1:], ctx) for t in run], part.n), ctx)
            for part in (comp, comp.truncated()))
        factors = _residues(formulas.induction_factor(comp, keys[t][2], ctx) for t in run)
        lhs[run], rhs[run] = full, factors * trunc % ctx.p
    return _Verdicts(lhs, rhs, checked, [f"k={key[0]} factored identity" for key in keys])


def _i000_check(ctx, k, rows):
    """I_{0,0,0} against its closed form, which the rows' domain defines:
    the closed form re-checks the rows (`adm.i000_closed_forms`)."""
    k1, k2 = k
    return _everywhere(weighted_integrals(k1, k2, AllowableTriple(0, 0, 0), rows, ctx),
                       adm.i000_closed_forms(k1, k2, rows, ctx))


def _stokes_check(ctx, k, rows):
    """Stokes' identity in t_1, the first variable of group 1: the integral
    of d Phi / d t_1 is 0, since the coefficient of x^T in a derivative in
    x_1 is (T_1 + 1) = l_1 p = 0 times one of Phi.  By the product rule,

        a I[t_1^{a-1}] + 2c (k_1-1) I[(t_1-t_2) lowered]
            = b_1 I[(1-t_1)^{b_1-1}] + (p-c) k_2 I[(s_1-t_1) lowered],

    each I one `chain_integrals` call, a shift on t_1 or a pair lowered in
    block 1.  The sums over the other t's of group 1 and over the s's of
    group 2 are k_1-1 and k_2 times one term, by symmetry within a group
    (as in `weighted_integral`).  The in-group term is 0, as swapping t_1
    and t_2 negates it, so it checks the lowered in-group block alone.
    Homogeneous in the integrals, so a fault that zeroes or scales every
    integral passes it."""
    comp, p = KComposition(k), ctx.p
    k1, c = comp.part(1), rows[:, -1]
    # (side, coefficient, shift of t_1, lowered pairs)
    terms = [(0, rows[:, 0], (-1, 0), frozenset()), (1, rows[:, 1], (0, -1), frozenset())]
    if k1 > 1:
        terms.append((0, 2 * c * (k1 - 1), (0, 0), frozenset({LinearForm.diff(0, 1)})))
    if comp.n > 1:
        terms.append((1, (p - c) * comp.part(2), (0, 0), frozenset({LinearForm.diff(k1, 0)})))
    sides = np.zeros((2, len(rows)), dtype=np.int64)
    for side, coefficient, shift, lowered in terms:
        shifts = [[shift] + [(0, 0)] * (k1 - 1)] + [[(0, 0)] * part for part in comp.parts[1:]]
        sides[side] += coefficient % p * chain_integrals(comp, rows, ctx, shifts, lowered)
        sides[side] %= p
    return _everywhere(*sides)


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
    """The box a, b_i, c in [1, p) as rows (a, b_1, ..., b_n, c), in
    lexicographic order."""
    width = KComposition(spec.k).n + 2
    return _sampled(np.indices((spec.p - 1,) * width).reshape(width, -1).T + 1, spec)


def _point(row) -> dict:
    a, *b, c = (int(x) for x in row)
    return {"a": a, "b": b, "c": c}


@dataclass(frozen=True)
class _Campaign:
    keys: Callable        # (spec, ctx) -> (total, keys)
    check: Callable       # (ctx, k, keys) -> _Verdicts
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
    "stokes": _Campaign(_stokes_keys, _stokes_check, 0),
}

CAMPAIGNS = tuple(_CAMPAIGNS)

# Checks run on contiguous chunks of the key list, of at most CHUNK_KEYS
# keys, so that what a check holds per key stays bounded: a few int64
# arrays of a row's width, at most one classifier string and, for the
# checks with recurrence factors, one point and a few field elements per
# key, so at most about 1 MB per chunk, the order of one batch's arrays.
# The jobs > 1 pool gets at least _CHUNKS_PER_JOB chunks per worker.
_CHUNKS_PER_JOB = 4
CHUNK_KEYS = 1024


def _outcome(campaign: str, ctx: FpContext, k, keys) -> tuple[int, list[dict]]:
    """The number of keys checked, and the failure records in key order."""
    entry = _CAMPAIGNS[campaign]
    lhs, rhs, checked, classifiers = entry.check(ctx, k, keys)
    labels = np.broadcast_to(np.asarray(classifiers), lhs.shape)
    return int(checked.sum()), [
        {"point": entry.point(keys[t]), "lhs": int(lhs[t]), "rhs": int(rhs[t]),
         "classifier": str(labels[t])} for t in np.flatnonzero(checked & (lhs != rhs)).tolist()]


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
        seed=None if spec.exhaustive else spec.seed,
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
