"""p-cycles, master polynomials, and coefficient-extraction integrals.

An F_p-integral over the p-cycle [l_1,...,l_k]_p is the coefficient of
x_1^{l_1 p - 1} ... x_k^{l_k p - 1}.  The Selberg-type integrand is a product
of power factors t^a, (1-t)^b, in-group differences to the power 2c, and
cross-group differences to the power p-c; its integral over the composite
cycle attached to a composition k is computed exactly by truncated expansion.

Variables are flattened group-major: all of group 1 first, then group 2, etc.,
with the j-th variable of group i at flat index k_1 + ... + k_{i-1} + j - 1.
The cycle built by `cycle_from_composition` uses the same order, so exponent
vectors and variable indices never need re-alignment.

Neither `selberg_integrals` nor `weighted_integrals` expands the whole
integrand per point.  Only the one-variable factors depend on (a, b); the
pair factors depend on (k, c, p) alone.  They are split along the group
chain into blocks: block i spans groups i and i+1 and holds the cross
factors (x_{i+1} - x_i)^{p-c} and the in-group factors (x - x')^{2c} of
group i+1 (block 1 also those of group 1; group n+1 is empty).  Each block
is built once to the target caps of its two groups, so it depends only on
(k_{i-1}, k_i, k_{i+1}, c, p), and compositions share blocks: (3,2) and
(3,2,1) share their first.  A block is a product of differences, hence
homogeneous of degree D (the sum of its exponents), so it is expanded by
`mpoly.expand` with its last variable set to 1, over the other axes only;
the coefficient at exponents g of those axes belongs at exponent D - |g| of
the last one and is dropped when that falls outside its cap (3.3 M slots
become 85.7 k for block 1 of (3,2) at p=13).  The cache stores only the
nonzero slots, as a `mpoly.SparseBlock` (see `_BlockCache`); no dense block
is ever allocated.  The integrand is symmetric in the variables of each
group, so a block is also folded over a group that one runner call weights
alike and lowers no pair of: it keeps the entries whose exponents in that
group are non-decreasing, times the sizes of their orbits (5 697 of
3 341 637 slots for that block at c=1 become 553).

Points that share k, c and p share every block.  The value is carried along
the chain as a polynomial in one group, and after block i it depends only
on the prefix (c, a, b_1, ..., b_i) of the point: the weight rows of groups
1..i are all it has read of the point.  So the chain runs stage by stage
(`_prefix_chain`): stage i contracts block i once per distinct prefix, with
the prefixes of a batch as a leading axis.  Stage 1 starts from the outer
product of group 1's weight rows, the coefficients of x^alpha (1-x)^beta
(Lucas binomials, so beta >= p works); a later stage gathers each prefix's
parent polynomial from the stage before and multiplies each axis by its
variable's weight row.  The contraction with the sparse block leaves the
coefficient of x^T in group i as a polynomial in group i+1.  With one
group, block 1 leaves one number per prefix.  With n >= 2, block n would
hold no factor: it is not built, and per point the last group's polynomial
V is finished by its target functional instead, the sum over h of V[h]
prod_j r_j[T - h_j] for the rows r_j of its variables
(`mpoly.top_coefficient`).  Each stage runs in batches under BATCH_SLOTS
live slots, and the polynomials carried from one stage to the next stay
under the same cap (`_runs`).  A module-level cache holds the blocks built
for every prime and c, so points may be evaluated in any order; past
CACHE_ENTRIES stored entries it drops whole primes, the least recently used
first, but never the prime in use.

Both integrals take their points as int64 rows (a, b_1, ..., b_n, c) and
return int64 residues, one per row.  They raise, before any point is
evaluated, what their batch of one would raise at the first offending
row, from vector checks (`_raise_at_first`).  They run on the same chain
and blocks, through one batch runner (`chain_integrals`) that sorts the
rows by c and then by their prefixes, and cuts each c group into runs.
Its data is a shift table, one (da, db) per variable: the row of variable
j of group i is x^{a [i=1] + da} (1-x)^{b_i + db}, gathered for a whole
stage batch at once from the padded table of the group's cap
(`_padded_powers`, `_weight_rows`),
which holds a row per distinct b_i + db asked for; and a set of pair
factors one lower in block 1.  It has three callers.
`selberg_integrals` passes all-zero shifts (and the beta integral is its
one group k = (1,)).  `weighted_integrals` passes the identity summand's
shifts (argument in `weighted_integral`'s docstring), at most two distinct
ones per group, with the cross factors of its denominator pairs one lower
in block 1, the same for every point of one triple.  The `stokes` check of
`harness` passes the terms of the product rule in t_1: a shift on t_1, or
one pair through t_1 lowered.  `selberg_integral` and `weighted_integral`
take a `ParamPoint` and are their batches of one.
`point_rows` and `row_points` convert between points and rows.
`fp_integral` reads one coefficient of a whole integrand's `mpoly.expand`;
no package code calls it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from itertools import permutations

import numpy as np

from . import mpoly
from .errors import (CapacityExceeded, InvalidExponent, InvariantViolation,
                     NegativeExponent, NotAllowable, PreconditionViolation)
from .gf import FpContext, FpElement, binom
from .mpoly import FactorProduct, LinearForm


@dataclass(frozen=True)
class PCycle:
    """The cycle [l_1,...,l_k]_p; target exponents are l_i*p - 1."""

    lengths: tuple[int, ...]

    def __post_init__(self):
        if not self.lengths or any(l < 1 for l in self.lengths):
            raise PreconditionViolation("cycle lengths must be positive")
        object.__setattr__(self, "lengths", tuple(self.lengths))

    def targets(self, p: int) -> tuple[int, ...]:
        return tuple(l * p - 1 for l in self.lengths)


@dataclass(frozen=True)
class KComposition:
    """(k_1,...,k_n), positive and weakly decreasing.

    The main identity requires strict decrease; the equal-parts cases (1,1)
    and (1,1,1) are still valid compositions for building master polynomials,
    so strictness is a predicate, not a construction invariant.
    """

    parts: tuple[int, ...]

    def __post_init__(self):
        if not self.parts or any(x < 1 for x in self.parts):
            raise PreconditionViolation("composition parts must be positive")
        for x, y in zip(self.parts, self.parts[1:]):
            if x < y:
                raise PreconditionViolation("composition parts must be weakly decreasing")
        object.__setattr__(self, "parts", tuple(self.parts))

    @property
    def n(self) -> int:
        return len(self.parts)

    def part(self, i: int) -> int:
        """k_i with the convention k_0 = k_{n+1} = 0 (1-based index)."""
        if 1 <= i <= self.n:
            return self.parts[i - 1]
        if i == 0 or i == self.n + 1:
            return 0
        raise PreconditionViolation(f"part index {i} out of range for n={self.n}")

    def is_strictly_decreasing(self) -> bool:
        return all(x > y for x, y in zip(self.parts, self.parts[1:]))

    def num_variables(self) -> int:
        return sum(self.parts)

    def truncated(self) -> "KComposition":
        """(k_1,...,k_{n-1}); requires n >= 2."""
        if self.n < 2:
            raise PreconditionViolation("cannot truncate a length-1 composition")
        return KComposition(self.parts[:-1])


@dataclass(frozen=True)
class ParamPoint:
    """Parameters (a, b_1..b_n, c).

    a and the b_i may be zero: shifted points like (a-1, b_1, b_2-1, c)
    arise on the right-hand sides of the contiguous relations.  c >= 1.
    """

    a: int
    b: tuple[int, ...]
    c: int

    def __post_init__(self):
        if self.a < 0 or self.c < 1 or any(x < 0 for x in self.b):
            raise PreconditionViolation(f"bad parameter point ({self.a}, {self.b}, {self.c})")
        object.__setattr__(self, "b", tuple(self.b))

    @property
    def n(self) -> int:
        return len(self.b)


def cycle_from_composition(k: KComposition) -> PCycle:
    """[(1)_{k_1}; (k_1)_{k_2}; ...; (k_{n-1})_{k_n}]."""
    lengths = []
    for i in range(1, k.n + 1):
        lengths.extend([max(k.part(i - 1), 1)] * k.part(i))
    return PCycle(tuple(lengths))


def _flat_index(k: KComposition, group: int, j: int) -> int:
    """0-based flat index of variable j (1-based) in group (1-based)."""
    return sum(k.parts[: group - 1]) + j - 1


def _pair_factors(sizes: tuple[int, ...], c: int, p: int,
                  first_in_group: bool = True) -> list[tuple[LinearForm, int]]:
    """In-group (t-t')^{2c} and adjacent cross (s-t)^{p-c} factors over
    consecutive groups of the given sizes, flattened group-major.  With
    first_in_group=False the first group's in-group factors are left out."""
    starts = [sum(sizes[:g]) for g in range(len(sizes))]
    factors: list[tuple[LinearForm, int]] = []
    for g, size in enumerate(sizes):
        if g or first_in_group:
            for j in range(size):
                for jp in range(j + 1, size):
                    factors.append((LinearForm.diff(starts[g] + j, starts[g] + jp), 2 * c))
    if p - c:
        for g in range(len(sizes) - 1):
            for j in range(sizes[g + 1]):
                for jp in range(sizes[g]):
                    factors.append((LinearForm.diff(starts[g + 1] + j, starts[g] + jp), p - c))
    return factors


def _check_point(k: KComposition, pt: ParamPoint, ctx: FpContext) -> None:
    if pt.n != k.n:
        raise PreconditionViolation(f"b has length {pt.n}, composition has n={k.n}")
    if pt.c > ctx.p:
        raise InvalidExponent(f"c={pt.c} > p={ctx.p} makes the cross exponent negative")


def master_polynomial(k: KComposition, pt: ParamPoint, ctx: FpContext) -> FactorProduct:
    """Product of t^{a_i}, (1-t)^{b_i}, in-group (t-t')^{2c}, cross (t'-t)^{p-c}.

    a_1 = a and a_i = 0 for i >= 2.  Zero-exponent factors are omitted.
    """
    _check_point(k, pt, ctx)
    factors: list[tuple[LinearForm, int]] = []
    for i in range(1, k.n + 1):
        a_i = pt.a if i == 1 else 0
        b_i = pt.b[i - 1]
        for j in range(1, k.part(i) + 1):
            v = _flat_index(k, i, j)
            if a_i:
                factors.append((LinearForm.var(v), a_i))
            if b_i:
                factors.append((LinearForm.one_minus(v), b_i))
    factors += _pair_factors(k.parts, pt.c, ctx.p)
    return FactorProduct(ctx, k.num_variables(), tuple(factors))


def _check_target_box(targets: tuple[int, ...]) -> None:
    box = math.prod(t + 1 for t in targets)
    budget = mpoly.slot_budget()
    if box > budget:
        raise CapacityExceeded(f"target box of {box} slots exceeds budget {budget}")


def fp_integral(fp: FactorProduct, cycle: PCycle, ctx: FpContext) -> FpElement:
    """Coefficient of prod x_i^{l_i p - 1} in the expanded product."""
    if fp.ctx.p != ctx.p:
        raise PreconditionViolation("factor product built over a different prime")
    if fp.num_vars != len(cycle.lengths):
        raise PreconditionViolation(
            f"{fp.num_vars} variables vs cycle of length {len(cycle.lengths)}")
    targets = cycle.targets(ctx.p)
    _check_target_box(targets)
    return FpElement(mpoly.extract_coefficient(fp, targets), ctx)


def _group_cap(k: KComposition, i: int, p: int) -> int:
    """Target exponent of every variable of group i (1-based; 0 past the end)."""
    return max(k.part(i - 1), 1) * p - 1 if 1 <= i <= k.n else 0


def _dehomogenized(factors: list[tuple[LinearForm, int]],
                   last: int) -> tuple[list[tuple[LinearForm, int]], int]:
    """The factors with x_last set to 1, and their total degree.

    Every factor must be a difference x_u - x_v, so that the product is
    homogeneous of that degree; anything else raises InvariantViolation.
    """
    out, degree = [], 0
    for form, e in factors:
        if len(form.terms) != 2 or form != LinearForm.diff(*form.variables()):
            raise InvariantViolation(f"pair factor {form} is not a difference x_u - x_v")
        constant = sum(coeff for v, coeff in form.terms if v == last)
        out.append((LinearForm(constant, tuple(t for t in form.terms if t[0] != last)), e))
        degree += e
    return out, degree


def _orbit_sizes(tuples: np.ndarray) -> np.ndarray:
    """Per row of non-decreasing exponent tuples, the size of its orbit
    under permuting the tuple's entries: k! over the product of the
    factorials of the multiplicities.  Equal entries are adjacent, so an
    entry that is the m-th of its run counts m, and a run of length m
    contributes m! to the product."""
    run = product = np.ones(len(tuples), dtype=np.int64)
    for j in range(1, tuples.shape[1]):
        run = np.where(tuples[:, j] == tuples[:, j - 1], run + 1, 1)
        product = product * run
    return math.factorial(tuples.shape[1]) // product


def _fold_weights(index: np.ndarray, size: int, cap: int) -> np.ndarray:
    """Per flat slot in the box of a group of `size` variables of this cap,
    its weight in a block folded over the group: the size of its exponent
    tuple's orbit where the tuple is non-decreasing, else 0."""
    tuples = np.stack(np.unravel_index(index, (cap + 1,) * size), axis=1)
    weights = np.zeros(len(index), dtype=np.int64)
    kept = (np.diff(tuples, axis=1) >= 0).all(axis=1)
    weights[kept] = _orbit_sizes(tuples[kept])
    return weights


class _BlockCache:
    """Sparse pair blocks, keyed by (p, k_{i-1}, k_i, k_{i+1}, c, lowered,
    folds).

    Blocks of every prime are kept while the cache holds at most
    CACHE_ENTRIES stored entries.  Past that, whole primes are dropped, the
    least recently asked for first, until it fits again or only the prime
    in use is left; that prime is never dropped, so its blocks are built
    once however its points are ordered.

    A block is a product of differences, so it is homogeneous of degree D,
    the sum of its exponents.  It is expanded with its last variable set to
    1, over the other axes only (one axis smaller than the block); the
    coefficient of the block at a slot of total degree D is the expanded
    one at the slot's other exponents, and every other slot is 0.  So each
    nonzero of the expansion is one entry of the block, at last exponent D
    less the sum of its others, unless that falls outside the last cap.
    They are stored as a `mpoly.SparseBlock`; the full block box is never
    allocated.  Its positions are reversed against the group-i box: the
    entry of block row r is stored at R - 1 - r, for R block rows.  That is
    the slot of the flat group tensor it multiplies, since the coefficient
    of x^T pairs exponent T - h of the tensor with exponent h of the block,
    and reversing every axis of a C-ordered box reverses its flat slots.

    folds = (rows, columns) folds the block over the permutations of group
    i's exponents, or of group i+1's: of the entries, it keeps those whose
    exponent tuple in that group is non-decreasing, times the size of the
    tuple's orbit (`_fold_weights`), mod p, and drops those that become 0
    (p divides the orbit size).  The pair factors of a group whose
    variables no pair in `lowered` names are symmetric in them (the
    in-group exponent 2c is even, and the cross factors run over all
    pairs), so the block takes one value on each orbit, and a functional
    symmetric in the group reads the same sum from the folded block
    (`chain_integrals` says when the chain's are).
    """

    def __init__(self):
        self._blocks: dict[tuple, mpoly.SparseBlock] = {}
        # stored entries per prime, the least recently used prime first
        self._entries: dict[int, int] = {}

    def block(self, k: KComposition, i: int, c: int, ctx: FpContext,
              lowered: frozenset[LinearForm] = frozenset(),
              folds: tuple[bool, bool] = (False, False)) -> mpoly.SparseBlock:
        """Block i as a matrix of the flat group-i slots times the flat
        group-(i+1) slots; the pair factors in `lowered` are one lower, and
        its rows and columns are folded as `folds` says."""
        p = ctx.p
        self._entries[p] = self._entries.pop(p, 0)  # p is now the most recently used
        key = (p, k.part(i - 1), k.part(i), k.part(i + 1), c, lowered, folds)
        if key not in self._blocks:
            sizes = (k.part(i), k.part(i + 1))
            caps = (_group_cap(k, i, p),) * sizes[0] + (_group_cap(k, i + 1, p),) * sizes[1]
            last = sum(sizes) - 1
            factors, degree = _dehomogenized(
                [(f, e - (f in lowered))
                 for f, e in _pair_factors(sizes, c, p, first_in_group=i == 1)], last)
            dehom = mpoly.expand(FactorProduct(ctx, last, tuple(factors)),
                                 caps[:-1]).coeffs.reshape(-1)
            nz = np.flatnonzero(dehom)
            # the exponent of the last variable is D less the sum of the others
            rest, exponent = nz, np.full(len(nz), degree)
            for cap in reversed(caps[:-1]):
                rest, e = np.divmod(rest, cap + 1)
                exponent -= e
            keep = (exponent >= 0) & (exponent <= caps[-1])
            nz = nz[keep]
            nrows, ncols = (caps[0] + 1) ** sizes[0], (caps[-1] + 1) ** sizes[1]
            # the flat index in the block box, split into row and column
            row, col = np.divmod(nz * (caps[-1] + 1) + exponent[keep], ncols)
            values = dehom[nz]
            for fold, index, size, cap in zip(folds, (row, col), sizes, (caps[0], caps[-1])):
                if fold:
                    values = values * _fold_weights(index, size, cap) % p
            kept = np.flatnonzero(values)
            row, col, values = row[kept], col[kept], values[kept]
            order = np.argsort(col, kind="stable")
            columns, starts = np.unique(col[order], return_index=True)
            self._blocks[key] = mpoly.SparseBlock(nrows - 1 - row[order], values[order],
                                                  columns, starts, ncols)
            self._entries[p] += len(values)
            for old in list(self._entries)[:-1]:
                if sum(self._entries.values()) <= CACHE_ENTRIES:
                    break
                del self._entries[old]
                self._blocks = {held: block for held, block in self._blocks.items()
                                if held[0] != old}
        return self._blocks[key]


_BLOCKS = _BlockCache()


# The live-slot cap of one batch of a chain stage, and of each array carried
# from one stage to the next.  A stage batch holds as many prefixes (rows,
# at the last stage of n >= 2) as fit: each counts the slots of every array
# the stage allocates for it (`_stage_slots`: its group tensor, its weight
# rows, the gathered block entries, the Toeplitz matrix of its rows after
# stage 1 and the next group tensor; at the last stage of n >= 2, its group
# tensor and weight rows only).  A prefix over the cap alone is a batch of
# one, and what a batch allocates stays within one and a half times the
# cap.  The array carried out of a stage holds the distinct prefixes of its
# run times the block's ncols slots, and `_runs` cuts each c group, at
# stage-1 prefixes only, so that every carried array stays within the cap,
# unless one stage-1 prefix alone exceeds it.  Two carried arrays and one
# batch are live at once, so a run allocates at most about 3.5 times the
# cap's 256 KiB of int64 slots.
BATCH_SLOTS = 2**15

# The bound of the block cache, in stored block entries (each an int64
# position and an int64 value, 16 bytes, so about 16 MiB).  The folded
# blocks of `main` (3,2) at p=17, c = 1..5, hold about 8.4 k entries
# (134 KB), and the three primes of a small sweep together 17 KB.
CACHE_ENTRIES = 2**20


# The padded (1-x)^n rows, one int64 table per (p, cap), and per n the
# index of its row in it (-1 while it has none): a row holds cap + 1 zeros,
# then the coefficients of (1-x)^n up to x^cap.  A table grows by the rows
# of the n a call asks for that it lacks, so it holds one row per distinct
# n asked for at its (p, cap): 2 (cap + 1) entries each, and not a row for
# every n below the largest, which at p near 2^15 would take gigabytes.
_PADDED: dict[tuple[int, int], tuple[np.ndarray, np.ndarray]] = {}


def _padded_powers(ctx: FpContext, cap: int, ns: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The padded table of (ctx.p, cap), and the index of the row of each n
    of ns in it; the rows it lacks are added first (Lucas binomials, so
    n >= p works)."""
    p, top = ctx.p, int(ns.max())
    index, table = _PADDED.get((p, cap)) or (np.zeros(0, dtype=np.int64),
                                             np.zeros((0, 2 * (cap + 1)), dtype=np.int64))
    if top < len(index) and index[ns].min() >= 0:
        return table, index[ns]
    index = np.append(index, np.full(max(top + 1 - len(index), 0), -1))
    asked = np.zeros(len(index), dtype=bool)
    asked[ns] = True
    new = np.flatnonzero(asked & (index < 0))
    index[new] = len(table) + np.arange(len(new))
    rows = [[0] * (cap + 1) + [(-1) ** j * binom(ctx, n, j) % p for j in range(cap + 1)]
            for n in new.tolist()]
    table = np.concatenate([table, np.array(rows, dtype=np.int64)])
    _PADDED[p, cap] = index, table
    return table, index[ns]


def _weight_rows(table: np.ndarray, cap: int, index: np.ndarray, e) -> np.ndarray:
    """Row t holds the coefficients of x^{e_t} (1-x)^{n_t} up to x^cap: row
    index[t] of the padded table of cap, that of n_t, from e_t slots before
    its first coefficient, in the zeros.  e is one exponent per row, as a
    column, or one for all rows."""
    return table[index[:, None], np.arange(cap + 1, 2 * cap + 2) - np.minimum(e, cap + 1)]


def _stage_slots(caps: list[int], parts: tuple[int, ...],
                 blocks: list[mpoly.SparseBlock]) -> list[int]:
    """The slots each stage allocates per prefix (see BATCH_SLOTS), for
    groups of these caps and sizes and the blocks the stages contract; the
    last stage of n >= 2 contracts no block and allocates, per row, its
    group tensor and weight rows only."""
    rows = [part * (cap + 1) for cap, part in zip(caps, parts)]  # at most one per variable
    slots = [(cap + 1) ** part + rows[i] + len(block.values) + (i > 0) * (cap + 1) ** 2
             + block.ncols for i, (cap, part, block) in enumerate(zip(caps, parts, blocks))]
    return slots + [(caps[-1] + 1) ** parts[-1] + rows[-1]] * (len(parts) > 1)


def _runs(new: np.ndarray, ncols: list[int]) -> list[tuple[int, int]]:
    """Cut the rows, sorted by prefix, into runs of consecutive rows of one
    c group, where new[t, 0] marks row t as the first of its c group and
    new[t, i+2] as the first of its stage-(i+1) prefix.  A c group is cut
    at stage-1 prefixes only: a run holds as many whole stage-1 prefixes as
    keep every array carried out of a stage, its distinct prefixes times
    ncols[i] slots, within BATCH_SLOTS; a stage-1 prefix over the cap alone
    is a run of its own."""
    bounds = np.append(np.flatnonzero(new[:, 0]), len(new))
    stages = new[:, 2:]
    whole = np.add.reduceat(stages, bounds[:-1], axis=0, dtype=np.int64) * ncols <= BATCH_SLOTS
    runs = []
    for begin, end, fits in zip(bounds[:-1].tolist(), bounds[1:].tolist(), whole.all(axis=1)):
        if fits:
            runs.append((begin, end))
            continue
        group = stages[begin:end]
        cuts = np.append(np.flatnonzero(group[:, 0]), len(group))
        # per cut, the carried slots of the prefixes that start before it
        carried = np.cumsum(np.vstack([np.zeros_like(group[:1]), group]), axis=0)[cuts] * ncols
        at = [0]
        while at[-1] < len(cuts) - 1:
            # the cuts within reach of the last are a prefix of the list
            reach = ((carried - carried[at[-1]]) <= BATCH_SLOTS).all(axis=1)
            at.append(max(at[-1] + 1, int(reach.sum()) - 1))
        runs += zip((begin + cuts[at[:-1]]).tolist(), (begin + cuts[at[1:]]).tolist())
    return runs


def _prefix_chain(new: np.ndarray, weights, blocks: list[mpoly.SparseBlock],
                  slots: list[int], p: int) -> np.ndarray:
    """The chain's value at each row of one run (`_runs`), stage by stage
    along the group chain (module docstring).  Stage i+1 contracts block
    i+1 once per distinct prefix, those whose first rows new[:, i] marks;
    weights(i, at) are the rows of group i+1's variables at the run's rows
    `at`, one array per variable with a row per prefix.  Stage 1 starts
    from the outer product of its rows, reduced only where block 1's
    contraction (`mpoly.contract`) could not sum its entries in int64; a
    later stage gathers each prefix's parent polynomial and multiplies it
    by its rows along its axes.  Each stage runs in
    batches under BATCH_SLOTS, by its own slots per prefix
    (`_stage_slots`).  With one group, block 1 leaves one slot per prefix.
    With n >= 2, the last stage reads, per row, the coefficient of x^T of
    the last group's polynomial times its rows (`mpoly.top_coefficient`),
    without forming the product."""
    ids = np.cumsum(new, axis=0) - 1  # per row, the index of its prefix at each stage
    for i, block in enumerate(blocks):
        first = np.flatnonzero(new[:, i])
        size = max(1, BATCH_SLOTS // slots[i])
        carried = np.empty((len(first), block.ncols), dtype=np.int64)
        for start in range(0, len(first), size):
            at = first[start:start + size]
            rows = weights(i, at)
            if i:
                shape = tuple(row.shape[1] for row in rows)
                poly = mpoly.multiply_along_axes(value[ids[at, i - 1]].reshape((-1,) + shape),
                                                 rows, p)
            else:
                # every slot of the outer product is a product of residues,
                # one per variable; an einsum product is the one array
                # allocated (a broadcast product would also allocate the
                # ufunc's buffers)
                poly, top = rows[0], p - 1  # top bounds the entries of poly
                terms = math.prod(row.shape[1] for row in rows)
                for row in rows[1:]:
                    poly = np.einsum("n...,nk->n...k", poly, row)
                    top *= p - 1
                    # so that the contraction's sums, and the next product,
                    # stay within int64 (`mpoly.contract` relies on it)
                    if terms * top * (p - 1) >= mpoly.INT64_LIMIT:
                        top = p - 1
                        mpoly.reduce_mod(poly, p)
            # the block's positions are stored reversed against the group
            # box, so the flat group tensor is read as it is
            carried[start:start + size] = mpoly.contract(poly.reshape(len(at), -1), block, p)
        value = carried
    if len(slots) == len(blocks):
        return value[ids[:, 0], 0]
    size = max(1, BATCH_SLOTS // slots[-1])
    values = np.empty(len(new), dtype=np.int64)
    for start in range(0, len(new), size):
        at = np.arange(start, min(start + size, len(new)))
        rows = weights(len(blocks), at)
        shape = tuple(row.shape[1] for row in rows)
        values[start:start + size] = mpoly.top_coefficient(
            value[ids[at, -1]].reshape((-1,) + shape), rows, p)
    return values


def _symmetric_groups(k: KComposition, shifts: list[list[tuple[int, int]]],
                      lowered: frozenset[LinearForm]) -> list[bool]:
    """Per group, whether `chain_integrals` folds it (`_BlockCache`): all its
    variables share one shift, and no pair in `lowered` names any of
    them."""
    named = {v for form in lowered for v in form.variables()}
    return [len(set(group)) == 1
            and named.isdisjoint(range(_flat_index(k, i, 1), _flat_index(k, i + 1, 1)))
            for i, group in enumerate(shifts, 1)]


def chain_integrals(k: KComposition, rows: np.ndarray, ctx: FpContext,
                    shifts: list[list[tuple[int, int]]],
                    lowered: frozenset[LinearForm] = frozenset()) -> np.ndarray:
    """The chain's value at each row (a, b_1, ..., b_n, c), in order, with
    variable j of group i+1 weighted by x^{a [i=0] + da} (1-x)^{b_{i+1} + db}
    for (da, db) = shifts[i][j].  After block i a value depends only on
    the prefix (c, a, b_1, ..., b_i), so the rows are sorted by the prefix
    of the last stage that contracts a block, (c, a, b_1, ..., b_{n-1}), or
    (c, a, b_1) when n = 1, which makes the rows of every stage's prefix
    adjacent; each c group is cut into runs (`_runs`), and each run goes
    stage by stage (`_prefix_chain`) on the blocks of c: blocks 1..n-1, or
    block 1 alone when n = 1, `lowered` going to block 1 (block n of n >= 2
    has no factors, so it is not built).  A stage's weight rows are one
    gather per distinct shift of a group from the padded table of the
    group's cap.

    Each symmetric group (`_symmetric_groups`) is folded once
    (`_BlockCache`): group 1 on block 1's rows, group i+1 on block i's
    columns.  What reads a folded side is symmetric in its group: group 1's
    outer product of identical weight rows; a middle group's product with
    its identical rows, then block i+1's rows, which no lowered pair
    touches; the last group's top coefficient.  So the sum over the group's
    box equals the orbit-weighted sum over the non-decreasing tuples, and
    the values are those of unfolded blocks.

    Raises PreconditionViolation unless the rows have width k.n + 2, shifts
    holds k.n groups and every pair in `lowered` is a pair factor of block
    1 (at c < p).  Then, before any point is evaluated: as
    `selberg_integral` at the first row that is no parameter point with
    c <= p (`_invalid`); NegativeExponent where a shift takes an
    exponent below 0, or at c = p with a cross pair in `lowered` (p - c = 0);
    and, before any block is built, CapacityExceeded exactly when the target
    box, of which every block and group polynomial is a sub-box, exceeds the
    slot budget.  It raises AccumulatorOverflow as the `mpoly` kernels, whose
    accumulation bounds (int64 for the contraction and the top coefficient,
    2^53 for the float64 row product) are per point."""
    if rows.shape[1] != k.n + 2 or len(shifts) != k.n:
        raise PreconditionViolation(f"rows of width {rows.shape[1]} and {len(shifts)} shift "
                                    f"groups for a composition of n={k.n}")
    p = ctx.p
    names = [f"t{j + 1}" for j in range(k.part(1))] + [f"s{j + 1}" for j in range(k.part(2))]
    # the pairs of block 1 (at c < p), and those _pair_factors keeps at c = p, the in-group ones
    block, kept = ({f for f, _ in _pair_factors(k.parts[:2], c, p)} for c in (1, p))
    unknown = sorted(f.variables() for f in lowered - block)
    if unknown:
        pair = "-".join(names[v] if v < len(names) else f"variable {v}" for v in unknown[0])
        raise PreconditionViolation(f"the lowered pair {pair} is no pair factor of block 1")
    cross = sorted(f.variables() for f in lowered - kept)
    _raise_at_first(rows, _invalid(rows, p),
                    lambda a, b, c: _check_point(k, ParamPoint(a, b, c), ctx))
    caps = [_group_cap(k, i, p) for i in range(1, k.n + 1)]
    values = np.zeros(len(rows), dtype=np.int64)
    if not len(rows):
        return values
    for i, group in enumerate(shifts):
        # the lowest exponents of x and of 1-x in group i+1, per row
        lowest = np.column_stack([rows[:, 0] * (i == 0), rows[:, 1 + i]]) + np.min(group, axis=0)
        if lowest.min() < 0:
            t, axis = divmod(int(lowest.argmin()), 2)
            raise NegativeExponent(f"row {tuple(rows[t].tolist())}: a shift takes the exponent "
                                   f"of {('x', '1-x')[axis]} in group {i + 1} to "
                                   f"{int(lowest[t, axis])}")
    if cross and (rows[:, -1] == p).any():
        (u, v), t = cross[0], int((rows[:, -1] == p).argmax())
        raise NegativeExponent(f"row {tuple(rows[t].tolist())}: the lowered cross pair "
                               f"{names[u]}-{names[v]} takes its exponent p - c = 0 to -1")
    _check_target_box(cycle_from_composition(k).targets(p))
    stages = max(k.n - 1, 1)  # the stages that contract a block
    keys = rows[:, [-1, *range(stages + 1)]]  # (c, a, b_1, ..., b_stages)
    order = np.lexsort(keys.T[::-1])
    rows, keys = rows[order], keys[order]
    # new[t, j]: row t is the first of its keys[t, :j+1]; column 0 starts a
    # c group, and column i+1 a prefix (c, a, b_1, ..., b_i) of stage i
    new = np.ones(keys.shape, dtype=bool)
    new[1:] = np.logical_or.accumulate(keys[1:] != keys[:-1], axis=1)
    # per group, its distinct shifts with their padded table and each row's
    # index in it, and per variable the index of its own shift
    distinct = [list(dict.fromkeys(group)) for group in shifts]
    which = [[kinds.index(shift) for shift in group] for kinds, group in zip(distinct, shifts)]
    padded = [[_padded_powers(ctx, cap, rows[:, 1 + i] + db) for _, db in kinds]
              for i, (cap, kinds) in enumerate(zip(caps, distinct))]

    def group_rows(offset, i, at):
        """The rows of group i+1's variables at the rows offset + at."""
        at = offset + at
        gathered = [_weight_rows(table, caps[i], index[at], rows[at, :1] + da if i == 0 else da)
                    for (da, _), (table, index) in zip(distinct[i], padded[i])]
        # one row object per distinct shift, repeated across its variables,
        # so that `mpoly.multiply_along_axes` reuses it
        return [gathered[t] for t in which[i]]

    # the slots of a polynomial carried out of each stage, those of the next
    # group (one slot when n = 1)
    ncols = [(cap + 1) ** part for cap, part in zip(caps[1:], k.parts[1:])] or [1]
    symmetric = _symmetric_groups(k, shifts, lowered)
    # per block i, whether it folds its rows (group 1, at i = 1 only) and its columns
    folds = [(i == 1 and symmetric[0], i < k.n and symmetric[i]) for i in range(1, stages + 1)]
    for start, stop in _runs(new, ncols):
        c = int(rows[start, -1])
        blocks = [_BLOCKS.block(k, i, c, ctx, lowered if i == 1 else frozenset(), folds[i - 1])
                  for i in range(1, stages + 1)]
        values[order[start:stop]] = _prefix_chain(
            new[start:stop, 2:], partial(group_rows, start), blocks,
            _stage_slots(caps, k.parts, blocks), p)
    return values


def point_rows(points: list[ParamPoint], n: int) -> np.ndarray:
    """The points, whose b all have length n, as int64 rows (a, b_1, ...,
    b_n, c)."""
    return np.array([(pt.a, *pt.b, pt.c) for pt in points],
                    dtype=np.int64).reshape(len(points), n + 2)


def row_points(rows: np.ndarray) -> list[ParamPoint]:
    """The rows (a, b_1, ..., b_n, c) as points."""
    return [ParamPoint(row[0], tuple(row[1:-1]), row[-1]) for row in rows.tolist()]


def _raise_at_first(rows: np.ndarray, flagged: np.ndarray, check) -> None:
    """Run `check(a, b, c)`, which raises at exactly the rows `flagged`
    marks, at the first of them; so a batch raises as that row would alone."""
    if flagged.any():
        a, *b, c = rows[flagged.argmax()].tolist()
        check(a, tuple(b), c)
        raise InvariantViolation(f"row {(a, *b, c)} is flagged but passes its check")


def _invalid(rows: np.ndarray, p: int) -> np.ndarray:
    """Per row, whether `ParamPoint` raises for it (a or a b below 0, or c
    below 1), or c exceeds p."""
    return (rows[:, :-1] < 0).any(axis=1) | (rows[:, -1] < 1) | (rows[:, -1] > p)


def selberg_integrals(k: KComposition, rows: np.ndarray, ctx: FpContext) -> np.ndarray:
    """The integral of master_polynomial(k, pt) over cycle_from_composition(k)
    at each row (a, b_1, ..., b_n, c), in order, as int64 residues: one
    `chain_integrals` call with every shift zero, which raises as
    `selberg_integral` at the first offending row's point."""
    if rows.shape[1] != k.n + 2:
        raise PreconditionViolation(f"b has length {rows.shape[1] - 2}, composition has n={k.n}")
    return chain_integrals(k, rows, ctx, [[(0, 0)] * part for part in k.parts])


def selberg_integral(k: KComposition, pt: ParamPoint, ctx: FpContext) -> FpElement:
    """`selberg_integrals` at one point."""
    return FpElement(int(selberg_integrals(k, point_rows([pt], pt.n), ctx)[0]), ctx)


# ---------------------------------------------------------------------------
# weighted integrals (two-group case)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AllowableTriple:
    """(l_1, l_2, m): valid when l_1 <= k_1-k_2+l_2, l_2 <= k_2, m <= min(l_1,l_2)."""

    l1: int
    l2: int
    m: int

    def __post_init__(self):
        if self.l1 < 0 or self.l2 < 0 or self.m < 0:
            raise PreconditionViolation("triple entries must be nonnegative")

    def check(self, k1: int, k2: int) -> None:
        if self.l1 > k1 - k2 + self.l2:
            raise NotAllowable(f"l1={self.l1} > k1-k2+l2={k1 - k2 + self.l2}")
        if self.l2 > k2:
            raise NotAllowable(f"l2={self.l2} > k2={k2}")
        if self.m > min(self.l1, self.l2):
            raise NotAllowable(f"m={self.m} > min(l1,l2)={min(self.l1, self.l2)}")


@dataclass(frozen=True)
class WeightSummand:
    """One (sigma, tau) term of the symmetrized weight function.

    Indices are 0-based within each group.  `pairs` are the (s_j, t_i)
    denominator pairs; they divide the cross factors of the integrand.
    """

    t_num: tuple[int, ...]
    t_one_minus: tuple[int, ...]
    s_one_minus: tuple[int, ...]
    pairs: tuple[tuple[int, int], ...]


def _summand(k1: int, k2: int, tr: AllowableTriple, sigma: tuple[int, ...],
             tau: tuple[int, ...]) -> WeightSummand:
    pairs = [(tau[b], sigma[b]) for b in range(tr.m)]
    pairs += [(tau[b], sigma[b + k1 - k2]) for b in range(tr.l2, k2)]
    return WeightSummand(
        t_num=sigma[:tr.l1],
        t_one_minus=sigma[tr.l1:],
        s_one_minus=tuple(tau[b] for b in range(k2) if b < tr.m or b >= tr.l2),
        pairs=tuple(pairs),
    )


def _check_summand_args(k1: int, k2: int, tr: AllowableTriple) -> None:
    if k1 < k2 or k2 < 0 or k1 < 1:
        raise PreconditionViolation(f"need k1 >= k2 >= 0, k1 >= 1, got ({k1}, {k2})")
    tr.check(k1, k2)


def weight_summands(k1: int, k2: int, tr: AllowableTriple) -> list[WeightSummand]:
    """All k_1! * k_2! permutation summands, enumerated explicitly, the
    identity (sigma, tau) first.

    weighted_integral needs only the identity summand (see there).
    """
    _check_summand_args(k1, k2, tr)
    return [_summand(k1, k2, tr, sigma, tau)
            for sigma in permutations(range(k1)) for tau in permutations(range(k2))]


def _weighted_flags(rows: np.ndarray, p: int, shifts, pairs) -> np.ndarray:
    """Per row (a, b1, b2, c) of parameter points with c <= p, whether
    `_check_weighted_point` raises there."""
    a, b1, b2, c = rows.T
    lowers = [any(shift[axis] < 0 for shift in group) for group in shifts for axis in (0, 1)]
    negative = ((a == 0) & lowers[0]) | ((b1 == 0) & lowers[1]) | ((b2 == 0) & lowers[3])
    return negative | ((c == p) & bool(pairs))


def _check_weighted_point(pt: ParamPoint, p: int, shifts, pairs) -> None:
    """Raise as the identity summand at pt would, b = (b1, b2): c <= p, no
    negative exponent (`shifts` as in `weighted_integrals`) and, at c = p,
    no denominator pair."""
    a, (b1, b2), c = pt.a, pt.b, pt.c
    if c > p:
        raise InvalidExponent(f"c={c} > p={p}")
    if not (a and b1 and b2):  # a shift lowers an exponent by at most one
        for name, x, b, group in zip("ts", (a, 0), (b1, b2), shifts):
            for j, (da, db) in enumerate(group):
                for what, e in ((f"{name}{j+1}", x + da), (f"1-{name}{j+1}", b + db)):
                    if e < 0:
                        raise NegativeExponent(f"{what} exponent {e} < 0")
    if pairs and c == p:  # _pair_factors leaves out the cross factors at c = p
        j, i = min(pairs)
        raise NegativeExponent(f"s{j+1}-t{i+1} exponent -1 < 0")


def weighted_integrals(k1: int, k2: int, tr: AllowableTriple, rows: np.ndarray,
                       ctx: FpContext) -> np.ndarray:
    """`weighted_integral` at each row (a, b1, b2, c), in order, as int64
    residues, in batches (`chain_integrals`).

    The identity summand divides the integrand by prod t_i (1-t_i)
    prod (1-s_j) and by its denominator pairs, which is done symbolically by
    lowering exponents by one; its numerator factors raise them back
    selectively.  So variable j of group i gets the shift (da, db) of
    `chain_integrals`: (-[j not in t_num], -[j not in t_one_minus]) for a t
    and (0, -[j not in s_one_minus]) for an s, and the same denominator
    pairs are one lower in block 1 at every point.  Requires a, b_1, b_2 >=
    1 so no exponent goes negative.  Raises for the arguments first, then,
    before any point is evaluated, as the first offending row would alone
    (`_invalid` and `_weighted_flags` mark them), then as `chain_integrals`.
    """
    p = ctx.p
    if k1 >= p or k2 >= p:
        raise PreconditionViolation("group sizes must be < p for the 1/(k1! k2!) factor")
    _check_summand_args(k1, k2, tr)
    sm = _summand(k1, k2, tr, tuple(range(k1)), tuple(range(k2)))
    shifts = [[(-(i not in sm.t_num), -(i not in sm.t_one_minus)) for i in range(k1)],
              [(0, -(j not in sm.s_one_minus)) for j in range(k2)]]
    if rows.shape[1] != 4:
        raise PreconditionViolation("weighted integrals take b = (b1, b2)")
    _raise_at_first(rows, _invalid(rows, p) | _weighted_flags(rows, p, shifts, sm.pairs),
                    lambda a, b, c: _check_weighted_point(ParamPoint(a, b, c), p, shifts,
                                                          sm.pairs))
    # each denominator pair (s_j, t_i) lowers its cross factor by one
    lowered = frozenset(LinearForm.diff(k1 + j, i) for j, i in sm.pairs)
    if not k2:  # the one group (k1,): no s variable, so b2 is not read
        return chain_integrals(KComposition((k1,)), rows[:, [0, 1, 3]], ctx, shifts[:1])
    return chain_integrals(KComposition((k1, k2)), rows, ctx, shifts, lowered)


def weighted_integral(k1: int, k2: int, tr: AllowableTriple, pt: ParamPoint,
                      ctx: FpContext) -> FpElement:
    """The integral I_{l1,l2,m}(a, b_1, b_2, c) for the two-group integrand:
    `weighted_integrals` at one point.

    I is 1/(k_1! k_2!) times the sum over the (sigma, tau) summands of
    `weight_summands`, and equals the identity summand alone, which is all
    that is evaluated.  The integrand without its weight is symmetric in
    the t's and in the s's (the in-group exponent 2c is even), and the
    (sigma, tau) summand is the identity summand with the t's relabelled
    by sigma and the s's by tau.  The cycle's target exponent is the same
    for every t and the same for every s, so relabelling inside a group
    does not move the extracted coefficient: all k_1! k_2! summands have
    the same integral, and the normalized sum is any one of them.  Without
    denominator pairs it runs on the blocks of `selberg_integrals`.
    """
    return FpElement(int(weighted_integrals(k1, k2, tr, point_rows([pt], pt.n), ctx)[0]), ctx)
