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

Neither `selberg_integral` nor `weighted_integral` expands the whole
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
nonzero slots of total degree D in the kept rows, as a `mpoly.SparseBlock`
(1 048 of 692 055 for that block at c=1; see `_BlockCache`); no dense block
is ever allocated.  Per point, the value is carried along the chain
(`_chain`) as a polynomial in one group: multiply each axis by its
variable's weight row, the coefficients of x^alpha (1-x)^beta (Lucas
binomials, so beta >= p works), reverse it, and contract it with the sparse
block, which leaves the coefficient of x^T in group i as a polynomial in
group i+1.  After block n only the number
is left.  A module-level cache holds the blocks of one (p, c); asking for
another (p, c) drops them, so callers that evaluate many points should visit
them grouped by c, as `harness.run_campaign` does.

`selberg_integral` gives every variable of group i the row x^a (1-x)^{b_1}
(group 1) or (1-x)^{b_i}, so its blocks keep one row per symmetric orbit.
`weighted_integral` evaluates the identity summand alone (argument in its
docstring): a row per variable, full-row blocks, and the cross factors of
its denominator pairs one lower in block 1.  `fp_integral`, one expansion
of a whole integrand, is the independent path that tests compare against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
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


def _degrees(n_axes: int, length: int) -> np.ndarray:
    """Total degree of every flat index of an n_axes cube with the given side."""
    return np.indices((length,) * n_axes).sum(axis=0).reshape(-1)


class _BlockCache:
    """Sparse pair blocks of one (p, c), keyed by (k_{i-1}, k_i, k_{i+1}),
    the lowered pairs and the row choice.

    Holding one (p, c) bounds memory: the blocks of another c are dropped
    before any of the new ones is built.  A block without lowered pairs is
    symmetric in the variables of each of its groups; when the polynomial
    contracted with it is too, only the group-i rows with non-decreasing
    exponents are kept, each times the number of exponent tuples it stands
    for (`mpoly.symmetric_rows`): k_i! fewer rows for distinct exponents.

    A block is a product of differences, so it is homogeneous of degree D,
    the sum of its exponents.  It is expanded with its last variable set to
    1, over the other axes only (one axis smaller than the block); the
    coefficient of the block at a slot of total degree D is the expanded
    one at the slot's other exponents, and every other slot is 0.  So only
    the slots of total degree D are visited: with the columns sorted by
    degree, the columns of a kept row of degree d are the one run of degree
    D - d.  The nonzero ones are stored as a `mpoly.SparseBlock`; neither
    the full block box nor an array of kept rows times columns is ever
    allocated.
    """

    def __init__(self):
        self._pc: tuple[int, int] | None = None
        self._blocks: dict[tuple, tuple[np.ndarray, mpoly.SparseBlock]] = {}

    def block(self, k: KComposition, i: int, c: int, ctx: FpContext,
              lowered: frozenset[LinearForm] = frozenset(),
              full_rows: bool = False) -> tuple[np.ndarray, mpoly.SparseBlock]:
        """(rows, block): the kept flat group-i indices, and the block as a
        matrix of those rows (by position in `rows`) times the flat group-(i+1)
        slots, counts folded in.  The pair factors in `lowered` are one
        lower; full_rows keeps every row."""
        p = ctx.p
        if self._pc != (p, c):
            self._pc, self._blocks = (p, c), {}
        key = (k.part(i - 1), k.part(i), k.part(i + 1), lowered, full_rows)
        if key not in self._blocks:
            sizes = (k.part(i), k.part(i + 1))
            lengths = (_group_cap(k, i, p) + 1, _group_cap(k, i + 1, p) + 1)
            caps = (lengths[0] - 1,) * sizes[0] + (lengths[1] - 1,) * sizes[1]
            last = sum(sizes) - 1
            factors, degree = _dehomogenized(
                [(f, e - (f in lowered))
                 for f, e in _pair_factors(sizes, c, p, first_in_group=i == 1)], last)
            dehom = mpoly.expand(FactorProduct(ctx, last, tuple(factors)),
                                 caps[:-1]).coeffs.reshape(-1)
            # full rows: group i as one flat axis, each entry its own orbit
            axes = (1, lengths[0] ** sizes[0]) if full_rows else (sizes[0], lengths[0])
            rows, counts = mpoly.symmetric_rows(*axes)
            col_degrees = _degrees(sizes[1], lengths[1])
            # the (kept row, column) slots of total degree D: with the columns
            # sorted by degree, kept row r has the run[r] of them from first[r]
            by_degree = np.argsort(col_degrees, kind="stable")
            sorted_degrees = col_degrees[by_degree]
            wanted = degree - _degrees(sizes[0], lengths[0])[rows]
            first = np.searchsorted(sorted_degrees, wanted, "left")
            run = np.searchsorted(sorted_degrees, wanted, "right") - first
            r = np.repeat(np.arange(len(rows)), run)
            # entry j of the runs laid end to end is sorted column
            # first[r] + (j - the entries of the rows before r)
            col = by_degree[np.arange(len(r)) + np.repeat(first - (np.cumsum(run) - run), run)]
            # a slot's flat index in the block box, less its last axis, indexes `dehom`
            values = dehom[(rows[r] * len(col_degrees) + col) // (caps[-1] + 1)] * counts[r] % p
            keep = np.flatnonzero(values)
            keep = keep[np.argsort(col[keep], kind="stable")]
            columns, starts = np.unique(col[keep], return_index=True)
            self._blocks[key] = (rows, mpoly.SparseBlock(r[keep], values[keep], columns,
                                                         starts, len(col_degrees)))
        return self._blocks[key]


_BLOCKS = _BlockCache()


def _weight_row(ctx: FpContext, a: int, b: int, cap: int) -> np.ndarray:
    """Coefficients of x^a (1-x)^b up to x^cap; Lucas binomials allow b >= p."""
    p = ctx.p
    row = np.zeros(cap + 1, dtype=np.int64)
    for d in range(a, min(a + b, cap) + 1):
        coeff = binom(ctx, b, d - a)
        row[d] = coeff if (d - a) % 2 == 0 else -coeff % p
    return row


def _chain(k: KComposition, c: int, ctx: FpContext, rows: list[list[np.ndarray]],
           lowered: frozenset[LinearForm] = frozenset(),
           full_rows: bool = False) -> FpElement:
    """The integral over cycle_from_composition(k) of the pair factors of k
    times rows[i-1][j](x) for the j-th variable x of each group i, along the
    group chain (module docstring); `lowered` goes to block 1, `full_rows`
    to every block.

    Raises CapacityExceeded exactly when the target box exceeds the slot
    budget; every block and every group polynomial is a sub-box of it.
    """
    _check_target_box(cycle_from_composition(k).targets(ctx.p))
    p = ctx.p
    value = np.zeros((_group_cap(k, 1, p) + 1,) * k.part(1), dtype=np.int64)
    value[(0,) * k.part(1)] = 1
    for i in range(1, k.n + 1):
        value = mpoly.multiply_along_axes(value, rows[i - 1], p)
        kept, block = _BLOCKS.block(k, i, c, ctx, lowered if i == 1 else frozenset(),
                                    full_rows)
        value = mpoly.contract(np.flip(value).reshape(-1)[kept], block, p)
        value = value.reshape((_group_cap(k, i + 1, p) + 1,) * k.part(i + 1))
    return FpElement(int(value), ctx)


def selberg_integral(k: KComposition, pt: ParamPoint, ctx: FpContext) -> FpElement:
    """The integral of master_polynomial(k, pt) over cycle_from_composition(k):
    one weight row per group on orbit-reduced blocks (raises as `_chain`)."""
    _check_point(k, pt, ctx)
    rows = [[_weight_row(ctx, pt.a if i == 1 else 0, pt.b[i - 1], _group_cap(k, i, ctx.p))]
            * k.part(i) for i in range(1, k.n + 1)]
    return _chain(k, pt.c, ctx, rows)


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


def weighted_integral(k1: int, k2: int, tr: AllowableTriple, pt: ParamPoint,
                      ctx: FpContext) -> FpElement:
    """The integral I_{l1,l2,m}(a, b_1, b_2, c) for the two-group integrand.

    I is 1/(k_1! k_2!) times the sum over the (sigma, tau) summands of
    `weight_summands`, and equals the identity summand alone, which is all
    that is evaluated.  The integrand without its weight is symmetric in
    the t's and in the s's (the in-group exponent 2c is even), and the
    (sigma, tau) summand is the identity summand with the t's relabelled
    by sigma and the s's by tau.  The cycle's target exponent is the same
    for every t and the same for every s, so relabelling inside a group
    does not move the extracted coefficient: all k_1! k_2! summands have
    the same integral, and the normalized sum is any one of them.

    The summand divides the integrand by prod t_i (1-t_i) prod (1-s_j) and
    by its denominator pairs, which is done symbolically by decrementing
    exponents; the numerator factors increment them back selectively.
    Requires a, b_1, b_2 >= 1 so no exponent goes negative.  It runs the
    chain on full-row blocks, since its rows differ within a group.
    """
    p = ctx.p
    if k1 >= p or k2 >= p:
        raise PreconditionViolation("group sizes must be < p for the 1/(k1! k2!) factor")
    if pt.n != 2:
        raise PreconditionViolation("weighted integrals take b = (b1, b2)")
    a, (b1, b2), c = pt.a, pt.b, pt.c
    if c > p:
        raise InvalidExponent(f"c={c} > p={p}")
    _check_summand_args(k1, k2, tr)
    sm = _summand(k1, k2, tr, tuple(range(k1)), tuple(range(k2)))
    k = KComposition((k1, k2) if k2 else (k1,))

    def exponent(base: int, bump: bool, what: str) -> int:
        e = base + bump
        if e < 0:
            raise NegativeExponent(f"{what} exponent {e} < 0")
        return e

    rows = [[_weight_row(ctx, exponent(a - 1, i in sm.t_num, f"t{i+1}"),
                         exponent(b1 - 1, i in sm.t_one_minus, f"1-t{i+1}"),
                         _group_cap(k, 1, p)) for i in range(k1)],
            [_weight_row(ctx, 0, exponent(b2 - 1, j in sm.s_one_minus, f"1-s{j+1}"),
                         _group_cap(k, 2, p)) for j in range(k2)]]
    if sm.pairs and c == p:  # _pair_factors leaves out the cross factors at c = p
        j, i = min(sm.pairs)
        raise NegativeExponent(f"s{j+1}-t{i+1} exponent -1 < 0")
    # each denominator pair (s_j, t_i) lowers its cross factor by one
    lowered = frozenset(LinearForm.diff(k1 + j, i) for j, i in sm.pairs)
    return _chain(k, c, ctx, rows[:k.n], lowered, full_rows=True)
