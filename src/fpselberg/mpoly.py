"""Multivariate polynomial expansion over F_p with per-variable degree caps.

The central object is a `FactorProduct`: a scalar times a product of powers
of affine forms with at most two monomials (x_i, 1 - x_i, x_i - x_j), the
factors an F_p-Selberg integrand has.  Coefficient extraction works on a
dense numpy tensor truncated to per-variable caps.  Truncation is exact for
the coefficients it keeps: every factor has nonnegative exponents in every
variable, so monomials above a cap can never contribute back down to a
retained coefficient.

Two engines are provided:

* `expand` / `extract_coefficient`: the dense truncated engine.  Factors are
  multiplied in ascending variable order (single-variable factors first, then
  differences), growing one tensor axis at a time so intermediates stay as
  small as possible.  `expand` builds the pair blocks of the chain in
  `integrals`.  `extract_coefficient` additionally projects an axis to its
  target index as soon as no remaining factor touches that variable, which
  keeps the live tensor far below the full cap product for chained variable
  groups; it serves `integrals.fp_integral`, the per-point reference the
  tests compare the chain against, and the Dyson constant terms.

* `sparse_expand_oracle`: a deliberately simple dict-of-monomials full
  expansion used as an independent cross-check and as the slow side of the
  benchmark comparison.  It shares no code with the engine: factor powers
  come from the multinomial theorem over the integers, reduced mod p.

Two steps serve evaluations that expand a point-independent block once
and reuse it for a batch of points (the group chain in `integrals`); axis 0
of their operands is the batch.  `multiply_along_axes` multiplies each
dense tensor of a batch by its own one-variable weight row per axis,
truncated to the axis length, and `contract` sums each vector of a batch
against the rows of a block stored sparse, as a `SparseBlock` of its
nonzero entries.

Every accumulation adds products of two residues, each below p^2, in int64
before it reduces mod p.  A sum of N such products is safe while
N * (p-1)^2 < 2^63; `check_int64_sum` enforces this before each step (N is
the number of terms of a factor in the engine, the axis length for a row
product, the vector length for a contraction; a batch never sums across
its points) and raises AccumulatorOverflow otherwise.

The coefficient-slot budget (default 2^30 slots) can be overridden with the
FP_SELBERG_MEM_BUDGET environment variable.
"""

from __future__ import annotations

import math
import os
import time
from dataclasses import dataclass
from itertools import product
from typing import NamedTuple

import numpy as np

from .errors import (AccumulatorOverflow, CapacityExceeded, IndexOutOfCaps,
                     InvalidExponent, PreconditionViolation)
from .gf import FpContext, FpElement, binom

DEFAULT_SLOT_BUDGET = 2**30
_BUDGET_ENV = "FP_SELBERG_MEM_BUDGET"
INT64_LIMIT = 2**63


def slot_budget() -> int:
    """Current coefficient-slot budget (env override, else the default)."""
    raw = os.environ.get(_BUDGET_ENV)
    if raw is None:
        return DEFAULT_SLOT_BUDGET
    try:
        value = int(raw)
    except ValueError as exc:
        raise PreconditionViolation(f"{_BUDGET_ENV} must be an integer, got {raw!r}") from exc
    if value <= 0:
        raise PreconditionViolation(f"{_BUDGET_ENV} must be positive, got {value}")
    return value


def check_int64_sum(terms: int, p: int, what: str) -> None:
    """Raise AccumulatorOverflow unless `terms` products of residues mod p
    can be summed in int64 before reducing: terms * (p-1)^2 < 2^63."""
    if terms * (p - 1) ** 2 >= INT64_LIMIT:
        raise AccumulatorOverflow(
            f"{what}: {terms} products of residues mod {p} can overflow int64")


@dataclass(frozen=True)
class LinearForm:
    """constant + sum of coeff * x_var with at most two monomials: a constant
    and one variable term, or two variable terms and no constant (x, 1 - x,
    x - y), so every power of a form is one binomial row.

    Coefficients are stored as plain (possibly negative) ints and reduced
    mod p at expansion time, so forms are context-free and hashable.
    """

    constant: int = 0
    terms: tuple[tuple[int, int], ...] = ()

    def __post_init__(self):
        if len(self.terms) > 2 or (self.constant and len(self.terms) == 2):
            raise PreconditionViolation("a LinearForm has at most two monomials")
        vars_seen = [v for v, _ in self.terms]
        if len(set(vars_seen)) != len(vars_seen):
            raise PreconditionViolation("duplicate variable in LinearForm")
        if any(v < 0 for v in vars_seen):
            raise PreconditionViolation("negative variable index")

    @classmethod
    def var(cls, i: int) -> "LinearForm":
        return cls(0, ((i, 1),))

    @classmethod
    def one_minus(cls, i: int) -> "LinearForm":
        return cls(1, ((i, -1),))

    @classmethod
    def diff(cls, i: int, j: int) -> "LinearForm":
        """x_i - x_j."""
        return cls(0, ((i, 1), (j, -1)))

    def variables(self) -> tuple[int, ...]:
        return tuple(v for v, _ in self.terms)

    def remapped(self, perm: dict[int, int]) -> "LinearForm":
        return LinearForm(self.constant, tuple((perm[v], c) for v, c in self.terms))


@dataclass(frozen=True)
class FactorProduct:
    """scalar * product of LinearForm ** exponent in variables 0..num_vars-1."""

    ctx: FpContext
    num_vars: int
    factors: tuple[tuple[LinearForm, int], ...]
    scalar: int = 1

    def __post_init__(self):
        if self.num_vars < 0:
            raise PreconditionViolation("num_vars must be >= 0")
        for form, e in self.factors:
            if e < 0:
                raise InvalidExponent(f"negative exponent {e} on {form}")
            for v in form.variables():
                if v >= self.num_vars:
                    raise PreconditionViolation(
                        f"variable index {v} outside {self.num_vars} variables")
        object.__setattr__(self, "factors", tuple(self.factors))

    def permuted(self, perm: list[int]) -> "FactorProduct":
        """Relabel variable i as perm[i] everywhere (perm is a bijection)."""
        if sorted(perm) != list(range(self.num_vars)):
            raise PreconditionViolation("perm must be a permutation of the variables")
        mapping = dict(enumerate(perm))
        return FactorProduct(self.ctx, self.num_vars,
                             tuple((f.remapped(mapping), e) for f, e in self.factors),
                             self.scalar)


class TruncatedPoly:
    """Dense coefficient tensor truncated to per-variable caps."""

    __slots__ = ("ctx", "caps", "coeffs")

    def __init__(self, ctx: FpContext, caps: tuple[int, ...], coeffs: np.ndarray):
        self.ctx = ctx
        self.caps = tuple(caps)
        expected = tuple(c + 1 for c in self.caps)
        if coeffs.shape != expected:
            raise PreconditionViolation(f"coeff tensor shape {coeffs.shape} != caps+1 {expected}")
        self.coeffs = coeffs

    def coefficient(self, exponents: tuple[int, ...]) -> FpElement:
        if len(exponents) != len(self.caps):
            raise IndexOutOfCaps(f"expected {len(self.caps)} exponents, got {len(exponents)}")
        for e, cap in zip(exponents, self.caps):
            if e < 0 or e > cap:
                raise IndexOutOfCaps(f"exponent vector {exponents} outside caps {self.caps}")
        return FpElement(int(self.coeffs[tuple(exponents)]), self.ctx)

    def nonzero_count(self) -> int:
        return int(np.count_nonzero(self.coeffs))

    def __eq__(self, other):
        return (isinstance(other, TruncatedPoly) and self.ctx.p == other.ctx.p
                and self.caps == other.caps and bool(np.array_equal(self.coeffs, other.coeffs)))

    def __repr__(self):
        return f"TruncatedPoly(p={self.ctx.p}, caps={self.caps}, nnz={self.nonzero_count()})"


def derivative(poly: TruncatedPoly, var: int) -> TruncatedPoly:
    """Partial derivative along one variable, same caps (top slot zeroed)."""
    if var < 0 or var >= len(poly.caps):
        raise PreconditionViolation(f"variable {var} outside caps {poly.caps}")
    out = np.zeros_like(poly.coeffs)
    n = poly.caps[var]
    if n > 0:
        shape = [1] * len(poly.caps)
        shape[var] = n
        mult = np.arange(1, n + 1, dtype=np.int64).reshape(shape)
        src = tuple(slice(1, None) if i == var else slice(None) for i in range(len(poly.caps)))
        dst = tuple(slice(0, n) if i == var else slice(None) for i in range(len(poly.caps)))
        out[dst] = poly.coeffs[src] * mult % poly.ctx.p
    return TruncatedPoly(poly.ctx, poly.caps, out)


# ---------------------------------------------------------------------------
# expansion engine
# ---------------------------------------------------------------------------

def _monomials(form: LinearForm, p: int) -> list[tuple[int | None, int]]:
    """The nonzero monomials of a form mod p as (axis or None, residue)."""
    monos = []
    if form.constant % p:
        monos.append((None, form.constant % p))
    for v, c in form.terms:
        if c % p:
            monos.append((v, c % p))
    return monos


def _term_count(form: LinearForm, e: int, p: int) -> int:
    """The terms of form**e without expanding it: e+1 for a two-monomial
    form, else 1."""
    return e + 1 if len(_monomials(form, p)) == 2 else 1


def _factor_terms(ctx: FpContext, form: LinearForm, e: int, caps: tuple[int, ...]):
    """Expand form**e into [(shifts, coeff)] with shifts = ((axis, d), ...).

    A form has at most two monomials (see `LinearForm`); two get a Lucas
    binomial row (valid for e >= p).  Terms whose shift exceeds a cap are
    dropped -- they cannot contribute to any retained coefficient.
    """
    p = ctx.p
    monos = _monomials(form, p)
    if e == 0:
        return [((), 1)]
    if not monos:
        return []  # the zero form: annihilates the product
    if len(monos) == 1:
        axis, c = monos[0]
        coeff = pow(c, e, p)
        shifts = () if axis is None else ((axis, e),)
        if axis is not None and e > caps[axis]:
            return []
        return [(shifts, coeff)]
    # a constant comes first, so only the first monomial can lack an axis
    (ax_a, ca), (ax_b, cb) = monos
    out = []
    pow_a = 1
    pow_b = pow(cb, e, p)
    inv_cb = pow(cb, p - 2, p)
    for d in range(e + 1):
        coeff = binom(ctx, e, d) * pow_a % p * pow_b % p
        pow_a = pow_a * ca % p
        pow_b = pow_b * inv_cb % p
        if coeff == 0:
            continue
        if e - d > caps[ax_b] or (ax_a is not None and d > caps[ax_a]):
            continue
        shifts = []
        if ax_a is not None and d:
            shifts.append((ax_a, d))
        if e - d:
            shifts.append((ax_b, e - d))
        out.append((tuple(shifts), coeff))
    return out


def _plan(factors):
    """Multiplication order: ascending max variable, singles before pairs."""
    def key(item):
        form, _ = item
        vs = sorted(form.variables())
        return (max(vs) if vs else -1, len(vs), vs)
    return sorted(factors, key=key)


def _run_engine(fp: FactorProduct, caps: tuple[int, ...], project_targets: bool):
    """Shared core of expand/extract.  Returns the final tensor.

    With project_targets=True each axis is collapsed to its cap index as soon
    as its last factor has been multiplied in, so the return value is a tensor
    whose introduced axes all have length 1.
    """
    ctx, p = fp.ctx, fp.ctx.p
    nv = fp.num_vars
    if len(caps) != nv:
        raise PreconditionViolation(f"caps length {len(caps)} != num_vars {nv}")
    if any(c < 0 for c in caps):
        raise PreconditionViolation("caps must be nonnegative")
    budget = slot_budget()
    full_size = math.prod(c + 1 for c in caps)
    if not project_targets and full_size > budget:
        raise CapacityExceeded(f"{full_size} slots exceed budget {budget}")

    plan = _plan([(f, e) for f, e in fp.factors if e > 0])
    last_use = {}
    for idx, (form, _) in enumerate(plan):
        for v in form.variables():
            last_use[v] = idx

    arr = np.zeros((1,) * nv, dtype=np.int64)
    arr[(0,) * nv] = fp.scalar % p
    introduced = [False] * nv

    def introduce(vs):
        nonlocal arr
        new_shape = list(arr.shape)
        for v in vs:
            new_shape[v] = caps[v] + 1
        size = math.prod(new_shape)
        if size > budget:
            raise CapacityExceeded(f"{size} live slots exceed budget {budget}")
        new = np.zeros(new_shape, dtype=np.int64)
        new[tuple(slice(0, s) for s in arr.shape)] = arr
        arr = new
        for v in vs:
            introduced[v] = True

    for idx, (form, e) in enumerate(plan):
        fresh = [v for v in form.variables() if not introduced[v]]
        if fresh:
            introduce(fresh)
        # each slot receives at most one product (< p^2) per term
        check_int64_sum(_term_count(form, e, p), p, f"factor {form} ** {e}")
        terms = _factor_terms(ctx, form, e, caps)
        new = np.zeros_like(arr)
        for shifts, coeff in terms:
            src = [slice(None)] * nv
            dst = [slice(None)] * nv
            skip = False
            for axis, d in shifts:
                n = arr.shape[axis]
                if d >= n:
                    skip = True
                    break
                src[axis] = slice(0, n - d)
                dst[axis] = slice(d, None)
            if skip:
                continue
            new[tuple(dst)] += coeff * arr[tuple(src)]
        new %= p
        arr = new
        if project_targets:
            for v in form.variables():
                if last_use[v] == idx:
                    arr = np.take(arr, [caps[v]], axis=v)
    return arr, introduced


def expand(fp: FactorProduct, caps: tuple[int, ...]) -> TruncatedPoly:
    """Full truncated expansion of a factor product.

    Raises CapacityExceeded when the cap box itself is over budget.
    """
    arr, introduced = _run_engine(fp, tuple(caps), project_targets=False)
    if any(not done for done in introduced):
        full = np.zeros(tuple(c + 1 for c in caps), dtype=np.int64)
        full[tuple(slice(0, s) for s in arr.shape)] = arr
        arr = full
    return TruncatedPoly(fp.ctx, tuple(caps), arr)


def extract_coefficient(fp: FactorProduct, target: tuple[int, ...]) -> int:
    """Coefficient of the monomial with the given exponent vector, as an int.

    Equivalent to expand(fp, target).coefficient(target) but projects each
    variable out as soon as it is complete, so the live tensor stays small.
    """
    arr, introduced = _run_engine(fp, tuple(target), project_targets=True)
    for v, done in enumerate(introduced):
        if not done and target[v] > 0:
            return 0
    return int(arr.reshape(-1)[0])


def multiply_along_axes(poly: np.ndarray, rows: list[np.ndarray], p: int) -> np.ndarray:
    """Truncated product of a batch of dense tensors with rows[j](x_j) for
    every axis j, tensor by tensor.

    Axis 0 of `poly` is the batch; rows[j] holds one row per tensor, the
    coefficients of a one-variable polynomial, one per slot of axis j+1.
    Each axis is one product with the stack of upper-triangular Toeplitz
    matrices of its rows, taken over axis 1 with the new axis appended
    last, so the axes are back in their original order after ndim-1 steps.
    A rows object repeated on the next axis reuses its stack.
    """
    if (len(rows) != poly.ndim - 1
            or any(row.shape != (len(poly), n) for row, n in zip(rows, poly.shape[1:]))):
        raise PreconditionViolation(f"{len(rows)} rows do not fit axes of {poly.shape}")
    batch = len(poly)
    for j, row in enumerate(rows):
        n = row.shape[1]
        if j == 0 or row is not rows[j - 1]:
            check_int64_sum(n, p, "row product")
            padded = np.concatenate((np.zeros((batch, n - 1), dtype=np.int64), row), axis=1)
            slots = np.arange(n)
            # [t, i, l] = row[t, l - i]
            toeplitz = padded[:, n - 1 + slots[None, :] - slots[:, None]]
        poly = (poly.reshape(batch, n, -1).transpose(0, 2, 1) @ toeplitz % p).reshape(
            (batch,) + poly.shape[2:] + (n,))
    return poly


class SparseBlock(NamedTuple):
    """A matrix mod p by its nonzero entries, sorted by column: entry j is
    values[j] at row positions[j].  `columns` lists the nonempty columns in
    ascending order; the entries of column columns[m] start at starts[m]
    and run to the next start.  The matrix has ncols columns."""

    positions: np.ndarray
    values: np.ndarray
    columns: np.ndarray
    starts: np.ndarray
    ncols: int


def contract(vectors: np.ndarray, block: SparseBlock, p: int) -> np.ndarray:
    """vectors @ block mod p, one row of `vectors` per result row.  A column
    holds each block row at most once, so it sums at most vectors.shape[1]
    products; the empty columns are 0."""
    check_int64_sum(vectors.shape[1], p, "contraction")
    # np.take along the axis gathers a batch of one as fast as 1-D indexing
    entries = np.take(vectors, block.positions, axis=1)
    entries *= block.values
    out = np.zeros((len(vectors), block.ncols), dtype=np.int64)
    out[:, block.columns] = np.add.reduceat(entries, block.starts, axis=1)
    out %= p
    return out


def _oracle_power(form: LinearForm, e: int, p: int, nv: int) -> dict[tuple[int, ...], int]:
    """form**e by the multinomial theorem over the integers, reduced mod p."""
    out: dict[tuple[int, ...], int] = {}
    for js in product(range(e + 1), repeat=len(form.terms)):
        rest = e - sum(js)
        if rest < 0:
            continue
        coeff = form.constant ** rest
        mono = [0] * nv
        for (v, c), j in zip(form.terms, js):
            coeff *= math.comb(rest + j, j) * c ** j
            rest += j
            mono[v] = j
        if coeff % p:
            out[tuple(mono)] = coeff % p
    return out


def sparse_expand_oracle(fp: FactorProduct, max_terms: int | None = None,
                         deadline_s: float | None = None) -> dict[tuple[int, ...], int]:
    """Reference full expansion into {exponent tuple: residue}, no truncation.

    Intentionally naive and independent of the engine: each factor power is
    expanded by the multinomial theorem over the integers (`math.comb`),
    reduced mod p, and multiplied in, in the given order, by schoolbook dict
    convolution.  `max_terms` defaults to the slot budget; `deadline_s` is a
    wall-clock limit used by the bench comparison.  Both abort with
    CapacityExceeded.
    """
    p, nv = fp.ctx.p, fp.num_vars
    limit = slot_budget() if max_terms is None else max_terms
    t0 = time.monotonic()
    acc = {(0,) * nv: fp.scalar % p} if fp.scalar % p else {}
    ops = 0
    for form, e in fp.factors:
        if e == 0:
            continue
        power = _oracle_power(form, e, p, nv)
        new: dict[tuple[int, ...], int] = {}
        for mono, cm in acc.items():
            for shift, coeff in power.items():
                key = tuple(m + d for m, d in zip(mono, shift))
                new[key] = (new.get(key, 0) + cm * coeff) % p
                ops += 1
                if ops % 65536 == 0 and deadline_s is not None \
                        and time.monotonic() - t0 > deadline_s:
                    raise CapacityExceeded("sparse oracle exceeded its time limit")
        acc = {key: v for key, v in new.items() if v}
        if len(acc) > limit:
            raise CapacityExceeded(f"sparse oracle exceeded {limit} terms")
    return acc
