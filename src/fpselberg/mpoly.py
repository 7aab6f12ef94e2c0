"""Multivariate polynomial expansion over F_p with per-variable degree caps.

The central object is a `FactorProduct`: a scalar times a product of powers
of affine forms with at most two monomials (x_i, 1 - x_i, x_i - x_j), the
factors an F_p-Selberg integrand has.  Coefficient extraction works on a
dense numpy tensor truncated to per-variable caps.  Truncation is exact for
the coefficients it keeps: every factor has nonnegative exponents in every
variable, so monomials above a cap can never contribute back down to a
retained coefficient.

Two engines are provided:

* `expand`: the dense truncated engine.  Factors are multiplied in
  ascending variable order (single-variable factors first, then
  differences), growing one tensor axis at a time so intermediates stay as
  small as possible.  It builds the pair blocks of the chain in
  `integrals`.  `extract_coefficient` reads one coefficient of it, for
  `integrals.fp_integral`; like `expand`, it refuses a cap box over the
  slot budget.

* `sparse_expand_oracle`: a deliberately simple dict-of-monomials full
  expansion used as an independent cross-check and as the slow side of the
  benchmark comparison.  It shares no code with the engine: factor powers
  come from the multinomial theorem over the integers, reduced mod p.

Three steps serve evaluations that expand a point-independent block once
and reuse it for a batch of points (the group chain in `integrals`); axis 0
of their operands is the batch.  `multiply_along_axes` multiplies each
dense tensor of a batch by its own one-variable weight row per axis,
truncated to the axis length; `contract` sums each vector of a batch
against the rows of a block stored sparse, as a `SparseBlock` of its
nonzero entries; and `top_coefficient` reads the one coefficient at the
top slot of every axis of such a row product without forming it.

Every accumulation adds products of two residues, each at most (p-1)^2,
before it reduces mod p, and a batch never sums across its points.  The
engine, the contraction and the top coefficient sum in int64: a sum of N
such products is safe while N * (p-1)^2 < 2^63, which `check_int64_sum`
enforces before each step (N is the number of terms of a factor in the
engine, the vector length for a contraction, the axis length for the top
coefficient).  The row product sums in float64, so that numpy runs it as
a BLAS matmul: every partial sum of its N products (N the axis length) is
an integer of at most N * (p-1)^2, which float64 holds exactly, whatever the
order of addition, while N * (p-1)^2 < 2^53; `check_float64_sum` enforces
this.  The product is then converted back to int64 and reduced there.
Both checks raise AccumulatorOverflow.

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
FLOAT64_EXACT_LIMIT = 2**53  # every integer below it is a float64


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


def check_float64_sum(terms: int, p: int, what: str) -> None:
    """Raise AccumulatorOverflow unless `terms` products of residues mod p
    can be summed exactly in float64: terms * (p-1)^2 < 2^53."""
    if terms * (p - 1) ** 2 >= FLOAT64_EXACT_LIMIT:
        raise AccumulatorOverflow(
            f"{what}: {terms} products of residues mod {p} can exceed float64's exact integers")


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


def expand(fp: FactorProduct, caps: tuple[int, ...]) -> TruncatedPoly:
    """Full truncated expansion of a factor product.

    Each factor's product is written into a tensor whose axes of that
    factor's variables have grown to their full length, so an axis takes
    its cap length only when its first factor is multiplied in.  Raises
    CapacityExceeded when the cap box itself is over budget.
    """
    ctx, p = fp.ctx, fp.ctx.p
    caps = tuple(caps)
    nv = fp.num_vars
    if len(caps) != nv:
        raise PreconditionViolation(f"caps length {len(caps)} != num_vars {nv}")
    if any(c < 0 for c in caps):
        raise PreconditionViolation("caps must be nonnegative")
    budget = slot_budget()
    full_shape = tuple(c + 1 for c in caps)
    if math.prod(full_shape) > budget:
        raise CapacityExceeded(f"{math.prod(full_shape)} slots exceed budget {budget}")

    arr = np.full((1,) * nv, fp.scalar % p, dtype=np.int64)
    for form, e in _plan([(f, e) for f, e in fp.factors if e > 0]):
        # each slot receives at most one product (< p^2) per term
        check_int64_sum(_term_count(form, e, p), p, f"factor {form} ** {e}")
        shape = list(arr.shape)
        unshifted = [slice(None)] * nv  # arr's slots inside the grown axes
        for v in form.variables():
            shape[v] = full_shape[v]
            unshifted[v] = slice(0, arr.shape[v])
        new = np.zeros(shape, dtype=np.int64)
        for shifts, coeff in _factor_terms(ctx, form, e, caps):
            src, dst = unshifted.copy(), unshifted.copy()
            for axis, d in shifts:  # d <= caps[axis]: _factor_terms drops the rest
                n = min(arr.shape[axis], shape[axis] - d)
                src[axis], dst[axis] = slice(0, n), slice(d, d + n)
            new[tuple(dst)] += coeff * arr[tuple(src)]
        new %= p
        arr = new
    if arr.shape != full_shape:  # a variable no factor touches
        full = np.zeros(full_shape, dtype=np.int64)
        full[tuple(slice(0, s) for s in arr.shape)] = arr
        arr = full
    return TruncatedPoly(ctx, caps, arr)


def extract_coefficient(fp: FactorProduct, target: tuple[int, ...]) -> int:
    """Coefficient of the monomial with the given exponent vector, as an int:
    `expand(fp, target)` read at `target`."""
    return int(expand(fp, target).coefficient(tuple(target)))


def _check_rows(poly: np.ndarray, rows: list[np.ndarray]) -> None:
    """Raise unless rows[j] has one row per tensor of the batch `poly`, of
    the length of its axis j+1."""
    if (len(rows) != poly.ndim - 1
            or any(row.shape != (len(poly), n) for row, n in zip(rows, poly.shape[1:]))):
        raise PreconditionViolation(f"{len(rows)} rows do not fit axes of {poly.shape}")


def multiply_along_axes(poly: np.ndarray, rows: list[np.ndarray], p: int) -> np.ndarray:
    """Truncated product of a batch of dense tensors with rows[j](x_j) for
    every axis j, tensor by tensor.

    Axis 0 of `poly` is the batch; rows[j] holds one row per tensor, the
    coefficients of a one-variable polynomial, one per slot of axis j+1.
    Each axis is one product with the stack of upper-triangular Toeplitz
    matrices of its rows, taken over axis 1 with the new axis appended
    last, so the axes are back in their original order after ndim-1 steps.
    A rows object repeated on the next axis reuses its stack.  The products
    run in float64, exact under `check_float64_sum`, and are reduced mod p
    in int64; the result is int64.
    """
    _check_rows(poly, rows)
    batch = len(poly)
    for j, row in enumerate(rows):
        n = row.shape[1]
        if j == 0 or row is not rows[j - 1]:
            check_float64_sum(n, p, "row product")
            padded = np.zeros((batch, 2 * n - 1))
            padded[:, n - 1:] = row
            slots = np.arange(n)
            # [t, i, l] = row[t, l - i]
            toeplitz = padded[:, n - 1 + slots[None, :] - slots[:, None]]
        product = poly.reshape(batch, n, -1).transpose(0, 2, 1).astype(np.float64) @ toeplitz
        poly = product.astype(np.int64).reshape((batch,) + poly.shape[2:] + (n,))
        poly %= p
    return poly


def top_coefficient(poly: np.ndarray, rows: list[np.ndarray], p: int) -> np.ndarray:
    """The coefficient at the top slot T of every axis of the truncated
    product of a batch of dense tensors with rows[j](x_j), tensor by
    tensor: the sum over h of poly[t, h] prod_j rows[j][t, T_j - h_j].

    Axes and rows are as in `multiply_along_axes`.  The last axis is summed
    against its reversed row, in int64 under `check_int64_sum`, and reduced
    mod p, until one number per tensor is left.
    """
    _check_rows(poly, rows)
    batch = len(poly)
    for row in reversed(rows):
        n = row.shape[1]
        check_int64_sum(n, p, "top coefficient")
        poly = poly.reshape(batch, -1, n) @ row[:, ::-1, None]
        poly %= p
    return poly.reshape(batch)


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


def sparse_expand_oracle(fp: FactorProduct,
                         deadline_s: float | None = None) -> dict[tuple[int, ...], int]:
    """Reference full expansion into {exponent tuple: residue}, no truncation.

    Intentionally naive and independent of the engine: each factor power is
    expanded by the multinomial theorem over the integers (`math.comb`),
    reduced mod p, and multiplied in, in the given order, by schoolbook dict
    convolution.  The slot budget bounds its term count; `deadline_s` is a
    wall-clock limit used by the bench comparison.  Both abort with
    CapacityExceeded.
    """
    p, nv = fp.ctx.p, fp.num_vars
    limit = slot_budget()
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
