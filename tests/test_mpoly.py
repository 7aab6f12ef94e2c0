import itertools
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fpselberg import integrals
from fpselberg.errors import (AccumulatorOverflow, CapacityExceeded,
                              IndexOutOfCaps, InvalidExponent,
                              PreconditionViolation)
from fpselberg.gf import FpContext
from fpselberg.integrals import KComposition
from fpselberg.mpoly import (FactorProduct, LinearForm, SparseBlock,
                             TruncatedPoly, check_int64_sum, contract,
                             derivative, expand, extract_coefficient,
                             slot_budget, sparse_expand_oracle)


def test_linear_form_constructors():
    assert LinearForm.var(2) == LinearForm(0, ((2, 1),))
    assert LinearForm.one_minus(0) == LinearForm(1, ((0, -1),))
    assert LinearForm.diff(1, 3) == LinearForm(0, ((1, 1), (3, -1)))
    assert LinearForm.diff(1, 3).variables() == (1, 3)


def test_linear_form_validation():
    with pytest.raises(PreconditionViolation):
        LinearForm(0, ((0, 1), (1, 1), (2, 1)))
    with pytest.raises(PreconditionViolation):
        LinearForm(0, ((1, 1), (1, -1)))
    with pytest.raises(PreconditionViolation):
        LinearForm(0, ((-1, 1),))


def test_factor_product_validation():
    ctx = FpContext(5)
    with pytest.raises(InvalidExponent):
        FactorProduct(ctx, 2, ((LinearForm.var(0), -1),))
    with pytest.raises(PreconditionViolation):
        FactorProduct(ctx, 2, ((LinearForm.var(5), 1),))
    with pytest.raises(PreconditionViolation):
        FactorProduct(ctx, -1, ())


def test_expand_single_binomial():
    # (1 - x)^3 = 1 - 3x + 3x^2 - x^3 mod 5
    ctx = FpContext(5)
    fp = FactorProduct(ctx, 1, ((LinearForm.one_minus(0), 3),))
    poly = expand(fp, (3,))
    got = [int(poly.coefficient((i,))) for i in range(4)]
    assert got == [1, 2, 3, 4]
    sq = expand(FactorProduct(ctx, 1, ((LinearForm.one_minus(0), 2),)), (2,))
    assert [int(sq.coefficient((i,))) for i in range(3)] == [1, 3, 1]


def test_multiply_small_products():
    ctx = FpContext(5)
    prod = expand(FactorProduct(ctx, 1, ((LinearForm.one_minus(0), 1),
                                         (LinearForm(1, ((0, 1),)), 1))), (2,))  # 1 - x^2
    assert [int(prod.coefficient((i,))) for i in range(3)] == [1, 0, 4]
    ctx7 = FpContext(7)
    sq = expand(FactorProduct(ctx7, 2, ((LinearForm.diff(0, 1), 2),)), (2, 2))
    assert {m: int(sq.coefficient(m)) for m in [(2, 0), (1, 1), (0, 2)]} \
        == {(2, 0): 1, (1, 1): 5, (0, 2): 1}


def test_expand_known_bivariate_coefficient():
    # coefficient of x^4 y^4 in x(1-x)^3 (y-x)^3 (1-y)^2 over F_5
    ctx = FpContext(5)
    fp = FactorProduct(ctx, 2, (
        (LinearForm.var(0), 1),
        (LinearForm.one_minus(0), 3),
        (LinearForm.diff(1, 0), 3),
        (LinearForm.one_minus(1), 2),
    ))
    assert extract_coefficient(fp, (4, 4)) == 3
    assert int(expand(fp, (4, 4)).coefficient((4, 4))) == 3


def test_truncation_drops_high_monomials_only():
    ctx = FpContext(7)
    fp = FactorProduct(ctx, 1, ((LinearForm.one_minus(0), 5),))
    full = sparse_expand_oracle(fp)
    poly = expand(fp, (2,))
    for i in range(3):
        assert int(poly.coefficient((i,))) == full.get((i,), 0)
    with pytest.raises(IndexOutOfCaps):
        poly.coefficient((3,))


def test_exponent_at_or_above_p_uses_lucas_rows():
    # (1-x)^p = 1 - x^p mod p, so the row is sparse
    ctx = FpContext(7)
    fp = FactorProduct(ctx, 1, ((LinearForm.one_minus(0), 7),))
    poly = expand(fp, (7,))
    got = {i: int(poly.coefficient((i,))) for i in range(8)
           if int(poly.coefficient((i,)))}
    assert got == {0: 1, 7: 6}
    assert sparse_expand_oracle(fp) == {(0,): 1, (7,): 6}


def test_trinomial_factor():
    # 1 + x - y has three monomials; no integrand factor does, and the
    # engine expands binomial powers only
    with pytest.raises(PreconditionViolation):
        LinearForm(1, ((0, 1), (1, -1)))


def test_scalar_and_zero_factor():
    ctx = FpContext(5)
    fp = FactorProduct(ctx, 1, ((LinearForm(0, ()), 1),), scalar=3)
    # the form with no terms and zero constant is identically 0
    assert extract_coefficient(fp, (0,)) == 0
    fp2 = FactorProduct(ctx, 1, (), scalar=7)
    assert extract_coefficient(fp2, (0,)) == 2


def test_combined_product_matches_oracle_over_cap_box():
    ctx = FpContext(7)
    combined = FactorProduct(ctx, 2, ((LinearForm.var(0), 2), (LinearForm.one_minus(1), 1),
                                      (LinearForm.diff(0, 1), 2)))
    caps = (5, 4)
    poly = expand(combined, caps)
    full = sparse_expand_oracle(combined)
    for mono in itertools.product(*(range(c + 1) for c in caps)):
        assert int(poly.coefficient(mono)) == full.get(mono, 0), mono


def test_derivative_known():
    ctx = FpContext(7)
    coeffs = np.zeros((4, 3), dtype=np.int64)
    coeffs[3, 1], coeffs[1, 0] = 2, 5  # 2 x^3 y + 5 x
    poly = TruncatedPoly(ctx, (3, 2), coeffs)
    d0 = derivative(poly, 0)
    assert int(d0.coefficient((2, 1))) == 6
    assert int(d0.coefficient((0, 0))) == 5
    # the top slot along the derived axis has no incoming term and reads 0
    assert int(d0.coefficient((3, 1))) == 0


def test_derivative_frobenius_and_missing_variable():
    ctx = FpContext(5)
    x5 = expand(FactorProduct(ctx, 1, ((LinearForm.var(0), 5),)), (5,))
    assert derivative(x5, 0).nonzero_count() == 0  # d/dx x^5 = 5x^4 = 0
    # x (x + 3) = x^2 + 3x does not involve y
    x_only = expand(FactorProduct(ctx, 2, ((LinearForm.var(0), 1),
                                           (LinearForm(3, ((0, 1),)), 1))), (3, 3))
    assert x_only.nonzero_count() == 2
    assert derivative(x_only, 1).nonzero_count() == 0


def test_budget_env_override(monkeypatch):
    monkeypatch.setenv("FP_SELBERG_MEM_BUDGET", "10")
    assert slot_budget() == 10
    ctx = FpContext(5)
    fp = FactorProduct(ctx, 2, ((LinearForm.var(0), 1), (LinearForm.var(1), 1)))
    with pytest.raises(CapacityExceeded):
        expand(fp, (9, 9))
    monkeypatch.setenv("FP_SELBERG_MEM_BUDGET", "banana")
    with pytest.raises(PreconditionViolation):
        slot_budget()
    monkeypatch.setenv("FP_SELBERG_MEM_BUDGET", "-4")
    with pytest.raises(PreconditionViolation):
        slot_budget()
    monkeypatch.delenv("FP_SELBERG_MEM_BUDGET")
    assert slot_budget() == 2**30


def test_int64_accumulation_bound():
    # (p-1)^2 = 4 at p = 3: 2^61 products reach 2^63
    check_int64_sum(2**61 - 1, 3, "edge")
    with pytest.raises(AccumulatorOverflow):
        check_int64_sum(2**61, 3, "edge")


def _sparse(dense):
    """The SparseBlock of a dense matrix of residues."""
    col, row = np.nonzero(dense.T)  # column by column, rows ascending
    columns, starts = np.unique(col, return_index=True)
    return SparseBlock(row, dense[row, col], columns, starts, dense.shape[1])


def test_sparse_contraction_matches_dense_product():
    rng = np.random.default_rng(7)
    dense_cases = []
    for p in (5, 13, 101, 65521):
        for _ in range(20):
            shape = tuple(rng.integers(1, 30, size=2))
            dense = rng.integers(1, p, size=shape) * (rng.random(shape) < rng.random())
            dense[:, rng.integers(shape[1])] = 0  # at least one empty column
            dense_cases.append((p, dense))
        dense_cases.append((p, rng.integers(1, p, size=(17, 1))))  # one column
        one = np.zeros((9, 6), dtype=np.int64)
        one[4, 2] = p - 1
        dense_cases.append((p, one))  # one nonzero
        dense_cases.append((p, np.zeros((3, 4), dtype=np.int64)))
    for p, dense in dense_cases:
        block = _sparse(dense)
        assert len(block.values) == np.count_nonzero(dense)
        vector = rng.integers(0, p, size=len(dense))
        assert np.array_equal(contract(vector, block, p), vector @ dense % p), (p, dense)
    # block 1 of (3,2) at p=13 vanishes mod p for c=6: no entry is stored
    rows, block = integrals._BlockCache().block(KComposition((3, 2)), 1, 6, FpContext(13))
    assert len(block.values) == len(block.columns) == 0
    vector = np.arange(len(rows)) % 13
    assert np.array_equal(contract(vector, block, 13), np.zeros(block.ncols, dtype=np.int64))


def test_huge_exponent_raises_before_expanding():
    # 2^62 + 1 terms would overflow; the check runs before the row is built
    ctx = FpContext(5)
    fp = FactorProduct(ctx, 2, ((LinearForm.diff(0, 1), 2**62),))
    with pytest.raises(AccumulatorOverflow):
        extract_coefficient(fp, (4, 4))
    with pytest.raises(AccumulatorOverflow):
        expand(fp, (4, 4))


# --- randomized cross-checks against the sparse oracle ---------------------

@st.composite
def small_products(draw):
    p = draw(st.sampled_from([5, 7, 11]))
    ctx = FpContext(p)
    nv = draw(st.integers(1, 3))
    n_factors = draw(st.integers(1, 5))
    factors = []
    for _ in range(n_factors):
        kind = draw(st.integers(0, 3))
        if kind == 0:
            form = LinearForm.var(draw(st.integers(0, nv - 1)))
        elif kind == 1:
            form = LinearForm.one_minus(draw(st.integers(0, nv - 1)))
        elif kind == 2 and nv >= 2:
            i = draw(st.integers(0, nv - 2))
            form = LinearForm.diff(i, draw(st.integers(i + 1, nv - 1)))
        else:
            i = draw(st.integers(0, nv - 1))
            c0 = draw(st.integers(-2, 2))
            c1 = draw(st.integers(-2, 2).filter(bool))
            form = LinearForm(c0, ((i, c1),))
        factors.append((form, draw(st.integers(0, 6))))
    scalar = draw(st.integers(1, p - 1))
    caps = tuple(draw(st.integers(0, 8)) for _ in range(nv))
    return FactorProduct(ctx, nv, tuple(factors), scalar), caps


@settings(max_examples=60, deadline=None)
@given(small_products())
def test_truncated_expansion_matches_sparse_oracle(case):
    fp, caps = case
    poly = expand(fp, caps)
    full = sparse_expand_oracle(fp)
    seen = 0
    for mono, value in full.items():
        if all(m <= c for m, c in zip(mono, caps)):
            assert int(poly.coefficient(mono)) == value
            seen += 1
    assert poly.nonzero_count() == seen


@settings(max_examples=40, deadline=None)
@given(small_products(), st.randoms(use_true_random=False))
def test_expansion_is_factor_order_independent(case, rng):
    fp, caps = case
    shuffled = list(fp.factors)
    rng.shuffle(shuffled)
    fp2 = FactorProduct(fp.ctx, fp.num_vars, tuple(shuffled), fp.scalar)
    assert expand(fp, caps) == expand(fp2, caps)


@settings(max_examples=40, deadline=None)
@given(small_products())
def test_extract_agrees_with_expand(case):
    fp, caps = case
    poly = expand(fp, caps)
    assert extract_coefficient(fp, caps) == int(poly.coefficient(caps))


def test_oracle_term_limit():
    ctx = FpContext(7)
    fp = FactorProduct(ctx, 2, (
        (LinearForm.one_minus(0), 6), (LinearForm.one_minus(1), 6)))
    with pytest.raises(CapacityExceeded):
        sparse_expand_oracle(fp, max_terms=5)
