import itertools
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import reference_engine as ref
from fpselberg import integrals
from fpselberg.errors import (AccumulatorOverflow, CapacityExceeded,
                              IndexOutOfCaps, InvalidExponent,
                              PreconditionViolation)
from fpselberg.gf import FpContext
from fpselberg.integrals import KComposition
from fpselberg.mpoly import (FactorProduct, LinearForm, SparseBlock,
                             check_float64_sum, check_int64_sum, contract,
                             expand, extract_coefficient,
                             multiply_along_axes, slot_budget,
                             sparse_expand_oracle, top_coefficient)


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


def test_float64_exact_sum_bound():
    # (p-1)^2 = 4 at p = 3: 2^51 products reach 2^53, where float64 stops
    # holding every integer
    check_float64_sum(2**51 - 1, 3, "edge")
    with pytest.raises(AccumulatorOverflow):
        check_float64_sum(2**51, 3, "edge")


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
        # a batch of vectors, one result row each; a batch of one included
        vectors = rng.integers(0, p, size=(rng.integers(1, 5), len(dense)))
        assert np.array_equal(contract(vectors, block, p), vectors @ dense % p), (p, dense)
        # a reversed view, as the block chain passes it
        assert np.array_equal(contract(vectors[:, ::-1], block, p),
                              vectors[:, ::-1] @ dense % p), (p, dense)
    # block 1 of (3,2) at p=13 vanishes mod p for c=6: no entry is stored
    block = integrals._BlockCache().block(KComposition((3, 2)), 1, 6, FpContext(13))
    assert len(block.values) == len(block.columns) == 0
    vectors = np.arange(2 * 13**3).reshape(2, -1) % 13
    assert np.array_equal(contract(vectors, block, 13), np.zeros((2, block.ncols), dtype=np.int64))


def _truncated_product(poly, rows, p):
    """One tensor times rows[j](x_j) on every axis, by one truncated
    convolution per line of each axis."""
    for axis, row in enumerate(rows):
        poly = np.apply_along_axis(lambda line: np.convolve(line, row)[:len(row)] % p, axis, poly)
    return poly


def test_batched_row_product_matches_per_tensor_convolution():
    rng = np.random.default_rng(3)
    cases = []
    for p in (5, 13, 101):
        for shape in ((1, 7), (3, 7), (4, 5, 5), (2, 6, 3, 4)):
            poly = rng.integers(0, p, size=shape)
            rows = [rng.integers(0, p, size=(shape[0], n)) for n in shape[1:]]
            if shape[1:] == (5, 5):
                rows[1] = rows[0]  # a repeated rows object reuses its Toeplitz stack
            cases.append((p, poly, rows))
    # the largest prime: with every entry p-1, a slot of a 64-slot axis sums
    # 64 products of (p-1)^2, about 2^36, exact in float64 below 2^53
    p = 32749
    for shape in ((2, 64), (2, 64, 64), (3, 17, 64, 5)):
        cases.append((p, np.full(shape, p - 1, dtype=np.int64),
                      [np.full((shape[0], n), p - 1, dtype=np.int64) for n in shape[1:]]))
    for p, poly, rows in cases:
        got = multiply_along_axes(poly, rows, p)
        for t in range(len(poly)):
            expect = _truncated_product(poly[t], [row[t] for row in rows], p)
            assert np.array_equal(got[t], expect), (p, poly.shape, t)
    with pytest.raises(PreconditionViolation):
        multiply_along_axes(np.ones((2, 3), dtype=np.int64), [np.ones((1, 3), dtype=np.int64)], 5)


def _top_sum(poly, rows, p):
    """sum over h of poly[h] prod_j rows[j][T_j - h_j] mod p for one tensor,
    T_j the top slot of axis j, by plain Python over every slot."""
    total = 0
    for h in itertools.product(*(range(n) for n in poly.shape)):
        term = int(poly[h])
        for row, h_j in zip(rows, h):
            term *= int(row[len(row) - 1 - h_j])
        total += term
    return total % p


def test_top_coefficient_matches_the_slot_sum():
    rng = np.random.default_rng(11)
    cases = []
    for p in (5, 13, 101):
        # one to three axes of different lengths, a batch of one and of several
        for shape in ((1, 6), (4, 6), (1, 5, 3), (3, 4, 7), (1, 3, 4, 2), (5, 4, 2, 3)):
            poly = rng.integers(0, p, size=shape)
            # the rows differ between the variables, and between the tensors
            rows = [rng.integers(0, p, size=(shape[0], n)) for n in shape[1:]]
            cases.append((p, poly, rows))
    # every entry p-1 at the largest prime: a 64-slot axis sums about 2^36
    p = 32749
    cases.append((p, np.full((2, 64, 64), p - 1, dtype=np.int64),
                  [np.full((2, 64), p - 1, dtype=np.int64)] * 2))
    for p, poly, rows in cases:
        got = top_coefficient(poly, rows, p)
        assert got.shape == (len(poly),)
        for t in range(len(poly)):
            assert got[t] == _top_sum(poly[t], [row[t] for row in rows], p), (p, poly.shape, t)
        # the top slot of the whole truncated row product
        product = multiply_along_axes(poly, rows, p)
        assert np.array_equal(got, product.reshape(len(poly), -1)[:, -1]), (p, poly.shape)
    with pytest.raises(PreconditionViolation):
        top_coefficient(np.ones((2, 3), dtype=np.int64), [np.ones((1, 3), dtype=np.int64)], 5)


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
@given(small_products(), st.data())
def test_extract_agrees_with_expand(case, data):
    # the tests' projecting reference engine, which shares no code with
    # `expand`, at the cap corner and at one slot inside the caps
    fp, caps = case
    poly = expand(fp, caps)
    inner = tuple(data.draw(st.integers(0, cap)) for cap in caps)
    for target in (caps, inner):
        assert ref.coefficient(fp, target) == int(poly.coefficient(target)), target


def test_oracle_term_limit(monkeypatch):
    ctx = FpContext(7)
    fp = FactorProduct(ctx, 2, (
        (LinearForm.one_minus(0), 6), (LinearForm.one_minus(1), 6)))
    monkeypatch.setenv("FP_SELBERG_MEM_BUDGET", "5")
    with pytest.raises(CapacityExceeded, match="sparse oracle exceeded 5 terms"):
        sparse_expand_oracle(fp)
