import math

import pytest
from hypothesis import given, strategies as st

from fpselberg.errors import OutOfRange, PreconditionViolation
from fpselberg.gf import FpContext, binom, checked_factorial, is_prime, sign_pow


def test_context_rejects_non_primes():
    for bad in (0, 1, 2, 4, 6, 9, 15, 2**15 + 1):
        with pytest.raises(PreconditionViolation):
            FpContext(bad)


def test_context_accepts_odd_primes():
    for p in (3, 5, 7, 11, 13, 101):
        assert FpContext(p).p == p


def test_element_arithmetic_mod_7():
    ctx = FpContext(7)
    x, y = ctx.element(3), ctx.element(5)
    assert int(x + y) == 1
    assert int(x - y) == 5
    assert int(x * y) == 1
    assert int(x / y) == int(x * ctx.element(3))  # 5^-1 = 3 mod 7
    assert int(-x) == 4
    assert int(x ** 2) == 2
    assert int(2 - x) == 6
    assert int(x) == 3 and x == ctx.element(10)


def test_division_by_zero_raises():
    ctx = FpContext(5)
    with pytest.raises(ZeroDivisionError):
        ctx.element(2) / ctx.element(0)
    with pytest.raises(ZeroDivisionError):
        ctx.inv(0)


@given(st.sampled_from([5, 7, 11, 13]), st.integers(1, 10**6))
def test_inverse_property(p, x):
    ctx = FpContext(p)
    if x % p == 0:
        return
    assert (ctx.element(x) * ctx.element(ctx.inv(x))) == ctx.one


@given(st.sampled_from([5, 7, 11, 13]), st.integers(-50, 50), st.integers(-50, 50))
def test_ring_laws(p, x, y):
    ctx = FpContext(p)
    a, b = ctx.element(x), ctx.element(y)
    assert a + b == b + a
    assert a * b == b * a
    assert a - b == -(b - a)
    assert int(a * (b + 1)) == int(a * b + a)


def test_factorials_match_math_factorial():
    ctx = FpContext(13)
    for n in range(13):
        assert int(checked_factorial(ctx, n)) == math.factorial(n) % 13


def test_checked_factorial_out_of_range():
    ctx = FpContext(7)
    for bad in (-1, 7, 100):
        with pytest.raises(OutOfRange) as exc:
            checked_factorial(ctx, bad, "test arg")
        assert exc.value.argument == bad
        assert "test arg" in str(exc.value)


def test_sign_pow():
    ctx = FpContext(11)
    assert sign_pow(ctx, 0) == ctx.one
    assert sign_pow(ctx, 7) == ctx.element(-1)
    assert sign_pow(ctx, 10**9) == ctx.one
    assert sign_pow(ctx, -2) == ctx.one
    assert sign_pow(ctx, -3) == ctx.element(-1)


def test_wilson_cancellation_exhaustive_small_primes():
    # a! b! = (-1)^(a+1) whenever a + b = p - 1
    for p in (5, 7, 11, 13):
        ctx = FpContext(p)
        for a in range(p):
            b = p - 1 - a
            prod = checked_factorial(ctx, a) * checked_factorial(ctx, b)
            assert prod == sign_pow(ctx, a + 1)


def test_binom_small_values():
    ctx = FpContext(7)
    for n in range(7):
        for k in range(n + 1):
            assert binom(ctx, n, k) == math.comb(n, k) % 7


def test_binom_lucas_beyond_p():
    ctx = FpContext(5)
    for n in range(5, 30):
        for k in range(n + 1):
            assert binom(ctx, n, k) == math.comb(n, k) % 5


def test_is_prime():
    primes = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29}
    for n in range(2, 30):
        assert is_prime(n) == (n in primes)


def test_element_hash_and_bool():
    ctx = FpContext(5)
    assert hash(ctx.element(2)) == hash(ctx.element(7))
    assert not ctx.zero
    assert ctx.one
    assert ctx.element(3) != FpContext(7).element(3)


def test_element_equality_is_hash_consistent():
    ctx = FpContext(7)
    x = ctx.element(3)
    assert x == ctx.element(10) and hash(x) == hash(ctx.element(10))
    assert x != 3 and x != 10
    assert len({x, 3}) == 2 and len({x, ctx.element(10)}) == 1
