"""Prime-field arithmetic with range-checked factorials.

Everything downstream works over F_p for a small odd prime p (3 <= p < 2^15).
An `FpContext` owns the modulus and a full factorial table; `FpElement` is a
thin residue wrapper so formula code can be written with ordinary operators.
Factorials are only ever taken of integers in [0, p) -- `checked_factorial`
raises `OutOfRange` otherwise.  It and `sign_pow` serve the tests' per-factor
reference closed forms; `formulas` evaluates its products as term tables.
"""

from __future__ import annotations

from .errors import OutOfRange, PreconditionViolation

MAX_PRIME = 2**15


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


class FpContext:
    """Modulus, factorial table and element factory for one prime p."""

    __slots__ = ("p", "_fact")

    def __init__(self, p: int):
        if not (3 <= p < MAX_PRIME) or not is_prime(p):
            raise PreconditionViolation(f"p must be an odd prime with 3 <= p < 2^15, got {p}")
        self.p = p
        fact = [1] * p
        for i in range(1, p):
            fact[i] = fact[i - 1] * i % p
        self._fact = fact

    def element(self, x: int) -> "FpElement":
        return FpElement(x % self.p, self)

    @property
    def zero(self) -> "FpElement":
        return FpElement(0, self)

    @property
    def one(self) -> "FpElement":
        return FpElement(1, self)

    def inv(self, x: int) -> int:
        """Inverse of a nonzero residue, via Fermat."""
        x %= self.p
        if x == 0:
            raise ZeroDivisionError(f"0 is not invertible mod {self.p}")
        return pow(x, self.p - 2, self.p)

    def __eq__(self, other):
        return isinstance(other, FpContext) and other.p == self.p

    def __hash__(self):
        return hash(("FpContext", self.p))

    def __repr__(self):
        return f"FpContext(p={self.p})"


class FpElement:
    """A residue mod p tied to its context.

    Arithmetic accepts plain ints (reduced mod p) on either side; mixing
    elements of different contexts is an error.  Equality holds only between
    elements: an int equal to an element mod p could not hash like it (3 and
    10 both match 3 mod 7), so compare ``int(x)`` or ``ctx.element(n)``.
    """

    __slots__ = ("residue", "ctx")

    def __init__(self, residue: int, ctx: FpContext):
        self.residue = residue % ctx.p
        self.ctx = ctx

    def _coerce(self, other) -> int:
        if isinstance(other, FpElement):
            if other.ctx.p != self.ctx.p:
                raise PreconditionViolation(
                    f"mixing F_{self.ctx.p} and F_{other.ctx.p} elements")
            return other.residue
        if isinstance(other, int):
            return other % self.ctx.p
        return NotImplemented

    def __add__(self, other):
        r = self._coerce(other)
        if r is NotImplemented:
            return NotImplemented
        return FpElement(self.residue + r, self.ctx)

    __radd__ = __add__

    def __sub__(self, other):
        r = self._coerce(other)
        if r is NotImplemented:
            return NotImplemented
        return FpElement(self.residue - r, self.ctx)

    def __rsub__(self, other):
        r = self._coerce(other)
        if r is NotImplemented:
            return NotImplemented
        return FpElement(r - self.residue, self.ctx)

    def __mul__(self, other):
        r = self._coerce(other)
        if r is NotImplemented:
            return NotImplemented
        return FpElement(self.residue * r, self.ctx)

    __rmul__ = __mul__

    def __truediv__(self, other):
        r = self._coerce(other)
        if r is NotImplemented:
            return NotImplemented
        return FpElement(self.residue * self.ctx.inv(r), self.ctx)

    def __rtruediv__(self, other):
        r = self._coerce(other)
        if r is NotImplemented:
            return NotImplemented
        return FpElement(r * self.ctx.inv(self.residue), self.ctx)

    def __neg__(self):
        return FpElement(-self.residue, self.ctx)

    def __pow__(self, e: int):
        if e < 0:
            return FpElement(pow(self.ctx.inv(self.residue), -e, self.ctx.p), self.ctx)
        return FpElement(pow(self.residue, e, self.ctx.p), self.ctx)

    def __eq__(self, other):
        if isinstance(other, FpElement):
            return self.ctx.p == other.ctx.p and self.residue == other.residue
        return NotImplemented

    def __hash__(self):
        return hash((self.ctx.p, self.residue))

    def __int__(self):
        return self.residue

    def __bool__(self):
        return self.residue != 0

    def __repr__(self):
        return f"{self.residue} (mod {self.ctx.p})"


def checked_factorial(ctx: FpContext, n: int, what: str | None = None) -> FpElement:
    """n! mod p for 0 <= n < p; raises OutOfRange otherwise.

    `what` is an optional symbolic description of where the argument came
    from (e.g. "1+a+b1+(i+k1-2)c-p at i=2") and is embedded in the error.
    """
    if n < 0 or n >= ctx.p:
        raise OutOfRange(n, what)
    return FpElement(ctx._fact[n], ctx)


def sign_pow(ctx: FpContext, e: int) -> FpElement:
    """(-1)^e as a field element."""
    return ctx.one if e % 2 == 0 else ctx.element(-1)


def binom(ctx: FpContext, n: int, k: int) -> int:
    """Binomial coefficient C(n, k) mod p by Lucas' theorem.

    Valid for any n, k >= 0 (arguments at or above p are handled by the
    base-p digit product), which is what the expansion engine needs for
    exponents like b_i in [p, 2p).
    """
    if k < 0 or k > n:
        return 0
    p, fact = ctx.p, ctx._fact
    out = 1
    while n or k:
        nd, kd = n % p, k % p
        if kd > nd:
            return 0
        out = out * fact[nd] % p
        out = out * pow(fact[kd] * fact[nd - kd] % p, p - 2, p) % p
        n //= p
        k //= p
    return out
