"""Exception types shared across the package."""


class FpSelbergError(Exception):
    """Base class for all errors raised by this package."""


class OutOfRange(FpSelbergError):
    """A factorial argument fell outside [0, p).

    Carries the offending integer and a symbolic description of where it
    came from, so callers can report *which* factor of a product formula
    left the admissible range.
    """

    def __init__(self, argument: int, what: str | None = None):
        self.argument = argument
        self.what = what
        loc = f" ({what})" if what else ""
        super().__init__(f"factorial argument {argument} outside [0, p){loc}")


class PreconditionViolation(FpSelbergError):
    """An operation was called with parameters outside its stated domain."""


class CapacityExceeded(FpSelbergError):
    """An expansion would exceed the configured coefficient-slot budget."""


class IndexOutOfCaps(FpSelbergError):
    """A coefficient was requested beyond the truncation caps."""


class NotAllowable(FpSelbergError):
    """A weight-function index triple violates the allowability constraints."""


class NegativeExponent(FpSelbergError):
    """An exponent adjustment in a weighted integrand went below zero."""


class ZeroFactor(FpSelbergError):
    """A factor of a ratio product vanished mod p where it must not."""


class NoPath(FpSelbergError):
    """No admissible decrement path exists from the given point."""


class InvalidExponent(FpSelbergError):
    """A polynomial factor was given a negative exponent."""


class InvariantViolation(FpSelbergError):
    """An identity the code relies on failed: a bug, not bad input."""


class AccumulatorOverflow(FpSelbergError):
    """A sum of products of residues could leave the range its accumulator
    holds exactly: 2^63 for int64, 2^53 for the float64 row product."""
