"""Exception types shared across the package, and `raise_first`."""

import numpy as np


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


def raise_first(rows: np.ndarray, conditions) -> None:
    """Raise what the first offending row of rows would raise alone.

    conditions are (flags, error) pairs in the order a row is checked:
    flags marks the rows that fail it (a bool: all or none), and
    error(*entries) of such a row returns its exception, or raises it as a
    scalar check; a scalar check that returns raises InvariantViolation."""
    flags = np.zeros((len(conditions), len(rows)), dtype=bool)
    for i, (flag, _) in enumerate(conditions):
        flags[i] = flag
    offending = flags.any(axis=0)
    if offending.any():
        t = int(offending.argmax())
        row = rows[t].tolist()
        error = conditions[int(flags[:, t].argmax())][1](*row)
        if isinstance(error, Exception):
            raise error
        raise InvariantViolation(f"row {tuple(row)} is flagged but passes its check")
