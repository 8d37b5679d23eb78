"""Shared exception types with the CLI's error kind and exit code attached."""

from math import log10


class MalformedInputError(ValueError):
    """Input data violates a shape or schema precondition."""

    kind = "malformed-input"
    exit_code = 2


class JacobiError(MalformedInputError):
    """Structure constants fail the Jacobi identity; carries the offending triple."""

    def __init__(self, triple, value):
        self.triple = triple
        self.value = value
        super().__init__(
            f"Jacobi identity fails on basis triple {triple}: residual {value}"
        )


class HypothesisFailure(Exception):
    """The algebra is not nilpotent-by-semisimple, so d(L) is undefined here."""

    kind = "hypothesis-failure"
    exit_code = 3


class NotSemisimpleError(HypothesisFailure):
    """Killing form degenerate where a semisimple algebra was required."""


class NotSplitError(HypothesisFailure):
    """A simple component is not split over the rationals.

    Component dimensions can change under scalar extension, so we refuse
    to report a possibly-wrong exponent.
    """


class BudgetExceededError(Exception):
    """An exhaustive computation would exceed the configured budget."""

    kind = "budget-exceeded"
    exit_code = 4

    def __init__(self, message, required=None):
        self.required = required
        super().__init__(message)


def count_text(count: int) -> str:
    """A count for a message: in decimal below 10^30, else as "at least
    10^e", so that str() never meets an int past Python's 4300-digit
    conversion limit."""
    if count < 10**30:
        return str(count)
    e = int((count.bit_length() - 1) * log10(2))
    while 10 ** (e + 1) <= count:
        e += 1
    while 10**e > count:
        e -= 1
    return f"at least 10^{e}"


class InternalInvariantError(AssertionError):
    """A mathematically guaranteed invariant failed; indicates a bug."""

    kind = "internal-invariant-violation"
    exit_code = 5
