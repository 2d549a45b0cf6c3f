"""Exception types shared across the library.

Exceptions fall into three groups: bad user input (ValueError subclasses),
resource guards (budget / enumeration limits), and internal cross-check
failures that indicate an implementation bug rather than bad input.
"""


class ParseError(ValueError):
    """Malformed polynomial expression: syntax, unknown name, bad exponent."""


class NotMultihomogeneousError(ValueError):
    """A graded operation received an ideal with a non-multihomogeneous generator."""


class ExponentOverflow(OverflowError):
    """An exponent exceeded the 2^31 - 1 cap."""


class PairBudgetExceeded(RuntimeError):
    """The Buchberger pair budget ran out.

    Hard error, never silent truncation. ``stats`` carries partial-progress
    counters (pairs processed, basis size, pairs remaining).
    """

    def __init__(self, message: str, stats: dict):
        super().__init__(message)
        self.stats = dict(stats)


class EnumerationGuardError(RuntimeError):
    """A graded piece has more than 10^7 monomials to enumerate."""


class InvariantViolation(RuntimeError):
    """An internal dual-route or vanishing assertion failed.

    This never means invalid input; it means the implementation is wrong.
    """


class PresentationMismatch(ValueError):
    """A presentation matrix does not regenerate the declared map generators."""


class SamplingExhausted(RuntimeError):
    """Filter-regular resampling failed 10 times in a row for one slot."""

    def __init__(self, message: str, block: int, slot: int):
        super().__init__(message)
        self.block = block
        self.slot = slot
