"""Exception hierarchy shared by all modules."""


class OpenWaringError(Exception):
    """Base class for all errors raised by this package."""


class InvalidInputError(OpenWaringError):
    """Malformed or out-of-contract input (CLI exit code 2)."""


class ParseError(InvalidInputError):
    """Text does not conform to the form grammar."""


class NonHomogeneousError(ParseError):
    """Parsed polynomial mixes degrees; carries the offending monomials."""

    def __init__(self, message, offending=()):
        super().__init__(message)
        self.offending = tuple(offending)


class OutOfDomainError(InvalidInputError):
    """A bound was queried outside the range where it is claimed."""


class RetryBudgetError(OpenWaringError):
    """Random genericity search exhausted its retry budget (CLI exit 3).

    Retriable: a different seed or a larger budget may succeed.  Carries the
    algorithm trace accumulated so far.
    """

    def __init__(self, message, trace=()):
        super().__init__(message)
        self.trace = tuple(trace)


class DegenerateSystemError(OpenWaringError):
    """A polynomial system expected to be finite has a positive-dimensional
    zero locus."""


class NonTransversalError(OpenWaringError):
    """Two curves meet with multiplicity; the caller is expected to resample."""


class CommonComponentError(OpenWaringError):
    """Two curves share a component, so their intersection is not finite."""


class NoFitError(OpenWaringError):
    """The target form is not in the span of the given powers."""


class ConsistencyError(OpenWaringError):
    """An internal invariant that should hold by construction failed.

    Never caught internally: indicates a genuine bug or numerically
    unsalvageable input, not a retriable event.
    """
