"""Exception hierarchy shared by all srgraph modules.

Two families matter to callers: ``InputError`` for violated call
contracts (bad shapes, malformed values), and ``NumericalError`` for
computations that are well-posed but fail in floating point.  The CLI
maps them to distinct exit codes.
"""


class SrgError(ValueError):
    """Base class for all srgraph errors."""


class InputError(SrgError):
    """An argument violates the documented contract of an operation."""


class NumericalError(SrgError):
    """A numerically degenerate or failed computation."""


class OutOfDiskError(NumericalError):
    """A point lies outside the closed unit disk beyond the clamp tolerance."""


class FactorizationDegenerateError(NumericalError):
    """Numerator and denominator share an imaginary-axis zero (0/0 there)."""


class IllConditionedError(NumericalError):
    """A similarity transform is too ill-conditioned to trust."""
