"""Exception hierarchy.

Errors are split by what the caller can do about them: ``ArgumentError``
means the inputs are malformed (wrong shapes, bad flags), while
``StructureError`` means the inputs are well-formed but violate a
mathematical hypothesis (membership, feasibility, pairing closure,
spectral disjointness).  File and format problems raise ``FormatError``.
"""


class SpecPreserveError(Exception):
    """Base class for all library errors."""


class ArgumentError(SpecPreserveError):
    """Raised when an argument is structurally invalid (shape, type, flag)."""


class StructureError(SpecPreserveError):
    """Raised when a mathematical precondition fails.

    Carries the violated condition's name, its measured residual and the
    threshold it failed, so callers (and the CLI) can report what broke.
    """

    def __init__(self, condition, message, residual=None, threshold=None):
        self.condition = condition
        self.residual = residual
        self.threshold = threshold
        super().__init__(message)


class RealnessError(SpecPreserveError):
    """Raised when an output promised to be real has a large imaginary part."""

    def __init__(self, message, imag_magnitude):
        self.imag_magnitude = imag_magnitude
        super().__init__(message)


class InfeasiblePlanError(SpecPreserveError):
    """Raised by the instance generator for spectrum plans that violate
    eigenvalue pairing or cannot be realized for the requested space."""


class FormatError(SpecPreserveError):
    """Raised for unreadable or inconsistent matrix/job files."""
