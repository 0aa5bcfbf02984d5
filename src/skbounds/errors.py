"""Exception types shared across the package."""


class SkboundsError(Exception):
    """Base class for all package errors."""


class CapExceededError(SkboundsError):
    """Instance is larger than a supported size cap."""


class InputFormatError(SkboundsError):
    """Malformed hypergraph document; carries the offending line number."""

    def __init__(self, message, line_no=None):
        if line_no is not None:
            message = f"line {line_no}: {message}"
        super().__init__(message)
        self.line_no = line_no


class InternalInvariantError(SkboundsError):
    """A mathematically guaranteed identity failed; this signals a bug."""
