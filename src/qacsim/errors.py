"""Exception hierarchy shared across the toolkit.

Every error raised on purpose derives from :class:`QacsimError`; callers can
tell bad input (:class:`ValidationError`) from exceeded size caps
(:class:`ResourceLimitError`) and failed accuracy contracts
(:class:`NumericalError`).
"""

__all__ = ["QacsimError", "ValidationError", "ResourceLimitError", "NumericalError"]


class QacsimError(Exception):
    """Base class for all toolkit errors."""


class ValidationError(QacsimError):
    """Bad user input: an out-of-range or inconsistent argument."""


class ResourceLimitError(QacsimError):
    """A brute-force or dense-matrix size cap was exceeded."""


class NumericalError(QacsimError):
    """An integrator or solver failed to meet its accuracy contract."""
