"""Exception hierarchy shared across the toolkit.

Every error raised on purpose derives from :class:`QacsimError`; callers can
tell bad input (:class:`ValidationError`) from exceeded size caps
(:class:`ResourceLimitError`) and failed accuracy contracts
(:class:`NumericalError`).
"""


class QacsimError(Exception):
    """Base class for all toolkit errors."""


class ValidationError(QacsimError):
    """Bad user input: out-of-range argument, malformed file, schema violation."""


class FormatError(ValidationError):
    """Malformed input file (graph, schedule, sample or config file)."""


class ResourceLimitError(QacsimError):
    """A brute-force or dense-matrix size cap was exceeded."""


class NumericalError(QacsimError):
    """An integrator or solver failed to meet its accuracy contract."""
