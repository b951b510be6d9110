"""Exception types shared across the library.

Everything numerical derives from NumericsError so callers (and the CLI)
can distinguish invalid-parameter situations from plain usage mistakes.
"""


class NumericsError(ValueError):
    """Base class for numerical-validity errors."""


class ParameterError(NumericsError):
    """A parameter is outside the domain of the requested operation."""


class SizeError(NumericsError):
    """Grid or matrix size outside the supported range."""


class DegenerateFieldError(NumericsError):
    """Field is degenerate for the requested functional (e.g. zero norm)."""


class SingularCoefficientError(NumericsError):
    """A coefficient denominator vanishes."""


class StabilityError(NumericsError):
    """Parameters that are provably unstable (e.g. negative diffusion step)."""


class SpatialAmplificationError(NumericsError):
    """Sweep coefficient |s| >= 1: the solution grows along the sweep."""


class InvalidCoefficientError(NumericsError):
    """Constructed update coefficients violate their defining constraints."""


class NonFiniteResultError(NumericsError):
    """A scheme's output became non-finite (inf or nan)."""
