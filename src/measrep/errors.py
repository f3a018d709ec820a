"""Exception types shared across the package."""


class MeasrepError(Exception):
    """Base class for all errors raised by measrep."""


class ShapeMismatch(MeasrepError):
    """Matrix/vector dimensions are inconsistent with the declared factors."""


class NotHermitian(MeasrepError):
    """Input to a Hermitian-only routine was not Hermitian within tolerance."""


class InvalidBounds(MeasrepError):
    """Eigenvalue bounds or noise parameters outside their admissible range."""


class Unachievable(MeasrepError):
    """Requested expectation values cannot be realised by any state."""


class TrivialMeasurement(MeasrepError):
    """All POVM elements are proportional to the identity."""


class NotNormalized(MeasrepError):
    """Kraus operators do not sum to a trace-preserving map."""


class TooFewSamples(MeasrepError):
    """Monte Carlo sample count below the supported minimum."""


class NotConverged(MeasrepError):
    """Iteration hit its cap before reaching the requested gap.

    Carries the best two-sided bounds computed so far.
    """

    def __init__(self, message, lower=None, upper=None):
        super().__init__(message)
        self.lower = lower
        self.upper = upper


class TooLarge(MeasrepError):
    """Input past the byte budget or a search, codebook or enumeration cap."""


class MalformedFile(MeasrepError):
    """Measurement file failed to parse against the JSON schema."""


class MalformedName(MeasrepError):
    """Measurement name that is neither a file nor a built-in, or a
    built-in with unparsable parameters (a usage error)."""


class InvalidMeasurement(MeasrepError):
    """Parsed measurement failed validation."""
