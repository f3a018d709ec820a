"""Exception types shared across the package: one meaning per class."""


class MeasrepError(Exception):
    """Base class for all errors raised by measrep."""


class ShapeMismatch(MeasrepError):
    """An array argument of the wrong shape or content."""


class NotHermitian(MeasrepError):
    """Input to a Hermitian-only routine was not Hermitian within tolerance."""


class InvalidBounds(MeasrepError):
    """A scalar argument outside its range: a count, sample size,
    tolerance, target, bound or seed."""


class TrivialMeasurement(MeasrepError):
    """Every POVM element is proportional to the identity."""


class NotConverged(MeasrepError):
    """An iterative computation stopped without a result; Blahut-Arimoto's
    carries the best two-sided bounds computed so far."""

    def __init__(self, message, lower=None, upper=None):
        super().__init__(message)
        self.lower = lower
        self.upper = upper


class TooLarge(MeasrepError):
    """Input past the byte budget or a search, codebook or enumeration cap."""


class MalformedFile(MeasrepError):
    """Measurement file failed to parse against the JSON schema."""


class UnwritableFile(MeasrepError):
    """An ``--out`` path that cannot be written: a directory, say."""


class MalformedName(MeasrepError):
    """Measurement name that is neither a file nor a built-in, or a
    built-in with unparsable parameters (a usage error)."""


class InvalidMeasurement(MeasrepError):
    """A measurement that fails validation, Kraus normalisation included."""
