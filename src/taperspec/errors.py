"""Exception types shared across the package."""


class TaperspecError(Exception):
    """Base class for all errors raised by this package."""


class InvalidTaperError(TaperspecError, ValueError):
    """Taper function is negative, non-finite, or vanishes almost everywhere."""


class UnsupportedArityError(TaperspecError, ValueError):
    """Kernel order k is outside the supported set {2, 3}."""


class DomainError(TaperspecError, ValueError):
    """Parameter vector lies outside the model's admissible domain."""


class SizeGuardError(TaperspecError, ValueError):
    """Requested dense-matrix computation exceeds the size guard."""


class DivergenceError(TaperspecError, RuntimeError):
    """A population integral diverges: its integrand ~ |lam|^beta with beta <= -1."""


class SingularInformationError(TaperspecError, RuntimeError):
    """Information matrix is numerically singular at the evaluation point."""


class DegenerateSampleError(TaperspecError, ValueError):
    """Sample is too small or has zero variance for the requested diagnostic."""


class SchemaError(TaperspecError, ValueError):
    """Configuration file or CLI invocation violates the expected schema."""


class ReplicationError(TaperspecError, RuntimeError):
    """A replication of a study raised; the message names its index and seed."""
