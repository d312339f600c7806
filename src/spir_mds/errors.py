"""Exception types shared across the package."""


class SpirError(Exception):
    """Base class for all package errors."""


class SingularSystem(SpirError):
    """Linear system has rank below its dimension."""


class InvalidParams(SpirError, ValueError):
    """Parameter combination violates a structural constraint."""


class FieldTooSmall(InvalidParams):
    """Field has too few elements for the requested code construction."""


class DimensionMismatch(SpirError, ValueError):
    """Operand shapes are inconsistent."""


class BadShareCount(SpirError, ValueError):
    """Reconstruction called with the wrong number of node shares."""


class TooFewFiles(InvalidParams):
    """Symmetric retrieval needs at least two files in the database."""


class DecodeFailure(SpirError):
    """Decoded output disagrees with the stored file (construction bug)."""


class UniverseTooLarge(SpirError):
    """An exact audit exceeds the configured ceiling, or a Monte Carlo screen its memory or table budget."""
