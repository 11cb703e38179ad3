"""Exception and warning types shared across the toolkit.

All library errors derive from :class:`PseudoBosonError` so callers can
distinguish toolkit failures from built-in exceptions.
"""

__all__ = [
    "PseudoBosonError",
    "InvalidDimensionError",
    "DimensionMismatchError",
    "ValidationError",
    "NotInvertibleError",
    "ConditioningError",
    "DegenerateKernelError",
    "OrthogonalVacuaError",
    "ProvenanceError",
    "UnderResolvedError",
    "ConfigError",
    "AccuracyRegimeWarning",
    "UnderResolvedWarning",
]


class PseudoBosonError(Exception):
    """Base class for all toolkit errors."""


class InvalidDimensionError(PseudoBosonError):
    """Raised when a truncation dimension or cutoff is out of range."""


class DimensionMismatchError(PseudoBosonError):
    """Raised when an array's shape does not match its truncated space."""


class ValidationError(PseudoBosonError):
    """Raised when constructed data violates a structural invariant
    (non-finite entries, non-unit vectors, out-of-range arguments)."""


class NotInvertibleError(PseudoBosonError):
    """Raised when a map is numerically singular
    (smallest singular value below the absolute floor)."""


class ConditioningError(PseudoBosonError):
    """Raised when a map is invertible but its condition number exceeds
    the caller-supplied budget."""


class DegenerateKernelError(PseudoBosonError):
    """Raised when the two smallest singular values are too close to
    identify a one-dimensional kernel (ambiguous vacuum)."""


class OrthogonalVacuaError(PseudoBosonError):
    """Raised when the two extracted vacua are numerically orthogonal and
    cannot be normalized to unit pairing."""


class ProvenanceError(PseudoBosonError):
    """Raised when objects built from different Riesz maps are combined
    in a check that requires a shared provenance."""


class UnderResolvedError(PseudoBosonError):
    """Raised when a quadrature scheme fails its requirements for the
    requested truncation dimension: fewer nodes than an exact rule needs
    or a failed moment test."""


class ConfigError(PseudoBosonError):
    """Raised on malformed run configurations (unknown keys, bad schema
    version, invalid values)."""


class AccuracyRegimeWarning(UserWarning):
    """Issued when a displacement amplitude leaves the accuracy regime
    |z|^2 <= dim/4; results are still returned."""


class UnderResolvedWarning(UserWarning):
    """Issued when a quadrature scheme is applied to a space larger than
    the dimension it was built to resolve (negative-control runs)."""
