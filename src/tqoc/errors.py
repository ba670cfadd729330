"""Exception types shared across the package."""


class TqocError(Exception):
    """Base class for all package errors."""


class NotHermitianError(TqocError):
    """Matrix fails the Hermiticity tolerance."""


class BadTraceError(TqocError):
    """Density matrix or state vector violates the unit-trace condition."""


class DomainError(TqocError):
    """Scalar function applied outside its admissible spectral domain."""


class NotDensityMatrixError(TqocError):
    """Input is not Hermitian, positive semidefinite and unit trace."""


class OutOfRangeError(TqocError):
    """Time argument outside the control horizon."""


class GridMismatchError(TqocError):
    """Two trajectories do not share the same time grid."""


class BadAlphaError(TqocError):
    """Renyi order outside (0, 1) and (1, inf)."""


class DivergedError(TqocError):
    """Objective value exploded during optimization."""


class ConfigError(TqocError):
    """Experiment configuration is malformed or inconsistent."""
