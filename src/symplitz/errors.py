"""Exception types shared across the package."""


class SymplitzError(Exception):
    """Base class for every error raised by this package."""


class InvalidDimensionError(SymplitzError, ValueError):
    """Dimension is unusable: zero, odd, non-square, or mismatched."""


class SymmetryError(SymplitzError, ValueError):
    """Input expected to be symmetric (or skew-symmetric) is not."""


class PositivityError(SymplitzError, ValueError):
    """Input expected to be positive definite is not.

    Carries the offending smallest eigenvalue in ``min_eigenvalue`` and,
    when the failure happened inside a batch or on a grid, its location
    in ``where``.  Every one the package raises is built by ``report``.
    """

    def __init__(self, message, min_eigenvalue=None, where=None):
        super().__init__(message)
        self.min_eigenvalue = min_eigenvalue
        self.where = where

    @classmethod
    def report(cls, subject: str, min_eigenvalue: float, where=None) -> "PositivityError":
        """The one positive-definiteness report: ``{subject} is not positive definite (min eigenvalue ...)``."""
        return cls(f"{subject} is not positive definite (min eigenvalue {min_eigenvalue:.6e})", min_eigenvalue, where)


class PairingError(SymplitzError, ArithmeticError):
    """Eigenvalues that should come in identical pairs failed to pair up."""


class DegeneratePairError(SymplitzError, ValueError):
    """Vector pair has numerically zero symplectic pairing."""


class GridError(SymplitzError, ValueError):
    """Angle is not a node of the sampling grid, or grids are incompatible."""


class AliasingError(SymplitzError, ValueError):
    """Requested Fourier mode is not resolvable on the sampling grid."""


class TruncationSizeError(SymplitzError, ValueError):
    """Requested dense truncation exceeds the configured size guard."""


class WeightError(SymplitzError, ValueError):
    """Invalid probability weights for a two-matrix symbol family."""


class DomainError(SymplitzError, ValueError):
    """Value lies outside the admissible domain of the evaluated function."""


class IndexRangeError(SymplitzError, IndexError):
    """Requested spectrum index does not exist at the given truncation."""
