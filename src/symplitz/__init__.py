"""Symplectic spectra of positive definite matrices and block Toeplitz truncations.

The package bundles four layers: symplectic linear algebra (eigenvalues,
Williamson normal form, pair energies), matrix-valued symbols on
the circle with their spectral curves, dense block Toeplitz truncations with
structural checks, and the spectral-average and density experiments that tie
truncation spectra to symbol-side integrals.  Entropy rates and eigenvalue
counts are spectral averages too: of the per-mode entropy and of an interval
indicator.
"""

__version__ = "0.1.0"

from . import errors
from .core import (
    WilliamsonFactorization,
    random_symplectic,
    symplectic_eigenvalues,
    symplectic_form,
    symplectic_rayleigh,
    williamson,
)
from .entropy import mode_entropy
from .symbols import (
    GridSpec,
    SymplecticCurves,
    TrigMatrixPolynomial,
    ab_family,
    constant_symbol,
    from_samples,
    scalar_symbol,
    sup_norm,
    symplectic_curves,
)
from .szego import (
    DensityReport,
    SpectrumTrajectory,
    SzegoReport,
    TestFunction,
    convergence_report,
    density_check,
    hat,
    indicator,
    indicator_smoothing,
    monomial,
    polynomial,
    symbol_integral,
    szego_average,
    truncated_spectra,
)
from .toeplitz import (
    assemble,
    gchain_check,
    gchain_sweep,
    matrix_csv_bytes,
    truncation_spectrum,
)
