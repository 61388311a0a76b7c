"""Symplectic spectra of positive definite matrices and block Toeplitz truncations.

The package bundles four layers: symplectic linear algebra (eigenvalues,
Williamson normal form, numerical-range edge), matrix-valued symbols on
the circle with their spectral curves, dense block Toeplitz truncations with
structural checks, and the spectral-average (entropy rates included),
counting and density experiments that tie truncation spectra to symbol-side
integrals.
"""

__version__ = "0.1.0"

from . import errors
from .core import (
    EdgeProbe,
    GMatrixCheck,
    WilliamsonFactorization,
    is_gmatrix,
    numerical_range_edge,
    random_symplectic,
    symplectic_eigenvalues,
    symplectic_form,
    symplectic_rayleigh,
    williamson,
)
from .entropy import (
    entropy_test_function,
    mode_entropy,
    mode_entropy_shannon,
    spectrum_entropy,
    state_entropy,
)
from .symbols import (
    GridSpec,
    GSymbolCheck,
    SampledSymbol,
    SymplecticCurves,
    TrigMatrixPolynomial,
    ab_family,
    constant_symbol,
    geometric_weights,
    is_g_symbol,
    is_partially_symmetric,
    min_symplectic_eigenvalue,
    sample,
    scalar_symbol,
    sup_norm,
    symbol_from_json,
    symbol_to_json,
    symplectic_curves,
)
from .szego import (
    CountingReport,
    DensityReport,
    MinTrajectory,
    SpectrumTrajectory,
    SzegoReport,
    TestFunction,
    convergence_report,
    counting_ratio,
    density_check,
    hat,
    indicator_smoothing,
    limit_measure,
    min_trajectory,
    monomial,
    polynomial,
    smoothed_counting,
    symbol_integral,
    szego_average,
    truncated_spectra,
)
from .toeplitz import (
    GChainCheck,
    QuadraticFormCheck,
    assemble,
    gchain_check,
    gchain_sweep,
    matrix_csv_bytes,
    quadratic_form_check,
)
