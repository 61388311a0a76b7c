"""Von Neumann entropy of Gaussian covariance matrices.

The entropy of a covariance matrix is a sum of per-mode contributions, one
per symplectic eigenvalue: f(d) = (d + 1/2) log(d + 1/2) - (d - 1/2) log(d - 1/2)
above the pure-state boundary d = 1/2 and zero at or below it.  Every value
is in nats (natural logarithms); a unit is the caller's, and the
entropy-rate verb's base field is the one place that rescales to bits.
mode_entropy only measures; validity is the caller's verdict, on
``symplectic_curves(symbol, grid).min()`` against 1/2.  The entropy rate
of a stationary chain is the Szego limit of the per-mode entropy:
``szego.convergence_report(symbol, szego.TestFunction("entropy", mode_entropy), ns, curves)``.
"""

import numpy as np

from . import core
from .errors import DomainError


def mode_entropy(x):
    """Entropy contribution of a single symplectic eigenvalue.

    Evaluated through log1p of the offset above 1/2, which stays accurate
    right at the boundary where the two terms of the closed form cancel.
    Accepts scalars or arrays; a complex, negative, NaN or infinite value
    raises DomainError.
    """
    arr = core._real(x, "symplectic eigenvalue")
    if np.any(arr < 0):
        raise DomainError(f"symplectic eigenvalue must be >= 0, got {float(arr.min())}")
    core._require_finite(arr, "symplectic eigenvalue")
    a = arr - 0.5
    with np.errstate(divide="ignore", invalid="ignore"):
        raw = (1.0 + a) * np.log1p(a) - a * np.log(a)
    out = np.where(a > 0.0, raw, 0.0)
    return float(out) if np.isscalar(x) else out
