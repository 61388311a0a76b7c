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

    With a = d - 1/2 it is log1p(a) + a log1p(1/a): both terms are positive,
    so nothing cancels, and the value stays accurate to a few ulps from the
    boundary (a -> 0) to the top of the float range, where the closed form
    subtracts two terms of size a log a.  Accepts scalars or arrays; a
    complex, negative, NaN or infinite value raises DomainError.
    """
    arr = core._real(x, "symplectic eigenvalue")
    if np.any(arr < 0):
        raise DomainError(f"symplectic eigenvalue must be >= 0, got {float(arr.min())}")
    core._require_finite(arr, "symplectic eigenvalue")
    a = arr - 0.5
    with np.errstate(divide="ignore", invalid="ignore"):  # a <= 0 is masked below
        raw = np.divide(1.0, a, out=np.empty_like(a))  # an array (0-d for a scalar), written in place below
        np.log1p(raw, out=raw)
        raw *= a
        raw += np.log1p(a)
    out = np.where(a > 0.0, raw, 0.0)
    return float(out) if np.isscalar(x) else out
