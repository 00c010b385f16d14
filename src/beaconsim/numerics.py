"""Numerical building blocks: the Gaussian tail and diversity-slope fits.

Detection events in this package reduce to Gaussian tail probabilities of
the form Q(sqrt(2 a rho g)) for channel gains g, and diversity orders are
read off averaged error probabilities as the decay rate of a power law
fitted in log-log space.
"""

from __future__ import annotations

import math
from typing import Iterable

import numpy as np
from scipy.special import erfc

__all__ = [
    "gaussian_q",
    "fit_diversity_slope",
]

_SQRT2 = math.sqrt(2.0)


def gaussian_q(x):
    """Gaussian tail probability Q(x) = P(Z > x) for standard normal Z.

    Accepts scalars or numpy arrays. Q(inf) = 0 and Q(-inf) = 1; NaN input
    raises ValueError.  Evaluated as 0.5 * erfc(x / sqrt(2)) in one fresh
    array, never in x's own buffer.
    """
    arr = np.asarray(x, dtype=float)
    if np.isnan(arr).any():
        raise ValueError("gaussian_q: NaN input")
    out = np.divide(arr, _SQRT2, out=np.empty(arr.shape))
    erfc(out, out=out)
    out *= 0.5
    if np.ndim(x) == 0:
        return float(out)
    return out


def fit_diversity_slope(rho: Iterable[float], p: Iterable[float]) -> tuple[float, float]:
    """Least-squares slope of log p against log rho, negated, with the RMS
    residual of the fit.

    The returned order is positive for decaying curves; the residual is in
    natural-log units and gauges how well a pure power law describes p(rho).
    """
    rho = np.asarray(list(rho), dtype=float)
    p = np.asarray(list(p), dtype=float)
    if rho.shape != p.shape or rho.size < 2:
        raise ValueError("fit_diversity_slope: need >= 2 matching points")
    if not ((rho > 0).all() and (p > 0).all()):
        raise ValueError("fit_diversity_slope: rho and p must be positive")
    x = np.log(rho)
    if x.min() == x.max():
        raise ValueError("fit_diversity_slope: log rho has zero spread")
    y = np.log(p)
    xc = x - x.mean()
    slope = float(np.dot(xc, y - y.mean()) / np.dot(xc, xc))
    resid = y - (y.mean() + slope * xc)
    return -slope, float(np.sqrt(np.mean(resid * resid)))
