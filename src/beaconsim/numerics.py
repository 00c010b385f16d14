"""Numerical building blocks: Gaussian tail, deep-fade integral, slope fits.

Detection events in this package reduce to Gaussian tail probabilities of
the form Q(sqrt(2 a rho g)) for channel gains g, and the high-SNR behaviour
of averaged error probabilities is governed by integrals of products
prod_i(1 - exp(-k_i v^2 / rho)) against the normal density, which decay as
rho^-M for M factors.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

import numpy as np
from scipy.special import erfc

__all__ = [
    "gaussian_q",
    "deep_fade_integral",
    "alternating_binomial_moment",
    "fit_diversity_slope",
]

_MAX_MOMENT_ORDER = 20


def gaussian_q(x):
    """Gaussian tail probability Q(x) = P(Z > x) for standard normal Z.

    Accepts scalars or numpy arrays. Q(inf) = 0 and Q(-inf) = 1; NaN input
    raises ValueError.
    """
    arr = np.asarray(x, dtype=float)
    if np.isnan(arr).any():
        raise ValueError("gaussian_q: NaN input")
    out = 0.5 * erfc(arr / math.sqrt(2.0))
    if np.ndim(x) == 0:
        return float(out)
    return out


def deep_fade_integral(rho: float, ks: Sequence[float]) -> float:
    """Integral of prod_i(1 - exp(-k_i v^2 / rho)) times the normal density
    over v in [0, inf).

    Each factor is the probability that an exponential link gain sits below
    a fade threshold proportional to v^2, so the value decays like rho^-M
    for M factors. Evaluated by adaptive quadrature; the integrand is a
    product of nonnegative factors, so tiny values carry full relative
    accuracy.
    """
    ks = tuple(float(k) for k in ks)
    if not ks:
        raise ValueError("deep_fade_integral: need at least one k factor")
    if any(k <= 0 for k in ks) or not all(math.isfinite(k) for k in ks):
        raise ValueError("deep_fade_integral: k factors must be positive finite")
    if not (rho > 0 and math.isfinite(rho)):
        raise ValueError("deep_fade_integral: rho must be positive finite")

    norm = 1.0 / math.sqrt(2.0 * math.pi)

    def integrand(v: float) -> float:
        acc = norm * math.exp(-0.5 * v * v)
        for k in ks:
            acc *= -math.expm1(-k * v * v / rho)
        return acc

    # imported here: scipy.integrate loads scipy.optimize and
    # scipy.sparse.linalg, which no CLI kind needs at startup
    from scipy.integrate import quad

    # the density kills everything past ~40 sigma; relative tolerance drives
    # accuracy because values reach 1e-18 scale at large rho
    val, _ = quad(integrand, 0.0, 40.0, epsabs=1e-300, epsrel=1e-11, limit=200)
    return val


def alternating_binomial_moment(m: int, n: int) -> int:
    """Alternating binomial sum  sum_{j=0}^{M} C(M,j) j^n (-1)^j  as an exact
    integer.

    Vanishes for 0 <= n < M and first becomes nonzero at n = M, which is the
    cancellation pattern behind diversity-order counting.
    """
    if not (0 <= m <= _MAX_MOMENT_ORDER) or not (0 <= n <= _MAX_MOMENT_ORDER):
        raise ValueError(
            f"alternating_binomial_moment: orders must lie in [0, {_MAX_MOMENT_ORDER}]")
    total = 0
    for j in range(m + 1):
        total += math.comb(m, j) * j ** n * (-1) ** j
    return total


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
    if (rho <= 0).any() or (p <= 0).any():
        raise ValueError("fit_diversity_slope: rho and p must be positive")
    x = np.log(rho)
    if x.min() == x.max():
        raise ValueError("fit_diversity_slope: log rho has zero spread")
    y = np.log(p)
    xc = x - x.mean()
    slope = float(np.dot(xc, y - y.mean()) / np.dot(xc, xc))
    resid = y - (y.mean() + slope * xc)
    return -slope, float(np.sqrt(np.mean(resid * resid)))
