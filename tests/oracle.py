"""Reference values the estimators are checked against, from routes that
share no code with them.

The deep-fade integral and the alternating binomial sum check the rho^-M
decay that diversity orders rest on from outside the estimators; the
high-SNR coefficients give the constant C of a miss curve C rho^-D, which a
slope fit cannot see; the own-fade miss is the limit of a relayed user's
miss as its own primary mean goes to 0.  Nothing here may import
``beaconsim.fadeprob``: an oracle built on the kernels it checks would
agree with their errors.
"""

from __future__ import annotations

import itertools
import math
from typing import Sequence

from scipy.integrate import quad

_MAX_MOMENT_ORDER = 20


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


def nc_coefficient(d: int, lam: float) -> float:
    """C in the nc miss probability C / rho + O(rho^-2), exactly.

    The miss is E[Q(sqrt(2 d rho g))] for g ~ Exponential(mean lam) over d
    channel uses, (1/2)[1 - (1 + 1/(d rho lam))^(-1/2)], whose first-order
    term is 1 / (4 d lam rho).
    """
    return 1.0 / (4.0 * d * lam)


def erlang_q_mean(c: float, theta: float, k: int) -> float:
    """E[Q(sqrt(2 c T))] for T ~ Erlang(k, scale theta), in closed form.

    The k-branch maximal-ratio-combining error probability of a Rayleigh
    channel (Proakis, Digital Communications, 4th ed., sec. 14.4):
    ((1 - mu)/2)^k sum_{j<k} C(k-1+j, j) ((1 + mu)/2)^j with
    mu = sqrt(c theta / (1 + c theta)).
    """
    mu = math.sqrt(c * theta / (1.0 + c * theta))
    return ((1.0 - mu) / 2.0) ** k * sum(
        math.comb(k - 1 + j, j) * ((1.0 + mu) / 2.0) ** j for j in range(k))


def own_fade_miss(rho: float, d1: int, peer_means: Sequence[float],
                  b: float) -> float:
    """Miss probability of a relayed user whose own primary gain is 0.

    The user fails phase one with probability Q(0) = 1/2.  Each peer
    detects in phase one with probability 1 - E[Q(sqrt(2 d1 rho g))] and
    then relays a term of mean b; with k relays the user misses with
    probability E[Q(sqrt(2 rho T_k))], T_k ~ Erlang(k, scale b), and with
    none it misses for sure.  Peer subsets are enumerated one by one.
    csa is the one-peer case with b = d2 lam_tr, mucsa has 2M - 1 peers
    and b = (d2 / 2M) lam_uu.
    """
    q = [erlang_q_mean(d1 * rho, lam, 1) for lam in peer_means]
    total = 0.0
    for helps in itertools.product((False, True), repeat=len(q)):
        weight = math.prod(1.0 - qi if h else qi for h, qi in zip(helps, q))
        k = sum(helps)
        total += weight * (erlang_q_mean(rho, b, k) if k else 1.0)
    return 0.5 * total
