"""Closed-form fade-region probabilities for independent exponential gains.

These joint probabilities are the analytic half of the noise-conditional
estimators: averaging a product of Gaussian tails over channel gains equals
averaging, over squared half-normal thresholds, the probability that the
gains fall in the induced fade region. Every function here evaluates such a
region probability exactly, vectorized over per-trial thresholds.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np
from scipy.special import erfcx

__all__ = [
    "exp_q_mean",
    "exp_sum_box_prob",
    "exp_erlang_box_prob",
    "ocsa_fade_regions",
    "abs_diff_q_mean",
]


def exp_q_mean(coeff: float, lam: float) -> float:
    """E[Q(sqrt(2 c g))] for g ~ Exponential(mean lam), exactly.

    Equals (1/2)[1 - (1 + 1/(c lam))^(-1/2)], the averaged single-link
    detection failure probability.  With s = c lam it is evaluated as
    1 / (2 (1 + s + sqrt(s (1 + s)))): positive terms only, so it keeps its
    relative accuracy as s grows (the difference form cancels from ~80 dB
    and rounds to 0 from ~155 dB), and it needs no division by s.
    """
    if coeff < 0 or lam <= 0:
        raise ValueError("exp_q_mean: need coeff >= 0 and lam > 0")
    s = coeff * lam
    return 0.5 / (1.0 + s + math.sqrt(s) * math.sqrt(1.0 + s))


def _int_exp(beta: float, upper: np.ndarray, p0) -> np.ndarray:
    """Stable integral_0^U exp(-p0 - beta t) dt.

    Callers guarantee p0 >= 0 and p0 + beta*U >= 0, so both boundary
    exponents are nonpositive and no overflow can occur for either sign of
    beta.  upper is an array.  The expm1 form serves |beta U| < 1; the
    difference form (e^(-p0) - e^(-p0 - beta U)) / beta is evaluated only
    where |beta U| >= 1 (or is NaN).
    """
    upper = np.maximum(upper, 0.0)
    p0 = np.asarray(p0, dtype=float)
    e0 = np.exp(-p0)
    if beta == 0.0:
        return e0 * upper
    bu = beta * upper
    small = np.abs(bu) < 1.0
    out = e0 * -np.expm1(-np.where(small, bu, 0.0)) / beta
    large = ~small
    if large.any():
        e0 = np.broadcast_to(e0, out.shape)[large]
        p0 = np.broadcast_to(p0, out.shape)[large]
        with np.errstate(over="ignore"):
            out[large] = (e0 - np.exp(-p0 - bu[large])) / beta
    return out


def exp_erlang_box_prob(x1, x2, a: float, b: float, k: int) -> np.ndarray:
    """P(u + T_j <= x1, u <= x2) for u ~ Exp(mean a), T_j ~ Erlang(j, scale b),
    for every j = 1..k at once: row j-1 of the (k, *shape) result is the box
    for Erlang(j).

    x1 and x2 are arrays of per-trial thresholds. The Erlang sum models j
    independent equal-mean relay links entering one combined detection.
    One recurrence serves every size: box_j is box_(j-1) less one more term.
    """
    if a <= 0 or b <= 0:
        raise ValueError("exp_erlang_box_prob: scales must be positive")
    if k < 1:
        raise ValueError("exp_erlang_box_prob: k must be >= 1")
    x1 = np.asarray(x1, dtype=float)
    x2 = np.asarray(x2, dtype=float)
    m = np.maximum(np.minimum(x1, x2), 0.0)
    x1p = np.maximum(x1, 0.0)
    out = -np.expm1(-m / a)
    boxes = np.empty((k,) + out.shape)

    # remaining terms integrate the Erlang tail against the u density:
    #   sum_j (1/(j! b^j a)) int_{x1-m}^{x1} s^j exp(c s - x1/a) ds,
    # c = 1/a - 1/b; both endpoint exponents are <= 0 (they equal -x1/b at
    # s = x1 and -m/a - (x1-m)/b at s = x1-m), so the recurrence is safe.
    # They are formed reduced: c s - x1/a cancels two ~x1/a terms once a << b
    c = 1.0 / a - 1.0 / b
    lo = x1p - m
    hi = x1p
    width = hi - lo
    near_equal = abs(c) * float(np.max(width, initial=0.0)) < 1e-8
    if near_equal:
        mid = 0.5 * (lo + hi)
        mid_exp = np.exp(-(x1p - mid) / a - mid / b)
    else:
        e_lo = np.exp(-m / a - lo / b)
        e_hi = np.exp(-hi / b)
    fact = 1.0
    for j in range(k):
        # integral = int_{x1-m}^{x1} s^j exp(c s - x1/a) ds
        if near_equal:
            integral = mid_exp * (hi ** (j + 1) - lo ** (j + 1)) / (j + 1)
        elif j == 0:
            integral = (e_hi - e_lo) / c
        else:
            integral = ((hi ** j * e_hi - lo ** j * e_lo) / c
                        - (j / c) * integral)
        if j > 0:
            fact *= j
        out = out - integral / (fact * b ** j * a)
        np.maximum(out, 0.0, out=boxes[j])
    return boxes


def exp_sum_box_prob(x1, x2, mu_u: float, mu_w: float) -> np.ndarray:
    """P(u + w <= x1, u <= x2) for independent u ~ Exp(mu_u), w ~ Exp(mu_w)."""
    return exp_erlang_box_prob(x1, x2, mu_u, mu_w, 1)[0]


def ocsa_fade_regions(x1, x2, x3, d1: int, d2: int,
                      lams: Sequence[float]) -> tuple[np.ndarray, ...]:
    """Joint fade probabilities over three independent exponential gains
    (g1, g2, g3) with means lams, for the regions

      P1: d1 g1 <= x1,  d1 g1 + d2 g3 <= x2,  g1 < min(g2, g3)
      P2: P1's region intersected with d1 g2 <= x3
      P3: d1 g1 <= x1,  (d1+d2) g1 <= x2,     not g1 < min(g2, g3)
      P4: d1 g1 <= x1,  (d1+d2) g1 <= x2,  d1 g2 <= x3,  g1 < min(g2, g3)

    These are the four signed pieces of the noise-conditional estimator for
    the opportunistic scheme, where g1 plays the role of the node whose miss
    probability is being averaged.
    """
    r1, r2, r3 = (1.0 / l for l in lams)
    d = d1 + d2
    # at least 1-d, so every intermediate is an array that can be written
    x1, x2, x3 = np.atleast_1d(*(np.asarray(x, dtype=float)
                                 for x in (x1, x2, x3)))
    c1 = x1 / d1
    c3 = x3 / d1
    alpha = r1 + r2 + r3
    beta = r1 + r2 - r3 * d1 / d2
    gam1 = r1 + r3
    gam2 = r1 - r3 * d1 / d2

    off3 = r3 * x2 / d2
    u = np.minimum(c1, x2 / d)
    # the term p1 and p3 share, then the one p2 and p4 share (one live array)
    shared = _int_exp(alpha, u, 0.0)
    p1 = r1 * (shared - _int_exp(beta, u, off3))
    p3 = -np.expm1(-r1 * np.maximum(u, 0.0)) - r1 * shared

    w = np.minimum(u, c3)
    shared = _int_exp(alpha, w, 0.0) - _int_exp(gam1, w, r2 * c3)
    p2 = r1 * (shared - _int_exp(beta, w, off3)
               + _int_exp(gam2, w, r2 * c3 + off3))
    p4 = r1 * shared
    # each p is a fresh array: clip in place (NaN passes through)
    for p in (p1, p2, p3, p4):
        np.clip(p, 0.0, 1.0, out=p)
    return p1, p2, p3, p4


def abs_diff_q_mean(s: float, mu1: float, mu2: float) -> float:
    """E[Q(|U - W| / s)] for independent U ~ Exp(mu1), W ~ Exp(mu2).

    |U - W| has the mixture density (e^(-x/mu1) + e^(-x/mu2))/(mu1 + mu2),
    and each exponential piece integrates against Q in closed form via the
    scaled complementary error function.
    """
    if s < 0 or mu1 <= 0 or mu2 <= 0:
        raise ValueError("abs_diff_q_mean: need s >= 0 and positive means")
    if s == 0.0:
        return 0.0

    def piece(mu: float) -> float:
        y = s / mu
        return 0.5 - 0.5 * erfcx(y / math.sqrt(2.0))

    return (mu1 * piece(mu1) + mu2 * piece(mu2)) / (mu1 + mu2)
