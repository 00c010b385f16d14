"""Closed-form fade-region probabilities for independent exponential gains.

These joint probabilities are the analytic half of the noise-conditional
estimators: averaging a product of Gaussian tails over channel gains equals
averaging, over squared half-normal thresholds, the probability that the
gains fall in the induced fade region. Every function here evaluates such a
region probability, or (ocsa_fade_regions) the signed sum of them that is
one scheme's miss, exactly, vectorized over per-trial thresholds.

Scratch arenas.  The tail kernels (exp_erlang_box_prob, ocsa_fade_regions)
take an optional arena: a dict of named scratch rows (see arena_row) that
one thread reuses across calls, so that a sweep does not allocate, and
fault in, dozens of chunk-size temporaries per call.  Every intermediate
and every result is written into an arena row with out=, by the same
ufuncs in the same operand order as the fresh-array expressions they
stand for, so the bits do not depend on the arena.  With an arena, the
arrays a call returns are rows of it, valid until the arena's next use;
without one, the call uses a private arena and the caller owns them.  A
sum is written into its second operand's row, never into the first's:
np.add(x, y, out=x) on a one-element x runs numpy's reduction loop, which
keeps y's NaN where x + y keeps x's.
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


def arena_row(arena: dict, name: str, shape: tuple,
              dtype=float) -> np.ndarray:
    """The row of arena called name, with this shape and dtype; it is
    allocated only when it is missing or its shape or dtype changed, so
    calls on same-size chunks allocate nothing."""
    row = arena.get(name)
    if row is None or row.shape != shape or row.dtype != dtype:
        row = arena[name] = np.empty(shape, dtype)
    return row


def _power(x: np.ndarray, j: int, out: np.ndarray) -> np.ndarray:
    """x ** j with ndarray.__pow__'s bits: x for j = 1, np.square for 2."""
    if j == 1:
        return x
    return np.square(x, out=out) if j == 2 else np.power(x, j, out=out)


def _int_exp(beta: float, upper: np.ndarray, p0, out: np.ndarray,
             arena=None) -> np.ndarray:
    """Stable integral_0^U exp(-p0 - beta t) dt, written into out.

    Callers guarantee p0 >= 0 and p0 + beta*U >= 0, so both boundary
    exponents are nonpositive and no overflow can occur for either sign of
    beta.  upper is an array.  The expm1 form serves |beta U| < 1; the
    difference form (e^(-p0) - e^(-p0 - beta U)) / beta is evaluated only
    where |beta U| >= 1 (or is NaN).  out must not share memory with upper
    or p0; scratch rows come from arena (default: a private one).
    """
    arena = {} if arena is None else arena
    shape = np.broadcast_shapes(np.shape(upper), np.shape(p0))
    bu = np.maximum(upper, 0.0, out=arena_row(arena, "int_exp.bu", shape))
    e0 = arena_row(arena, "int_exp.e0", shape)
    np.exp(np.negative(p0, out=e0), out=e0)
    if beta == 0.0:
        return np.multiply(e0, bu, out=out)
    np.multiply(beta, bu, out=bu)
    small = np.less(np.absolute(bu, out=out), 1.0,
                    out=arena_row(arena, "int_exp.small", shape, bool))
    np.negative(bu, out=out)
    large = None if small.all() else ~small
    if large is not None:
        out[large] = 0.0  # filled by the difference form below
    np.expm1(out, out=out)
    np.negative(out, out=out)
    np.multiply(e0, out, out=out)
    np.divide(out, beta, out=out)
    if large is not None:
        p0 = np.broadcast_to(p0, shape)[large]
        with np.errstate(over="ignore"):
            out[large] = (e0[large] - np.exp(-p0 - bu[large])) / beta
    return out


def exp_erlang_box_prob(x1, x2, a: float, b: float, k: int,
                        arena=None) -> np.ndarray:
    """P(u + T_j <= x1, u <= x2) for u ~ Exp(mean a), T_j ~ Erlang(j, scale b),
    for every j = 1..k at once: row j-1 of the (k, *shape) result is the box
    for Erlang(j).

    x1 and x2 are arrays of per-trial thresholds. The Erlang sum models j
    independent equal-mean relay links entering one combined detection.
    One recurrence serves every size: box_j is box_(j-1) less one more term.
    A term whose exponential is 0 is 0, so thresholds whose powers
    overflow, or that are infinite, give the limit and no NaN (infinite
    thresholds give 1).  The result is a row of arena (see the module
    docstring).
    """
    if a <= 0 or b <= 0:
        raise ValueError("exp_erlang_box_prob: scales must be positive")
    if k < 1:
        raise ValueError("exp_erlang_box_prob: k must be >= 1")
    arena = {} if arena is None else arena
    x1 = np.asarray(x1, dtype=float)
    x2 = np.asarray(x2, dtype=float)
    shape = np.broadcast_shapes(x1.shape, x2.shape)

    def row(name):
        return arena_row(arena, "box." + name, shape)

    m = row("m")
    np.maximum(np.minimum(x1, x2, out=m), 0.0, out=m)
    hi = np.maximum(x1, 0.0, out=row("hi"))
    # -m / a; it overflows to -inf when a is tiny next to m, and
    # e^(-inf) = 0 is then the right limit of both exponentials below
    e_lo = np.negative(m, out=row("e_lo"))
    with np.errstate(over="ignore"):
        np.divide(e_lo, a, out=e_lo)
    out = np.expm1(e_lo, out=row("out"))
    np.negative(out, out=out)
    boxes = arena_row(arena, "box.boxes", (k,) + shape)
    top = np.fmax.reduce(hi, axis=None, initial=0.0)
    inf_x1 = None
    if top == np.inf:
        # where x1 is infinite, u + T_j <= x1 always holds and every box is
        # out = P(u <= m): those trials run at x1 = m = 0, which forms no
        # inf - inf, and take out's value at the end
        inf_x1 = hi == np.inf
        out_inf = out[inf_x1]
        hi[inf_x1] = m[inf_x1] = 0.0
        top = np.fmax.reduce(hi, axis=None, initial=0.0)
    lo = np.subtract(hi, m, out=row("lo"))

    # remaining terms integrate the Erlang tail against the u density:
    #   sum_j (1/(j! b^j a)) int_{x1-m}^{x1} s^j exp(c s - x1/a) ds,
    # c = 1/a - 1/b; both endpoint exponents are <= 0 (they equal -x1/b at
    # s = x1 and -m/a - (x1-m)/b at s = x1-m), so the recurrence is safe.
    # They are formed reduced: c s - x1/a cancels two ~x1/a terms once a << b
    c = 1.0 / a - 1.0 / b
    t1, t2, integral = row("t1"), row("t2"), row("integral")
    width = np.subtract(hi, lo, out=t1)
    near_equal = abs(c) * float(np.fmax.reduce(width, initial=0.0)) < 1e-8
    with np.errstate(over="ignore"):
        overflow = (2.0 * top) ** k == np.inf
    if near_equal:
        if overflow:  # lo + hi may overflow; their halves do not
            np.multiply(0.5, hi, out=t2)
            mid = np.add(np.multiply(0.5, lo, out=t1), t2, out=t2)
        else:
            mid = np.multiply(0.5, np.add(lo, hi, out=t2), out=t2)
        mid_exp = np.negative(np.subtract(hi, mid, out=e_lo), out=e_lo)
        np.divide(mid_exp, a, out=mid_exp)
        np.subtract(mid_exp, np.divide(mid, b, out=t1), out=mid_exp)
        np.exp(mid_exp, out=mid_exp)
    else:
        np.subtract(e_lo, np.divide(lo, b, out=t1), out=e_lo)
        np.exp(e_lo, out=e_lo)
        e_hi = np.negative(hi, out=row("e_hi"))
        np.divide(e_hi, b, out=e_hi)
        np.exp(e_hi, out=e_hi)
    if overflow:
        # a term whose exponential is 0 is 0, also where its power
        # overflows: zeroing its base changes no finite product
        hi[(mid_exp if near_equal else e_hi) == 0.0] = 0.0
        lo[(mid_exp if near_equal else e_lo) == 0.0] = 0.0
    fact = 1.0
    for j in range(k):
        # integral = int_{x1-m}^{x1} s^j exp(c s - x1/a) ds
        if near_equal:
            np.subtract(_power(hi, j + 1, t1), _power(lo, j + 1, t2), out=t1)
            np.divide(np.multiply(mid_exp, t1, out=integral), j + 1,
                      out=integral)
        elif j == 0:
            np.divide(np.subtract(e_hi, e_lo, out=integral), c, out=integral)
        else:
            np.multiply(_power(hi, j, t1), e_hi, out=t1)
            np.multiply(_power(lo, j, t2), e_lo, out=t2)
            np.divide(np.subtract(t1, t2, out=t1), c, out=t1)
            np.multiply(j / c, integral, out=t2)
            np.subtract(t1, t2, out=integral)
        if j > 0:
            fact *= j
        np.subtract(out, np.divide(integral, fact * b ** j * a, out=t1),
                    out=out)
        np.maximum(out, 0.0, out=boxes[j, ...])
    if inf_x1 is not None:
        boxes[:, inf_x1] = out_inf
    return boxes


def exp_sum_box_prob(x1, x2, mu_u: float, mu_w: float) -> np.ndarray:
    """P(u + w <= x1, u <= x2) for independent u ~ Exp(mu_u), w ~ Exp(mu_w)."""
    return exp_erlang_box_prob(x1, x2, mu_u, mu_w, 1)[0]


def ocsa_fade_regions(x1, x2, x3, d1: int, d2: int,
                      lams: Sequence[float], arena=None) -> np.ndarray:
    """Tail-mode miss of the opportunistic scheme at per-trial thresholds:
    0.25 P1 + 0.25 P3 - 0.125 P2 + 0.125 P4 over fade regions of three
    independent exponential gains with means lams, g1 the averaged node's,

      P1: d1 g1 <= x1,  d1 g1 + d2 g3 <= x2,  g1 < min(g2, g3)
      P2: P1's region intersected with d1 g2 <= x3
      P3: d1 g1 <= x1,  (d1+d2) g1 <= x2,     not g1 < min(g2, g3)
      P4: d1 g1 <= x1,  (d1+d2) g1 <= x2,  d1 g2 <= x3,  g1 < min(g2, g3)

    Three of their six integrals cancel in that sum.  With r = 1/lams,
    I(b, U, p) = int_0^U e^(-p - b t) dt, u = max(0, min(x1/d1, x2/(d1+d2))),
    w = min(u, max(0, x3/d1)), o3 = r3 x2/d2, beta = r1 + r2 - r3 d1/d2 and
    gam2 = r1 - r3 d1/d2, it is [0, 1]-clipped (NaN passes through)
      0.25 (1 - e^(-r1 u) - r1 I(beta, u, o3))
          + 0.125 r1 (I(beta, w, o3) - I(gam2, w, r2 x3/d1 + o3)).
    Where o3 overflows (tail mode's thresholds below about -3070 dB), each
    integral is 0, its limit, so infinite thresholds give 0.25.  The result
    is a row of arena (see the module docstring), at least 1-d.
    """
    r1, r2, r3 = (1.0 / l for l in lams)
    d = d1 + d2
    arena = {} if arena is None else arena
    x1, x2, x3 = (np.asarray(x, dtype=float) for x in (x1, x2, x3))
    shape = np.broadcast_shapes(x1.shape, x2.shape, x3.shape) or (1,)

    def row(name):
        return arena_row(arena, "ocsa." + name, shape)

    beta = r1 + r2 - r3 * d1 / d2
    gam2 = r1 - r3 * d1 / d2
    # huge thresholds overflow to inf, their limit
    with np.errstate(over="ignore"):
        off3 = row("off3")
        np.divide(np.multiply(r3, x2, out=off3), d2, out=off3)
        u = np.minimum(np.divide(x1, d1, out=row("a")),
                       np.divide(x2, d, out=row("b")), out=row("u"))
        out = row("out")
        np.multiply(-r1, np.maximum(u, 0.0, out=out), out=out)
        np.negative(np.expm1(out, out=out), out=out)
        if np.fmax.reduce(off3, axis=None, initial=0.0) == np.inf:
            u[off3 == np.inf] = 0.0  # not inf - inf where beta u = -inf
        term = _int_exp(beta, u, off3, row("term"), arena)
        np.subtract(out, np.multiply(r1, term, out=term), out=term)
        np.multiply(0.25, term, out=term)
        c3 = np.divide(x3, d1, out=row("a"))
        w = np.minimum(u, c3, out=u)
        diff = _int_exp(beta, w, off3, row("b"), arena)
        p0 = np.add(np.multiply(r2, c3, out=c3), off3, out=off3)
        np.subtract(diff, _int_exp(gam2, w, p0, out, arena), out=out)
        np.multiply(0.125 * r1, out, out=out)
        np.add(term, out, out=out)
    return np.clip(out, 0.0, 1.0, out=out)


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
