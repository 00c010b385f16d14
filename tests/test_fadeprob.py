"""Oracle tests for closed-form fade-region probabilities.

Each formula is checked against brute-force sampling of the underlying
exponential gains with a fixed seed, plus exact limiting values.
"""

import itertools
import math
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special, stats

from beaconsim.fadeprob import (
    _int_exp,
    abs_diff_q_mean,
    arena_row,
    exp_erlang_box_prob,
    exp_q_mean,
    exp_sum_box_prob,
    ocsa_fade_regions,
)


def mc_tol(p_hat, n, nsig=5.0):
    return nsig * math.sqrt(max(p_hat * (1 - p_hat), 1e-12) / n) + 1e-4


class TestExpQMean:
    def test_closed_form_value(self):
        # E[Q(sqrt(2 c g))], g ~ Exp(lam): (1/2)[1 - (1 + 1/(c lam))^(-1/2)]
        c, lam = 20.0, 1.0
        assert exp_q_mean(c, lam) == pytest.approx(
            0.5 * (1 - (1 + 1 / (c * lam)) ** -0.5), rel=1e-12)

    def test_against_sampling(self):
        from scipy.special import erfc
        rng = np.random.default_rng(1234)
        n = 400_000
        for c, lam in [(0.5, 1.0), (5.0, 2.0), (50.0, 0.3)]:
            g = rng.exponential(lam, n)
            est = float(np.mean(0.5 * erfc(np.sqrt(2 * c * g) / np.sqrt(2))))
            assert exp_q_mean(c, lam) == pytest.approx(est, abs=mc_tol(est, n))

    def test_limits(self):
        assert exp_q_mean(1e12, 1.0) < 1e-6
        assert exp_q_mean(1e-12, 1.0) == pytest.approx(0.5, abs=1e-6)
        # no division by c lam: zero and subnormal products give 1/2
        assert exp_q_mean(0.0, 1.0) == 0.5
        assert exp_q_mean(1e-320, 0.5) == 0.5

    @pytest.mark.parametrize("lam", [0.3, 1.0, 7.0])
    def test_relative_accuracy_against_mpmath(self, lam):
        # c lam = 10^(dB/10) up to 200 dB, where the value is ~2.5e-21; the
        # difference form 1 - (1 + 1/(c lam))^(-1/2) cancels there
        with mpmath.workdps(50):
            for db in range(-40, 201):
                s = 10.0 ** (db / 10.0)
                c = s / lam
                x = mpmath.mpf(c) * mpmath.mpf(lam)
                want = (1 - 1 / mpmath.sqrt(1 + 1 / x)) / 2
                got = exp_q_mean(c, lam)
                assert abs(got / want - 1) <= 1e-14, (db, got, want)


class TestExpSumBox:
    @pytest.mark.parametrize("x1,x2,mu_u,mu_w", [
        (1.2, 0.7, 1.0, 3.0),
        (0.4, 2.0, 2.0, 0.5),
        (2.5, 2.5, 0.8, 0.8),
        (0.05, 0.03, 1.0, 1.0),
    ])
    def test_against_sampling(self, x1, x2, mu_u, mu_w):
        rng = np.random.default_rng(99)
        n = 500_000
        u = rng.exponential(mu_u, n)
        w = rng.exponential(mu_w, n)
        est = float(np.mean((u + w <= x1) & (u <= x2)))
        got = float(exp_sum_box_prob(np.array([x1]), np.array([x2]), mu_u, mu_w)[0])
        assert got == pytest.approx(est, abs=mc_tol(est, n))

    def test_limits(self):
        big = np.array([1e9])
        assert exp_sum_box_prob(big, big, 1.0, 2.0)[0] == pytest.approx(1.0, rel=1e-9)
        zero = np.array([0.0])
        assert exp_sum_box_prob(zero, big, 1.0, 2.0)[0] == 0.0
        # u unbounded: reduces to the CDF of u + w
        x = np.array([1.5])
        mu_u, mu_w = 1.0, 2.0
        hypo = 1 - (mu_u * math.exp(-1.5 / mu_u) - mu_w * math.exp(-1.5 / mu_w)) / (mu_u - mu_w)
        assert exp_sum_box_prob(x, big, mu_u, mu_w)[0] == pytest.approx(hypo, rel=1e-10)

    @given(st.floats(0.01, 5.0), st.floats(0.01, 5.0),
           st.floats(0.1, 4.0), st.floats(0.1, 4.0))
    @settings(max_examples=80, deadline=None)
    def test_bounds_and_monotone(self, x1, x2, mu_u, mu_w):
        p = float(exp_sum_box_prob(np.array([x1]), np.array([x2]), mu_u, mu_w)[0])
        assert 0.0 <= p <= 1.0
        p_bigger = float(exp_sum_box_prob(np.array([x1 * 1.3]), np.array([x2]), mu_u, mu_w)[0])
        assert p_bigger >= p - 1e-12


class TestExpErlangBox:
    @pytest.mark.parametrize("x1,x2,a,b,k", [
        (1.0, 0.6, 1.0, 0.25, 1),
        (2.0, 3.0, 1.0, 0.25, 2),
        (1.5, 0.9, 1.0, 0.25, 3),
        (0.8, 0.8, 0.5, 0.5, 2),
        (3.0, 1.0, 0.3, 2.0, 3),
        (2.0, 1.4, 1.0, 1.0, 4),
    ])
    def test_against_sampling(self, x1, x2, a, b, k):
        rng = np.random.default_rng(7)
        n = 500_000
        u = rng.exponential(a, n)
        t = rng.exponential(b, (k, n)).sum(axis=0)
        est = float(np.mean((u + t <= x1) & (u <= x2)))
        got = float(exp_erlang_box_prob(np.array([x1]), np.array([x2]), a, b, k)[k - 1, 0])
        assert got == pytest.approx(est, abs=mc_tol(est, n))

    def test_k_one_matches_sum_box(self):
        x1 = np.array([0.9, 2.0, 0.1])
        x2 = np.array([0.5, 4.0, 0.4])
        lhs = exp_erlang_box_prob(x1, x2, 1.3, 0.6, 1)[0]
        rhs = exp_sum_box_prob(x1, x2, 1.3, 0.6)
        np.testing.assert_allclose(lhs, rhs, rtol=1e-10)

    def test_limits(self):
        big = np.array([1e9])
        assert exp_erlang_box_prob(big, big, 1.0, 0.5, 3)[2, 0] == pytest.approx(1.0, rel=1e-9)
        assert exp_erlang_box_prob(np.array([0.0]), big, 1.0, 0.5, 3)[2, 0] == 0.0

    @pytest.mark.parametrize("a, b, scale", [
        (1.0, 0.25, 2.0),       # recurrence over (1/a - 1/b) s
        (0.7, 1.9, 1e-3),
        (1.0, 0.5, 1e-11),      # widths so small the near-equal form is used
        (1.0, 1.0 + 1e-10, 3.0),
    ])
    def test_rows_are_prefix_of_larger_sizes(self, a, b, scale):
        # one recurrence serves every size: the first j rows of a size-k
        # call are the size-j call, bit for bit
        rng = np.random.default_rng(41)
        x1 = rng.standard_normal(500) ** 2 * scale
        x2 = rng.standard_normal(500) ** 2 * scale
        full = exp_erlang_box_prob(x1, x2, a, b, 11)
        assert full.shape == (11, 500)
        for j in range(1, 11):
            part = exp_erlang_box_prob(x1, x2, a, b, j)
            assert part.tobytes() == full[:j].tobytes()

    @pytest.mark.parametrize("a", [1e-12, 1e-16, 1e-30])
    @pytest.mark.parametrize("x2_scale", [1.0, 2.3])
    def test_tiny_exponential_mean(self, a, x2_scale):
        # as a -> 0, u -> 0 and the box tends to P(T_k <= x1), less a times
        # the Erlang density at x1 to first order; the endpoint exponents
        # must not be formed as differences of two x1/a-sized terms.  k > 1
        # only where x1/b >= 1: below that the closed form itself cancels
        b = 3.0
        x1 = np.array([0.37, 1.7, 3.3, 9.1, 31.3])
        got = exp_erlang_box_prob(x1, x2_scale * x1, a, b, 5)
        for k in range(1, 6):
            keep = (x1 / b >= 1.0) | (k == 1)
            want = (special.gammainc(k, x1 / b)
                    - a * stats.gamma.pdf(x1, k, scale=b))
            np.testing.assert_allclose(got[k - 1][keep], want[keep],
                                       rtol=1e-13, atol=0)

    def test_tiny_primary_mean_is_quiet(self):
        # m / a overflows to inf (thresholds ~1e10, a = 1e-300, as at
        # -100 dB); e^(-inf) = 0 is the right limit, and the division must
        # raise no RuntimeWarning (pytest turns one into an error)
        a, b = 1e-300, 3e9
        x1 = np.array([3e9, 5e9, 1.2e10, 3e10])
        for x2 in (0.5 * x1, 2.0 * x1):
            got = exp_erlang_box_prob(x1, x2, a, b, 5)
            for k in range(1, 6):
                keep = (x1 / b >= 1.0) | (k == 1)
                want = special.gammainc(k, x1 / b)
                np.testing.assert_allclose(got[k - 1][keep], want[keep],
                                           rtol=1e-13, atol=0)

    @pytest.mark.parametrize("k", [1, 3])
    def test_scalar_thresholds(self, k):
        scalar = exp_erlang_box_prob(0.5, 0.6, 1.0, 2.0, k)
        array = exp_erlang_box_prob(np.array([0.5]), np.array([0.6]),
                                    1.0, 2.0, k)
        assert scalar.shape == (k,)
        assert scalar.tobytes() == array.tobytes()
        if k == 1:
            assert (exp_sum_box_prob(0.5, 0.6, 1.0, 2.0).tobytes()
                    == array[0].tobytes())

    @pytest.mark.parametrize("a, b", [(1.0, 3.0), (3.0, 0.5), (1.0, 1.0)])
    def test_unbounded_thresholds(self, a, b):
        # rho -> 0 in tail mode: thresholds whose powers overflow, or that
        # are inf, may form no inf - inf or inf * 0 (overflow itself is
        # quiet under the tail point's errstate).  Where x1 is inf the box
        # is P(u <= x2); a == b takes the near-equal form.  A finite trial
        # keeps its bits beside them
        huge = np.array([0.5, 1e160, 1e300, np.finfo(float).max, np.inf])
        x2 = np.array([0.5, 2.0, 1e300, np.inf, 0.7])
        with np.errstate(over="ignore"), warnings.catch_warnings():
            warnings.simplefilter("error")
            got = exp_erlang_box_prob(huge, huge, a, b, 7)
            assert np.all(got[:, 1:] == 1.0)
            inf_x1 = exp_erlang_box_prob(np.full(5, np.inf), x2, a, b, 3)
            assert np.all(inf_x1 == -np.expm1(-x2 / a))
        alone = exp_erlang_box_prob(huge[:1], huge[:1], a, b, 7)
        assert got[:, :1].tobytes() == alone.tobytes()

    def test_nan_threshold_with_equal_means(self):
        # a == b needs the near-equal form (c = 0); a NaN width must not
        # hide the finite widths from the chunk-wide switch
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = exp_erlang_box_prob(np.array([0.5, np.nan]),
                                      np.array([0.6, 0.7]), 1.0, 1.0, 2)
        want = exp_erlang_box_prob(np.array([0.5]), np.array([0.6]),
                                   1.0, 1.0, 2)
        assert np.isnan(got[:, 1]).all()
        assert got[:, :1].tobytes() == want.tobytes()


def _int_exp_both_branches(beta, upper, p0):
    """Reference: both branches evaluated on every element, then a select.
    beta = 0 (gam2 of lams (0.5, 2, 1) with d1 = 2, d2 = 1) gives e0 U."""
    upper = np.maximum(upper, 0.0)
    p0 = np.asarray(p0, dtype=float)
    e0 = np.exp(-p0)
    if beta == 0.0:
        return e0 * upper
    bu = beta * upper
    small = np.abs(bu) < 1.0
    with np.errstate(over="ignore"):
        direct = (e0 - np.exp(-p0 - bu)) / beta
    via_expm1 = e0 * -np.expm1(-np.where(small, bu, 0.0)) / beta
    return np.where(small, via_expm1, direct)


def _erlang_box_reference(x1, x2, a, b, k):
    """exp_erlang_box_prob as it was before it wrote into arena rows: every
    intermediate a fresh array, the same ufuncs in the same operand order."""
    x1 = np.asarray(x1, dtype=float)
    x2 = np.asarray(x2, dtype=float)
    m = np.maximum(np.minimum(x1, x2), 0.0)
    x1p = np.maximum(x1, 0.0)
    out = -np.expm1(-m / a)
    boxes = np.empty((k,) + out.shape)
    c = 1.0 / a - 1.0 / b
    lo = x1p - m
    hi = x1p
    width = hi - lo
    near_equal = abs(c) * float(np.fmax.reduce(width, initial=0.0)) < 1e-8
    if near_equal:
        mid = 0.5 * (lo + hi)
        mid_exp = np.exp(-(x1p - mid) / a - mid / b)
    else:
        e_lo = np.exp(-m / a - lo / b)
        e_hi = np.exp(-hi / b)
    fact = 1.0
    for j in range(k):
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


def _ocsa_regions_reference(x1, x2, x3, d1, d2, lams):
    """The four region probabilities (P1, P2, P3, P4) of ocsa_fade_regions'
    docstring, each from its own integrals and clipped to [0, 1]: the
    region derivation behind the kernel's three-integral form."""
    r1, r2, r3 = (1.0 / l for l in lams)
    d = d1 + d2
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
    ie = _int_exp_both_branches
    shared = ie(alpha, u, 0.0)
    p1 = r1 * (shared - ie(beta, u, off3))
    p3 = -np.expm1(-r1 * np.maximum(u, 0.0)) - r1 * shared
    w = np.minimum(u, c3)
    shared = ie(alpha, w, 0.0) - ie(gam1, w, r2 * c3)
    p2 = r1 * (shared - ie(beta, w, off3) + ie(gam2, w, r2 * c3 + off3))
    p4 = r1 * shared
    return tuple(np.clip(p, 0.0, 1.0) for p in (p1, p2, p3, p4))


def _ocsa_four_piece_miss(x1, x2, x3, d1, d2, lams):
    """0.25 P1 + 0.25 P3 - 0.125 P2 + 0.125 P4 of the reference pieces,
    summed in that order."""
    p1, p2, p3, p4 = _ocsa_regions_reference(x1, x2, x3, d1, d2, lams)
    return ((0.25 * p1 + 0.25 * p3) - 0.125 * p2) + 0.125 * p4


def _ocsa_miss_reference(x1, x2, x3, d1, d2, lams):
    """ocsa_fade_regions with every intermediate a fresh array: the same
    ufuncs in the same operand order."""
    r1, r2, r3 = (1.0 / l for l in lams)
    d = d1 + d2
    x1, x2, x3 = np.atleast_1d(*(np.asarray(x, dtype=float)
                                 for x in (x1, x2, x3)))
    beta = r1 + r2 - r3 * d1 / d2
    gam2 = r1 - r3 * d1 / d2
    off3 = r3 * x2 / d2
    u = np.minimum(x1 / d1, x2 / d)
    e1 = -np.expm1(-r1 * np.maximum(u, 0.0))
    u = np.where(off3 == np.inf, 0.0, u)
    ie = _int_exp_both_branches
    term = 0.25 * (e1 - r1 * ie(beta, u, off3))
    c3 = x3 / d1
    w = np.minimum(u, c3)
    out = 0.125 * r1 * (ie(beta, w, off3) - ie(gam2, w, r2 * c3 + off3))
    return np.clip(term + out, 0.0, 1.0)


def _thresholds(n, scale, strided, nan_col=2, seed=47):
    """Three threshold arrays, a tenth of them negative and one NaN in
    column nan_col; as strided columns of one (n, 3) array, the way
    perfbench/kernels.py passes them, or as contiguous rows."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, 3)) ** 2 * scale
    x[::10] *= -1.0
    x[n // 2, nan_col] = np.nan
    return tuple(x.T) if strided else tuple(np.ascontiguousarray(x.T))


class TestArenaKernels:
    """The kernels write every intermediate into arena rows; each must keep
    the bits of the fresh-array form it replaced."""

    SCALES = [1e-12, 1e-7, 1e-3, 0.1, 3.0, 1e3]
    # (a, b): the recurrence, and a == b, where c = 0 takes the near-equal
    # form at every scale (the 1e-12 scale takes it for every pair)
    BOX_MEANS = [(1.0, 0.25), (0.7, 1.9), (1.3, 1.3)]
    # lams (3, 1, 0.5) with d1 = d2 = 1 makes gam2 negative, and
    # (0.5, 2, 1) with d1 = 2, d2 = 1 makes it 0
    OCSA = [(1, 1, (1.0, 2.0, 3.0)), (1, 1, (3.0, 1.0, 0.5)),
            (2, 1, (0.5, 2.0, 1.0)), (1, 2, (2.0, 0.7, 1.2))]

    @staticmethod
    def _same(got, want):
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert g.shape == w.shape
            assert g.tobytes() == w.tobytes()

    def _check(self, x1, x2, x3, k, arena, box_means=BOX_MEANS):
        # negative thresholds overflow e^(-p0) in both forms alike
        with np.errstate(over="ignore", invalid="ignore"):
            for a, b in box_means:
                self._same(exp_erlang_box_prob(x1, x2, a, b, k, arena=arena),
                           _erlang_box_reference(x1, x2, a, b, k))
            for d1, d2, lams in self.OCSA:
                self._same(
                    [ocsa_fade_regions(x1, x2, x3, d1, d2, lams, arena=arena)],
                    [_ocsa_miss_reference(x1, x2, x3, d1, d2, lams)])

    @pytest.mark.parametrize("strided", [False, True])
    @pytest.mark.parametrize("scale", SCALES)
    def test_bitwise_equal_to_fresh_array_form(self, scale, strided):
        x1, x2, x3 = _thresholds(2000, scale, strided)
        self._check(x1, x2, x3, 11, {})
        self._check(x1, x2, x3, 11, None)
        # a NaN in the box's thresholds: the chunk-wide width skips it
        x1, x2, x3 = _thresholds(2000, scale, strided, nan_col=0)
        self._check(x1, x2, x3, 11, {})

    def test_one_arena_across_shapes_and_sizes(self):
        arena = {}
        for n, k, scale in ((500, 3, 0.1), (37, 11, 3.0), (500, 1, 1e-7),
                            (1, 5, 1.0), (37, 3, 1e3), (500, 11, 0.1)):
            self._check(*_thresholds(n, scale, False, seed=n + k), k, arena)

    def test_arena_rows_are_reused(self):
        # same-size calls allocate nothing: the arena returns the same rows
        arena = {}
        x1, x2, x3 = _thresholds(300, 0.1, True)
        first = ocsa_fade_regions(x1, x2, x3, 1, 1, (1.0, 2.0, 3.0),
                                  arena=arena)
        box = exp_erlang_box_prob(x1, x2, 1.0, 0.25, 3, arena=arena)
        rows = {name: row.ctypes.data for name, row in arena.items()}
        again = ocsa_fade_regions(x1, x2, x3, 1, 1, (1.0, 2.0, 3.0),
                                  arena=arena)
        assert exp_erlang_box_prob(x1, x2, 1.0, 0.25, 3, arena=arena) is box
        assert again is first
        assert {name: row.ctypes.data for name, row in arena.items()} == rows
        assert arena_row(arena, "box.boxes", (3, 300)) is box
        assert arena_row(arena, "box.boxes", (2, 300)) is not box

    def test_calls_without_arena_own_their_results(self):
        x1, x2, x3 = _thresholds(300, 0.1, False)
        with np.errstate(over="ignore", invalid="ignore"):
            results = [
                ocsa_fade_regions(x1, x2, x3, 1, 1, (1.0, 2.0, 3.0)),
                ocsa_fade_regions(x1, x2, x3, 1, 1, (1.0, 2.0, 3.0)),
                exp_erlang_box_prob(x1, x2, 1.0, 0.25, 3),
                exp_erlang_box_prob(x1, x2, 1.0, 0.25, 3),
                exp_sum_box_prob(x1, x2, 1.0, 0.25),
            ]
        for p, q in itertools.combinations(results, 2):
            assert not np.shares_memory(p, q)


class TestIntExp:
    # gam2 of ocsa_fade_regions with lams (3, 1, 0.5), d1 = d2 = 1: negative
    GAM2 = 1.0 / 3.0 - 2.0

    @pytest.mark.parametrize("beta, p0_kind", [
        (2.5, "zero"), (0.3, "zero"), (2.5, "array"), (-0.4, "array"),
        (GAM2, "array"),
    ])
    def test_matches_both_branch_form_bitwise(self, beta, p0_kind):
        # the difference form is evaluated only where |beta U| >= 1 (or
        # NaN); every element must keep its bits
        rng = np.random.default_rng(43)
        edge = np.array([-1.0, 0.0, 1e-300, 0.1, 0.999, 1.0, 1.001, 5.0,
                         40.0, np.nan]) / abs(beta)
        upper = np.concatenate([edge, rng.exponential(1.0 / abs(beta), 200)])
        # callers keep p0 + beta U >= 0
        p0 = (0.0 if p0_kind == "zero" else
              np.nan_to_num(max(-beta, 0.0) * np.maximum(upper, 0.0))
              + rng.uniform(0.0, 2.0, upper.size))
        got = _int_exp(beta, upper, p0, np.empty(upper.shape))
        want = _int_exp_both_branches(beta, upper, p0)
        assert got.tobytes() == want.tobytes()
        assert np.isnan(got[edge.size - 1])
        assert got[0] == got[1] == 0.0


def _ocsa_miss_mpmath(x1, x2, x3, d1, d2, lams):
    """The three-integral ocsa miss at mpmath's working precision, the float
    thresholds taken as exact."""
    mpf = mpmath.mpf
    x1, x2, x3 = mpf(x1), mpf(x2), mpf(x3)
    r1, r2, r3 = (1 / mpf(lam) for lam in lams)
    off3 = r3 * x2 / d2
    u = max(min(x1 / d1, x2 / (d1 + d2)), 0)
    w = max(min(u, x3 / d1), 0)

    def integral(b, upper, p0):
        if b == 0:
            return upper * mpmath.exp(-p0)
        return (mpmath.exp(-p0) - mpmath.exp(-p0 - b * upper)) / b

    beta = r1 + r2 - r3 * d1 / d2
    gam2 = r1 - r3 * d1 / d2
    return ((-mpmath.expm1(-r1 * u) - r1 * integral(beta, u, off3)) / 4
            + r1 * (integral(beta, w, off3)
                    - integral(gam2, w, r2 * x3 / d1 + off3)) / 8)


class TestOcsaFadeRegions:
    SAMPLED = [
        (0.8, 1.1, 0.6, 1, 1, (1.0, 2.0, 3.0)),
        (2.0, 0.5, 3.0, 1, 1, (1.0, 1.0, 1.0)),
        (0.3, 0.4, 0.2, 2, 1, (0.5, 2.0, 1.0)),
        (5.0, 6.0, 5.5, 1, 2, (2.0, 0.7, 1.2)),
    ]

    def brute(self, x1, x2, x3, d1, d2, lams, n=600_000, seed=21):
        """Per-sample indicators of the four regions."""
        rng = np.random.default_rng(seed)
        g1 = rng.exponential(lams[0], n)
        g2 = rng.exponential(lams[1], n)
        g3 = rng.exponential(lams[2], n)
        d = d1 + d2
        sec = (g1 < g2) & (g1 < g3)
        p1 = (d1 * g1 <= x1) & (d1 * g1 + d2 * g3 <= x2) & sec
        p2 = ((d1 * g1 <= x1) & (d1 * g1 + d2 * g3 <= x2)
              & (d1 * g2 <= x3) & (g2 > g1) & (g3 > g1))
        p3 = (d1 * g1 <= x1) & (d * g1 <= x2) & ~sec
        p4 = ((d1 * g1 <= x1) & (d * g1 <= x2)
              & (d1 * g2 <= x3) & (g2 > g1) & (g3 > g1))
        return p1, p2, p3, p4

    @pytest.mark.parametrize("x1,x2,x3,d1,d2,lams", SAMPLED)
    def test_against_sampling(self, x1, x2, x3, d1, d2, lams):
        n = 600_000
        brute = [np.mean(b) for b in self.brute(x1, x2, x3, d1, d2, lams, n)]
        got = _ocsa_regions_reference(x1, x2, x3, d1, d2, lams)
        for b, g in zip(brute, got):
            assert float(g[0]) == pytest.approx(b, abs=mc_tol(b, n))

    @pytest.mark.parametrize("x1,x2,x3,d1,d2,lams", SAMPLED)
    def test_miss_against_sampling(self, x1, x2, x3, d1, d2, lams):
        n = 600_000
        p1, p2, p3, p4 = self.brute(x1, x2, x3, d1, d2, lams, n)
        vals = 0.25 * p1 - 0.125 * p2 + 0.25 * p3 + 0.125 * p4
        got = ocsa_fade_regions(np.array([x1]), np.array([x2]),
                                np.array([x3]), d1, d2, lams)
        assert got.shape == (1,)
        assert float(got[0]) == pytest.approx(
            np.mean(vals), abs=5 * np.std(vals) / math.sqrt(n) + 1e-4)

    def test_scalar_thresholds(self):
        lams = (1.0, 2.0, 3.0)
        scalar = ocsa_fade_regions(0.5, 0.6, 0.7, 1, 1, lams)
        array = ocsa_fade_regions(np.array([0.5]), np.array([0.6]),
                                  np.array([0.7]), 1, 1, lams)
        assert scalar.shape == (1,)
        assert scalar.tobytes() == array.tobytes()

    def test_unbounded_reduces_to_ordering_probability(self):
        # with all thresholds huge, region 1 is P(g1 is the strict minimum)
        lams = (1.0, 2.0, 3.0)
        r = [1 / l for l in lams]
        big = np.array([1e9])
        p1 = _ocsa_regions_reference(big, big, big, 1, 1, lams)[0]
        assert float(p1[0]) == pytest.approx(r[0] / sum(r), rel=1e-9)

    @pytest.mark.parametrize("d1, d2, lams", TestArenaKernels.OCSA)
    def test_unbounded_limit_is_a_quarter(self, d1, d2, lams):
        # rho -> 0: the thresholds grow without bound, and overflow to inf
        # below about -3070 dB; beta and gam2 take every sign over the
        # four cases, and none may form inf - inf or warn
        big = np.array([1e9, 1e300, np.finfo(float).max, np.inf])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for x in itertools.permutations([big, big, big[::-1]]):
                got = ocsa_fade_regions(*x, d1, d2, lams)
                assert np.all(got[[1, 2]] == 0.25)
            assert np.all(ocsa_fade_regions(big, big, big, d1, d2, lams)
                          == 0.25)

    @given(st.floats(0.01, 4.0), st.floats(0.01, 4.0), st.floats(0.01, 4.0))
    @settings(max_examples=60, deadline=None)
    def test_region_containments(self, x1, x2, x3):
        lams = (1.0, 2.0, 3.0)
        p1, p2, p3, p4 = _ocsa_regions_reference(x1, x2, x3, 1, 1, lams)
        for p in (p1, p2, p3, p4):
            assert 0.0 - 1e-12 <= float(p[0]) <= 1.0
        # adding the x3 constraint only removes mass
        assert float(p2[0]) <= float(p1[0]) + 1e-12
        for d1, d2, lams in TestArenaKernels.OCSA:
            miss = float(ocsa_fade_regions(x1, x2, x3, d1, d2, lams)[0])
            assert 0.0 <= miss <= 1.0

    @pytest.mark.parametrize("scale", [1e-3, 0.1, 3.0, 1e3])
    def test_matches_four_piece_form(self, scale):
        # every threshold at least scale: the cancelled integrals agree to
        # rounding, far from the small-threshold cancellation
        rng = np.random.default_rng(59)
        x1, x2, x3 = scale * (1.0 + rng.standard_normal((3, 2000)) ** 2)
        for d1, d2, lams in TestArenaKernels.OCSA:
            np.testing.assert_allclose(
                ocsa_fade_regions(x1, x2, x3, d1, d2, lams),
                _ocsa_four_piece_miss(x1, x2, x3, d1, d2, lams),
                rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("rho_db", [0.0, 20.0, 40.0, 60.0])
    def test_rounding_against_mpmath(self, rho_db):
        # thresholds z^2 / (2 rho) as tail mode draws them.  Both forms
        # subtract terms of size r1 u to leave an O(u^2) miss, so each
        # element's error is measured in units of eps r1 u: it stays below
        # one unit, and the three-integral form's worst stays within 4x of
        # the four-piece form's on the same draws.  (Plain relative errors
        # are set by the one smallest-u draw, where either form's rounding
        # is luck: over 40 seeds their worst-case ratio reached 9.7.)
        rng = np.random.default_rng(61)
        zz = rng.standard_normal((3, 80)) ** 2
        x1, x2, x3 = zz / (2.0 * 10.0 ** (rho_db / 10.0))
        with mpmath.workdps(50):
            for d1, d2, lams in TestArenaKernels.OCSA:
                exact = [_ocsa_miss_mpmath(*x, d1, d2, lams)
                         for x in zip(x1, x2, x3)]
                unit = (np.finfo(float).eps / lams[0]
                        * np.minimum(x1 / d1, x2 / (d1 + d2)))

                def worst(vals):
                    return max(float(abs(mpmath.mpf(v) - e)) / s
                               for v, e, s in zip(vals, exact, unit))

                new = worst(ocsa_fade_regions(x1, x2, x3, d1, d2, lams))
                assert new <= 1.0
                assert new <= 4 * worst(
                    _ocsa_four_piece_miss(x1, x2, x3, d1, d2, lams))


class TestAbsDiffQMean:
    def test_against_sampling(self):
        from scipy.special import erfc
        rng = np.random.default_rng(17)
        n = 400_000
        for s, mu1, mu2 in [(1.4, 1.0, 1.0), (0.14, 1.0, 1.0), (0.5, 2.0, 0.7)]:
            x = np.abs(rng.exponential(mu1, n) - rng.exponential(mu2, n))
            est = float(np.mean(0.5 * erfc(x / s / np.sqrt(2))))
            assert abs_diff_q_mean(s, mu1, mu2) == pytest.approx(est, abs=mc_tol(est, n))

    def test_tiny_noise_limit(self):
        # s -> 0 makes the comparison error vanish
        assert abs_diff_q_mean(1e-9, 1.0, 1.0) < 1e-8

    def test_huge_noise_limit(self):
        assert abs_diff_q_mean(1e9, 1.0, 2.0) == pytest.approx(0.5, abs=1e-6)
