"""Oracle tests for the numerics module and the test oracles it sits with.

Expected values come from independent routes: direct quadrature of the
normal density, a high-precision inclusion-exclusion closed form for the
deep-fade integral, and the Stirling-number identity for the alternating
binomial sum.  The deep-fade integral and the alternating sum live in
``tests/oracle.py``; they check decay rates from outside the package.
"""

import math
from decimal import Decimal, getcontext

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import erfc

from beaconsim.numerics import fit_diversity_slope, gaussian_q
from oracle import alternating_binomial_moment, deep_fade_integral


def q_oracle(x):
    # normal tail probability by direct quadrature, independent of erfc
    val, _ = quad(lambda t: math.exp(-0.5 * t * t) / math.sqrt(2 * math.pi),
                  x, x + 60.0, epsabs=1e-16, epsrel=1e-13)
    return val


def fade_integral_oracle(rho, ks, digits=60):
    # expand prod(1 - exp(-k v^2/rho)) and integrate each term:
    #   int_0^inf exp(-K v^2/rho) phi(v) dv = (1/2) (1 + 2K/rho)^(-1/2)
    # evaluated in high precision because the alternating sum cancels badly
    getcontext().prec = digits
    total = Decimal(0)
    m = len(ks)
    for mask in range(1 << m):
        ksum = Decimal(0)
        bits = 0
        for i in range(m):
            if mask >> i & 1:
                ksum += Decimal(repr(ks[i]))
                bits += 1
        term = Decimal(1) / (Decimal(1) + 2 * ksum / Decimal(repr(rho))).sqrt()
        total += -term if bits % 2 else term
    return float(total / 2)


class TestGaussianQ:
    def test_table_values(self):
        # classic normal-tail values
        assert gaussian_q(0.0) == pytest.approx(0.5, abs=1e-16)
        assert gaussian_q(1.0) == pytest.approx(0.15865525393145705, rel=1e-12)
        assert gaussian_q(2.0) == pytest.approx(0.02275013194817921, rel=1e-12)
        assert gaussian_q(3.0) == pytest.approx(1.3498980316300946e-3, rel=1e-12)
        assert gaussian_q(-1.0) == pytest.approx(0.8413447460685429, rel=1e-12)

    @pytest.mark.parametrize("x", [-6.0, -2.5, -0.3, 0.7, 1.9, 4.2, 7.5])
    def test_matches_quadrature(self, x):
        assert gaussian_q(x) == pytest.approx(q_oracle(x), rel=1e-10)

    def test_deep_tail(self):
        # beyond the quadrature's comfort zone the asymptotic form applies
        x = 20.0
        asym = math.exp(-0.5 * x * x) / (x * math.sqrt(2 * math.pi))
        assert gaussian_q(x) == pytest.approx(asym, rel=1e-2)
        assert gaussian_q(50.0) < 1e-300

    def test_limits_and_errors(self):
        assert gaussian_q(math.inf) == 0.0
        assert gaussian_q(-math.inf) == 1.0
        with pytest.raises(ValueError):
            gaussian_q(math.nan)

    def test_vectorized(self):
        x = np.array([-1.0, 0.0, 1.0])
        out = gaussian_q(x)
        assert out.shape == x.shape
        assert out[1] == 0.5

    def test_bits_of_the_textbook_form_and_input_kept(self):
        # evaluated in place in its own output, Q keeps the bits of
        # 0.5 * erfc(x / sqrt(2)) and never writes into its argument
        mag = np.concatenate([[0.0, 5e-324, 2.2e-308 / 3, np.inf],
                              np.geomspace(1e-300, 40.0, 2001)])
        x = np.concatenate([mag, -mag]).reshape(2, -1)
        kept = x.copy()
        want = 0.5 * erfc(x / math.sqrt(2.0))
        assert gaussian_q(x).tobytes() == want.tobytes()
        assert x.tobytes() == kept.tobytes()
        assert [gaussian_q(float(v)) for v in x.ravel()] == want.ravel().tolist()
        # a non-contiguous view and a 0-d array come back as fresh values
        view = x[:, ::3]
        assert gaussian_q(view).tobytes() == want[:, ::3].tobytes()
        assert gaussian_q(np.array(1.0)) == 0.5 * erfc(1.0 / math.sqrt(2.0))
        assert x.tobytes() == kept.tobytes()

    @given(st.floats(min_value=-8.0, max_value=8.0, allow_nan=False))
    def test_symmetry(self, x):
        assert gaussian_q(x) + gaussian_q(-x) == pytest.approx(1.0, abs=1e-14)

    @given(st.floats(min_value=-8.0, max_value=8.0),
           st.floats(min_value=1e-6, max_value=4.0))
    def test_monotone_decreasing(self, x, dx):
        assert gaussian_q(x + dx) <= gaussian_q(x)


class TestDeepFadeIntegral:
    @pytest.mark.parametrize("rho,ks", [
        (1.0, (1.0,)),
        (10.0, (0.5,)),
        (10.0, (1.0, 2.0)),
        (100.0, (1.0, 2.0, 3.0)),
        (1e4, (1.0, 1.0, 1.0)),
        (1e6, (1.0, 1.0, 1.0)),
        (1e6, (0.25, 1.5)),
    ])
    def test_matches_closed_form(self, rho, ks):
        assert deep_fade_integral(rho, ks) == pytest.approx(
            fade_integral_oracle(rho, ks), rel=1e-8)

    def test_single_factor_closed_form(self):
        # one factor reduces to (1/2)[1 - (1 + 2k/rho)^(-1/2)]
        rho, k = 37.0, 1.3
        expect = 0.5 * (1.0 - (1.0 + 2 * k / rho) ** -0.5)
        assert deep_fade_integral(rho, (k,)) == pytest.approx(expect, rel=1e-10)

    def test_power_law_asymptote(self):
        # with all k = 1 the large-rho value approaches (2M-1)!! / (2 rho^M)
        for m, dfact in [(1, 1.0), (2, 3.0), (3, 15.0)]:
            val = deep_fade_integral(1e6, (1.0,) * m)
            assert val == pytest.approx(dfact / (2 * 1e6 ** m), rel=1e-2)

    def test_slope_near_minus_m(self):
        for m in (1, 2, 3):
            lo = deep_fade_integral(1e4, (1.0,) * m)
            hi = deep_fade_integral(1e6, (1.0,) * m)
            slope = (math.log(hi) - math.log(lo)) / (math.log(1e6) - math.log(1e4))
            assert slope == pytest.approx(-m, abs=0.1)

    @given(st.floats(min_value=0.5, max_value=1e4),
           st.lists(st.floats(min_value=0.05, max_value=20.0), min_size=1, max_size=4))
    @settings(max_examples=60, deadline=None)
    def test_uniform_k_sandwich(self, rho, ks):
        # each factor grows with k, so replacing every k by the min lower-bounds
        # the mixed value and replacing by the max upper-bounds it
        mixed = deep_fade_integral(rho, ks)
        lo = deep_fade_integral(rho, (min(ks),) * len(ks))
        hi = deep_fade_integral(rho, (max(ks),) * len(ks))
        assert lo <= mixed * (1 + 1e-9) + 1e-300
        assert mixed <= hi * (1 + 1e-9) + 1e-300

    def test_errors(self):
        with pytest.raises(ValueError):
            deep_fade_integral(0.0, (1.0,))
        with pytest.raises(ValueError):
            deep_fade_integral(10.0, ())
        with pytest.raises(ValueError):
            deep_fade_integral(10.0, (1.0, -2.0))


def stirling2(n, k):
    # second-kind Stirling numbers by the standard recurrence
    if n == 0 and k == 0:
        return 1
    if n == 0 or k == 0:
        return 0
    return k * stirling2(n - 1, k) + stirling2(n - 1, k - 1)


class TestAlternatingBinomialMoment:
    def test_small_values(self):
        assert alternating_binomial_moment(1, 1) == -1
        assert alternating_binomial_moment(2, 2) == 2
        assert alternating_binomial_moment(3, 3) == -6

    def test_matches_stirling_identity(self):
        # sum_m C(M,m) m^n (-1)^m = (-1)^M M! S(n, M)
        for m in range(0, 8):
            for n in range(0, 10):
                expect = (-1) ** m * math.factorial(m) * stirling2(n, m)
                assert alternating_binomial_moment(m, n) == expect

    def test_vanishes_below_diagonal(self):
        for m in range(1, 16):
            for n in range(0, m):
                assert alternating_binomial_moment(m, n) == 0
            assert alternating_binomial_moment(m, m) != 0

    def test_exact_integer(self):
        assert isinstance(alternating_binomial_moment(5, 7), int)

    def test_errors(self):
        for bad in [(-1, 0), (0, -1), (21, 3), (3, 21)]:
            with pytest.raises(ValueError):
                alternating_binomial_moment(*bad)


class TestFitDiversitySlope:
    def test_exact_power_law(self):
        rho = np.logspace(2, 4, 11)
        p = 3.7 * rho ** -2.0
        order, resid = fit_diversity_slope(rho, p)
        assert order == pytest.approx(2.0, abs=1e-12)
        assert resid == pytest.approx(0.0, abs=1e-12)

    def test_noisy_power_law(self):
        rng = np.random.default_rng(5)
        rho = np.logspace(2, 4, 11)
        p = 0.2 * rho ** -1.0 * np.exp(rng.normal(0, 0.05, rho.size))
        order, resid = fit_diversity_slope(rho, p)
        assert order == pytest.approx(1.0, abs=0.15)
        assert 0 < resid < 0.2

    def test_errors(self):
        with pytest.raises(ValueError):
            fit_diversity_slope(np.array([10.0]), np.array([0.1]))
        with pytest.raises(ValueError):
            fit_diversity_slope(np.array([10.0, 100.0]), np.array([0.1, 0.0]))
        with pytest.raises(ValueError, match="must be positive"):
            fit_diversity_slope(np.array([10.0, 100.0]), np.array([0.1, math.nan]))
        with pytest.raises(ValueError, match="zero spread"):
            fit_diversity_slope(np.array([10.0, 10.0]), np.array([0.1, 0.2]))
