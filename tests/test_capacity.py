"""Tests for capacity bounds, estimation-noise effects, and throughput."""

from __future__ import annotations

import gc
import json
import math
import tracemalloc
from functools import partial

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from beaconsim import capacity, channel, cli
from beaconsim.channel import MeanGains
from beaconsim.capacity import (
    ActivityModel,
    CapacityEstimate,
    OutageResult,
    OverheadParams,
    capacity_draws,
    capacity_lower,
    capacity_upper,
    ergodic_capacity,
    imperfect_capacity,
    outage_capacity,
    relative_capacity_loss,
    state_probs,
    throughput,
    throughput_loss_bound,
    throughput_loss_mc,
    wrong_relay_bound,
    wrong_relay_probability_mc,
)
from beaconsim.fadeprob import abs_diff_q_mean
from beaconsim.mc import (
    TAG_GAINS,
    TAG_METRIC_NOISE,
    TAG_STATUS,
    parallel_grid_stats,
)
from beaconsim.numerics import gaussian_q
from beaconsim.protocols import (
    OcsaFactors,
    ProtocolConfig,
    Scheme,
    gain_order,
    metric_order,
    ocsa_conditional_miss,
    ocsa_joint_success,
    phase1_failure,
)
from oracle import wrong_relay_indicator

MEANS = MeanGains(pt=1.0, pr=2.0, tr=3.0)
ACT = ActivityModel(p_theta_t=0.85, p_theta_joint=0.7)


# ---------------------------------------------------------------------------
# Pointwise bound formulas
# ---------------------------------------------------------------------------


class TestBounds:
    def test_upper_frozen(self):
        assert capacity_upper(0.7, 5.0) == pytest.approx(
            2.117874564474996, rel=1e-13
        )

    def test_upper_zero_state(self):
        assert capacity_upper(0.0, 5.0) == 0.0
        assert capacity_upper(0.0, 0.0) == 0.0

    def test_upper_vectorized(self):
        out = capacity_upper(np.array([0.0, 0.7]), np.array([1.0, 5.0]))
        assert out[0] == 0.0
        assert out[1] == pytest.approx(2.117874564474996, rel=1e-13)

    def test_lower_frozen(self):
        assert capacity_lower(0.8, 0.6, 5.0, 10.0) == pytest.approx(
            1.570519092987647, rel=1e-13
        )

    def test_lower_can_be_negative(self):
        # Tiny access probability: the coherence penalty dominates.
        assert capacity_lower(0.5, 1e-6, 1.0, 10.0) < 0.0

    def test_lower_zero_power(self):
        assert capacity_lower(0.5, 0.3, 0.0, 10.0) == pytest.approx(
            -0.14426950408889633, rel=1e-13
        )

    def test_lower_rejects_zero_state_with_power(self):
        with pytest.raises(ValueError):
            capacity_lower(0.0, 0.0, 1.0, 10.0)

    def test_lower_rejects_bad_coherence(self):
        with pytest.raises(ValueError):
            capacity_lower(0.5, 0.3, 1.0, 0.0)

    @given(
        pt=st.floats(0.01, 1.0),
        ratio=st.floats(0.0, 1.0),
        power=st.floats(0.0, 1e3),
        tc=st.floats(0.5, 100.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_lower_below_upper(self, pt, ratio, power, tc):
        pj = pt * ratio
        assert capacity_lower(pt, pj, power, tc) <= capacity_upper(pj, power) + 1e-12

    @given(p1=st.floats(0.01, 0.99), p2=st.floats(0.01, 0.99),
           power=st.floats(0.01, 100.0))
    @settings(max_examples=200, deadline=None)
    def test_upper_monotone_in_state_prob(self, p1, p2, power):
        lo, hi = sorted([p1, p2])
        assert capacity_upper(lo, power) <= capacity_upper(hi, power) + 1e-12

    @pytest.mark.parametrize("p", [1e-3, 0.05, 0.5, 1.0])
    def test_bounds_keep_relative_accuracy_at_low_snr(self, p):
        # log2(1 + pw/p) as a difference of logs cancels once pw << p
        ratio = np.concatenate([10.0 ** np.arange(-300.0, 3.5, 0.5),
                                2.0 ** np.arange(-12.0, -8.0, 0.125)])
        pw = ratio * p
        with mpmath.workdps(50):
            want = np.array([float(mpmath.log1p(mpmath.mpf(w) / p)
                                   / mpmath.log(2)) for w in pw])
        upper = capacity_upper(np.full(pw.shape, p), pw) / p
        lower = capacity_lower(np.full(pw.shape, p), 1.0, pw, np.inf)
        for got in (upper, lower):
            assert np.max(np.abs(got / want - 1.0)) <= 1e-12

    def test_state_probs(self):
        p_t, p_joint = state_probs(ACT, miss_t=0.2, joint_success=0.9)
        assert p_t == pytest.approx(0.85 * 0.8, rel=1e-14)
        assert p_joint == pytest.approx(0.7 * 0.9, rel=1e-14)

    def test_activity_validation(self):
        with pytest.raises(ValueError):
            ActivityModel(p_theta_t=0.5, p_theta_joint=0.7)
        with pytest.raises(ValueError):
            ActivityModel(p_theta_t=1.2, p_theta_joint=0.5)
        with pytest.raises(ValueError):
            ActivityModel(p_theta_t=0.5, p_theta_joint=-0.1)


# ---------------------------------------------------------------------------
# Ergodic estimates
# ---------------------------------------------------------------------------


class TestErgodic:
    def test_returns_estimate(self):
        est = ergodic_capacity(Scheme.CSA, MEANS, ACT, rho=10.0, t_c=10.0,
                               n=50_000, seed=3)
        assert isinstance(est, CapacityEstimate)
        assert est.lower_mean <= est.upper_mean
        assert est.upper_se > 0

    def test_scheme_ordering(self):
        kw = dict(means=MEANS, activity=ACT, rho=10.0, t_c=10.0,
                  n=200_000, seed=5)
        nc = ergodic_capacity(Scheme.NC, **kw)
        csa = ergodic_capacity(Scheme.CSA, **kw)
        ocsa = ergodic_capacity(Scheme.OCSA, **kw)
        assert csa.upper_mean >= nc.upper_mean
        assert ocsa.upper_mean >= csa.upper_mean
        assert csa.lower_mean >= nc.lower_mean
        assert ocsa.lower_mean >= csa.lower_mean

    def test_draws_lower_below_upper(self):
        for scheme in (Scheme.NC, Scheme.CSA, Scheme.OCSA):
            up, lo = capacity_draws(scheme, MEANS, ACT, rho=1.0, t_c=10.0,
                                    n=20_000, seed=7)
            assert up.shape == lo.shape == (20_000,)
            assert np.all(lo <= up + 1e-12)

    def test_deterministic(self):
        kw = dict(means=MEANS, activity=ACT, rho=10.0, t_c=10.0,
                  n=30_000, seed=11, chunk=7_000)
        a = ergodic_capacity(Scheme.OCSA, **kw)
        b = ergodic_capacity(Scheme.OCSA, **kw)
        assert a == b
        c = ergodic_capacity(Scheme.OCSA, threads=4, **kw)
        assert a == c

    @pytest.mark.parametrize("threads", [1, 2])
    def test_means_are_exact_sums_of_contiguous_chunk_sums(self, threads):
        # each bound is reduced as its own 1-D array: per chunk one numpy
        # sum over a contiguous slice, then math.fsum over the chunks
        kw = dict(means=MEANS, activity=ACT, rho=10.0, t_c=10.0,
                  n=30_000, seed=11, chunk=7_000)
        est = ergodic_capacity(Scheme.OCSA, threads=threads, **kw)
        draws = capacity_draws(Scheme.OCSA, **kw)
        for values, mean in zip(draws, (est.upper_mean, est.lower_mean)):
            sums = [np.sum(values[start:start + 7_000])
                    for start in range(0, 30_000, 7_000)]
            assert mean == math.fsum(sums) / 30_000

    def test_multiuser_rejected(self):
        with pytest.raises(ValueError):
            ergodic_capacity(Scheme.MUCSA, MEANS, ACT, rho=1.0, t_c=10.0,
                             n=100, seed=1)


# ---------------------------------------------------------------------------
# Outage quantiles
# ---------------------------------------------------------------------------


class TestOutage:
    @staticmethod
    def kernel_bounds(cfg, ch, sigma2, seed):
        """Per-trial (upper, lower) bounds of chunk 0's gains ch: from the
        standalone kernels at sigma2 = 0, otherwise from the ocsa model
        under the chunk's noisy metric order."""
        g = (ch.g_pt, ch.g_pr, ch.g_tr)
        if sigma2:
            m = channel.perturb_metrics(
                channel.compute_metrics(ch), sigma2,
                channel.substream(seed, TAG_METRIC_NOISE, 0))
            cells = OcsaFactors(cfg, *g, phase1_failure(cfg, ch.g_pt),
                                phase1_failure(cfg, ch.g_pr)
                                ).cells(metric_order(m))
        else:
            cells = (ocsa_conditional_miss(cfg, *g),
                     ocsa_joint_success(cfg, *g))
        p_t, p_joint = state_probs(ACT, *cells)
        power = cfg.rho * ch.g_tr
        return (capacity_upper(p_joint, power),
                capacity_lower(p_t, p_joint, power, 10.0))

    @pytest.mark.parametrize("sigma2", [0.0, 0.3])
    def test_ocsa_draws_equal_standalone_kernels(self, sigma2):
        # the ocsa cells pick from factors kept for both recovery links;
        # noiseless they must give the standalone kernels' bits
        n, seed, rho = 5000, 17, 2.5
        up, lo = capacity_draws(Scheme.OCSA, MEANS, ACT, rho=rho, t_c=10.0,
                                n=n, seed=seed, d1=1, d2=2, sigma2=sigma2,
                                chunk=n)
        ch = channel.draw_pair_chunk(MEANS, seed, 0, n)
        want = self.kernel_bounds(ProtocolConfig(rho=rho, d1=1, d2=2), ch,
                                  sigma2, seed)
        assert [up.tobytes(), lo.tobytes()] == [w.tobytes() for w in want]

    def test_noiseless_draws_read_the_kernels_gain_order(self, monkeypatch):
        # 1e20 + 1 and 1e20 + 2 round alike, so in each rotation two metric
        # sums tie while their gains differ; the noiseless pick must still
        # be the kernels' gain comparison, not the rounded sums
        g = np.array([[1e20, 1.0, 2.0], [2.0, 1e20, 1.0], [1.0, 2.0, 1e20]])
        ch = channel.ChannelSet(*(np.ascontiguousarray(c) for c in g.T))
        sums = metric_order(channel.compute_metrics(ch))
        gains = gain_order(ch.g_pt, ch.g_pr, ch.g_tr)
        assert [list(o) for o in sums] != [list(o) for o in gains]
        monkeypatch.setattr(capacity, "draw_pair_chunk",
                            lambda means, seed, idx, size: ch)
        draws = capacity_draws(Scheme.OCSA, MEANS, ACT, rho=1.0, t_c=10.0,
                               n=3, seed=5, sigma2=0.0)
        want = self.kernel_bounds(ProtocolConfig(rho=1.0), ch, 0.0, 5)
        assert [d.tobytes() for d in draws] == [w.tobytes() for w in want]

    def test_quantiles_match_sorted_draws(self):
        n = 10_000
        up, lo = capacity_draws(Scheme.CSA, MEANS, ACT, rho=10.0, t_c=10.0,
                                n=n, seed=13)
        res = outage_capacity(Scheme.CSA, MEANS, ACT, rho=10.0, t_c=10.0,
                              epsilons=(0.05, 0.1), n=n, seed=13)
        assert isinstance(res, OutageResult)
        up_sorted = np.sort(up)
        lo_sorted = np.sort(lo)
        for i, eps in enumerate(res.epsilons):
            k = int(math.floor(eps * n))
            assert res.upper[i] == up_sorted[k]
            assert res.lower[i] == lo_sorted[k]

    def test_monotone_in_epsilon(self):
        res = outage_capacity(Scheme.OCSA, MEANS, ACT, rho=10.0, t_c=10.0,
                              epsilons=(0.01, 0.05, 0.1), n=50_000, seed=17)
        assert np.all(np.diff(res.upper) >= 0)
        assert np.all(np.diff(res.lower) >= 0)
        assert np.all(res.lower <= res.upper + 1e-12)

    def test_epsilon_validation(self):
        with pytest.raises(ValueError):
            outage_capacity(Scheme.NC, MEANS, ACT, rho=1.0, t_c=10.0,
                            epsilons=(0.0,), n=100, seed=1)
        with pytest.raises(ValueError):
            outage_capacity(Scheme.NC, MEANS, ACT, rho=1.0, t_c=10.0,
                            epsilons=(1.5,), n=100, seed=1)


# ---------------------------------------------------------------------------
# Imperfect metric estimation
# ---------------------------------------------------------------------------


class TestImperfect:
    KW = dict(means=MEANS, activity=ACT, rho=1.0, t_c=10.0,
              n=100_000, seed=19)

    def test_zero_noise_identical_to_ergodic(self):
        base = ergodic_capacity(Scheme.OCSA, **self.KW)
        noisy = imperfect_capacity(Scheme.OCSA, sigma2=0.0, **self.KW)
        assert base == noisy

    def test_metric_free_schemes_unaffected(self):
        # Only the opportunistic selection reads the metrics, so noise
        # cannot change the other schemes' estimates at all.
        for scheme in (Scheme.NC, Scheme.CSA):
            base = ergodic_capacity(scheme, **self.KW)
            noisy = imperfect_capacity(scheme, sigma2=4.0, **self.KW)
            assert base == noisy

    def test_noise_degrades_opportunistic(self):
        base = ergodic_capacity(Scheme.OCSA, **self.KW)
        noisy = imperfect_capacity(Scheme.OCSA, sigma2=4.0, **self.KW)
        tol = 3.0 * math.hypot(base.upper_se, noisy.upper_se)
        assert noisy.upper_mean <= base.upper_mean + tol
        loss = relative_capacity_loss(base, noisy)
        assert loss >= -3.0 * math.hypot(base.upper_se, noisy.upper_se)

    def test_negative_sigma_rejected(self):
        with pytest.raises(ValueError):
            imperfect_capacity(Scheme.OCSA, sigma2=-1.0, **self.KW)


# ---------------------------------------------------------------------------
# Wrong-relay probability
# ---------------------------------------------------------------------------


class TestWrongRelay:
    def test_bound_closed_form(self):
        sigma2 = 0.5
        s = math.sqrt(2.0 * sigma2)
        want = (
            abs_diff_q_mean(s, MEANS.pr, MEANS.tr)
            + abs_diff_q_mean(s, MEANS.pt, MEANS.tr)
        ) / 3.0
        assert wrong_relay_bound(sigma2, MEANS) == pytest.approx(want, rel=1e-13)

    def test_zero_noise(self):
        assert wrong_relay_bound(0.0, MEANS) == 0.0
        mc, se = wrong_relay_probability_mc(0.0, MEANS, rho=1.0,
                                            n=20_000, seed=23)
        assert mc == 0.0

    @pytest.mark.parametrize("sigma2", [1.0, 0.01])
    def test_mc_below_bound(self, sigma2):
        iid = MeanGains(1.0, 1.0, 1.0)
        mc, se = wrong_relay_probability_mc(sigma2, iid, rho=1.0,
                                            n=200_000, seed=29)
        bound = wrong_relay_bound(sigma2, iid)
        assert mc > 0.0
        assert mc <= bound + 3.0 * se

    def test_deterministic(self):
        a = wrong_relay_probability_mc(0.1, MEANS, rho=1.0, n=30_000,
                                       seed=31, chunk=8_000)
        b = wrong_relay_probability_mc(0.1, MEANS, rho=1.0, n=30_000,
                                       seed=31, chunk=8_000, threads=4)
        assert a == b

    @pytest.mark.parametrize("means, rho_db, sigma2, d1", [
        ((1.0, 2.0, 3.0), 6.0, 0.01, 1),
        ((1.0, 1.0, 1.0), 0.0, 0.1, 1),
        ((2.0, 0.5, 1.0), 3.0, 1.0, 2),
    ])
    def test_conditional_agrees_with_indicator(self, means, rho_db, sigma2,
                                               d1):
        # independent seeds and streams, 1e6 trials each
        rho = 10.0 ** (rho_db / 10.0)
        mc, se = wrong_relay_probability_mc(
            sigma2, MeanGains(*means), rho, n=1_000_000, seed=41, d1=d1,
            chunk=100_000)
        ind, ind_se = wrong_relay_indicator(means, rho, d1, sigma2,
                                            n=1_000_000, seed=43)
        assert se < ind_se
        assert abs(mc - ind) <= 4.0 * math.hypot(se, ind_se)

    @pytest.mark.parametrize("side", ["t", "r"])
    def test_flip_odds_equal_brute_force_average(self, side):
        # fixed gains and own noise; average the flip over 1e6 draws of the
        # other two metric noises
        g_pt = np.array([1.0, 0.9, 0.2, 1.5, 0.6])
        g_pr = np.array([0.5, 1.0, 0.3, 1.4, 0.2])
        g_tr = np.array([0.8, 1.2, 0.1, 1.3, 0.7])
        z_own = np.array([0.3, -0.4, 1.1, 0.0, -1.2])
        sd = 0.4
        order = gain_order(g_pt, g_pr, g_tr)
        if side == "t":
            own, peer = g_pt, g_pr
            win = order.t_over_p & order.t_over_r
        else:
            own, peer = g_pr, g_pt
            win = order.r_over_p & order.r_over_t
        (w,) = capacity._flip_odds(win, g_tr - peer, own - peer, z_own, [sd])
        t_p, t_own, t_peer = g_pt + g_pr, own + g_tr, peer + g_tr
        rng = np.random.default_rng(47)
        n = 1_000_000
        for i in range(len(w)):
            wins = (t_own[i] > t_p[i]) and (t_own[i] > t_peer[i])
            z_p, z_peer = sd * rng.standard_normal((2, n))
            mine = t_own[i] + sd * z_own[i]
            flips = ((mine > t_p[i] + z_p) & (mine > t_peer[i] + z_peer)
                     ) != wins
            se = math.sqrt(w[i] * (1.0 - w[i]) / n)
            assert 1e-3 < w[i] < 1.0 - 1e-3
            assert abs(flips.mean() - w[i]) <= 4.0 * se

    @pytest.mark.parametrize("means", [(1.0, 1.0, 1.0)] + [
        tuple(v if i == j else 1.0 for i in range(3))
        for v in (1e-30, 1e30) for j in range(3)]
        + [(1e-30,) * 3, (1e30,) * 3])
    def test_edge_range(self, means, tmp_path):
        # the imperfect kind and the library call over extreme noise, SNR
        # and pair means: finite probabilities, nonnegative SEs, and exact
        # zeros without noise
        sigma2 = [0.0, 1e-300, 0.05, 1e6, 1e300]
        rho_db = [-60.0, 0.0, 60.0]
        cfg = tmp_path / "edge.ini"
        cfg.write_text(
            "[run]\nseed = 61\nn_trials = 2000\n"
            "[channel]\n" + "".join(f"{k} = {v!r}\n" for k, v in
                                    zip(("pt", "pr", "tr"), means))
            + '[protocol]\nscheme = "ocsa"\nd = 2\nalpha = 0.5\n'
            "[capacity]\np_theta_t = 0.85\np_theta_joint = 0.7\n"
            f"t_c = 10.0\nsigma2 = {sigma2}\n"
            f'[sweep]\nrho_db = {rho_db}\nmode = "channel"\n')
        out = tmp_path / "edge.json"
        assert cli.main(["imperfect", "--config", str(cfg), "--format",
                         "json", "--out", str(out)]) == 0
        rows = json.loads(out.read_text())["rows"]
        assert len(rows) == len(sigma2) * len(rho_db)
        cells = [(r["sigma2"], r["wrong_relay_mc"], r["wrong_relay_se"])
                 for r in rows]
        s2 = np.array(sigma2)[:, None]
        mc, se = wrong_relay_probability_mc(
            s2, MeanGains(*means), 10.0 ** (np.array(rho_db) / 10.0),
            n=2000, seed=61)
        cells += zip(np.broadcast_to(s2, mc.shape).ravel(), mc.ravel(),
                     se.ravel())
        for level, p, p_se in cells:
            assert 0.0 <= p <= 1.0 and 0.0 <= p_se < math.inf
            if level == 0.0:
                assert (p, p_se) == (0.0, 0.0)

    def test_variance_drop_on_benchmark_cell(self):
        # the capacity-mix config (means 1, 2, 3; d1 = d2 = 1) at 6 dB,
        # sigma2 = 0.01: the conditional value's per-trial variance over
        # the indicator's, from their SEs at equal n
        rho = 10.0 ** 0.6
        n = 200_000
        _, se = wrong_relay_probability_mc(0.01, MEANS, rho, n=n, seed=53,
                                           chunk=50_000)
        _, ind_se = wrong_relay_indicator((1.0, 2.0, 3.0), rho, 1, 0.01, n,
                                          seed=59)
        assert (ind_se / se) ** 2 >= 5.0


# ---------------------------------------------------------------------------
# Throughput with beaconing overhead
# ---------------------------------------------------------------------------


class TestThroughput:
    def test_overhead_ratios(self):
        ov = OverheadParams(t_cr=2.0, t_fb=0.4, beta=0.3, lambda_pt=1.5)
        assert ov.w1 == pytest.approx(0.2, rel=1e-14)
        assert ov.w2 == pytest.approx(0.1, rel=1e-14)

    def test_overhead_validation(self):
        with pytest.raises(ValueError):
            OverheadParams(t_cr=0.0, t_fb=0.1, beta=0.1)
        with pytest.raises(ValueError):
            OverheadParams(t_cr=1.0, t_fb=-0.1, beta=0.1)
        with pytest.raises(ValueError):
            OverheadParams(t_cr=1.0, t_fb=0.1, beta=-0.1)

    def test_throughput_frozen(self):
        ov = OverheadParams(t_cr=1.0, t_fb=0.2, beta=0.1)
        assert throughput(3.0, ov, 2.5) == pytest.approx(
            2.4193548387096775, rel=1e-13
        )

    def test_throughput_no_overhead(self):
        ov = OverheadParams(t_cr=1.0, t_fb=0.0, beta=0.0)
        assert throughput(3.0, ov, 0.5) == pytest.approx(3.0, rel=1e-14)

    def test_loss_bound_frozen(self):
        ov = OverheadParams(t_cr=1.0, t_fb=0.2, beta=0.15)
        assert throughput_loss_bound(ov) == pytest.approx(
            0.32644481034685824, rel=1e-13
        )

    def test_loss_bound_zero_at_origin(self):
        ov = OverheadParams(t_cr=1.0, t_fb=0.0, beta=0.0)
        assert throughput_loss_bound(ov) == 0.0

    def test_mc_loss_zero_at_origin(self):
        ov = OverheadParams(t_cr=1.0, t_fb=0.0, beta=0.0)
        mean, se = throughput_loss_mc(ov, MeanGains(1.0, 1.0, 1.0),
                                      rho=1.0, n=10_000, seed=37)
        assert mean == 0.0 and se == 0.0

    @pytest.mark.parametrize("w1,w2", [(0.3, 0.3), (0.1, 0.02), (0.0, 0.25)])
    def test_mc_below_bound(self, w1, w2):
        ov = OverheadParams(t_cr=1.0, t_fb=w1, beta=w2, lambda_pt=1.0)
        mean, se = throughput_loss_mc(ov, MeanGains(1.0, 1.0, 1.0),
                                      rho=1.0, n=100_000, seed=41)
        assert mean <= throughput_loss_bound(ov) + 3.0 * se
        assert 0.0 <= mean < 1.0

    def test_mc_deterministic(self):
        ov = OverheadParams(t_cr=1.0, t_fb=0.2, beta=0.1)
        a = throughput_loss_mc(ov, MEANS, rho=1.0, n=30_000, seed=43,
                               chunk=9_000)
        b = throughput_loss_mc(ov, MEANS, rho=1.0, n=30_000, seed=43,
                               chunk=9_000, threads=3)
        assert a == b


# ---------------------------------------------------------------------------
# Grids: each chunk drawn once, each cell equal to its one-cell call
# ---------------------------------------------------------------------------


class TestGrid:
    RHOS = np.array([0.5, 1.0, 4.0])
    KW = dict(means=MEANS, n=400, seed=5, chunk=100)  # four chunks
    OVS = [[OverheadParams(t_cr=1.0, t_fb=w1, beta=w2) for w2 in (0.1, 0.3)]
           for w1 in (0.0, 0.2)]

    @staticmethod
    def opened(monkeypatch):
        """Chunk indices of the substreams opened, by purpose tag."""
        keys = []
        for module in (channel, capacity):
            def counted(*key, _orig=module.substream):
                keys.append(key[1:])
                return _orig(*key)

            monkeypatch.setattr(module, "substream", counted)
        return lambda tag: sorted(idx for t, idx in keys if t == tag)

    def test_ergodic_draws_gains_once(self, monkeypatch):
        opened = self.opened(monkeypatch)
        est = ergodic_capacity(Scheme.OCSA, activity=ACT, rho=self.RHOS,
                               t_c=10.0, **self.KW)
        assert est.upper_mean.shape == est.lower_se.shape == (3,)
        assert opened(TAG_GAINS) == [0, 1, 2, 3]  # 12 with one call per rho
        assert opened(TAG_METRIC_NOISE) == opened(TAG_STATUS) == []

    def test_imperfect_draws_each_noise_level_once(self, monkeypatch):
        opened = self.opened(monkeypatch)
        est = imperfect_capacity(Scheme.OCSA, activity=ACT, rho=self.RHOS,
                                 t_c=10.0, sigma2=[[0.0], [0.1], [0.2]],
                                 **self.KW)
        assert est.upper_mean.shape == (3, 3)
        assert opened(TAG_GAINS) == [0, 1, 2, 3]
        # one noise draw per chunk, which both noisy levels scale
        assert opened(TAG_METRIC_NOISE) == [0, 1, 2, 3]

    def test_wrong_relay_draws_once(self, monkeypatch):
        opened = self.opened(monkeypatch)
        mc, se = wrong_relay_probability_mc([[0.1], [0.2]], rho=self.RHOS,
                                            **self.KW)
        assert mc.shape == se.shape == (2, 3)
        # the wrong-relay value integrates the statuses out: none is drawn
        assert opened(TAG_GAINS) == opened(TAG_METRIC_NOISE) == [0, 1, 2, 3]
        assert opened(TAG_STATUS) == []

    def test_throughput_draws_once(self, monkeypatch):
        opened = self.opened(monkeypatch)
        mc, se = throughput_loss_mc(self.OVS, rho=1.0, **self.KW)
        assert mc.shape == se.shape == (2, 2)
        # 16 and 16 with one call per overhead cell
        assert opened(TAG_GAINS) == opened(TAG_STATUS) == [0, 1, 2, 3]

    def test_metric_free_scheme_evaluates_each_rho_once(self):
        est = imperfect_capacity(Scheme.CSA, activity=ACT, rho=self.RHOS,
                                 t_c=10.0, sigma2=[[0.0], [0.1], [0.2]],
                                 **self.KW)
        assert est.upper_mean.shape == est.lower_se.shape == (3, 3)
        assert np.all(est.upper_mean == est.upper_mean[0])
        with pytest.raises(ValueError, match="sigma2 must be nonnegative"):
            imperfect_capacity(Scheme.CSA, activity=ACT, rho=self.RHOS,
                               t_c=10.0, sigma2=[0.0, -0.1, 0.0], **self.KW)

    @pytest.mark.parametrize("scheme", [Scheme.NC, Scheme.CSA, Scheme.OCSA])
    @pytest.mark.parametrize("threads", [1, 2])
    def test_bound_cells_equal_one_cell_calls(self, scheme, threads):
        s2 = np.array([[0.1], [0.0]])
        grid = imperfect_capacity(scheme, activity=ACT, rho=self.RHOS,
                                  t_c=10.0, sigma2=s2, threads=threads,
                                  **self.KW)
        for (i, j), sigma2 in np.ndenumerate(np.broadcast_to(s2, (2, 3))):
            one = imperfect_capacity(scheme, activity=ACT, rho=self.RHOS[j],
                                     t_c=10.0, sigma2=sigma2, **self.KW)
            assert isinstance(one.upper_mean, float)
            assert one == CapacityEstimate(
                grid.upper_mean[i, j], grid.upper_se[i, j],
                grid.lower_mean[i, j], grid.lower_se[i, j], grid.n_trials)

    def test_imperfect_estimates_equal_standalone_kernels(self, monkeypatch):
        # reference cells from the standalone kernels (sigma2 = 0) or the
        # ocsa model under each noisy metric order, and the conditional
        # wrong-relay formula, reduced by the same parallel_grid_stats;
        # sigma2 repeats a level and includes 0
        s2 = [0.3, 0.0, 0.05, 1.0, 0.01, 0.3, 2.0]
        opened = self.opened(monkeypatch)
        est, base, wrong = capacity.imperfect_estimates(
            activity=ACT, rho=self.RHOS[:, None], t_c=10.0, sigma2=s2,
            **self.KW)
        # each chunk's gains and metric noise open once; no status is drawn
        assert opened(TAG_GAINS) == opened(TAG_METRIC_NOISE) == [0, 1, 2, 3]
        assert opened(TAG_STATUS) == []
        seed = self.KW["seed"]

        def draw(idx, start, size):
            ch = channel.draw_pair_chunk(MEANS, seed, idx, size)
            clean = channel.compute_metrics(ch)
            noisy = {s: channel.perturb_metrics(
                clean, s, channel.substream(seed, TAG_METRIC_NOISE, idx))
                for s in s2 if s}
            z = channel.substream(seed, TAG_METRIC_NOISE, idx
                                  ).standard_normal((3, size))
            return ch, clean, noisy, z

        def flip(lead, over_p, over_peer, z_own, sd):
            # the chance that noise flips a side's win, given its own noise
            q_a = gaussian_q(over_p / sd + z_own)
            q_b = gaussian_q(over_peer / sd + z_own)
            return np.where(lead, 1.0 - (1.0 - q_a) * (1.0 - q_b),
                            (1.0 - q_a) * (1.0 - q_b))

        def reference(rho, sample, _scratch):
            ch, clean, noisy, z = sample
            g = (ch.g_pt, ch.g_pr, ch.g_tr)
            cfg = ProtocolConfig(rho=rho, d1=1, d2=1)
            factors = OcsaFactors(cfg, *g, phase1_failure(cfg, ch.g_pt),
                                  phase1_failure(cfg, ch.g_pr))
            for s in (*s2, 0.0):  # the noisy cells, then the baseline
                p_t, p_joint = state_probs(ACT, *(
                    factors.cells(metric_order(noisy[s])) if s else
                    (ocsa_conditional_miss(cfg, *g),
                     ocsa_joint_success(cfg, *g))))
                power = rho * ch.g_tr
                yield capacity_upper(p_joint, power)
                yield capacity_lower(p_t, p_joint, power, 10.0)
            a = phase1_failure(cfg, ch.g_pt)
            b = phase1_failure(cfg, ch.g_pr)
            t_p, t_t, t_r = clean.t_p, clean.t_t, clean.t_r
            for s in s2:
                if s == 0:
                    yield np.zeros(len(a))
                    continue
                sd = np.sqrt(s)
                w_t = flip((t_t > t_p) & (t_t > t_r), t_t - t_p, t_t - t_r,
                           z[1], sd)
                w_r = flip((t_r > t_p) & (t_r > t_t), t_r - t_p, t_r - t_t,
                           z[2], sd)
                yield (1.0 - a) * b * w_t + a * (1.0 - b) * w_r

        stats = list(zip(*parallel_grid_stats(
            draw, [partial(reference, rho) for rho in self.RHOS],
            self.KW["n"], self.KW["chunk"])))
        k = len(s2)
        for i in range(len(self.RHOS)):
            # per rho: upper and lower of each noisy cell and the baseline,
            # then the wrong-relay cells
            cells = stats[i * (3 * k + 2):(i + 1) * (3 * k + 2)]
            for j in range(k):
                for e, c in ((est, 2 * j), (base, 2 * k)):
                    (um, us), (lm, ls) = cells[c:c + 2]
                    assert [e.upper_mean[i, j], e.lower_mean[i, j]] == [um, lm]
                    assert [e.upper_se[i, j], e.lower_se[i, j]] == [us, ls]
                # the formula is written from the metric sums and 1 - Phi
                # products, so it rounds differently from the program
                mean, se = cells[2 * k + 2 + j]
                assert wrong[0][i, j] == pytest.approx(mean, rel=1e-9, abs=0)
                assert wrong[1][i, j] == pytest.approx(se, rel=1e-9, abs=0)
                assert (wrong[0][i, j] > 0) == (s2[j] > 0)

    @pytest.mark.parametrize("threads", [1, 2])
    def test_mc_cells_equal_one_cell_calls(self, threads):
        s2 = np.array([[0.0], [0.3]])
        grid = wrong_relay_probability_mc(s2, rho=self.RHOS, threads=threads,
                                          **self.KW)
        for (i, j), sigma2 in np.ndenumerate(np.broadcast_to(s2, (2, 3))):
            one = wrong_relay_probability_mc(sigma2, rho=self.RHOS[j],
                                             **self.KW)
            assert one == (grid[0][i, j], grid[1][i, j])
        grid = throughput_loss_mc(self.OVS, rho=1.0, threads=threads,
                                  **self.KW)
        for (i, j), ov in np.ndenumerate(np.array(self.OVS, dtype=object)):
            one = throughput_loss_mc(ov, rho=1.0, **self.KW)
            assert isinstance(one[0], float)
            assert one == (grid[0][i, j], grid[1][i, j])


class TestOnePassMemory:
    @staticmethod
    def _peak(n_rho, threads):
        """Peak traced bytes of an ocsa imperfect_estimates pass over n_rho
        rho values and three sigma2 levels, two 2.5e4-trial chunks."""
        rho = np.linspace(1.0, 4.0, 8)[:n_rho, None]
        gc.collect()
        tracemalloc.start()
        try:
            start, _ = tracemalloc.get_traced_memory()
            capacity.imperfect_estimates(
                MEANS, ACT, rho, t_c=10.0, n=50_000, seed=9,
                sigma2=[0.0, 0.01, 0.1], threads=threads, chunk=25_000)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return peak - start

    @pytest.mark.parametrize("threads", [1, 2])
    def test_peak_does_not_grow_with_rho(self, threads):
        # a thread holds one rho's detection factors at a time: each
        # point's arrays are freed when it finishes, before the next rho.
        # Two threads' peaks coincide only by chance, so the bound is one
        # thread's one-rho peak per thread.
        one = self._peak(1, threads=1)
        assert self._peak(8, threads) <= threads * one + 250_000
