"""Tests for the access-scheme detection and recovery formulas.

The reference oracle below evaluates every scheme by literal enumeration of
the four first-phase status combinations, applying the relay-selection rule
through explicit metric comparisons.  The package implementation uses
algebraically simplified vectorized expressions; both routes must agree.
"""

from __future__ import annotations

import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from beaconsim import protocols
from beaconsim.channel import (
    ChannelSet,
    MetricTriple,
    MultiuserChannelSet,
    compute_metrics,
    perturb_metrics,
)
from beaconsim.protocols import (
    MAX_PAIRS,
    OcsaFactors,
    ProtocolConfig,
    RelayIdentity,
    csa_conditional_miss,
    csa_joint_success,
    gain_order,
    metric_order,
    mucsa_conditional_miss,
    nc_conditional_miss,
    nc_joint_success,
    ocsa_conditional_miss,
    ocsa_joint_success,
    ocsa_select_relay,
    phase1_failure,
    split_channel_uses,
)

from oracle import mucsa_miss_by_masks

SQRT2 = math.sqrt(2.0)


def q(x: float) -> float:
    return 0.5 * math.erfc(x / SQRT2)


# ---------------------------------------------------------------------------
# Branch-enumeration oracle
# ---------------------------------------------------------------------------


def oracle_nc_miss(rho, d, g):
    return q(math.sqrt(2.0 * d * rho * g))


def oracle_csa_miss(rho, d1, d2, g_own, g_peer, g_tr):
    f_own = q(math.sqrt(2.0 * d1 * rho * g_own))
    f_peer = q(math.sqrt(2.0 * d1 * rho * g_peer))
    recover = q(math.sqrt(2.0 * d1 * rho * g_own + 2.0 * d2 * rho * g_tr))
    total = 0.0
    for own_ok, peer_ok in itertools.product([True, False], repeat=2):
        p = (1.0 - f_own if own_ok else f_own) * (1.0 - f_peer if peer_ok else f_peer)
        if own_ok:
            miss = 0.0
        elif peer_ok:
            miss = recover
        else:
            miss = 1.0
        total += p * miss
    return total


def oracle_csa_joint(rho, d1, d2, g_pt, g_pr, g_tr):
    ft = q(math.sqrt(2.0 * d1 * rho * g_pt))
    fr = q(math.sqrt(2.0 * d1 * rho * g_pr))
    total = 0.0
    for t_ok, r_ok in itertools.product([True, False], repeat=2):
        p = (1.0 - ft if t_ok else ft) * (1.0 - fr if r_ok else fr)
        if t_ok and r_ok:
            succ = 1.0
        elif t_ok:
            succ = 1.0 - q(math.sqrt(2.0 * d1 * rho * g_pr + 2.0 * d2 * rho * g_tr))
        elif r_ok:
            succ = 1.0 - q(math.sqrt(2.0 * d1 * rho * g_pt + 2.0 * d2 * rho * g_tr))
        else:
            succ = 0.0
        total += p * succ
    return total


def oracle_select(metrics, t_ok, r_ok):
    t_p, t_t, t_r = metrics
    if t_ok and t_t > max(t_p, t_r):
        return RelayIdentity.SECONDARY_TX
    if r_ok and t_r > max(t_p, t_t):
        return RelayIdentity.SECONDARY_RX
    return RelayIdentity.PRIMARY


def oracle_ocsa_miss_t(rho, d1, d2, g_pt, g_pr, g_tr, metrics=None):
    # metrics: (t_p, t_t, t_r), by default the true ones
    d = d1 + d2
    ft = q(math.sqrt(2.0 * d1 * rho * g_pt))
    fr = q(math.sqrt(2.0 * d1 * rho * g_pr))
    if metrics is None:
        metrics = (g_pt + g_pr, g_pt + g_tr, g_pr + g_tr)
    total = 0.0
    for t_ok, r_ok in itertools.product([True, False], repeat=2):
        p = (1.0 - ft if t_ok else ft) * (1.0 - fr if r_ok else fr)
        if t_ok:
            miss = 0.0
        else:
            relay = oracle_select(metrics, t_ok, r_ok)
            if relay == RelayIdentity.SECONDARY_RX:
                miss = q(math.sqrt(2.0 * d1 * rho * g_pt + 2.0 * d2 * rho * g_tr))
            else:
                miss = q(math.sqrt(2.0 * d * rho * g_pt))
        total += p * miss
    return total


def oracle_ocsa_joint(rho, d1, d2, g_pt, g_pr, g_tr, metrics=None):
    # On the single-success branches the detecting secondary relays exactly
    # when its metric beats the primary's (by default the true metrics, so
    # when the helper link beats the failed node's own primary link);
    # otherwise the primary repeats the beacon over all d uses.
    d = d1 + d2
    ft = q(math.sqrt(2.0 * d1 * rho * g_pt))
    fr = q(math.sqrt(2.0 * d1 * rho * g_pr))
    if metrics is None:
        metrics = (g_pt + g_pr, g_pt + g_tr, g_pr + g_tr)
    t_p, t_t, t_r = metrics

    def recover(g_own, relayed):
        if relayed:
            return 1.0 - q(math.sqrt(2.0 * d1 * rho * g_own + 2.0 * d2 * rho * g_tr))
        return 1.0 - q(math.sqrt(2.0 * d * rho * g_own))

    total = 0.0
    for t_ok, r_ok in itertools.product([True, False], repeat=2):
        p = (1.0 - ft if t_ok else ft) * (1.0 - fr if r_ok else fr)
        if t_ok and r_ok:
            succ = 1.0
        elif t_ok:
            succ = recover(g_pr, t_t > t_p)
        elif r_ok:
            succ = recover(g_pt, t_r > t_p)
        else:
            succ = recover(g_pt, False) * recover(g_pr, False)
        total += p * succ
    return total


def oracle_mucsa_miss(rho, d1, d2, g_p, g_uu, user):
    n_users = len(g_p)
    m_pairs = n_users // 2
    fail = [q(math.sqrt(2.0 * d1 * rho * g)) for g in g_p]
    others = [j for j in range(n_users) if j != user]
    total = 0.0
    for r in range(1, n_users):
        for subset in itertools.combinations(others, r):
            helper = sum(g_uu[i][user] for i in subset)
            p = 1.0
            for j in others:
                p *= (1.0 - fail[j]) if j in subset else fail[j]
            p *= fail[user]
            total += p * q(
                math.sqrt(
                    2.0 * d1 * rho * g_p[user]
                    + 2.0 * d2 * (rho / (2.0 * m_pairs)) * helper
                )
            )
    total += math.prod(fail)
    return total


# ---------------------------------------------------------------------------
# Configuration and channel-use split
# ---------------------------------------------------------------------------


class TestConfig:
    def test_defaults(self):
        cfg = ProtocolConfig(rho=10.0)
        assert cfg.d1 == 1 and cfg.d2 == 1 and cfg.d == 2

    def test_validation(self):
        with pytest.raises(ValueError):
            ProtocolConfig(rho=0.0)
        with pytest.raises(ValueError):
            ProtocolConfig(rho=-1.0)
        with pytest.raises(ValueError):
            ProtocolConfig(rho=1.0, d1=0)
        with pytest.raises(ValueError):
            ProtocolConfig(rho=1.0, d2=0)

    def test_split_half(self):
        assert split_channel_uses(2) == (1, 1)
        assert split_channel_uses(4) == (2, 2)
        assert split_channel_uses(5) == (2, 3)

    def test_split_clamped(self):
        assert split_channel_uses(2, alpha=0.01) == (1, 1)
        assert split_channel_uses(2, alpha=0.99) == (1, 1)
        assert split_channel_uses(10, alpha=0.99) == (9, 1)
        assert split_channel_uses(10, alpha=0.0) == (1, 9)

    def test_split_invalid(self):
        with pytest.raises(ValueError):
            split_channel_uses(1)
        with pytest.raises(ValueError):
            split_channel_uses(2, alpha=1.5)
        with pytest.raises(ValueError):
            split_channel_uses(2, alpha=-0.1)


# ---------------------------------------------------------------------------
# Non-cooperative scheme
# ---------------------------------------------------------------------------


class TestNonCooperative:
    def test_frozen_value(self):
        cfg = ProtocolConfig(rho=10.0)
        assert nc_conditional_miss(cfg, 0.5) == pytest.approx(
            3.872108215522048e-06, rel=1e-12
        )

    def test_zero_gain(self):
        cfg = ProtocolConfig(rho=10.0)
        assert nc_conditional_miss(cfg, 0.0) == 0.5
        assert nc_joint_success(cfg, 0.0, 0.0) == 0.25

    def test_joint_product_form(self):
        cfg = ProtocolConfig(rho=10.0)
        got = nc_joint_success(cfg, 0.5, 0.2)
        want = (1 - oracle_nc_miss(10.0, 2, 0.5)) * (1 - oracle_nc_miss(10.0, 2, 0.2))
        assert got == pytest.approx(want, rel=1e-14)
        assert got == pytest.approx(0.9976572694576089, rel=1e-12)

    def test_phase1_failure(self):
        cfg = ProtocolConfig(rho=10.0, d1=3, d2=2)
        assert phase1_failure(cfg, 0.4) == pytest.approx(
            q(math.sqrt(2 * 3 * 10.0 * 0.4)), rel=1e-14
        )

    def test_vectorized(self):
        cfg = ProtocolConfig(rho=10.0)
        g = np.array([0.0, 0.5, 2.0])
        out = nc_conditional_miss(cfg, g)
        assert out.shape == (3,)
        for i, gi in enumerate(g):
            assert out[i] == pytest.approx(oracle_nc_miss(10.0, 2, gi), rel=1e-14)


# ---------------------------------------------------------------------------
# Cooperative scheme with always-on relaying
# ---------------------------------------------------------------------------


class TestCooperative:
    CFG = ProtocolConfig(rho=10.0)

    def test_frozen_miss(self):
        got = csa_conditional_miss(self.CFG, 0.5, 0.2, 1.0)
        assert got == pytest.approx(1.780657048426161e-05, rel=1e-12)
        got_r = csa_conditional_miss(self.CFG, 0.2, 0.5, 1.0)
        assert got_r == pytest.approx(1.7817503633263476e-05, rel=1e-12)

    def test_frozen_joint(self):
        got = csa_joint_success(self.CFG, 0.5, 0.2, 1.0)
        assert got == pytest.approx(0.9999821824798433, rel=1e-12)

    def test_zero_gains(self):
        assert csa_conditional_miss(self.CFG, 0.0, 0.0, 0.0) == pytest.approx(
            0.375, abs=1e-15
        )
        assert csa_joint_success(self.CFG, 0.0, 0.0, 0.0) == pytest.approx(
            0.5, abs=1e-15
        )

    def test_matches_oracle_grid(self):
        cfg = ProtocolConfig(rho=2.5, d1=2, d2=3)
        pts = [0.0, 0.05, 0.3, 1.1, 4.0]
        for g1, g2, g3 in itertools.product(pts, repeat=3):
            assert csa_conditional_miss(cfg, g1, g2, g3) == pytest.approx(
                oracle_csa_miss(2.5, 2, 3, g1, g2, g3), rel=1e-13, abs=1e-300
            )
            assert csa_joint_success(cfg, g1, g2, g3) == pytest.approx(
                oracle_csa_joint(2.5, 2, 3, g1, g2, g3), rel=1e-13
            )

    def test_miss_and_joint_consistent(self):
        # For this scheme 1 - miss_t - joint equals the probability that the
        # transmitter-side node detects but the receiver side stays failed,
        # which is nonnegative; check the exact identity numerically.
        cfg = ProtocolConfig(rho=1.0)
        rng = np.random.default_rng(7)
        for _ in range(200):
            g1, g2, g3 = rng.exponential(1.0, 3)
            miss_t = csa_conditional_miss(cfg, g1, g2, g3)
            joint = csa_joint_success(cfg, g1, g2, g3)
            ft = q(math.sqrt(2 * cfg.rho * g1))
            fr = q(math.sqrt(2 * cfg.rho * g2))
            qr = q(math.sqrt(2 * cfg.rho * g2 + 2 * cfg.rho * g3))
            residual = (1 - ft) * fr * qr
            assert 1.0 - miss_t - joint == pytest.approx(residual, abs=1e-12)
            assert joint <= 1.0 - miss_t + 1e-12

    def test_vectorized(self):
        g1 = np.array([0.5, 0.2, 0.0])
        g2 = np.array([0.2, 0.5, 0.0])
        g3 = np.array([1.0, 1.0, 0.0])
        out = csa_conditional_miss(self.CFG, g1, g2, g3)
        assert out.shape == (3,)
        assert out[0] == pytest.approx(1.780657048426161e-05, rel=1e-12)
        assert out[2] == pytest.approx(0.375, abs=1e-15)


# ---------------------------------------------------------------------------
# Relay selection
# ---------------------------------------------------------------------------


class TestRelaySelection:
    def test_ordered_rule_examples(self):
        m = MetricTriple(
            t_p=np.array([1.0]), t_t=np.array([2.0]), t_r=np.array([3.0])
        )
        both = np.array([True])
        neither = np.array([False])
        # Both secondary nodes detected: receiver side has the best metric.
        assert ocsa_select_relay(m, both, both)[0] == RelayIdentity.SECONDARY_RX
        # Only the transmitter side detected: its metric (2.0) does not beat
        # the receiver-side metric (3.0), so the primary keeps the slot.
        assert ocsa_select_relay(m, both, neither)[0] == RelayIdentity.PRIMARY
        # Only the receiver side detected and its metric is the strict max.
        assert ocsa_select_relay(m, neither, both)[0] == RelayIdentity.SECONDARY_RX
        # Nobody detected.
        assert ocsa_select_relay(m, neither, neither)[0] == RelayIdentity.PRIMARY

    def test_tx_wins_when_best(self):
        m = MetricTriple(
            t_p=np.array([1.0]), t_t=np.array([5.0]), t_r=np.array([3.0])
        )
        flag = np.array([True])
        assert ocsa_select_relay(m, flag, flag)[0] == RelayIdentity.SECONDARY_TX
        # Even with both eligible, the transmitter-side check runs first.
        m2 = MetricTriple(
            t_p=np.array([1.0]), t_t=np.array([5.0]), t_r=np.array([5.0])
        )
        assert ocsa_select_relay(m2, flag, flag)[0] == RelayIdentity.PRIMARY

    def test_strict_inequality_ties_go_primary(self):
        m = MetricTriple(
            t_p=np.array([3.0]), t_t=np.array([3.0]), t_r=np.array([3.0])
        )
        flag = np.array([True])
        assert ocsa_select_relay(m, flag, flag)[0] == RelayIdentity.PRIMARY

    def test_true_metrics_pick_by_gains_not_rounded_sums(self):
        # t_t = 1 + 2e-17 and t_p = 1 + 1e-17 both round to 1.0, but tx's
        # true metric beats both: g_tr > g_pr and g_pt > g_pr
        g = [np.array([v]) for v in (1.0, 1e-17, 2e-17)]
        tx, rx = np.array([True]), np.array([False])
        assert ocsa_select_relay(gain_order(*g), tx, rx)[0] == \
            RelayIdentity.SECONDARY_TX
        assert ocsa_select_relay(compute_metrics(ChannelSet(*g)), tx, rx)[0] \
            == RelayIdentity.PRIMARY

    def test_rules_read_off_gains_and_exact_sums(self):
        # small integer gains tie often, and their metric sums are exact
        rng = np.random.default_rng(12)
        g_pt, g_pr, g_tr = rng.integers(0, 4, (3, 400)).astype(float)
        order = gain_order(g_pt, g_pr, g_tr)
        np.testing.assert_array_equal(order.t_over_p, g_tr > g_pr)
        np.testing.assert_array_equal(order.r_over_p, g_tr > g_pt)
        np.testing.assert_array_equal(order.t_wins,
                                      (g_tr > g_pr) & (g_pt > g_pr))
        np.testing.assert_array_equal(order.r_wins,
                                      (g_tr > g_pt) & (g_pr > g_pt))
        assert not np.any(order.t_wins & order.r_wins)
        sums = metric_order(compute_metrics(ChannelSet(g_pt, g_pr, g_tr)))
        for got, want in zip(sums, order):
            np.testing.assert_array_equal(got, want)

    def test_vector_matches_oracle(self):
        rng = np.random.default_rng(11)
        n = 500
        g1, g2, g3 = rng.exponential(1.0, (3, n))
        m = MetricTriple(t_p=g1 + g2, t_t=g1 + g3, t_r=g2 + g3)
        t_ok = rng.random(n) < 0.5
        r_ok = rng.random(n) < 0.5
        got = ocsa_select_relay(m, t_ok, r_ok)
        assert got.dtype == np.int8
        for i in range(n):
            want = oracle_select(
                (m.t_p[i], m.t_t[i], m.t_r[i]), bool(t_ok[i]), bool(r_ok[i])
            )
            assert got[i] == want


# ---------------------------------------------------------------------------
# Cooperative scheme with opportunistic relay selection
# ---------------------------------------------------------------------------


class TestOpportunistic:
    CFG = ProtocolConfig(rho=10.0)

    def test_frozen_miss(self):
        got_t = ocsa_conditional_miss(self.CFG, 0.5, 0.2, 1.0)
        assert got_t == pytest.approx(3.030703471904217e-09, rel=1e-12)
        got_r = ocsa_conditional_miss(self.CFG, 0.2, 0.5, 1.0)
        assert got_r == pytest.approx(5.259684267273264e-08, rel=1e-12)

    def test_frozen_joint(self):
        got = ocsa_joint_success(self.CFG, 0.5, 0.2, 1.0)
        assert got == pytest.approx(0.9999999473178462, rel=1e-12)

    def test_zero_gains(self):
        # Every status branch degenerates to a half-chance detection through
        # the full-length primary transmission, giving 0.5 * 0.5 = 0.25.
        assert ocsa_conditional_miss(self.CFG, 0.0, 0.0, 0.0) == pytest.approx(
            0.25, abs=1e-15
        )
        assert ocsa_joint_success(self.CFG, 0.0, 0.0, 0.0) == pytest.approx(
            0.5625, abs=1e-15
        )

    def test_matches_oracle_grid(self):
        cfg = ProtocolConfig(rho=2.5, d1=2, d2=3)
        pts = [0.0, 0.05, 0.3, 1.1, 4.0]
        for g1, g2, g3 in itertools.product(pts, repeat=3):
            assert ocsa_conditional_miss(cfg, g1, g2, g3) == pytest.approx(
                oracle_ocsa_miss_t(2.5, 2, 3, g1, g2, g3), rel=1e-13, abs=1e-300
            )
            assert ocsa_joint_success(cfg, g1, g2, g3) == pytest.approx(
                oracle_ocsa_joint(2.5, 2, 3, g1, g2, g3), rel=1e-13
            )

    def test_random_matches_oracle(self):
        cfg = ProtocolConfig(rho=0.7, d1=1, d2=2)
        rng = np.random.default_rng(23)
        g = rng.exponential([1.0, 2.0, 3.0], (300, 3))
        miss = ocsa_conditional_miss(cfg, g[:, 0], g[:, 1], g[:, 2])
        joint = ocsa_joint_success(cfg, g[:, 0], g[:, 1], g[:, 2])
        for i in range(g.shape[0]):
            assert miss[i] == pytest.approx(
                oracle_ocsa_miss_t(0.7, 1, 2, *g[i]), rel=1e-13
            )
            assert joint[i] == pytest.approx(
                oracle_ocsa_joint(0.7, 1, 2, *g[i]), rel=1e-13
            )


class TestOcsaFactors:
    """The ocsa capacity cells compute each rho's detection failures once
    for every metric order; under the gain order they must equal the
    standalone kernels bit for bit, and under noisy orders the oracle."""

    @staticmethod
    def gains(rng, n=3000):
        g = rng.exponential([1.0, 2.0, 3.0], (n, 3))
        g[:300, 1] = g[:300, 0]          # exact ties between links
        g[300:600, 2] = g[300:600, 0]
        g[600:700, 2] = g[600:700, 1]
        g[700:800] = 1.25                # all three tied
        g[800:900, 0] = 0.0              # zero gains
        g[900:1000, 1:] = 0.0
        g[1000:1100] = 0.0
        return ChannelSet(*(np.ascontiguousarray(c) for c in g.T))

    @staticmethod
    def with_ties(m: MetricTriple) -> MetricTriple:
        t_p, t_t, t_r = m.t_p.copy(), m.t_t.copy(), m.t_r.copy()
        t_t[:150] = t_p[:150]
        t_r[150:300] = t_p[150:300]
        t_r[300:450] = t_t[300:450]
        t_t[450:600] = t_r[450:600] = t_p[450:600]
        return MetricTriple(t_p, t_t, t_r)

    @pytest.mark.parametrize("d1, d2", [(1, 1), (1, 2), (2, 1)])
    @pytest.mark.parametrize("rho_db", [-20.0, 0.0, 12.5, 30.0, 60.0])
    def test_cells_equal_standalone_kernels(self, d1, d2, rho_db):
        rng = np.random.default_rng([7, d1, d2])
        ch = self.gains(rng)
        g = (ch.g_pt, ch.g_pr, ch.g_tr)
        cfg = ProtocolConfig(rho=10.0 ** (rho_db / 10.0), d1=d1, d2=d2)
        factors = OcsaFactors(cfg, *g, phase1_failure(cfg, ch.g_pt),
                              phase1_failure(cfg, ch.g_pr))
        want_miss = ocsa_conditional_miss(cfg, *g).tobytes()
        want_joint = ocsa_joint_success(cfg, *g).tobytes()
        clean = compute_metrics(ch)
        # the noiseless cells, before and after noisy ones
        for sigma2 in (0.0, 0.01, 0.5, 0.0):
            if sigma2:
                noisy = perturb_metrics(clean, sigma2, rng)
                for m in (noisy, self.with_ties(noisy)):
                    factors.cells(metric_order(m))
                continue
            miss, joint = factors.cells(gain_order(*g))
            assert miss.tobytes() == want_miss
            assert joint.tobytes() == want_joint

    @pytest.mark.parametrize("d1, d2", [(1, 1), (1, 2), (2, 1)])
    def test_noisy_metrics_match_oracle(self, d1, d2):
        # the cells against the branch-enumeration oracle, which applies
        # each rule to the metrics directly: the peer relays for the miss
        # when it beats both, for the joint when it beats the primary
        rng = np.random.default_rng([11, d1, d2])
        ch = self.gains(rng, n=1200)
        g = (ch.g_pt, ch.g_pr, ch.g_tr)
        clean = compute_metrics(ch)
        for rho in (0.7, 2.5):
            cfg = ProtocolConfig(rho=rho, d1=d1, d2=d2)
            factors = OcsaFactors(cfg, *g, phase1_failure(cfg, ch.g_pt),
                                  phase1_failure(cfg, ch.g_pr))
            for sigma2 in (0.01, 0.5):
                noisy = perturb_metrics(clean, sigma2, rng)
                for m in (noisy, self.with_ties(noisy)):
                    want_t, want_joint = np.array([
                        (oracle_ocsa_miss_t(rho, d1, d2, gt, gr, gh, (p, t, r)),
                         oracle_ocsa_joint(rho, d1, d2, gt, gr, gh, (p, t, r)))
                        for gt, gr, gh, p, t, r in zip(*g, m.t_p, m.t_t, m.t_r)
                    ]).T
                    cells = factors.cells(metric_order(m))
                    for got, want in zip(cells, (want_t, want_joint)):
                        np.testing.assert_allclose(got, want, rtol=1e-13,
                                                   atol=1e-300)

    def test_erfc_calls(self, monkeypatch):
        # one Gaussian tail per distinct factor: a side recovering over its
        # own link reuses its full-length failure, whatever the cells calls
        calls = []

        def counted(x, _orig=protocols.gaussian_q):
            calls.append(np.shape(x))
            return _orig(x)

        monkeypatch.setattr(protocols, "gaussian_q", counted)
        cfg = ProtocolConfig(rho=3.0, d1=1, d2=2)
        ch = self.gains(np.random.default_rng(3), n=1200)
        g = (ch.g_pt, ch.g_pr, ch.g_tr)
        ocsa_conditional_miss(cfg, *g)
        assert len(calls) == 4
        calls.clear()
        ocsa_joint_success(cfg, *g)
        assert len(calls) == 6
        calls.clear()
        m = compute_metrics(ch)
        factors = OcsaFactors(cfg, *g, phase1_failure(cfg, ch.g_pt),
                              phase1_failure(cfg, ch.g_pr))
        factors.cells(gain_order(*g))
        for sigma2 in (0.1, 1.0):
            factors.cells(metric_order(perturb_metrics(
                m, sigma2, np.random.default_rng(1))))
        # a, b, both sides' full-length failures and helped recoveries
        assert len(calls) == 2 + 4


# ---------------------------------------------------------------------------
# Cross-scheme dominance properties
# ---------------------------------------------------------------------------

gain_st = st.floats(min_value=0.0, max_value=20.0, allow_nan=False)
rho_st = st.floats(min_value=0.01, max_value=1e4, allow_nan=False)


class TestDominance:
    @given(g1=gain_st, g2=gain_st, g3=gain_st, rho=rho_st)
    @settings(max_examples=300, deadline=None)
    def test_all_probabilities_in_unit_interval(self, g1, g2, g3, rho):
        cfg = ProtocolConfig(rho=rho)
        vals = [
            nc_conditional_miss(cfg, g1),
            nc_joint_success(cfg, g1, g2),
            csa_conditional_miss(cfg, g1, g2, g3),
            csa_joint_success(cfg, g1, g2, g3),
            ocsa_conditional_miss(cfg, g1, g2, g3),
            ocsa_joint_success(cfg, g1, g2, g3),
        ]
        for v in vals:
            assert 0.0 <= v <= 1.0

    @given(g1=gain_st, g2=gain_st, g3=gain_st, rho=rho_st)
    @settings(max_examples=300, deadline=None)
    def test_opportunistic_never_misses_more_than_noncooperative(
        self, g1, g2, g3, rho
    ):
        cfg = ProtocolConfig(rho=rho)
        assert ocsa_conditional_miss(cfg, g1, g2, g3) <= nc_conditional_miss(
            cfg, g1
        ) * (1.0 + 1e-12) + 1e-300

    @given(g1=gain_st, g2=gain_st, g3=gain_st, rho=rho_st)
    @settings(max_examples=300, deadline=None)
    def test_miss_within_own_phase1_failure(self, g1, g2, g3, rho):
        # the control of the channel-mode ratio estimator: with_phase1
        # adds the node's own phase-one failure, which bounds its miss,
        # and leaves the miss's bits alone
        cfg = ProtocolConfig(rho=rho)
        a = phase1_failure(cfg, g1)
        for kernel in (csa_conditional_miss, ocsa_conditional_miss):
            miss, fail = kernel(cfg, g1, g2, g3, with_phase1=True)
            assert type(miss) is type(fail) is float
            assert miss == kernel(cfg, g1, g2, g3) and fail == a
            assert miss <= a * (1.0 + 1e-12)

    @given(g1=gain_st, g2=gain_st, g3=gain_st, rho=rho_st)
    @settings(max_examples=300, deadline=None)
    def test_opportunistic_joint_dominates(self, g1, g2, g3, rho):
        cfg = ProtocolConfig(rho=rho)
        oj = ocsa_joint_success(cfg, g1, g2, g3)
        assert oj >= csa_joint_success(cfg, g1, g2, g3) - 1e-12
        assert oj >= nc_joint_success(cfg, g1, g2) - 1e-12


# ---------------------------------------------------------------------------
# Multiuser extension
# ---------------------------------------------------------------------------


class TestMultiuser:
    def test_matches_enumeration_oracle(self):
        rng = np.random.default_rng(31)
        for m_pairs in (1, 2, 3):
            n_users = 2 * m_pairs
            g_p = rng.exponential(1.0, n_users)
            raw = rng.exponential(2.0, (n_users, n_users))
            g_uu = (raw + raw.T) / 2.0
            np.fill_diagonal(g_uu, 0.0)
            mch = MultiuserChannelSet(
                g_p=g_p[:, None], g_uu=g_uu[:, :, None]
            )
            cfg = ProtocolConfig(rho=4.0, d1=1, d2=1)
            for user in range(n_users):
                got = mucsa_conditional_miss(cfg, mch, user)
                want = oracle_mucsa_miss(4.0, 1, 1, g_p, g_uu, user)
                assert got[0] == pytest.approx(want, rel=1e-12)

    def test_single_pair_reduces_to_plain_cooperative(self):
        # With one pair the only helper transmits at half power, so the
        # formula must equal the always-on scheme run at a halved relay
        # stage signal-to-noise ratio.
        rng = np.random.default_rng(37)
        n = 50
        g_p = rng.exponential(1.0, (2, n))
        g_x = rng.exponential(3.0, n)
        g_uu = np.zeros((2, 2, n))
        g_uu[0, 1] = g_x
        g_uu[1, 0] = g_x
        mch = MultiuserChannelSet(g_p=g_p, g_uu=g_uu)
        cfg = ProtocolConfig(rho=6.0, d1=2, d2=3)
        got = mucsa_conditional_miss(cfg, mch, 0)
        # Equivalent pairwise scheme: the helper arrives with d2 * (rho/2)
        # effective strength, realised by scaling the helper gain by 1/2.
        want = csa_conditional_miss(cfg, g_p[0], g_p[1], g_x / 2.0)
        np.testing.assert_allclose(got, want, rtol=1e-12)

    def test_zero_gains(self):
        # All detections and recoveries become fair coin flips.  With 2M
        # users: each of the 2**(2M-1) - 1 nonempty helper subsets carries
        # probability (1/2)**(2M) and a 1/2 recovery miss, plus the all-fail
        # term (1/2)**(2M).
        for m_pairs, want in ((1, 0.375), (2, 9.0 / 32.0)):
            n_users = 2 * m_pairs
            mch = MultiuserChannelSet(
                g_p=np.zeros((n_users, 1)), g_uu=np.zeros((n_users, n_users, 1))
            )
            cfg = ProtocolConfig(rho=1.0)
            got = mucsa_conditional_miss(cfg, mch, 0)
            assert got[0] == pytest.approx(want, abs=1e-15)

    def test_pair_count_guard(self):
        n_users = 16
        mch = MultiuserChannelSet(
            g_p=np.ones((n_users, 1)), g_uu=np.ones((n_users, n_users, 1))
        )
        cfg = ProtocolConfig(rho=1.0)
        with pytest.raises(ValueError):
            mucsa_conditional_miss(cfg, mch, 0)

    def test_user_index_guard(self):
        mch = MultiuserChannelSet(g_p=np.ones((2, 1)), g_uu=np.ones((2, 2, 1)))
        cfg = ProtocolConfig(rho=1.0)
        with pytest.raises(ValueError):
            mucsa_conditional_miss(cfg, mch, 2)
        with pytest.raises(ValueError):
            mucsa_conditional_miss(cfg, mch, -1)

    def test_with_phase1(self):
        # the user's own phase-one failure bounds its miss; the miss keeps
        # its bits
        mch = _multiuser_draw(2, 500, 5)
        g_p = mch.g_p
        cfg = ProtocolConfig(rho=2.0)
        for user in range(4):
            miss, fail = mucsa_conditional_miss(cfg, mch, user,
                                                with_phase1=True)
            np.testing.assert_array_equal(
                miss, mucsa_conditional_miss(cfg, mch, user))
            np.testing.assert_array_equal(fail,
                                          phase1_failure(cfg, g_p[user]))
            assert np.all(miss <= fail * (1.0 + 1e-12))


def _multiuser_draw(m_pairs, n, seed):
    """Reciprocal gains laid out as channel.draw_multiuser_chunk lays them
    out, with exact zeros: user 0's primary link in trial 0, the last
    user's in the middle trial, and the link between the first and the last
    user in the last trial."""
    nu = 2 * m_pairs
    rng = np.random.default_rng(seed)
    g_p = rng.exponential(1.0, (n, nu)).T
    tri = np.triu(rng.exponential(1.5, (n, nu, nu)), 1)
    g_uu = np.ascontiguousarray((tri + tri.transpose(0, 2, 1)).transpose(1, 2, 0))
    g_p[0, 0] = g_p[-1, n // 2] = 0.0
    g_uu[0, -1, -1] = g_uu[-1, 0, -1] = 0.0
    return MultiuserChannelSet(g_p, g_uu)


class TestMultiuserBlocks:
    """The channel-mode kernel evaluates helper subsets in blocks of masks;
    it must give the bits of the one-mask-at-a-time loop in
    tests/oracle.py at every block shape."""

    # (d1, d2), rho in dB, and first (0) or last (-1) user
    COMBOS = list(itertools.product(((1, 1), (2, 1), (1, 2)),
                                    (-30.0, 0.0, 25.0, 60.0), (0, -1)))
    # where the loop is slow, one of these per chunk length
    FEW = [((2, 1), 60.0, -1), ((1, 2), -30.0, 0), ((1, 1), 25.0, -1)]

    @pytest.mark.parametrize("m_pairs", range(1, MAX_PAIRS + 1))
    def test_bits_match_mask_loop(self, m_pairs):
        nu = 2 * m_pairs
        # at _BLOCK // 2 - 1 trials a block holds two masks, one trial past
        # _BLOCK // 2 it holds one
        edge = protocols._BLOCK // 2
        for i, n in enumerate((1, 2, 7, edge - 1, edge + 1, 5000)):
            mch = _multiuser_draw(m_pairs, n, 100 * m_pairs + i)
            slow = (1 << (nu - 1)) * n > 1 << 20
            for (d1, d2), db, user in [self.FEW[i % 3]] if slow else self.COMBOS:
                rho = 10.0 ** (db / 10.0)
                got = mucsa_conditional_miss(ProtocolConfig(rho, d1, d2), mch,
                                             user % nu)
                want = mucsa_miss_by_masks(rho, d1, d2, mch.g_p, mch.g_uu,
                                           user % nu)
                assert np.array_equal(got, want), (n, d1, d2, db, user)

    def test_memory_does_not_grow_with_the_subsets(self):
        # a call holds a few (users, trials) arrays and a few blocks; the
        # 2047 helper subsets at M = 6 never exist at once
        nu, n = 2 * MAX_PAIRS, 5000
        mch = _multiuser_draw(MAX_PAIRS, n, 7)
        tracemalloc.start()
        try:
            mucsa_conditional_miss(ProtocolConfig(10.0), mch, 0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * (6 * nu * n + 8 * protocols._BLOCK)


# ---------------------------------------------------------------------------
# Single-trial regression values at (g_pt, g_pr, g_tr) = (0.5, 0.2, 1.0)
# ---------------------------------------------------------------------------


class TestEvaluateTrial:
    CFG = ProtocolConfig(rho=10.0)
    G = (0.5, 0.2, 1.0)

    def test_noncooperative(self):
        g_pt, g_pr, _g_tr = self.G
        assert nc_conditional_miss(self.CFG, g_pt) == pytest.approx(
            3.872108215522048e-06, rel=1e-12)
        assert nc_conditional_miss(self.CFG, g_pr) == pytest.approx(
            0.002338867490523633, rel=1e-12)
        assert nc_joint_success(self.CFG, g_pt, g_pr) == pytest.approx(
            0.9976572694576089, rel=1e-12)

    def test_cooperative_status_probs(self):
        g_pt, g_pr, g_tr = self.G
        ft = phase1_failure(self.CFG, g_pt)
        fr = phase1_failure(self.CFG, g_pr)
        assert ft == pytest.approx(q(math.sqrt(2 * 10.0 * 0.5)), rel=1e-13)
        assert fr == pytest.approx(q(math.sqrt(2 * 10.0 * 0.2)), rel=1e-13)
        status = ((1 - ft) * (1 - fr), (1 - ft) * fr, ft * (1 - fr), ft * fr)
        assert sum(status) == pytest.approx(1.0, abs=1e-14)
        assert status[1] == pytest.approx(0.022732325394218447, rel=1e-12)
        assert csa_conditional_miss(self.CFG, g_pt, g_pr, g_tr) == pytest.approx(
            1.780657048426161e-05, rel=1e-12)
        assert csa_conditional_miss(self.CFG, g_pr, g_pt, g_tr) == pytest.approx(
            1.7817503633263476e-05, rel=1e-12)
        assert csa_joint_success(self.CFG, g_pt, g_pr, g_tr) == pytest.approx(
            0.9999821824798433, rel=1e-12)

    def test_opportunistic_reports_nominal_relay(self):
        g_pt, g_pr, g_tr = self.G
        # Metrics are (0.7, 1.5, 1.2): with both nodes successful the
        # transmitter-side secondary holds the strict maximum.
        metrics = MetricTriple(np.array([g_pt + g_pr]), np.array([g_pt + g_tr]),
                               np.array([g_pr + g_tr]))
        relay = ocsa_select_relay(metrics, np.array([True]), np.array([True]))
        assert relay[0] == RelayIdentity.SECONDARY_TX
        assert ocsa_conditional_miss(self.CFG, g_pt, g_pr, g_tr) == pytest.approx(
            3.030703471904217e-09, rel=1e-12)
        assert ocsa_conditional_miss(self.CFG, g_pr, g_pt, g_tr) == pytest.approx(
            5.2596842672732625e-08, rel=1e-12)
        assert ocsa_joint_success(self.CFG, g_pt, g_pr, g_tr) == pytest.approx(
            0.9999999473178462, rel=1e-12)
