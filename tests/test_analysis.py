"""Tests for the averaged-performance estimators.

Two independent estimator families must agree: "channel" mode averages the
conditional outcome probabilities over sampled channel realizations, while
"tail" mode rewrites each Gaussian-tail factor as a coin flip times a fade
probability with a closed conditional form.  Closed-form averages for the
non-cooperative scheme pin both modes in absolute terms.
"""

from __future__ import annotations

import gc
import itertools
import math
import sys
import tracemalloc

import numpy as np
import pytest

from beaconsim import analysis, channel, mc, protocols
from beaconsim.channel import MeanGains, MultiuserMeans
from beaconsim.fadeprob import exp_erlang_box_prob, exp_q_mean
from beaconsim.analysis import (
    DiversityFit,
    SweepResult,
    SweepSpec,
    db_to_linear,
    estimate_diversity,
    estimate_joint_success_curve,
    estimate_miss_curve,
)
from beaconsim.protocols import MAX_PAIRS, Scheme
from oracle import nc_coefficient, own_fade_miss

MEANS = MeanGains(pt=1.0, pr=2.0, tr=3.0)


def combined_tol(r1: SweepResult, r2, i: int, nsig=5.0) -> float:
    se2 = r2.std_error[i] if isinstance(r2, SweepResult) else 0.0
    return nsig * math.hypot(r1.std_error[i], se2) + 1e-12


class TestSpecValidation:
    def test_db_to_linear(self):
        assert db_to_linear(0.0) == 1.0
        assert db_to_linear(10.0) == pytest.approx(10.0, rel=1e-14)
        np.testing.assert_allclose(db_to_linear(np.array([20.0, 30.0])),
                                   [100.0, 1000.0], rtol=1e-14)

    def test_bad_mode(self):
        with pytest.raises(ValueError):
            SweepSpec(scheme=Scheme.NC, means=MEANS, rho_db=(0.0,),
                      n_trials=10, seed=1, mode="exact")

    def test_bad_counts(self):
        with pytest.raises(ValueError):
            SweepSpec(scheme=Scheme.NC, means=MEANS, rho_db=(0.0,),
                      n_trials=0, seed=1)
        with pytest.raises(ValueError):
            SweepSpec(scheme=Scheme.NC, means=MEANS, rho_db=(),
                      n_trials=10, seed=1)
        with pytest.raises(ValueError):
            SweepSpec(scheme=Scheme.NC, means=MEANS, rho_db=(0.0,),
                      n_trials=10, seed=1, threads=0)

    @pytest.mark.parametrize("rho_db", [4000.0, -4000.0, math.nan])
    def test_rho_outside_float_range(self, rho_db):
        # 10^(rho_db/10) overflows or rounds to 0: refused when built
        with pytest.raises(ValueError, match="positive finite linear SNR"):
            SweepSpec(scheme=Scheme.NC, means=MEANS, rho_db=(10.0, rho_db),
                      n_trials=10, seed=1)

    def test_wrong_means_type(self):
        # refused when the spec is built, before any estimator runs
        mu = MultiuserMeans.uniform(2, 1.0, 1.0)
        with pytest.raises(TypeError, match="MeanGains"):
            SweepSpec(scheme=Scheme.NC, means=mu, rho_db=(0.0,),
                      n_trials=10, seed=1)
        with pytest.raises(TypeError, match="MultiuserMeans"):
            SweepSpec(scheme=Scheme.MUCSA, means=MEANS, rho_db=(0.0,),
                      n_trials=10, seed=1)

    def test_bad_side(self):
        spec = SweepSpec(scheme=Scheme.NC, means=MEANS, rho_db=(0.0,),
                         n_trials=10, seed=1)
        with pytest.raises(ValueError):
            estimate_miss_curve(spec, side="x")

    @pytest.mark.parametrize("mode", ["channel", "tail"])
    def test_too_many_pairs(self, mode):
        mu = MultiuserMeans.uniform(MAX_PAIRS + 1, 1.0, 1.0)
        spec = SweepSpec(scheme=Scheme.MUCSA, means=mu, rho_db=(0.0,),
                         n_trials=10, seed=1, mode=mode)
        with pytest.raises(ValueError, match="at most"):
            estimate_miss_curve(spec)


class TestNonCooperativeClosedForm:
    # E[Q(sqrt(2 d rho g))] has an exact closed form, pinning both modes.

    def closed(self, rho, lam, d=2):
        return exp_q_mean(d * rho, lam)

    @pytest.mark.parametrize("mode", ["channel", "tail"])
    def test_matches_closed_form(self, mode):
        spec = SweepSpec(scheme=Scheme.NC, means=MEANS,
                         rho_db=(0.0, 10.0), n_trials=150_000, seed=42,
                         mode=mode)
        res = estimate_miss_curve(spec)
        assert isinstance(res, SweepResult)
        for i, rdb in enumerate(spec.rho_db):
            want = self.closed(db_to_linear(rdb), MEANS.pt)
            assert abs(res.estimate[i] - want) <= combined_tol(res, None, i)

    def test_receiver_side(self):
        spec = SweepSpec(scheme=Scheme.NC, means=MEANS, rho_db=(0.0,),
                         n_trials=150_000, seed=42, mode="tail")
        res = estimate_miss_curve(spec, side="r")
        want = self.closed(1.0, MEANS.pr)
        assert abs(res.estimate[0] - want) <= combined_tol(res, None, 0)

    def test_deep_tail_regime(self):
        # At 40 dB the closed form sits near 1.25e-6; the fade-probability
        # estimator must stay locked to it with small relative error.
        spec = SweepSpec(scheme=Scheme.NC, means=MEANS, rho_db=(40.0,),
                         n_trials=400_000, seed=7, mode="tail")
        res = estimate_miss_curve(spec)
        want = self.closed(1e4, MEANS.pt)
        assert res.estimate[0] == pytest.approx(want, rel=0.05)
        assert res.std_error[0] < 0.2 * want


class TestModeAgreement:
    # At moderate signal-to-noise ratio both estimator families are
    # accurate, so they must agree within combined sampling error.

    @pytest.mark.parametrize("scheme", [Scheme.NC, Scheme.CSA, Scheme.OCSA])
    @pytest.mark.parametrize("side", ["t", "r"])
    def test_pair_schemes(self, scheme, side):
        kw = dict(scheme=scheme, means=MEANS, rho_db=(0.0,),
                  n_trials=250_000, seed=11)
        ch = estimate_miss_curve(SweepSpec(mode="channel", **kw), side=side)
        tl = estimate_miss_curve(SweepSpec(mode="tail", **kw), side=side)
        assert abs(ch.estimate[0] - tl.estimate[0]) <= combined_tol(ch, tl, 0)

    def test_multiuser(self):
        mu = MultiuserMeans.uniform(2, 1.0, 2.0)
        kw = dict(scheme=Scheme.MUCSA, means=mu, rho_db=(0.0,),
                  n_trials=120_000, seed=13)
        ch = estimate_miss_curve(SweepSpec(mode="channel", **kw), user=1)
        tl = estimate_miss_curve(SweepSpec(mode="tail", **kw), user=1)
        assert abs(ch.estimate[0] - tl.estimate[0]) <= combined_tol(ch, tl, 0)

    def test_multiuser_tail_needs_uniform_inter_means(self):
        n = 4
        inter = np.full((n, n), 2.0)
        inter[0, 1] = inter[1, 0] = 3.0
        np.fill_diagonal(inter, 0.0)
        mu = MultiuserMeans(primary=np.ones(n), inter=inter)
        spec = SweepSpec(scheme=Scheme.MUCSA, means=mu, rho_db=(0.0,),
                         n_trials=10, seed=1, mode="tail")
        with pytest.raises(ValueError):
            estimate_miss_curve(spec)
        # channel mode accepts arbitrary inter-user means
        spec_ch = SweepSpec(scheme=Scheme.MUCSA, means=mu, rho_db=(0.0,),
                            n_trials=1000, seed=1, mode="channel")
        res = estimate_miss_curve(spec_ch)
        assert 0.0 <= res.estimate[0] <= 1.0


class TestJointSuccess:
    def test_noncooperative_closed_form(self):
        spec = SweepSpec(scheme=Scheme.NC, means=MEANS, rho_db=(0.0, 10.0),
                         n_trials=200_000, seed=5)
        res = estimate_joint_success_curve(spec)
        for i, rdb in enumerate(spec.rho_db):
            rho = db_to_linear(rdb)
            want = (1 - exp_q_mean(2 * rho, MEANS.pt)) * (
                1 - exp_q_mean(2 * rho, MEANS.pr))
            assert abs(res.estimate[i] - want) <= combined_tol(res, None, i)

    def test_cooperative_vs_independent_sampling(self):
        # Re-estimate with an unrelated seed; agreement within joint error.
        kw = dict(scheme=Scheme.OCSA, means=MEANS, rho_db=(0.0,),
                  n_trials=200_000)
        r1 = estimate_joint_success_curve(SweepSpec(seed=101, **kw))
        r2 = estimate_joint_success_curve(SweepSpec(seed=202, **kw))
        assert abs(r1.estimate[0] - r2.estimate[0]) <= combined_tol(r1, r2, 0)

    def test_scheme_ordering_on_average(self):
        kw = dict(means=MEANS, rho_db=(10.0,), n_trials=200_000, seed=3)
        nc = estimate_joint_success_curve(SweepSpec(scheme=Scheme.NC, **kw))
        csa = estimate_joint_success_curve(SweepSpec(scheme=Scheme.CSA, **kw))
        ocsa = estimate_joint_success_curve(SweepSpec(scheme=Scheme.OCSA, **kw))
        assert csa.estimate[0] >= nc.estimate[0]
        assert ocsa.estimate[0] >= csa.estimate[0]

    def test_multiuser_pair(self):
        # a pair's two recoveries share the phase-1 outcomes of the other
        # users, so the product of the per-user successes is not the joint
        # success, and no mucsa joint estimator is offered
        mu = MultiuserMeans.uniform(2, 1.0, 1.0)
        spec = SweepSpec(scheme=Scheme.MUCSA, means=mu, rho_db=(0.0,),
                         n_trials=1000, seed=9)
        with pytest.raises(ValueError, match="nc, csa and ocsa"):
            estimate_joint_success_curve(spec)


class TestDiversity:
    def test_noncooperative_order_one(self):
        spec = SweepSpec(scheme=Scheme.NC, means=MEANS,
                         rho_db=tuple(np.arange(20.0, 41.0, 4.0)),
                         n_trials=50_000, seed=17, mode="tail")
        fit = estimate_diversity(spec)
        assert isinstance(fit, DiversityFit)
        assert fit.order == pytest.approx(1.0, abs=0.2)

    def test_cooperative_order_two(self):
        spec = SweepSpec(scheme=Scheme.CSA, means=MEANS,
                         rho_db=tuple(np.arange(20.0, 41.0, 4.0)),
                         n_trials=100_000, seed=19, mode="tail")
        fit = estimate_diversity(spec)
        assert fit.order == pytest.approx(2.0, abs=0.4)

    def test_curve_embedded(self):
        spec = SweepSpec(scheme=Scheme.NC, means=MEANS,
                         rho_db=(20.0, 30.0, 40.0), n_trials=20_000,
                         seed=23, mode="tail")
        fit = estimate_diversity(spec)
        assert isinstance(fit.result, SweepResult)
        assert fit.result.estimate.shape == (3,)
        assert np.all(np.diff(fit.result.estimate) < 0)

    def test_needs_two_distinct_points(self):
        spec = SweepSpec(scheme=Scheme.NC, means=MEANS, rho_db=(20.0, 20.0),
                         n_trials=10, seed=23, mode="tail")
        with pytest.raises(ValueError, match="two distinct grid points"):
            estimate_diversity(spec)


class TestMultiuserTailCost:
    @pytest.mark.parametrize("means", [
        pytest.param(MultiuserMeans.uniform(3, 1.0, 1.5), id="3"),
        pytest.param(MultiuserMeans.uniform(4, 1.0, 1.5), id="4"),
        pytest.param(MEANS, id="csa"),
    ])
    def test_one_box_per_subset_size(self, monkeypatch, means):
        # 2M - 1 helpers give subset sizes 1..2M-1; each chunk needs one box
        # per size, not one per subset (2^(2M-1) - 1 of them), and one call
        # of size 2M - 1 returns them all.  csa is the one-pair case: one
        # helper, so one size-1 call per chunk
        calls = []
        box = analysis.exp_erlang_box_prob

        def counted(*args, **kwargs):
            calls.append(args[-1])
            return box(*args, **kwargs)

        monkeypatch.setattr(analysis, "exp_erlang_box_prob", counted)
        pair = isinstance(means, MeanGains)
        spec = SweepSpec(scheme=Scheme.CSA if pair else Scheme.MUCSA,
                         means=means, rho_db=(10.0,), n_trials=200, seed=3,
                         mode="tail", chunk=100)
        estimate_miss_curve(spec)
        helpers = 1 if pair else means.n_users - 1
        assert calls == [helpers] * 2


def _one_pair_multiuser(means: MeanGains, side: str) -> MultiuserMeans:
    """The M = 1 multiuser means whose user 0 is the csa node on side:
    the helper link's mean 2 tr offsets the relay power rho / (2M)."""
    own, peer = (means.pt, means.pr) if side == "t" else (means.pr, means.pt)
    inter = 2.0 * means.tr
    return MultiuserMeans([own, peer], [[0.0, inter], [inter, 0.0]])


class TestCsaIsOnePairMultiuser:
    @pytest.mark.parametrize("side", ["t", "r"])
    @pytest.mark.parametrize("d1, d2", [(1, 1), (1, 2), (2, 3)])
    @pytest.mark.parametrize("means", [MEANS, MeanGains(0.7, 1.3, 0.2)],
                             ids=["1-2-3", "0.7-1.3-0.2"])
    def test_tail_bit_equal(self, means, d1, d2, side):
        kw = dict(rho_db=(0.0, 20.0, 40.0, 60.0), n_trials=3000, seed=29,
                  d1=d1, d2=d2, mode="tail", chunk=1000)
        csa = estimate_miss_curve(
            SweepSpec(scheme=Scheme.CSA, means=means, **kw), side=side)
        mucsa = estimate_miss_curve(
            SweepSpec(scheme=Scheme.MUCSA,
                      means=_one_pair_multiuser(means, side), **kw), user=0)
        np.testing.assert_array_equal(csa.estimate, mucsa.estimate)
        np.testing.assert_array_equal(csa.std_error, mucsa.std_error)

    def test_channel_model_agrees(self):
        # the channel-mode kernels share no code with fadeprob, so this
        # checks the model equivalence itself; independent seeds
        kw = dict(rho_db=(0.0, 5.0, 10.0), n_trials=200_000)
        csa = estimate_miss_curve(
            SweepSpec(scheme=Scheme.CSA, means=MEANS, seed=31, **kw))
        mucsa = estimate_miss_curve(
            SweepSpec(scheme=Scheme.MUCSA, seed=37,
                      means=_one_pair_multiuser(MEANS, "t"), **kw))
        for i in range(len(kw["rho_db"])):
            assert (abs(csa.estimate[i] - mucsa.estimate[i])
                    <= combined_tol(csa, mucsa, i, nsig=4.0))


class TestMultiuserTailOracle:
    @pytest.mark.parametrize("m_pairs", [2, 3, 4])
    def test_unequal_primary_means(self, m_pairs):
        # every q_bar differs, so a weight attached to the wrong subset or
        # size shows; the reference enumerates the helper subsets one by one
        # over the thresholds the estimator draws (one chunk)
        nu, n, seed = 2 * m_pairs, 3000, 17
        primary = np.linspace(0.6, 2.9, nu)
        inter = np.full((nu, nu), 1.3)
        np.fill_diagonal(inter, 0.0)
        rho_db = (20.0, 40.0)
        z = mc.substream(seed, mc.TAG_THRESHOLDS, 0).standard_normal((n, 2))
        z *= z
        for user in (0, nu - 1):
            spec = SweepSpec(scheme=Scheme.MUCSA,
                             means=MultiuserMeans(primary, inter),
                             rho_db=rho_db, n_trials=n, seed=seed,
                             mode="tail", chunk=n)
            got = estimate_miss_curve(spec, user=user).estimate
            others = [j for j in range(nu) if j != user]
            for i, r in enumerate(rho_db):
                rho = 10.0 ** (r / 10.0)
                q_bar = [exp_q_mean(rho, lam) for lam in primary]
                x_own, x_rec = z[:, 0] / (2 * rho), z[:, 1] / (2 * rho)
                total = np.full(n, math.prod(q_bar))
                for size in range(1, nu):
                    box = exp_erlang_box_prob(x_rec, x_own, primary[user],
                                              1.3 / nu, size)[size - 1]
                    for helpers in itertools.combinations(others, size):
                        w = math.prod(1.0 - q_bar[j] if j in helpers
                                      else q_bar[j] for j in others)
                        total += 0.25 * w * box
                assert got[i] == pytest.approx(total.mean(), rel=1e-12, abs=0)


class TestOracleLimits:
    # tail-mode estimates against tests/oracle.py, within 4 SE

    @pytest.mark.parametrize("side, lam", [("t", MEANS.pt), ("r", MEANS.pr)])
    def test_nc_high_snr_coefficient(self, side, lam):
        # the next-order term is at most 4e-7 of C / rho from 60 dB on
        spec = SweepSpec(scheme=Scheme.NC, means=MEANS,
                         rho_db=(60.0, 80.0, 100.0), n_trials=100_000,
                         seed=43, mode="tail")
        res = estimate_miss_curve(spec, side=side)
        c = nc_coefficient(spec.d1 + spec.d2, lam)
        for i, rho in enumerate(db_to_linear(np.array(spec.rho_db))):
            assert abs(res.estimate[i] - c / rho) <= 4.0 * res.std_error[i]

    @pytest.mark.parametrize("pt", [1e-16, 1e-30])
    def test_csa_own_fade(self, pt):
        # an own mean 1e16-1e30 times below the relay's once lost every
        # digit of the box's endpoint exponents
        means = MeanGains(pt, 2.0, 3.0)
        spec = SweepSpec(scheme=Scheme.CSA, means=means, rho_db=(20.0,),
                         n_trials=200_000, seed=1, mode="tail")
        res = estimate_miss_curve(spec)
        want = own_fade_miss(100.0, spec.d1, [means.pr], spec.d2 * means.tr)
        assert abs(res.estimate[0] - want) <= 4.0 * res.std_error[0]

    # channel mode shares no code with fadeprob, so it checks the oracle
    @pytest.mark.parametrize("mode", ["tail", "channel"])
    @pytest.mark.parametrize("m_pairs", [2, 3])
    def test_mucsa_own_fade(self, m_pairs, mode):
        nu = 2 * m_pairs
        spec = SweepSpec(scheme=Scheme.MUCSA,
                         means=MultiuserMeans.uniform(m_pairs, 1e-20, 1.0),
                         rho_db=(20.0,), n_trials=200_000, seed=1,
                         mode=mode)
        res = estimate_miss_curve(spec)
        want = own_fade_miss(100.0, spec.d1, [1e-20] * (nu - 1),
                             spec.d2 / nu)
        assert abs(res.estimate[0] - want) <= 4.0 * res.std_error[0]


def _plain_miss(spec: SweepSpec, side: str, user: int):
    """The plain mean and SE of the channel-mode miss from the same draws
    that estimate_miss_curve reduces as Controlled cells."""
    draw, evaluator, _estimator = analysis._miss_values(
        spec, side, user)
    points = [lambda ch, arena, point=evaluator(db_to_linear(r)):
              (cell.values for cell in point(ch, arena))
              for r in spec.rho_db]
    return mc.parallel_grid_stats(draw, points, spec.n_trials, spec.chunk,
                                  spec.threads)


_CONTROLLED = [
    *[(scheme, means, side, 0)
      for scheme in (Scheme.CSA, Scheme.OCSA)
      for means in (MeanGains(1.0, 2.0, 3.0), MeanGains(3.0, 1.0, 0.5))
      for side in "tr"],
    *[(Scheme.MUCSA, MultiuserMeans.uniform(m, 1.0, 1.5), "t", 1)
      for m in (2, 3)],
]


class TestControlledMiss:
    """Channel-mode csa, ocsa and mucsa miss: a ratio control variate on
    the node's own phase-one failure, against the plain mean of the same
    per-trial values."""

    @pytest.mark.parametrize("scheme, means, side, user", _CONTROLLED)
    def test_agrees_with_plain_mean(self, scheme, means, side, user):
        spec = SweepSpec(scheme=scheme, means=means,
                         rho_db=(-10.0, 0.0, 10.0, 30.0), n_trials=20_000,
                         seed=5, chunk=5_000)
        res = estimate_miss_curve(spec, side=side, user=user)
        assert res.estimator == "ratio"
        mean, se = _plain_miss(spec, side, user)
        assert np.all((0.0 <= res.estimate) & (res.estimate <= 1.0))
        assert np.all(np.abs(res.estimate - mean) <= 4.0 * se)
        # where the plain SE is resolved, the ratio's is no larger; at
        # 30 dB one trial carries the plain mean (relative SE ~1), and
        # the two SE estimates rest on that trial alone
        resolved = se <= 0.5 * mean
        assert resolved[:3].all()
        assert np.all(res.std_error[resolved] <= 1.02 * se[resolved])
        assert np.all(res.std_error <= 1.1 * se)
        # below 10 dB the phase-one failure removes a third of the SE or
        # more
        assert np.all(res.std_error[:2] <= 0.85 * se[:2])

    def test_plain_mean_where_there_is_no_phase_one(self):
        for scheme, mode in ((Scheme.NC, "channel"), (Scheme.CSA, "tail")):
            spec = SweepSpec(scheme=scheme, means=MEANS, rho_db=(0.0,),
                             n_trials=2_000, seed=3, mode=mode)
            assert estimate_miss_curve(spec).estimator == "mean"
        spec = SweepSpec(scheme=Scheme.CSA, means=MEANS, rho_db=(0.0,),
                         n_trials=2_000, seed=3)
        assert estimate_joint_success_curve(spec).estimator == "mean"

    @pytest.mark.parametrize("scheme, tails", [(Scheme.CSA, 3),
                                               (Scheme.OCSA, 4)])
    def test_no_added_gaussian_tail(self, monkeypatch, scheme, tails):
        # the control is the phase-one failure the kernel computes anyway:
        # per chunk and point, the kernel's own count of gaussian_q calls
        calls = []

        def counted(x, _orig=protocols.gaussian_q):
            calls.append(np.shape(x))
            return _orig(x)

        monkeypatch.setattr(protocols, "gaussian_q", counted)
        spec = SweepSpec(scheme=scheme, means=MEANS, rho_db=(0.0, 10.0),
                         n_trials=3_000, seed=3, chunk=1_000)
        estimate_miss_curve(spec, side="r")
        assert calls == [(1_000,)] * (3 * 2 * tails)

    def test_mucsa_adds_no_gaussian_tail(self, monkeypatch):
        # the user's phase-one failure is a row of the failures the subset
        # probabilities already take
        calls = []

        def counted(x, _orig=protocols.gaussian_q):
            calls.append(np.shape(x))
            return _orig(x)

        monkeypatch.setattr(protocols, "gaussian_q", counted)
        mu = MultiuserMeans.uniform(2, 1.0, 1.5)
        spec = SweepSpec(scheme=Scheme.MUCSA, means=mu, rho_db=(0.0,),
                         n_trials=1_000, seed=3)
        ch = channel.draw_multiuser_chunk(mu, 3, 0, 1_000)
        protocols.mucsa_conditional_miss(spec.config(1.0), ch, 0)
        plain = len(calls)
        calls.clear()
        estimate_miss_curve(spec)
        assert len(calls) == plain


class TestChunkOuterSweep:
    @pytest.mark.parametrize("mode, scheme, estimator", [
        ("tail", Scheme.NC, estimate_miss_curve),
        ("tail", Scheme.OCSA, estimate_miss_curve),
        ("tail", Scheme.MUCSA, estimate_miss_curve),
        ("channel", Scheme.CSA, estimate_miss_curve),
        ("channel", Scheme.MUCSA, estimate_miss_curve),
        ("channel", Scheme.OCSA, estimate_joint_success_curve),
    ], ids=["tail-nc", "tail-ocsa", "tail-mucsa", "channel-csa",
            "channel-mucsa", "joint-ocsa"])
    def test_one_substream_per_chunk(self, monkeypatch, mode, scheme,
                                     estimator):
        # P grid points over C chunks open C threshold or gain substreams,
        # not C x P: draws do not depend on rho
        module = analysis if mode == "tail" else channel
        opened = []
        orig = module.substream

        def counted(*key):
            opened.append(key)
            return orig(*key)

        monkeypatch.setattr(module, "substream", counted)
        means = (MultiuserMeans.uniform(2, 1.0, 1.5)
                 if scheme is Scheme.MUCSA else MEANS)
        spec = SweepSpec(scheme=scheme, means=means,
                         rho_db=(0.0, 10.0, 20.0), n_trials=400, seed=5,
                         mode=mode, chunk=100)
        res = estimator(spec)
        assert res.estimate.shape == (3,)
        assert sorted(key[-1] for key in opened) == [0, 1, 2, 3]


class TestSweepArena:
    @staticmethod
    def _traced_sweep(n_points):
        """(peak, left over) traced bytes of a 1-thread tail ocsa sweep over
        four 5e4-trial chunks, relative to the traced bytes before it."""
        spec = SweepSpec(scheme=Scheme.OCSA, means=MEANS,
                         rho_db=tuple(np.linspace(20.0, 40.0, n_points)),
                         n_trials=200_000, seed=3, mode="tail", chunk=50_000)
        gc.collect()
        tracemalloc.start()
        try:
            start, _ = tracemalloc.get_traced_memory()
            estimate_miss_curve(spec)
            gc.collect()
            end, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return peak - start, end - start

    def test_bounded_by_the_arena_and_released(self):
        # the arena holds a fixed set of chunk-size rows, reused at every
        # grid point and dropped when the sweep returns: more points may not
        # raise the peak, and nothing may outlive the sweep
        row = 50_000 * 8
        peak2, left2 = self._traced_sweep(2)
        peak11, left11 = self._traced_sweep(11)
        assert peak11 <= peak2 + row // 8
        assert max(left2, left11) < row // 8

    def test_threads_keep_their_own_arenas(self):
        # four workers on two-or-fewer cores with a short switch interval:
        # an arena shared between threads would mix one thread's rows into
        # another's values
        base = dict(scheme=Scheme.OCSA, means=MEANS, rho_db=(20.0, 30.0),
                    n_trials=64_000, seed=43, mode="tail", chunk=1_000)
        one = estimate_miss_curve(SweepSpec(threads=1, **base))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            four = estimate_miss_curve(SweepSpec(threads=4, **base))
        finally:
            sys.setswitchinterval(interval)
        assert one.estimate.tobytes() == four.estimate.tobytes()
        assert one.std_error.tobytes() == four.std_error.tobytes()


class TestDeterminism:
    def test_identical_reruns(self):
        for mode in ("channel", "tail"):
            spec = SweepSpec(scheme=Scheme.OCSA, means=MEANS,
                             rho_db=(0.0, 10.0), n_trials=64_000, seed=31,
                             mode=mode, chunk=10_000)
            a = estimate_miss_curve(spec)
            b = estimate_miss_curve(spec)
            np.testing.assert_array_equal(a.estimate, b.estimate)
            np.testing.assert_array_equal(a.std_error, b.std_error)

    def test_thread_count_invariance(self):
        for mode in ("channel", "tail"):
            base = dict(scheme=Scheme.CSA, means=MEANS, rho_db=(10.0,),
                        n_trials=64_000, seed=37, mode=mode, chunk=8_000)
            r1 = estimate_miss_curve(SweepSpec(threads=1, **base))
            r4 = estimate_miss_curve(SweepSpec(threads=4, **base))
            np.testing.assert_array_equal(r1.estimate, r4.estimate)
            np.testing.assert_array_equal(r1.std_error, r4.std_error)

    def test_chunking_invariance(self):
        # Estimates are keyed by chunk index, so the chunk size changes the
        # substream layout; identical chunk size must give identical output
        # regardless of thread count, already covered above.  Here: a chunk
        # equal to n reproduces the single-stream reference.
        spec_a = SweepSpec(scheme=Scheme.NC, means=MEANS, rho_db=(0.0,),
                           n_trials=30_000, seed=41, chunk=30_000)
        spec_b = SweepSpec(scheme=Scheme.NC, means=MEANS, rho_db=(0.0,),
                           n_trials=30_000, seed=41, chunk=30_000, threads=2)
        np.testing.assert_array_equal(
            estimate_miss_curve(spec_a).estimate,
            estimate_miss_curve(spec_b).estimate,
        )
