"""Tests for the averaged-performance estimators.

Two independent estimator families must agree: "channel" mode averages the
conditional outcome probabilities over sampled channel realizations, while
"tail" mode rewrites each Gaussian-tail factor as a coin flip times a fade
probability with a closed conditional form.  Closed-form averages for the
non-cooperative scheme pin both modes in absolute terms.
"""

from __future__ import annotations

import itertools
import math

import numpy as np
import pytest

from beaconsim import analysis, channel, mc
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
    @pytest.mark.parametrize("m_pairs", [3, 4])
    def test_one_box_per_subset_size(self, monkeypatch, m_pairs):
        # 2M - 1 helpers give subset sizes 1..2M-1; each chunk needs one box
        # per size, not one per subset (2^(2M-1) - 1 of them)
        calls = []
        box = analysis.exp_erlang_box_prob

        def counted(*args, **kwargs):
            calls.append(args[-1])
            return box(*args, **kwargs)

        monkeypatch.setattr(analysis, "exp_erlang_box_prob", counted)
        spec = SweepSpec(scheme=Scheme.MUCSA,
                         means=MultiuserMeans.uniform(m_pairs, 1.0, 1.5),
                         rho_db=(10.0,), n_trials=200, seed=3, mode="tail",
                         chunk=100)
        estimate_miss_curve(spec)
        assert len(calls) == 2 * (2 * m_pairs - 1)


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
                                              1.3 / nu, size)
                    for helpers in itertools.combinations(others, size):
                        w = math.prod(1.0 - q_bar[j] if j in helpers
                                      else q_bar[j] for j in others)
                        total += 0.25 * w * box
                assert got[i] == pytest.approx(total.mean(), rel=1e-12, abs=0)


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
