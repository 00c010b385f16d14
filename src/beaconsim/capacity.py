"""Secondary-link capacity bounds, estimation-noise effects, throughput.

The secondary pair may transmit only in the channel states its sensing
declares free.  With ``p_t`` the probability that the transmitter-side node
senses an opportunity and ``p_joint`` the probability that both nodes do,
the achievable rate over a block is bracketed by

* upper bound:  p_joint * log2(1 + P / p_joint)
* lower bound:  p_joint * log2(1 + P / p_t) - 1 / (T_c * ln 2)

in bits per channel use, where P is the secondary link's received
signal-to-noise ratio and T_c the coherence time in channel uses (the
subtracted term prices the per-block coordination overhead).

Ergodic and outage statistics average the bounds over channel draws with
P = rho * g_tr and the per-draw conditional sensing probabilities of the
chosen scheme.  The imperfect-estimation variants feed noisy relay-selection
metrics into the opportunistic scheme while detection still happens over the
true gains.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

# perturb_metrics is unused but stays bound: perfbench hooks it here
from .channel import (MeanGains, add_metric_noise, compute_metrics,  # noqa: F401
                      draw_pair_chunk, perturb_metrics)
from .fadeprob import abs_diff_q_mean
from .numerics import gaussian_q
# parallel_chunk_stats, ocsa_conditional_miss and ocsa_joint_success are
# unused but stay bound: perfbench hooks them here
from .mc import (  # noqa: F401
    TAG_METRIC_NOISE,
    TAG_STATUS,
    parallel_chunk_arrays,
    parallel_chunk_stats,
    parallel_grid_stats,
    substream,
)
from .protocols import (  # noqa: F401
    OcsaFactors,
    ProtocolConfig,
    RelayIdentity,
    Scheme,
    csa_conditional_miss,
    csa_joint_success,
    gain_order,
    metric_order,
    nc_conditional_miss,
    nc_joint_success,
    ocsa_conditional_miss,
    ocsa_joint_success,
    ocsa_select_relay,
    phase1_failure,
)

__all__ = [
    "ActivityModel",
    "CapacityEstimate",
    "OutageResult",
    "OverheadParams",
    "state_probs",
    "capacity_upper",
    "capacity_lower",
    "capacity_draws",
    "ergodic_capacity",
    "imperfect_capacity",
    "outage_capacity",
    "relative_capacity_loss",
    "wrong_relay_bound",
    "wrong_relay_probability_mc",
    "throughput",
    "throughput_loss_bound",
    "throughput_loss_mc",
]

_LN2 = math.log(2.0)


@dataclass(frozen=True)
class ActivityModel:
    """Primary-activity priors: probability that the band is free as seen
    by the transmitter-side node alone, and by both nodes agreeing."""

    p_theta_t: float
    p_theta_joint: float

    def __post_init__(self):
        if not 0.0 <= self.p_theta_t <= 1.0:
            raise ValueError("ActivityModel: p_theta_t must lie in [0, 1]")
        if not 0.0 <= self.p_theta_joint <= 1.0:
            raise ValueError("ActivityModel: p_theta_joint must lie in [0, 1]")
        if self.p_theta_joint > self.p_theta_t:
            raise ValueError(
                "ActivityModel: joint agreement cannot be more likely than "
                "the single-node event"
            )


@dataclass(frozen=True)
class CapacityEstimate:
    """Monte Carlo means and standard errors of the two capacity bounds."""

    upper_mean: float
    upper_se: float
    lower_mean: float
    lower_se: float
    n_trials: int


@dataclass(frozen=True)
class OutageResult:
    """Empirical epsilon-outage values of the two capacity bounds."""

    epsilons: tuple
    upper: np.ndarray
    lower: np.ndarray
    n_trials: int


def state_probs(activity: ActivityModel, miss_t, joint_success):
    """Transmission-state probabilities given conditional sensing outcomes."""
    p_t = activity.p_theta_t * (1.0 - np.asarray(miss_t, dtype=float))
    p_joint = activity.p_theta_joint * np.asarray(joint_success, dtype=float)
    if np.ndim(p_t) == 0:
        return float(p_t), float(p_joint)
    return p_t, p_joint


def _log2_1p(p, pw):
    """log2(1 + pw/p) for p > 0, as log2(p + pw) - log2(p), which cannot
    overflow at tiny p; where pw < 2**-10 p that difference cancels, so
    log1p(pw/p) / ln 2 overwrites it there."""
    p, pw = np.broadcast_arrays(p, pw)
    out = np.log2(p + pw, out=np.empty(p.shape))
    out -= np.log2(p)
    small = pw < 2.0 ** -10 * p
    out[small] = np.log1p(pw[small] / p[small]) / _LN2
    return out


def capacity_upper(p_joint, power):
    """Upper capacity bound; continuous extension gives 0 at p_joint = 0."""
    p = np.asarray(p_joint, dtype=float)
    pw = np.asarray(power, dtype=float)
    if np.any(p < 0) or np.any(pw < 0):
        raise ValueError("capacity_upper: arguments must be nonnegative")
    out = np.where(p > 0, p * _log2_1p(np.where(p > 0, p, 1.0), pw), 0.0)
    return float(out) if out.ndim == 0 else out


def capacity_lower(p_t, p_joint, power, coherence_time):
    """Lower capacity bound; may be negative for tiny access probability.

    Undefined when the single-node state probability is zero but power is
    available, since the rate expression then has no meaning.
    """
    if coherence_time <= 0:
        raise ValueError("capacity_lower: coherence_time must be positive")
    pt = np.asarray(p_t, dtype=float)
    pj = np.asarray(p_joint, dtype=float)
    pw = np.asarray(power, dtype=float)
    if np.any(pt < 0) or np.any(pj < 0) or np.any(pw < 0):
        raise ValueError("capacity_lower: arguments must be nonnegative")
    if np.any((pt == 0) & (pw > 0)):
        raise ValueError(
            "capacity_lower: zero single-node state probability with "
            "positive power"
        )
    penalty = 1.0 / (coherence_time * _LN2)
    out = pj * _log2_1p(np.where(pt > 0, pt, 1.0), pw) - penalty
    return float(out) if out.ndim == 0 else out


# ---------------------------------------------------------------------------
# Per-draw capacity bounds over sampled channels
# ---------------------------------------------------------------------------


def _mean_se(cells):
    """(mean, se) of an array of (mean, se) pairs: floats for one pair,
    arrays of the grid's shape for a grid of them."""
    return tuple(float(v) if np.ndim(v) == 0 else v
                 for v in (cells[..., 0], cells[..., 1]))


def _bounds(activity: ActivityModel, cells, power, t_c: float):
    """Per-trial upper and then lower capacity bound, from a (miss_t,
    joint) pair that is freed once read."""
    p_t, p_joint = state_probs(activity, *cells)
    del cells
    yield capacity_upper(p_joint, power)
    yield capacity_lower(p_t, p_joint, power, t_c)


def _metric_free(scheme: Scheme, cfg: ProtocolConfig, ch):
    """(tx-side miss, joint success) of nc or csa over chunk gains ch."""
    if scheme is Scheme.NC:
        return (nc_conditional_miss(cfg, ch.g_pt),
                nc_joint_success(cfg, ch.g_pt, ch.g_pr))
    return (csa_conditional_miss(cfg, ch.g_pt, ch.g_pr, ch.g_tr),
            csa_joint_success(cfg, ch.g_pt, ch.g_pr, ch.g_tr))


def _flip_odds(win, over_p, over_peer, z_own, sds):
    """Per noise deviation sd in sds, W: per trial, the probability that
    metric noise flips whether one side wins the relay choice, given the
    gains and that side's own standard normal noise draw z_own.

    win is whether the side wins on the clean metrics, from gain_order.
    over_p and over_peer are the side's clean metric leads over the
    primary's and over its peer's metric, written as the gain differences
    the metric sums stand for (positive exactly where gain_order has the
    side ahead); they are overwritten.  In noise units the leads are
    A = over_p/sd + z_own and B = over_peer/sd + z_own.  The other two
    noises are independent of z_own, so the noisy win has probability
    Phi(A) Phi(B): a clean winner loses it with Q(A) + Q(B) - Q(A) Q(B),
    and a clean loser gains it with Q(-A) Q(-B).  That is 4 Gaussian
    tails per trial and level.
    """
    win = win.astype(float)
    # Q(s A) and Q(s B), with s = +1 for a clean winner and -1 otherwise
    sign = win * 2.0
    sign -= 1.0
    over_p *= sign
    over_peer *= sign
    z_own = np.multiply(z_own, sign, out=sign)
    x = np.empty_like(z_own)  # each argument, then Q(A) Q(B)
    out = []
    for sd in sds:
        w, q_peer = (gaussian_q(np.add(np.divide(lead, sd, out=x), z_own,
                                       out=x))
                     for lead in (over_p, over_peer))
        both = np.multiply(w, q_peer, out=x)
        # a loser's W is both, a winner's both + (Q(A) + Q(B) - 2 both)
        w += q_peer
        w -= both
        w -= both
        w *= win
        w += both
        out.append(w)
    return out


def _cells(scheme: Scheme, means: MeanGains, activity: ActivityModel,
           t_c: float, seed: int, d1: int, d2: int, rhos, levels,
           wrong: bool = False):
    """(draw, points) of one mc.parallel_grid_stats pass over the dense
    grid of the distinct rhos and sigma2 levels (sorted), one point per rho.
    A point yields each level's per-trial wrong-relay probability (ocsa
    only) if wrong, then each level's per-trial upper and lower bounds if
    an activity model is given.

    The draw gives each chunk's gains and, for ocsa, one standard normal
    metric-noise draw z of shape (3, size) that every nonzero level scales
    by its sd.  Per level it keeps the metric order if it yields bounds,
    and the tx and rx sides' flip odds W_t and W_r (_flip_odds) if wrong;
    neither depends on rho.  The sigma2 = 0 order and the clean winners are
    the kernels' gain_order; only the nonzero levels sum metrics.  The
    wrong-relay value is the conditional expectation, given the gains and
    z, of the indicator that noise changes the relay choice while exactly
    one secondary detected: (1 - a) b W_t + a (1 - b) W_r, with a and b
    the first-phase failures at rho.  So no first-phase status is drawn.
    A point computes its rho's detection failures once for all its cells;
    they are freed when it finishes.
    """
    scheme = Scheme(scheme)
    if scheme is Scheme.MUCSA:
        raise ValueError(
            "capacity estimation covers the single-pair schemes only"
        )
    if not isinstance(means, MeanGains):
        raise TypeError("means must be a MeanGains instance")
    ocsa = scheme is Scheme.OCSA
    levels = np.asarray(levels, dtype=float).tolist()
    if min(levels) < 0:
        raise ValueError("sigma2 must be nonnegative")
    sds = [math.sqrt(s2) for s2 in levels if s2 > 0]
    zeros = len(levels) - len(sds)  # 0 or 1: the levels are distinct
    bound = activity is not None

    def draw(idx: int, start: int, size: int):
        ch = draw_pair_chunk(means, seed, idx, size)
        if not ocsa:
            return ch, None, None
        z = (substream(seed, TAG_METRIC_NOISE, idx).standard_normal((3, size))
             if sds else None)
        clean = gain_order(ch.g_pt, ch.g_pr, ch.g_tr)
        orders = flips = None
        if bound:
            metrics = compute_metrics(ch) if sds else None
            orders = [clean] * zeros + [
                metric_order(add_metric_noise(metrics, sd, z)) for sd in sds]
            del metrics
        if wrong and sds:
            # t_t leads t_p by g_tr - g_pr and t_r by g_pt - g_pr; t_r
            # leads t_p by g_tr - g_pt and t_t by g_pr - g_pt
            flips = list(zip(
                _flip_odds(clean.t_over_p & clean.t_over_r, ch.g_tr - ch.g_pr,
                           ch.g_pt - ch.g_pr, z[1], sds),
                _flip_odds(clean.r_over_p & clean.r_over_t, ch.g_tr - ch.g_pt,
                           ch.g_pr - ch.g_pt, z[2], sds)))
        return ch, orders, flips

    def point(cfg: ProtocolConfig, sample, _scratch):
        ch, orders, flips = sample
        if not ocsa:
            # the metric-free schemes give every level the same bounds
            yield from tuple(_bounds(activity, _metric_free(scheme, cfg, ch),
                                     cfg.rho * ch.g_tr, t_c)) * len(levels)
            return
        a = phase1_failure(cfg, ch.g_pt)
        b = phase1_failure(cfg, ch.g_pr)
        if wrong:
            # sigma2 = 0 flips nothing; otherwise weigh the two statuses in
            # which the choice matters: exactly one side detected
            if zeros:
                yield np.zeros(len(a))
            if flips:
                sf, fs = (1.0 - a) * b, a * (1.0 - b)
                for w_t, w_r in flips:
                    yield sf * w_t + fs * w_r
                del sf, fs
        if bound:
            factors = OcsaFactors(cfg, ch.g_pt, ch.g_pr, ch.g_tr, a, b)
            del a, b
            power = cfg.rho * ch.g_tr
            for order in orders:
                yield from _bounds(activity, factors.cells(order), power, t_c)

    return draw, [partial(point, ProtocolConfig(rho=r, d1=d1, d2=d2))
                  for r in np.asarray(rhos, dtype=float).tolist()]


def _one_pass(scheme: Scheme, means: MeanGains, activity, t_c, n: int,
              seed: int, d1: int, d2: int, threads: int, chunk: int | None,
              rho, sigma2, wrong: bool = False):
    """(mean, se) pair of each broadcast (rho, sigma2) cell from one pass
    of _cells: an array of shape (grid..., kind, 2), the kinds in _cells'
    order."""
    rho, sigma2 = np.broadcast_arrays(np.asarray(rho, dtype=float),
                                      np.asarray(sigma2, dtype=float))
    rhos, at_rho = np.unique(rho, return_inverse=True)
    levels = np.unique(sigma2)
    stats = parallel_grid_stats(
        *_cells(scheme, means, activity, t_c, seed, d1, d2, rhos, levels,
                wrong), n, chunk, threads)
    # per rho, every level's wrong-relay cell, then every level's bounds
    stats = np.stack(stats, axis=-1).reshape(len(rhos), -1, 2)
    k = len(levels) * wrong
    stats = np.concatenate(
        [stats[:, :k].reshape(len(rhos), len(levels), int(wrong), 2),
         stats[:, k:].reshape(len(rhos), len(levels),
                              2 * (activity is not None), 2)], axis=2)
    return stats[at_rho.reshape(rho.shape), np.searchsorted(levels, sigma2)]


def _estimate(cells, n: int) -> CapacityEstimate:
    """CapacityEstimate of _one_pass cells whose last two kinds are the
    upper and lower bounds."""
    return CapacityEstimate(*_mean_se(cells[..., -2, :]),
                            *_mean_se(cells[..., -1, :]), n_trials=n)


def capacity_draws(scheme: Scheme, means: MeanGains, activity: ActivityModel,
                   rho: float, t_c: float, n: int, seed: int,
                   d1: int = 1, d2: int = 1, sigma2: float = 0.0,
                   threads: int = 1, chunk: int | None = None):
    """Per-realization (upper, lower) capacity bound arrays at one rho."""
    if np.ndim(rho) or np.ndim(sigma2):
        raise ValueError("capacity_draws: rho and sigma2 must be scalars")
    draw, (point,) = _cells(scheme, means, activity, t_c, seed, d1, d2,
                            [rho], [sigma2])
    return tuple(parallel_chunk_arrays(lambda *r: tuple(point(draw(*r), None)),
                                       n, chunk, threads))


def imperfect_capacity(scheme: Scheme, means: MeanGains,
                       activity: ActivityModel, rho, t_c: float,
                       n: int, seed: int, sigma2,
                       d1: int = 1, d2: int = 1, threads: int = 1,
                       chunk: int | None = None) -> CapacityEstimate:
    """Ergodic capacity bounds with noisy relay-selection metrics.

    rho and sigma2 broadcast: scalars give float fields, arrays give arrays.
    The grid runs in one pass: each chunk's gains and metric noise are
    drawn once, each distinct noise level scales that one noise draw, and
    each distinct (rho, sigma2) cell is reduced in chunk order, so its value
    does not depend on the grid.  Noise draws come from a dedicated
    substream, so sigma2 = 0 reproduces the noiseless estimate bit for bit.
    """
    return _estimate(_one_pass(scheme, means, activity, t_c, n, seed, d1, d2,
                               threads, chunk, rho, sigma2), n)


def imperfect_estimates(means: MeanGains, activity: ActivityModel, rho,
                        t_c: float, n: int, seed: int, sigma2,
                        d1: int = 1, d2: int = 1, threads: int = 1,
                        chunk: int | None = None):
    """The ocsa imperfect-information grid in one pass.

    rho and sigma2 broadcast as in imperfect_capacity.  Returns the noisy
    estimate, the noiseless one (sigma2 = 0, same grid shape) and the
    wrong-relay (estimate, se), each cell equal bit for bit to
    imperfect_capacity, ergodic_capacity and wrong_relay_probability_mc.
    """
    sigma2, zero, _ = np.broadcast_arrays(sigma2, 0.0, rho)
    noisy, clean = _one_pass(Scheme.OCSA, means, activity, t_c, n, seed, d1,
                             d2, threads, chunk, rho, [sigma2, zero],
                             wrong=True)
    return _estimate(noisy, n), _estimate(clean, n), _mean_se(noisy[..., 0, :])


def ergodic_capacity(scheme: Scheme, means: MeanGains,
                     activity: ActivityModel, rho, t_c: float,
                     n: int, seed: int, d1: int = 1, d2: int = 1,
                     threads: int = 1,
                     chunk: int | None = None) -> CapacityEstimate:
    """Ergodic capacity bounds with perfect metric knowledge; rho may be an
    array, as in imperfect_capacity."""
    return imperfect_capacity(scheme, means, activity, rho, t_c, n, seed,
                              sigma2=0.0, d1=d1, d2=d2, threads=threads,
                              chunk=chunk)


def outage_capacity(scheme: Scheme, means: MeanGains,
                    activity: ActivityModel, rho: float, t_c: float,
                    epsilons, n: int, seed: int, d1: int = 1, d2: int = 1,
                    sigma2: float = 0.0, threads: int = 1,
                    chunk: int | None = None) -> OutageResult:
    """Empirical epsilon-outage capacity bounds.

    For each epsilon the reported value is the floor(epsilon * n)-th order
    statistic of the sampled bound, i.e. the level exceeded with empirical
    probability at least 1 - epsilon.
    """
    eps = tuple(float(e) for e in epsilons)
    if not eps:
        raise ValueError("outage_capacity: need at least one epsilon")
    for e in eps:
        if not 0.0 < e < 1.0:
            raise ValueError("outage_capacity: epsilons must lie in (0, 1)")
    upper, lower = capacity_draws(scheme, means, activity, rho, t_c, n, seed,
                                  d1=d1, d2=d2, sigma2=sigma2,
                                  threads=threads, chunk=chunk)
    upper.sort()
    lower.sort()
    idx = [int(math.floor(e * n)) for e in eps]
    return OutageResult(
        epsilons=eps,
        upper=upper[idx],
        lower=lower[idx],
        n_trials=n,
    )


def relative_capacity_loss(base: CapacityEstimate,
                           degraded: CapacityEstimate):
    """Relative drop of the upper-bound mean caused by estimation noise;
    array fields broadcast."""
    if np.any(np.asarray(base.upper_mean) <= 0):
        raise ValueError("relative_capacity_loss: base estimate must be positive")
    return (base.upper_mean - degraded.upper_mean) / base.upper_mean


# ---------------------------------------------------------------------------
# Wrong-relay selection probability under noisy metrics
# ---------------------------------------------------------------------------


def wrong_relay_bound(sigma2: float, means: MeanGains) -> float:
    """Closed-form upper bound on the wrong-relay probability.

    A selection error requires the noise to flip a pairwise metric
    comparison whose true margin is the absolute difference of two
    independent exponential gains; the two relevant comparisons pit the
    helper link against each primary link, and the relevant status
    branches carry total probability bounded by 1/3 each.
    """
    if sigma2 < 0:
        raise ValueError("wrong_relay_bound: sigma2 must be nonnegative")
    s = math.sqrt(2.0 * sigma2)
    return (
        abs_diff_q_mean(s, means.pr, means.tr)
        + abs_diff_q_mean(s, means.pt, means.tr)
    ) / 3.0


def wrong_relay_probability_mc(sigma2, means: MeanGains, rho,
                               n: int, seed: int, d1: int = 1, d2: int = 1,
                               threads: int = 1,
                               chunk: int | None = None) -> tuple:
    """Monte Carlo probability that metric noise changes the relay choice
    in a status where the choice affects the outcome.

    The outcome-relevant statuses are those with exactly one successful
    secondary node: with both successful nothing remains to recover, and
    with both failed the primary transmits regardless.  Each trial
    contributes the conditional probability of that event given its gains
    and the selecting side's own metric noise (conditional Monte Carlo;
    see _flip_odds), not the event's 0/1 indicator: the same mean with
    several times less variance.  Returns (estimate, standard error).
    sigma2 and rho broadcast as in imperfect_capacity, whose one-pass rules
    hold here too.
    """
    cells = _one_pass(Scheme.OCSA, means, None, None, n, seed, d1, d2,
                      threads, chunk, rho, sigma2, wrong=True)
    return _mean_se(cells[..., 0, :])


# ---------------------------------------------------------------------------
# Throughput with beaconing overhead
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class OverheadParams:
    """Frame-overhead description: data-phase length t_cr, feedback length
    t_fb, and beaconing cost beta / t_i where t_i is the selected relay's
    metric.  lambda_pt is the transmitter-side primary mean gain used in
    the closed-form loss bound."""

    t_cr: float
    t_fb: float
    beta: float
    lambda_pt: float = 1.0

    def __post_init__(self):
        if self.t_cr <= 0:
            raise ValueError("OverheadParams: t_cr must be positive")
        if self.t_fb < 0:
            raise ValueError("OverheadParams: t_fb must be nonnegative")
        if self.beta < 0:
            raise ValueError("OverheadParams: beta must be nonnegative")
        if self.lambda_pt <= 0:
            raise ValueError("OverheadParams: lambda_pt must be positive")

    @property
    def w1(self) -> float:
        return self.t_fb / self.t_cr

    @property
    def w2(self) -> float:
        return self.beta / (self.t_cr * self.lambda_pt)


def _frame_share(ov: OverheadParams, t_i):
    t = np.asarray(t_i, dtype=float)
    if ov.beta == 0:
        share = np.full(t.shape, ov.t_cr / (ov.t_cr + ov.t_fb))
    else:
        beacon = np.where(t > 0, ov.beta / np.where(t > 0, t, 1.0), np.inf)
        share = ov.t_cr / (ov.t_cr + ov.t_fb + beacon)
    return share


def throughput(capacity_value, ov: OverheadParams, t_i):
    """Rate after overhead: the data phase occupies t_cr out of
    t_cr + t_fb + beta / t_i frame units."""
    t = np.asarray(t_i, dtype=float)
    if ov.beta > 0 and np.any(t <= 0):
        raise ValueError("throughput: t_i must be positive when beta > 0")
    out = np.asarray(capacity_value, dtype=float) * _frame_share(ov, t)
    return float(out) if out.ndim == 0 else out


def throughput_loss_bound(ov: OverheadParams) -> float:
    """Closed-form bound on the expected relative throughput loss.

    In terms of w1 = t_fb / t_cr and w2 = beta / (t_cr * lambda_pt):
    w1 / (1 + w1) + (1 + w1) * (exp(w2 / (1 + w1)) - 1), exact (zero) when
    both overheads vanish.  The relative loss is below 1, so the bound is
    capped at 1; the closed form is not evaluated once w2 / (1 + w1) >= 1,
    where its second term alone exceeds 1 (and expm1 overflows from about
    709.8).
    """
    w1, w2 = ov.w1, ov.w2
    y = w2 / (1.0 + w1)
    if y >= 1.0:
        return 1.0
    return min(w1 / (1.0 + w1) + (1.0 + w1) * math.expm1(y), 1.0)


def throughput_loss_mc(ov, means: MeanGains, rho: float,
                       n: int, seed: int, d1: int = 1, d2: int = 1,
                       threads: int = 1,
                       chunk: int | None = None) -> tuple:
    """Monte Carlo mean of the per-frame relative throughput loss.

    Each trial samples channel gains and first-phase outcomes, runs the
    relay selection, and charges the beaconing overhead against the
    selected relay's metric.  Returns (estimate, standard error), as floats
    for one OverheadParams ov and as arrays for an array-like of them, whose
    cells share each chunk's draws and relay selection.
    """
    ovs = np.asarray(ov, dtype=object)
    cells = ovs.ravel().tolist()
    cfg = ProtocolConfig(rho=rho, d1=d1, d2=d2)

    def selected_metric(idx: int, start: int, size: int):
        ch = draw_pair_chunk(means, seed, idx, size)
        u = substream(seed, TAG_STATUS, idx).random((size, 2))
        metrics = compute_metrics(ch)
        sel = ocsa_select_relay(metrics,
                                u[:, 0] < 1.0 - phase1_failure(cfg, ch.g_pt),
                                u[:, 1] < 1.0 - phase1_failure(cfg, ch.g_pr))
        return np.where(sel == RelayIdentity.SECONDARY_TX, metrics.t_t,
                        np.where(sel == RelayIdentity.SECONDARY_RX,
                                 metrics.t_r, metrics.t_p))

    def losses(t_i, _scratch):
        return (1.0 - _frame_share(o, t_i) for o in cells)

    stats = parallel_grid_stats(selected_metric, [losses], n, chunk, threads)
    return _mean_se(np.stack(stats, axis=-1).reshape(ovs.shape + (2,)))
