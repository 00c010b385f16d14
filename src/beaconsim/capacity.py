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

import numpy as np

from .channel import MeanGains, compute_metrics, draw_pair_chunk, perturb_metrics
from .fadeprob import abs_diff_q_mean
# parallel_chunk_stats is unused but stays bound: perfbench hooks it here
from .mc import (  # noqa: F401
    TAG_METRIC_NOISE,
    TAG_STATUS,
    parallel_chunk_arrays,
    parallel_chunk_stats,
    parallel_grid_stats,
    substream,
)
from .protocols import (
    ProtocolConfig,
    RelayIdentity,
    Scheme,
    csa_conditional_miss,
    csa_joint_success,
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


def capacity_upper(p_joint, power):
    """Upper capacity bound; continuous extension gives 0 at p_joint = 0."""
    p = np.asarray(p_joint, dtype=float)
    pw = np.asarray(power, dtype=float)
    if np.any(p < 0) or np.any(pw < 0):
        raise ValueError("capacity_upper: arguments must be nonnegative")
    safe = np.where(p > 0, p, 1.0)
    # log2(1 + pw/p) written as a difference to avoid overflow at tiny p
    out = np.where(p > 0, p * (np.log2(safe + pw) - np.log2(safe)), 0.0)
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
    safe = np.where(pt > 0, pt, 1.0)
    penalty = 1.0 / (coherence_time * _LN2)
    out = pj * (np.log2(safe + pw) - np.log2(safe)) - penalty
    return float(out) if out.ndim == 0 else out


# ---------------------------------------------------------------------------
# Per-draw capacity bounds over sampled channels
# ---------------------------------------------------------------------------


def _grid(*params):
    """(broadcast shape, each parameter as a flat C-order list of floats)."""
    cells = np.broadcast_arrays(*(np.asarray(p, dtype=float) for p in params))
    return cells[0].shape, [c.ravel().tolist() for c in cells]


def _grid_stats(shape, worker, n, chunk, threads):
    """Mean and se arrays (grid shape + value shape) of a C-order worker."""
    stats = parallel_grid_stats(worker, n, chunk, threads)
    mean, se = (np.array([cell[k] for cell in stats]) for k in (0, 1))
    return mean.reshape(shape + mean.shape[1:]), se.reshape(shape + se.shape[1:])


def _out(values):
    """A scalar grid's value as a float, any other grid's as its array."""
    return float(values) if np.ndim(values) == 0 else values


def _noise_cells(s2s, metrics, seed: int, idx: int):
    """Per cell, chunk idx's metrics plus N(0, sigma2) noise, drawn again
    only where sigma2 differs from the previous cell's; None stays None."""
    level = noisy = None
    for s2 in s2s:
        if metrics is not None and s2 != level:
            level = s2
            noisy = metrics if level == 0 else perturb_metrics(
                metrics, level, substream(seed, TAG_METRIC_NOISE, idx))
        yield noisy


def _bound_cells(scheme: Scheme, means: MeanGains, activity: ActivityModel,
                 rho, t_c: float, seed: int, d1: int, d2: int, sigma2):
    """(grid shape, worker yielding per-trial (upper, lower) bounds for each
    rho x sigma2 cell in C order)."""
    scheme = Scheme(scheme)
    if scheme is Scheme.MUCSA:
        raise ValueError(
            "capacity estimation covers the single-pair schemes only"
        )
    shape, (rhos, s2s) = _grid(rho, sigma2)
    if min(s2s) < 0:
        raise ValueError("sigma2 must be nonnegative")
    if not isinstance(means, MeanGains):
        raise TypeError("means must be a MeanGains instance")
    cfgs = [ProtocolConfig(rho=r, d1=d1, d2=d2) for r in rhos]

    # one cell per call, so its temporaries are freed before the next cell
    def bounds(ch, cfg: ProtocolConfig, metrics) -> np.ndarray:
        g_pt, g_pr, g_tr = ch.g_pt, ch.g_pr, ch.g_tr
        if scheme is Scheme.NC:
            miss_t = nc_conditional_miss(cfg, g_pt)
            joint = nc_joint_success(cfg, g_pt, g_pr)
        elif scheme is Scheme.CSA:
            miss_t = csa_conditional_miss(cfg, g_pt, g_pr, g_tr)
            joint = csa_joint_success(cfg, g_pt, g_pr, g_tr)
        else:
            miss_t = ocsa_conditional_miss(
                cfg, g_pt, g_pr, g_tr,
                metrics=(metrics.t_p, metrics.t_t, metrics.t_r),
            )
            joint = ocsa_joint_success(cfg, g_pt, g_pr, g_tr, metrics=metrics)
        p_t, p_joint = state_probs(activity, miss_t, joint)
        power = cfg.rho * g_tr
        upper = capacity_upper(p_joint, power)
        lower = capacity_lower(p_t, p_joint, power, t_c)
        return np.stack([upper, lower], axis=1)

    def worker(idx: int, start: int, size: int):
        ch = draw_pair_chunk(means, seed, idx, size)
        # only the opportunistic rule reads the (noisy) metrics
        clean = compute_metrics(ch) if scheme is Scheme.OCSA else None
        noise = _noise_cells(s2s, clean, seed, idx)
        return (bounds(ch, cfg, metrics) for cfg, metrics in zip(cfgs, noise))

    return shape, worker


def capacity_draws(scheme: Scheme, means: MeanGains, activity: ActivityModel,
                   rho: float, t_c: float, n: int, seed: int,
                   d1: int = 1, d2: int = 1, sigma2: float = 0.0,
                   threads: int = 1, chunk: int | None = None):
    """Per-realization (upper, lower) capacity bound arrays at one rho."""
    shape, cells = _bound_cells(scheme, means, activity, rho, t_c, seed,
                                d1, d2, sigma2)
    if shape:
        raise ValueError("capacity_draws: rho and sigma2 must be scalars")
    vals = parallel_chunk_arrays(lambda *r: next(cells(*r)), n, chunk, threads)
    return vals[:, 0], vals[:, 1]


def imperfect_capacity(scheme: Scheme, means: MeanGains,
                       activity: ActivityModel, rho, t_c: float,
                       n: int, seed: int, sigma2,
                       d1: int = 1, d2: int = 1, threads: int = 1,
                       chunk: int | None = None) -> CapacityEstimate:
    """Ergodic capacity bounds with noisy relay-selection metrics.

    rho and sigma2 broadcast: scalars give float fields, arrays give arrays.
    Each chunk is drawn once for the whole grid (with sigma2 on the leading
    axis, each noise level too) and each cell is reduced in chunk order, so
    its value does not depend on the grid.  Noise draws come from a
    dedicated substream, so sigma2 = 0 reproduces the noiseless estimate
    bit for bit.
    """
    mean, se = _grid_stats(
        *_bound_cells(scheme, means, activity, rho, t_c, seed, d1, d2, sigma2),
        n, chunk, threads)
    return CapacityEstimate(
        upper_mean=_out(mean[..., 0]),
        upper_se=_out(se[..., 0]),
        lower_mean=_out(mean[..., 1]),
        lower_se=_out(se[..., 1]),
        n_trials=n,
    )


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


def _phase1_draw(cfgs, means: MeanGains, seed: int, idx: int, size: int):
    """Selection metrics of one chunk, and per cfg its sampled first-phase
    outcomes (transmitter side detected, receiver side detected)."""
    ch = draw_pair_chunk(means, seed, idx, size)
    u = substream(seed, TAG_STATUS, idx).random((size, 2))
    return compute_metrics(ch), ((u[:, 0] < 1.0 - phase1_failure(cfg, ch.g_pt),
                                  u[:, 1] < 1.0 - phase1_failure(cfg, ch.g_pr))
                                 for cfg in cfgs)


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
    with both failed the primary transmits regardless.  Returns (estimate,
    standard error).  sigma2 and rho broadcast as in imperfect_capacity,
    whose draw-once rules hold here too.
    """
    shape, (s2s, rhos) = _grid(sigma2, rho)
    if min(s2s) < 0:
        raise ValueError("wrong_relay_probability_mc: sigma2 must be nonnegative")
    cfgs = [ProtocolConfig(rho=r, d1=d1, d2=d2) for r in rhos]

    def worker(idx: int, start: int, size: int):
        metrics, outcomes = _phase1_draw(cfgs, means, seed, idx, size)
        noise = _noise_cells(s2s, metrics, seed, idx)
        for (t_ok, r_ok), noisy in zip(outcomes, noise):
            sel_true = ocsa_select_relay(metrics, t_ok, r_ok)
            sel_noisy = ocsa_select_relay(noisy, t_ok, r_ok)
            yield ((sel_true != sel_noisy) & (t_ok != r_ok)).astype(float)

    mean, se = _grid_stats(shape, worker, n, chunk, threads)
    return _out(mean), _out(se)


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
    both overheads vanish.
    """
    w1, w2 = ov.w1, ov.w2
    return w1 / (1.0 + w1) + (1.0 + w1) * math.expm1(w2 / (1.0 + w1))


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

    def worker(idx: int, start: int, size: int):
        metrics, outcomes = _phase1_draw([cfg], means, seed, idx, size)
        sel = ocsa_select_relay(metrics, *next(outcomes))
        t_i = np.where(sel == RelayIdentity.SECONDARY_TX, metrics.t_t,
                       np.where(sel == RelayIdentity.SECONDARY_RX,
                                metrics.t_r, metrics.t_p))
        return (1.0 - _frame_share(o, t_i) for o in cells)

    mean, se = _grid_stats(ovs.shape, worker, n, chunk, threads)
    return _out(mean), _out(se)
