"""Averaged miss and joint-detection estimators with error bars.

Two estimator families are provided:

* ``channel`` mode samples channel realizations and averages the exact
  conditional outcome probabilities.  Its relative error degrades in the
  deep-tail regime, where the average is carried by rare joint fades that
  a feasible number of samples never visits.

* ``tail`` mode rewrites every Gaussian-tail detection factor
  Q(sqrt(2 rho A)) as (1/2) P(A <= V^2 / (2 rho)) with an independent
  half-normal V, then integrates the channel gains in closed form for each
  drawn threshold vector.  The per-trial values concentrate around the
  mean regardless of rho, so the relative error stays bounded along the
  whole curve; this is the mode to use for diversity-order fits.

Both modes draw from substreams keyed by (seed, purpose, chunk index), so
results are reproducible bit for bit for a given seed, independent of
thread count.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import (
    MeanGains,
    MultiuserMeans,
    draw_multiuser_chunk,
    draw_pair_chunk,
)
from .fadeprob import (
    exp_erlang_box_prob,
    exp_q_mean,
    exp_sum_box_prob,
    ocsa_fade_regions,
)
from .mc import TAG_THRESHOLDS, parallel_chunk_stats, substream
from .numerics import fit_diversity_slope
from .protocols import (
    ProtocolConfig,
    Scheme,
    check_user_count,
    csa_conditional_miss,
    csa_joint_success,
    mucsa_conditional_miss,
    mucsa_pair_joint_success,
    nc_conditional_miss,
    nc_joint_success,
    ocsa_conditional_miss,
    ocsa_joint_success,
)

__all__ = [
    "SweepSpec",
    "SweepResult",
    "DiversityFit",
    "db_to_linear",
    "estimate_miss_curve",
    "estimate_joint_success_curve",
    "estimate_diversity",
]

_MODES = ("channel", "tail")


def db_to_linear(x):
    """Convert a power ratio from decibels to linear scale."""
    return 10.0 ** (np.asarray(x, dtype=float) / 10.0) if np.ndim(x) else float(
        10.0 ** (x / 10.0)
    )


@dataclass(frozen=True)
class SweepSpec:
    """What to estimate: scheme, channel statistics, grid and budget."""

    scheme: Scheme
    means: object
    rho_db: tuple
    n_trials: int
    seed: int
    d1: int = 1
    d2: int = 1
    mode: str = "channel"
    threads: int = 1
    chunk: int | None = None

    def __post_init__(self):
        object.__setattr__(self, "scheme", Scheme(self.scheme))
        object.__setattr__(self, "rho_db", tuple(float(r) for r in self.rho_db))
        if not self.rho_db:
            raise ValueError("SweepSpec: rho_db grid must be nonempty")
        if self.n_trials < 1:
            raise ValueError("SweepSpec: n_trials must be positive")
        if self.threads < 1:
            raise ValueError("SweepSpec: threads must be positive")
        if self.mode not in _MODES:
            raise ValueError(f"SweepSpec: mode must be one of {_MODES}")
        if self.chunk is not None and self.chunk < 1:
            raise ValueError("SweepSpec: chunk must be positive")
        if self.d1 < 1 or self.d2 < 1:
            raise ValueError("SweepSpec: d1 and d2 must be positive")

    def config(self, rho: float) -> ProtocolConfig:
        return ProtocolConfig(rho=rho, d1=self.d1, d2=self.d2)


@dataclass(frozen=True)
class SweepResult:
    """Estimates with standard errors along a signal-to-noise grid."""

    scheme: Scheme
    mode: str
    rho_db: np.ndarray
    estimate: np.ndarray
    std_error: np.ndarray
    n_trials: int


@dataclass(frozen=True)
class DiversityFit:
    """Fitted decay order of a miss curve, with the underlying sweep."""

    order: float
    residual: float
    result: SweepResult


def _require_means(spec: SweepSpec):
    """spec.means, checked against the model the scheme needs."""
    cls = MultiuserMeans if spec.scheme is Scheme.MUCSA else MeanGains
    if not isinstance(spec.means, cls):
        raise TypeError(
            f"{spec.scheme.value}: spec.means must be a {cls.__name__} instance"
        )
    return spec.means


def _pair_lams(means: MeanGains, side: str) -> tuple[float, float, float]:
    """Mean gains as (own primary, peer primary, helper) for one side."""
    if side == "t":
        return means.pt, means.pr, means.tr
    if side == "r":
        return means.pr, means.pt, means.tr
    raise ValueError("side must be 't' or 'r'")


def _thresholds(seed: int, idx: int, size: int, k: int, rho: float):
    """Draw k independent squared half-normal thresholds per trial."""
    rng = substream(seed, TAG_THRESHOLDS, idx)
    z = rng.standard_normal((size, k))
    return z * z / (2.0 * rho)


# ---------------------------------------------------------------------------
# Per-chunk value workers
# ---------------------------------------------------------------------------


def _miss_values_channel(spec: SweepSpec, rho: float, side: str, user: int):
    cfg = spec.config(rho)
    means = _require_means(spec)
    if spec.scheme is Scheme.MUCSA:
        if not 0 <= user < means.n_users:
            raise ValueError("user index out of range")

        def worker(idx, start, size):
            mch = draw_multiuser_chunk(means, spec.seed, idx, size)
            return mucsa_conditional_miss(cfg, mch, user)

        return worker
    _pair_lams(means, side)  # validates side

    def worker(idx, start, size):
        ch = draw_pair_chunk(means, spec.seed, idx, size)
        own, peer = (ch.g_pt, ch.g_pr) if side == "t" else (ch.g_pr, ch.g_pt)
        if spec.scheme is Scheme.NC:
            return nc_conditional_miss(cfg, own)
        if spec.scheme is Scheme.CSA:
            return csa_conditional_miss(cfg, own, peer, ch.g_tr)
        return ocsa_conditional_miss(cfg, own, peer, ch.g_tr)

    return worker


def _miss_values_tail(spec: SweepSpec, rho: float, side: str, user: int):
    d1, d2 = spec.d1, spec.d2
    d = d1 + d2
    means = _require_means(spec)
    if spec.scheme is Scheme.MUCSA:
        nu = check_user_count(means.n_users)
        if not 0 <= user < nu:
            raise ValueError("user index out of range")
        m_pairs = nu // 2
        off = ~np.eye(nu, dtype=bool)
        inter_vals = np.unique(means.inter[off])
        if inter_vals.size != 1:
            raise ValueError(
                "tail mode requires identical inter-user mean gains "
                "(helper sums are integrated as a gamma variate)"
            )
        lam_uu = float(inter_vals[0])
        q_bar = np.array(
            [exp_q_mean(d1 * rho, lam) for lam in means.primary]
        )
        others = [j for j in range(nu) if j != user]
        k_others = len(others)
        # Per-subset deterministic weights: failed own detection is part of
        # the dualized box term, so the weight covers only the other users.
        weights, sizes = [], []
        for mask in range(1, 1 << k_others):
            w = 1.0
            bits = 0
            for pos, j in enumerate(others):
                if mask >> pos & 1:
                    w *= 1.0 - q_bar[j]
                    bits += 1
                else:
                    w *= q_bar[j]
            weights.append(w)
            sizes.append(bits)
        all_fail = float(np.prod(q_bar))
        a_mean = d1 * float(means.primary[user])
        b_mean = (d2 / (2.0 * m_pairs)) * lam_uu

        def worker(idx, start, size):
            x = _thresholds(spec.seed, idx, size, 2, rho)
            x_own, x_rec = x[:, 0], x[:, 1]
            # the box depends on the subset only through its size
            boxes = {kk: exp_erlang_box_prob(x_rec, x_own, a_mean, b_mean, kk)
                     for kk in range(1, k_others + 1)}
            total = np.full(size, all_fail)
            for w, kk in zip(weights, sizes):
                total += 0.25 * w * boxes[kk]
            return total

        return worker

    lam_own, lam_peer, lam_tr = _pair_lams(means, side)
    if spec.scheme is Scheme.NC:

        def worker(idx, start, size):
            x = _thresholds(spec.seed, idx, size, 1, rho)[:, 0]
            return 0.5 * -np.expm1(-x / (d * lam_own))

        return worker
    if spec.scheme is Scheme.CSA:
        q_own = exp_q_mean(d1 * rho, lam_own)
        q_peer = exp_q_mean(d1 * rho, lam_peer)

        def worker(idx, start, size):
            x = _thresholds(spec.seed, idx, size, 2, rho)
            x_own, x_rec = x[:, 0], x[:, 1]
            box = exp_sum_box_prob(x_rec, x_own, d1 * lam_own, d2 * lam_tr)
            return 0.25 * box * (1.0 - q_peer) + q_own * q_peer

        return worker

    lams = (lam_own, lam_peer, lam_tr)

    def worker(idx, start, size):
        x = _thresholds(spec.seed, idx, size, 3, rho)
        p1, p2, p3, p4 = ocsa_fade_regions(
            x[:, 0], x[:, 1], x[:, 2], d1, d2, lams
        )
        return 0.25 * p1 + 0.25 * p3 - 0.125 * p2 + 0.125 * p4

    return worker


def _joint_values_channel(spec: SweepSpec, rho: float, pair: int):
    cfg = spec.config(rho)
    means = _require_means(spec)
    if spec.scheme is Scheme.MUCSA:

        def worker(idx, start, size):
            mch = draw_multiuser_chunk(means, spec.seed, idx, size)
            return mucsa_pair_joint_success(cfg, mch, pair)

        return worker

    def worker(idx, start, size):
        ch = draw_pair_chunk(means, spec.seed, idx, size)
        if spec.scheme is Scheme.NC:
            return nc_joint_success(cfg, ch.g_pt, ch.g_pr)
        if spec.scheme is Scheme.CSA:
            return csa_joint_success(cfg, ch.g_pt, ch.g_pr, ch.g_tr)
        return ocsa_joint_success(cfg, ch.g_pt, ch.g_pr, ch.g_tr)

    return worker


# ---------------------------------------------------------------------------
# Public estimators
# ---------------------------------------------------------------------------


def _run_sweep(spec: SweepSpec, make_worker) -> SweepResult:
    est = np.empty(len(spec.rho_db))
    se = np.empty(len(spec.rho_db))
    for i, rho_db in enumerate(spec.rho_db):
        worker = make_worker(db_to_linear(rho_db))
        mean, err, _n = parallel_chunk_stats(
            worker, spec.n_trials, spec.chunk, spec.threads
        )
        est[i] = mean
        se[i] = err
    return SweepResult(
        scheme=spec.scheme,
        mode=spec.mode,
        rho_db=np.asarray(spec.rho_db, dtype=float),
        estimate=est,
        std_error=se,
        n_trials=spec.n_trials,
    )


def estimate_miss_curve(spec: SweepSpec, side: str = "t",
                        user: int = 0) -> SweepResult:
    """Estimate the averaged miss probability along the rho grid.

    ``side`` picks the node for the pair schemes ('t' or 'r'); ``user``
    picks the node for the multiuser scheme.
    """
    if spec.mode == "channel":
        return _run_sweep(
            spec, lambda rho: _miss_values_channel(spec, rho, side, user)
        )
    return _run_sweep(
        spec, lambda rho: _miss_values_tail(spec, rho, side, user)
    )


def estimate_joint_success_curve(spec: SweepSpec, pair: int = 0) -> SweepResult:
    """Estimate the probability that both nodes of a pair detect.

    Channel-realization averaging only: joint success tends to one, so the
    deep-tail reformulation is unnecessary.  ``pair`` selects the pair for
    the multiuser scheme.
    """
    if spec.mode != "channel":
        raise ValueError(
            "estimate_joint_success_curve supports channel mode only"
        )
    return _run_sweep(spec, lambda rho: _joint_values_channel(spec, rho, pair))


def estimate_diversity(spec: SweepSpec, side: str = "t",
                       user: int = 0) -> DiversityFit:
    """Fit the power-law decay order of the averaged miss curve.

    The fit is a least-squares line in log-log space over spec.rho_db; use
    tail mode so the relative error stays uniform across the grid.
    """
    if len(spec.rho_db) < 2:
        raise ValueError("estimate_diversity: need at least two grid points")
    result = estimate_miss_curve(spec, side=side, user=user)
    rho = db_to_linear(np.asarray(spec.rho_db))
    order, residual = fit_diversity_slope(rho, result.estimate)
    return DiversityFit(order=order, residual=residual, result=result)
