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
thread count.  Since draws do not depend on rho, each chunk is drawn once
and evaluated at every grid point.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

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
# parallel_chunk_stats is unused but stays bound: perfbench hooks it here
from .mc import (TAG_THRESHOLDS, parallel_chunk_stats,  # noqa: F401
                 parallel_grid_stats, substream)
from .numerics import fit_diversity_slope
from .protocols import (
    ProtocolConfig,
    Scheme,
    check_user_count,
    csa_conditional_miss,
    csa_joint_success,
    mucsa_conditional_miss,
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
        with np.errstate(over="ignore"):
            rho = db_to_linear(self.rho_db)
        if not np.all((rho > 0) & np.isfinite(rho)):
            raise ValueError("SweepSpec: every rho_db must give a positive "
                             "finite linear SNR 10^(rho_db/10)")
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
        cls = MultiuserMeans if self.scheme is Scheme.MUCSA else MeanGains
        if not isinstance(self.means, cls):
            raise TypeError(f"{self.scheme.value}: SweepSpec.means must be "
                            f"a {cls.__name__} instance")

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


def _check_user(means: MultiuserMeans, user: int) -> int:
    """The checked user count of means, once user is checked to index one."""
    nu = check_user_count(means.n_users)
    if not 0 <= user < nu:
        raise ValueError("user index out of range")
    return nu


def _pair_lams(means: MeanGains, side: str) -> tuple[float, float, float]:
    """Mean gains as (own primary, peer primary, helper) for one side."""
    if side == "t":
        return means.pt, means.pr, means.tr
    if side == "r":
        return means.pr, means.pt, means.tr
    raise ValueError("side must be 't' or 'r'")


# ---------------------------------------------------------------------------
# Per-chunk draws and per-rho evaluators, returned as (draw, evaluator)
# ---------------------------------------------------------------------------


def _tail_draw(spec: SweepSpec, k: int):
    """Per-chunk draw of k values z^2 per trial, one contiguous row each;
    the thresholds at rho are z^2 / (2 rho)."""

    def draw(idx, size):
        z = substream(spec.seed, TAG_THRESHOLDS, idx).standard_normal((size, k))
        z *= z
        return z.T.copy()

    return draw


def _channel_values(spec: SweepSpec, kernel):
    """Per-chunk draw of the gains of the scheme's model, and an evaluator
    that applies kernel(cfg, ch) at each rho."""
    draw = partial(draw_multiuser_chunk if spec.scheme is Scheme.MUCSA
                   else draw_pair_chunk, spec.means, spec.seed)

    def evaluator(rho):
        cfg = spec.config(rho)
        return lambda ch: kernel(cfg, ch)

    return draw, evaluator


def _miss_values_channel(spec: SweepSpec, side: str, user: int):
    if spec.scheme is Scheme.MUCSA:
        _check_user(spec.means, user)
        return _channel_values(
            spec, lambda cfg, ch: mucsa_conditional_miss(cfg, ch, user))
    _pair_lams(spec.means, side)  # validates side

    def kernel(cfg, ch):
        own, peer = (ch.g_pt, ch.g_pr) if side == "t" else (ch.g_pr, ch.g_pt)
        if spec.scheme is Scheme.NC:
            return nc_conditional_miss(cfg, own)
        if spec.scheme is Scheme.CSA:
            return csa_conditional_miss(cfg, own, peer, ch.g_tr)
        return ocsa_conditional_miss(cfg, own, peer, ch.g_tr)

    return _channel_values(spec, kernel)


def _miss_values_tail(spec: SweepSpec, side: str, user: int):
    d1, d2 = spec.d1, spec.d2
    d = d1 + d2
    means = spec.means
    if spec.scheme is Scheme.MUCSA:
        nu = _check_user(means, user)
        m_pairs = nu // 2
        off = ~np.eye(nu, dtype=bool)
        inter_vals = np.unique(means.inter[off])
        if inter_vals.size != 1:
            raise ValueError(
                "tail mode requires identical inter-user mean gains "
                "(helper sums are integrated as a gamma variate)"
            )
        lam_uu = float(inter_vals[0])
        a_mean = d1 * float(means.primary[user])
        b_mean = (d2 / (2.0 * m_pairs)) * lam_uu

        def evaluator(rho):
            q_bar = np.array(
                [exp_q_mean(d1 * rho, lam) for lam in means.primary]
            )
            # weights[k]: probability that exactly k of the other users
            # succeed in phase one (failed own detection is part of the
            # dualized box term).  The Poisson-binomial recursion adds only
            # nonnegative terms, so it never divides by a q_bar that is 0.
            weights = np.zeros(nu)
            weights[0] = 1.0
            for q in np.delete(q_bar, user):
                weights[1:] = weights[1:] * q + weights[:-1] * (1.0 - q)
                weights[0] *= q
            all_fail = float(np.prod(q_bar))

            def values(zz):
                x_own, x_rec = zz / (2.0 * rho)
                total = np.full(len(x_own), all_fail)
                # the box depends on the helper subset only through its
                # size; scaled in place, so no second chunk-size temporary
                for kk in range(1, nu):
                    box = exp_erlang_box_prob(x_rec, x_own, a_mean, b_mean, kk)
                    box *= 0.25 * weights[kk]
                    total += box
                return total

            return values

        return _tail_draw(spec, 2), evaluator

    lam_own, lam_peer, lam_tr = _pair_lams(means, side)
    if spec.scheme is Scheme.NC:

        def evaluator(rho):
            def values(zz):
                x = zz[0] / (2.0 * rho)
                return 0.5 * -np.expm1(-x / (d * lam_own))

            return values

        return _tail_draw(spec, 1), evaluator
    if spec.scheme is Scheme.CSA:

        def evaluator(rho):
            q_own = exp_q_mean(d1 * rho, lam_own)
            q_peer = exp_q_mean(d1 * rho, lam_peer)

            def values(zz):
                x_own, x_rec = zz / (2.0 * rho)
                box = exp_sum_box_prob(x_rec, x_own, d1 * lam_own, d2 * lam_tr)
                return 0.25 * box * (1.0 - q_peer) + q_own * q_peer

            return values

        return _tail_draw(spec, 2), evaluator

    lams = (lam_own, lam_peer, lam_tr)

    def evaluator(rho):
        def values(zz):
            x = zz / (2.0 * rho)
            p1, p2, p3, p4 = ocsa_fade_regions(x[0], x[1], x[2], d1, d2, lams)
            return 0.25 * p1 + 0.25 * p3 - 0.125 * p2 + 0.125 * p4

        return values

    return _tail_draw(spec, 3), evaluator


def _joint_values_channel(spec: SweepSpec):
    def kernel(cfg, ch):
        if spec.scheme is Scheme.NC:
            return nc_joint_success(cfg, ch.g_pt, ch.g_pr)
        if spec.scheme is Scheme.CSA:
            return csa_joint_success(cfg, ch.g_pt, ch.g_pr, ch.g_tr)
        return ocsa_joint_success(cfg, ch.g_pt, ch.g_pr, ch.g_tr)

    return _channel_values(spec, kernel)


# ---------------------------------------------------------------------------
# Public estimators
# ---------------------------------------------------------------------------


def _run_sweep(spec: SweepSpec, draw, evaluator) -> SweepResult:
    """Chunks outside, grid points inside: each chunk is drawn once and
    evaluated at every rho, and each point is reduced in chunk order."""
    evals = [evaluator(db_to_linear(rho_db)) for rho_db in spec.rho_db]

    def worker(idx, start, size):
        sample = draw(idx, size)
        return (values(sample) for values in evals)

    stats = parallel_grid_stats(worker, spec.n_trials, spec.chunk, spec.threads)
    return SweepResult(
        scheme=spec.scheme,
        mode=spec.mode,
        rho_db=np.asarray(spec.rho_db, dtype=float),
        estimate=np.array([mean for mean, _se, _n in stats]),
        std_error=np.array([se for _mean, se, _n in stats]),
        n_trials=spec.n_trials,
    )


def estimate_miss_curve(spec: SweepSpec, side: str = "t",
                        user: int = 0) -> SweepResult:
    """Estimate the averaged miss probability along the rho grid.

    ``side`` picks the node for the pair schemes ('t' or 'r'); ``user``
    picks the node for the multiuser scheme.
    """
    factory = _miss_values_channel if spec.mode == "channel" else _miss_values_tail
    return _run_sweep(spec, *factory(spec, side, user))


def estimate_joint_success_curve(spec: SweepSpec) -> SweepResult:
    """Estimate the probability that both nodes of a pair detect.

    Channel-realization averaging of the pair schemes only: joint success
    tends to one, so the deep-tail reformulation is unnecessary.
    """
    if spec.mode != "channel" or spec.scheme is Scheme.MUCSA:
        raise ValueError("estimate_joint_success_curve supports nc, csa and "
                         "ocsa in channel mode only")
    return _run_sweep(spec, *_joint_values_channel(spec))


def estimate_diversity(spec: SweepSpec, side: str = "t",
                       user: int = 0) -> DiversityFit:
    """Fit the power-law decay order of the averaged miss curve.

    The fit is a least-squares line in log-log space over spec.rho_db; use
    tail mode so the relative error stays uniform across the grid.
    """
    if len(set(spec.rho_db)) < 2:
        raise ValueError("estimate_diversity: need two distinct grid points")
    result = estimate_miss_curve(spec, side=side, user=user)
    zero = np.flatnonzero(result.estimate == 0)
    if zero.size:
        raise ValueError(
            "estimate_diversity: the miss estimate at rho_db = "
            f"{spec.rho_db[zero[0]]:g} is exactly 0, so no slope can be "
            "fitted; use tail mode")
    rho = db_to_linear(np.asarray(spec.rho_db))
    order, residual = fit_diversity_slope(rho, result.estimate)
    return DiversityFit(order=order, residual=residual, result=result)
