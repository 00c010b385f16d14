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

import numpy as np

from .channel import (
    MeanGains,
    MultiuserMeans,
    draw_multiuser_chunk,
    draw_pair_chunk,
)
# exp_sum_box_prob is unused but stays bound: perfbench hooks it here
from .fadeprob import (arena_row, exp_erlang_box_prob,  # noqa: F401
                       exp_q_mean, exp_sum_box_prob, ocsa_fade_regions)
# parallel_chunk_stats is unused but stays bound: perfbench hooks it here
from .mc import (TAG_THRESHOLDS, Controlled,  # noqa: F401
                 parallel_chunk_stats, parallel_grid_stats, substream)
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
    """Estimates with standard errors along a signal-to-noise grid.

    estimator is "mean" for a plain average of per-trial values and
    "ratio" for the channel-mode miss of csa, ocsa and mucsa, a ratio
    control variate on the node's own phase-one failure (see
    estimate_miss_curve)."""

    scheme: Scheme
    mode: str
    rho_db: np.ndarray
    estimate: np.ndarray
    std_error: np.ndarray
    n_trials: int
    estimator: str = "mean"


@dataclass(frozen=True)
class DiversityFit:
    """Fitted decay order of a miss curve, with the underlying sweep."""

    order: float
    residual: float
    result: SweepResult


def _frame(side: str, pt, pr, tr):
    """(own primary, peer primary, helper) for one side of the pair: of the
    mean gains, or of a chunk's drawn gains."""
    if side == "t":
        return pt, pr, tr
    if side == "r":
        return pr, pt, tr
    raise ValueError("side must be 't' or 'r'")


# ---------------------------------------------------------------------------
# Per-chunk draws and per-rho evaluators, returned as (draw, evaluator,
# estimator name): the draw and the points evaluator(rho) that
# mc.parallel_grid_stats runs.  Tail mode writes a point's values into rows
# of the thread's scratch arena (see fadeprob.arena_row), so each is only
# valid until that thread's next use.
# ---------------------------------------------------------------------------


def _tail_values(spec: SweepSpec, k: int, values_at):
    """Per-chunk draw of k values z^2 per trial, one contiguous row each,
    and an evaluator whose point at rho writes the thresholds x = z^2 /
    (2 rho) into the arena's "tail.x" row and returns values_at(rho)(x,
    arena).  Far below 0 dB the thresholds overflow to inf, the limit:
    overflow is quiet over the whole point."""

    def draw(idx, _start, size):
        z = substream(spec.seed, TAG_THRESHOLDS, idx).standard_normal((size, k))
        z *= z
        return z.T.copy()

    def evaluator(rho):
        values = values_at(rho)

        @np.errstate(over="ignore")
        def point(zz, arena):
            return values(np.divide(zz, 2.0 * rho, out=arena_row(
                arena, "tail.x", zz.shape)), arena)

        return point

    return draw, evaluator, "mean"


def _channel_values(spec: SweepSpec, kernel, lam_own: float | None = None):
    """Per-chunk draw of the gains of the scheme's model, an evaluator that
    applies kernel(cfg, ch) at each rho, and the estimator's name.  With
    lam_own, kernel returns (values, the node's own phase-one failure),
    and the evaluator yields them as a Controlled cell whose control has
    the exact mean exp_q_mean(d1 rho, lam_own): a "ratio" estimator;
    without, a plain "mean"."""
    chunk_draw = (draw_multiuser_chunk if spec.scheme is Scheme.MUCSA
                  else draw_pair_chunk)

    def evaluator(rho):
        cfg = spec.config(rho)
        if lam_own is None:
            return lambda ch, _arena: (kernel(cfg, ch),)
        mu = exp_q_mean(spec.d1 * rho, lam_own)
        return lambda ch, _arena: (Controlled(*kernel(cfg, ch), mu),)

    return ((lambda idx, _start, size:
             chunk_draw(spec.means, spec.seed, idx, size)), evaluator,
            "mean" if lam_own is None else "ratio")


def _helper_count_tail(spec: SweepSpec, primary, user: int, b_mean: float):
    """Tail-mode miss of one user whose peers that detect in phase one each
    add a relay term of mean b_mean; primary holds every user's primary-link
    mean.  csa is the one-peer case.  The helper sum is an Erlang variate, so
    the box depends on the helper subset only through its size."""
    d1 = spec.d1
    a_mean = d1 * float(primary[user])

    def values_at(rho):
        q_bar = np.array([exp_q_mean(d1 * rho, lam) for lam in primary])
        # weights[k]: probability that exactly k of the other users succeed
        # in phase one (failed own detection is part of the dualized box
        # term).  The Poisson-binomial recursion adds only nonnegative
        # terms, so it never divides by a q_bar that is 0.
        weights = np.zeros(len(q_bar))
        weights[0] = 1.0
        for q in np.delete(q_bar, user):
            weights[1:] = weights[1:] * q + weights[:-1] * (1.0 - q)
            weights[0] *= q
        all_fail = float(np.prod(q_bar))

        def values(x, arena):
            x_own, x_rec = x
            total = arena_row(arena, "tail.values", x_own.shape)
            total.fill(all_fail)
            # one call gives the box for every helper count; each row is
            # scaled in place
            boxes = exp_erlang_box_prob(x_rec, x_own, a_mean, b_mean,
                                        len(q_bar) - 1, arena=arena)
            for kk, box in enumerate(boxes, start=1):
                box *= 0.25 * weights[kk]
                total += box
            return (total,)

        return values

    return _tail_values(spec, 2, values_at)


def _miss_values(spec: SweepSpec, side: str, user: int):
    """(draw, evaluator, estimator name) of one node's miss in spec.mode;
    the node is side's for the pair schemes and user's for mucsa."""
    d1, d2 = spec.d1, spec.d2
    means = spec.means
    tail = spec.mode == "tail"
    if spec.scheme is Scheme.MUCSA:
        nu = check_user_count(means.n_users)
        if not 0 <= user < nu:
            raise ValueError("user index out of range")
        if not tail:
            return _channel_values(
                spec, lambda cfg, ch: mucsa_conditional_miss(
                    cfg, ch, user, with_phase1=True),
                float(means.primary[user]))
        inter_vals = np.unique(means.inter[~np.eye(nu, dtype=bool)])
        if inter_vals.size != 1:
            raise ValueError(
                "tail mode requires identical inter-user mean gains "
                "(helper sums are integrated as a gamma variate)"
            )
        # each helper relays at rho / (2M), so one helper term has mean
        # (d2 / 2M) lam_uu
        return _helper_count_tail(spec, means.primary, user,
                                  (d2 / nu) * float(inter_vals[0]))

    lam_own, lam_peer, lam_tr = lams = _frame(side, means.pt, means.pr,
                                              means.tr)
    if not tail:
        if spec.scheme is Scheme.NC:
            # no phase one: the plain mean
            return _channel_values(spec, lambda cfg, ch: nc_conditional_miss(
                cfg, _frame(side, ch.g_pt, ch.g_pr, ch.g_tr)[0]))
        miss = (csa_conditional_miss if spec.scheme is Scheme.CSA
                else ocsa_conditional_miss)
        return _channel_values(spec, lambda cfg, ch: miss(
            cfg, *_frame(side, ch.g_pt, ch.g_pr, ch.g_tr), with_phase1=True),
            lam_own)
    if spec.scheme is Scheme.CSA:
        return _helper_count_tail(spec, (lam_own, lam_peer), 0, d2 * lam_tr)
    if spec.scheme is Scheme.NC:

        def nc_values(x, _arena):
            # 0.5 * -expm1(-x / (d lam_own)), in place
            x = np.negative(x[0], out=x[0])
            np.divide(x, (d1 + d2) * lam_own, out=x)
            np.negative(np.expm1(x, out=x), out=x)
            return (np.multiply(0.5, x, out=x),)

        return _tail_values(spec, 1, lambda _rho: nc_values)
    return _tail_values(spec, 3, lambda _rho: lambda x, arena: (
        ocsa_fade_regions(*x, d1, d2, lams, arena=arena),))


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


def _run_sweep(spec: SweepSpec, draw, evaluator,
               estimator: str = "mean") -> SweepResult:
    """Chunks outside, grid points inside: each chunk is drawn once and
    evaluated at every rho, and each point is reduced in chunk order."""
    mean, se = parallel_grid_stats(
        draw, [evaluator(db_to_linear(rho_db)) for rho_db in spec.rho_db],
        spec.n_trials, spec.chunk, spec.threads)
    return SweepResult(scheme=spec.scheme, mode=spec.mode,
                       rho_db=np.asarray(spec.rho_db, dtype=float),
                       estimate=mean, std_error=se, n_trials=spec.n_trials,
                       estimator=estimator)


def estimate_miss_curve(spec: SweepSpec, side: str = "t",
                        user: int = 0) -> SweepResult:
    """Estimate the averaged miss probability along the rho grid.

    ``side`` picks the node for the pair schemes ('t' or 'r'); ``user``
    picks the node for the multiuser scheme.

    In channel mode, csa, ocsa and mucsa use a ratio control variate.  A
    node misses only if it fails phase one, so each trial's miss m is at
    most that failure c = Q(sqrt(2 d1 rho g_own)), whose mean mu =
    exp_q_mean(d1 rho, lam_own) is exact.  The estimate is mu * mean(m) /
    mean(c), in [0, 1] and biased by O(1/n_trials), with a delta-method
    standard error (mc.parallel_grid_stats); SweepResult.estimator reads
    "ratio".  nc, which has no phase one, and tail mode average plainly.
    """
    return _run_sweep(spec, *_miss_values(spec, side, user))


def estimate_joint_success_curve(spec: SweepSpec) -> SweepResult:
    """Estimate the probability that both nodes of a pair detect.

    Channel-realization averaging of the pair schemes only.  Joint success
    tends to one, and plain sampling cannot resolve a joint failure below
    about 1/n_trials: deep in the tail the estimate rounds to 1.
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
