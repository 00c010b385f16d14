"""Beacon-detection access schemes over a shared channel.

All probabilities here are conditional on a fixed channel realization.  A
primary beacon is transmitted over d = d1 + d2 channel uses.  In the
cooperative schemes, each secondary node first attempts detection from the
first d1 uses of its own primary link; a node that succeeded can then rebeacon
during the remaining d2 uses, letting a failed peer combine both
observations.  Detection of an aggregate signal-to-noise ratio x fails with
probability Q(sqrt(2 x)), where Q is the Gaussian tail function.

Conventions used throughout:

* ``rho`` is the per-use transmit signal-to-noise ratio of the primary.
* Gains are nonnegative power gains; scalar and array inputs broadcast.
* ``miss`` probabilities refer to a single node missing the beacon;
  ``joint_success`` to both nodes of a secondary pair detecting it.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum, IntEnum
from typing import NamedTuple

import numpy as np

from .channel import MetricTriple, MultiuserChannelSet
from .numerics import gaussian_q

__all__ = [
    "Scheme",
    "RelayIdentity",
    "ProtocolConfig",
    "split_channel_uses",
    "phase1_failure",
    "nc_conditional_miss",
    "nc_joint_success",
    "csa_conditional_miss",
    "csa_joint_success",
    "ocsa_select_relay",
    "ocsa_conditional_miss",
    "ocsa_joint_success",
    "mucsa_conditional_miss",
    "MAX_PAIRS",
]

#: Largest supported number of secondary pairs in the multiuser scheme.
#: Channel mode enumerates all 2**(2M-1) helper subsets, so its time grows
#: with 2**(2M-1) while its memory stays within a few blocks of ``_BLOCK``
#: values; tail mode evaluates the Erlang boxes of all 2M-1 subset sizes in
#: one recurrence, and those lose accuracy at large sizes.
MAX_PAIRS = 6

#: Values per block of helper subsets in channel-mode mucsa: each block
#: holds the largest power-of-two number of subsets whose rows of trials
#: fit, or one subset when a row alone is larger.
_BLOCK = 1 << 15


class Scheme(str, Enum):
    """Access scheme selector."""

    NC = "nc"
    CSA = "csa"
    OCSA = "ocsa"
    MUCSA = "mucsa"


class RelayIdentity(IntEnum):
    """Which node rebeacons during the second transmission phase."""

    PRIMARY = 0
    SECONDARY_TX = 1
    SECONDARY_RX = 2


@dataclass(frozen=True)
class ProtocolConfig:
    """Signal-to-noise ratio and channel-use split shared by all schemes."""

    rho: float
    d1: int = 1
    d2: int = 1

    def __post_init__(self):
        if not self.rho > 0:
            raise ValueError("ProtocolConfig: rho must be positive")
        if int(self.d1) != self.d1 or self.d1 < 1:
            raise ValueError("ProtocolConfig: d1 must be a positive integer")
        if int(self.d2) != self.d2 or self.d2 < 1:
            raise ValueError("ProtocolConfig: d2 must be a positive integer")

    @property
    def d(self) -> int:
        return self.d1 + self.d2


def split_channel_uses(d: int, alpha: float = 0.5) -> tuple[int, int]:
    """Split d total channel uses into (d1, d2) with d1 ~ alpha * d.

    The first-phase share is rounded to the nearest integer and clamped so
    both phases keep at least one use.
    """
    if int(d) != d or d < 2:
        raise ValueError("split_channel_uses: d must be an integer >= 2")
    if not 0.0 <= alpha <= 1.0:
        raise ValueError("split_channel_uses: alpha must lie in [0, 1]")
    d1 = int(round(alpha * d))
    d1 = min(max(d1, 1), d - 1)
    return d1, d - d1


def _gains(name: str, *gains) -> tuple[list[np.ndarray], bool]:
    """The gains as float arrays, checked nonnegative, and whether all of
    them are scalars."""
    arrs = [np.asarray(g, dtype=float) for g in gains]
    if any(np.any(arr < 0) for arr in arrs):
        raise ValueError(f"{name}: gains must be nonnegative")
    return arrs, all(arr.ndim == 0 for arr in arrs)


def _ret(value, scalar: bool):
    return float(value) if scalar else value


def _with_phase1(miss, a, scalar: bool, with_phase1: bool):
    """miss, or (miss, a) when with_phase1; floats for scalar gains."""
    if with_phase1:
        return _ret(miss, scalar), _ret(a, scalar)
    return _ret(miss, scalar)


def _fail(rho: float, uses: int, g: np.ndarray):
    """Detection-failure probability from `uses` channel uses over gain g."""
    return gaussian_q(np.sqrt(2.0 * uses * rho * g))


def phase1_failure(cfg: ProtocolConfig, g):
    """Probability that first-phase detection over gain g fails."""
    (arr,), scalar = _gains("phase1_failure", g)
    return _ret(_fail(cfg.rho, cfg.d1, arr), scalar)


# ---------------------------------------------------------------------------
# Non-cooperative scheme: each node detects on its own over all d uses.
# ---------------------------------------------------------------------------


def nc_conditional_miss(cfg: ProtocolConfig, g):
    """Miss probability of a lone node listening for the full beacon."""
    (arr,), scalar = _gains("nc_conditional_miss", g)
    return _ret(_fail(cfg.rho, cfg.d, arr), scalar)


def nc_joint_success(cfg: ProtocolConfig, g_pt, g_pr):
    """Probability that both nodes of the pair detect independently."""
    (at, ar), scalar = _gains("nc_joint_success", g_pt, g_pr)
    out = (1.0 - _fail(cfg.rho, cfg.d, at)) * (1.0 - _fail(cfg.rho, cfg.d, ar))
    return _ret(np.clip(out, 0.0, 1.0), scalar)


# ---------------------------------------------------------------------------
# Cooperative scheme: a successful node always rebeacons in phase two.
# ---------------------------------------------------------------------------


def csa_conditional_miss(cfg: ProtocolConfig, g_own, g_peer, g_tr, *,
                         with_phase1: bool = False):
    """Miss probability of one node when its peer rebeacons on success.

    The node misses if it fails phase one and then either (a) the peer
    succeeded but the combined primary-plus-relay observation still fails,
    or (b) the peer failed too (no relay, miss certain).  with_phase1 also
    returns the node's own phase-one failure, which bounds the miss:
    (miss, phase1_failure(cfg, g_own)).
    """
    (go, gp, gh), scalar = _gains("csa_conditional_miss", g_own, g_peer,
                                  g_tr)
    rho = cfg.rho
    a = _fail(rho, cfg.d1, go)
    b = _fail(rho, cfg.d1, gp)
    combined = gaussian_q(np.sqrt(2.0 * cfg.d1 * rho * go + 2.0 * cfg.d2 * rho * gh))
    out = np.clip(a * (1.0 - b) * combined + a * b, 0.0, 1.0)
    return _with_phase1(out, a, scalar, with_phase1)


def csa_joint_success(cfg: ProtocolConfig, g_pt, g_pr, g_tr):
    """Probability that both nodes end up detecting under always-on
    rebeaconing: either both succeed in phase one, or exactly one does and
    the other recovers from the combined observation."""
    (gt, gr, gh), scalar = _gains("csa_joint_success", g_pt, g_pr, g_tr)
    rho = cfg.rho
    a = _fail(rho, cfg.d1, gt)
    b = _fail(rho, cfg.d1, gr)
    rec_r = 1.0 - gaussian_q(np.sqrt(2.0 * cfg.d1 * rho * gr + 2.0 * cfg.d2 * rho * gh))
    rec_t = 1.0 - gaussian_q(np.sqrt(2.0 * cfg.d1 * rho * gt + 2.0 * cfg.d2 * rho * gh))
    out = (1.0 - a) * (1.0 - b) + (1.0 - a) * b * rec_r + a * (1.0 - b) * rec_t
    return _ret(np.clip(out, 0.0, 1.0), scalar)


# ---------------------------------------------------------------------------
# Opportunistic scheme: the second phase is granted to the node with the
# best selection metric, with the primary keeping the slot by default.
# ---------------------------------------------------------------------------


class MetricOrder(NamedTuple):
    """The two ocsa relay rules per trial: a secondary beats the primary
    (joint recovery), and it beats both others (miss, ocsa_select_relay)."""

    t_over_p: np.ndarray  # t_t > t_p
    r_over_p: np.ndarray  # t_r > t_p
    t_wins: np.ndarray  # t_t > t_p and t_t > t_r
    r_wins: np.ndarray  # t_r > t_p and t_r > t_t


def metric_order(metrics: MetricTriple) -> MetricOrder:
    t_p, t_t, t_r = (np.asarray(m, dtype=float)
                     for m in (metrics.t_p, metrics.t_t, metrics.t_r))
    t_over_p, r_over_p = t_t > t_p, t_r > t_p
    return MetricOrder(t_over_p, r_over_p, t_over_p & (t_t > t_r),
                       r_over_p & (t_r > t_t))


def gain_order(g_pt, g_pr, g_tr) -> MetricOrder:
    """The one noiseless metric order: the true metrics are t_p = S - g_tr,
    t_t = S - g_pr and t_r = S - g_pt for S the gain sum, so they order as
    the negated gains, and no rounding of S decides a tie."""
    return metric_order(MetricTriple(-g_tr, -g_pr, -g_pt))


def ocsa_select_relay(metrics: MetricTriple | MetricOrder, t_success,
                      r_success) -> np.ndarray:
    """Apply the ordered relay-selection rule per trial.

    A secondary wins if it detected and its metric strictly exceeds both
    others (at most one can); otherwise the primary transmits again.  The
    metrics may be given as their MetricOrder, e.g. gain_order for the true
    ones.  Returns an int8 array of RelayIdentity values.
    """
    order = (metrics if isinstance(metrics, MetricOrder)
             else metric_order(metrics))
    tx_wins = np.asarray(t_success, dtype=bool) & order.t_wins
    rx_wins = np.asarray(r_success, dtype=bool) & order.r_wins
    # the wins are disjoint, and PRIMARY is 0
    return np.asarray(
        tx_wins.astype(np.int8) * np.int8(RelayIdentity.SECONDARY_TX)
        + rx_wins.astype(np.int8) * np.int8(RelayIdentity.SECONDARY_RX))


def _links(cfg: ProtocolConfig, g_own, g_help):
    """A failed node's recovery failure over the helper link, which adds d2
    uses to its own d1, and over its own link alone, heard over all d."""
    helped = np.sqrt(2.0 * cfg.rho * (cfg.d1 * g_own + cfg.d2 * g_help))
    return [gaussian_q(helped), _fail(cfg.rho, cfg.d, g_own)]


def _ocsa_miss(fs, ff, links):
    """A node's miss over each of its links, from the weights of
    own-failed/peer-detected (fs) and both-failed (ff): when both failed,
    the primary repeats the beacon over the node's own link."""
    return [np.clip(fs * fail + ff * links[1], 0.0, 1.0) for fail in links]


def ocsa_conditional_miss(cfg: ProtocolConfig, g_own, g_peer, g_tr, *,
                          with_phase1: bool = False):
    """Miss probability of one node under opportunistic slot assignment.

    If the node fails phase one while its peer succeeds, the peer relays
    only when it wins the selection rule; otherwise the primary itself
    transmits through the whole slot, so the node observes its own primary
    link over all d uses.  When both fail, the primary always transmits.
    The metrics are the true ones (gain_order), so the peer wins exactly
    when ``g_own < min(g_peer, g_tr)``.  with_phase1 returns (miss, the
    node's own phase-one failure), as in csa_conditional_miss.
    """
    (go, gp, gh), scalar = _gains("ocsa_conditional_miss", g_own, g_peer,
                                  g_tr)
    a, b = _fail(cfg.rho, cfg.d1, go), _fail(cfg.rho, cfg.d1, gp)
    miss = _ocsa_miss(a * (1.0 - b), a * b, _links(cfg, go, gh))
    return _with_phase1(np.where(gain_order(go, gp, gh).r_wins, *miss), a,
                        scalar, with_phase1)


def ocsa_joint_success(cfg: ProtocolConfig, g_pt, g_pr, g_tr):
    """Probability that both nodes detect under opportunistic assignment.

    When exactly one node succeeded, the failed node's recovery rides on
    the stronger of its direct primary link and the secondary helper link,
    because the successful secondary claims the slot exactly when its true
    metric beats the primary's (gain_order).  When both failed, each node
    independently retries on the full-length primary transmission.
    """
    (gt, gr, gh), scalar = _gains("ocsa_joint_success", g_pt, g_pr, g_tr)
    factors = OcsaFactors(cfg, gt, gr, gh, _fail(cfg.rho, cfg.d1, gt),
                          _fail(cfg.rho, cfg.d1, gr))
    return _ret(factors.joint(gain_order(gt, gr, gh)), scalar)


class OcsaFactors:
    """The one ocsa model: its detection failures for gains at one rho,
    given the first-phase failures a and b (phase1_failure of g_pt, g_pr).

    A metric order only picks, per trial, the link each failed side
    recovers over: the helper link or its own.  So the tx-side miss and
    each joint term are kept for both links, and ``miss`` and ``joint``
    pick per trial; the two miss arrays are built on the first ``miss``.
    Over its own link a side hears all d uses, so that recovery is the
    full-length failure the both-failed retry needs too: 2 + 4 Gaussian
    tails in all.  Written as Q(sqrt(2 rho (d1 g + d2 g))) it rounds alike
    when d1 = d2 is a power of two and may differ in the last bit otherwise.
    The standalone kernels pass gain_order, the true metrics' order; noisy
    metrics reach the model only as the metric_order of a capacity cell.
    """

    def __init__(self, cfg: ProtocolConfig, g_pt, g_pr, g_tr, a, b):
        # each factor is dropped after its last use: this runs on whole
        # chunks, once per rho
        rx = _links(cfg, g_pr, g_tr)
        ss, sf = (1.0 - a) * (1.0 - b), (1.0 - a) * b
        self.head = [ss + sf * (1.0 - fail) for fail in rx]
        heard_r = 1.0 - rx[1]
        del ss, sf, rx
        self._fs, self._ff = a * (1.0 - b), a * b
        self._fail = _links(cfg, g_pt, g_tr)
        self.retry = self._ff * ((1.0 - self._fail[1]) * heard_r)
        self.tx = [self._fs * (1.0 - fail) for fail in self._fail]
        self._miss = None

    def miss(self, order: MetricOrder):
        """The tx-side miss: a failed tx recovers over rx when rx wins."""
        if self._miss is None:
            self._miss = _ocsa_miss(self._fs, self._ff, self._fail)
            del self._fs, self._ff, self._fail
        return np.where(order.r_wins, *self._miss)

    def joint(self, order: MetricOrder):
        """Joint success: a detecting peer relays if it beats the primary."""
        joint = np.where(order.t_over_p, *self.head)
        joint += np.where(order.r_over_p, *self.tx)
        joint += self.retry
        return np.clip(joint, 0, 1, out=joint)

    def cells(self, order: MetricOrder):
        """(tx-side miss, joint success) under the given metric order."""
        return self.miss(order), self.joint(order)


# ---------------------------------------------------------------------------
# Multiuser extension: M secondary pairs, every successful user rebeacons in
# phase two at power rho / (2M).
# ---------------------------------------------------------------------------


def check_user_count(nu: int) -> int:
    """nu, checked to be 2M users with 1 <= M <= MAX_PAIRS."""
    if nu < 2 or nu % 2:
        raise ValueError("multiuser: need an even number of users (2M)")
    if nu // 2 > MAX_PAIRS:
        raise ValueError(
            f"multiuser: at most {MAX_PAIRS} pairs supported (channel mode "
            "enumerates helper subsets; tail mode evaluates all 2M-1 sizes in "
            "one Erlang recurrence, whose boxes lose accuracy at large sizes)"
        )
    return nu


def mucsa_conditional_miss(cfg: ProtocolConfig, mch: MultiuserChannelSet,
                           user: int, *, with_phase1: bool = False):
    """Miss probability of one user with all successful users rebeaconing.

    Conditions on which subset of the other users succeeded in phase one:
    each such subset relays simultaneously, contributing the sum of its
    inter-user gains at power rho/(2M) per helper, and the user combines
    that with its own first-phase observation.  If everyone failed, the
    miss is the plain first-phase outcome left unrecovered, i.e. the
    product of all users' failure probabilities counts as a full miss.

    The 2**(2M-1) - 1 helper subsets are bit masks over the other users,
    evaluated in blocks of consecutive masks (see ``_BLOCK``), so every
    numpy call covers a whole block.  Each subset's
    probability is multiplied and its gains added in ascending bit
    position, and the subsets' terms are added in mask order, so the
    result does not depend on the block size.  with_phase1 returns (miss,
    the user's own phase-one failure), as in csa_conditional_miss.
    """
    nu = check_user_count(mch.n_users)
    m_pairs = nu // 2
    user = int(user)
    if not 0 <= user < nu:
        raise ValueError("mucsa_conditional_miss: user index out of range")
    g_p = np.asarray(mch.g_p, dtype=float)
    g_uu = np.asarray(mch.g_uu, dtype=float)
    if np.any(g_p < 0) or np.any(g_uu < 0):
        raise ValueError("mucsa_conditional_miss: gains must be nonnegative")
    rho = cfg.rho
    # (nu, n) in rows, since each row is broadcast over whole blocks
    fail = np.ascontiguousarray(_fail(rho, cfg.d1, g_p))
    succ = 1.0 - fail
    others = [j for j in range(nu) if j != user]
    k = len(others)
    helper_gain = g_uu[:, user]  # (nu, n)
    relay_rho = rho / (2.0 * m_pairs)
    n = g_p.shape[1]
    own = 2.0 * cfg.d1 * rho * g_p[user]
    relay_scale = 2.0 * cfg.d2 * relay_rho
    # a block's rows are the masks of its `low` lowest bits, so each row's
    # subset probability and helper sum over those bits are built once, by
    # doubling the table at each bit
    low = min(k, max(_BLOCK // max(n, 1), 1).bit_length() - 1)
    prob_low = np.empty((1 << low, n))
    prob_low[0] = fail[user]
    helper_low = np.zeros((1 << low, n))
    for pos, j in enumerate(others[:low]):
        half = 1 << pos
        np.multiply(prob_low[:half], succ[j], out=prob_low[half:2 * half])
        prob_low[:half] *= fail[j]
        np.add(helper_low[:half], helper_gain[j], out=helper_low[half:2 * half])
    prob = np.empty_like(prob_low)
    helper = np.empty_like(helper_low)
    total = np.zeros(n)
    for high in range(1 << (k - low)):
        np.copyto(prob, prob_low)
        np.copyto(helper, helper_low)
        for pos, j in enumerate(others[low:]):
            if high >> pos & 1:
                prob *= succ[j]
                helper += helper_gain[j]
            else:
                prob *= fail[j]
        helper *= relay_scale
        helper += own
        prob *= gaussian_q(np.sqrt(helper, out=helper))
        # mask 0, nobody relaying, is the full miss added below
        for term in prob[1 if high == 0 else 0:]:
            total += term
    total += np.prod(fail, axis=0)
    return _with_phase1(np.clip(total, 0.0, 1.0), fail[user], False,
                        with_phase1)
