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


def _as_float_array(g, name: str) -> tuple[np.ndarray, bool]:
    arr = np.asarray(g, dtype=float)
    if np.any(arr < 0):
        raise ValueError(f"{name}: gains must be nonnegative")
    return arr, arr.ndim == 0


def _ret(value, scalar: bool):
    return float(value) if scalar else value


def _fail(rho: float, uses: int, g: np.ndarray):
    """Detection-failure probability from `uses` channel uses over gain g."""
    return gaussian_q(np.sqrt(2.0 * uses * rho * g))


def phase1_failure(cfg: ProtocolConfig, g):
    """Probability that first-phase detection over gain g fails."""
    arr, scalar = _as_float_array(g, "phase1_failure")
    return _ret(_fail(cfg.rho, cfg.d1, arr), scalar)


# ---------------------------------------------------------------------------
# Non-cooperative scheme: each node detects on its own over all d uses.
# ---------------------------------------------------------------------------


def nc_conditional_miss(cfg: ProtocolConfig, g):
    """Miss probability of a lone node listening for the full beacon."""
    arr, scalar = _as_float_array(g, "nc_conditional_miss")
    return _ret(_fail(cfg.rho, cfg.d, arr), scalar)


def nc_joint_success(cfg: ProtocolConfig, g_pt, g_pr):
    """Probability that both nodes of the pair detect independently."""
    at, st = _as_float_array(g_pt, "nc_joint_success")
    ar, sr = _as_float_array(g_pr, "nc_joint_success")
    out = (1.0 - _fail(cfg.rho, cfg.d, at)) * (1.0 - _fail(cfg.rho, cfg.d, ar))
    return _ret(np.clip(out, 0.0, 1.0), st and sr)


# ---------------------------------------------------------------------------
# Cooperative scheme: a successful node always rebeacons in phase two.
# ---------------------------------------------------------------------------


def csa_conditional_miss(cfg: ProtocolConfig, g_own, g_peer, g_tr):
    """Miss probability of one node when its peer rebeacons on success.

    The node misses if it fails phase one and then either (a) the peer
    succeeded but the combined primary-plus-relay observation still fails,
    or (b) the peer failed too (no relay, miss certain).
    """
    go, s1 = _as_float_array(g_own, "csa_conditional_miss")
    gp, s2 = _as_float_array(g_peer, "csa_conditional_miss")
    gh, s3 = _as_float_array(g_tr, "csa_conditional_miss")
    rho = cfg.rho
    a = _fail(rho, cfg.d1, go)
    b = _fail(rho, cfg.d1, gp)
    combined = gaussian_q(np.sqrt(2.0 * cfg.d1 * rho * go + 2.0 * cfg.d2 * rho * gh))
    out = np.clip(a * (1.0 - b) * combined + a * b, 0.0, 1.0)
    return _ret(out, s1 and s2 and s3)


def csa_joint_success(cfg: ProtocolConfig, g_pt, g_pr, g_tr):
    """Probability that both nodes end up detecting under always-on
    rebeaconing: either both succeed in phase one, or exactly one does and
    the other recovers from the combined observation."""
    gt, s1 = _as_float_array(g_pt, "csa_joint_success")
    gr, s2 = _as_float_array(g_pr, "csa_joint_success")
    gh, s3 = _as_float_array(g_tr, "csa_joint_success")
    rho = cfg.rho
    a = _fail(rho, cfg.d1, gt)
    b = _fail(rho, cfg.d1, gr)
    rec_r = 1.0 - gaussian_q(np.sqrt(2.0 * cfg.d1 * rho * gr + 2.0 * cfg.d2 * rho * gh))
    rec_t = 1.0 - gaussian_q(np.sqrt(2.0 * cfg.d1 * rho * gt + 2.0 * cfg.d2 * rho * gh))
    out = (1.0 - a) * (1.0 - b) + (1.0 - a) * b * rec_r + a * (1.0 - b) * rec_t
    return _ret(np.clip(out, 0.0, 1.0), s1 and s2 and s3)


# ---------------------------------------------------------------------------
# Opportunistic scheme: the second phase is granted to the node with the
# best selection metric, with the primary keeping the slot by default.
# ---------------------------------------------------------------------------


class MetricOrder(NamedTuple):
    """The metric comparisons the ocsa rules read, one bool per trial."""

    t_over_p: np.ndarray  # t_t > t_p
    t_over_r: np.ndarray  # t_t > t_r
    r_over_p: np.ndarray  # t_r > t_p
    r_over_t: np.ndarray  # t_r > t_t


def metric_order(metrics: MetricTriple) -> MetricOrder:
    t_p = np.asarray(metrics.t_p, dtype=float)
    t_t = np.asarray(metrics.t_t, dtype=float)
    t_r = np.asarray(metrics.t_r, dtype=float)
    return MetricOrder(t_t > t_p, t_t > t_r, t_r > t_p, t_r > t_t)


def select_relay(order: MetricOrder, t_success, r_success) -> np.ndarray:
    """ocsa_select_relay on the metric comparisons instead of the metrics."""
    t_ok = np.asarray(t_success, dtype=bool)
    r_ok = np.asarray(r_success, dtype=bool)
    tx_wins = t_ok & order.t_over_p & order.t_over_r
    rx_wins = ~tx_wins & r_ok & order.r_over_p & order.r_over_t
    # the wins are disjoint, and PRIMARY is 0
    return np.asarray(
        tx_wins.astype(np.int8) * np.int8(RelayIdentity.SECONDARY_TX)
        + rx_wins.astype(np.int8) * np.int8(RelayIdentity.SECONDARY_RX))


def ocsa_select_relay(metrics: MetricTriple, t_success, r_success) -> np.ndarray:
    """Apply the ordered relay-selection rule per trial.

    The transmitter-side secondary wins if it detected and its metric
    strictly exceeds both others; failing that, the receiver-side secondary
    wins under the same condition; otherwise the primary transmits again.
    Returns an int8 array of RelayIdentity values.
    """
    return select_relay(metric_order(metrics), t_success, r_success)


def _recover_fail(cfg: ProtocolConfig, g_own, g_help):
    """Failure of the combined observation: d1 uses of the node's own
    primary link plus d2 uses of the link its helper rebeacons over."""
    return gaussian_q(np.sqrt(2.0 * cfg.rho * (cfg.d1 * g_own + cfg.d2 * g_help)))


def _status(a, b):
    """First-phase status weights (ss, sf, fs, ff) from the tx (a) and rx
    (b) failures: s means detected, f failed, tx first."""
    return (1.0 - a) * (1.0 - b), (1.0 - a) * b, a * (1.0 - b), a * b


def _ocsa_miss(fs, ff, recover_fail, full_fail):
    """Own-side ocsa miss from the weights of own-failed/peer-detected (fs)
    and both-failed (ff), the failed recovery and the failed full-length
    retry."""
    return np.clip(fs * recover_fail + ff * full_fail, 0.0, 1.0)


def _joint_head(ss, sf, recover_fail_r):
    """First term of the ocsa joint success: both detected, or rx failed
    and recovers."""
    return ss + sf * (1.0 - recover_fail_r)


def _joint_tx(fs, recover_fail_t):
    """Second term of the ocsa joint success: tx failed and recovers."""
    return fs * (1.0 - recover_fail_t)


def _joint_retry(ff, full_fail_t, full_fail_r):
    """Third term of the ocsa joint success: both failed, and both detect
    the full-length retry."""
    return ff * ((1.0 - full_fail_t) * (1.0 - full_fail_r))


def _ocsa_joint(head, tx, retry):
    """ocsa joint success from its three terms, summed in this order."""
    out = head + tx
    out += retry
    return np.clip(out, 0.0, 1.0)


def ocsa_conditional_miss(cfg: ProtocolConfig, g_own, g_peer, g_tr,
                          metrics=None):
    """Miss probability of one node under opportunistic slot assignment.

    If the node fails phase one while its peer succeeds, the peer relays
    only when it wins the selection rule; otherwise the primary itself
    transmits through the whole slot, so the node observes its own primary
    link over all d uses.  When both fail, the primary always transmits.

    ``metrics`` optionally supplies the selection metrics as a tuple
    ``(m_primary, m_own, m_peer)`` of per-trial values (possibly noisy
    estimates); by default they are derived from the true gains, in which
    case the peer wins exactly when ``g_own < min(g_peer, g_tr)``.
    """
    go, s1 = _as_float_array(g_own, "ocsa_conditional_miss")
    gp, s2 = _as_float_array(g_peer, "ocsa_conditional_miss")
    gh, s3 = _as_float_array(g_tr, "ocsa_conditional_miss")
    if metrics is None:
        peer_relays = (go < gp) & (go < gh)
    else:
        m_p, m_own, m_peer = (np.asarray(m, dtype=float) for m in metrics)
        peer_relays = (m_peer > m_p) & (m_peer > m_own)
    a = _fail(cfg.rho, cfg.d1, go)
    b = _fail(cfg.rho, cfg.d1, gp)
    out = _ocsa_miss(a * (1.0 - b), a * b,
                     _recover_fail(cfg, go, np.where(peer_relays, gh, go)),
                     _fail(cfg.rho, cfg.d, go))
    return _ret(out, s1 and s2 and s3)


def ocsa_joint_success(cfg: ProtocolConfig, g_pt, g_pr, g_tr, metrics=None):
    """Probability that both nodes detect under opportunistic assignment.

    When exactly one node succeeded, the failed node's recovery rides on
    the stronger of its direct primary link and the secondary helper link,
    because the successful secondary claims the slot exactly when its
    metric beats the primary's.  When both failed, each node independently
    retries on the full-length primary transmission.

    ``metrics`` optionally supplies a MetricTriple of (possibly noisy)
    selection metrics; the winner of each pairwise comparison is then taken
    from those estimates while the true gains still drive detection.
    """
    gt, s1 = _as_float_array(g_pt, "ocsa_joint_success")
    gr, s2 = _as_float_array(g_pr, "ocsa_joint_success")
    gh, s3 = _as_float_array(g_tr, "ocsa_joint_success")
    if metrics is None:
        helper_sf = np.maximum(gr, gh)
        helper_fs = np.maximum(gt, gh)
    else:
        order = metric_order(metrics)
        helper_sf = np.where(order.t_over_p, gh, gr)
        helper_fs = np.where(order.r_over_p, gh, gt)
    ss, sf, fs, ff = _status(_fail(cfg.rho, cfg.d1, gt),
                             _fail(cfg.rho, cfg.d1, gr))
    out = _ocsa_joint(
        _joint_head(ss, sf, _recover_fail(cfg, gr, helper_sf)),
        _joint_tx(fs, _recover_fail(cfg, gt, helper_fs)),
        _joint_retry(ff, _fail(cfg.rho, cfg.d, gt), _fail(cfg.rho, cfg.d, gr)))
    return _ret(out, s1 and s2 and s3)


class OcsaFactors:
    """The ocsa capacity cells' detection failures for one chunk of drawn
    gains at one rho, given the first-phase failures a and b
    (phase1_failure of g_pt and g_pr).

    A metric order only picks, per trial, the link each side recovers over:
    the helper link or its own.  So the miss and each joint term are kept
    for both links, and ``cells`` picks per trial; Q and the formulas work
    element by element, so the picks equal ocsa_conditional_miss (tx side)
    and ocsa_joint_success bit for bit.
    """

    def __init__(self, cfg: ProtocolConfig, g_pt, g_pr, g_tr, a, b):
        # each factor is dropped after its last use: this runs on whole
        # chunks, once per rho
        ss, sf, fs, ff = _status(a, b)
        full_t = _fail(cfg.rho, cfg.d, g_pt)
        self.retry = _joint_retry(ff, full_t, _fail(cfg.rho, cfg.d, g_pr))
        # tx recovers over the helper link or over its own link
        self.miss, self.tx = [], []
        for g_help in (g_tr, g_pt):
            rec = _recover_fail(cfg, g_pt, g_help)
            self.miss.append(_ocsa_miss(fs, ff, rec, full_t))
            self.tx.append(_joint_tx(fs, rec))
        del fs, ff, full_t, rec
        self.head = [_joint_head(ss, sf, _recover_fail(cfg, g_pr, g_help))
                     for g_help in (g_tr, g_pr)]

    def cells(self, order: MetricOrder):
        """(tx-side miss, joint success) under the given metric order."""
        miss_t = np.where(order.r_over_p & order.r_over_t, *self.miss)
        joint = _ocsa_joint(np.where(order.t_over_p, *self.head),
                            np.where(order.r_over_p, *self.tx), self.retry)
        return miss_t, joint


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
                           user: int) -> np.ndarray:
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
    result does not depend on the block size.
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
    return np.clip(total, 0.0, 1.0)
