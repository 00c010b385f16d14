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
#: Channel mode enumerates all 2**(2M-1) helper subsets; tail mode evaluates
#: the Erlang boxes of all 2M-1 subset sizes in one recurrence, and those
#: lose accuracy at large sizes.
MAX_PAIRS = 6


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


def ocsa_select_relay(metrics: MetricTriple, t_success, r_success) -> np.ndarray:
    """Apply the ordered relay-selection rule per trial.

    The transmitter-side secondary wins if it detected and its metric
    strictly exceeds both others; failing that, the receiver-side secondary
    wins under the same condition; otherwise the primary transmits again.
    Returns an int8 array of RelayIdentity values.
    """
    t_p = np.asarray(metrics.t_p, dtype=float)
    t_t = np.asarray(metrics.t_t, dtype=float)
    t_r = np.asarray(metrics.t_r, dtype=float)
    t_ok = np.asarray(t_success, dtype=bool)
    r_ok = np.asarray(r_success, dtype=bool)
    tx_wins = t_ok & (t_t > t_p) & (t_t > t_r)
    rx_wins = ~tx_wins & r_ok & (t_r > t_p) & (t_r > t_t)
    out = np.zeros(np.broadcast(t_p, t_ok, r_ok).shape, dtype=np.int8)
    out[tx_wins] = int(RelayIdentity.SECONDARY_TX)
    out[rx_wins] = int(RelayIdentity.SECONDARY_RX)
    return out


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
    rho = cfg.rho
    a = _fail(rho, cfg.d1, go)
    b = _fail(rho, cfg.d1, gp)
    if metrics is None:
        peer_relays = (go < gp) & (go < gh)
    else:
        m_p, m_own, m_peer = (np.asarray(m, dtype=float) for m in metrics)
        peer_relays = (m_peer > m_p) & (m_peer > m_own)
    helper = np.where(peer_relays, gh, go)
    recover_fail = gaussian_q(
        np.sqrt(2.0 * rho * (cfg.d1 * go + cfg.d2 * helper))
    )
    full_fail = _fail(rho, cfg.d, go)
    out = np.clip(a * (1.0 - b) * recover_fail + a * b * full_fail, 0.0, 1.0)
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
    rho = cfg.rho
    a = _fail(rho, cfg.d1, gt)
    b = _fail(rho, cfg.d1, gr)
    if metrics is None:
        helper_sf = np.maximum(gr, gh)
        helper_fs = np.maximum(gt, gh)
    else:
        t_p = np.asarray(metrics.t_p, dtype=float)
        t_t = np.asarray(metrics.t_t, dtype=float)
        t_r = np.asarray(metrics.t_r, dtype=float)
        helper_sf = np.where(t_t > t_p, gh, gr)
        helper_fs = np.where(t_r > t_p, gh, gt)
    rec_r = 1.0 - gaussian_q(
        np.sqrt(2.0 * rho * (cfg.d1 * gr + cfg.d2 * helper_sf))
    )
    rec_t = 1.0 - gaussian_q(
        np.sqrt(2.0 * rho * (cfg.d1 * gt + cfg.d2 * helper_fs))
    )
    both_retry = (1.0 - _fail(rho, cfg.d, gt)) * (1.0 - _fail(rho, cfg.d, gr))
    out = (
        (1.0 - a) * (1.0 - b)
        + (1.0 - a) * b * rec_r
        + a * (1.0 - b) * rec_t
        + a * b * both_retry
    )
    return _ret(np.clip(out, 0.0, 1.0), s1 and s2 and s3)


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
    fail = _fail(rho, cfg.d1, g_p)  # (nu, n)
    succ = 1.0 - fail
    others = [j for j in range(nu) if j != user]
    k = len(others)
    helper_gain = g_uu[:, user]  # (nu, n)
    relay_rho = rho / (2.0 * m_pairs)
    n = g_p.shape[1]
    total = np.zeros(n)
    for mask in range(1, 1 << k):
        prob = fail[user].copy()
        helper = np.zeros(n)
        for pos, j in enumerate(others):
            if mask >> pos & 1:
                prob *= succ[j]
                helper += helper_gain[j]
            else:
                prob *= fail[j]
        miss = gaussian_q(
            np.sqrt(2.0 * cfg.d1 * rho * g_p[user] + 2.0 * cfg.d2 * relay_rho * helper)
        )
        total += prob * miss
    total += np.prod(fail, axis=0)
    return np.clip(total, 0.0, 1.0)
