"""Channel model: Rayleigh-faded links with distance-based mean gains.

A link with scale S, distance r and path-loss exponent zeta has mean power
gain lam = S * r**(-zeta); the instantaneous power gain of a Rayleigh link
is then exponentially distributed with that mean, and gains are sampled
directly as exponential variates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .mc import TAG_GAINS, chunk_ranges, substream

__all__ = [
    "MeanGains",
    "ChannelSet",
    "MetricTriple",
    "MultiuserMeans",
    "MultiuserChannelSet",
    "sample_channels",
    "compute_metrics",
    "perturb_metrics",
    "sample_multiuser",
]


@dataclass(frozen=True)
class MeanGains:
    """Mean power gains of the three links: primary-to-tx, primary-to-rx,
    and the secondary tx-to-rx link."""

    pt: float
    pr: float
    tr: float

    def __post_init__(self):
        for v in (self.pt, self.pr, self.tr):
            if not v > 0:
                raise ValueError("MeanGains: mean gains must be positive")


@dataclass(frozen=True)
class ChannelSet:
    """Sampled power gains for the three links, aligned per trial."""

    g_pt: np.ndarray
    g_pr: np.ndarray
    g_tr: np.ndarray


@dataclass(frozen=True)
class MetricTriple:
    """Relay-selection metrics: each node's metric is the sum of the two
    link gains it terminates (t_p = g_pt + g_pr and so on)."""

    t_p: np.ndarray
    t_t: np.ndarray
    t_r: np.ndarray


def draw_pair_chunk(means: MeanGains, seed: int, idx: int,
                    size: int) -> ChannelSet:
    """Draw chunk idx (size trials) of the three pair links.

    The substream is keyed by (seed, gains tag, chunk index), so a chunk's
    gains do not depend on which other chunks are drawn or in what order.
    """
    rng = substream(seed, TAG_GAINS, idx)
    g = rng.exponential([means.pt, means.pr, means.tr], (size, 3))
    return ChannelSet(g[:, 0], g[:, 1], g[:, 2])


def sample_channels(means: MeanGains, n: int, seed: int,
                    chunk: int | None = None) -> ChannelSet:
    """Draw n independent channel realizations, chunk by chunk."""
    parts = [draw_pair_chunk(means, seed, idx, size)
             for idx, _start, size in chunk_ranges(n, chunk)]
    return ChannelSet(*(np.concatenate([getattr(p, f) for p in parts])
                        for f in ("g_pt", "g_pr", "g_tr")))


def compute_metrics(ch: ChannelSet) -> MetricTriple:
    return MetricTriple(ch.g_pt + ch.g_pr, ch.g_pt + ch.g_tr, ch.g_pr + ch.g_tr)


def add_metric_noise(metrics: MetricTriple, sd: float, z) -> MetricTriple:
    """metrics plus sd times the standard normal rows z, in (t_p, t_t, t_r)
    order."""
    return MetricTriple(metrics.t_p + sd * z[0], metrics.t_t + sd * z[1],
                        metrics.t_r + sd * z[2])


def perturb_metrics(metrics: MetricTriple, sigma2: float,
                    rng: np.random.Generator) -> MetricTriple:
    """Add independent N(0, sigma2) estimation noise to each metric.

    With sigma2 = 0 the input arrays are returned untouched and no draws are
    consumed, so noiseless runs reproduce noisy-pipeline results bit for bit.
    The noise is sqrt(sigma2) times one standard normal draw of shape (3, n),
    so any sigma2 scales the same draw (see add_metric_noise).
    """
    if not sigma2 >= 0:
        raise ValueError("perturb_metrics: sigma2 must be nonnegative")
    if sigma2 == 0.0:
        return metrics
    z = rng.standard_normal((3, len(metrics.t_p)))
    return add_metric_noise(metrics, math.sqrt(sigma2), z)


@dataclass(frozen=True)
class MultiuserMeans:
    """Mean gains for M secondary pairs: per-user primary links (length 2M)
    and a symmetric matrix of inter-user links."""

    primary: np.ndarray
    inter: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.primary, dtype=float)
        q = np.asarray(self.inter, dtype=float)
        if p.ndim != 1 or p.size == 0 or p.size % 2:
            raise ValueError("MultiuserMeans: primary must have length 2M")
        if q.shape != (p.size, p.size):
            raise ValueError("MultiuserMeans: inter must be (2M, 2M)")
        if not (p > 0).all():
            raise ValueError("MultiuserMeans: primary means must be positive")
        off = ~np.eye(p.size, dtype=bool)
        if not (q[off] > 0).all():
            raise ValueError("MultiuserMeans: inter means must be positive")
        if not np.array_equal(q, q.T):
            raise ValueError("MultiuserMeans: inter matrix must be symmetric")
        object.__setattr__(self, "primary", p)
        object.__setattr__(self, "inter", q)

    @property
    def n_users(self) -> int:
        return self.primary.size

    @classmethod
    def uniform(cls, m_pairs: int, primary: float, inter: float) -> "MultiuserMeans":
        if m_pairs < 1:
            raise ValueError("MultiuserMeans: need at least one pair")
        if not (primary > 0 and inter > 0):
            raise ValueError("MultiuserMeans: means must be positive")
        n = 2 * m_pairs
        q = np.full((n, n), float(inter))
        np.fill_diagonal(q, 0.0)
        return cls(np.full(n, float(primary)), q)


@dataclass(frozen=True)
class MultiuserChannelSet:
    """Sampled gains for the multiuser setting: g_p[u] is user u's primary
    link, g_uu[u, v] the reciprocal link between users u and v."""

    g_p: np.ndarray
    g_uu: np.ndarray

    @property
    def n_users(self) -> int:
        return self.g_p.shape[0]


def draw_multiuser_chunk(means: MultiuserMeans, seed: int, idx: int,
                        size: int) -> MultiuserChannelSet:
    """Draw chunk idx (size trials) of all primary and inter-user links.

    Inter-user links are reciprocal: only the upper triangle is drawn and
    the matrix is mirrored.
    """
    rng = substream(seed, TAG_GAINS, idx)
    nu = means.n_users
    iu, ju = np.triu_indices(nu, k=1)
    g_p = rng.exponential(means.primary, (size, nu)).T
    tri = rng.exponential(means.inter[iu, ju], (size, iu.size)).T
    full = np.zeros((nu, nu, size))
    full[iu, ju] = tri
    full[ju, iu] = tri
    return MultiuserChannelSet(g_p, full)


def sample_multiuser(means: MultiuserMeans, n: int, seed: int,
                     chunk: int | None = None) -> MultiuserChannelSet:
    """Draw n realizations of all primary and inter-user links."""
    parts = [draw_multiuser_chunk(means, seed, idx, size)
             for idx, _start, size in chunk_ranges(n, chunk)]
    return MultiuserChannelSet(np.concatenate([p.g_p for p in parts], axis=1),
                               np.concatenate([p.g_uu for p in parts], axis=2))
