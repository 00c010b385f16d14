"""Deterministic Monte Carlo infrastructure.

Reproducibility contract: every random draw comes from a substream keyed by
(seed, purpose tag, chunk index), trials are processed in fixed-size chunks,
and chunk results are reduced in chunk order with exact summation. Results
are therefore bit-identical across reruns and across worker thread counts.
"""

from __future__ import annotations

import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor, wait
from typing import Callable, Iterable, NamedTuple, Sequence

import numpy as np

__all__ = ["CHUNK", "substream", "chunk_ranges", "Controlled",
           "parallel_grid_stats", "parallel_chunk_stats",
           "parallel_chunk_arrays"]

# fixed chunk size; part of the stream layout, so changing it changes results
CHUNK = 1_000_000

# purpose tags for substreams
TAG_GAINS = 1
TAG_STATUS = 2
TAG_METRIC_NOISE = 3
TAG_THRESHOLDS = 4


def substream(seed: int, *key: int) -> np.random.Generator:
    """Independent generator keyed by a base seed plus integer tags."""
    return np.random.default_rng([int(seed), *[int(k) for k in key]])


def chunk_ranges(n: int, chunk: int | None = None) -> list[tuple[int, int, int]]:
    """(chunk_index, start, size) triples covering n trials; chunk=None
    means CHUNK."""
    chunk = CHUNK if chunk is None else chunk
    if n <= 0:
        raise ValueError("chunk_ranges: n must be positive")
    if chunk <= 0:
        raise ValueError("chunk_ranges: chunk must be positive")
    out = []
    idx = 0
    for start in range(0, n, chunk):
        out.append((idx, start, min(chunk, n - start)))
        idx += 1
    return out


# Worker pools by size, started on first use and kept for the process.  A
# pool started per call would hand its chunks to new threads while the last
# call's threads may still be exiting; glibc then gives such a thread a new
# malloc arena, so peak memory would vary from run to run.  Kept threads
# keep their arenas.  An idle pool thread only waits on its queue.
_POOLS: dict[int, ThreadPoolExecutor] = {}
_POOLS_LOCK = threading.Lock()


def _forget_pools() -> None:
    # a forked child has none of its parent's pool threads
    global _POOLS_LOCK
    _POOLS.clear()
    _POOLS_LOCK = threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pools)

# set while a pool thread runs a chunk: a nested call runs inline, since
# waiting on its own pool's threads could deadlock
_IN_POOL = threading.local()


def _in_pool(fn, *args):
    _IN_POOL.active = True
    try:
        return fn(*args)
    finally:
        _IN_POOL.active = False


def _run_chunks(worker: Callable, ranges: Sequence[tuple[int, int, int]],
                threads: int) -> list:
    # more workers than chunks or usable CPUs only adds OS threads; the
    # affinity mask (taskset, cpusets) may allow fewer CPUs than exist
    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)
    workers = min(threads, len(ranges), cpus)
    if workers <= 1 or getattr(_IN_POOL, "active", False):
        return [worker(*r) for r in ranges]
    with _POOLS_LOCK:
        pool = _POOLS.get(workers)
        if pool is None:
            pool = _POOLS[workers] = ThreadPoolExecutor(max_workers=workers)
    futures = [pool.submit(_in_pool, worker, *r) for r in ranges]
    # no chunk outlives the call, even when an earlier one raised
    wait(futures)
    return [f.result() for f in futures]


class Controlled(NamedTuple):
    """A grid cell estimated with a ratio control variate: per-trial values,
    a per-trial control c in [0, 1] with values <= c, and c's exact mean."""

    values: object
    control: object
    mean: float


def _finish(mu: float | None, n: int, s_v: float, s_vv: float,
            *control: float) -> tuple[float, float]:
    """A cell's (estimate, SE) from the exact sums of its n trials: those
    of v and v * v, then for a ratio cell those of c, c * c and v * c.  A
    plain cell (mu None) gives mean(v) +- sqrt(var(v) / n); a ratio cell
    mu * mean(v) / mean(c) with its delta-method SE sqrt(sum (v - R c)^2)
    / n, R = mean(v) / mean(c): linearized at c's exact mean mu, the ratio
    moves as mean(v - R c) does (Cochran, Sampling Techniques, 1977,
    ch. 6).  0 +- 0 when every control is 0, since then so is every value."""
    if mu is None:
        m = s_v / n
        return m, math.sqrt(max(s_vv / n - m * m, 0.0) / n)
    s_c, s_cc, s_vc = control
    if s_c == 0:
        return 0.0, 0.0
    r = s_v / s_c
    resid = max(s_vv - 2.0 * r * s_vc + r * r * s_cc, 0.0)
    return mu * r, math.sqrt(resid) / n


def parallel_grid_stats(draw: Callable[[int, int, int], object],
                        points: Sequence[Callable[[object], Iterable]],
                        n: int, chunk: int | None = None, threads: int = 1):
    """Estimate and standard error of each cell of a grid of points.

    Per chunk, sample = draw(chunk_index, start, size) runs once; then each
    point(sample) runs in grid order and yields its cells.  A cell is an
    array of shape (size,), whose estimate is its mean, or a Controlled of
    two such arrays, whose estimate is the ratio mu * mean(values) /
    mean(control) (see _finish).  Each cell is reduced to its sums (sum
    and sum of squares; for a Controlled, both arrays' sums and sums of
    squares and their sum of products) as soon as it is yielded, so a
    point may yield one buffer again after overwriting it (the tail-mode
    points yield rows of their per-thread arena); any other shape, such as
    (size, 2), raises ValueError.  Per cell, the chunk sums are combined
    with math.fsum in chunk order, so the result is exact and independent
    of the thread count; every chunk's sums are kept until the call ends.
    Returns (estimate, std_error): float64 arrays with one entry per cell
    a chunk yields.
    """
    ranges = chunk_ranges(n, chunk)

    def column(vals, size: int) -> np.ndarray:
        vals = np.asarray(vals, dtype=float)
        if vals.shape != (size,):
            raise ValueError("parallel_grid_stats: wrong length or "
                             f"shape {vals.shape}, not ({size},)")
        return vals

    def stats(chunk_idx: int, start: int, size: int):
        sample = draw(chunk_idx, start, size)
        out = []
        for point in points:
            for cell in point(sample):
                if isinstance(cell, Controlled):
                    v = column(cell.values, size)
                    c = column(cell.control, size)
                    out.append((cell.mean, np.sum(v), np.sum(v * v),
                                np.sum(c), np.sum(c * c), np.sum(v * c)))
                    del c
                else:
                    v = column(cell, size)
                    out.append((None, np.sum(v), np.sum(v * v)))
                # free this cell before the next is computed
                del cell, v
        return out

    # per cell: its control mean (None for a plain mean), then the fsum of
    # each of its chunk sums, finished into (estimate, SE)
    cells = [_finish(parts[0][0], n, *(math.fsum(col) for col in zip(
        *(part[1:] for part in parts), strict=True)))
        for parts in zip(*_run_chunks(stats, ranges, threads), strict=True)]
    return tuple(np.array(cells, dtype=float).reshape(-1, 2).T.copy())


def parallel_chunk_stats(worker: Callable[[int, int, int], np.ndarray],
                         n: int, chunk: int | None = None, threads: int = 1):
    """(mean, std_error, n) of per-trial values: one-point parallel_grid_stats."""
    mean, se = parallel_grid_stats(worker, [lambda vals: (vals,)],
                                   n, chunk, threads)
    return mean[0], se[0], n


def parallel_chunk_arrays(worker: Callable[[int, int, int], np.ndarray],
                          n: int, chunk: int | None = None,
                          threads: int = 1) -> np.ndarray:
    """Per-trial values concatenated along their last (trial) axis, chunk
    order preserved."""
    ranges = chunk_ranges(n, chunk)
    parts = _run_chunks(worker, ranges, threads)
    return np.concatenate([np.asarray(p) for p in parts], axis=-1)
