"""Deterministic Monte Carlo infrastructure.

Reproducibility contract: every random draw comes from a substream keyed by
(seed, purpose tag, chunk index), trials are processed in fixed-size chunks,
and chunk results are reduced in chunk order with exact summation. Results
are therefore bit-identical across reruns and across worker thread counts.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Iterable, Sequence

import numpy as np

__all__ = ["CHUNK", "substream", "chunk_ranges", "parallel_grid_stats",
           "parallel_chunk_stats", "parallel_chunk_arrays"]

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


def _run_chunks(worker: Callable, ranges: Sequence[tuple[int, int, int]],
                threads: int) -> list:
    # more workers than chunks or CPUs only adds OS threads
    workers = min(threads, len(ranges), os.cpu_count() or 1)
    if workers <= 1:
        return [worker(*r) for r in ranges]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        futures = [pool.submit(worker, *r) for r in ranges]
        return [f.result() for f in futures]


def parallel_grid_stats(worker: Callable[[int, int, int], Iterable], n: int,
                        chunk: int | None = None, threads: int = 1) -> list:
    """Mean and standard error of per-trial values at each grid point.

    worker(chunk_index, start, size) yields one array of shape (size,) per
    grid point, in grid order, so a chunk drawn once serves every point.
    Each array is reduced to its sum and sum of squares as soon as it is
    yielded, before the next one is requested, so a worker may yield one
    buffer for every point and overwrite it in between (the tail-mode
    evaluators yield scratch-arena rows). Any other shape, such as a
    (size, 2) pair of values, raises ValueError. Per point, the chunk sums
    are combined with math.fsum in chunk order, which keeps the reduction
    exact and independent of the thread count. Returns one
    (mean, std_error, n) triple per point.
    """
    ranges = chunk_ranges(n, chunk)

    def stats(chunk_idx: int, start: int, size: int):
        out = []
        for vals in worker(chunk_idx, start, size):
            vals = np.asarray(vals, dtype=float)
            if vals.shape != (size,):
                raise ValueError("parallel_grid_stats: worker returned wrong "
                                 f"length or shape {vals.shape}, not ({size},)")
            out.append((np.sum(vals), np.sum(vals * vals)))
            del vals  # free this point's values before the next is computed
        return out

    results = []
    for parts in zip(*_run_chunks(stats, ranges, threads), strict=True):
        total, total_sq = (np.float64(math.fsum(sums)) for sums in zip(*parts))
        mean = total / n
        var = np.maximum(total_sq / n - mean * mean, 0.0)
        results.append((mean, np.sqrt(var / n), n))
    return results


def parallel_chunk_stats(worker: Callable[[int, int, int], np.ndarray],
                         n: int, chunk: int | None = None, threads: int = 1):
    """(mean, std_error, n) of per-trial values: one-point parallel_grid_stats."""
    return parallel_grid_stats(lambda *r: (worker(*r),), n, chunk, threads)[0]


def parallel_chunk_arrays(worker: Callable[[int, int, int], np.ndarray],
                          n: int, chunk: int | None = None,
                          threads: int = 1) -> np.ndarray:
    """Per-trial values concatenated along their last (trial) axis, chunk
    order preserved."""
    ranges = chunk_ranges(n, chunk)
    parts = _run_chunks(worker, ranges, threads)
    return np.concatenate([np.asarray(p) for p in parts], axis=-1)
