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


def parallel_grid_stats(draw: Callable[[int, int, int], object],
                        points: Sequence[Callable[[object, dict], Iterable]],
                        n: int, chunk: int | None = None, threads: int = 1):
    """Mean and standard error of per-trial values at each grid point.

    Per chunk, sample = draw(chunk_index, start, size) runs once; then each
    point(sample, scratch) runs in grid order and yields arrays of shape
    (size,).  Each array is reduced to its sum and sum of squares as soon
    as it is yielded, so a point may yield one buffer again after
    overwriting it (the tail-mode evaluators yield scratch-arena rows);
    any other shape, such as (size, 2), raises ValueError.  scratch is one
    dict per worker thread, kept across its chunks and points for the
    whole call (see fadeprob.arena_row).  Per array, the chunk sums are
    combined with math.fsum in chunk order, so the result is exact and
    independent of the thread count.  Returns (mean, std_error): float64
    arrays with one entry per array a chunk yields.
    """
    ranges = chunk_ranges(n, chunk)
    # every thread sees its own __dict__ of a threading.local: its scratch
    local = threading.local()

    def stats(chunk_idx: int, start: int, size: int):
        sample = draw(chunk_idx, start, size)
        out = []
        for point in points:
            for vals in point(sample, local.__dict__):
                vals = np.asarray(vals, dtype=float)
                if vals.shape != (size,):
                    raise ValueError("parallel_grid_stats: wrong length or "
                                     f"shape {vals.shape}, not ({size},)")
                out.append((np.sum(vals), np.sum(vals * vals)))
                del vals  # free this array before the next is computed
        return out

    # per yielded array: the fsum of its chunk sums and of its squares' sums
    sums = np.array([[math.fsum(col) for col in zip(*parts)]
                     for parts in zip(*_run_chunks(stats, ranges, threads),
                                      strict=True)]).reshape(-1, 2)
    mean = sums[:, 0] / n
    var = np.maximum(sums[:, 1] / n - mean * mean, 0.0)
    return mean, np.sqrt(var / n)


def parallel_chunk_stats(worker: Callable[[int, int, int], np.ndarray],
                         n: int, chunk: int | None = None, threads: int = 1):
    """(mean, std_error, n) of per-trial values: one-point parallel_grid_stats."""
    mean, se = parallel_grid_stats(worker, [lambda vals, _scratch: (vals,)],
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
