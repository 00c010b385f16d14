"""Tests for channel sampling, metrics, and the deterministic stream layout."""

import math
import os
import threading
import time
from concurrent.futures import Future

import numpy as np
import pytest

from beaconsim.channel import (
    ChannelSet,
    MeanGains,
    MetricTriple,
    MultiuserMeans,
    compute_metrics,
    perturb_metrics,
    sample_channels,
    sample_multiuser,
)
from beaconsim import mc
from beaconsim.fadeprob import arena_row
from beaconsim.mc import parallel_chunk_stats, substream


class TestSampling:
    def test_exponential_moments(self):
        means = MeanGains(1.0, 2.0, 3.0)
        ch = sample_channels(means, 200_000, seed=42)
        for g, lam in [(ch.g_pt, 1.0), (ch.g_pr, 2.0), (ch.g_tr, 3.0)]:
            assert np.mean(g) == pytest.approx(lam, rel=0.02)
            assert np.median(g) == pytest.approx(lam * math.log(2), rel=0.03)
            assert g.min() >= 0

    def test_links_independent(self):
        ch = sample_channels(MeanGains(1.0, 1.0, 1.0), 200_000, seed=3)
        assert abs(np.corrcoef(ch.g_pt, ch.g_pr)[0, 1]) < 0.01
        assert abs(np.corrcoef(ch.g_pt, ch.g_tr)[0, 1]) < 0.01

    def test_deterministic(self):
        a = sample_channels(MeanGains(1.0, 2.0, 3.0), 5000, seed=7)
        b = sample_channels(MeanGains(1.0, 2.0, 3.0), 5000, seed=7)
        np.testing.assert_array_equal(a.g_pt, b.g_pt)
        np.testing.assert_array_equal(a.g_tr, b.g_tr)
        c = sample_channels(MeanGains(1.0, 2.0, 3.0), 5000, seed=8)
        assert not np.array_equal(a.g_pt, c.g_pt)

    def test_validation(self):
        with pytest.raises(ValueError):
            MeanGains(0.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            sample_channels(MeanGains(1.0, 1.0, 1.0), 0, seed=1)


class TestMetrics:
    def test_sums(self):
        ch = ChannelSet(np.array([1.0]), np.array([2.0]), np.array([4.0]))
        m = compute_metrics(ch)
        assert m.t_p[0] == 3.0
        assert m.t_t[0] == 5.0
        assert m.t_r[0] == 6.0

    def test_perturb_zero_noise_is_identity(self):
        ch = sample_channels(MeanGains(1.0, 1.0, 1.0), 100, seed=1)
        m = compute_metrics(ch)
        noisy = perturb_metrics(m, 0.0, substream(1, 99))
        np.testing.assert_array_equal(noisy.t_p, m.t_p)
        np.testing.assert_array_equal(noisy.t_t, m.t_t)
        np.testing.assert_array_equal(noisy.t_r, m.t_r)

    def test_perturb_variance(self):
        n = 200_000
        m = MetricTriple(np.zeros(n), np.zeros(n), np.zeros(n))
        noisy = perturb_metrics(m, 0.25, substream(5, 99))
        assert np.var(noisy.t_p) == pytest.approx(0.25, rel=0.03)
        assert np.var(noisy.t_t) == pytest.approx(0.25, rel=0.03)
        # independent noise per metric
        assert abs(np.corrcoef(noisy.t_p, noisy.t_r)[0, 1]) < 0.01

    def test_perturb_negative_variance_rejected(self):
        m = MetricTriple(np.zeros(4), np.zeros(4), np.zeros(4))
        for sigma2 in (-1.0, math.nan):
            with pytest.raises(ValueError):
                perturb_metrics(m, sigma2, substream(1, 99))


class TestMultiuser:
    def test_shapes_and_symmetry(self):
        mu = MultiuserMeans.uniform(m_pairs=2, primary=1.0, inter=2.0)
        mch = sample_multiuser(mu, 20_000, seed=11)
        assert mch.g_p.shape == (4, 20_000)
        assert mch.g_uu.shape == (4, 4, 20_000)
        np.testing.assert_array_equal(mch.g_uu[0, 3], mch.g_uu[3, 0])
        np.testing.assert_array_equal(mch.g_uu[1, 2], mch.g_uu[2, 1])
        assert np.all(mch.g_uu[2, 2] == 0.0)
        assert np.mean(mch.g_p[1]) == pytest.approx(1.0, rel=0.05)
        assert np.mean(mch.g_uu[0, 1]) == pytest.approx(2.0, rel=0.05)

    def test_deterministic(self):
        mu = MultiuserMeans.uniform(2, 1.0, 1.0)
        a = sample_multiuser(mu, 1000, seed=5)
        b = sample_multiuser(mu, 1000, seed=5)
        np.testing.assert_array_equal(a.g_p, b.g_p)
        np.testing.assert_array_equal(a.g_uu, b.g_uu)

    def test_validation(self):
        with pytest.raises(ValueError):
            MultiuserMeans.uniform(0, 1.0, 1.0)
        with pytest.raises(ValueError):
            MultiuserMeans.uniform(2, -1.0, 1.0)
        with pytest.raises(ValueError, match="means must be positive"):
            MultiuserMeans.uniform(2, math.nan, 1.0)
        with pytest.raises(ValueError, match="inter means must be positive"):
            MultiuserMeans(np.ones(2), np.array([[1.0, math.nan],
                                                 [math.nan, 1.0]]))
        with pytest.raises(ValueError, match="primary means must be positive"):
            MultiuserMeans(np.array([1.0, math.nan]), np.ones((2, 2)))


class TestChunkStats:
    def test_matches_direct_mean(self):
        def worker(chunk_idx, start, size):
            rng = substream(123, 7, chunk_idx)
            return rng.exponential(1.0, size)

        mean, se, n = parallel_chunk_stats(worker, n=50_000, chunk=8192, threads=1)
        assert n == 50_000
        assert mean == pytest.approx(1.0, abs=5 / math.sqrt(50_000))
        assert se == pytest.approx(1.0 / math.sqrt(50_000), rel=0.1)

    def test_thread_count_invariant(self):
        def worker(chunk_idx, start, size):
            rng = substream(9, 1, chunk_idx)
            return rng.exponential(2.0, size)

        r1 = parallel_chunk_stats(worker, n=40_000, chunk=4096, threads=1)
        r4 = parallel_chunk_stats(worker, n=40_000, chunk=4096, threads=4)
        assert r1 == r4  # bit-identical, not approximately equal

    @pytest.mark.parametrize("threads", [1, 2])
    def test_grid_equals_per_point(self, threads):
        # one chunk draw serves three grid points; each point must reduce
        # exactly as a one-point call on the same values would
        scales = (1.0, 0.5, 3.0)

        def draw(chunk_idx, start, size):
            return substream(11, 1, chunk_idx).exponential(1.0, size)

        points = [lambda x, _scratch, c=c: (c * x,) for c in scales]
        mean, se = mc.parallel_grid_stats(draw, points, 30_000, 4096, threads)
        assert mean.dtype == se.dtype == np.float64
        assert mean.shape == se.shape == (len(scales),)
        for i, c in enumerate(scales):
            ref = parallel_chunk_stats(
                lambda *r: c * draw(*r), 30_000, 4096, threads)
            np.testing.assert_array_equal(mean[i], ref[0])
            np.testing.assert_array_equal(se[i], ref[1])
            assert ref[2] == 30_000
        # a point may yield several arrays: one point yielding all three
        # gives what three one-array points give
        both = mc.parallel_grid_stats(
            draw, [lambda x, _scratch: (c * x for c in scales)], 30_000,
            4096, threads)
        for got, want in zip(both, (mean, se), strict=True):
            np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("threads", [1, 2])
    def test_point_may_yield_one_scratch_row(self, threads):
        # each yielded array is reduced before the next one is requested, so
        # a point may overwrite one row of its thread's scratch for every
        # array, as the tail-mode evaluators do with their arena rows
        scales = (1.0, 0.5, 3.0)

        def draw(chunk_idx, start, size):
            return substream(12, 1, chunk_idx).exponential(1.0, size)

        def reusing(x, scratch):
            buf = arena_row(scratch, "values", x.shape)
            for c in scales:
                yield np.multiply(c, x, out=buf)

        def fresh(x, _scratch):
            return (c * x for c in scales)

        got = mc.parallel_grid_stats(draw, [reusing], 30_000, 4096, threads)
        want = mc.parallel_grid_stats(draw, [fresh], 30_000, 4096, threads)
        for g, w in zip(got, want, strict=True):
            np.testing.assert_array_equal(g, w)
        assert len(set(got[0])) == len(set(got[1])) == len(scales)

    @pytest.mark.parametrize("threads", [1, 2])
    def test_scratch_is_one_dict_per_thread_per_call(self, threads):
        # each worker thread keeps one scratch dict across all its chunks
        # and points; the next call starts from fresh dicts
        def draw(chunk_idx, start, size):
            time.sleep(0.005)  # lets a second worker thread take chunks
            return np.zeros(size)

        def point(x, scratch):
            seen.append((threading.get_ident(), scratch))
            scratch["uses"] = scratch.get("uses", 0) + 1
            return (x,)

        n_points, n_chunks = 3, 8
        calls = []
        for _ in range(2):
            seen = []
            mc.parallel_grid_stats(draw, [point] * n_points, n_chunks * 100,
                                   100, threads)
            by_thread = {}
            for ident, scratch in seen:
                assert by_thread.setdefault(ident, scratch) is scratch
            dicts = list(by_thread.values())
            assert len({id(d) for d in dicts}) == len(dicts) <= threads
            # every evaluation of the call used one of these dicts
            assert sum(d["uses"] for d in dicts) == n_points * n_chunks
            calls.append(dicts)
        if threads == 2 and (os.cpu_count() or 1) > 1:
            assert len(calls[0]) == len(calls[1]) == 2
        assert not {id(d) for d in calls[0]} & {id(d) for d in calls[1]}

    @pytest.mark.parametrize("threads", [1, 2])
    def test_controlled_cell_is_a_ratio(self, threads):
        # mu * mean(v) / mean(c), with SE sqrt(sum (v - R c)^2) / n, from
        # the chunk-ordered fsums; a plain cell beside it keeps its bytes
        def draw(chunk_idx, start, size):
            c = substream(13, 1, chunk_idx).random(size)
            return c, c * substream(13, 2, chunk_idx).random(size)

        def point(sample, _scratch):
            c, v = sample
            yield v
            yield mc.Controlled(v, c, 0.5)

        n = 30_000
        (plain, ratio), (plain_se, ratio_se) = mc.parallel_grid_stats(
            draw, [point], n, 4096, threads)
        want = mc.parallel_grid_stats(draw, [lambda s, _x: (s[1],)], n, 4096,
                                      threads)
        assert (plain, plain_se) == (want[0][0], want[1][0])
        c, v = (np.concatenate(parts) for parts in zip(
            *(draw(*r) for r in mc.chunk_ranges(n, 4096))))
        r = v.sum() / c.sum()
        assert ratio == pytest.approx(0.5 * r, rel=1e-12)
        assert ratio_se == pytest.approx(
            math.sqrt(np.sum((v - r * c) ** 2)) / n, rel=1e-9)
        # v = c u with u uniform: the residual c (u - 1/2) has variance
        # 1/36 against v's 7/144, an SE cut to 0.76
        assert ratio_se == pytest.approx(0.76 * plain_se, rel=0.05)

    def test_controlled_cell_with_zero_controls(self):
        # every control 0 (so every value too): 0 +- 0, with no 0/0
        zeros = mc.Controlled(np.zeros(300), np.zeros(300), 0.25)
        with np.errstate(all="raise"):
            got = mc.parallel_grid_stats(lambda i, start, size: None,
                                         [lambda _s, _x: (zeros,)], 900, 300)
        assert [a.tolist() for a in got] == [[0.0], [0.0]]

    def test_wrong_length_rejected(self):
        with pytest.raises(ValueError, match="wrong length"):
            parallel_chunk_stats(lambda i, start, size: np.zeros(size + 1),
                                 n=1000, chunk=300)
        with pytest.raises(ValueError, match="wrong length"):
            mc.parallel_grid_stats(
                lambda i, start, size: np.zeros(size),
                [lambda x, _scratch: (x, x[1:])], n=1000, chunk=300)
        # one array per yield: a (size, 2) value is two arrays, not one
        with pytest.raises(ValueError, match="wrong length"):
            parallel_chunk_stats(lambda i, start, size: np.zeros((size, 2)),
                                 n=1000, chunk=300)

    def test_grid_points_must_agree(self):
        # a chunk that yields fewer arrays than the others is an error, not
        # a silently shorter grid
        def draw(chunk_idx, start, size):
            return chunk_idx, np.zeros(size)

        def point(sample, _scratch):
            chunk_idx, x = sample
            return (x for _ in range(3 if chunk_idx else 2))

        with pytest.raises(ValueError):
            mc.parallel_grid_stats(draw, [point], n=1000, chunk=300)


class _InlinePool:
    """Stand-in for ThreadPoolExecutor: records max_workers, runs inline."""

    sizes: list = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def submit(self, fn, *args):
        fut = Future()
        fut.set_result(fn(*args))
        return fut


class TestWorkerPool:
    @pytest.mark.parametrize("threads, chunks, cpus, want", [
        (10**6, 3, 8, 3),
        (10**6, 50, 8, 8),
        (2, 50, 8, 2),
        (10**6, 50, None, None),
        (10**6, 1, 8, None),
    ], ids=["chunks", "cpus", "threads", "cpu-count-unknown", "one-chunk"])
    def test_pool_capped(self, monkeypatch, threads, chunks, cpus, want):
        # the fake pool starts no thread, so the huge request is safe
        monkeypatch.setattr(_InlinePool, "sizes", [])
        monkeypatch.setattr(mc, "ThreadPoolExecutor", _InlinePool)
        monkeypatch.setattr(mc, "_POOLS", {})  # pools kept by earlier tests
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        ranges = mc.chunk_ranges(chunks * 10, 10)
        out = mc._run_chunks(lambda idx, start, size: (idx, start, size),
                             ranges, threads)
        assert out == ranges
        assert _InlinePool.sizes == ([] if want is None else [want])

    @pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="needs 2 CPUs")
    def test_pool_kept_across_calls(self):
        # the second call runs on the first call's threads, which keep
        # their malloc arenas
        def worker(idx, start, size):
            time.sleep(0.005)  # lets both threads take chunks
            seen.add(threading.get_ident())
            return np.zeros(size)

        runs = []
        for _ in range(2):
            seen = set()
            parallel_chunk_stats(worker, 800, 100, 2)
            runs.append(seen)
        assert len(runs[0]) == 2
        assert runs[1] <= runs[0]
        assert threading.get_ident() not in runs[0]

    def test_raising_chunk_waits_for_the_others(self):
        # the call does not return while a kept pool thread still runs one
        # of its chunks
        done = []

        def worker(idx, start, size):
            if idx == 0:
                raise RuntimeError("chunk 0")
            time.sleep(0.02)
            done.append(idx)
            return np.zeros(size)

        with pytest.raises(RuntimeError, match="chunk 0"):
            parallel_chunk_stats(worker, 400, 100, 2)
        assert sorted(done) == [1, 2, 3]

    def test_nested_call_runs_inline(self):
        # a chunk that calls the engine again runs that call on its own
        # thread instead of waiting for the pool it occupies
        def inner(idx, start, size):
            return np.full(size, float(idx))

        def outer(idx, start, size):
            return np.full(size, parallel_chunk_stats(inner, 300, 100, 2)[0])

        assert parallel_chunk_stats(outer, 400, 100, 2)[0] == 1.0

    @pytest.mark.skipif(not hasattr(os, "fork") or (os.cpu_count() or 1) < 2,
                        reason="needs fork and 2 CPUs")
    def test_forked_child_starts_its_own_pool(self):
        # the parent's kept pool threads do not exist in a forked child
        def worker(idx, start, size):
            return np.full(size, float(idx))

        parallel_chunk_stats(worker, 400, 100, 2)
        pid = os.fork()
        if pid == 0:
            ok = parallel_chunk_stats(worker, 400, 100, 2)[0] == 1.5
            os._exit(0 if ok else 1)
        for _ in range(200):
            done, status = os.waitpid(pid, os.WNOHANG)
            if done:
                break
            time.sleep(0.05)
        else:
            os.kill(pid, 9)
            os.waitpid(pid, 0)
            pytest.fail("the forked child's call did not return in 10 s")
        assert status == 0
