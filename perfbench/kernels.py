"""Kernel pass: per-call cost of each layer's public functions.

Usage: python3 kernels.py OUT.json SEED CONFIG_PATH KIND

Runs in a fresh interpreter with the program importable. Every figure is
the median of REPS timed calls on inputs drawn from SEED, divided by the
trials the call covers; inputs are built before timing starts.
"""

import json
import os
import statistics
import sys
import time

import numpy as np

REPS = 5


def _once_s(fn) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def _median_s(fn, reps=REPS) -> float:
    fn()  # warm caches and lazy set-up
    return statistics.median(_once_s(fn) for _ in range(reps))


def per_trial_ns(fn, n: int) -> float:
    return _median_s(fn) / n * 1e9


def main() -> int:
    out_path, seed, config_path, kind = sys.argv[1:5]
    seed = int(seed)

    from beaconsim import analysis, capacity, channel, cli, fadeprob, mc
    from beaconsim import numerics, protocols
    from beaconsim.analysis import SweepSpec
    from beaconsim.channel import MeanGains, MetricTriple, MultiuserMeans
    from beaconsim.protocols import ProtocolConfig, Scheme

    nproc = len(os.sched_getaffinity(0))
    rng = np.random.default_rng(seed)
    means = MeanGains(1.0, 2.0, 3.0)
    mu = {m: MultiuserMeans.uniform(m, 1.0, 1.0) for m in (2, 3, 4)}
    cfg = ProtocolConfig(rho=10.0 ** 3.0, d1=1, d2=1)
    m = {}

    # fadeprob: thresholds z^2 / (2 rho) at 30 dB, as the tail engine draws
    n = 200_000
    x = rng.standard_normal((n, 3)) ** 2 / (2.0 * 10.0 ** 3.0)
    m["fadeprob.ocsa_fade_regions_ns"] = per_trial_ns(
        lambda: fadeprob.ocsa_fade_regions(x[:, 0], x[:, 1], x[:, 2], 1, 1,
                                           (1.0, 2.0, 3.0)), n)
    for k in (1, 3, 5, 7):
        m[f"fadeprob.erlang_box_k{k}_ns"] = per_trial_ns(
            lambda k=k: fadeprob.exp_erlang_box_prob(x[:, 1], x[:, 0], 1.0,
                                                     0.25, k), n)

    # draw and mc
    gen = mc.substream(seed, mc.TAG_THRESHOLDS, 0)
    m["draw.normal3_ns"] = per_trial_ns(lambda: gen.standard_normal((n, 3)), n)
    m["draw.exp3_ns"] = per_trial_ns(
        lambda: gen.exponential([1.0, 2.0, 3.0], (n, 3)), n)
    m["mc.substream_us"] = _median_s(
        lambda: [mc.substream(seed, mc.TAG_GAINS, i) for i in range(1000)]
    ) / 1000 * 1e6
    vals = rng.random(100_000)
    n_red = 1_000_000
    m["mc.reduce_ns"] = per_trial_ns(
        lambda: mc.parallel_chunk_stats(lambda i, s, size: vals[:size],
                                        n_red, 100_000), n_red)
    m["mc.chunk_overhead_us"] = _median_s(
        lambda: mc.parallel_chunk_stats(lambda i, s, size: vals[:size],
                                        2_000, 1)) / 2_000 * 1e6

    def sweep(scheme, mean, mode, rho_db, n_t, chunk, threads=1):
        spec = SweepSpec(scheme=scheme, means=mean, rho_db=(rho_db,),
                         n_trials=n_t, seed=seed, mode=mode, chunk=chunk,
                         threads=threads)
        return lambda: analysis.estimate_miss_curve(spec)

    n_sp = 400_000
    t1 = _median_s(sweep("ocsa", means, "tail", 30.0, n_sp, 50_000), 3)
    tn = _median_s(sweep("ocsa", means, "tail", 30.0, n_sp, 50_000, nproc), 3)
    m["mc.thread_speedup"] = t1 / tn

    # channel
    m["channel.sample_channels_ns"] = per_trial_ns(
        lambda: channel.sample_channels(means, n, seed), n)
    n_mu = 50_000
    for mp in (2, 4):
        m[f"channel.sample_multiuser_m{mp}_ns"] = per_trial_ns(
            lambda mp=mp: channel.sample_multiuser(mu[mp], n_mu, seed), n_mu)
    ch = channel.sample_channels(means, n, seed)
    metrics = MetricTriple(ch.g_pt + ch.g_pr, ch.g_pt + ch.g_tr,
                           ch.g_pr + ch.g_tr)
    m["channel.perturb_metrics_ns"] = per_trial_ns(
        lambda: channel.perturb_metrics(metrics, 0.01, gen), n)

    # protocols and numerics on sampled gains
    g = (ch.g_pt, ch.g_pr, ch.g_tr)
    ok = rng.random((2, n)) < 0.9
    m["protocols.nc_miss_ns"] = per_trial_ns(
        lambda: protocols.nc_conditional_miss(cfg, g[0]), n)
    m["protocols.csa_miss_ns"] = per_trial_ns(
        lambda: protocols.csa_conditional_miss(cfg, *g), n)
    m["protocols.ocsa_miss_ns"] = per_trial_ns(
        lambda: protocols.ocsa_conditional_miss(cfg, *g), n)
    m["protocols.csa_joint_ns"] = per_trial_ns(
        lambda: protocols.csa_joint_success(cfg, *g), n)
    m["protocols.ocsa_joint_ns"] = per_trial_ns(
        lambda: protocols.ocsa_joint_success(cfg, *g), n)
    m["protocols.ocsa_select_relay_ns"] = per_trial_ns(
        lambda: protocols.ocsa_select_relay(metrics, ok[0], ok[1]), n)
    m["numerics.gaussian_q_ns"] = per_trial_ns(
        lambda: numerics.gaussian_q(g[0]), n)
    for mp in (2, 4):
        mch = channel.sample_multiuser(mu[mp], n_mu, seed)
        m[f"protocols.mucsa_miss_m{mp}_ns"] = per_trial_ns(
            lambda mch=mch: protocols.mucsa_conditional_miss(cfg, mch, 0),
            n_mu)

    # capacity, ocsa at 10 dB
    act = capacity.ActivityModel(0.85, 0.7)
    n_cap = 100_000
    cap = dict(means=means, activity=act, rho=10.0, t_c=10.0, n=n_cap,
               seed=seed)
    m["capacity.draws_ns"] = per_trial_ns(
        lambda: capacity.capacity_draws(Scheme.OCSA, **cap), n_cap)
    # what outage_capacity adds to the draws (the sort and selection): paired
    # back-to-back calls, so a slow spell on the machine hits both sides
    diffs = []
    for _ in range(REPS):
        draws = _once_s(lambda: capacity.capacity_draws(Scheme.OCSA, **cap))
        outage = _once_s(lambda: capacity.outage_capacity(
            Scheme.OCSA, epsilons=(0.01, 0.05, 0.1), **cap))
        diffs.append(outage - draws)
    m["capacity.outage_select_ns"] = statistics.median(diffs) / n_cap * 1e9
    m["capacity.wrong_relay_ns"] = per_trial_ns(
        lambda: capacity.wrong_relay_probability_mc(
            0.01, means, 10.0, n_cap, seed), n_cap)
    ov = capacity.OverheadParams(t_cr=1.0, t_fb=0.15, beta=0.15)
    m["capacity.throughput_loss_ns"] = per_trial_ns(
        lambda: capacity.throughput_loss_mc(ov, means, 10.0, n_cap, seed),
        n_cap)

    # analysis: engine cost per trial-point, one grid point each
    for name, scheme, mean, n_t in (
            ("nc", "nc", means, 400_000), ("csa", "csa", means, 200_000),
            ("ocsa", "ocsa", means, 100_000),
            ("mucsa_m2", "mucsa", mu[2], 100_000),
            ("mucsa_m3", "mucsa", mu[3], 40_000),
            ("mucsa_m4", "mucsa", mu[4], 10_000)):
        m[f"analysis.tail_{name}_ns"] = per_trial_ns(
            sweep(scheme, mean, "tail", 30.0, n_t, n_t), n_t)
    for name in ("nc", "csa", "ocsa"):
        m[f"analysis.channel_{name}_ns"] = per_trial_ns(
            sweep(name, means, "channel", 10.0, 100_000, 100_000), 100_000)

    # cli: config parsing and output rendering, per call
    def parse():
        data = cli.load_config(config_path)
        cli.apply_overrides(data, [])
        cli.check_schema(kind, data)
        return cli.Conf(data)

    m["cli.parse_us"] = _median_s(lambda: [parse() for _ in range(200)]) \
        / 200 * 1e6
    rows = [{"rho_db": float(r), "estimate": 1e-5 / (r + 1),
             "std_error": 1e-8 * r} for r in range(20, 41, 2)]
    m["cli.render_us"] = _median_s(
        lambda: [cli.render_output(rows, {}, "csv") for _ in range(200)]
    ) / 200 * 1e6

    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(m, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
