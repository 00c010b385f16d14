"""Release acceptance battery.

Each test verifies one numbered release criterion end to end against the
stated tolerances and prints a single PASS/FAIL summary line that stays
visible even under pytest output capture.  The criteria cover diversity
orders, exact pointwise dominance between access schemes, capacity and
throughput bound orderings, closed-form cross-checks against independent
oracles, and byte-level reproducibility of the command line tool.
"""

from __future__ import annotations

import math
import subprocess
import sys
import time

import numpy as np
import pytest

from beaconsim.analysis import SweepSpec, estimate_diversity, estimate_miss_curve
from beaconsim.capacity import (
    ActivityModel,
    OverheadParams,
    capacity_draws,
    ergodic_capacity,
    imperfect_capacity,
    outage_capacity,
    relative_capacity_loss,
    throughput,
    throughput_loss_bound,
    throughput_loss_mc,
    wrong_relay_bound,
    wrong_relay_probability_mc,
)
from beaconsim.channel import MeanGains, MultiuserMeans, sample_channels
from beaconsim.protocols import (
    ProtocolConfig,
    Scheme,
    csa_joint_success,
    nc_conditional_miss,
    nc_joint_success,
    ocsa_conditional_miss,
    ocsa_joint_success,
    split_channel_uses,
)
from oracle import alternating_binomial_moment, deep_fade_integral

PAIR_MEANS = MeanGains(1.0, 2.0, 3.0)
MU_MEANS = MultiuserMeans.uniform(2, 1.0, 1.0)
D1, D2 = split_channel_uses(2, 0.5)  # equal split of two channel uses

# numerical slack for comparisons that are exact in real arithmetic but can
# round by an ulp in floating point
REL_ULP = 1e-12
ABS_ULP = 1e-12


def report(capsys, num: int, name: str, ok: bool, detail: str) -> None:
    line = f"[acceptance] criterion {num} ({name}): " \
           f"{'PASS' if ok else 'FAIL'} -- {detail}"
    with capsys.disabled():
        print(line, flush=True)
    assert ok, line


@pytest.fixture(scope="module")
def shared_channels():
    """One million channel triples shared by the dominance criteria."""
    return sample_channels(PAIR_MEANS, 1_000_000, seed=2024)


# ---------------------------------------------------------------------------
# 1. Diversity orders from fitted log-log slopes
# ---------------------------------------------------------------------------


def test_criterion_1_diversity_orders(capsys):
    rho_grid = tuple(float(r) for r in range(20, 41, 2))
    cases = [
        (Scheme.NC, PAIR_MEANS, (0.85, 1.15)),
        (Scheme.CSA, PAIR_MEANS, (1.7, 2.3)),
        (Scheme.OCSA, PAIR_MEANS, (1.7, 2.3)),
        (Scheme.MUCSA, MU_MEANS, (3.4, 4.6)),
    ]
    ok = True
    parts = []
    max_elapsed = 0.0
    for scheme, means, (lo, hi) in cases:
        spec = SweepSpec(scheme=scheme, means=means, rho_db=rho_grid,
                         n_trials=10_000_000, seed=101, d1=D1, d2=D2,
                         mode="tail")
        start = time.monotonic()
        fit = estimate_diversity(spec)
        elapsed = time.monotonic() - start
        max_elapsed = max(max_elapsed, elapsed)
        good = lo <= fit.order <= hi and elapsed < 300.0
        ok = ok and good
        parts.append(f"{scheme.value}={fit.order:.3f} in [{lo},{hi}]")
    detail = ", ".join(parts) + f"; slowest scheme {max_elapsed:.0f}s (< 300s)"
    report(capsys, 1, "diversity orders", ok, detail)


# ---------------------------------------------------------------------------
# 2. Pointwise miss dominance of opportunistic selection
# ---------------------------------------------------------------------------


def test_criterion_2_pointwise_miss_dominance(capsys, shared_channels):
    ch = shared_channels
    worst_frac = 1.0
    for rho_db in (0.0, 10.0, 20.0):
        cfg = ProtocolConfig(rho=10.0 ** (rho_db / 10.0), d1=D1, d2=D2)
        for own, peer in ((ch.g_pt, ch.g_pr), (ch.g_pr, ch.g_pt)):
            nc = nc_conditional_miss(cfg, own)
            oc = ocsa_conditional_miss(cfg, own, peer, ch.g_tr)
            frac = float(np.mean(oc <= nc * (1.0 + REL_ULP) + 1e-300))
            worst_frac = min(worst_frac, frac)
    ok = worst_frac == 1.0
    detail = (f"opportunistic miss <= lone-node miss on "
              f"{worst_frac:.6%} of 1e6 realizations x 3 SNRs x both nodes")
    report(capsys, 2, "pointwise miss dominance", ok, detail)


# ---------------------------------------------------------------------------
# 3. Joint-success ordering
# ---------------------------------------------------------------------------


def test_criterion_3_joint_success_ordering(capsys, shared_channels):
    ch = shared_channels
    worst_frac = 1.0
    csa_vs_nc_z = None
    for rho_db in (0.0, 10.0, 20.0):
        cfg = ProtocolConfig(rho=10.0 ** (rho_db / 10.0), d1=D1, d2=D2)
        nc = nc_joint_success(cfg, ch.g_pt, ch.g_pr)
        cs = csa_joint_success(cfg, ch.g_pt, ch.g_pr, ch.g_tr)
        oc = ocsa_joint_success(cfg, ch.g_pt, ch.g_pr, ch.g_tr)
        frac = float(np.mean(oc >= np.maximum(cs, nc) - ABS_ULP))
        worst_frac = min(worst_frac, frac)
        if rho_db >= 20.0:
            diff = cs - nc
            se = float(np.std(diff, ddof=1)) / math.sqrt(diff.size)
            csa_vs_nc_z = float(np.mean(diff)) / se if se > 0 else math.inf
    ok = worst_frac == 1.0 and csa_vs_nc_z is not None and csa_vs_nc_z >= -3.0
    detail = (f"opportunistic >= max(cooperative, lone) on {worst_frac:.6%}; "
              f"cooperative-vs-lone average z={csa_vs_nc_z:+.1f} at 20 dB "
              f"(need >= -3)")
    report(capsys, 3, "joint-success ordering", ok, detail)


# ---------------------------------------------------------------------------
# 4. Capacity bound orderings, ergodic and outage
# ---------------------------------------------------------------------------


def _quantile_band(draws: np.ndarray, eps: float):
    """Quantile with a 3-sigma order-statistic band (Woodruff-style)."""
    srt = np.sort(draws)
    n = srt.size
    k = int(math.floor(eps * n))
    m = int(math.ceil(3.0 * math.sqrt(n * eps * (1.0 - eps))))
    return srt[max(k - m, 0)], srt[k], srt[min(k + m, n - 1)]


def test_criterion_4_capacity_orderings(capsys):
    activity = ActivityModel(p_theta_t=0.85, p_theta_joint=0.7)
    epsilons = (0.01, 0.05, 0.1)
    n = 200_000
    schemes = (Scheme.NC, Scheme.CSA, Scheme.OCSA)
    ok = True
    notes = []
    for rho_db in (0.0, 10.0, 20.0, 30.0):
        rho = 10.0 ** (rho_db / 10.0)
        draws = {}
        quant = {}
        for scheme in schemes:
            up, lo = capacity_draws(scheme, PAIR_MEANS, activity, rho,
                                    t_c=10.0, n=n, seed=104, d1=D1, d2=D2)
            if not np.all(lo <= up + ABS_ULP):
                ok = False
                notes.append(f"lower>upper at {rho_db}dB {scheme.value}")
            draws[scheme] = (up, lo)
            out = outage_capacity(scheme, PAIR_MEANS, activity, rho,
                                  t_c=10.0, epsilons=epsilons, n=n, seed=104,
                                  d1=D1, d2=D2)
            quant[scheme] = out

        def mean_ordered(hi_scheme, lo_scheme, side):
            d = draws[hi_scheme][side] - draws[lo_scheme][side]
            se = float(np.std(d, ddof=1)) / math.sqrt(d.size)
            return float(np.mean(d)) >= -3.0 * se

        def quantile_ordered(hi_scheme, lo_scheme, side):
            fine = True
            for i, eps in enumerate(epsilons):
                _, _, hi_band = _quantile_band(draws[hi_scheme][side], eps)
                lo_band, _, _ = _quantile_band(draws[lo_scheme][side], eps)
                got_hi = (quant[hi_scheme].upper[i] if side == 0
                          else quant[hi_scheme].lower[i])
                got_lo = (quant[lo_scheme].upper[i] if side == 0
                          else quant[lo_scheme].lower[i])
                # the reported quantiles must obey the ordering up to the
                # order-statistic uncertainty of both estimates
                fine = fine and max(got_hi, hi_band) >= min(got_lo, lo_band)
            return fine

        for side, tag in ((0, "upper"), (1, "lower")):
            for weaker in (Scheme.CSA, Scheme.NC):
                if not mean_ordered(Scheme.OCSA, weaker, side):
                    ok = False
                    notes.append(f"ergodic {tag} ocsa<{weaker.value} {rho_db}dB")
                if not quantile_ordered(Scheme.OCSA, weaker, side):
                    ok = False
                    notes.append(f"outage {tag} ocsa<{weaker.value} {rho_db}dB")
            if rho_db >= 20.0:
                if not mean_ordered(Scheme.CSA, Scheme.NC, side):
                    ok = False
                    notes.append(f"ergodic {tag} csa<nc {rho_db}dB")
                if not quantile_ordered(Scheme.CSA, Scheme.NC, side):
                    ok = False
                    notes.append(f"outage {tag} csa<nc {rho_db}dB")
    detail = ("all orderings hold over 4 SNRs x 3 outage levels x both bounds"
              if ok else "; ".join(notes))
    report(capsys, 4, "capacity orderings", ok, detail)


# ---------------------------------------------------------------------------
# 5. Wrong-relay probability bound and capacity loss under noisy metrics
# ---------------------------------------------------------------------------


def test_criterion_5_wrong_relay_bound(capsys):
    means = MeanGains(1.0, 1.0, 1.0)
    rho = 1.0  # 0 dB
    ok = True
    parts = []
    for sigma2 in (1.0, 0.1, 0.01):
        mc, se = wrong_relay_probability_mc(sigma2, means, rho,
                                            n=1_000_000, seed=105,
                                            d1=D1, d2=D2)
        bound = wrong_relay_bound(sigma2, means)
        good = mc <= bound + 3.0 * se
        ok = ok and good
        parts.append(f"s2={sigma2:g}: mc={mc:.4f} <= bound={bound:.4f}+3se")
    activity = ActivityModel(p_theta_t=0.85, p_theta_joint=0.7)
    base = ergodic_capacity(Scheme.OCSA, means, activity, rho, t_c=10.0,
                            n=1_000_000, seed=105, d1=D1, d2=D2)
    noisy = imperfect_capacity(Scheme.OCSA, means, activity, rho, t_c=10.0,
                               n=1_000_000, seed=105, sigma2=0.01,
                               d1=D1, d2=D2)
    loss = relative_capacity_loss(base, noisy)
    good = loss < 0.01
    ok = ok and good
    parts.append(f"relative capacity loss at s2=0.01: {loss:.5f} < 0.01")
    report(capsys, 5, "wrong-relay bound", ok, "; ".join(parts))


# ---------------------------------------------------------------------------
# 6. Throughput loss bound on an overhead grid
# ---------------------------------------------------------------------------


def test_criterion_6_throughput_bound(capsys):
    rho = 1.0
    grid = np.linspace(0.0, 0.3, 5)
    ok = True
    worst_margin = -math.inf
    for w1 in grid:
        for w2 in grid:
            ov = OverheadParams(t_cr=1.0, t_fb=float(w1),
                                beta=float(w2) * PAIR_MEANS.pt,
                                lambda_pt=PAIR_MEANS.pt)
            mc, se = throughput_loss_mc(ov, PAIR_MEANS, rho, n=200_000,
                                        seed=106, d1=D1, d2=D2)
            bound = throughput_loss_bound(ov)
            margin = mc - bound - 3.0 * se
            worst_margin = max(worst_margin, margin)
            ok = ok and margin <= ABS_ULP
            if w1 == 0.0 and w2 == 0.0:
                sample_t = np.array([0.5, 1.7, 3.2])
                exact = (mc == 0.0 and bound == 0.0
                         and np.all(throughput(2.0, ov, sample_t) == 2.0))
                ok = ok and exact
    detail = (f"loss <= bound + 3 SE on 5x5 grid "
              f"(worst margin {worst_margin:+.2e}); zero-overhead throughput "
              f"equals capacity exactly")
    report(capsys, 6, "throughput loss bound", ok, detail)


# ---------------------------------------------------------------------------
# 7. Exact combinatorial identity and deep-fade decay rate
# ---------------------------------------------------------------------------


def test_criterion_7_exact_identities(capsys):
    ok = True
    for m in range(0, 16):
        for nn in range(0, m):
            ok = ok and alternating_binomial_moment(m, nn) == 0
        ok = ok and alternating_binomial_moment(m, m) != 0
    slopes = []
    for m in (1, 2, 3):
        lo = deep_fade_integral(1.0e4, [1.0] * m)
        hi = deep_fade_integral(1.0e6, [1.0] * m)
        slope = (math.log(hi) - math.log(lo)) / (math.log(1e6) - math.log(1e4))
        slopes.append(slope)
        ok = ok and abs(slope + m) <= 0.1
    detail = ("alternating sums vanish exactly for all orders n < M <= 15 and "
              "not at n = M; fade-integral slopes "
              + ", ".join(f"{s:.3f}" for s in slopes)
              + " within 0.1 of -1,-2,-3")
    report(capsys, 7, "exact identities", ok, detail)


# ---------------------------------------------------------------------------
# 8. Lone-node closed form against an independent oracle
# ---------------------------------------------------------------------------


def test_criterion_8_nc_closed_form(capsys):
    rho_grid = (0.0, 10.0, 20.0)
    d = D1 + D2
    worst_z = 0.0
    for side, lam in (("t", PAIR_MEANS.pt), ("r", PAIR_MEANS.pr)):
        spec = SweepSpec(scheme=Scheme.NC, means=PAIR_MEANS, rho_db=rho_grid,
                         n_trials=1_000_000, seed=108, d1=D1, d2=D2,
                         mode="channel")
        res = estimate_miss_curve(spec, side=side)
        for i, rho_db in enumerate(rho_grid):
            rho = 10.0 ** (rho_db / 10.0)
            closed = 0.5 * (1.0 - (1.0 + 1.0 / (d * rho * lam)) ** -0.5)
            z = abs(res.estimate[i] - closed) / res.std_error[i]
            worst_z = max(worst_z, z)
    ok = worst_z <= 3.0
    detail = (f"sampled miss matches closed form at 3 SNRs x both nodes; "
              f"worst |z| = {worst_z:.2f} (need <= 3)")
    report(capsys, 8, "lone-node closed form", ok, detail)


# ---------------------------------------------------------------------------
# 9. Byte-identical outputs across reruns and thread counts
# ---------------------------------------------------------------------------


MISS_CONFIG = """\
[run]
seed = 4242
n_trials = 200000

[channel]
pt = 1.0
pr = 2.0
tr = 3.0

[protocol]
scheme = "ocsa"

[sweep]
rho_db = [0.0, 10.0]
mode = "tail"
"""

CAPACITY_CONFIG = """\
[run]
seed = 4242
n_trials = 100000

[channel]
pt = 1.0
pr = 2.0
tr = 3.0

[protocol]
scheme = "csa"

[sweep]
rho_db = [10.0]

[capacity]
p_theta_t = 0.85
p_theta_joint = 0.7
t_c = 10.0
"""


def test_criterion_9_byte_identical_outputs(capsys, tmp_path):
    runs = [("miss-sweep", MISS_CONFIG), ("capacity-ergodic", CAPACITY_CONFIG)]
    ok = True
    for kind, text in runs:
        cfg = tmp_path / f"{kind}.ini"
        cfg.write_text(text)
        outputs = []
        for i, threads in enumerate((1, 4, 1)):
            out = tmp_path / f"{kind}-{i}.csv"
            proc = subprocess.run(
                [sys.executable, "-m", "beaconsim.cli", kind,
                 "--config", str(cfg), "--threads", str(threads),
                 "--out", str(out)],
                capture_output=True)
            ok = ok and proc.returncode == 0
            outputs.append(out.read_bytes())
        ok = ok and outputs[0] == outputs[1] == outputs[2]
    detail = ("rerun and threads {1,4} produce byte-identical files for "
              "sweep and capacity experiments")
    report(capsys, 9, "deterministic outputs", ok, detail)
