"""Workload generator: a pure function from (workload, seed) to CLI invocations.

Each invocation is one call of ``beaconsim.cli.main`` with a generated INI
config. The seed only selects ``run.seed``; the grids, trial counts and
chunk sizes are fixed per workload so that every seed costs the same work.
"""

from __future__ import annotations

import hashlib

WORKLOADS = ("tail-sweep", "capacity-mix", "multiuser-scale")

# criterion-1 grid: 11 points from 20 to 40 dB
TAIL_GRID = [float(r) for r in range(20, 41, 2)]
PAIR_MEANS = {"pt": 1.0, "pr": 2.0, "tr": 3.0}

# Trial counts and chunk sizes. Each grid point spans several chunks so the
# nproc-thread passes have parallel work (the CLI runs a one-chunk point
# serially).
TAIL_N, TAIL_CHUNK = 200_000, 50_000
CAP_N, CAP_CHUNK = 100_000, 25_000
CAP_GRID = [0.0, 3.0, 6.0]
MU_TAIL_N, MU_CHAN_N, MU_CHUNK = 10_000, 10_000, 5_000
MU_CHAN_GRID = [0.0, 5.0, 10.0]

# criterion-1 windows on the fitted diversity order
ORDER_WINDOWS = {"nc": (0.85, 1.15), "csa": (1.7, 2.3), "ocsa": (1.7, 2.3),
                 "mucsa": (3.4, 4.6)}


def run_seed(workload: str, seed: int) -> int:
    """The ``run.seed`` handed to the program, derived from the bench seed."""
    digest = hashlib.sha256(f"{workload}/{seed}".encode()).digest()
    return int.from_bytes(digest[:4], "little") % (2**31 - 1) + 1


def _ini(sections: dict) -> str:
    lines = []
    for name, keys in sections.items():
        lines.append(f"[{name}]")
        lines.extend(f"{k} = {v!r}" for k, v in keys.items())
        lines.append("")
    return "\n".join(lines)


def _inv(name, kind, sections, fmt, rows, mode="channel", **check):
    """One CLI call. ``rows`` grid cells times ``run.n_trials`` are its work."""
    run = sections["run"]
    return {"name": name, "kind": kind, "config": _ini(sections), "fmt": fmt,
            "n": run["n_trials"], "chunk": run["chunk"],
            "trial_points": rows * run["n_trials"],
            "check": {"mode": mode, **check}}


def _tail_sweep(rs: int) -> list[dict]:
    out = []
    run = {"seed": rs, "n_trials": TAIL_N, "chunk": TAIL_CHUNK}
    sweep = {"rho_db": TAIL_GRID, "mode": "tail", "side": "t"}
    for scheme, nominal in (("nc", 1), ("csa", 2), ("ocsa", 2)):
        out.append(_inv(
            f"miss-{scheme}", "miss-sweep",
            {"run": run, "channel": PAIR_MEANS,
             "protocol": {"scheme": scheme, "d": 2, "alpha": 0.5},
             "sweep": sweep},
            "csv", len(TAIL_GRID),
            mode="tail", nominal=nominal, window=ORDER_WINDOWS[scheme]))
    out.append(_inv(
        "miss-mucsa-m2", "miss-sweep",
        {"run": run,
         "protocol": {"scheme": "mucsa", "d": 2, "alpha": 0.5},
         "sweep": sweep,
         "multiuser": {"m_pairs": 2, "primary": 1.0, "inter": 1.0}},
        "csv", len(TAIL_GRID),
        mode="tail", nominal=4, window=ORDER_WINDOWS["mucsa"],
        heavy_tail=True))
    return out


def _capacity_mix(rs: int) -> list[dict]:
    run = {"seed": rs, "n_trials": CAP_N, "chunk": CAP_CHUNK}
    proto = {"scheme": "ocsa", "d": 2, "alpha": 0.5}
    act = {"p_theta_t": 0.85, "p_theta_joint": 0.7, "t_c": 10.0}
    sweep = {"rho_db": CAP_GRID, "mode": "channel"}
    eps = [0.01, 0.05, 0.1]
    sigma2 = [0.0, 0.01, 0.1]
    w = [0.0, 0.15, 0.3]
    nr = len(CAP_GRID)
    out = [
        _inv("ergodic", "capacity-ergodic",
             {"run": run, "channel": PAIR_MEANS, "protocol": proto,
              "sweep": sweep, "capacity": act},
             "json", nr),
        _inv("outage", "capacity-outage",
             {"run": run, "channel": PAIR_MEANS, "protocol": proto,
              "sweep": sweep, "capacity": {**act, "epsilons": eps}},
             "csv", nr * len(eps)),
        _inv("imperfect", "imperfect",
             {"run": run, "channel": PAIR_MEANS, "protocol": proto,
              "sweep": sweep, "capacity": {**act, "sigma2": sigma2}},
             "json", nr * len(sigma2)),
        _inv("throughput", "throughput",
             {"run": run, "channel": PAIR_MEANS, "protocol": proto,
              "sweep": {"rho_db": [CAP_GRID[-1]]},
              "throughput": {"t_cr": 1.0, "w1": w, "w2": w}},
             "csv", len(w) ** 2),
    ]
    for scheme, nominal in (("nc", 1), ("csa", 2), ("ocsa", 2)):
        out.append(_inv(
            f"joint-{scheme}", "joint-sweep",
            {"run": run, "channel": PAIR_MEANS,
             "protocol": {**proto, "scheme": scheme}, "sweep": sweep},
            "csv", nr, nominal=nominal))
    return out


def _multiuser_scale(rs: int) -> list[dict]:
    out = []
    proto = {"scheme": "mucsa", "d": 2, "alpha": 0.5}
    for mode, grid, n in (("tail", TAIL_GRID, MU_TAIL_N),
                          ("channel", MU_CHAN_GRID, MU_CHAN_N)):
        for m in (3, 4):
            out.append(_inv(
                f"multiuser-{mode}-m{m}", "multiuser",
                {"run": {"seed": rs, "n_trials": n, "chunk": MU_CHUNK},
                 "protocol": proto,
                 "sweep": {"rho_db": grid, "mode": mode},
                 "multiuser": {"m_pairs": m, "primary": 1.0, "inter": 1.0}},
                "csv", len(grid),
                mode=mode, nominal=2 * m, heavy_tail=mode == "tail"))
    return out


_BUILDERS = {"tail-sweep": _tail_sweep, "capacity-mix": _capacity_mix,
             "multiuser-scale": _multiuser_scale}


def make_plan(workload: str, seed: int) -> list[dict]:
    """The workload's CLI invocations for this seed, in run order."""
    if workload not in _BUILDERS:
        raise ValueError(f"unknown workload {workload!r}; "
                         f"choose one of {', '.join(WORKLOADS)}")
    return _BUILDERS[workload](run_seed(workload, seed))
