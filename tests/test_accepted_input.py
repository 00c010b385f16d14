"""Accepted input means exit 0: the corner-case contract of the CLI.

Every kind runs every scheme, mode and side that ``cli.KINDS`` lists, from
-300 to 300 dB, over pair means from 1e-30 to 1e30, mucsa at 1 to 3 pairs
and extreme capacity, noise and overhead settings.  Each run goes through ``cli.main``
in process with every warning an error.  A run must either exit 0 with
finite values, probabilities in [0, 1] and nonnegative SEs, or exit 2 with
one ``beaconsim: config error:`` line.
"""

from __future__ import annotations

import itertools
import json
import math

import pytest

from beaconsim import cli

RHO_DB = [-300.0, -150.0, -60.0, 0.0, 60.0, 150.0, 300.0]
PAIR_MEANS = [(1.0, 2.0, 3.0), (1e-30, 2.0, 3.0), (1e30, 2.0, 3.0),
              (1e-8, 2.0, 3.0), (1e8, 2.0, 3.0), (1.0, 1e-8, 3.0),
              (1.0, 2.0, 1e8), (1e-30,) * 3, (1e30,) * 3]
# mucsa: pair counts M, and (primary, inter) mean gains
M_PAIRS = [1, 2, 3]
MULTI_MEANS = [(1.0, 1.0), (1e-30, 1.0), (1e30, 1e30), (1e-8, 1e8)]
T_C = [10.0, 1e300]
OUTAGE_SIGMA2 = [0.0, 0.05, 1e6]  # ocsa only: nc and csa read no noise
IMPERFECT_SIGMA2 = [0.0, 0.05, 1e300]
# throughput w1 and w2: w2/(1 + w1) on both sides of 1, where
# throughput_loss_bound caps, and of ~709.8, where math.expm1 overflows
OVERHEAD = [0.0, 1e-8, 0.5, 709.0, 710.0, 1e6]
# the miss, joint and multiuser kinds report probabilities
PROBABILITY_KINDS = ("miss-sweep", "joint-sweep", "multiuser")


def _ini(sections: dict) -> str:
    return "".join(f"[{name}]\n" + "".join(f"{k} = {v!r}\n"
                                           for k, v in keys.items())
                   for name, keys in sections.items())


def _configs(kind: str, t_cs):
    """(label, INI text) of every run of kind on the grid, with t_c from
    t_cs where the kind reads it."""
    _run, reads, schemes, values = cli.KINDS[kind]
    for scheme, mode, side in itertools.product(schemes, values["mode"],
                                                values["side"]):
        base = {"run": {"seed": 1, "n_trials": 500, "chunk": 250},
                "protocol": {"scheme": scheme.value},
                "sweep": {"rho_db": RHO_DB, "mode": mode, "side": side}}
        if scheme.value == "mucsa":
            gains = [("multiuser", {"m_pairs": m, "primary": p, "inter": i})
                     for m in M_PAIRS for p, i in MULTI_MEANS]
        else:
            gains = [("channel", dict(zip(("pt", "pr", "tr"), m)))
                     for m in PAIR_MEANS]
        extras = [{}]
        if "capacity" in reads:
            if kind == "imperfect":
                noise = [{"sigma2": IMPERFECT_SIGMA2}]
            elif kind == "capacity-outage":
                noise = [{"sigma2": s2, "epsilons": [0.01, 0.5]}
                         for s2 in (OUTAGE_SIGMA2 if scheme.value == "ocsa"
                                    else [0.0])]
            else:
                noise = [{}]
            extras = [{"capacity": {"p_theta_t": 0.85, "p_theta_joint": 0.7,
                                    "t_c": t_c, **keys}}
                      for t_c in t_cs for keys in noise]
        if "throughput" in reads:
            # throughput runs at one rho
            extras = [{"sweep": {**base["sweep"], "rho_db": [r]},
                       "throughput": {"t_cr": 1.0, "w1": OVERHEAD,
                                      "w2": OVERHEAD}} for r in RHO_DB]
        for (section, keys), extra in itertools.product(gains, extras):
            sections = {**base, section: keys, **extra}
            yield json.dumps(sections), _ini(sections)


def _floats(value):
    if isinstance(value, float):
        yield value
    elif isinstance(value, dict):
        for v in value.values():
            yield from _floats(v)
    elif isinstance(value, list):
        for v in value:
            yield from _floats(v)


def _breach(kind: str, code: int, out: str, err: str):
    """What a run did against the contract, or None if it kept it."""
    if code == 2:
        lines = err.splitlines()
        if (len(lines) == 1 and err.endswith("\n") and not out
                and lines[0].startswith("beaconsim: config error: ")):
            return None
        return f"exit 2 with stdout {out!r} and stderr {err!r}"
    if code != 0:
        return f"exit {code}: {err.strip()}"
    doc = json.loads(out)
    bad = [v for v in _floats(doc) if not math.isfinite(v)]
    if bad:
        return f"non-finite values {bad}"
    for row in doc["rows"]:
        for key, v in row.items():
            if (key == "std_error" or key.endswith("_se")) and not v >= 0:
                return f"{key} = {v} is negative"
            if (key == "estimate" and kind in PROBABILITY_KINDS
                    and not 0.0 <= v <= 1.0):
                return f"estimate = {v} is not a probability"
    return None


def _run_grid(kind, t_cs, tmp_path, capsys):
    cfg = tmp_path / "cfg.ini"
    breaches = []
    for label, text in _configs(kind, t_cs):
        cfg.write_text(text)
        code = cli.main([kind, "--config", str(cfg), "--format", "json"])
        out, err = capsys.readouterr()
        breach = _breach(kind, code, out, err)
        if breach is not None:
            breaches.append(f"{label}: {breach}")
    return breaches


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("kind", list(cli.KINDS))
def test_accepted_input_exits_0_or_2(kind, tmp_path, capsys):
    assert _run_grid(kind, T_C, tmp_path, capsys) == []


@pytest.mark.filterwarnings("error")
@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "ROADMAP item 12, step 2: at t_c = 1e-300 the per-trial lower bound is "
    "about -1.44e300 and its square overflows in the engine's sums; with "
    "warnings as errors the run exits 3 with 'overflow encountered in "
    "multiply', and without them with 'lower_se = nan is not finite'"))
@pytest.mark.parametrize("kind", ["capacity-ergodic", "imperfect"])
def test_tiny_coherence_time_exits_0_or_2(kind, tmp_path, capsys):
    assert _run_grid(kind, [1e-300], tmp_path, capsys) == []
