"""Command-line interface.

Usage:
    beaconsim <kind> --config <path> [--set SECTION.KEY=VALUE]...
              [--out <path>] [--format csv|json] [--threads N]

Kinds: miss-sweep, joint-sweep, diversity, capacity-ergodic,
capacity-outage, imperfect, throughput, multiuser, selfcheck.

The configuration file uses INI syntax ([section], key = value, comments
with '#').  Values are parsed as Python literals where possible (numbers,
quoted strings, lists); anything else is kept as a plain string.  The
--set flag overrides single keys after the file is read.

Exit codes: 0 success, 2 configuration error, 3 numeric error or out of
memory during estimation, 4 input/output error.  Output is deterministic:
the same configuration and seed produce byte-identical files regardless of
thread count.
"""

from __future__ import annotations

import argparse
import ast
import configparser
import csv
import io
import json
import sys

import numpy as np

from .analysis import (
    SweepSpec,
    db_to_linear,
    estimate_diversity,
    estimate_joint_success_curve,
    estimate_miss_curve,
)
from .capacity import (
    ActivityModel,
    OverheadParams,
    ergodic_capacity,
    imperfect_capacity,
    outage_capacity,
    relative_capacity_loss,
    throughput_loss_bound,
    throughput_loss_mc,
    wrong_relay_bound,
    wrong_relay_probability_mc,
)
from .channel import MeanGains, MultiuserMeans
from .protocols import MAX_PAIRS, Scheme, split_channel_uses

_SELFCHECK_SEED = 20240601


class ConfigError(Exception):
    """Problem with the provided configuration."""


# ---------------------------------------------------------------------------
# Configuration loading
# ---------------------------------------------------------------------------

SECTION_KEYS = {
    "run": ("seed", "n_trials", "chunk"),
    "channel": ("pt", "pr", "tr"),
    "protocol": ("scheme", "d", "alpha", "d1", "d2"),
    "sweep": ("rho_db", "mode", "side"),
    "multiuser": ("m_pairs", "primary", "inter", "user", "pair"),
    "capacity": ("p_theta_t", "p_theta_joint", "t_c", "epsilons", "sigma2"),
    "throughput": ("t_cr", "w1", "w2"),
}
# Keys with a fixed set of values, checked for every kind that accepts the
# section, including kinds that ignore the key.
_KEY_VALUES = {
    ("sweep", "mode"): ("channel", "tail"),
    ("sweep", "side"): ("t", "r"),
}


def _parse_value(raw: str):
    try:
        return ast.literal_eval(raw)
    except (ValueError, SyntaxError):
        return raw


def load_config(path: str) -> dict:
    """Read an INI file into a {(section, key): value} mapping."""
    text = open(path, "r", encoding="utf-8").read()
    parser = configparser.ConfigParser(
        interpolation=None, inline_comment_prefixes=("#",)
    )
    parser.optionxform = str
    try:
        parser.read_string(text, source=path)
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse {path}: {exc}") from exc
    data = {}
    for section in parser.sections():
        for key, raw in parser.items(section):
            data[(section, key)] = _parse_value(raw)
    return data


def apply_overrides(data: dict, overrides: list[str]) -> None:
    for item in overrides:
        head, sep, raw = item.partition("=")
        if not sep or "." not in head:
            raise ConfigError(
                f"--set expects SECTION.KEY=VALUE, got {item!r}"
            )
        section, _, key = head.partition(".")
        data[(section.strip(), key.strip())] = _parse_value(raw.strip())


def check_schema(kind: str, data: dict) -> None:
    sections = KINDS[kind][1]
    for (section, key), value in data.items():
        if section not in sections:
            raise ConfigError(f"unknown section [{section}] for kind {kind}")
        if key not in SECTION_KEYS[section]:
            raise ConfigError(
                f"unknown key {section}.{key} for kind {kind}"
            )
        allowed = _KEY_VALUES.get((section, key))
        if allowed and value not in allowed:
            raise ConfigError(f"{section}.{key} must be "
                              + " or ".join(map(repr, allowed)))


class Conf:
    """Typed access to configuration values with precise error messages."""

    def __init__(self, data: dict):
        self.data = data

    def has(self, section: str, key: str) -> bool:
        return (section, key) in self.data

    def _get(self, section, key, default, required):
        if (section, key) in self.data:
            return self.data[(section, key)]
        if required:
            raise ConfigError(f"missing required key {section}.{key}")
        return default

    def get_int(self, section, key, default=None, required=False):
        v = self._get(section, key, default, required)
        if v is None:
            return None
        if isinstance(v, bool) or not isinstance(v, int):
            raise ConfigError(f"{section}.{key} must be an integer, got {v!r}")
        return v

    def get_float(self, section, key, default=None, required=False):
        v = self._get(section, key, default, required)
        if v is None:
            return None
        if isinstance(v, bool) or not isinstance(v, (int, float)):
            raise ConfigError(f"{section}.{key} must be a number, got {v!r}")
        return float(v)

    def get_str(self, section, key, default=None, required=False):
        v = self._get(section, key, default, required)
        if v is None:
            return None
        if not isinstance(v, str):
            raise ConfigError(f"{section}.{key} must be a string, got {v!r}")
        return v

    def get_numlist(self, section, key, default=None, required=False):
        v = self._get(section, key, default, required)
        if v is None:
            return None
        if isinstance(v, bool):
            raise ConfigError(f"{section}.{key} must be numeric, got {v!r}")
        if isinstance(v, (int, float)):
            return [float(v)]
        if isinstance(v, (list, tuple)) and v and all(
            isinstance(x, (int, float)) and not isinstance(x, bool) for x in v
        ):
            return [float(x) for x in v]
        raise ConfigError(
            f"{section}.{key} must be a number or a nonempty list of numbers"
        )


def _build(factory, *args, **kwargs):
    """Run a constructor, converting its ValueError into a ConfigError."""
    try:
        return factory(*args, **kwargs)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


# ---------------------------------------------------------------------------
# Shared builders
# ---------------------------------------------------------------------------


def resolve_split(conf: Conf) -> tuple[int, int]:
    explicit = conf.has("protocol", "d1") or conf.has("protocol", "d2")
    total = conf.has("protocol", "d") or conf.has("protocol", "alpha")
    if explicit and total:
        raise ConfigError(
            "specify either protocol.d1/d2 or protocol.d/alpha, not both"
        )
    if explicit:
        d1 = conf.get_int("protocol", "d1", required=True)
        d2 = conf.get_int("protocol", "d2", required=True)
        if d1 < 1 or d2 < 1:
            raise ConfigError("protocol.d1 and protocol.d2 must be >= 1")
        return d1, d2
    d = conf.get_int("protocol", "d", default=2)
    alpha = conf.get_float("protocol", "alpha", default=0.5)
    return _build(split_channel_uses, d, alpha)


def resolve_scheme(conf: Conf, default=None) -> Scheme:
    raw = conf.get_str("protocol", "scheme",
                       default=default, required=default is None)
    return _build(Scheme, raw)


def build_pair_means(conf: Conf) -> MeanGains:
    return _build(
        MeanGains,
        conf.get_float("channel", "pt", required=True),
        conf.get_float("channel", "pr", required=True),
        conf.get_float("channel", "tr", required=True),
    )


def build_multiuser_means(conf: Conf) -> MultiuserMeans:
    m_pairs = conf.get_int("multiuser", "m_pairs", required=True)
    if m_pairs > MAX_PAIRS:
        raise ConfigError(f"multiuser.m_pairs must be <= {MAX_PAIRS}")
    return _build(
        MultiuserMeans.uniform,
        m_pairs,
        conf.get_float("multiuser", "primary", required=True),
        conf.get_float("multiuser", "inter", required=True),
    )


def run_params(conf: Conf) -> tuple[int, int, int | None]:
    """The [run] section as (seed, n_trials, chunk); chunk may be None."""
    seed = conf.get_int("run", "seed", required=True)
    n_trials = conf.get_int("run", "n_trials", required=True)
    chunk = conf.get_int("run", "chunk")
    if seed < 0:
        raise ConfigError("run.seed must be >= 0")
    if n_trials < 1:
        raise ConfigError("run.n_trials must be >= 1")
    if chunk is not None and chunk < 1:
        raise ConfigError("run.chunk must be >= 1")
    return seed, n_trials, chunk


def build_sweep_spec(conf: Conf, scheme: Scheme, threads: int,
                     mode_default="channel") -> SweepSpec:
    # mucsa reads [multiuser], every pair scheme [channel]: refuse the other
    # section rather than accept keys that are never checked
    unread = "channel" if scheme is Scheme.MUCSA else "multiuser"
    if any(section == unread for section, _key in conf.data):
        raise ConfigError(
            f"section [{unread}] is not read by scheme {scheme.value}")
    if scheme is Scheme.MUCSA:
        means = build_multiuser_means(conf)
    else:
        means = build_pair_means(conf)
    d1, d2 = resolve_split(conf)
    seed, n_trials, chunk = run_params(conf)
    return _build(
        SweepSpec,
        scheme=scheme,
        means=means,
        rho_db=tuple(conf.get_numlist("sweep", "rho_db", required=True)),
        n_trials=n_trials,
        seed=seed,
        d1=d1,
        d2=d2,
        mode=conf.get_str("sweep", "mode", default=mode_default),
        threads=threads,
        chunk=chunk,
    )


def get_side(conf: Conf) -> str:
    return conf.get_str("sweep", "side", default="t")


def get_index(conf: Conf, key: str, count: int) -> int:
    """multiuser.<key> (default 0), checked to lie in [0, count); a kind
    reads "user" or "pair", never both, so the other key is refused."""
    other = "pair" if key == "user" else "user"
    if conf.has("multiuser", other):
        raise ConfigError(f"multiuser.{other} is not read by this kind")
    value = conf.get_int("multiuser", key, default=0)
    if not 0 <= value < count:
        raise ConfigError(f"multiuser.{key} must lie in [0, {count - 1}]")
    return value


# ---------------------------------------------------------------------------
# Kind runners: each returns (rows, extra_meta)
# ---------------------------------------------------------------------------


def _curve_rows(res) -> list[dict]:
    return [{"rho_db": r, "estimate": e, "std_error": se}
            for r, e, se in zip(res.rho_db, res.estimate, res.std_error)]


def _miss_curve(conf: Conf, threads: int, scheme: Scheme, side: str = "t"):
    """Miss-curve rows and meta, plus the user a mucsa curve is for."""
    spec = build_sweep_spec(conf, scheme, threads)
    user = 0
    if scheme is Scheme.MUCSA:
        user = get_index(conf, "user", spec.means.n_users)
    res = estimate_miss_curve(spec, side=side, user=user)
    return _curve_rows(res), {"scheme": scheme.value, "mode": spec.mode}, user


def run_miss_sweep(conf: Conf, threads: int):
    rows, meta, _user = _miss_curve(conf, threads, resolve_scheme(conf),
                                    get_side(conf))
    return rows, meta


def run_joint_sweep(conf: Conf, threads: int):
    scheme = resolve_scheme(conf)
    spec = build_sweep_spec(conf, scheme, threads)
    if spec.mode != "channel":
        raise ConfigError("joint-sweep supports sweep.mode = 'channel' only")
    pair = 0
    if scheme is Scheme.MUCSA:
        pair = get_index(conf, "pair", spec.means.n_users // 2)
    res = estimate_joint_success_curve(spec, pair=pair)
    return _curve_rows(res), {"scheme": scheme.value, "mode": spec.mode}


def run_diversity(conf: Conf, threads: int):
    scheme = resolve_scheme(conf)
    spec = build_sweep_spec(conf, scheme, threads, mode_default="tail")
    user = 0
    if scheme is Scheme.MUCSA:
        user = get_index(conf, "user", spec.means.n_users)
    fit = estimate_diversity(spec, side=get_side(conf), user=user)
    rows = [{
        "scheme": scheme.value,
        "mode": spec.mode,
        "order": fit.order,
        "residual": fit.residual,
        "n_points": len(spec.rho_db),
    }]
    return rows, {"scheme": scheme.value, "mode": spec.mode}


def _capacity_setup(conf: Conf, threads: int):
    scheme = resolve_scheme(conf)
    if scheme is Scheme.MUCSA:
        raise ConfigError("capacity kinds support nc, csa and ocsa only")
    means = build_pair_means(conf)
    d1, d2 = resolve_split(conf)
    activity = _build(
        ActivityModel,
        conf.get_float("capacity", "p_theta_t", required=True),
        conf.get_float("capacity", "p_theta_joint", required=True),
    )
    t_c = conf.get_float("capacity", "t_c", required=True)
    if t_c <= 0:
        raise ConfigError("capacity.t_c must be positive")
    seed, n, chunk = run_params(conf)
    common = dict(
        means=means,
        activity=activity,
        t_c=t_c,
        n=n,
        seed=seed,
        d1=d1,
        d2=d2,
        threads=threads,
        chunk=chunk,
    )
    rho_db = conf.get_numlist("sweep", "rho_db", required=True)
    return scheme, common, rho_db


def run_capacity_ergodic(conf: Conf, threads: int):
    scheme, common, rho_db = _capacity_setup(conf, threads)
    rows = []
    for rdb in rho_db:
        est = ergodic_capacity(scheme, rho=db_to_linear(rdb), **common)
        rows.append({
            "rho_db": rdb,
            "upper_mean": est.upper_mean, "upper_se": est.upper_se,
            "lower_mean": est.lower_mean, "lower_se": est.lower_se,
        })
    return rows, {"scheme": scheme.value}


def run_capacity_outage(conf: Conf, threads: int):
    scheme, common, rho_db = _capacity_setup(conf, threads)
    epsilons = conf.get_numlist("capacity", "epsilons", required=True)
    for e in epsilons:
        if not 0.0 < e < 1.0:
            raise ConfigError("capacity.epsilons entries must lie in (0, 1)")
    sigma2 = conf.get_float("capacity", "sigma2", default=0.0)
    rows = []
    for rdb in rho_db:
        res = outage_capacity(scheme, rho=db_to_linear(rdb),
                              epsilons=epsilons, sigma2=sigma2, **common)
        for i, eps in enumerate(res.epsilons):
            rows.append({
                "rho_db": rdb,
                "epsilon": eps,
                "upper": res.upper[i],
                "lower": res.lower[i],
            })
    return rows, {"scheme": scheme.value}


def run_imperfect(conf: Conf, threads: int):
    scheme, common, rho_db = _capacity_setup(conf, threads)
    sigma2s = conf.get_numlist("capacity", "sigma2", required=True)
    for s2 in sigma2s:
        if s2 < 0:
            raise ConfigError("capacity.sigma2 entries must be nonnegative")
    means = common["means"]
    mc_kw = {k: common[k]
             for k in ("means", "n", "seed", "d1", "d2", "threads", "chunk")}
    rows = []
    for rdb in rho_db:
        rho = db_to_linear(rdb)
        base = ergodic_capacity(scheme, rho=rho, **common)
        for s2 in sigma2s:
            est = (base if s2 == 0 else
                   imperfect_capacity(scheme, rho=rho, sigma2=s2, **common))
            mc, se = wrong_relay_probability_mc(s2, rho=rho, **mc_kw)
            rows.append({
                "rho_db": rdb,
                "sigma2": s2,
                "upper_mean": est.upper_mean, "upper_se": est.upper_se,
                "lower_mean": est.lower_mean, "lower_se": est.lower_se,
                "relative_upper_loss": relative_capacity_loss(base, est),
                "wrong_relay_mc": mc,
                "wrong_relay_se": se,
                "wrong_relay_bound": wrong_relay_bound(s2, means),
            })
    return rows, {"scheme": scheme.value}


def run_throughput(conf: Conf, threads: int):
    means = build_pair_means(conf)
    d1, d2 = resolve_split(conf)
    rho_db = conf.get_numlist("sweep", "rho_db", required=True)
    if len(rho_db) != 1:
        raise ConfigError("throughput expects a single sweep.rho_db value")
    rho = db_to_linear(rho_db[0])
    t_cr = conf.get_float("throughput", "t_cr", default=1.0)
    w1s = conf.get_numlist("throughput", "w1", required=True)
    w2s = conf.get_numlist("throughput", "w2", required=True)
    seed, n, chunk = run_params(conf)
    rows = []
    for w1 in w1s:
        for w2 in w2s:
            ov = _build(OverheadParams, t_cr=t_cr, t_fb=w1 * t_cr,
                        beta=w2 * t_cr * means.pt, lambda_pt=means.pt)
            mc, se = throughput_loss_mc(ov, means, rho, n, seed,
                                        d1=d1, d2=d2, threads=threads,
                                        chunk=chunk)
            rows.append({
                "w1": ov.w1,
                "w2": ov.w2,
                "loss_mc": mc,
                "loss_se": se,
                "loss_bound": throughput_loss_bound(ov),
            })
    return rows, {"rho_db": rho_db[0]}


def run_multiuser(conf: Conf, threads: int):
    if conf.has("protocol", "scheme"):
        if resolve_scheme(conf) is not Scheme.MUCSA:
            raise ConfigError("the multiuser kind requires scheme 'mucsa'")
    rows, meta, user = _miss_curve(conf, threads, Scheme.MUCSA)
    return rows, {**meta, "user": user}


_SWEEP_SECTIONS = ("run", "channel", "protocol", "sweep", "multiuser")
_CAPACITY_SECTIONS = ("run", "channel", "protocol", "sweep", "capacity")

# kind -> (runner, config sections the kind accepts)
KINDS = {
    "miss-sweep": (run_miss_sweep, _SWEEP_SECTIONS),
    "joint-sweep": (run_joint_sweep, _SWEEP_SECTIONS),
    "diversity": (run_diversity, _SWEEP_SECTIONS),
    "capacity-ergodic": (run_capacity_ergodic, _CAPACITY_SECTIONS),
    "capacity-outage": (run_capacity_outage, _CAPACITY_SECTIONS),
    "imperfect": (run_imperfect, _CAPACITY_SECTIONS),
    "throughput": (run_throughput,
                   ("run", "channel", "protocol", "sweep", "throughput")),
    "multiuser": (run_multiuser, ("run", "multiuser", "protocol", "sweep")),
}


# ---------------------------------------------------------------------------
# Self check
# ---------------------------------------------------------------------------


def run_selfcheck() -> tuple[str, bool]:
    """Quick built-in battery; returns (report text, all passed)."""
    from .protocols import (
        ProtocolConfig,
        csa_conditional_miss,
        ocsa_conditional_miss,
        ocsa_joint_success,
    )
    from .fadeprob import exp_q_mean
    from .capacity import capacity_draws

    lines = []
    ok_all = True

    def check(name, passed):
        nonlocal ok_all
        ok_all = ok_all and passed
        lines.append(f"{name}: {'ok' if passed else 'FAIL'}")

    cfg = ProtocolConfig(rho=10.0)
    check("degenerate-channel values",
          csa_conditional_miss(cfg, 0.0, 0.0, 0.0) == 0.375
          and ocsa_conditional_miss(cfg, 0.0, 0.0, 0.0) == 0.25
          and ocsa_joint_success(cfg, 0.0, 0.0, 0.0) == 0.5625)

    means = MeanGains(1.0, 2.0, 3.0)
    spec = SweepSpec(scheme=Scheme.NC, means=means, rho_db=(10.0,),
                     n_trials=20_000, seed=_SELFCHECK_SEED, mode="tail")
    res = estimate_miss_curve(spec)
    want = exp_q_mean(2 * 10.0, means.pt)
    check("closed-form agreement",
          abs(res.estimate[0] - want) < 5 * res.std_error[0] + 1e-9)

    res2 = estimate_miss_curve(spec)
    spec4 = SweepSpec(scheme=Scheme.NC, means=means, rho_db=(10.0,),
                      n_trials=20_000, seed=_SELFCHECK_SEED, mode="tail",
                      threads=4, chunk=5_000)
    res4 = estimate_miss_curve(spec4)
    spec1 = SweepSpec(scheme=Scheme.NC, means=means, rho_db=(10.0,),
                      n_trials=20_000, seed=_SELFCHECK_SEED, mode="tail",
                      threads=1, chunk=5_000)
    res1 = estimate_miss_curve(spec1)
    check("deterministic reruns",
          res.estimate[0] == res2.estimate[0]
          and res1.estimate[0] == res4.estimate[0])

    act = ActivityModel(p_theta_t=0.85, p_theta_joint=0.7)
    up, lo = capacity_draws(Scheme.OCSA, means, act, rho=1.0, t_c=10.0,
                            n=2_000, seed=_SELFCHECK_SEED)
    check("capacity bound ordering", bool(np.all(lo <= up + 1e-12)))

    return "\n".join(lines) + "\n", ok_all


# ---------------------------------------------------------------------------
# Output
# ---------------------------------------------------------------------------


def _csv_cell(v) -> str:
    if isinstance(v, bool):
        return str(v)
    if isinstance(v, float):
        return "%.10g" % v
    return str(v)


def render_output(rows, meta, fmt: str) -> str:
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        header = list(rows[0].keys()) if rows else []
        writer.writerow(header)
        for row in rows:
            writer.writerow([_csv_cell(row[k]) for k in header])
        return buf.getvalue()
    doc = {"meta": meta, "rows": rows}
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _json_ready(v):
    if isinstance(v, (list, tuple)):
        return [_json_ready(x) for x in v]
    if isinstance(v, np.generic):
        return v.item()
    return v


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="beaconsim",
        description="Simulation and analysis of beacon-assisted spectrum access",
    )
    parser.add_argument("kind", choices=(*KINDS, "selfcheck"))
    parser.add_argument("--config", help="INI configuration file")
    parser.add_argument("--set", action="append", default=[], dest="overrides",
                        metavar="SECTION.KEY=VALUE",
                        help="override one configuration key")
    parser.add_argument("--out", help="output path (default: stdout)")
    parser.add_argument("--format", choices=("csv", "json"), default="csv")
    parser.add_argument("--threads", type=int, default=1)
    args = parser.parse_args(argv)

    if args.kind == "selfcheck":
        report, ok = run_selfcheck()
        sys.stdout.write(report)
        return 0 if ok else 3

    try:
        if not args.config:
            raise ConfigError(f"kind {args.kind} requires --config")
        if args.threads < 1:
            raise ConfigError("--threads must be >= 1")
        try:
            data = load_config(args.config)
        except OSError as exc:
            print(f"beaconsim: i/o error: {exc}", file=sys.stderr)
            return 4
        apply_overrides(data, args.overrides)
        check_schema(args.kind, data)
        conf = Conf(data)
        seed, _n_trials, _chunk = run_params(conf)
    except ConfigError as exc:
        print(f"beaconsim: config error: {exc}", file=sys.stderr)
        return 2

    try:
        rows, extra = KINDS[args.kind][0](conf, args.threads)
    except ConfigError as exc:
        print(f"beaconsim: config error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, ArithmeticError) as exc:
        print(f"beaconsim: numeric error: {exc}", file=sys.stderr)
        return 3
    except MemoryError as exc:
        print(f"beaconsim: out of memory: {exc}", file=sys.stderr)
        return 3

    meta = {
        "kind": args.kind,
        "seed": seed,
        "threads": args.threads,
        "config": {
            f"{s}.{k}": _json_ready(v) for (s, k), v in sorted(data.items())
        },
    }
    meta.update(extra)
    rows = [{k: _json_ready(v) for k, v in row.items()} for row in rows]
    text = render_output(rows, meta, args.format)

    try:
        if args.out:
            with open(args.out, "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
    except OSError as exc:
        print(f"beaconsim: i/o error: {exc}", file=sys.stderr)
        return 4
    return 0


if __name__ == "__main__":
    sys.exit(main())
