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
import math
import sys
from dataclasses import replace

import numpy as np

from .analysis import (
    SweepSpec,
    _ZeroMiss,
    db_to_linear,
    estimate_diversity,
    estimate_joint_success_curve,
    estimate_miss_curve,
)
# imperfect_capacity and wrong_relay_probability_mc are unused but stay
# bound: perfbench hooks them here
from .capacity import (  # noqa: F401
    ActivityModel,
    OverheadParams,
    ergodic_capacity,
    imperfect_capacity,
    imperfect_estimates,
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

def _parse_value(raw: str):
    try:
        return ast.literal_eval(raw)
    except (ValueError, SyntaxError):
        return raw


def load_config(path: str) -> dict:
    """Read an INI file into a {(section, key): value} mapping."""
    # no header names the empty section, so [DEFAULT] is an ordinary section
    # instead of keys copied into every other one
    parser = configparser.ConfigParser(
        interpolation=None, inline_comment_prefixes=("#",), default_section=""
    )
    parser.optionxform = str
    with open(path, "r", encoding="utf-8") as fh:
        try:
            parser.read_file(fh, source=path)
        except (configparser.Error, UnicodeDecodeError) as exc:
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
    _run, reads, _schemes, values = KINDS[kind]
    who = f"kind {kind}"
    scheme = data.get(("protocol", "scheme"))
    if "channel" in reads and "multiuser" in reads and scheme in list(Scheme):
        # mucsa reads [multiuser], every pair scheme [channel]: refuse the
        # other section rather than accept keys that are never checked
        unread = "channel" if scheme == "mucsa" else "multiuser"
        if any(section == unread for section, _key in data):
            raise ConfigError(
                f"section [{unread}] is not read by scheme {scheme}")
        if scheme == "mucsa":
            # multiuser.user picks the mucsa node, so sweep.side is unread
            values = {**values, "side": ("t",)}
            who += " and scheme mucsa"
    for (section, key), value in data.items():
        if section not in reads:
            raise ConfigError(f"unknown section [{section}] for kind {kind}")
        if key not in reads[section]:
            raise ConfigError(f"{section}.{key} is not read by kind {kind}")
        allowed = values.get(key) if section == "sweep" else None
        if allowed and value not in allowed:
            raise ConfigError(f"sweep.{key} must be " + " or ".join(
                map(repr, allowed)) + f" for {who}")


class Conf:
    """Typed access to configuration values with precise error messages."""

    def __init__(self, data: dict):
        self.data = data

    def has(self, section: str, key: str) -> bool:
        return (section, key) in self.data

    def _get(self, section, key, default, required, valid, what):
        """The value (checked by valid), or default when the key is absent."""
        if (section, key) not in self.data:
            if required:
                raise ConfigError(f"missing required key {section}.{key}")
            return default
        v = self.data[(section, key)]
        if not valid(v):
            raise ConfigError(f"{section}.{key} must be {what}, got {v!r}")
        return v

    def get_int(self, section, key, default=None, required=False):
        return self._get(section, key, default, required,
                         lambda v: _is_number(v) and isinstance(v, int),
                         "an integer")

    def get_float(self, section, key, default=None, required=False):
        v = self._get(section, key, default, required, _is_number, "a number")
        return None if v is None else float(v)

    def get_str(self, section, key, default=None, required=False):
        return self._get(section, key, default, required,
                         lambda v: isinstance(v, str), "a string")

    def get_numlist(self, section, key, default=None, required=False):
        v = self._get(section, key, default, required, lambda v: _is_number(v)
                      or (isinstance(v, (list, tuple)) and v
                          and all(map(_is_number, v))),
                      "a number or a nonempty list of numbers")
        if v is None:
            return None
        return [float(x) for x in (v if isinstance(v, (list, tuple)) else [v])]


def _is_number(v) -> bool:
    # ints are exact, so only a float can be non-finite (1e400 reads as inf)
    return (isinstance(v, int) and not isinstance(v, bool)
            or isinstance(v, float) and math.isfinite(v))


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


def resolve_scheme(conf: Conf, kind: str) -> Scheme:
    """protocol.scheme, one of the schemes the kind runs; for a kind that
    runs only one scheme, the key may be left out."""
    schemes = KINDS[kind][2]
    only = schemes[0] if len(schemes) == 1 else None
    scheme = _build(Scheme, conf.get_str("protocol", "scheme", default=only,
                                         required=only is None))
    if scheme not in schemes:
        *head, last = (f"'{s.value}'" for s in schemes)
        listed = f"{', '.join(head)} or {last}" if head else last
        raise ConfigError(f"{kind} supports protocol.scheme = {listed} only")
    return scheme


def _sweep_value(conf: Conf, kind: str, key: str) -> str:
    """sweep.<key>, or the kind's default: the first value KINDS lists."""
    return conf.get_str("sweep", key, default=KINDS[kind][3][key][0])


def build_sweep_spec(conf: Conf, kind: str, scheme: Scheme,
                     threads: int) -> tuple[SweepSpec, int]:
    """The shared sections as a SweepSpec, and the mucsa multiuser.user
    index, checked against the 2M users; 0 for the pair schemes."""
    if scheme is Scheme.MUCSA:
        m_pairs = conf.get_int("multiuser", "m_pairs", required=True)
        if m_pairs > MAX_PAIRS:
            raise ConfigError(f"multiuser.m_pairs must be <= {MAX_PAIRS}")
        means = _build(
            MultiuserMeans.uniform,
            m_pairs,
            conf.get_float("multiuser", "primary", required=True),
            conf.get_float("multiuser", "inter", required=True),
        )
    else:
        means = _build(
            MeanGains,
            conf.get_float("channel", "pt", required=True),
            conf.get_float("channel", "pr", required=True),
            conf.get_float("channel", "tr", required=True),
        )
    d1, d2 = resolve_split(conf)
    seed = conf.get_int("run", "seed", required=True)
    n_trials = conf.get_int("run", "n_trials", required=True)
    chunk = conf.get_int("run", "chunk")
    if seed < 0:
        raise ConfigError("run.seed must be >= 0")
    if n_trials < 1:
        raise ConfigError("run.n_trials must be >= 1")
    if chunk is not None and chunk < 1:
        raise ConfigError("run.chunk must be >= 1")
    spec = _build(
        SweepSpec,
        scheme=scheme,
        means=means,
        rho_db=tuple(conf.get_numlist("sweep", "rho_db", required=True)),
        n_trials=n_trials,
        seed=seed,
        d1=d1,
        d2=d2,
        mode=_sweep_value(conf, kind, "mode"),
        threads=threads,
        chunk=chunk,
    )
    # a pair scheme never gets here with a [multiuser] section
    user = conf.get_int("multiuser", "user", default=0)
    if scheme is Scheme.MUCSA and not 0 <= user < spec.means.n_users:
        raise ConfigError("multiuser.user must lie in "
                          f"[0, {spec.means.n_users - 1}]")
    return spec, user


# ---------------------------------------------------------------------------
# Kind runners: each takes (conf, spec, user), with spec and user from
# build_sweep_spec, reads its own sections and returns (rows, extra_meta)
# ---------------------------------------------------------------------------


def _rows(**columns) -> list[dict]:
    """One row per cell of the broadcast columns, in C order."""
    cols = np.broadcast_arrays(*columns.values())
    return [dict(zip(columns, cell))
            for cell in zip(*(c.ravel().tolist() for c in cols))]


def _meta(spec: SweepSpec, res, **meta) -> dict:
    """The meta of a SweepResult; only a curve that is not a plain mean
    names its estimator."""
    if res.estimator != "mean":
        meta["estimator"] = res.estimator
    return {"scheme": spec.scheme.value, "mode": spec.mode, **meta}


def _curve(spec: SweepSpec, res, **meta):
    """The rows and meta of a SweepResult along spec's rho grid."""
    rows = _rows(rho_db=res.rho_db, estimate=res.estimate,
                 std_error=res.std_error)
    return rows, _meta(spec, res, **meta)


def run_miss_sweep(conf: Conf, spec: SweepSpec, user: int):
    side = _sweep_value(conf, "miss-sweep", "side")
    return _curve(spec, estimate_miss_curve(spec, side=side, user=user))


def run_joint_sweep(conf: Conf, spec: SweepSpec, user: int):
    return _curve(spec, estimate_joint_success_curve(spec))


def run_diversity(conf: Conf, spec: SweepSpec, user: int):
    if len(set(spec.rho_db)) < 2:
        raise ConfigError("diversity needs two distinct sweep.rho_db values")
    fit = estimate_diversity(
        spec, side=_sweep_value(conf, "diversity", "side"), user=user)
    rows = _rows(scheme=spec.scheme.value, mode=spec.mode, order=fit.order,
                 residual=fit.residual, n_points=len(spec.rho_db))
    return rows, _meta(spec, fit.result)


def _mc_args(spec: SweepSpec) -> dict:
    return dict(n=spec.n_trials, seed=spec.seed, d1=spec.d1, d2=spec.d2,
                threads=spec.threads, chunk=spec.chunk)


def _capacity_args(conf: Conf, spec: SweepSpec) -> dict:
    """The capacity estimators' kwargs from spec and the [capacity] keys."""
    activity = _build(
        ActivityModel,
        conf.get_float("capacity", "p_theta_t", required=True),
        conf.get_float("capacity", "p_theta_joint", required=True),
    )
    t_c = conf.get_float("capacity", "t_c", required=True)
    if t_c <= 0:
        raise ConfigError("capacity.t_c must be positive")
    if min(conf.get_numlist("capacity", "sigma2", default=[0.0])) < 0:
        raise ConfigError("capacity.sigma2 must be nonnegative")
    rho = np.array([db_to_linear(r) for r in spec.rho_db])
    return dict(means=spec.means, activity=activity, t_c=t_c, rho=rho,
                **_mc_args(spec))


def run_capacity_ergodic(conf: Conf, spec: SweepSpec, user: int):
    est = ergodic_capacity(spec.scheme, **_capacity_args(conf, spec))
    return _rows(rho_db=spec.rho_db,
                 upper_mean=est.upper_mean, upper_se=est.upper_se,
                 lower_mean=est.lower_mean, lower_se=est.lower_se), \
        {"scheme": spec.scheme.value}


def run_capacity_outage(conf: Conf, spec: SweepSpec, user: int):
    common = _capacity_args(conf, spec)
    epsilons = conf.get_numlist("capacity", "epsilons", required=True)
    for e in epsilons:
        if not 0.0 < e < 1.0:
            raise ConfigError("capacity.epsilons entries must lie in (0, 1)")
    sigma2 = conf.get_float("capacity", "sigma2", default=0.0)
    if sigma2 != 0 and spec.scheme is not Scheme.OCSA:
        # nc and csa select no relay, so metric noise would change nothing
        raise ConfigError("capacity.sigma2 must be 0 for scheme "
                          f"{spec.scheme.value}; only ocsa reads it")
    rows = []
    # one rho at a time: the outage order statistic holds all n draws
    for rdb, rho in zip(spec.rho_db, common.pop("rho")):
        res = outage_capacity(spec.scheme, rho=rho, epsilons=epsilons,
                              sigma2=sigma2, **common)
        rows += _rows(rho_db=rdb, epsilon=res.epsilons, upper=res.upper,
                      lower=res.lower)
    return rows, {"scheme": spec.scheme.value}


def run_imperfect(conf: Conf, spec: SweepSpec, user: int):
    common = _capacity_args(conf, spec)
    sigma2s = conf.get_numlist("capacity", "sigma2", required=True)
    # one pass over the rho x sigma2 grid, with the noiseless baseline of
    # the relative loss and the wrong-relay cells
    est, base, (mc, se) = imperfect_estimates(
        rho=common.pop("rho")[:, None], sigma2=sigma2s, **common)
    rows = _rows(
        rho_db=np.array(spec.rho_db)[:, None], sigma2=sigma2s,
        upper_mean=est.upper_mean, upper_se=est.upper_se,
        lower_mean=est.lower_mean, lower_se=est.lower_se,
        relative_upper_loss=relative_capacity_loss(base, est),
        wrong_relay_mc=mc, wrong_relay_se=se,
        wrong_relay_bound=[wrong_relay_bound(s2, spec.means)
                           for s2 in sigma2s])
    return rows, {"scheme": spec.scheme.value}


def run_throughput(conf: Conf, spec: SweepSpec, user: int):
    if len(spec.rho_db) != 1:
        raise ConfigError("throughput expects a single sweep.rho_db value")
    t_cr = conf.get_float("throughput", "t_cr", default=1.0)
    w1s = conf.get_numlist("throughput", "w1", required=True)
    w2s = conf.get_numlist("throughput", "w2", required=True)
    grid = [(w1, w2) for w1 in w1s for w2 in w2s]
    ovs = [_build(OverheadParams, t_cr=t_cr, t_fb=w1 * t_cr,
                  beta=w2 * t_cr * spec.means.pt, lambda_pt=spec.means.pt)
           for w1, w2 in grid]
    mc, se = throughput_loss_mc(ovs, spec.means, db_to_linear(spec.rho_db[0]),
                                **_mc_args(spec))
    # the configured values: ov.w1 = (w1 t_cr) / t_cr need not round back
    rows = _rows(w1=[w1 for w1, _w2 in grid], w2=[w2 for _w1, w2 in grid],
                 loss_mc=mc, loss_se=se,
                 loss_bound=[throughput_loss_bound(ov) for ov in ovs])
    return rows, {"rho_db": spec.rho_db[0]}


def run_multiuser(conf: Conf, spec: SweepSpec, user: int):
    return _curve(spec, estimate_miss_curve(spec, user=user), user=user)


_COMMON = {
    "run": ("seed", "n_trials", "chunk"),
    "protocol": ("scheme", "d", "alpha", "d1", "d2"),
    "sweep": ("rho_db", "mode", "side"),  # values: the last KINDS column
}
_PAIR = {**_COMMON, "channel": ("pt", "pr", "tr")}
_MULTI = ("m_pairs", "primary", "inter", "user")
_SWEEP = {**_PAIR, "multiuser": _MULTI}
_CAPACITY = ("p_theta_t", "p_theta_joint", "t_c")
_PAIR_SCHEMES, _OCSA = (Scheme.NC, Scheme.CSA, Scheme.OCSA), (Scheme.OCSA,)
_EITHER = {"mode": ("channel", "tail"), "side": ("t", "r")}
_CHANNEL_T = {"mode": ("channel",), "side": ("t",)}

# kind -> (runner, {section: keys the kind reads}, schemes it runs,
# {sweep key: values the kind runs, default first}); any other section, key,
# scheme or value is a configuration error
KINDS = {
    "miss-sweep": (run_miss_sweep, _SWEEP, tuple(Scheme), _EITHER),
    "joint-sweep": (run_joint_sweep, _PAIR, _PAIR_SCHEMES, _CHANNEL_T),
    # tail mode keeps the relative error uniform across the fitted grid
    "diversity": (run_diversity, _SWEEP, tuple(Scheme),
                  {**_EITHER, "mode": ("tail", "channel")}),
    "capacity-ergodic": (run_capacity_ergodic,
                         {**_PAIR, "capacity": _CAPACITY}, _PAIR_SCHEMES,
                         _CHANNEL_T),
    "capacity-outage": (run_capacity_outage,
                        {**_PAIR, "capacity": (*_CAPACITY, "epsilons",
                                               "sigma2")}, _PAIR_SCHEMES,
                        _CHANNEL_T),
    "imperfect": (run_imperfect, {**_PAIR, "capacity": (*_CAPACITY, "sigma2")},
                  _OCSA, _CHANNEL_T),
    "throughput": (run_throughput,
                   {**_PAIR, "throughput": ("t_cr", "w1", "w2")}, _OCSA,
                   _CHANNEL_T),
    "multiuser": (run_multiuser, {**_COMMON, "multiuser": _MULTI},
                  (Scheme.MUCSA,), {**_EITHER, "side": ("t",)}),
}


# ---------------------------------------------------------------------------
# Self check
# ---------------------------------------------------------------------------


def _agree(pairs) -> bool:
    """Whether each pair of one-point curves agrees within 4 combined SE."""
    return all(abs(t.estimate[0] - c.estimate[0])
               <= 4.0 * math.hypot(t.std_error[0], c.std_error[0])
               for t, c in pairs)


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
    res4, res1 = (estimate_miss_curve(replace(spec, threads=t, chunk=5_000))
                  for t in (4, 1))
    check("deterministic reruns",
          res.estimate[0] == res2.estimate[0]
          and res1.estimate[0] == res4.estimate[0])

    # channel mode shares no code with tail mode's fade kernels
    ocsa = replace(spec, scheme=Scheme.OCSA, rho_db=(0.0,))
    pairs = [[estimate_miss_curve(replace(ocsa, mode=mode), side=side)
              for mode in ("tail", "channel")] for side in "tr"]
    check("ocsa tail vs channel", _agree(pairs))
    # channel-mode mucsa runs the ratio control variate
    mucsa = replace(spec, scheme=Scheme.MUCSA, rho_db=(0.0,),
                    means=MultiuserMeans.uniform(2, 1.0, 1.5))
    check("mucsa channel vs tail", _agree([[
        estimate_miss_curve(replace(mucsa, mode=mode))
        for mode in ("tail", "channel")]]))

    act = ActivityModel(p_theta_t=0.85, p_theta_joint=0.7)
    up, lo = capacity_draws(Scheme.OCSA, means, act, rho=1.0, t_c=10.0,
                            n=2_000, seed=_SELFCHECK_SEED)
    check("capacity bound ordering", bool(np.all(lo <= up + 1e-12)))

    return "\n".join(lines) + "\n", ok_all


# ---------------------------------------------------------------------------
# Output
# ---------------------------------------------------------------------------


def _csv_cell(v) -> str:
    return "%.10g" % v if isinstance(v, float) else str(v)


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
    return json.dumps(doc, indent=2, sort_keys=True, allow_nan=False) + "\n"


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
        data = load_config(args.config)
        apply_overrides(data, args.overrides)
        conf = Conf(data)
        scheme = resolve_scheme(conf, args.kind)
        check_schema(args.kind, data)
        spec, user = build_sweep_spec(conf, args.kind, scheme, args.threads)
        rows, extra = KINDS[args.kind][0](conf, spec, user)
        for key, v in (cell for row in rows for cell in row.items()):
            if isinstance(v, float) and not math.isfinite(v):
                raise ValueError(f"{key} = {v} is not finite")
        # build_sweep_spec has checked run.seed; config values are literals,
        # which json writes as is
        meta = {
            "kind": args.kind,
            "seed": data[("run", "seed")],
            "threads": args.threads,
            "config": {f"{s}.{k}": v for (s, k), v in sorted(data.items())},
            **extra,
        }
        text = render_output(rows, meta, args.format)
        if args.out:
            with open(args.out, "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
    except (ConfigError, _ZeroMiss) as exc:
        print(f"beaconsim: config error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"beaconsim: i/o error: {exc}", file=sys.stderr)
        return 4
    except (ValueError, ArithmeticError, RuntimeWarning) as exc:
        print(f"beaconsim: numeric error: {exc}", file=sys.stderr)
        return 3
    except MemoryError as exc:
        print(f"beaconsim: out of memory: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
