"""End-to-end tests for the command-line interface.

Every invocation goes through a subprocess, exactly as a user would run it;
values printed by the tool are checked against direct library calls, and
repeated runs must be byte-identical.
"""

from __future__ import annotations

import csv
import gc
import io
import json
import subprocess
import sys
import warnings

import numpy as np
import pytest

from beaconsim import cli
from beaconsim.analysis import _MODES, SweepSpec, estimate_miss_curve
from beaconsim.channel import MeanGains
from beaconsim.protocols import Scheme

BASE_CONFIG = """\
# shared test configuration
[run]
seed = 123
n_trials = 20000

[channel]
pt = 1.0
pr = 2.0
tr = 3.0

[protocol]
scheme = "csa"

[sweep]
rho_db = [0.0, 10.0]
mode = "tail"
"""
# the mode the capacity, imperfect, throughput and joint-sweep kinds run
_CHANNEL_MODE = BASE_CONFIG.replace('mode = "tail"', 'mode = "channel"')

_CHANNEL = "[channel]\npt = 1.0\npr = 2.0\ntr = 3.0\n\n"
_CAPACITY = "\n[capacity]\np_theta_t = 0.85\np_theta_joint = 0.7\nt_c = 10.0\n"
_THROUGHPUT = "\n[throughput]\nw1 = [0.0]\nw2 = [0.1]\n"
_MUCSA_USER = "\n[multiuser]\nm_pairs = 2\nprimary = 1.0\ninter = 1.0\nuser = 4\n"
# the sections each kind reads besides the shared and the gain ones
_KIND_SECTIONS = {
    "capacity-ergodic": _CAPACITY,
    "capacity-outage": _CAPACITY + "epsilons = [0.1]\n",
    "imperfect": _CAPACITY + "sigma2 = [0.0]\n",
    "throughput": _THROUGHPUT,
}
# the schemes named when a kind refuses one
_KIND_SCHEMES = {
    "joint-sweep": "'nc', 'csa' or 'ocsa'",
    "capacity-ergodic": "'nc', 'csa' or 'ocsa'",
    "capacity-outage": "'nc', 'csa' or 'ocsa'",
    "imperfect": "'ocsa'",
    "throughput": "'ocsa'",
    "multiuser": "'mucsa'",
}
_THROUGHPUT_CONFIG = (
    _CHANNEL_MODE.replace("rho_db = [0.0, 10.0]", "rho_db = 6.0")
    .replace('scheme = "csa"', 'scheme = "ocsa"') + _THROUGHPUT)
_IMPERFECT_CONFIG = (_CHANNEL_MODE.replace('scheme = "csa"', 'scheme = "ocsa"')
                     + _CAPACITY + "sigma2 = [0.0]\n")
_MULTIUSER_CONFIG = """\
[run]
seed = 7
n_trials = 5000

[multiuser]
m_pairs = 2
primary = 1.0
inter = 1.0

[sweep]
rho_db = [0.0, 10.0]
mode = "tail"
"""


def run_cli(*args, config_text=None, tmp_path=None):
    argv = [sys.executable, "-m", "beaconsim.cli", *args]
    if config_text is not None:
        cfg = tmp_path / "cfg.ini"
        cfg.write_text(config_text)
        argv += ["--config", str(cfg)]
    return subprocess.run(argv, capture_output=True, text=False)


def parse_csv(data: bytes):
    return list(csv.DictReader(io.StringIO(data.decode())))


class TestMissSweep:
    def test_csv_matches_library(self, tmp_path):
        proc = run_cli("miss-sweep", config_text=BASE_CONFIG, tmp_path=tmp_path)
        assert proc.returncode == 0, proc.stderr
        rows = parse_csv(proc.stdout)
        assert len(rows) == 2
        spec = SweepSpec(scheme=Scheme.CSA, means=MeanGains(1.0, 2.0, 3.0),
                         rho_db=(0.0, 10.0), n_trials=20000, seed=123,
                         mode="tail")
        ref = estimate_miss_curve(spec)
        for i, row in enumerate(rows):
            assert float(row["rho_db"]) == ref.rho_db[i]
            assert float(row["estimate"]) == pytest.approx(
                ref.estimate[i], rel=1e-9)
            assert float(row["std_error"]) == pytest.approx(
                ref.std_error[i], rel=1e-9)

    def test_json_full_precision(self, tmp_path):
        proc = run_cli("miss-sweep", "--format", "json",
                       config_text=BASE_CONFIG, tmp_path=tmp_path)
        assert proc.returncode == 0, proc.stderr
        doc = json.loads(proc.stdout)
        assert doc["meta"]["seed"] == 123
        assert doc["meta"]["kind"] == "miss-sweep"
        spec = SweepSpec(scheme=Scheme.CSA, means=MeanGains(1.0, 2.0, 3.0),
                         rho_db=(0.0, 10.0), n_trials=20000, seed=123,
                         mode="tail")
        ref = estimate_miss_curve(spec)
        for i, row in enumerate(doc["rows"]):
            assert row["estimate"] == ref.estimate[i]
            assert row["std_error"] == ref.std_error[i]

    def test_out_file(self, tmp_path):
        out = tmp_path / "res.csv"
        proc = run_cli("miss-sweep", "--out", str(out),
                       config_text=BASE_CONFIG, tmp_path=tmp_path)
        assert proc.returncode == 0, proc.stderr
        assert out.exists()
        assert len(parse_csv(out.read_bytes())) == 2

    def test_set_override(self, tmp_path):
        proc = run_cli("miss-sweep", "--set", "sweep.rho_db=[20.0]",
                       "--set", "run.n_trials=5000",
                       config_text=BASE_CONFIG, tmp_path=tmp_path)
        assert proc.returncode == 0, proc.stderr
        rows = parse_csv(proc.stdout)
        assert len(rows) == 1
        assert float(rows[0]["rho_db"]) == 20.0

    def test_tiny_primary_mean_is_quiet(self, tmp_path):
        # at -100 dB the thresholds are ~1e10, so m / a overflows the
        # Erlang box's exponent to -inf for pt = 1e-300; e^(-inf) = 0 is
        # the right limit, and no warning may reach stderr
        cfg = tmp_path / "cfg.ini"
        cfg.write_text(BASE_CONFIG.replace("pt = 1.0", "pt = 1e-300")
                       .replace("seed = 123", "seed = 1")
                       .replace("n_trials = 20000", "n_trials = 2000")
                       .replace("rho_db = [0.0, 10.0]", "rho_db = [-100.0]"))
        proc = subprocess.run(
            [sys.executable, "-W", "error", "-m", "beaconsim.cli",
             "miss-sweep", "--config", str(cfg)], capture_output=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr == b""
        assert proc.stdout == (b"rho_db,estimate,std_error\n"
                               b"-100,0.3749982322,1.666000469e-10\n")


    @pytest.mark.parametrize("scheme, means, side, rho_db, limit", [
        *[pytest.param(scheme, means, side, -3100.0, limit,
                       id=f"{scheme}-{limit.decode()}-means{i}-{side}")
          for scheme, limit in (("nc", b"0.5"), ("ocsa", b"0.25"),
                                ("csa", b"0.375"))
          for i, means in enumerate([(1.0, 2.0, 3.0), (3.0, 1.0, 0.5)])
          for side in "tr"],
        # mucsa: means is m_pairs, and the limit is
        # 0.5^(2M) + 0.25 (1 - 0.5^(2M - 1))
        *[pytest.param("mucsa", m, "t", rho_db, limit,
                       id=f"mucsa-{limit.decode()}-m{m}-{rho_db:g}")
          for m, rho_db, limit in ((2, -1600.0, b"0.28125"),
                                   (2, -3100.0, b"0.28125"),
                                   (4, -520.0, b"0.251953125"))],
    ])
    def test_tail_thresholds_overflow_quietly(self, tmp_path, scheme, means,
                                              side, rho_db, limit):
        # at -3100 dB nearly every threshold z^2 / (2 rho) overflows to
        # inf, and the rest are ~1e308; mucsa's Erlang box raises them to
        # powers up to 2M - 1, which overflow from -1600 dB (M = 2) and
        # -520 dB (M = 4).  Each trial gives the rho -> 0 limit, and no
        # warning may reach stderr.  Means (3, 1, 0.5) make beta and gam2
        # of ocsa_fade_regions negative.
        if scheme == "mucsa":
            kind = "multiuser"
            text = _MULTIUSER_CONFIG.replace("m_pairs = 2",
                                             f"m_pairs = {means}")
        else:
            kind = "miss-sweep"
            pt, pr, tr = means
            text = (BASE_CONFIG.replace("pt = 1.0", f"pt = {pt}")
                    .replace("pr = 2.0", f"pr = {pr}")
                    .replace("tr = 3.0", f"tr = {tr}")
                    .replace('scheme = "csa"', f'scheme = "{scheme}"')
                    + f'side = "{side}"\n')
        cfg = tmp_path / "cfg.ini"
        cfg.write_text(
            text.replace("n_trials = 20000", "n_trials = 2000")
            .replace("n_trials = 5000", "n_trials = 2000")
            .replace("rho_db = [0.0, 10.0]", f"rho_db = [{rho_db}]"))
        proc = subprocess.run(
            [sys.executable, "-W", "error", "-m", "beaconsim.cli", kind,
             "--config", str(cfg)], capture_output=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr == b""
        assert proc.stdout == (b"rho_db,estimate,std_error\n"
                               + f"{rho_db:g},".encode() + limit + b",0\n")


    @pytest.mark.parametrize("scheme", ["csa", "mucsa"])
    def test_channel_ratio_with_every_control_zero(self, tmp_path, scheme):
        # at +300 dB every phase-one failure, the control of the channel-
        # mode ratio estimator, rounds to 0, and so does every miss: the
        # estimate is 0 +- 0, with no 0/0 and no warning on stderr
        text = _CHANNEL_MODE.replace("n_trials = 20000", "n_trials = 2000")
        text = text.replace("rho_db = [0.0, 10.0]", "rho_db = [300.0]")
        if scheme == "mucsa":
            text = text.replace(_CHANNEL, "").replace(
                'scheme = "csa"', 'scheme = "mucsa"') + _MUCSA_USER.replace(
                    "user = 4", "user = 3")
        cfg = tmp_path / "cfg.ini"
        cfg.write_text(text)
        proc = subprocess.run(
            [sys.executable, "-W", "error", "-m", "beaconsim.cli",
             "miss-sweep", "--config", str(cfg), "--format", "json"],
            capture_output=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr == b""
        doc = json.loads(proc.stdout)
        assert doc["meta"]["estimator"] == "ratio"
        assert doc["rows"] == [{"rho_db": 300.0, "estimate": 0.0,
                                "std_error": 0.0}]


class TestDeterminism:
    def test_rerun_byte_identical(self, tmp_path):
        a = run_cli("miss-sweep", config_text=BASE_CONFIG, tmp_path=tmp_path)
        b = run_cli("miss-sweep", config_text=BASE_CONFIG, tmp_path=tmp_path)
        assert a.returncode == b.returncode == 0
        assert a.stdout == b.stdout

    def test_thread_count_byte_identical(self, tmp_path):
        a = run_cli("miss-sweep", "--threads", "1",
                    config_text=BASE_CONFIG, tmp_path=tmp_path)
        b = run_cli("miss-sweep", "--threads", "4",
                    config_text=BASE_CONFIG, tmp_path=tmp_path)
        assert a.returncode == b.returncode == 0
        assert a.stdout == b.stdout


class TestExitCodes:
    def test_unknown_key_rejected(self, tmp_path):
        cfg = BASE_CONFIG + "\n[sweep]\nbogus_key = 1\n"
        # configparser forbids duplicate sections; append key differently
        cfg = BASE_CONFIG.replace("mode = \"tail\"",
                                  "mode = \"tail\"\nbogus_key = 1")
        proc = run_cli("miss-sweep", config_text=cfg, tmp_path=tmp_path)
        assert proc.returncode == 2
        assert b"bogus_key" in proc.stderr

    def test_unknown_section_rejected(self, tmp_path):
        cfg = BASE_CONFIG + "\n[mystery]\nx = 1\n"
        proc = run_cli("miss-sweep", config_text=cfg, tmp_path=tmp_path)
        assert proc.returncode == 2
        assert b"mystery" in proc.stderr

    def test_missing_seed_rejected(self, tmp_path):
        cfg = BASE_CONFIG.replace("seed = 123\n", "")
        proc = run_cli("miss-sweep", config_text=cfg, tmp_path=tmp_path)
        assert proc.returncode == 2
        assert b"seed" in proc.stderr

    def test_missing_config_file(self, tmp_path):
        proc = run_cli("miss-sweep", "--config", str(tmp_path / "nope.ini"))
        assert proc.returncode == 4

    def test_config_required(self):
        proc = run_cli("miss-sweep")
        assert proc.returncode == 2

    def test_numeric_domain_error(self, tmp_path):
        cfg = _CHANNEL_MODE + """
[capacity]
p_theta_t = 0.0
p_theta_joint = 0.0
t_c = 10.0
"""
        proc = run_cli("capacity-ergodic", config_text=cfg, tmp_path=tmp_path)
        assert proc.returncode == 3

    @pytest.mark.parametrize("kind, old, new, extra, msg", [
        ("miss-sweep", "seed = 123", "seed = -1", "", "run.seed"),
        ("capacity-ergodic", "seed = 123", "seed = -5", _CAPACITY, "run.seed"),
        ("capacity-ergodic", "n_trials = 20000", "n_trials = 0", _CAPACITY,
         "run.n_trials"),
        ("capacity-outage", "n_trials = 20000", "n_trials = -3",
         _CAPACITY + "epsilons = [0.1]\n", "run.n_trials"),
        ("imperfect", "n_trials = 20000", "n_trials = 20000\nchunk = 0",
         _CAPACITY + "sigma2 = [0.0]\n", "run.chunk"),
        ("throughput", "n_trials = 20000", "n_trials = 0", _THROUGHPUT,
         "run.n_trials"),
        ("throughput", "n_trials = 20000", "n_trials = 20000\nchunk = -1",
         _THROUGHPUT, "run.chunk"),
        # 2M = 4 users, so user 4 is one past the last
        ("miss-sweep", _CHANNEL + '[protocol]\nscheme = "csa"',
         '[protocol]\nscheme = "mucsa"', _MUCSA_USER,
         "multiuser.user must lie in [0, 3]"),
    ], ids=["negative-seed-sweep", "negative-seed-capacity",
            "zero-trials-capacity", "negative-trials-outage",
            "zero-chunk-imperfect", "zero-trials-throughput",
            "negative-chunk-throughput", "user-out-of-range"])
    def test_bad_run_or_pair_is_config_error(self, tmp_path, kind, old, new,
                                              extra, msg):
        base = BASE_CONFIG if kind == "miss-sweep" else _CHANNEL_MODE
        cfg = base.replace(old, new) + extra
        if kind == "throughput":
            cfg = cfg.replace("rho_db = [0.0, 10.0]", "rho_db = [6.0]")
        if kind in ("imperfect", "throughput"):
            cfg = cfg.replace('scheme = "csa"', 'scheme = "ocsa"')
        proc = run_cli(kind, config_text=cfg, tmp_path=tmp_path)
        assert proc.returncode == 2, proc.stderr
        assert f"config error: {msg}".encode() in proc.stderr

    @pytest.mark.parametrize("kind, scheme, section, cfg", [
        ("miss-sweep", "csa", "multiuser", BASE_CONFIG
         + "\n[multiuser]\nm_pairs = \"x\"\npair = -5\n"),
        ("diversity", "nc", "multiuser", BASE_CONFIG + _MUCSA_USER),
        ("miss-sweep", "mucsa", "channel",
         _MULTIUSER_CONFIG + "\n[channel]\npt = \"bogus\"\npr = -2.0\n"),
    ], ids=["miss-csa-multiuser", "diversity-nc-multiuser",
            "miss-mucsa-channel"])
    def test_section_the_scheme_never_reads(self, tmp_path, kind, scheme,
                                            section, cfg):
        proc = run_cli(kind, "--set", f"protocol.scheme={scheme!r}",
                       config_text=cfg, tmp_path=tmp_path)
        assert proc.returncode == 2, proc.stderr
        msg = f"section [{section}] is not read by scheme {scheme}"
        assert msg.encode() in proc.stderr

    def test_joint_sweep_reads_no_multiuser_section(self, tmp_path):
        cfg = _CHANNEL_MODE + "\n[multiuser]\nm_pairs = 2\n"
        proc = run_cli("joint-sweep", config_text=cfg, tmp_path=tmp_path)
        assert proc.returncode == 2, proc.stderr
        assert b"unknown section [multiuser] for kind joint-sweep" \
            in proc.stderr

    @pytest.mark.parametrize("kind, scheme", [
        (kind, scheme.value) for kind, (_run, _reads, schemes, _values)
        in cli.KINDS.items() for scheme in Scheme if scheme not in schemes])
    def test_scheme_the_kind_does_not_run(self, tmp_path, kind, scheme):
        # checked before the section rules, so the config can carry the gain
        # section its scheme reads ([multiuser] or [channel]) and still get
        # the scheme message
        cfg = ((_MULTIUSER_CONFIG if scheme == "mucsa" else BASE_CONFIG)
               + _KIND_SECTIONS.get(kind, ""))
        proc = run_cli(kind, "--set", f"protocol.scheme={scheme!r}",
                       config_text=cfg, tmp_path=tmp_path)
        assert proc.returncode == 2, proc.stderr
        msg = f"{kind} supports protocol.scheme = {_KIND_SCHEMES[kind]} only"
        assert msg.encode() in proc.stderr

    @pytest.mark.parametrize("args, extra", [
        (("--set", "multiuser.user=0"), ""),
        ((), "\n" + _CHANNEL),
    ], ids=["user-key", "channel-section"])
    def test_joint_sweep_refuses_mucsa_first(self, tmp_path, args, extra):
        # a mucsa config that also sets a key or a section joint-sweep would
        # refuse gets the scheme message, not the key or section one
        cfg = (_MULTIUSER_CONFIG.replace('mode = "tail"', 'mode = "channel"')
               + extra)
        proc = run_cli("joint-sweep", "--set", "protocol.scheme='mucsa'",
                       *args, config_text=cfg, tmp_path=tmp_path)
        assert proc.returncode == 2, proc.stderr
        msg = ("joint-sweep supports protocol.scheme = "
               f"{_KIND_SCHEMES['joint-sweep']} only")
        assert msg.encode() in proc.stderr

    @pytest.mark.parametrize("kind, key, cfg", [
        ("capacity-ergodic", "mode", _CHANNEL_MODE + _CAPACITY),
        ("capacity-ergodic", "side", _CHANNEL_MODE + _CAPACITY),
        ("capacity-outage", "side",
         _CHANNEL_MODE + _CAPACITY + "epsilons = [0.1]\n"),
        ("imperfect", "side", _IMPERFECT_CONFIG),
        ("throughput", "mode", _THROUGHPUT_CONFIG),
        ("throughput", "side", _THROUGHPUT_CONFIG),
        ("joint-sweep", "side", _CHANNEL_MODE),
        ("multiuser", "side", _MULTIUSER_CONFIG),
    ], ids=["ergodic-mode", "ergodic-side", "outage-side", "imperfect-side",
            "throughput-mode", "throughput-side", "joint-side",
            "multiuser-side"])
    def test_bad_sweep_value_every_kind(self, tmp_path, kind, key, cfg):
        # a value outside the kind's column is an error whether or not the
        # kind reads the key
        proc = run_cli(kind, "--set", f"sweep.{key}=bogus",
                       config_text=cfg, tmp_path=tmp_path)
        assert proc.returncode == 2, proc.stderr
        assert f"sweep.{key} must be".encode() in proc.stderr

    @pytest.mark.parametrize("kind, scheme, key, value", [
        (kind, scheme.value, "mode", mode)
        for kind, (_run, _reads, schemes, values) in cli.KINDS.items()
        for scheme in schemes for mode in _MODES
        if mode not in values["mode"]
    ] + [
        # only miss-sweep and diversity read sweep.side, and only for a pair
        # scheme: multiuser.user picks the mucsa node
        (kind, scheme.value, "side", "r")
        for kind, (_run, _reads, schemes, _values) in cli.KINDS.items()
        for scheme in schemes
        if kind not in ("miss-sweep", "diversity") or scheme is Scheme.MUCSA
    ])
    def test_mode_or_side_the_kind_does_not_run(self, tmp_path, capsys, kind,
                                                scheme, key, value):
        # the value would be ignored or misread, so it is refused instead
        cfg = tmp_path / "cfg.ini"
        cfg.write_text((_MULTIUSER_CONFIG if scheme == "mucsa"
                        else _CHANNEL_MODE) + _KIND_SECTIONS.get(kind, ""))
        assert cli.main([kind, "--config", str(cfg),
                         "--set", f"protocol.scheme={scheme!r}",
                         "--set", f"sweep.{key}={value!r}"]) == 2
        err = capsys.readouterr().err
        assert f"config error: sweep.{key} must be " in err
        assert f" for kind {kind}" in err

    @pytest.mark.parametrize("mode", ["channel", "tail"])
    def test_too_many_pairs(self, tmp_path, mode):
        proc = run_cli("multiuser", "--set", "multiuser.m_pairs=7",
                       "--set", f"sweep.mode={mode}",
                       config_text=_MULTIUSER_CONFIG, tmp_path=tmp_path)
        assert proc.returncode == 2, proc.stderr
        assert b"multiuser.m_pairs must be <= 6" in proc.stderr

    @pytest.mark.parametrize("kind, key, cfg", [
        ("multiuser", "pair", _MULTIUSER_CONFIG),
        ("miss-sweep", "pair", _MULTIUSER_CONFIG),
        ("diversity", "pair", _MULTIUSER_CONFIG),
    ], ids=["multiuser-pair", "miss-mucsa-pair", "diversity-mucsa-pair"])
    def test_index_key_the_kind_never_reads(self, tmp_path, kind, key, cfg):
        # no kind reads multiuser.pair, so a config that still sets it fails
        proc = run_cli(kind, "--set", "protocol.scheme='mucsa'",
                       "--set", f"multiuser.{key}=0",
                       config_text=cfg, tmp_path=tmp_path)
        assert proc.returncode == 2, proc.stderr
        assert f"multiuser.{key} is not read".encode() in proc.stderr

    @pytest.mark.parametrize("kind, key, value, cfg", [
        ("capacity-ergodic", "sigma2", "0.5", _CHANNEL_MODE + _CAPACITY),
        ("capacity-ergodic", "epsilons", "[0.1]", _CHANNEL_MODE + _CAPACITY),
        ("imperfect", "epsilons", "[0.1]", _IMPERFECT_CONFIG),
    ], ids=["ergodic-sigma2", "ergodic-epsilons", "imperfect-epsilons"])
    def test_capacity_key_the_kind_never_reads(self, tmp_path, kind, key,
                                               value, cfg):
        proc = run_cli(kind, "--set", f"capacity.{key}={value}",
                       config_text=cfg, tmp_path=tmp_path)
        assert proc.returncode == 2, proc.stderr
        assert f"capacity.{key} is not read by kind {kind}".encode() \
            in proc.stderr

    @pytest.mark.parametrize("kind, cfg", [
        ("capacity-outage", _CHANNEL_MODE + _CAPACITY + "epsilons = [0.1]\n"),
        ("imperfect", _IMPERFECT_CONFIG),
    ], ids=["outage", "imperfect"])
    def test_negative_sigma2_is_config_error(self, tmp_path, kind, cfg):
        # outage exited 3 (numeric error) for the value imperfect refused
        proc = run_cli(kind, "--set", "capacity.sigma2=-1.0",
                       config_text=cfg, tmp_path=tmp_path)
        assert proc.returncode == 2, proc.stderr
        assert b"capacity.sigma2 must be nonnegative" in proc.stderr

    @pytest.mark.parametrize("scheme", ["nc", "csa"])
    def test_outage_sigma2_needs_ocsa(self, tmp_path, scheme):
        # nc and csa select no relay, so a nonzero sigma2 printed the
        # sigma2 = 0 bytes; 0 stays accepted, as sweep.side = "t" does
        cfg = (_CHANNEL_MODE.replace('scheme = "csa"', f'scheme = "{scheme}"')
               + _CAPACITY + "epsilons = [0.1]\n")
        proc = run_cli("capacity-outage", "--set", "capacity.sigma2=5.0",
                       config_text=cfg, tmp_path=tmp_path)
        assert proc.returncode == 2, proc.stderr
        assert (f"capacity.sigma2 must be 0 for scheme {scheme}".encode()
                in proc.stderr)
        proc = run_cli("capacity-outage", "--set", "capacity.sigma2=0.0",
                       config_text=cfg, tmp_path=tmp_path)
        assert proc.returncode == 0, proc.stderr

    @pytest.mark.parametrize("key", ["sweep.rho_db", "capacity.sigma2"])
    def test_non_finite_value_is_config_error(self, tmp_path, key):
        # 1e400 parses as inf
        proc = run_cli("imperfect", "--set", f"{key}=[1e400]",
                       config_text=_IMPERFECT_CONFIG, tmp_path=tmp_path)
        assert proc.returncode == 2, proc.stderr
        assert f"{key} must be a number".encode() in proc.stderr

    @pytest.mark.parametrize("rho_db", ["4000.0", "-4000.0"])
    @pytest.mark.parametrize("kind, mode, extra", [
        ("miss-sweep", "tail", ""),
        ("miss-sweep", "channel", ""),
        ("capacity-ergodic", "channel", _CAPACITY),
    ], ids=["miss-tail", "miss-channel", "ergodic"])
    def test_rho_outside_float_range_is_config_error(self, tmp_path, kind,
                                                      mode, extra, rho_db):
        # 10^(rho_db/10) overflows at 4000 dB and rounds to 0 at -4000 dB
        proc = run_cli(kind, "--set", f"sweep.rho_db=[{rho_db}]",
                       "--set", f"sweep.mode={mode!r}",
                       config_text=BASE_CONFIG + extra, tmp_path=tmp_path)
        assert proc.returncode == 2, proc.stderr
        assert b"positive finite linear SNR" in proc.stderr

    def test_huge_seed_is_valid(self, tmp_path):
        proc = run_cli("miss-sweep", "--set", f"run.seed={10 ** 400}",
                       config_text=BASE_CONFIG, tmp_path=tmp_path)
        assert proc.returncode == 0, proc.stderr

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_non_finite_result_is_numeric_error(self, tmp_path, fmt):
        # the lower bound's 1/t_c penalty overflows its standard error
        proc = run_cli("capacity-ergodic", "--format", fmt,
                       "--set", "capacity.t_c=1e-300",
                       config_text=_CHANNEL_MODE + _CAPACITY,
                       tmp_path=tmp_path)
        assert proc.returncode == 3, proc.stderr
        assert b"numeric error: lower_se = nan is not finite" in proc.stderr
        assert proc.stdout == b""

    @pytest.mark.parametrize("rho_db", ["[10.0]", "[10.0, 10.0]"])
    def test_diversity_needs_two_distinct_rho(self, tmp_path, rho_db):
        proc = run_cli("diversity", "--set", f"sweep.rho_db={rho_db}",
                       config_text=BASE_CONFIG, tmp_path=tmp_path)
        assert proc.returncode == 2, proc.stderr
        assert b"diversity needs two distinct sweep.rho_db values" \
            in proc.stderr

    def test_diversity_zero_estimate_is_numeric_error(self, tmp_path):
        # channel mode never sees a csa miss this deep, so both points read 0
        proc = run_cli("diversity", "--set", "sweep.mode='channel'",
                       "--set", "sweep.rho_db=[60.0, 80.0]",
                       config_text=BASE_CONFIG, tmp_path=tmp_path)
        assert proc.returncode == 3, proc.stderr
        assert (b"the miss estimate at rho_db = 60 is exactly 0, so no slope "
                b"can be fitted; use tail mode") in proc.stderr

    def test_out_of_memory(self, tmp_path, monkeypatch, capsys):
        # the runner raises instead of allocating, so nothing is exhausted
        def exhausted(conf, spec, user):
            raise MemoryError("cannot allocate 8 EiB")

        monkeypatch.setitem(cli.KINDS, "miss-sweep",
                            (exhausted, *cli.KINDS["miss-sweep"][1:]))
        cfg = tmp_path / "cfg.ini"
        cfg.write_text(BASE_CONFIG)
        assert cli.main(["miss-sweep", "--config", str(cfg)]) == 3
        err = capsys.readouterr().err
        assert err == "beaconsim: out of memory: cannot allocate 8 EiB\n"

    def test_bad_value_type(self, tmp_path):
        cfg = BASE_CONFIG.replace("n_trials = 20000", "n_trials = \"many\"")
        proc = run_cli("miss-sweep", config_text=cfg, tmp_path=tmp_path)
        assert proc.returncode == 2

    def test_unwritable_out(self, tmp_path):
        proc = run_cli("miss-sweep", "--out",
                       str(tmp_path / "no_dir" / "res.csv"),
                       config_text=BASE_CONFIG, tmp_path=tmp_path)
        assert proc.returncode == 4


class TestLoadConfig:
    def test_file_closed(self, tmp_path):
        cfg = tmp_path / "cfg.ini"
        cfg.write_text(BASE_CONFIG)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            cli.load_config(str(cfg))
            gc.collect()
        assert not [w for w in caught if w.category is ResourceWarning]

    def test_not_utf8_is_config_error(self, tmp_path):
        cfg = tmp_path / "cfg.ini"
        cfg.write_bytes(b"\xff\xfe[run]\nseed = 1\n")
        proc = run_cli("miss-sweep", "--config", str(cfg))
        assert proc.returncode == 2, proc.stderr
        assert f"config error: cannot parse {cfg}".encode() in proc.stderr

    def test_default_section_is_ordinary(self, tmp_path):
        # configparser would copy these keys into every other section
        proc = run_cli("miss-sweep",
                       config_text=BASE_CONFIG + "\n[DEFAULT]\nseed = 5\n",
                       tmp_path=tmp_path)
        assert proc.returncode == 2, proc.stderr
        assert b"unknown section [DEFAULT] for kind miss-sweep" in proc.stderr


class TestOtherKinds:
    def test_joint_sweep(self, tmp_path):
        proc = run_cli("joint-sweep", config_text=_CHANNEL_MODE,
                       tmp_path=tmp_path)
        assert proc.returncode == 0, proc.stderr
        rows = parse_csv(proc.stdout)
        assert len(rows) == 2
        assert 0.0 <= float(rows[0]["estimate"]) <= 1.0

    def test_diversity_single_row(self, tmp_path):
        cfg = BASE_CONFIG.replace("rho_db = [0.0, 10.0]",
                                  "rho_db = [20.0, 26.0, 32.0, 40.0]")
        cfg = cfg.replace("n_trials = 20000", "n_trials = 60000")
        proc = run_cli("diversity", config_text=cfg, tmp_path=tmp_path)
        assert proc.returncode == 0, proc.stderr
        rows = parse_csv(proc.stdout)
        assert len(rows) == 1
        assert 1.4 <= float(rows[0]["order"]) <= 2.6

    def test_capacity_ergodic(self, tmp_path):
        cfg = _CHANNEL_MODE + """
[capacity]
p_theta_t = 0.85
p_theta_joint = 0.7
t_c = 10.0
"""
        proc = run_cli("capacity-ergodic", config_text=cfg, tmp_path=tmp_path)
        assert proc.returncode == 0, proc.stderr
        rows = parse_csv(proc.stdout)
        assert len(rows) == 2
        for row in rows:
            assert float(row["lower_mean"]) <= float(row["upper_mean"])

    def test_capacity_outage(self, tmp_path):
        cfg = _CHANNEL_MODE + """
[capacity]
p_theta_t = 0.85
p_theta_joint = 0.7
t_c = 10.0
epsilons = [0.05, 0.1]
"""
        proc = run_cli("capacity-outage", config_text=cfg, tmp_path=tmp_path)
        assert proc.returncode == 0, proc.stderr
        rows = parse_csv(proc.stdout)
        assert len(rows) == 4  # 2 rho x 2 epsilon
        eps = sorted({float(r["epsilon"]) for r in rows})
        assert eps == [0.05, 0.1]

    def test_imperfect(self, tmp_path):
        cfg = _CHANNEL_MODE.replace('scheme = "csa"', 'scheme = "ocsa"')
        cfg = cfg.replace("rho_db = [0.0, 10.0]", "rho_db = [0.0]")
        cfg += """
[capacity]
p_theta_t = 0.85
p_theta_joint = 0.7
t_c = 10.0
sigma2 = [0.0, 1.0]
"""
        proc = run_cli("imperfect", config_text=cfg, tmp_path=tmp_path)
        assert proc.returncode == 0, proc.stderr
        rows = parse_csv(proc.stdout)
        assert len(rows) == 2
        zero = next(r for r in rows if float(r["sigma2"]) == 0.0)
        noisy = next(r for r in rows if float(r["sigma2"]) == 1.0)
        assert float(zero["relative_upper_loss"]) == 0.0
        assert float(zero["wrong_relay_mc"]) == 0.0
        assert float(noisy["wrong_relay_mc"]) <= float(
            noisy["wrong_relay_bound"]) + 3 * float(noisy["wrong_relay_se"])

    def test_imperfect_at_vanishing_snr(self, tmp_path):
        # the capacity bounds keep their relative accuracy as rho -> 0, so
        # the relative loss still has a positive base at -300 dB
        cfg = _CHANNEL_MODE.replace('scheme = "csa"', 'scheme = "ocsa"')
        cfg = cfg.replace("rho_db = [0.0, 10.0]",
                          "rho_db = [-300.0, -150.0, 0.0]")
        proc = run_cli("imperfect", config_text=cfg + _CAPACITY
                       + "sigma2 = [0.0, 0.05]\n", tmp_path=tmp_path)
        assert proc.returncode == 0, proc.stderr
        rows = parse_csv(proc.stdout)
        assert len(rows) == 6
        for row in rows:
            assert all(np.isfinite(float(v)) for v in row.values())
        assert float(rows[0]["upper_mean"]) > 0.0

    def test_throughput(self, tmp_path):
        cfg = _CHANNEL_MODE.replace("rho_db = [0.0, 10.0]", "rho_db = 0.0")
        cfg = cfg.replace('scheme = "csa"', 'scheme = "ocsa"')
        cfg += """
[throughput]
w1 = [0.0, 0.15]
w2 = [0.0, 0.3]
"""
        proc = run_cli("throughput", config_text=cfg, tmp_path=tmp_path)
        assert proc.returncode == 0, proc.stderr
        rows = parse_csv(proc.stdout)
        assert len(rows) == 4
        origin = next(r for r in rows
                      if float(r["w1"]) == 0.0 and float(r["w2"]) == 0.0)
        assert float(origin["loss_mc"]) == 0.0
        assert float(origin["loss_bound"]) == 0.0
        for row in rows:
            assert float(row["loss_mc"]) <= float(row["loss_bound"]) + 3 * float(
                row["loss_se"])

    @pytest.mark.parametrize("w1", ["0.0", "1e6"])
    def test_throughput_bound_capped_at_one(self, tmp_path, w1):
        # the closed form exceeds 1 (at w1 = 0, w2 = 1e6 its expm1
        # overflows); a relative loss is below 1, so the bound reads 1
        cfg = _THROUGHPUT_CONFIG.replace(
            _THROUGHPUT, f"\n[throughput]\nw1 = [{w1}]\nw2 = [1e6]\n")
        proc = run_cli("throughput", "--format", "json", config_text=cfg,
                       tmp_path=tmp_path)
        assert proc.returncode == 0, proc.stderr
        (row,) = json.loads(proc.stdout)["rows"]
        assert row["loss_bound"] == 1.0
        assert row["loss_mc"] <= row["loss_bound"]

    def test_throughput_reports_configured_weights(self, tmp_path):
        # (w t_cr) / t_cr does not round back to w for t_cr = 0.7
        cfg = _THROUGHPUT_CONFIG.replace(
            _THROUGHPUT, "\n[throughput]\nt_cr = 0.7\nw1 = [0.05, 0.2]\n"
            "w2 = [0.1]\n")
        proc = run_cli("throughput", "--format", "json", config_text=cfg,
                       tmp_path=tmp_path)
        assert proc.returncode == 0, proc.stderr
        rows = json.loads(proc.stdout)["rows"]
        assert [(r["w1"], r["w2"]) for r in rows] == [(0.05, 0.1), (0.2, 0.1)]

    def test_throughput_scheme_optional(self, tmp_path):
        with_scheme = run_cli("throughput", config_text=_THROUGHPUT_CONFIG,
                              tmp_path=tmp_path)
        cfg = _THROUGHPUT_CONFIG.replace('scheme = "ocsa"\n', "")
        without = run_cli("throughput", config_text=cfg, tmp_path=tmp_path)
        assert with_scheme.returncode == without.returncode == 0
        assert with_scheme.stdout == without.stdout

    def test_multiuser(self, tmp_path):
        cfg = """
[run]
seed = 7
n_trials = 5000

[multiuser]
m_pairs = 2
primary = 1.0
inter = 1.0
user = 0

[sweep]
rho_db = [0.0, 10.0]
mode = "tail"
"""
        proc = run_cli("multiuser", config_text=cfg, tmp_path=tmp_path)
        assert proc.returncode == 0, proc.stderr
        rows = parse_csv(proc.stdout)
        assert len(rows) == 2
        assert float(rows[1]["estimate"]) < float(rows[0]["estimate"])

    @pytest.mark.parametrize("kind, cfg, mode", [
        ("miss-sweep", BASE_CONFIG, "channel"),
        ("joint-sweep", BASE_CONFIG, "channel"),
        ("multiuser", _MULTIUSER_CONFIG, "channel"),
        ("diversity", BASE_CONFIG, "tail"),
    ])
    def test_default_mode(self, tmp_path, capsys, kind, cfg, mode):
        # without sweep.mode, a kind runs as if it were set to its default
        def run(text, fmt):
            path = tmp_path / "cfg.ini"
            path.write_text(text)
            assert cli.main([kind, "--config", str(path),
                             "--format", fmt]) == 0
            return capsys.readouterr().out

        unset = cfg.replace('mode = "tail"\n', "")
        assert unset != cfg
        assert json.loads(run(unset, "json"))["meta"]["mode"] == mode
        explicit = cfg.replace('mode = "tail"', f'mode = "{mode}"')
        assert run(unset, "csv") == run(explicit, "csv")

    def test_selfcheck(self):
        proc = run_cli("selfcheck")
        assert proc.returncode == 0, proc.stderr
        assert b"ok" in proc.stdout.lower()
        assert b"ocsa tail vs channel: ok\n" in proc.stdout
        assert b"mucsa channel vs tail: ok\n" in proc.stdout


class TestProtocolSplit:
    def test_explicit_uses(self, tmp_path):
        cfg = BASE_CONFIG.replace('scheme = "csa"',
                                  'scheme = "csa"\nd1 = 2\nd2 = 3')
        proc = run_cli("miss-sweep", config_text=cfg, tmp_path=tmp_path)
        assert proc.returncode == 0, proc.stderr

    def test_total_and_alpha(self, tmp_path):
        cfg = BASE_CONFIG.replace('scheme = "csa"',
                                  'scheme = "csa"\nd = 4\nalpha = 0.5')
        proc = run_cli("miss-sweep", config_text=cfg, tmp_path=tmp_path)
        assert proc.returncode == 0, proc.stderr

    def test_conflicting_split_rejected(self, tmp_path):
        cfg = BASE_CONFIG.replace('scheme = "csa"',
                                  'scheme = "csa"\nd = 4\nd1 = 2\nd2 = 2')
        proc = run_cli("miss-sweep", config_text=cfg, tmp_path=tmp_path)
        assert proc.returncode == 2

    def test_bad_scheme(self, tmp_path):
        cfg = BASE_CONFIG.replace('scheme = "csa"', 'scheme = "warp"')
        proc = run_cli("miss-sweep", config_text=cfg, tmp_path=tmp_path)
        assert proc.returncode == 2
