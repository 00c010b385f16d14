"""Golden CLI outputs: every kind, byte for byte.

Each case runs ``beaconsim.cli.main`` in-process with ``--format json`` (full
float precision) at one and at two threads and compares the output file with
the stored copy under ``tests/golden/``; only the meta ``threads`` field may
differ.  The trial count (30000) is not a multiple of
the chunk size (7000), so the last chunk is a short one.  The files pin the
stream layout and every estimator, so a refactor that is meant to keep the
results must leave them unchanged.

The stored files were produced with numpy 2.4.6 and scipy 1.17.1 on
Python 3.11.7.  Other library versions may change the last bits of some
values; regenerate with ``python tests/test_golden.py [NAME...]`` (no name:
every case) only when a change is meant to move the numbers, and say so in
the change log.
"""

from __future__ import annotations

import pathlib
import sys

import pytest

from beaconsim.cli import KINDS, Conf, main

GOLDEN = pathlib.Path(__file__).with_name("golden")

_RUN = "[run]\nseed = 2024\nn_trials = 30000\nchunk = 7000\n"
_PAIR = "[channel]\npt = 1.0\npr = 2.0\ntr = 3.0\n"
_MULTI = "[multiuser]\nm_pairs = 2\nprimary = 1.0\ninter = 1.5\n"
_CAP = "[capacity]\np_theta_t = 0.85\np_theta_joint = 0.7\nt_c = 10.0\n"


def _proto(scheme, extra=""):
    return f'[protocol]\nscheme = "{scheme}"\nd = 2\nalpha = 0.5\n{extra}'


def _sweep(rho_db, mode="channel", side="t"):
    return f'[sweep]\nrho_db = {rho_db}\nmode = "{mode}"\nside = "{side}"\n'


def _cases():
    cases = {}
    for scheme in ("nc", "csa", "ocsa"):
        for mode in ("channel", "tail"):
            for side in ("t", "r"):
                cases[f"miss-{scheme}-{mode}-{side}"] = (
                    "miss-sweep",
                    _RUN + _PAIR + _proto(scheme)
                    + _sweep([5.0, 15.0], mode, side))
    cases["miss-mucsa-channel-user1"] = (
        "miss-sweep",
        _RUN + _MULTI + "user = 1\n" + _proto("mucsa") + _sweep([5.0, 15.0]))
    for scheme in ("nc", "csa", "ocsa"):
        cases[f"joint-{scheme}"] = (
            "joint-sweep",
            _RUN + _PAIR + _proto(scheme) + _sweep([0.0, 10.0]))
    cases["joint-mucsa-pair1"] = (
        "joint-sweep",
        _RUN + _MULTI + "pair = 1\n" + _proto("mucsa") + _sweep([0.0, 10.0]))
    cases["diversity-ocsa-r"] = (
        "diversity",
        _RUN + _PAIR + _proto("ocsa") + _sweep([20.0, 30.0, 40.0], "tail", "r"))
    cases["diversity-mucsa"] = (
        "diversity",
        _RUN + _MULTI + _proto("mucsa") + _sweep([20.0, 30.0, 40.0], "tail"))
    for scheme in ("nc", "csa", "ocsa"):
        cases[f"ergodic-{scheme}"] = (
            "capacity-ergodic",
            _RUN + _PAIR + _proto(scheme) + _CAP + _sweep([0.0, 6.0]))
        cases[f"outage-{scheme}"] = (
            "capacity-outage",
            _RUN + _PAIR + _proto(scheme) + _CAP
            + "epsilons = [0.01, 0.1]\nsigma2 = 0.05\n" + _sweep([0.0, 6.0]))
    cases["imperfect-ocsa"] = (
        "imperfect",
        _RUN + _PAIR + _proto("ocsa") + _CAP
        + "sigma2 = [0.0, 0.05]\n" + _sweep([0.0, 6.0]))
    # no sigma2 = 0 row, unsorted: every row is a noisy cell of the grid
    cases["imperfect-ocsa-sigma-grid"] = (
        "imperfect",
        _RUN + _PAIR + _proto("ocsa") + _CAP
        + "sigma2 = [0.1, 0.01]\n" + _sweep([0.0, 3.0, 6.0]))
    cases["throughput-d1d2"] = (
        "throughput",
        _RUN + _PAIR + '[protocol]\nscheme = "ocsa"\nd1 = 2\nd2 = 1\n'
        + "[throughput]\nt_cr = 1.0\nw1 = [0.0, 0.2]\nw2 = [0.0, 0.3]\n"
        + _sweep([6.0]))
    cases["throughput-3x2"] = (
        "throughput",
        _RUN + _PAIR + _proto("ocsa")
        + "[throughput]\nt_cr = 2.0\nw1 = [0.0, 0.1, 0.25]\nw2 = [0.3, 0.05]\n"
        + _sweep([3.0]))
    for mode in ("channel", "tail"):
        cases[f"multiuser-{mode}"] = (
            "multiuser",
            _RUN + _MULTI + "user = 2\n" + _sweep([0.0, 10.0], mode))
    # M = 4 reaches helper-subset sizes 4..7, which M = 2 never does
    cases["multiuser-tail-m4"] = (
        "multiuser",
        _RUN + _MULTI.replace("m_pairs = 2", "m_pairs = 4") + "user = 5\n"
        + _sweep([0.0, 10.0], "tail"))
    return cases


CASES = _cases()


def _render(name: str, tmp_dir: pathlib.Path, threads: int = 1) -> bytes:
    kind, config = CASES[name]
    cfg = tmp_dir / f"{name}.ini"
    cfg.write_text(config)
    out = tmp_dir / f"{name}.json"
    code = main([kind, "--config", str(cfg), "--format", "json",
                 "--threads", str(threads), "--out", str(out)])
    assert code == 0, f"{name}: exit {code}"
    return out.read_bytes()


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_output(name, tmp_path):
    want = (GOLDEN / f"{name}.json").read_bytes()
    assert _render(name, tmp_path) == want
    # five chunks, so two threads really split the work
    assert want.count(b'"threads": 1') == 1
    assert (_render(name, tmp_path, threads=2)
            == want.replace(b'"threads": 1', b'"threads": 2'))


@pytest.mark.parametrize("kind", sorted(KINDS))
def test_declared_keys_are_read(kind, tmp_path, monkeypatch):
    # every key the kind accepts is looked up by one of its golden configs,
    # so none is accepted unchecked; sweep.mode and sweep.side are instead
    # value-checked for every kind
    asked = set()
    for getter in ("has", "get_int", "get_float", "get_str", "get_numlist"):
        def recorded(self, section, key, *args, _orig=getattr(Conf, getter),
                     **kwargs):
            asked.add(f"{section}.{key}")
            return _orig(self, section, key, *args, **kwargs)

        monkeypatch.setattr(Conf, getter, recorded)
    for name, (case_kind, _config) in sorted(CASES.items()):
        if case_kind == kind:
            _render(name, tmp_path)
    declared = {f"{s}.{k}" for s, keys in KINDS[kind][1].items() for k in keys}
    assert declared - asked - {"sweep.mode", "sweep.side"} == set()


if __name__ == "__main__":
    import tempfile

    names = sys.argv[1:] or sorted(CASES)
    unknown = sorted(set(names) - set(CASES))
    if unknown:
        sys.exit(f"unknown case(s): {', '.join(unknown)}")
    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for case in names:
            (GOLDEN / f"{case}.json").write_bytes(_render(case, pathlib.Path(tmp)))
            print(case, file=sys.stderr)
