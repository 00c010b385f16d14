"""Golden CLI outputs: every kind, byte for byte.

Each case runs ``beaconsim.cli.main`` with ``--format json`` (full float
precision) at one and at two threads and compares the output with the copy
in ``tests/golden/``; only the meta ``threads`` field may differ.  30000
trials in chunks of 7000 leave a short last chunk.  The files pin the
stream layout and every estimator, so a refactor meant to keep the results
must leave them unchanged.

The bytes hold for the numpy and scipy versions in ``VERSIONS`` at one SIMD
dispatch level (numpy's AVX-512 ``exp``, ``expm1``, ``log1p`` and ``power``
round 1 ulp unlike its AVX2 ones), so one subprocess renders every case at
``X86_V3`` (``PINNED``) on any CPU and refuses any other level.  ``python
tests/test_golden.py [NAME...]`` (no name: every case) regenerates through
it, under those versions only, when a change is meant to move the numbers;
say so in the change log.
"""

from __future__ import annotations

import functools
import os
import pathlib
import re
import subprocess
import sys
import tempfile

import pytest
from numpy._core._multiarray_umath import __cpu_features__ as cpu

from beaconsim import capacity, channel
from beaconsim.cli import KINDS, Conf, main
from beaconsim.mc import TAG_GAINS, TAG_METRIC_NOISE, TAG_STATUS

GOLDEN = pathlib.Path(__file__).with_name("golden")
VERSIONS = {"numpy": "2.4.6", "scipy": "1.17.1"}
# cap numpy at X86_V3 (AVX2); a name that is no dispatch target makes it warn
PINNED = {"NPY_DISABLE_CPU_FEATURES": "X86_V4 AVX512_ICL AVX512_SPR"}

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
    # d1 = 1 < d2 = 2 pins the ocsa own-link recovery, the full-length
    # failure, where it rounds unlike d1 + d2 uses written as a recovery
    split = '[protocol]\nscheme = "ocsa"\nd1 = 1\nd2 = 2\n'
    for side in ("t", "r"):
        cases[f"miss-ocsa-channel-{side}-d1d2"] = (
            "miss-sweep", _RUN + _PAIR + split + _sweep([5.0, 15.0], side=side))
    cases["joint-ocsa-d1d2"] = (
        "joint-sweep", _RUN + _PAIR + split + _sweep([0.0, 10.0]))
    cases["ergodic-ocsa-d1d2"] = (
        "capacity-ergodic", _RUN + _PAIR + split + _CAP + _sweep([0.0, 6.0]))
    for scheme in ("nc", "csa"):
        cases[f"diversity-{scheme}"] = (
            "diversity",
            _RUN + _PAIR + _proto(scheme) + _sweep([20.0, 30.0, 40.0], "tail"))
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
        # only ocsa reads sigma2: nc and csa select no relay
        noise = "sigma2 = 0.05\n" if scheme == "ocsa" else ""
        cases[f"outage-{scheme}"] = (
            "capacity-outage",
            _RUN + _PAIR + _proto(scheme) + _CAP
            + "epsilons = [0.01, 0.1]\n" + noise + _sweep([0.0, 6.0]))
    cases["imperfect-ocsa"] = (
        "imperfect",
        _RUN + _PAIR + _proto("ocsa") + _CAP
        + "sigma2 = [0.0, 0.05]\n" + _sweep([0.0, 6.0]))
    # no sigma2 = 0 row, unsorted: every row is a noisy cell of the grid
    cases["imperfect-ocsa-sigma-grid"] = (
        "imperfect",
        _RUN + _PAIR + _proto("ocsa") + _CAP
        + "sigma2 = [0.1, 0.01]\n" + _sweep([0.0, 3.0, 6.0]))
    # no sigma2 = 0, a repeated level, d1 = 2 > d2 = 1 and unsorted rho
    cases["imperfect-ocsa-corner"] = (
        "imperfect",
        _RUN + _PAIR + _proto("ocsa").replace("d = 2", "d = 3") + _CAP
        + "sigma2 = [0.05, 0.2, 0.05]\n" + _sweep([6.0, 0.0]))
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
    # channel mode at M = 4 enumerates 127 helper subsets; the last chunk
    # holds a single trial
    cases["multiuser-channel-m4"] = (
        "multiuser",
        _RUN.replace("n_trials = 30000", "n_trials = 10001")
        .replace("chunk = 7000", "chunk = 5000")
        + _MULTI.replace("m_pairs = 2", "m_pairs = 4") + "user = 5\n"
        + _sweep([0.0, 10.0]))
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


def _render_here(out: str) -> None:
    """Render every case at 1 and 2 threads into out, at X86_V3 only."""
    if not cpu["X86_V3"] or cpu["X86_V4"]:
        sys.exit(f"goldens need X86_V3: {cpu['X86_V3']=}, {cpu['X86_V4']=}")
    for name in CASES:
        for threads in (1, 2):
            pathlib.Path(out, f"{name}.{threads}").write_bytes(
                _render(name, pathlib.Path(out), threads))


@functools.cache
def _render_pinned() -> dict[str, tuple[bytes, bytes]]:
    """Every case's (1-thread, 2-thread) renders from _render_here, run in
    a subprocess with PINNED in its environment."""
    with tempfile.TemporaryDirectory() as out:
        code = (f"import sys; sys.path.insert(0, {str(GOLDEN.parent)!r}); "
                f"import test_golden; test_golden._render_here({out!r})")
        proc = subprocess.run([sys.executable, "-c", code],
                              env={**os.environ, **PINNED},
                              capture_output=True, text=True)
        if proc.returncode:
            raise RuntimeError(f"pinned render failed:\n{proc.stderr}")
        return {name: tuple(pathlib.Path(out, f"{name}.{threads}").read_bytes()
                            for threads in (1, 2)) for name in CASES}


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_output(name, tmp_path):
    want = (GOLDEN / f"{name}.json").read_bytes()
    # five chunks, so two threads really split the work
    assert want.count(b'"threads": 1') == 1
    two = want.replace(b'"threads": 1', b'"threads": 2')
    assert _render_pinned()[name] == (want, two)
    # at the machine's own dispatch level the thread counts agree too
    native = [_render(name, tmp_path, threads) for threads in (1, 2)]
    assert native[1] == native[0].replace(b'"threads": 1', b'"threads": 2')


def test_every_scheme_of_every_kind_has_a_case():
    # a case runs its protocol.scheme, or the scheme of a one-scheme kind
    have = set()
    for kind, config in CASES.values():
        named = re.search(r'^scheme = "(\w+)"', config, re.M)
        have.add((kind, named[1] if named else KINDS[kind][2][0].value))
    want = {(kind, scheme.value)
            for kind, (_run, _reads, schemes, _values) in KINDS.items()
            for scheme in schemes}
    assert want - have == set()


@pytest.mark.parametrize("kind", sorted(KINDS))
def test_declared_keys_are_read(kind, tmp_path, monkeypatch):
    # every key the kind accepts is looked up by one of its golden configs,
    # so none is accepted unchecked; a kind that runs sweep.side = "t" alone
    # need not read the key, since its one value is checked against KINDS
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
    unread = {"sweep.side"} if KINDS[kind][3]["side"] == ("t",) else set()
    assert declared - asked - unread == set()


@pytest.mark.parametrize("name", sorted(n for n, (kind, _config)
                                  in CASES.items() if kind == "imperfect"))
def test_imperfect_draws_once_per_chunk(name, tmp_path, monkeypatch):
    # one pass: the gains open once per chunk, and so does one metric-noise
    # draw that every nonzero sigma2 level scales; no status is drawn
    opened = []
    for module in (channel, capacity):
        def counted(*key, _orig=module.substream):
            opened.append(key[1:])
            return _orig(*key)

        monkeypatch.setattr(module, "substream", counted)
    _render(name, tmp_path)
    levels = re.search(r"^sigma2 = \[(.*)\]$", CASES[name][1], re.M)[1]
    noisy = bool({float(s2) for s2 in levels.split(",")} - {0.0})
    chunks = list(range(5))
    by_tag = {tag: sorted(idx for t, idx in opened if t == tag)
              for tag in (TAG_GAINS, TAG_STATUS, TAG_METRIC_NOISE)}
    assert by_tag == {TAG_GAINS: chunks, TAG_STATUS: [],
                      TAG_METRIC_NOISE: chunks if noisy else []}
    assert len(opened) == len(chunks) * (1 + noisy)


def test_regeneration_refuses_other_versions():
    # the version check runs before the case names are read, so the unknown
    # name guarantees that nothing is written even if the check is broken
    code = ("import runpy, sys, numpy; numpy.__version__ = '0.0'; "
            "sys.argv = ['test_golden.py', 'no-such-case']; "
            f"runpy.run_path({str(pathlib.Path(__file__))!r}, "
            "run_name='__main__')")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True)
    assert proc.returncode != 0
    assert "goldens need" in proc.stderr and "'0.0'" in proc.stderr


if __name__ == "__main__":
    import numpy
    import scipy

    installed = {"numpy": numpy.__version__, "scipy": scipy.__version__}
    if installed != VERSIONS:
        sys.exit(f"goldens need {VERSIONS}, installed {installed}")
    names = sys.argv[1:] or sorted(CASES)
    unknown = sorted(set(names) - set(CASES))
    if unknown:
        sys.exit(f"unknown case(s): {', '.join(unknown)}")
    GOLDEN.mkdir(exist_ok=True)
    for case in names:
        (GOLDEN / f"{case}.json").write_bytes(_render_pinned()[case][0])
        print(case, file=sys.stderr)
