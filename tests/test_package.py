"""The package root re-exports every public name of the library modules,
and the package imports none of the test-only numerics."""

from __future__ import annotations

import ast
import importlib
import pathlib
import subprocess
import sys

import beaconsim

TESTS = pathlib.Path(__file__).resolve().parent
PACKAGE = TESTS.parent / "src" / "beaconsim"

ROOT_NAMES = [
    "ActivityModel", "CapacityEstimate", "ChannelSet", "DiversityFit",
    "MAX_PAIRS", "MeanGains", "MetricTriple", "MultiuserChannelSet",
    "MultiuserMeans", "OutageResult", "OverheadParams", "ProtocolConfig",
    "RelayIdentity", "Scheme", "SweepResult", "SweepSpec", "abs_diff_q_mean",
    "capacity_draws", "capacity_lower", "capacity_upper",
    "compute_metrics", "csa_conditional_miss", "csa_joint_success",
    "db_to_linear", "ergodic_capacity", "estimate_diversity", "estimate_joint_success_curve",
    "estimate_miss_curve", "exp_erlang_box_prob", "exp_q_mean",
    "exp_sum_box_prob", "fit_diversity_slope", "gaussian_q",
    "imperfect_capacity", "mucsa_conditional_miss",
    "nc_conditional_miss", "nc_joint_success", "ocsa_conditional_miss",
    "ocsa_fade_regions", "ocsa_joint_success", "ocsa_select_relay",
    "outage_capacity", "perturb_metrics", "phase1_failure",
    "relative_capacity_loss", "sample_channels", "sample_multiuser",
    "split_channel_uses", "state_probs", "throughput", "throughput_loss_bound",
    "throughput_loss_mc", "wrong_relay_bound", "wrong_relay_probability_mc",
]

MODULES = ("analysis", "capacity", "channel", "fadeprob", "numerics",
           "protocols")


def test_root_names():
    assert beaconsim.__all__ == ROOT_NAMES


def test_root_names_are_module_objects():
    owners = {}
    for mod_name in MODULES:
        mod = importlib.import_module(f"beaconsim.{mod_name}")
        for name in mod.__all__:
            assert name not in owners, (name, owners.get(name), mod_name)
            owners[name] = mod
            assert getattr(beaconsim, name) is getattr(mod, name)
    assert sorted(owners) == ROOT_NAMES


def test_readme_quick_start_import():
    from beaconsim import (MeanGains, Scheme, SweepSpec,  # noqa: F401
                           estimate_diversity, estimate_miss_curve)


def _imported_modules(path: pathlib.Path) -> set[str]:
    """Every module an import statement in path names, at any depth (inside
    functions too), with relative imports resolved against beaconsim."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = ".".join(filter(None, ["beaconsim" * bool(node.level),
                                          node.module]))
            names.add(base)
            names.update(f"{base}.{alias.name}" for alias in node.names)
    return names


def test_imported_modules_sees_nested_and_relative_imports(tmp_path):
    src = tmp_path / "m.py"
    src.write_text("def f():\n    from scipy.integrate import quad\n"
                   "from . import fadeprob\n")
    assert {"scipy.integrate", "beaconsim.fadeprob"} <= _imported_modules(src)


def test_package_never_imports_scipy_integrate():
    # the adaptive quadrature is a test oracle (tests/oracle.py) only
    for path in sorted(PACKAGE.glob("*.py")):
        assert not any(name == "scipy.integrate"
                       or name.startswith("scipy.integrate.")
                       for name in _imported_modules(path)), path.name


def test_oracle_does_not_import_fadeprob():
    # an oracle built on the kernels it checks would share their errors
    assert not any("fadeprob" in name
                   for name in _imported_modules(TESTS / "oracle.py"))


def test_cli_import_leaves_out_scipy_integrate():
    code = ("import sys, beaconsim.cli; "
            "sys.exit('scipy.integrate' in sys.modules)")
    assert subprocess.run([sys.executable, "-c", code]).returncode == 0
