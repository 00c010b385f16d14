"""The benchmark's hooks still find the names they patch or call.

``perfbench/tracing.py`` wraps names on the beaconsim modules by attribute
(``setattr(beaconsim.analysis, "ocsa_fade_regions", ...)``) and
``perfbench/kernels.py`` times public functions directly.  A refactor that
renames or moves one of those names breaks ``--trace 1`` without failing
any other test, so this file checks every one of them resolves.
"""

from __future__ import annotations

import ast
import importlib
import importlib.util
import pathlib

import pytest

PERFBENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"
MODULES = ("analysis", "capacity", "channel", "cli", "fadeprob", "mc",
           "numerics", "protocols")


def _load_tracing():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", PERFBENCH / "tracing.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def _module(name):
    return importlib.import_module(f"beaconsim.{name}")


tracing = _load_tracing()


@pytest.mark.parametrize("mod, name, layer", tracing._BOUNDARIES)
def test_boundary_names_resolve(mod, name, layer):
    assert callable(getattr(_module(mod), name))
    # spans are labelled with the callee's layer, so the name must live there
    assert hasattr(_module(layer), name)


@pytest.mark.parametrize("mod", tracing._SUBSTREAM_USERS)
def test_substream_users_resolve(mod):
    assert getattr(_module(mod), "substream") is _module("mc").substream


@pytest.mark.parametrize("mod, name", tracing._ENGINE_USERS)
def test_engine_users_resolve(mod, name):
    assert getattr(_module(mod), name) is getattr(_module("mc"), name)


def _kernel_references():
    """(module, name) for every beaconsim attribute the kernel pass reads."""
    tree = ast.parse((PERFBENCH / "kernels.py").read_text())
    refs = set()
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in MODULES):
            refs.add((node.value.id, node.attr))
        elif (isinstance(node, ast.ImportFrom) and node.module
              and node.module.startswith("beaconsim.")):
            mod = node.module.split(".", 1)[1]
            refs.update((mod, alias.name) for alias in node.names)
    return refs


KERNEL_REFS = _kernel_references()


def test_kernel_pass_reads_the_expected_names():
    for ref in [("channel", "sample_channels"), ("channel", "sample_multiuser"),
                ("channel", "perturb_metrics"), ("channel", "MetricTriple"),
                ("capacity", "capacity_draws"), ("mc", "TAG_GAINS"),
                ("mc", "TAG_THRESHOLDS")]:
        assert ref in KERNEL_REFS


@pytest.mark.parametrize("mod, name", sorted(KERNEL_REFS))
def test_kernel_names_resolve(mod, name):
    assert hasattr(_module(mod), name)
