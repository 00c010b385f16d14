"""Every top-level import of a beaconsim module is used in that module.

The one exception is a name the benchmark's tracing (``perfbench/tracing.py``)
patches on the module by attribute: such a binding can be the only reason
the import is there, and removing it would break ``--trace 1``.
"""

from __future__ import annotations

import ast
import importlib.util
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "beaconsim"


def _load_tracing():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", ROOT / "perfbench" / "tracing.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


tracing = _load_tracing()
HOOKED = ({(mod, name) for mod, name, _layer in tracing._BOUNDARIES}
          | {(mod, "substream") for mod in tracing._SUBSTREAM_USERS}
          | set(tracing._ENGINE_USERS))
MODULES = sorted(path.stem for path in PACKAGE.glob("*.py")
                 if path.name != "__init__.py")


def _unused_imports(source: str) -> set[str]:
    tree = ast.parse(source)
    imported = {
        alias.asname or alias.name.split(".")[0]
        for node in tree.body
        if isinstance(node, (ast.Import, ast.ImportFrom))
        and getattr(node, "module", None) != "__future__"
        for alias in node.names
    }
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return imported - used


def test_unused_import_is_found():
    assert _unused_imports("import os\nimport sys\nsys.exit()\n") == {"os"}


@pytest.mark.parametrize("mod", MODULES)
def test_imports_are_used_or_hooked(mod):
    unused = _unused_imports((PACKAGE / f"{mod}.py").read_text())
    assert {name for name in unused if (mod, name) not in HOOKED} == set()
