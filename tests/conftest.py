"""Make the CLI subprocesses started by the tests import this checkout.

``pythonpath = ["src"]`` in pyproject.toml covers the test process itself;
child interpreters (``python -m beaconsim.cli``) only see ``PYTHONPATH``.
"""

import os
import pathlib

_SRC = str(pathlib.Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    filter(None, [_SRC, os.environ.get("PYTHONPATH")]))
