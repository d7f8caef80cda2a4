"""The package is imported from this checkout's src/, uninstalled: the
`pythonpath` setting in pyproject.toml puts it on the test process's
path, and PYTHONPATH carries it to the `python -m kgchat.cli`
subprocesses the tests start."""

import os
from pathlib import Path

SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    filter(None, [SRC, os.environ.get("PYTHONPATH")]))
