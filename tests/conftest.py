import os
from pathlib import Path

import pytest

import albert


@pytest.fixture
def child_env():
    """Environment for a ``python -m albert.cli`` child process.

    ``PYTHONPATH`` starts with the directory holding the ``albert`` this
    process imported, as an absolute path, so the child runs the same code
    whatever its working directory or a relative ``PYTHONPATH`` says.
    """
    root = str(Path(albert.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (root, env.get("PYTHONPATH")) if p
    )
    return env
