"""The ``python`` backend never loads NumPy.

NumPy is reached only through :func:`repro.core.backend.import_numpy`, so
a process that imports the package and runs scalar work leaves ``numpy``
out of ``sys.modules`` (its import is about a third of a cold SIMT
sweep's set-up time and a quarter of its peak RSS).  Each check runs in
a fresh interpreter, since this test process has long since loaded NumPy.
The second half blocks NumPy with an import stub first on ``sys.path`` and
checks the backend resolution rules hold there.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

_PYTHON_PATH_SCRIPT = """
import sys

import repro
import repro.analytical.analytic
import repro.cli
from repro.cli import main
from repro.memsim.config import PAPER_BASELINE, CacheConfig
from repro.validation.parallel import SweepRunner
from repro.workloads import suite

configs = [
    PAPER_BASELINE.with_(
        num_cores=4, l1=CacheConfig(size=kb * 1024, assoc=4, line_size=128))
    for kb in (16, 32)
]
kernel = suite.make("vectoradd", scale="tiny")


def sweep(sim_mode, backend):
    runner = SweepRunner(jobs=1, use_cache=False)
    [result] = runner.run([kernel], configs, num_cores=4, backend=backend,
                          sim_mode=sim_mode)
    assert not result.failures
    return result.pairs


assert "numpy" not in sys.modules, "importing repro loaded numpy"
sweep("simt", "python")
assert "numpy" not in sys.modules, "a python simt sweep loaded numpy"
flat = sweep("flat", "python")
assert "numpy" not in sys.modules, "a python flat sweep loaded numpy"
assert main(["simulate", "vectoradd", "--scale", "tiny"]) == 0
assert "numpy" not in sys.modules, "gmap simulate loaded numpy"
assert sweep("flat", "numpy") == flat, "numpy flat sweep differs"
assert "numpy" in sys.modules
print("ok")
"""

_NO_NUMPY_SCRIPT = """
import importlib.util
import os

from repro.core.backend import numpy_available, resolve_backend

assert importlib.util.find_spec("numpy") is not None  # found, not importable
assert not numpy_available()
try:
    resolve_backend("numpy")
except ValueError as exc:
    assert "not importable" in str(exc)
else:
    raise AssertionError("explicit numpy backend resolved without numpy")
os.environ["GMAP_BACKEND"] = "numpy"
assert resolve_backend(None) == "python"
print("ok")
"""


def _run(script: str, *path: Path) -> None:
    env = {k: v for k, v in os.environ.items() if not k.startswith("GMAP_")}
    env["PYTHONPATH"] = os.pathsep.join(str(p) for p in (*path, SRC))
    proc = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True,
        text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.splitlines()[-1] == "ok"


def test_python_backend_never_imports_numpy():
    pytest.importorskip("numpy", exc_type=ImportError)
    _run(_PYTHON_PATH_SCRIPT)


def test_resolution_when_numpy_is_unimportable(tmp_path):
    stub = tmp_path / "numpy"
    stub.mkdir()
    (stub / "__init__.py").write_text(
        'raise ImportError("numpy is blocked for this test")\n')
    _run(_NO_NUMPY_SCRIPT, tmp_path)
