"""Every package imports on its own.

Each import runs in a fresh interpreter: inside the test process the
modules are already loaded, which is how an import cycle once hid
behind whichever package happened to be imported first.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

MODULES = (
    ["repro"]
    + sorted(
        f"repro.{init.parent.name}"
        for init in (SRC / "repro").glob("*/__init__.py")
    )
    # the modules of the old parallel -> serve -> parallel cycle
    + ["repro.parallel.strategy", "repro.parallel.work"]
)


def _fresh_interpreter(code: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, "-c", code],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )


@pytest.mark.parametrize("module", MODULES)
def test_imports_in_a_fresh_interpreter(module):
    proc = _fresh_interpreter(f"import {module}")
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("module", ["repro.workloads", "repro.graphs.taskgraph"])
def test_declarations_load_no_serving_module(module):
    """The benchmark suite and the task-graph declarations sit below the
    serving, parallel and cluster layers."""
    layers = ("repro.serve", "repro.parallel", "repro.cluster")
    proc = _fresh_interpreter(
        f"import sys, {module}\n"
        f"print(*sorted(m for m in sys.modules if m.startswith({layers!r})))"
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == []


def test_every_package_is_listed():
    assert len(MODULES) >= 16
    assert "repro.parallel" in MODULES and "repro.serve" in MODULES
