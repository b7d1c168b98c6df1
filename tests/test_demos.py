"""Every script in demos/ runs to completion."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import pakit

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


def test_demos_are_found():
    assert DEMOS, "no demos/*.py beside tests/"


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_exits_zero(demo):
    # Minimal environment; PYTHONPATH points at the directory holding the
    # pakit this process imported, so the demo runs the same code.
    package_root = os.path.dirname(os.path.dirname(os.path.abspath(pakit.__file__)))
    completed = subprocess.run(
        [sys.executable, str(demo)],
        capture_output=True,
        text=True,
        env={"PATH": "/usr/bin:/bin", "PYTHONPATH": package_root},
        timeout=120,
    )
    assert completed.returncode == 0, completed.stderr
