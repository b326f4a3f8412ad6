"""Every demo script runs to completion against the package in this checkout."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import fivecolor

SRC = Path(fivecolor.__file__).resolve().parents[1]
DEMOS = sorted((SRC.parent / "demos").glob("*.py"))


def test_demos_found():
    assert len(DEMOS) >= 5


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(demo):
    run = subprocess.run(
        [sys.executable, str(demo)],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        cwd=demo.parent,
        timeout=120,
    )
    assert run.returncode == 0, run.stderr
