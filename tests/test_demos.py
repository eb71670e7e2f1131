"""The README's demo scripts run to completion against the package
under test."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import isinglearn

DEMOS = Path(__file__).resolve().parents[1] / "demos"


@pytest.mark.parametrize("name", [
    "01_models_and_sampling.py",
    "02_screening_loss_and_solver.py",
    "03_structure_recovery.py",
    "04_theory_and_verification.py",
    "05_sample_complexity_experiments.py",
])
def test_demo_runs(name):
    src = str(Path(isinglearn.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, str(DEMOS / name)],
                         capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=path))
    assert out.returncode == 0, out.stderr
