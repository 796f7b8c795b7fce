"""The demos run to completion as child processes of the package under test."""

import os
import subprocess
import sys

import pytest

from conftest import cdtm_subprocess_env

DEMOS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "demos")


@pytest.mark.parametrize(
    "script", ["coherence_walkthrough.py", "model_selection.py", "train_synthetic.py"]
)
def test_demo_runs(script):
    proc = subprocess.run(
        [sys.executable, os.path.join(DEMOS, script)],
        env=cdtm_subprocess_env(),
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
