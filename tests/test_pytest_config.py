"""The suite's own pytest settings (pyproject.toml), run on a throwaway test file."""

import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent

THROWAWAY = '''
from hypothesis import given, strategies as st

from cdtm.model import TrainConfig


@given(st.integers())
def test_hypothesis_failure(x):
    assert x < 10


def test_cdtm_deprecation():
    TrainConfig(phi_tol=1e-6)


def test_passes():
    pass
'''


def test_a_failing_hypothesis_test_is_reported_as_a_failure(tmp_path):
    # The settings turn DeprecationWarning into an error.  A failing @given
    # test makes hypothesis's report import libcst, whose import warns
    # through mypy_extensions.TypedDict; unless the settings ignore that one
    # warning, pytest stops with an INTERNALERROR (exit 3) and runs no later
    # test.  cdtm's own deprecations must still fail.
    (tmp_path / "test_throwaway.py").write_text(THROWAWAY, encoding="utf-8")
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(ROOT / "pyproject.toml"), "-p", "no:cacheprovider",
         "-q", "test_throwaway.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=600,
    )
    report = result.stdout + result.stderr
    assert result.returncode == 1, report
    assert "INTERNALERROR" not in report
    assert "2 failed, 1 passed" in report, report
    assert "FAILED" in report and "test_cdtm_deprecation - DeprecationWarning" in report, report
