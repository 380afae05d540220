"""The suite's own pytest configuration reports failures it is meant to show."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

ONE_FAILING_PROPERTY = '''
from hypothesis import given, settings, strategies as st


@settings(database=None, derandomize=True)
@given(st.integers())
def test_property_fails(x):
    assert x < 5


def test_passes():
    pass
'''


def test_failing_property_test_is_reported(tmp_path):
    # to report a failure hypothesis imports libcst, whose import emits a
    # DeprecationWarning; the suite's warning filters must not turn that
    # into an INTERNALERROR that stops the test run
    (tmp_path / "test_probe.py").write_text(ONE_FAILING_PROPERTY)
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(PYPROJECT), "-q",
         "-p", "no:cacheprovider", "test_probe.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    out = proc.stdout + proc.stderr
    assert proc.returncode == 1, out
    assert "1 failed, 1 passed" in out, out
    assert "INTERNALERROR" not in out, out
