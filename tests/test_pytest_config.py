"""pyproject.toml turns every warning into an error. These checks keep that
from cutting a test session short."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

_TWO_TESTS = """
from hypothesis import given, strategies as st


@given(st.integers(0, 9))
def test_fails(x):
    assert x < 5


def test_passes():
    pass
"""


def test_failing_property_does_not_stop_the_session(tmp_path):
    # Once the patch that hypothesis writes for a failing example imported
    # libcst, whose DeprecationWarning became an INTERNALERROR: pytest
    # reported "1 failed", never ran test_passes, and exited 3.
    (tmp_path / "test_two.py").write_text(_TWO_TESTS, encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(PYPROJECT), "--rootdir", str(tmp_path),
         "-p", "no:cacheprovider", "test_two.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    output = proc.stdout + proc.stderr
    assert "INTERNALERROR" not in output
    assert "1 failed, 1 passed" in output
    assert proc.returncode == 1
