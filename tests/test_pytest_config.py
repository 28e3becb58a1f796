"""The repository's pytest settings, checked in a child pytest session."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"

_FAILING_PROPERTY_THEN_PASSING_TEST = """\
from hypothesis import given
from hypothesis import strategies as st


@given(st.integers())
def test_property_that_fails(x):
    assert x < 10


def test_that_passes():
    pass
"""


def test_failing_property_reports_its_example_and_the_session_goes_on(tmp_path):
    # filterwarnings = ["error"] must not turn a warning raised in the
    # Hypothesis plugin's report hook into an INTERNALERROR
    (tmp_path / "test_child.py").write_text(_FAILING_PROPERTY_THEN_PASSING_TEST)
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(PYPROJECT), "--rootdir", str(tmp_path), "test_child.py"],
        capture_output=True,
        text=True,
        cwd=tmp_path,
        timeout=120,
    )
    assert "1 failed, 1 passed" in proc.stdout, proc.stdout + proc.stderr
    assert "Falsifying example" in proc.stdout, proc.stdout


def test_a_mistyped_marker_fails_collection(tmp_path):
    # --strict-markers fails it where pytest applies addopts' ini overrides;
    # pytest 9.0 drops those, and filterwarnings = ["error"] fails it instead
    (tmp_path / "test_child.py").write_text(
        "import pytest\n\n\n@pytest.mark.hypotesis\ndef test_marked():\n    pass\n"
    )
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(PYPROJECT), "--rootdir", str(tmp_path), "test_child.py"],
        capture_output=True,
        text=True,
        cwd=tmp_path,
        timeout=120,
    )
    assert proc.returncode == 2, proc.stdout  # interrupted during collection
    assert "1 error" in proc.stdout and "hypotesis" in proc.stdout, proc.stdout
