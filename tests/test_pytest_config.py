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


def _child_session(tmp_path, source, *options):
    """Run pytest with this repository's settings on one test file holding source."""
    (tmp_path / "test_child.py").write_text(source)
    return subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", *options,
         "-c", str(PYPROJECT), "--rootdir", str(tmp_path), "test_child.py"],
        capture_output=True,
        text=True,
        cwd=tmp_path,
        timeout=120,
    )


def test_failing_property_reports_its_example_and_the_session_goes_on(tmp_path):
    # filterwarnings = ["error"] must not turn a warning raised in the
    # Hypothesis plugin's report hook into an INTERNALERROR
    proc = _child_session(tmp_path, _FAILING_PROPERTY_THEN_PASSING_TEST)
    assert "1 failed, 1 passed" in proc.stdout, proc.stdout + proc.stderr
    assert "Falsifying example" in proc.stdout, proc.stdout


_MISTYPED_MARKER = "import pytest\n\n\n@pytest.mark.hypotesis\ndef test_marked():\n    pass\n"


def test_a_mistyped_marker_fails_collection(tmp_path):
    proc = _child_session(tmp_path, _MISTYPED_MARKER)
    assert proc.returncode == 2, proc.stdout  # interrupted during collection
    assert "1 error" in proc.stdout and "hypotesis" in proc.stdout, proc.stdout


def test_a_mistyped_marker_fails_collection_with_warnings_off(tmp_path):
    # strict_markers fails it on its own: with the warnings plugin off,
    # filterwarnings = ["error"] cannot turn the unknown-mark warning into the error
    proc = _child_session(tmp_path, _MISTYPED_MARKER, "-p", "no:warnings")
    assert proc.returncode == 2, proc.stdout
    assert "1 error" in proc.stdout and "hypotesis" in proc.stdout, proc.stdout
