"""The test suite's own settings: a failing property test is reported like
any other failure, and every warning but one known import-time deprecation
stays an error."""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

PROBE = """
import warnings

from hypothesis import given, strategies as st


@given(st.integers())
def test_property_fails(x):
    assert x < 0


def test_plain_runs():
    pass


def test_other_warning_is_an_error():
    warnings.warn("any other deprecation", DeprecationWarning)
"""


def test_failing_property_test_does_not_abort_the_run(tmp_path):
    # hypothesis reports a failure through libcst, which imports a
    # deprecated mypy_extensions name; as an error that aborted pytest
    # with exit 3 and skipped every later test
    (tmp_path / "test_probe.py").write_text(PROBE)
    out = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", os.path.join(ROOT, "pyproject.toml"),
         "--rootdir", str(tmp_path), "-p", "no:cacheprovider", "-rA", "test_probe.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    report = out.stdout + out.stderr
    assert out.returncode == 1, report
    assert "INTERNALERROR" not in report
    assert "FAILED test_probe.py::test_property_fails" in report
    assert "PASSED test_probe.py::test_plain_runs" in report
    assert "FAILED test_probe.py::test_other_warning_is_an_error" in report
