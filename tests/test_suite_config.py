"""The test settings of ``pyproject.toml`` themselves."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

FAILING_PROPERTY_THEN_PLAIN_TEST = '''
from hypothesis import given, settings
from hypothesis import strategies as st


@settings(database=None, max_examples=5, deadline=None)
@given(st.integers())
def test_meant_to_fail(n):
    assert n != n


def test_after_it():
    pass
'''


def test_a_failing_property_does_not_end_the_session(tmp_path):
    # With every warning an error, a warning raised in hypothesis's report
    # hook of a failing property stopped pytest with INTERNALERROR before
    # the next test ran.
    (tmp_path / "test_probe.py").write_text(FAILING_PROPERTY_THEN_PLAIN_TEST)
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-c", str(PYPROJECT),
         "--rootdir", str(tmp_path), "test_probe.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    assert "INTERNALERROR" not in proc.stdout + proc.stderr
    assert "1 failed, 1 passed" in proc.stdout
