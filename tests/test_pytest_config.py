"""The repository's pytest settings report a failing Hypothesis test as
one failure and go on with the run.

``filterwarnings = ["error"]`` turns every warning into an error.  When a
``@given`` test fails, Hypothesis's pytest plugin imports libcst to report
the failing example, and libcst raises a DeprecationWarning on import; as
an error it would end the run with INTERNALERROR, and no later test would
be reported.  A child pytest under the repository's settings runs one
failing ``@given`` test and one passing test.
"""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

CHILD_TESTS = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 0


def test_passes():
    pass
'''


def test_failing_given_test_does_not_abort_the_run(tmp_path):
    (tmp_path / "test_child.py").write_text(CHILD_TESTS)
    result = subprocess.run(
        [
            sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
            "-c", str(PYPROJECT), "--rootdir", str(tmp_path), "test_child.py",
        ],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert "INTERNALERROR" not in result.stdout + result.stderr
    assert result.returncode == 1, result.stdout
    assert "1 failed, 1 passed" in result.stdout
