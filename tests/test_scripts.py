"""Smoke test: every experiment script runs to completion on the package."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import spir_mds

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


@pytest.mark.parametrize("script", ["demo_round.py", "capacity_table.py", "leakage_sweep.py", "audit_timing.py"])
def test_script_exits_cleanly(script):
    # the child imports the same spir_mds as this process, installed or not
    src_dir = str(Path(spir_mds.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src_dir, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / script)],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path),
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout
