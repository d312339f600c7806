"""Memory guard: at (q, n, m, k, stripes) = (101, 10, 4, 10, 2) the default
audit and the zeroed-randomness control each decide exactly in a fresh
process whose peak resident set stays under 200 MB.

Each audit runs in its own child interpreter, and the child reads its
own high-water mark, ``VmHWM`` in /proc/self/status: the audit plus the
interpreter's and numpy's start-up.  ``ru_maxrss`` would not do, as Linux
carries it across exec from the forking process, here the test runner.
The answer model is applied, not materialised: neither the link nor the
rank gap builds a dense array per point or per mask beyond one rank-gap
batch.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import spir_mds

if not Path("/proc/self/status").exists():
    pytest.skip("VmHWM is read from Linux's /proc", allow_module_level=True)

PEAK_BYTES = 200 * 10**6

CHILD = r"""
import sys
from spir_mds import storage
from spir_mds.audit import CHECKS, run_audit
p = storage.StorageParams(q=101, n=10, m=4, k=10, stripes=2)
randomness = sys.argv[1]
checks = CHECKS if randomness == "full" else ("db-privacy",)
report = run_audit(p, storage.build_generator(p), checks, randomness_mode=randomness, ceiling=2**100000)
assert all(check.exact for check in report.checks), report
assert report.all_passed == (randomness == "full"), report
with open("/proc/self/status") as status:
    print(next(int(line.split()[1]) * 1024 for line in status if line.startswith("VmHWM:")))  # in kB
"""


@pytest.mark.parametrize("randomness", ["full", "zeroed"], ids=["default_audit", "zeroed_control"])
def test_peak_rss_stays_under_200_mb(randomness):
    # the child imports the same spir_mds as this process, installed or not
    src_dir = str(Path(spir_mds.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src_dir, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", CHILD, randomness],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path),
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    peak = int(proc.stdout)
    assert peak < PEAK_BYTES, f"peak RSS {peak / 1e6:.0f} MB"
