"""scipy is loaded only by the Monte Carlo chi-square screen.

Importing scipy.stats costs about a second of start-up, so every other
entry point (the package import, run, rates, encode, reconstruct and an
exact audit) must leave it out of ``sys.modules``.  The package root
itself loads none of its submodules: each name is imported from the
module that defines it.  One fresh interpreter walks all of them in
turn, so the whole guard costs one start-up.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import spir_mds

# Each step runs in the child and records whether scipy is loaded after it.
CHILD = r"""
import json, os, sys
out = sys.argv[1]
loaded = {}
import spir_mds
loaded["import spir_mds"] = "scipy" in sys.modules
submodules = sorted(name for name in sys.modules if name.startswith("spir_mds."))
from spir_mds.cli import main
inst = ["--q", "2", "--n", "4", "--m", "1", "--k", "2"]
steps = {
    "rates": ["rates", "--n", "4", "--m", "2", "--k", "2", "--out", os.path.join(out, "rates.txt")],
    "run": ["run", *inst, "--out", os.path.join(out, "t.json"), "--rate-out", os.path.join(out, "r.json")],
    "encode": ["encode", *inst, "--seed-db", "1", "--out", os.path.join(out, "shares.json")],
    "reconstruct": ["reconstruct", "--shares", os.path.join(out, "shares.json"), "--nodes", "2",
                    "--out", os.path.join(out, "db.json")],
    "exact audit": ["audit", *inst, "--out", os.path.join(out, "exact.json")],
    "monte carlo audit": ["audit", "--q", "5", "--n", "4", "--m", "2", "--k", "2",
                          "--monte-carlo", "50", "--checks", "user-privacy",
                          "--out", os.path.join(out, "mc.json")],
}
codes = {}
for name, argv in steps.items():
    codes[name] = main(argv)
    loaded[name] = "scipy" in sys.modules
print(json.dumps({"codes": codes, "loaded": loaded, "submodules": submodules}))
"""


def test_scipy_loads_only_for_monte_carlo_audit(tmp_path):
    # the child imports the same spir_mds as this process, installed or not
    src_dir = str(Path(spir_mds.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src_dir, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", CHILD, str(tmp_path)],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path),
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert all(code == 0 for code in result["codes"].values()), result["codes"]
    loaded = result["loaded"]
    assert [step for step, yes in loaded.items() if yes] == ["monte carlo audit"], loaded
    assert result["submodules"] == [], "import spir_mds loaded " + ", ".join(result["submodules"])
