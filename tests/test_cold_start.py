"""Cold start: importing the package loads neither scipy nor numba.

A restarted server, a CLI run or a spawned worker pays only for numpy and
the repro modules it uses.  scipy loads where it is needed: scipy.special
when Algorithm 3's planner evaluates the normal CDF, scipy.sparse in the
CSR builders, scipy.stats only in fig4's QQ statistics.  The compiled
kernels load at the first sketch operation, when numba is installed.
Each probe runs in a fresh interpreter, since this one has long since
imported everything.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import repro

SRC = str(Path(repro.__file__).resolve().parents[1])

PROBE = """
import json, sys


def loaded(*roots):
    return sorted(m for m in sys.modules if m.partition(".")[0] in roots)


import repro, repro.experiments, repro.serving.http

report = {
    "import": loaded("scipy", "numba"),
    "jit_at_import": "repro.sketch.kernels.numba_jit" in sys.modules,
}

from repro import CountSketch, ProblemModel, plan_hyperparameters
from repro.sketch.kernels import numba_available

CountSketch(num_tables=3, num_buckets=64, seed=1).insert([1, 2], [1.0, 2.0])
report["jit_after_sketch"] = "repro.sketch.kernels.numba_jit" in sys.modules
report["numba"] = numba_available()

model = ProblemModel(
    p=20_000, alpha=0.002, u=0.8, sigma=1.0, T=5000, num_tables=5,
    num_buckets=8_000,
)
plan_hyperparameters(model)
report["planned"] = loaded("scipy")
print(json.dumps(report))
"""


def _probe() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    proc = subprocess.run(
        [sys.executable, "-c", PROBE],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_cold_import_loads_no_scipy_until_the_planner_runs():
    report = _probe()
    assert report["import"] == []
    assert not report["jit_at_import"]
    assert report["jit_after_sketch"] == report["numba"]
    assert "scipy.special" in report["planned"]
    assert not [m for m in report["planned"] if m.startswith("scipy.stats")]
