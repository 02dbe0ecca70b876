"""scipy and the process pool are loaded only on the paths that use them."""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# this process has scipy loaded already, so the probe runs in a fresh one
PROBE = """
import json, sys

def loaded(*names):
    return sorted(n for n in names if n in sys.modules)

import rareprob, rareprob.cli
from rareprob.harness import RunConfig, run_replication

seen = {"import": loaded("scipy", "multiprocessing")}
run_replication(RunConfig(problem="example9", method="sus-uniform", master_seed=0), 0)
run_replication(RunConfig(problem="example2", method="hmcmc", master_seed=0), 0)
seen["sus_and_hmcmc"] = loaded("scipy")
run_replication(RunConfig(problem="example2", method="qnp-hmcmc", master_seed=0), 0)
seen["qnp"] = loaded("scipy.linalg")
print(json.dumps(seen))
"""


def test_scipy_and_multiprocessing_load_only_where_used():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), OMP_NUM_THREADS="1",
               OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, "-c", PROBE], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    seen = json.loads(proc.stdout.splitlines()[-1])
    assert seen == {"import": [], "sus_and_hmcmc": [], "qnp": ["scipy.linalg"]}
