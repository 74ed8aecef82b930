"""The benchmark's seed-0 output pins hold for the package as it stands.

Each workload in ``perfbench.workloads.WORKLOADS`` runs one job at seed
0 in a child process with one BLAS thread, as ``perfbench/run.py`` runs
it, and its output digest must equal ``perfbench/digests.json``.  A
change that moves these bytes on purpose re-pins them in a benchmark
change; any other change must leave them alone.
"""

import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PINS = json.loads((ROOT / "perfbench" / "digests.json").read_text("ascii"))

JOB = """
import sys
from pathlib import Path
from perfbench.workloads import WORKLOADS
workload = WORKLOADS[sys.argv[1]]
inputs = workload.setup(int(sys.argv[2]), Path(sys.argv[3]))
print(workload.job(inputs).digest)
"""


@pytest.mark.skipif(platform.machine() not in ("x86_64", "AMD64"),
                    reason="the digests are pinned with x86-64 OpenBLAS; "
                           "other BLAS builds may round differently")
@pytest.mark.parametrize("name", sorted(PINS["sha256"]))
def test_seed0_job_matches_pin(name, tmp_path):
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT)]))
    done = subprocess.run(
        [sys.executable, "-c", JOB, name, str(PINS["seed"]), str(tmp_path)],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split()[-1] == PINS["sha256"][name]


# Trace points that resolve to nothing, so the per-layer metrics they
# feed read 0: helpers a change renamed or folded away while the
# benchmark kept their names, and ``ssl.stain_augment``, which the view
# builder no longer calls (its per-view jitter kernel is
# ``stain_remap``).  A later rename that strands another point fails
# here instead of silently zeroing a metric.
UNRESOLVED = {"ssl.tokenize", "encoder.tokenize", "ssl._centered_ce",
              "ssl.ibot_loss_grad", "bench.forward", "ssl.stain_augment"}

POINTS = """
import json
from perfbench.workloads import trace_points
print(json.dumps([f"{owner.__name__.rsplit('.', 1)[-1]}.{attr}"
                  for owner, attr, _, _ in trace_points()
                  if not hasattr(owner, attr)]))
"""


def test_unresolved_trace_points_are_named(tmp_path):
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT)]))
    done = subprocess.run([sys.executable, "-c", POINTS], cwd=tmp_path,
                          env=env, capture_output=True, text=True,
                          timeout=120)
    assert done.returncode == 0, done.stderr
    assert set(json.loads(done.stdout.splitlines()[-1])) == UNRESOLVED
