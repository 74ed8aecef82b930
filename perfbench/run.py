"""Run one benchmark workload and print its metrics.

Usage, from the repository root:

    python3 perfbench/run.py --workload pretrain-stain --seed 0 \\
        --seconds 20 --trace 0

The package is imported from ``src/`` of the same checkout.  Every line
but the last is for people: each end-to-end metric under its own name
with its unit, then the environment.  The last line is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics`` (the
``end_to_end`` metrics of BENCHMARK.json with ``--trace 0``, the
``per_layer`` ones with ``--trace 1``).  Sidecars go to
``perfbench/out/``: the full result with its environment, and with
``--trace 1`` the spans as JSONL.
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import json
import os
import platform
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"
DIGESTS = ROOT / "perfbench" / "digests.json"

# One BLAS thread: the probe's two pool threads then never oversubscribe
# the two cores, and the depth-4 train step runs about 15% faster than
# with two BLAS threads.  Must be set before numpy loads OpenBLAS.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS


def _git_commit():
    """HEAD of the checkout when it is a git work tree, else None."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text("ascii").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text("ascii").strip()
        for line in (git / "packed-refs").read_text("ascii").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _src_digest() -> str:
    """sha256 over the package sources, for checkouts without git."""
    h = hashlib.sha256()
    for path in sorted((SRC / "tokenhier").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(path.relative_to(SRC).as_posix().encode("utf-8"))
            h.update(path.read_bytes())
    return h.hexdigest()


def _environment() -> dict:
    import ctypes

    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in glob.glob(str(libdir / "*openblas*")):
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(ctypes.CDLL(lib), symbol, None)
            if fn is not None:
                threads = int(fn())
                break
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads if threads is not None else BLAS_THREADS,
        "git_commit": _git_commit(),
        "src_sha256": _src_digest(),
    }


def _pinned_digest(workload: str, seed: int):
    pins = json.loads(DIGESTS.read_text("ascii"))
    return pins["sha256"].get(workload) if seed == pins["seed"] else None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "tokenhier" / "__init__.py").is_file():
        print(f"perfbench: no package source at {SRC / 'tokenhier'}",
              file=sys.stderr)
        return 2
    t0 = time.perf_counter()
    sys.path[:0] = [str(SRC), str(ROOT)]
    from perfbench.measure import END_TO_END, PER_LAYER, run_workload
    from perfbench.workloads import WORKLOADS
    import_s = time.perf_counter() - t0
    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]

    OUT.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        origin = time.perf_counter()
        outcome = run_workload(
            wl, args.seed, args.seconds, bool(args.trace), Path(tmp),
            expected_digest=_pinned_digest(args.workload, args.seed),
            import_s=import_s)

    units = dict(PER_LAYER if args.trace else END_TO_END)
    metrics = {name: {"value": outcome.metrics[name], "unit": unit}
               for name, unit in units.items()}
    correct = outcome.failed == 0 and not outcome.problems
    env = _environment()
    stem = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        with open(f"{stem}.trace.jsonl", "w", encoding="ascii") as fh:
            for phase, tracer in outcome.tracers.items():
                tracer.write_jsonl(fh, origin, phase=phase)
    with open(f"{stem}.json", "w", encoding="ascii") as fh:
        json.dump({"workload": args.workload, "seed": args.seed,
                   "seconds": args.seconds, "trace": args.trace,
                   "environment": env, "correct": correct,
                   "attempted": outcome.attempted, "failed": outcome.failed,
                   "problems": outcome.problems, "metrics": metrics,
                   "report": [{"name": n, "value": v, "unit": u, "note": note}
                              for n, v, u, note in outcome.report]},
                  fh, indent=1, sort_keys=True)

    for problem in outcome.problems:
        print(f"FAILED: {problem}")
    for name, value, unit, note in outcome.report:
        print(f"{name:<22} {value:>14.6g} {unit:<8} {note}")
    if args.trace:
        for name, unit in PER_LAYER:
            print(f"{name:<40} {outcome.metrics[name]:>14.6g} {unit}")
    print("environment " + json.dumps(env, sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": outcome.attempted,
                      "failed": outcome.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
