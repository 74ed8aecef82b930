"""Alternating parent/change pairs of the benchmark, summarised per
end-to-end metric.

Usage (standard library only):

    python3 tests/bench_pairs.py PARENT CHANGE --workload W \\
        --seeds 601-610 --seconds 20

PARENT and CHANGE are two checkouts of the repository.  Pair i runs
``perfbench/run.py --workload W --seed S_i --seconds T --trace 0`` in
both, the parent first in even pairs and the change first in odd ones,
so drift in the host's speed falls on both sides alike.  Metric names,
their ``better`` direction and their bounds come from CHANGE's
``BENCHMARK.json``.  For each end-to-end metric the script prints both
medians with their quartiles, the relative change, how many pairs the
change won, whether the gap between the medians exceeds the parent's
interquartile range and whether the change is worse than its bound; it
then names every run that is not ``correct`` or has failed operations.
It writes nothing itself: ``run.py`` keeps its outputs in each
checkout's ignored ``perfbench/out/``.  It is not collected by pytest.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def parse_seeds(text: str) -> list:
    """``"601-610"`` or ``"3,5,8"`` as a list of ints."""
    if "-" in text:
        lo, hi = text.split("-", 1)
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def parse_result(stdout: str) -> dict:
    """The result object of ``run.py``'s last stdout line, or a failed
    stand-in when the run printed none."""
    lines = stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except ValueError:
        result = None
    if not isinstance(result, dict) or "metrics" not in result:
        return {"correct": False, "failed": None, "metrics": {},
                "error": "no result line"}
    return result


def run_once(checkout: Path, workload: str, seed: int, seconds: float):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True)
    result = parse_result(proc.stdout)
    if proc.returncode:
        result["correct"] = False
        result["error"] = f"exit {proc.returncode}: {proc.stderr[-200:]}"
    return result


def _value(result: dict, name: str):
    return result["metrics"].get(name, {}).get("value")


def _shown(result: dict, name: str) -> str:
    value = _value(result, name)
    return "-" if value is None else f"{value:.4g}"


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def summarize(pairs, end_to_end) -> list:
    """Report lines for ``pairs`` of ``(seed, parent, change)`` results
    under ``end_to_end``, BENCHMARK.json's metric declarations."""
    out = []
    for metric in end_to_end:
        name, sign = metric["name"], (1 if metric["better"] == "lower" else -1)
        got = [(_value(p, name), _value(c, name)) for _, p, c in pairs
               if name in p["metrics"] and name in c["metrics"]]
        if not got:
            out.append(f"{name}: no values")
            continue
        par, chg = [g[0] for g in got], [g[1] for g in got]
        mp, mc = statistics.median(par), statistics.median(chg)
        (p1, p3), (c1, c3) = _quartiles(par), _quartiles(chg)
        rel = (mc - mp) / mp if mp else 0.0
        wins = sum(sign * (c - p) < 0 for p, c in got)
        worse = sign * rel > metric["bound"]
        out.append(
            f"{name}: parent {mp:.4g} [{p1:.4g}, {p3:.4g}]  "
            f"change {mc:.4g} [{c1:.4g}, {c3:.4g}]  {rel:+.1%}  "
            f"change better {wins}/{len(got)}  "
            f"gap {'>' if abs(mc - mp) > p3 - p1 else '<='} parent IQR  "
            f"{'WORSE than bound ' if worse else 'within bound '}"
            f"{metric['bound']:.0%}")
    for seed, *sides in pairs:
        for side, result in zip(("parent", "change"), sides):
            if not result.get("correct") or result.get("failed"):
                out.append(f"seed {seed} {side}: correct="
                           f"{result.get('correct')} failed="
                           f"{result.get('failed')} "
                           f"{result.get('error', '')}".rstrip())
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=parse_seeds, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    args = parser.parse_args(argv)
    spec = json.loads((args.change / "BENCHMARK.json").read_text())
    pairs = []
    for i, seed in enumerate(args.seeds):
        order = ["parent", "change"] if i % 2 == 0 else ["change", "parent"]
        result = {side: run_once(getattr(args, side), args.workload, seed,
                                 args.seconds) for side in order}
        pairs.append((seed, result["parent"], result["change"]))
        print(f"pair {i} seed {seed} ({order[0]} first): " + "  ".join(
            f"{m['name']} {_shown(result['parent'], m['name'])} -> "
            f"{_shown(result['change'], m['name'])}"
            for m in spec["end_to_end"]), flush=True)
    print(f"{args.workload}: {len(pairs)} pairs at {args.seconds:g} s")
    for line in summarize(pairs, spec["end_to_end"]):
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
