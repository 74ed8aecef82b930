"""Self-tests of the benchmark harness on tiny workloads (seconds each)."""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench.measure import END_TO_END, PER_LAYER, run_workload
from perfbench.workloads import (DESK, WORKLOADS, ProbeWorkload,
                                 TrainWorkload, trace_points)
from tokenhier import ssl
from tokenhier.encoder import EncoderConfig

ROOT = Path(__file__).resolve().parents[2]
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def tiny_workloads():
    return [
        TrainWorkload("pretrain-stain", steps=1, phase=ssl.PRETRAIN,
                      enc_cfg=DESK.encoder, augmented=True),
        TrainWorkload("posttrain-gram", steps=1, phase=ssl.POSTTRAIN,
                      enc_cfg=EncoderConfig(depth=1), augmented=False),
        ProbeWorkload(per_class=5),
    ]


def owners():
    return {id(owner): owner for owner, *_ in trace_points()}.values()


def snapshot():
    return {owner: dict(vars(owner)) for owner in owners()}


def assert_unchanged(before):
    for owner, attrs in before.items():
        now = vars(owner)
        assert set(now) == set(attrs), owner
        for key, value in attrs.items():
            assert now[key] is value, f"{owner}.{key} was not restored"


@pytest.mark.parametrize("wl", tiny_workloads(), ids=lambda wl: wl.name)
def test_traced_run_restores_every_attribute(wl, tmp_path):
    before = snapshot()
    out = run_workload(wl, 0, 0.0, True, tmp_path)
    assert_unchanged(before)
    assert out.tracers["jobs"].spans, "the traced job recorded no spans"
    assert [name for name, _ in PER_LAYER] == list(out.metrics)


def test_wrappers_restored_when_the_job_raises(tmp_path):
    class Broken(TrainWorkload):
        def job(self, inputs):
            raise RuntimeError("injected")

    wl = Broken("broken", steps=1, phase=ssl.PRETRAIN,
                enc_cfg=DESK.encoder, augmented=False)
    before = snapshot()
    out = run_workload(wl, 0, 0.0, True, tmp_path)
    assert_unchanged(before)
    assert out.failed == out.attempted > 0


def test_metric_names_match_benchmark_json(tmp_path):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))
    for group, ours in (("end_to_end", END_TO_END), ("per_layer", PER_LAYER)):
        declared = [(m["name"], m["unit"]) for m in spec[group]]
        assert declared == ours, group
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    names = [n for n, _ in END_TO_END + PER_LAYER] + list(WORKLOADS)
    assert all(NAME.fullmatch(n) for n in names)
    assert len(set(names)) == len(names)
    out = run_workload(tiny_workloads()[0], 0, 0.0, False, tmp_path)
    assert list(out.metrics) == [n for n, _ in END_TO_END]
    assert all(v > 0 for v in out.metrics.values())


def test_wrong_expected_digest_counts_as_failed(tmp_path):
    wl = tiny_workloads()[0]
    good = run_workload(wl, 0, 0.0, False, tmp_path / "a")
    assert good.failed == 0 and not good.problems
    bad = run_workload(wl, 0, 0.0, False, tmp_path / "b",
                       expected_digest="0" * 64)
    assert bad.failed == bad.attempted > 0
    assert any("digest" in p for p in bad.problems)


def test_exits_nonzero_without_the_package(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "pretrain-stain",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
