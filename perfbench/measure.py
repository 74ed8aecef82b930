"""The measuring loop, the output checks and the metric definitions.

A run sets the workload up, then repeats its job for ``seconds`` (a
started job always finishes).  The untraced run wraps only
``ssl.train_step`` to time steps.  The traced run alternates untraced
and traced jobs, so ``trace.overhead_frac`` compares like with like, and
reports per-layer figures per traced job.

The gated times are calibrated.  On a shared host the speed of the same
code drifts by up to ~1.7x over minutes, which no run length averages
out.  So a fixed benchmark-owned kernel (:func:`reference_s`) runs
before the first job and after every job, and each job's times are
divided by the mean of the two kernel times around it.  Those metrics
are in the unit ``ref``, multiples of the kernel's run time; the raw
seconds are printed alongside and kept in the sidecar.
"""

from __future__ import annotations

import resource
import statistics
import time
from collections import defaultdict
from dataclasses import dataclass, field

import numpy as np

from .trace import Tracer
from .workloads import STEP_TIMER, trace_points

SETUP_REPS = 3
_REF_ROUNDS = 1400
_REF_X = np.linspace(-1.0, 1.0, 17 * 32).reshape(17, 32)
_REF_W = np.linspace(-0.5, 0.5, 32 * 64).reshape(32, 64)

# (name, unit); the contract of BENCHMARK.json.  One generic set serves
# every workload: an "item" is an augmented view on the train workloads
# and an embedded image on probe-eval; an "op" is a train step on the
# train workloads and a whole probe pass on probe-eval.
END_TO_END = [
    ("setup_s", "s"),
    ("wall_ref", "ref"),
    ("items_per_ref", "items/ref"),
    ("op_ref.p50", "ref"),
    ("op_ref.p90", "ref"),
    ("peak_rss_mb", "MB"),
]

PER_LAYER = [
    ("numkernel.rng.calls", "count"),
    ("numkernel.rng.busy_s", "s"),
    ("numkernel.rng.calls_per_view", "calls/view"),
    ("numkernel.derive.calls", "count"),
    ("numkernel.derive.busy_s", "s"),
    ("color.stain_augment.lab.views", "count"),
    ("color.stain_augment.hsv.views", "count"),
    ("color.stain_augment.lab.ms_per_view", "ms"),
    ("color.stain_augment.hsv.ms_per_view", "ms"),
    ("color.stain_augment.share", "ratio"),
    ("color.read_ppm.calls", "count"),
    ("color.read_ppm.busy_s", "s"),
    ("encoder.patchify.calls_per_view", "calls/view"),
    ("encoder.tokenize.busy_s", "s"),
    ("encoder.token_gradients.busy_s", "s"),
    ("encoder.forward_batch.calls", "count"),
    ("encoder.forward_batch.busy_s", "s"),
    ("encoder.forward_batch.rows_per_call", "rows"),
    ("encoder.forward_batch.gflop_per_s", "GFLOP/s"),
    ("encoder.backward_batch.busy_s", "s"),
    ("encoder.backward_batch.gflop_per_s", "GFLOP/s"),
    ("encoder.forward.calls", "count"),
    ("ssl.train_step.self_s", "s"),
    ("ssl.loss.dino.busy_s", "s"),
    ("ssl.loss.ibot.busy_s", "s"),
    ("ssl.loss.koleo.busy_s", "s"),
    ("ssl.loss.gram.busy_s", "s"),
    ("ssl.proj_head.busy_s", "s"),
    ("optim.adam_step.calls", "count"),
    ("optim.adam_step.busy_s", "s"),
    ("heads.train_head.linear.busy_s", "s"),
    ("heads.train_head.attnpool.busy_s", "s"),
    ("heads.train_head.self_s", "s"),
    ("heads.head_gradients.calls", "count"),
    ("heads.head_gradients.busy_s", "s"),
    ("heads.predict_batch.calls", "count"),
    ("heads.predict_batch.busy_s", "s"),
    ("bench.embed_dataset.items", "count"),
    ("bench.embed_dataset.busy_s", "s"),
    ("bench.embed_dataset.overlap", "ratio"),
    ("bench.ingest_directory.busy_s", "s"),
    ("checkpoint.save_params.busy_s", "s"),
    ("checkpoint.save_params.bytes", "B"),
    ("checkpoint.load_params.busy_s", "s"),
    ("checkpoint.load_params.bytes", "B"),
    ("trace.overhead_frac", "ratio"),
]


@dataclass
class Outcome:
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    metrics: dict = field(default_factory=dict)   # name -> value
    report: list = field(default_factory=list)    # (name, value, unit, note)
    tracers: dict = field(default_factory=dict)   # phase -> Tracer


def _install(tracer: Tracer, points) -> None:
    for owner, attr, name, attrs in points:
        if hasattr(owner, attr):   # a point a later version removed reads 0
            tracer.wrap(owner, attr, name, attrs)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def reference_s() -> float:
    """Run time of a fixed kernel mixing what the workloads do:
    interpreter loops, small numpy calls and small matmuls.  It never
    changes with the package, so it measures only the host's speed."""
    t0 = time.perf_counter()
    x, acc = _REF_X, 0.0
    for _ in range(_REF_ROUNDS):
        h = np.tanh(x @ _REF_W)
        x = h[:, :32] * 0.5
        acc += float(h.sum())
        for j in range(40):
            acc += j * 0.5
    return time.perf_counter() - t0


def run_workload(wl, seed: int, seconds: float, trace: bool, workdir,
                 expected_digest: str = None,
                 import_s: float = 0.0) -> Outcome:
    """Set up, repeat the job for ``seconds``, check every output.

    Every job must reproduce ``expected_digest`` (when given) or else
    the first job's digest.  A job that raises, or fails a check, counts
    all of its operations as failed."""
    out = Outcome()
    setup_times = []
    if trace:
        setup_tracer = out.tracers["setup"] = Tracer()
        with setup_tracer:
            _install(setup_tracer, trace_points())
            inputs = wl.setup(seed, workdir / "setup0")
    else:
        for rep in range(SETUP_REPS):
            t0 = time.perf_counter()
            inputs = wl.setup(seed, workdir / f"setup{rep}")
            setup_times.append(time.perf_counter() - t0)

    step_timer = out.tracers["steps"] = Tracer()
    job_tracer = out.tracers["jobs"] = Tracer()
    plain, traced = [], []
    ref_before = reference_s()
    deadline = time.perf_counter() + seconds
    while True:
        is_traced = trace and len(traced) < len(plain)
        tracer = job_tracer if is_traced else step_timer
        first_span = len(tracer.spans)
        try:
            with tracer:
                _install(tracer, trace_points() if is_traced else [STEP_TIMER])
                result = wl.job(inputs)
        except Exception as e:  # a failed job is a measured outcome
            result = None
            out.attempted += wl.planned_ops
            out.failed += wl.planned_ops
            out.problems.append(f"job raised {type(e).__name__}: {e}")
        ref_after = reference_s()
        if result is not None:
            problems = wl.check(result)
            if expected_digest is None:
                expected_digest = result.digest
            elif result.digest != expected_digest:
                problems.append(f"output digest {result.digest[:16]} != "
                                f"expected {expected_digest[:16]}")
            out.attempted += result.ops
            out.failed += result.ops if problems else result.failed
            out.problems += problems
            result.ref_s = (ref_before + ref_after) / 2
            result.step_s = [s.dur for s in tracer.spans[first_span:]
                             if s.name == "ssl.train_step" and not s.error]
            (traced if is_traced else plain).append(result)
        ref_before = ref_after
        if time.perf_counter() >= deadline and plain and (traced or not trace):
            break
        if len(out.problems) > 20:   # every job is failing: stop early
            break

    if trace:
        out.metrics = layer_metrics(job_tracer, out.tracers["setup"],
                                    traced, plain)
    else:
        _end_to_end(out, plain, setup_times, import_s)
    return out


def _median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def _end_to_end(out: Outcome, jobs, setup_times, import_s: float) -> None:
    # (seconds, ref seconds) pairs: the time items take, and the ops
    views = sum(r.views for r in jobs)
    if views:
        items = views
        busy = ops = [(d, r.ref_s) for r in jobs for d in r.step_s]
    else:
        items = sum(r.info["embed_items"] for r in jobs)
        busy = [(r.info["embed_s"], r.ref_s) for r in jobs]
        ops = [(r.wall_s, r.ref_s) for r in jobs]
    op_s = np.array([d for d, _ in ops])
    op_ref = np.array([d / ref for d, ref in ops])
    pcts_s = np.percentile(op_s, [50, 90]) if ops else (0.0, 0.0)
    pcts_ref = np.percentile(op_ref, [50, 90]) if ops else (0.0, 0.0)
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    out.metrics = {
        "setup_s": import_s + _median(setup_times),
        "wall_ref": _median([r.wall_s / r.ref_s for r in jobs]),
        "items_per_ref": _ratio(items, sum(d / ref for d, ref in busy)),
        "op_ref.p50": float(pcts_ref[0]),
        "op_ref.p90": float(pcts_ref[1]),
        "peak_rss_mb": peak_mb,
    }
    n = f"n={op_s.size}"
    jobs_note = f"median of {len(jobs)} jobs"
    items_per_s = _ratio(items, sum(d for d, _ in busy))
    out.report += [
        ("setup_s", out.metrics["setup_s"], "s",
         f"imports {import_s:.3f} s + median of {len(setup_times)} set-ups"),
        ("reference_ms", 1e3 * _median([r.ref_s for r in jobs]), "ms",
         "reference kernel (one ref), median over jobs"),
        ("wall_s", _median([r.wall_s for r in jobs]), "s", jobs_note),
    ]
    if views:
        out.report += [
            ("train.views_per_s", items_per_s, "views/s",
             f"{views} views over {op_s.size} steps"),
            ("train.step_ms.p50", 1e3 * pcts_s[0], "ms", n),
            ("train.step_ms.p90", 1e3 * pcts_s[1], "ms", n),
        ]
    else:
        out.report += [
            ("embed.img_per_s", items_per_s, "img/s",
             "over all embed_dataset calls"),
            ("probe.fit_s", _median([r.info["fit_s"] for r in jobs]), "s",
             f"both head fits plus test prediction, {jobs_note}"),
            ("probe.pass_ms.p50", 1e3 * pcts_s[0], "ms", n),
            ("probe.pass_ms.p90", 1e3 * pcts_s[1], "ms", n),
        ]
    out.report += [
        ("peak_rss_mb", peak_mb, "MB", "whole process"),
        ("failed_frac", _ratio(out.failed, out.attempted), "ratio",
         f"{out.failed} of {out.attempted} operations"),
    ]
    out.report += [(name, out.metrics[name], unit, "calibrated")
                   for name, unit in END_TO_END[1:-1]]


def layer_metrics(tracer: Tracer, setup_tracer: Tracer, traced, plain) -> dict:
    """Per-layer figures per traced job, from the spans.

    ``checkpoint.save_params.*`` come from the traced set-up (jobs do not
    save); everything else is a per-job mean over ``traced``."""
    jobs = max(len(traced), 1)
    views = sum(r.views for r in traced)
    wall = sum(r.wall_s for r in traced)
    by_name = defaultdict(list)
    for s in tracer.spans:
        by_name[s.name].append(s)
    names = {s.id: s.name for s in tracer.spans}
    self_time = tracer.self_times()

    def pick(name, where=None):
        return [s for s in by_name[name] if where is None or where(s)]

    def total(name, where=None):
        return sum(s.dur for s in pick(name, where))

    def count(name, where=None):
        return len(pick(name, where))

    def attr_sum(name, key):
        return sum(s.attrs.get(key, 0) for s in by_name[name])

    def space(sp):
        return lambda s: s.attrs.get("space") == sp

    def mode(m):
        return lambda s: s.attrs.get("mode") == m

    def own(name):
        return sum(self_time[s.id] for s in by_name[name])

    embeds = by_name["bench.embed_dataset"]
    inside = sum(f.dur for f in by_name["encoder.forward"]
                 for e in embeds if e.start <= f.start and f.end <= e.end)
    saves = setup_tracer.named("checkpoint.save_params")
    plain_wall = _median([r.wall_s / r.ref_s for r in plain])
    m = {
        "numkernel.rng.calls": count("numkernel.rng") / jobs,
        "numkernel.rng.busy_s": total("numkernel.rng") / jobs,
        "numkernel.rng.calls_per_view": _ratio(count("numkernel.rng"), views),
        "numkernel.derive.calls": count("numkernel.derive") / jobs,
        "numkernel.derive.busy_s": total("numkernel.derive") / jobs,
        "color.stain_augment.lab.views":
            count("color.stain_augment", space("lab")) / jobs,
        "color.stain_augment.hsv.views":
            count("color.stain_augment", space("hsv")) / jobs,
        "color.stain_augment.lab.ms_per_view": 1e3 * _ratio(
            total("color.stain_augment", space("lab")),
            count("color.stain_augment", space("lab"))),
        "color.stain_augment.hsv.ms_per_view": 1e3 * _ratio(
            total("color.stain_augment", space("hsv")),
            count("color.stain_augment", space("hsv"))),
        "color.stain_augment.share": _ratio(total("color.stain_augment"),
                                            wall),
        "color.read_ppm.calls": count("color.read_ppm") / jobs,
        "color.read_ppm.busy_s": total("color.read_ppm") / jobs,
        "encoder.patchify.calls_per_view": _ratio(count("encoder.patchify"),
                                                  views),
        "encoder.tokenize.busy_s": total("encoder.tokenize") / jobs,
        "encoder.token_gradients.busy_s":
            total("encoder.token_gradients") / jobs,
        "encoder.forward_batch.calls": count("encoder.forward_batch") / jobs,
        "encoder.forward_batch.busy_s": total("encoder.forward_batch") / jobs,
        "encoder.forward_batch.rows_per_call": _ratio(
            attr_sum("encoder.forward_batch", "rows"),
            count("encoder.forward_batch")),
        "encoder.forward_batch.gflop_per_s": 1e-9 * _ratio(
            attr_sum("encoder.forward_batch", "flops"),
            total("encoder.forward_batch")),
        "encoder.backward_batch.busy_s":
            total("encoder.backward_batch") / jobs,
        "encoder.backward_batch.gflop_per_s": 1e-9 * _ratio(
            attr_sum("encoder.backward_batch", "flops"),
            total("encoder.backward_batch")),
        "encoder.forward.calls": count("encoder.forward") / jobs,
        "ssl.train_step.self_s": own("ssl.train_step") / jobs,
        "ssl.loss.dino.busy_s": total(
            "ssl._centered_ce",
            lambda s: names.get(s.parent) == "ssl.train_step") / jobs,
        "ssl.loss.ibot.busy_s": total("ssl.loss.ibot") / jobs,
        "ssl.loss.koleo.busy_s": total("ssl.loss.koleo") / jobs,
        "ssl.loss.gram.busy_s": total("ssl.loss.gram") / jobs,
        "ssl.proj_head.busy_s": total("ssl.proj_head") / jobs,
        "optim.adam_step.calls": count("optim.adam_step") / jobs,
        "optim.adam_step.busy_s": total("optim.adam_step") / jobs,
        "heads.train_head.linear.busy_s":
            total("heads.train_head", mode("linear")) / jobs,
        "heads.train_head.attnpool.busy_s":
            total("heads.train_head", mode("attnpool")) / jobs,
        "heads.train_head.self_s": own("heads.train_head") / jobs,
        "heads.head_gradients.calls": count("heads.head_gradients") / jobs,
        "heads.head_gradients.busy_s": total("heads.head_gradients") / jobs,
        "heads.predict_batch.calls": count("heads.predict_batch") / jobs,
        "heads.predict_batch.busy_s": total("heads.predict_batch") / jobs,
        "bench.embed_dataset.items":
            attr_sum("bench.embed_dataset", "items") / jobs,
        "bench.embed_dataset.busy_s": total("bench.embed_dataset") / jobs,
        "bench.embed_dataset.overlap": _ratio(
            inside, total("bench.embed_dataset")),
        "bench.ingest_directory.busy_s":
            total("bench.ingest_directory") / jobs,
        "checkpoint.save_params.busy_s": sum(s.dur for s in saves),
        "checkpoint.save_params.bytes": sum(s.attrs.get("bytes", 0)
                                            for s in saves),
        "checkpoint.load_params.busy_s":
            total("checkpoint.load_params") / jobs,
        "checkpoint.load_params.bytes":
            attr_sum("checkpoint.load_params", "bytes") / jobs,
        "trace.overhead_frac": _ratio(
            _median([r.wall_s / r.ref_s for r in traced]) - plain_wall,
            plain_wall),
    }
    return {k: float(v) for k, v in m.items()}
