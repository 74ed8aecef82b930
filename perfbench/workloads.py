"""The three closed-loop workloads: set-up, one job, and output checks.

Each workload builds every input from the seed in ``setup`` and hands
the job only those inputs.  A job is one caller doing one piece of user
work through the package's public functions, start to finish; the
measuring loop starts the next job when the previous one returns.

Why these three (they stress different layers, so a change to one layer
has a workload that exercises it and one that bypasses it):

- ``pretrain-stain``: the shape of the ablation grid's pretraining.
  Stain jitter, RNG calls and per-view Python loops dominate the step,
  not BLAS.
- ``posttrain-gram``: the same ``train_step`` with augmentation off on
  the module-default depth-4 encoder with the Gram term live; encoder
  and optimiser work dominate, colour work is absent.
- ``probe-eval``: the ``probe`` command's path; only batch-1 frozen
  forwards, the embedding thread pool and the two heads do work.
"""

from __future__ import annotations

import copy
import hashlib
import os
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from tokenhier import bench, color, encoder, heads, optim, ssl
from tokenhier.encoder import EncoderConfig
from tokenhier.numkernel import RngStream

DESK = bench.AblationConfig()

# Equal to nproc on the 2-core reference box; BLAS is pinned to one
# thread so pool threads plus BLAS threads never exceed the cores.
PROBE_THREADS = 2


@dataclass
class JobResult:
    wall_s: float
    ops: int                  # steps, or embedded images plus head fits
    failed: int
    digest: str
    views: int = 0            # augmented views the job trained on
    info: dict = field(default_factory=dict)
    # filled in by the measuring loop
    ref_s: float = 0.0        # reference-kernel time around this job
    step_s: list = field(default_factory=list)   # its timed train steps


def digest_arrays(named: dict) -> str:
    """sha256 over (name, shape, float64 little-endian bytes), by name."""
    h = hashlib.sha256()
    for name in sorted(named):
        arr = np.ascontiguousarray(named[name], dtype="<f8")
        h.update(f"{name}{arr.shape}".encode("ascii"))
        h.update(arr.tobytes())
    return h.hexdigest()


def state_digest(state) -> str:
    """Digest of every tensor of a training state plus its counters."""
    named = {"cls_center": state.cls_center,
             "patch_center": state.patch_center,
             "counters": np.array([state.step, state.adam["t"]])}
    for prefix, group in (("student.", state.student),
                          ("teacher.", state.teacher),
                          ("adam.m.", state.adam["m"]),
                          ("adam.v.", state.adam["v"])):
        named.update({prefix + k: v for k, v in group.items()})
    return digest_arrays(named)


def _pretrain_corpus(seed: int, image_size: int) -> list:
    # the corpus the CLI bundles when pretrain/posttrain get no --input
    return bench.make_pretrain_corpus(RngStream(seed=seed, stream_id=10),
                                      count=64, image_size=image_size)


class TrainWorkload:
    """``steps`` calls of ``ssl.train_step`` through ``ssl.run_training``,
    starting every job from the same initial state."""

    def __init__(self, name, steps, phase, enc_cfg, augmented):
        self.name = name
        self.steps = steps
        self.phase = phase
        self.enc_cfg = enc_cfg
        self.planned_ops = steps
        self.aug_cfg = DESK.aug if augmented else replace(DESK.aug,
                                                          enabled=False)

    def setup(self, seed: int, workdir: Path) -> dict:
        workdir.mkdir(parents=True, exist_ok=True)
        inputs = {"seed": seed,
                  "corpus": _pretrain_corpus(seed, self.enc_cfg.image_size)}
        state = ssl.init_train_state(self.enc_cfg, DESK.ssl,
                                     RngStream(seed=seed, stream_id=11))
        if self.phase == ssl.POSTTRAIN:
            # the Gram anchor (and starting point) is a checkpoint on disk
            ckpt = workdir / "anchor.ckpt"
            ssl.save_train_state(ckpt, state, self.enc_cfg, DESK.ssl)
            inputs["checkpoint"] = ckpt
        else:
            inputs["state"] = state
        return inputs

    def job(self, inputs: dict) -> JobResult:
        t0 = time.perf_counter()
        if self.phase == ssl.POSTTRAIN:
            state, _, _, _ = ssl.load_train_state(inputs["checkpoint"])
            state.gram_teacher = ssl.student_encoder_params(state)
        else:
            state = copy.deepcopy(inputs["state"])
        history = ssl.run_training(
            inputs["corpus"], state, DESK.ssl, self.enc_cfg, self.aug_cfg,
            RngStream(seed=inputs["seed"], stream_id=12), steps=self.steps,
            batch_size=DESK.batch_size, phase=self.phase,
            adam_cfg=optim.AdamConfig(lr=DESK.ssl_lr))
        wall = time.perf_counter() - t0
        bad = sum(not np.isfinite(lb.total) for lb in history)
        return JobResult(wall, self.steps, bad, state_digest(state),
                         views=2 * DESK.batch_size * self.steps)

    def check(self, result: JobResult) -> list:
        return []


class ProbeWorkload:
    """The ``probe`` command's path for both head modes, in the order
    ``bench.run_ablation`` uses: ingest, load, split, embed each split,
    then fit and predict linear, then attnpool."""

    name = "probe-eval"

    def __init__(self, per_class: int = 60):
        self.per_class = per_class
        self.planned_ops = 2 * per_class + 2   # two classes, two heads

    def setup(self, seed: int, workdir: Path) -> dict:
        tree = workdir / "suite"
        # the acceptance LOCAL suite: the label lives in one tile
        spec = bench.SuiteSpec(kind=bench.LOCAL, per_class=self.per_class,
                               color_jitter=0.0, gradient_amp=20.0)
        splits = bench.make_synthetic_suite(
            RngStream(seed=seed, stream_id=5), spec)
        for split in splits:
            for (raster, label), sid in zip(split.items, split.source_ids):
                class_dir = tree / f"class{label}"
                class_dir.mkdir(parents=True, exist_ok=True)
                color.write_ppm(class_dir / f"{sid}.ppm", raster)
        state = ssl.init_train_state(DESK.encoder, DESK.ssl,
                                     RngStream(seed=seed, stream_id=11))
        ckpt = workdir / "encoder.ckpt"
        ssl.save_train_state(ckpt, state, DESK.encoder, DESK.ssl)
        return {"seed": seed, "tree": tree, "checkpoint": ckpt}

    def job(self, inputs: dict) -> JobResult:
        seed = inputs["seed"]
        t0 = time.perf_counter()
        ds = bench.ingest_directory(inputs["tree"])
        state, enc_cfg, _, _ = ssl.load_train_state(inputs["checkpoint"])
        params = ssl.student_encoder_params(state)
        tr, va, te = bench.split_dataset(ds, seed)
        t_embed = time.perf_counter()
        etr, eva, ete = (bench.embed_dataset(s, params, enc_cfg,
                                             threads=PROBE_THREADS)
                         for s in (tr, va, te))
        t_fit = time.perf_counter()
        head_cfg = replace(DESK.head, seed=seed)
        fitted, preds = {}, {}
        for mode in (heads.LINEAR, heads.ATTNPOOL):
            res = heads.train_head(list(zip(etr, tr.labels)),
                                   list(zip(eva, va.labels)), mode, head_cfg)
            fitted[mode] = res.params
            preds[mode] = heads.predict_batch(ete, res.params, mode)
        t_end = time.perf_counter()

        named = {}
        for split, seqs in (("train", etr), ("val", eva), ("test", ete)):
            named[f"emb.{split}.cls"] = np.stack([s.cls for s in seqs])
            named[f"emb.{split}.patches"] = np.stack([s.patches for s in seqs])
        for mode, params_obj in fitted.items():
            for key, value in vars(params_obj).items():
                if isinstance(value, np.ndarray):
                    named[f"{mode}.{key}"] = value
            named[f"{mode}.test_pred"] = preds[mode]
        bacc = {mode: bench.balanced_accuracy(te.labels, preds[mode],
                                              len(te.class_names))
                for mode in preds}
        embedded = len(etr) + len(eva) + len(ete)
        return JobResult(t_end - t0, embedded + len(fitted), 0,
                         digest_arrays(named),
                         info={"embed_s": t_fit - t_embed,
                               "embed_items": embedded,
                               "fit_s": t_end - t_fit, "bacc": bacc})

    def check(self, result: JobResult) -> list:
        bacc = result.info["bacc"]
        if not bacc[heads.ATTNPOOL] > bacc[heads.LINEAR]:
            return [f"attnpool test BACC {bacc[heads.ATTNPOOL]:.4f} is not "
                    f"above linear {bacc[heads.LINEAR]:.4f}"]
        return []


WORKLOADS = {
    "pretrain-stain": TrainWorkload("pretrain-stain", steps=20,
                                    phase=ssl.PRETRAIN,
                                    enc_cfg=DESK.encoder, augmented=True),
    "posttrain-gram": TrainWorkload("posttrain-gram", steps=8,
                                    phase=ssl.POSTTRAIN,
                                    enc_cfg=EncoderConfig(), augmented=False),
    "probe-eval": ProbeWorkload(),
}


# ---------------------------------------------------------------------------
# trace points: (module or class, attribute, span name, span attrs)


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _space(args, kwargs, result):
    return {"space": _arg(args, kwargs, 1, "cfg").space}


def _matmul_flops(batch, seq, cfg):
    """Matmul FLOPs of one forward pass, computed from shapes: per layer
    QKV and output projections, scores, context and the two MLP maps."""
    d, m = cfg.embed_dim, cfg.mlp_hidden
    return cfg.depth * batch * seq * (8 * d * d + 4 * seq * d + 4 * d * m)


def _forward_batch(args, kwargs, result):
    z0 = _arg(args, kwargs, 0, "z0")
    b, s, _ = np.shape(z0)
    return {"rows": b,
            "flops": _matmul_flops(b, s, _arg(args, kwargs, 1, "cfg"))}


def _backward_batch(args, kwargs, result):
    b, s, _ = np.shape(_arg(args, kwargs, 0, "dout"))
    cfg = _arg(args, kwargs, 1, "cache")["cfg"]
    # each forward matmul has two in backward: input and weight gradients
    return {"flops": 2 * _matmul_flops(b, s, cfg)}


def _file_bytes(args, kwargs, result):
    return {"bytes": os.path.getsize(_arg(args, kwargs, 0, "path"))}


def _mode(args, kwargs, result):
    return {"mode": _arg(args, kwargs, 2, "mode")}


def _items(args, kwargs, result):
    return {"items": len(result)}


def trace_points() -> list:
    """Every wrapped callable, in the namespace that calls it."""
    rng = RngStream
    points = [
        (rng, "derive", "numkernel.derive", None),
        (ssl, "train_step", "ssl.train_step", None),
        (ssl, "stain_augment", "color.stain_augment", _space),
        (ssl, "patchify", "encoder.patchify", None),
        (encoder, "patchify", "encoder.patchify", None),
        (ssl, "tokenize", "encoder.tokenize", None),
        (encoder, "tokenize", "encoder.tokenize", None),
        (ssl, "forward_batch", "encoder.forward_batch", _forward_batch),
        (encoder, "forward_batch", "encoder.forward_batch", _forward_batch),
        (ssl, "backward_batch", "encoder.backward_batch", _backward_batch),
        (ssl, "token_gradients", "encoder.token_gradients", None),
        # the image-level term is computed inline by train_step through
        # this helper; ibot_loss_grad calls it too (told apart by parent)
        (ssl, "_centered_ce", "ssl._centered_ce", None),
        (ssl, "ibot_loss_grad", "ssl.loss.ibot", None),
        (ssl, "koleo_loss_grad", "ssl.loss.koleo", None),
        (ssl, "gram_loss_grad", "ssl.loss.gram", None),
        (ssl, "head_forward", "ssl.proj_head", None),
        (ssl, "head_backward", "ssl.proj_head", None),
        (ssl, "adam_step", "optim.adam_step", None),
        (heads, "adam_step", "optim.adam_step", None),
        (ssl, "save_params", "checkpoint.save_params", _file_bytes),
        (ssl, "load_params", "checkpoint.load_params", _file_bytes),
        (heads, "train_head", "heads.train_head", _mode),
        (heads, "head_gradients", "heads.head_gradients", None),
        (heads, "predict_batch", "heads.predict_batch", None),
        (bench, "embed_dataset", "bench.embed_dataset", _items),
        (bench, "ingest_directory", "bench.ingest_directory", None),
        (bench, "forward", "encoder.forward", None),
        (bench, "read_ppm", "color.read_ppm", None),
    ]
    points += [(rng, m, "numkernel.rng", None)
               for m in ("uniform", "gaussian", "integers", "permutation")]
    return points


STEP_TIMER = (ssl, "train_step", "ssl.train_step", None)
