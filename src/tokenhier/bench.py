"""Datasets, reports, and the ablation harness.

Three synthetic suite families probe specific failure modes at desk
scale: GLOBAL plants the label in whole-image mean color (any sane
classifier separates it), LOCAL plants it as a mean-preserving texture
inside a single tile so whole-image statistics are uninformative (with
an optional smooth color ramp as a nuisance only color-insensitive
features escape), and SHIFTED carries the label in whole-image stripe
orientation while the test split gets a large out-of-protocol color
change, so only shift-robust features survive.

The ablation grid evaluates three rows with shared splits and seeds:
plain-pretrained encoder with a linear probe, stain-augmented encoder
with a linear probe, and stain-augmented encoder with attention
pooling.  Reference full-scale averages for this grid (81.3 / 83.6 /
86.9) are recorded in reports as context only; desk-scale acceptance
relies on ordering properties, never on those absolute numbers.
"""

from __future__ import annotations

import hashlib
import json
import warnings
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

import numpy as np

from .checkpoint import check_size, save_params
from .color import StainAugConfig, read_ppm, stain_remap, stain_space
from .encoder import (EncoderConfig, TokenSequence, forward_batch, patchify,
                      tokenize_batch)
from .errors import ConfigError, DataError
from .heads import (ATTNPOOL, LINEAR, HeadTrainConfig, balanced_accuracy,
                    class_recalls, predict_batch, train_head)
from .numkernel import RngStream
from .optim import AdamConfig
from .ssl import (SslConfig, check_step_size, init_train_state,
                  run_training, student_encoder_params)

TRAIN = "train"
VAL = "val"
TEST = "test"

GLOBAL = "global"
LOCAL = "local"
SHIFTED = "shifted"

# Images per ``forward_batch`` call when embedding.  The chunk bounds the
# activations held at once; the bytes of each item's tokens do not depend
# on how the items are split into calls.
_EMBED_CHUNK = 16


# ---------------------------------------------------------------------------
# datasets


@dataclass
class LabeledDataset:
    items: list                 # (raster uint8 (H,W,3), class id)
    class_names: list
    source_ids: list

    @property
    def labels(self):
        return np.array([lab for _, lab in self.items], dtype=np.int64)

    @property
    def rasters(self):
        return [r for r, _ in self.items]


def split_hash(ds: LabeledDataset) -> str:
    payload = "\n".join(sorted(ds.source_ids))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]


@dataclass(frozen=True)
class SuiteSpec:
    """What a caller sets or the shipped suites differ in; the rest of a
    suite is the generator's constants.  ``image_size`` is the encoder's."""
    kind: str = GLOBAL
    per_class: int = 30
    image_size: int = 64
    color_step: float = 26.0
    # GLOBAL/SHIFTED: per-item wobble of the class color, so clusters
    # have width and shift damage is graded instead of all-or-nothing.
    # LOCAL: per-item uniform color cast, class-independent.
    color_jitter: float = 5.0
    # LOCAL only: per-item smooth color ramp (random orientation and
    # channel direction).  Token-wise normalization cannot remove it,
    # so it is a nuisance only color-insensitive features escape.
    gradient_amp: float = 0.0

    def __post_init__(self):
        # the one field a command line reaches
        if self.per_class < 5:
            raise ConfigError("need at least 5 items per class to split")
        check_size("per_class", self.per_class)   # the split's draw


_TEXTURES = ((1, 0, 1), (0, 1, 1), (1, 1, 1), (1, 1, 2))  # (row, col, cell)


def _texture(kind_index: int, t: int, amp: float) -> np.ndarray:
    """Mean-preserving patterns, one per class: horizontal stripes,
    vertical stripes, a checker and a checker of 2x2 cells."""
    a, b, cell = _TEXTURES[kind_index]
    r = np.arange(t) // cell
    pat = np.where((a * r[:, None] + b * r[None, :]) % 2 == 0, amp, -amp)
    return pat[:, :, None] * np.ones(3)


# Every suite: two classes, pixel noise, and LOCAL's grid of tiles.
_NUM_CLASSES = 2
_NOISE_SIGMA = 18.0
_TILE = 16
_SIGNAL_TILE = (1, 1)
_TEXTURE_AMP = 55.0
# LOCAL only: every non-signal tile gets a random texture at this
# amplitude, so aggregate statistics drown the one informative tile.
_DISTRACTOR_AMP = 30.0
# SHIFTED only: whole-image stripe orientation at this amplitude is
# the structural label cue.  The test-split protocol change moves
# color far outside the train distribution, so features that lean
# on color transfer worse than structural ones.
_STRUCTURE_AMP = 20.0
# The protocol change, a LAB remap: additive offsets riding the
# class-color axis plus mild spread scaling about the image mean,
# per-item magnitude in [0.6, 1.4].
_SHIFT_OFFSET = np.array([20.0, 16.0, -10.0])
_SHIFT_SCALE = np.array([1.25, 1.25, 1.25])


def _make_raster(spec: SuiteSpec, label: int, item_rng: RngStream) -> np.ndarray:
    s = spec.image_size
    noise = item_rng.gaussian(s * s * 3, 0.0, _NOISE_SIGMA).reshape(s, s, 3)
    if spec.kind == LOCAL:
        img = 120.0 + noise
        if spec.color_jitter:
            # class-independent cast: pure nuisance for the texture label
            img = img + item_rng.derive(5).gaussian(3, 0.0, spec.color_jitter)
        if spec.gradient_amp:
            g_rng = item_rng.derive(6)
            theta = 2.0 * np.pi * float(g_rng.uniform(1)[0])
            vec = g_rng.gaussian(3, 0.0, spec.gradient_amp)
            ax = np.linspace(-1.0, 1.0, s)
            ramp = np.cos(theta) * ax[:, None] + np.sin(theta) * ax[None, :]
            img = img + ramp[:, :, None] * vec
        t = _TILE
        grid = s // t
        for gy in range(grid):
            for gx in range(grid):
                win = img[gy * t:(gy + 1) * t, gx * t:(gx + 1) * t]
                if (gy, gx) == _SIGNAL_TILE:
                    win += _texture(label, t, _TEXTURE_AMP)
                else:
                    kind = int(item_rng.derive(gy, gx).integers(1, 4)[0])
                    win += _texture(kind, t, _DISTRACTOR_AMP)
    else:
        mean = np.full(3, 118.0)
        mean[label] += spec.color_step
        if spec.color_jitter:
            mean = mean + item_rng.derive(5).gaussian(3, 0.0, spec.color_jitter)
        img = mean[None, None, :] + noise
        if spec.kind == SHIFTED:
            img += _texture(label, s, _STRUCTURE_AMP)
    return np.clip(np.rint(img), 0, 255).astype(np.uint8)


def _split_of(rank: int, n: int) -> str:
    """Split of the item at ``rank`` in a class of ``n`` shuffled items,
    60/20/20.  With n >= 5 every split gets at least one item."""
    n_tr = round(0.6 * n)
    return (TRAIN if rank < n_tr
            else VAL if rank < n_tr + round(0.2 * n) else TEST)


def make_synthetic_suite(rng: RngStream, spec: SuiteSpec):
    """Reproducible (train, val, test) triple; splits are stratified per
    class over disjoint source ids, 60/20/20."""
    names = [f"class{c}" for c in range(_NUM_CLASSES)]
    splits = {sp: LabeledDataset([], names, []) for sp in (TRAIN, VAL, TEST)}
    for c in range(_NUM_CLASSES):
        order = rng.derive(888, c).permutation(spec.per_class)
        for rank, j in enumerate(order):
            j = int(j)
            raster = _make_raster(spec, c, rng.derive(c, j))
            sid = f"{spec.kind}-c{c}-{j:03d}"
            split = _split_of(rank, spec.per_class)
            if spec.kind == SHIFTED and split == TEST:
                mag = 0.6 + 0.8 * float(rng.derive(c, j, 7).uniform(1)[0])
                raster = stain_remap(*stain_space(raster, "lab"),
                                     mag * _SHIFT_OFFSET, _SHIFT_SCALE, "lab")
            splits[split].items.append((raster, c))
            splits[split].source_ids.append(sid)
    return splits[TRAIN], splits[VAL], splits[TEST]


def make_pretrain_corpus(rng: RngStream, count: int, image_size: int) -> list:
    """Unlabeled rasters with block structure for smoke-scale pretraining."""
    out = []
    for i in range(count):
        r = rng.derive(i)
        base = 60.0 + 140.0 * r.uniform(3)
        img = np.ones((image_size, image_size, 3)) * base
        for b in range(2 + int(r.integers(1, 3)[0])):
            br = r.derive(b)
            x0, y0 = (int(v) for v in br.integers(2, image_size - 8))
            w, h = (int(v) + 4 for v in br.integers(2, image_size // 3))
            col = 255.0 * br.uniform(3)
            img[y0:min(y0 + h, image_size), x0:min(x0 + w, image_size)] = col
        img += r.gaussian(image_size * image_size * 3, 0.0, 8.0).reshape(
            image_size, image_size, 3)
        out.append(np.clip(np.rint(img), 0, 255).astype(np.uint8))
    return out


# ---------------------------------------------------------------------------
# directory ingestion


def ingest_directory(root) -> LabeledDataset:
    """Class-per-subdirectory layout: root/<class_name>/*.ppm.  Sorted
    subdirectory order defines the dense class ids."""
    root = Path(root)
    if not root.is_dir():
        raise ConfigError(f"{root}: not a directory")
    names, items, source_ids, failures = [], [], [], []
    for d in sorted(d for d in root.iterdir() if d.is_dir()):
        files = sorted(d.glob("*.ppm"))
        if not files:
            warnings.warn(f"class directory {d.name!r} has no .ppm files; excluded")
            continue
        for f in files:
            try:
                items.append((read_ppm(f), len(names)))
                source_ids.append(f"{d.name}/{f.name}")
            except DataError as e:
                failures.append(f"  {e}")
        names.append(d.name)
    if failures:
        raise DataError("unreadable raster files:\n" + "\n".join(failures))
    return LabeledDataset(items, names, source_ids)


def split_dataset(ds: LabeledDataset, seed: int):
    """Seeded stratified 60/20/20 split over disjoint source ids."""
    rng = RngStream(seed=seed, stream_id=4242)
    labels = ds.labels
    per_split = {TRAIN: [], VAL: [], TEST: []}
    for c in np.unique(labels).tolist():
        idxs = np.flatnonzero(labels == c)   # ascending
        if len(idxs) < 5:
            raise ConfigError(
                f"class {ds.class_names[c]!r} has {len(idxs)} items; "
                "need at least 5 to split")
        order = rng.derive(c).permutation(len(idxs))
        for rank, i in enumerate(idxs[order].tolist()):
            per_split[_split_of(rank, len(idxs))].append(i)
    out = []
    for sp in (TRAIN, VAL, TEST):
        chosen = sorted(per_split[sp])
        out.append(LabeledDataset(
            [ds.items[i] for i in chosen], list(ds.class_names),
            [ds.source_ids[i] for i in chosen]))
    return tuple(out)


# ---------------------------------------------------------------------------
# embedding extraction


def embed_dataset(ds: LabeledDataset, enc_params: dict, cfg: EncoderConfig,
                  threads: int = 1) -> list:
    """Frozen-encoder token sequences for every item, in dataset order.

    Each chunk of images is patchified into one stack and run through
    one ``tokenize_batch`` + ``forward_batch`` on the calling thread.
    ``threads`` is ignored; it is still accepted for existing callers."""
    rasters = ds.rasters
    seqs = []
    for i in range(0, len(rasters), _EMBED_CHUNK):
        stack = np.stack([patchify(r, cfg)
                          for r in rasters[i:i + _EMBED_CHUNK]])
        out, _ = forward_batch(tokenize_batch(stack, enc_params), cfg,
                               enc_params)
        seqs += [TokenSequence(row[0], row[1:]) for row in out]
    return seqs


def save_embeddings(path, seqs: list, labels, cfg: EncoderConfig,
                    extra: dict) -> None:
    tensors = {
        "cls": np.stack([s.cls for s in seqs]),
        "patches": np.stack([s.patches for s in seqs]),
        "labels": np.asarray(labels, dtype=np.float64),
    }
    save_params(path, "embeddings", asdict(cfg), tensors, extra)


# ---------------------------------------------------------------------------
# reports


def write_report(report: dict, path) -> None:
    """One JSON object, ASCII, sorted keys, one-space indent and a
    trailing newline: the byte layout of every report and summary."""
    with open(path, "w", encoding="ascii") as fh:
        json.dump(report, fh, indent=1, sort_keys=True)
        fh.write("\n")


def make_report(task: str, y_true, y_pred, fingerprint: str, seed: int,
                class_names, extra: dict) -> dict:
    recalls, support = class_recalls(y_true, y_pred, len(class_names))
    live = support > 0
    return {
        "format_version": 1,
        "task": task,
        "bacc": float(np.mean(recalls[live])),
        "per_class_recalls": [None if not live[c] else float(recalls[c])
                              for c in range(len(class_names))],
        "zero_support_classes": [int(c) for c in np.nonzero(~live)[0]],
        "config_fingerprint": fingerprint,
        "seed": int(seed),
        "class_names": list(class_names),
        **extra,
    }


def _fmt_delta(delta: float) -> str:
    arrow = "↑" if delta >= 0 else "↓"
    return f"({abs(delta) * 100:.1f}{arrow})"


def render_ablation_table(report: dict) -> str:
    """Three-row grid as text, each row with its stored rendered delta."""
    lines = [f"{'stain aug':<11}{'head':<10}{'BACC':>7}  delta"]
    for row in report["ablation_rows"]:
        flag = "yes" if row["staining_aug"] else "no"
        lines.append(f"{flag:<11}{row['head_mode']:<10}{row['bacc'] * 100:>6.1f}"
                     f"  {row.get('delta_rendered', '')}")
    return "\n".join(lines)


def write_bacc_svg(report: dict, path) -> None:
    """Deterministic bar chart of per-row BACC (no external assets)."""
    rows = report["ablation_rows"]
    width, height, pad = 420, 240, 36
    bar_w = (width - 2 * pad) // len(rows) - 18
    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
             f'height="{height}" viewBox="0 0 {width} {height}">',
             f'<rect width="{width}" height="{height}" fill="#ffffff"/>',
             f'<line x1="{pad}" y1="{height - pad}" x2="{width - pad}" '
             f'y2="{height - pad}" stroke="#333333"/>']
    for i, row in enumerate(rows):
        x = pad + 12 + i * (bar_w + 18)
        h = int(round((height - 2 * pad) * max(0.0, min(1.0, row["bacc"]))))
        y = height - pad - h
        label = ("aug+" if row["staining_aug"] else "plain+") + row["head_mode"]
        parts.append(f'<rect x="{x}" y="{y}" width="{bar_w}" height="{h}" '
                     f'fill="#5b8db8"/>')
        parts.append(f'<text x="{x + bar_w // 2}" y="{y - 6}" font-size="12" '
                     f'text-anchor="middle" fill="#111111">'
                     f'{row["bacc"] * 100:.1f}</text>')
        parts.append(f'<text x="{x + bar_w // 2}" y="{height - pad + 16}" '
                     f'font-size="11" text-anchor="middle" fill="#111111">'
                     f'{label}</text>')
    parts.append("</svg>")
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(parts) + "\n")


# ---------------------------------------------------------------------------
# ablation harness

# Full-scale averages for the same three-row grid, from the original
# large-corpus training run.  Context only: desk-scale runs must never
# be asserted against them.
FULL_SCALE_CONTEXT = {
    "rows": [81.3, 83.6, 86.9],
    "note": "averages from the original full-scale run; recorded as "
            "non-reproducible context, deltas at desk scale are "
            "ordering-only",
}


@dataclass(frozen=True)
class AblationConfig:
    seeds: tuple[int, ...] = (0, 1, 2, 3, 4)
    pretrain_steps: int = 400
    batch_size: int = 8
    ssl_lr: float = 3e-3
    encoder: EncoderConfig = field(default_factory=lambda: EncoderConfig(
        image_size=64, token_size=16, embed_dim=32, depth=1, num_heads=4,
        mlp_ratio=2.0))
    ssl: SslConfig = field(default_factory=lambda: SslConfig(
        prototype_count=64, mask_fraction=0.3))
    aug: StainAugConfig = field(default_factory=lambda: StainAugConfig(
        space="both",
        lab_mean_sigma=(6.0, 5.0, 5.0),
        lab_std_sigma=(0.15, 0.15, 0.15),
        hsv_mean_sigma=(8.0, 0.06, 0.06),
        hsv_std_sigma=(0.1, 0.1, 0.1)))
    head: HeadTrainConfig = field(default_factory=lambda: HeadTrainConfig(
        epochs=60, lr=1e-2, weight_decay=1e-3, batch=32, num_heads=4))

    def __post_init__(self):
        if not self.seeds:
            raise ConfigError("need at least one seed")
        if self.pretrain_steps < 0 or self.batch_size < 1:
            raise ConfigError("bad pretrain schedule")
        check_step_size(self.encoder, self.batch_size)
        if self.ssl_lr <= 0:
            raise ConfigError("ssl_lr must be positive")


def _pretrain_encoder(corpus, cfg: AblationConfig, seed: int,
                      augmented: bool):
    aug = cfg.aug if augmented else replace(cfg.aug, enabled=False)
    state = init_train_state(cfg.encoder, cfg.ssl,
                             RngStream(seed=seed, stream_id=11))
    run_training(corpus, state, cfg.ssl, cfg.encoder, aug,
                 RngStream(seed=seed, stream_id=12),
                 steps=cfg.pretrain_steps, batch_size=cfg.batch_size,
                 adam_cfg=AdamConfig(lr=cfg.ssl_lr))
    return student_encoder_params(state)


_ROW_DEFS = (
    {"staining_aug": False, "head_mode": LINEAR},
    {"staining_aug": True, "head_mode": LINEAR},
    {"staining_aug": True, "head_mode": ATTNPOOL},
)


# The shipped spec of each suite kind, shared by the CLI's ``bench``
# trees and the ablation grid; callers replace ``per_class``.
SUITE_SPECS = {
    GLOBAL: SuiteSpec(kind=GLOBAL),
    LOCAL: SuiteSpec(kind=LOCAL, color_jitter=0.0, gradient_amp=20.0),
    SHIFTED: SuiteSpec(kind=SHIFTED, color_step=2.0, color_jitter=3.0),
}


def acceptance_suites(rng: RngStream, per_class: int) -> dict:
    """The shipped desk-scale pair: LOCAL with distractor textures and
    SHIFTED with an out-of-protocol color change over a structural label."""
    def suite(i, kind):
        spec = replace(SUITE_SPECS[kind], per_class=per_class)
        return make_synthetic_suite(rng.derive(i), spec)

    return {"local": suite(0, LOCAL), "shifted": suite(1, SHIFTED)}


def run_ablation(datasets: dict, cfg: AblationConfig,
                 fingerprint: str) -> dict:
    """Three-row grid over named (train, val, test) triples.

    Every row of one seed shares the pretrain corpus, the splits, and
    the head-training seed; only the encoder's augmentation flag and
    the head mode differ.  Returns the report dict, which records
    ``fingerprint``, the caller's fingerprint of everything that made
    the datasets and ``cfg``.
    """
    names = sorted(datasets)
    hashes = {n: [split_hash(s) for s in datasets[n]] for n in names}
    baccs = np.empty((len(_ROW_DEFS), len(names), len(cfg.seeds)))
    for k, seed in enumerate(cfg.seeds):
        for t, n in enumerate(names):
            tr, va, te = datasets[n]
            # pretraining sees only this task's unlabeled train rasters
            embeds = {}
            for flag in (False, True):
                enc = _pretrain_encoder(tr.rasters, cfg, seed,
                                        augmented=flag)
                embeds[flag] = tuple(
                    embed_dataset(ds, enc, cfg.encoder)
                    for ds in (tr, va, te))
            for i, rowdef in enumerate(_ROW_DEFS):
                etr, eva, ete = embeds[rowdef["staining_aug"]]
                head_cfg = replace(cfg.head, seed=seed)
                result = train_head(
                    list(zip(etr, tr.labels)), list(zip(eva, va.labels)),
                    rowdef["head_mode"], head_cfg)
                preds = predict_batch(ete, result.params, rowdef["head_mode"])
                baccs[i, t, k] = balanced_accuracy(te.labels, preds,
                                                   len(te.class_names))
    task_means = baccs.mean(axis=2)
    rows = [dict(rowdef, bacc=float(means.mean()),
                 per_task_bacc=dict(zip(names, means.tolist())),
                 split_hashes=hashes)
            for rowdef, means in zip(_ROW_DEFS, task_means)]
    for i in (1, 2):
        rows[i]["delta_vs_previous"] = rows[i]["bacc"] - rows[i - 1]["bacc"]
        rows[i]["delta_rendered"] = _fmt_delta(rows[i]["delta_vs_previous"])
    return {
        "format_version": 1,
        "task": "+".join(names),
        "bacc": rows[-1]["bacc"],
        "per_class_recalls": [],
        "zero_support_classes": [],
        "config_fingerprint": fingerprint,
        "seed": int(cfg.seeds[0]),
        "seeds": [int(s) for s in cfg.seeds],
        "ablation_rows": rows,
        "full_scale_context": dict(FULL_SCALE_CONTEXT),
        "note": "desk-scale run; row ordering, not absolute level, is the "
                "meaningful signal",
    }
