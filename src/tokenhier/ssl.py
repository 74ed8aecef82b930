"""Self-supervised objective and the student/EMA-teacher loop.

Four terms over prototype logits and token embeddings:

- image-level: cross-entropy between the teacher's centered, sharpened
  class-token distribution and the student's,
- patch-level: the same cross-entropy at masked positions, student
  masked / teacher unmasked; one function, ``centered_ce_loss_grad``,
  serves both terms,
- spread: negative mean log nearest-neighbor distance of normalized
  features (``koleo_loss_grad``),
- anchoring: Frobenius gap between normalized patch Gram matrices
  against a frozen earlier checkpoint (``gram_loss_grad``),
  post-training only.

Each term is one function returning (value, gradient); the gradient is
verified against central differences.  A training step takes two
augmented views per image, runs the student on masked tokens and the
teacher unmasked, applies one Adam step to the student, and moves the
teacher and the logit centers by momentum.  ``_step_views`` alone
builds a step's views, (patches, masks); with augmentation off both
views of an image are equal, and ``train_step`` reads
``aug_cfg.enabled`` to run the unmasked encoders (teacher and Gram
teacher) once per image.  One forked worker builds the views into two
shared-memory slots, both indices starting on the free pipe, while the
parent trains: colour work and training share no interpreter lock.

When the process has a core that neither the trainer nor the view
worker keeps busy (the worker counts only with augmentation on),
``run_training`` gives the step a lane, one helper thread: the teacher
and Gram-teacher passes run on it beside the student's, and
``backward_batch`` sends it each layer's weight gradients.  Every op
sees the same inputs in the same summation order, so no byte depends
on the lane, and all its work is joined before Adam moves a weight.
"""

from __future__ import annotations

import copy
import mmap
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass

import numpy as np

from .checkpoint import (check_size, check_value, load_params, read_config,
                         save_params)
from .color import StainAugConfig, stain_draws, stain_remap, stain_space
from .encoder import (
    EncoderConfig,
    backward_batch,
    forward_batch,
    param_layout,
    patchify,
    token_gradients,
    tokenize_batch,
)
from .errors import ConfigError, DataError, NumericError
from .numkernel import (RngStream, defer, draw_words, fisher_yates, gelu,
                        gelu_grad, init_tensors, softmax_rows, to_unit)
from .optim import AdamConfig, adam_init, adam_step

_LOG_EPS = 1e-12
_DIST_EPS = 1e-8

PRETRAIN = "pretrain"
POSTTRAIN = "posttrain"


@dataclass(frozen=True)
class SslConfig:
    prototype_count: int = 256
    student_temp: float = 0.1
    teacher_temp: float = 0.04
    center_momentum: float = 0.9
    ema_momentum: float = 0.99
    mask_fraction: float = 0.3
    koleo_weight: float = 0.1
    gram_weight: float = 1.0

    def __post_init__(self):
        if self.prototype_count < 2:
            raise ConfigError("prototype_count must be >= 2")
        if not (self.student_temp > self.teacher_temp > 0):
            raise ConfigError(
                "need student_temp > teacher_temp > 0 (teacher sharper), got "
                f"{self.student_temp} vs {self.teacher_temp}")
        for name in ("center_momentum", "mask_fraction"):
            v = getattr(self, name)
            if not (0 < v < 1):
                raise ConfigError(f"{name} must lie in (0,1), got {v}")
        # momentum 1 is legal: it freezes the teacher outright
        if not (0 < self.ema_momentum <= 1):
            raise ConfigError(
                f"ema_momentum must lie in (0,1], got {self.ema_momentum}")
        if self.koleo_weight < 0 or self.gram_weight < 0:
            raise ConfigError("loss weights must be >= 0")


@dataclass(frozen=True)
class LossBreakdown:
    dino: float
    ibot: float
    koleo: float
    gram: float
    total: float

    @classmethod
    def compute(cls, dino, ibot, koleo, gram, cfg: SslConfig):
        total = dino + ibot + cfg.koleo_weight * koleo + cfg.gram_weight * gram
        return cls(float(dino), float(ibot), float(koleo), float(gram),
                   float(total))


def centered_ce_loss_grad(student_logits, teacher_logits, center,
                          cfg: SslConfig):
    """Mean row-wise cross-entropy of the student against the centered
    teacher and its exact student gradient: the image-level term on
    class-token rows, the patch-level term on masked positions.

    Teacher rows are centered and sharpened at teacher_temp with no
    gradient; the log is stabilized by a 1e-12 floor, and the gradient
    is the true derivative of the stabilized expression.
    """
    s = np.asarray(student_logits, dtype=np.float64)
    t = np.asarray(teacher_logits, dtype=np.float64)
    if not (np.all(np.isfinite(s)) and np.all(np.isfinite(t))):
        raise NumericError("non-finite logits in cross-entropy term")
    pt = softmax_rows((t - center) / cfg.teacher_temp)
    q = softmax_rows(s / cfg.student_temp)
    rows = -(pt * np.log(q + _LOG_EPS)).sum(axis=-1)
    w = pt * q / (q + _LOG_EPS)
    ds = (q * w.sum(axis=-1, keepdims=True) - w) / cfg.student_temp
    return float(rows.mean()), ds / rows.size


def _normalize_rows(x):
    norms = np.sqrt((x * x).sum(axis=-1, keepdims=True))
    return x / np.maximum(norms, 1e-12), norms


def koleo_loss_grad(features):
    """Negative mean log nearest-neighbor distance of normalized rows,
    and its gradient.  Distances at or below ``_DIST_EPS`` are clamped
    and add no gradient; ``np.add.at`` lands each row's term on it and
    then on its neighbour, in row order, as a per-row loop would."""
    x = np.asarray(features, dtype=np.float64)
    n = x.shape[0]
    z, norms = _normalize_rows(x)
    diff = z[:, None, :] - z[None, :, :]
    dist = np.sqrt((diff * diff).sum(axis=-1))
    np.fill_diagonal(dist, np.inf)
    nn = dist.argmin(axis=1)
    d = dist[np.arange(n), nn]
    loss = float(-np.mean(np.log(np.maximum(d, _DIST_EPS))))
    i = np.flatnonzero(d > _DIST_EPS)
    g = (z[i] - z[nn[i]]) / d[i, None] / (n * d[i, None])
    dz = np.zeros_like(z)
    np.add.at(dz, np.stack([i, nn[i]], 1).ravel(),
              np.stack([-g, g], 1).reshape(-1, z.shape[1]))
    # through row normalization: dx = (dz - z * <dz, z>) / ||x||
    dot = (dz * z).sum(axis=-1, keepdims=True)
    dx = (dz - z * dot) / np.maximum(norms, 1e-12)
    return loss, dx


def gram_loss_grad(student_patches, gram_teacher_patches):
    """Normalized-Gram Frobenius gap averaged by 1/N^2, and its student
    gradient.  Leading axes index views: the loss is the mean of the
    per-view gaps and the gradient is divided by the view count, byte
    for byte as one call per view would give."""
    xs = np.asarray(student_patches, dtype=np.float64)
    xg = np.asarray(gram_teacher_patches, dtype=np.float64)
    n = xs.shape[-2]
    zs, norms = _normalize_rows(xs)
    zg, _ = _normalize_rows(xg)
    gap = zs @ np.swapaxes(zs, -1, -2) - zg @ np.swapaxes(zg, -1, -2)
    losses = (gap * gap).sum(axis=(-2, -1)) / (n * n)
    dzs = (4.0 / (n * n)) * gap @ zs
    dot = (dzs * zs).sum(axis=-1, keepdims=True)
    dxs = (dzs - zs * dot) / np.maximum(norms, 1e-12)
    return float(np.mean(losses)), dxs / losses.size


def head_layout(embed_dim: int, prototype_count: int):
    """(name, shape, init) of the 2-layer GELU MLP head, D -> 2D -> K
    prototype logits, in draw order."""
    hidden = 2 * embed_dim
    yield "W1", (embed_dim, hidden), "normal"
    yield "b1", (hidden,), "zeros"
    yield "W2", (hidden, prototype_count), "normal"
    yield "b2", (prototype_count,), "zeros"


def head_forward(x, hp: dict):
    u1 = x @ hp["W1"] + hp["b1"]
    a1 = gelu(u1)
    return a1 @ hp["W2"] + hp["b2"], dict(x=x, u1=u1, a1=a1)


def head_backward(dlogits, cache, hp: dict):
    grads = {
        "W2": cache["a1"].T @ dlogits,
        "b2": dlogits.sum(axis=0),
    }
    da1 = dlogits @ hp["W2"].T
    du1 = da1 * gelu_grad(cache["u1"])
    grads["W1"] = cache["x"].T @ du1
    grads["b1"] = du1.sum(axis=0)
    dx = du1 @ hp["W1"].T
    return grads, dx


def _prefixed(sub: dict, prefix: str) -> dict:
    return {prefix + k: v for k, v in sub.items()}


def _sub(params: dict, prefix: str) -> dict:
    n = len(prefix)
    return {k[n:]: v for k, v in params.items() if k.startswith(prefix)}


def student_encoder_params(state) -> dict:
    """The student's encoder weights, ready for downstream evaluation."""
    return _sub(state.student, "enc.")


@dataclass
class TrainState:
    student: dict          # enc.* / cls_head.* / patch_head.*
    teacher: dict          # same keys, EMA of student
    cls_center: np.ndarray
    patch_center: np.ndarray
    adam: dict
    step: int = 0
    # frozen enc params in arrays of its own: adam_step updates the
    # student's in place, so sharing them would move the anchor
    gram_teacher: dict = None


def _model_layout(enc_cfg: EncoderConfig, k: int) -> list:
    """(prefix, layout) of the student's parts, in draw order."""
    d = enc_cfg.embed_dim
    return [("enc.", param_layout(enc_cfg)), ("cls_head.", head_layout(d, k)),
            ("patch_head.", head_layout(d, k))]


def student_size(enc_cfg: EncoderConfig, k: int) -> int:
    """The values in ``_model_layout``'s tensors, in closed form."""
    d, h = enc_cfg.embed_dim, enc_cfg.mlp_hidden
    layer = 4 * d * d + 2 * d * h + h + 9 * d
    head = 2 * d * d + 2 * d + 2 * d * k + k
    return ((enc_cfg.patch_dim + enc_cfg.seq_len + 5) * d
            + enc_cfg.depth * layer + 2 * head)


def init_train_state(enc_cfg: EncoderConfig, ssl_cfg: SslConfig,
                     rng: RngStream) -> TrainState:
    k = ssl_cfg.prototype_count
    student = {}
    for i, (prefix, layout) in enumerate(_model_layout(enc_cfg, k)):
        student.update(_prefixed(init_tensors(layout, rng.derive(i)), prefix))
    teacher = copy.deepcopy(student)
    return TrainState(
        student=student,
        teacher=teacher,
        cls_center=np.zeros(k),
        patch_center=np.zeros(k),
        adam=adam_init(student),
    )


def _table(state: TrainState) -> dict:
    """The flat name -> tensor table a checkpoint of ``state`` holds."""
    groups = (("student.", state.student), ("teacher.", state.teacher),
              ("adam.m.", state.adam["m"]), ("adam.v.", state.adam["v"]),
              ("gram.", state.gram_teacher or {}))
    return {"cls_center": state.cls_center, "patch_center": state.patch_center,
            **{p + name: v for p, g in groups for name, v in g.items()}}


def train_state_mismatch(state: TrainState, enc_cfg: EncoderConfig,
                         ssl_cfg: SslConfig, table: dict = None):
    """How ``state``'s tensors, or ``table``, the checkpoint it was read
    from, disagree with the configs, or None.  The layout is walked
    lazily with dict lookups up to the first missing or misshapen
    tensor, so configs asking for a huge model allocate and loop nothing."""
    k = ssl_cfg.prototype_count
    parts = [("", [("cls_center", (k,), "zeros"),
                   ("patch_center", (k,), "zeros")])]
    parts += [(group + prefix, layout)
              for group in ("student.", "teacher.", "adam.m.", "adam.v.")
              for prefix, layout in _model_layout(enc_cfg, k)]
    if state.gram_teacher is not None:   # an encoder alone
        parts.append(("gram.", param_layout(enc_cfg)))
    table, names = _table(state) if table is None else table, set()
    for prefix, layout in parts:
        for name, shape, _ in layout:
            tensor = table.get(prefix + name)
            if tensor is None:
                return f"lacks tensor {prefix + name!r}"
            if tensor.shape != shape:
                return f"holds {prefix + name!r} at {tensor.shape}, not {shape}"
            names.add(prefix + name)
    extra = sorted(set(table) - names)
    return f"holds tensor {extra[0]!r}, which has no place" if extra else None


def _guard(value, what: str, state: TrainState):
    """A ``NumericError`` when ``value`` is not finite, naming the step
    as the loss log numbers it: ``state.step`` steps done, this one next."""
    if not np.all(np.isfinite(np.asarray(value))):
        raise NumericError(f"{what} non-finite at step {state.step + 1}")


def _step_views(rasters, step: int, ssl_cfg: SslConfig,
                enc_cfg: EncoderConfig, aug_cfg: StainAugConfig,
                rng: RngStream):
    """(patches, masks) of step ``step`` over a raster batch: view
    v = 2 i + vi of item i, patchified, and its student mask.  With
    augmentation off both views of an item are the item itself.

    ``rng.derive(step, i)`` derived by vi is view v's stream (counter 0
    the LAB/HSV coin, LAB below 0.5; 1..12 the jitter draws), derived
    by 2 + vi its mask's (Fisher-Yates words at 0..N-2); one
    ``draw_words`` call draws them all.  A raster is converted once per
    space its views pick.  Nothing here reads the model.
    """
    b, n, aug = len(rasters), enc_cfg.num_patches, aug_cfg.enabled
    items = [rng.derive(step, i) for i in range(b)]
    # rows 0..2B-1 are the mask streams, rows 2B.. the view streams
    streams = [item.derive(2 + vi) for item in items for vi in range(2)]
    if aug:
        streams += [item.derive(vi) for item in items for vi in range(2)]
    words = draw_words(streams, max(n - 1, 13 if aug else 0))
    # at least one masked and (n >= 2) at least one unmasked token
    m = min(max(1, int(round(ssl_cfg.mask_fraction * n))), n - 1)
    masks = np.zeros((2 * b, n), dtype=bool)
    for v, row in enumerate(words[:2 * b, :n - 1].tolist()):
        masks[v, fisher_yates(row, n)[:m]] = True
    patches = np.empty((2 * b, n, enc_cfg.patch_dim))
    if not aug:
        for i, raster in enumerate(rasters):
            patches[2 * i:2 * i + 2] = patchify(raster, enc_cfg)
        return patches, masks
    lab = to_unit(words[2 * b:, 0]) < 0.5
    spaces = ["lab" if pick else "hsv" for pick in lab.tolist()]
    sigmas = np.where(lab[:, None], aug_cfg.sigmas("lab"), aug_cfg.sigmas("hsv"))
    dmu, rho = stain_draws(words[2 * b:, 1:13], sigmas)
    for i, raster in enumerate(rasters):
        converted = {space: stain_space(raster, space)
                     for space in set(spaces[2 * i:2 * i + 2])}
        for v in (2 * i, 2 * i + 1):
            view = stain_remap(*converted[spaces[v]], dmu[v], rho[v], spaces[v])
            patches[v] = patchify(view, enc_cfg)
    return patches, masks


def _step_shape(enc_cfg: EncoderConfig, batch_size: int):
    """(views, patches, patch values) of one step's patch stack."""
    return 2 * batch_size, enc_cfg.num_patches, enc_cfg.patch_dim


def check_step_size(enc_cfg: EncoderConfig, batch_size: int) -> None:
    """Refuse a batch whose step views, the patches and masks of
    ``run_training``'s two shared slots, no array can index."""
    v, n, p = _step_shape(enc_cfg, batch_size)
    check_size("a step's views", 2 * v * n * (p + 1))


def _slots(enc_cfg: EncoderConfig, batch_size: int):
    """(patches, masks) of both slots, slot k at index k, over one
    anonymous mapping that a forked child writes and its parent reads."""
    v, n, p = _step_shape(enc_cfg, batch_size)
    buffer = mmap.mmap(-1, 2 * v * n * (8 * p + 1))
    patches = np.ndarray((2, v, n, p), np.float64, buffer)
    return patches, np.ndarray((2, v, n), bool, buffer, offset=patches.nbytes)


@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def train_step(views, state: TrainState, ssl_cfg: SslConfig,
               enc_cfg: EncoderConfig, aug_cfg: StainAugConfig,
               phase: str = PRETRAIN, adam_cfg: AdamConfig = AdamConfig(),
               lane: ThreadPoolExecutor = None) -> LossBreakdown:
    """One optimization step on ``views``, a batch's ``_step_views`` at
    ``state.step``.

    The student sees masked tokens, the teacher never does.  The
    teacher and the Gram teacher run on the unmasked views (one per
    item with ``aug_cfg`` off), each row repeated to stand for the
    views it covers.  Gradients flow only into the student; the teacher
    follows by EMA and the centers by momentum on batch-mean teacher logits.
    A non-finite loss term, weighted total or squared gradient norm is a
    ``NumericError`` naming the step, raised before any tensor moves;
    numpy's floating-point warnings are off, since the guards name the
    fault.

    With ``lane``, the teacher and Gram-teacher passes start on it
    before the student's and are joined where serial code runs them
    (the teacher before the image-level term, the Gram teacher before
    its term), so errors keep their serial order; ``backward_batch``
    gets the lane too.  With None every call runs in line.

    The caller has checked the inputs: a non-empty batch, num_patches
    >= 2, and a Gram teacher on ``state`` for POSTTRAIN.
    """
    patches, masks = views
    # a row of forward_batch depends on its own input row alone, so
    # repeating a row equals running the views it stands for
    repeat = 1 if aug_cfg.enabled else 2

    def unmasked(params):
        out, _ = forward_batch(tokenize_batch(patches[::repeat], params),
                               enc_cfg, params)
        return np.repeat(out, repeat, axis=0)

    teacher = defer(lane, unmasked, _sub(state.teacher, "enc."))
    gram_teacher = (defer(lane, unmasked, state.gram_teacher)
                    if phase == POSTTRAIN else None)
    enc_s = _sub(state.student, "enc.")
    out_s, cache_s = forward_batch(tokenize_batch(patches, enc_s, masks),
                                   enc_cfg, enc_s)
    out_t = teacher()

    cls_s = out_s[:, 0, :]
    cls_t = out_t[:, 0, :]

    cls_head_s = _sub(state.student, "cls_head.")
    cls_head_t = _sub(state.teacher, "cls_head.")
    patch_head_s = _sub(state.student, "patch_head.")
    patch_head_t = _sub(state.teacher, "patch_head.")

    logits_s, cls_cache = head_forward(cls_s, cls_head_s)
    logits_t = head_forward(cls_t, cls_head_t)[0]

    # image-level: cross-view pairs (teacher a -> student b and vice versa)
    swap = np.arange(len(patches)).reshape(-1, 2)[:, ::-1].reshape(-1)
    dino, d_logits_s = centered_ce_loss_grad(logits_s, logits_t[swap],
                                             state.cls_center, ssl_cfg)
    _guard(dino, "dino term", state)

    # patch-level at masked positions, stacked across views
    masked_rows_s = out_s[:, 1:, :][masks]
    masked_rows_t = out_t[:, 1:, :][masks]
    p_logits_s, patch_cache = head_forward(masked_rows_s, patch_head_s)
    p_logits_t = head_forward(masked_rows_t, patch_head_t)[0]
    ibot, d_plogits = centered_ce_loss_grad(p_logits_s, p_logits_t,
                                            state.patch_center, ssl_cfg)
    _guard(ibot, "ibot term", state)

    koleo, d_cls_koleo = koleo_loss_grad(cls_s)
    _guard(koleo, "koleo term", state)

    # ---- backward: assemble d(total)/d(encoder out), Gram term first ----
    dout = np.zeros_like(out_s)
    gram = 0.0
    if phase == POSTTRAIN:
        gram, d_gram = gram_loss_grad(out_s[:, 1:, :],
                                      gram_teacher()[:, 1:, :])
        _guard(gram, "gram term", state)
        dout[:, 1:, :] += ssl_cfg.gram_weight * d_gram

    cls_grads, d_cls = head_backward(d_logits_s, cls_cache, cls_head_s)
    d_cls = d_cls + ssl_cfg.koleo_weight * d_cls_koleo
    patch_grads, d_masked = head_backward(d_plogits, patch_cache, patch_head_s)

    dout[:, 0, :] = d_cls
    dout[:, 1:, :][masks] += d_masked

    enc_grads = backward_batch(dout, cache_s, enc_s, lane)
    enc_grads.update(token_gradients(enc_grads.pop("z0"), patches, masks,
                                     enc_s))

    grads = {}
    grads.update(_prefixed(enc_grads, "enc."))
    grads.update(_prefixed(cls_grads, "cls_head."))
    grads.update(_prefixed(patch_grads, "patch_head."))
    # Adam's second moment sums squares: a finite gradient whose square
    # overflows diverges too.  np.square, not np.vdot: a BLAS dot wakes
    # OpenBLAS's worker threads, which then spin beside the view worker
    lb = LossBreakdown.compute(dino, ibot, koleo, gram, ssl_cfg)
    _guard(lb.total, "weighted total", state)
    _guard(sum(np.square(g).sum() for g in grads.values()),
           "squared gradient norm", state)
    adam_step(state.student, grads, state.adam, adam_cfg)

    # EMA teacher and center updates close the step
    m = ssl_cfg.ema_momentum
    for k in state.teacher:
        state.teacher[k] *= m
        state.teacher[k] += (1 - m) * state.student[k]
    cm = ssl_cfg.center_momentum
    state.cls_center = cm * state.cls_center + (1 - cm) * logits_t.mean(axis=0)
    state.patch_center = (cm * state.patch_center
                          + (1 - cm) * p_logits_t.mean(axis=0))
    state.step += 1
    return lb


def run_training(corpus, state: TrainState, ssl_cfg: SslConfig,
                 enc_cfg: EncoderConfig, aug_cfg: StainAugConfig,
                 rng: RngStream, steps: int, batch_size: int,
                 phase: str = PRETRAIN, adam_cfg: AdamConfig = AdamConfig()):
    """Fixed-step loop with deterministic with-replacement batching.

    A child made with ``os.fork`` builds each step's batch and views in
    step order, copies them into a free slot of one anonymous shared
    mapping and sends the slot's index.  One byte per message crosses
    two pipes: "slot k ready" from the child, "slot k free" from the
    parent, which writes both indices before the fork and each again
    once its step has trained, so the child builds at most two steps
    ahead.  ``train_step`` reads ``aug_cfg.enabled`` to pair an item's
    views.  The views depend only on the corpus, the step number and
    ``rng``, so the bytes are those of building them in line.  The
    child leaves only through ``os._exit``, so it never returns into
    the caller or flushes a buffer it inherited.  When it stops short
    of a step, the parent builds that step's views itself: a
    view-building failure is raised there with its own type and
    message, and any other death of the child is a ``NumericError``.
    On every exit the parent closes its pipe ends, so a waiting child
    reads EOF, and reaps the child.  ``steps=0`` forks nothing.  POSIX
    only.

    When the process may run on more cores (``os.sched_getaffinity``)
    than the step keeps busy, the trainer plus the view worker with
    augmentation on, the parent makes the step's lane, a single-thread
    executor, after the fork, and shuts it down on every exit, so no
    thread lives across a fork or outlives the call.  Otherwise every
    step runs in line.  No byte depends on which.

    Returns the list of per-step LossBreakdowns.  The caller has
    checked ``steps >= 0``, ``batch_size >= 1`` (``check_step_size``
    included) and a non-empty corpus.
    """
    def build(step):
        pick = rng.derive(9001, step).integers(batch_size, len(corpus))
        return _step_views([corpus[int(i)] for i in pick], step, ssl_cfg,
                           enc_cfg, aug_cfg, rng)

    if not steps:
        return []
    history = []
    run = range(state.step, state.step + steps)
    slot_patches, slot_masks = _slots(enc_cfg, batch_size)
    ready_r, ready_w = os.pipe()
    free_r, free_w = os.pipe()
    os.write(free_w, bytes([0, 1]))
    pid = os.fork()
    if pid == 0:
        try:
            os.close(ready_r)
            os.close(free_w)
            for step in run:
                views, k = build(step), os.read(free_r, 1)
                if not k:   # the parent stopped listening
                    break
                slot_patches[k[0]], slot_masks[k[0]] = views
                os.write(ready_w, k)
        finally:   # quietly, whatever was raised: the parent reports it
            os._exit(0)
    os.close(ready_w)
    os.close(free_r)
    busy = 2 if aug_cfg.enabled else 1
    lane = (ThreadPoolExecutor(1) if len(os.sched_getaffinity(0)) > busy
            else None)
    try:
        for step in run:
            k = os.read(ready_r, 1)
            if not k:
                build(step)   # raises what stopped the child, if it can
                raise NumericError(
                    f"the view worker died before step {step}'s views")
            lb = train_step((slot_patches[k[0]], slot_masks[k[0]]), state,
                            ssl_cfg, enc_cfg, aug_cfg, phase, adam_cfg, lane)
            history.append(lb)
            if step + 2 < run.stop:
                try:
                    os.write(free_w, k)
                except BrokenPipeError:   # reported at the next read
                    pass
    finally:
        if lane is not None:   # after its running task, if any
            lane.shutdown(cancel_futures=True)
        os.close(ready_r)
        os.close(free_w)
        os.waitpid(pid, 0)
    return history


def save_train_state(path, state: TrainState, enc_cfg: EncoderConfig,
                     ssl_cfg: SslConfig, extra: dict = None) -> None:
    """Full training snapshot in the shared tensor container: both model
    copies, the optimizer moments, the centers, and the frozen Gram
    teacher when one is attached."""
    config = {
        "encoder": asdict(enc_cfg),
        "ssl": asdict(ssl_cfg),
        "step": int(state.step),
        "adam_t": int(state.adam["t"]),
        "has_gram_teacher": state.gram_teacher is not None,
    }
    save_params(path, "train_state", config, _table(state),
                extra=extra or {})


def load_train_state(path):
    """Inverse of save_train_state: (state, enc_cfg, ssl_cfg, extra); a tensor
    off its header config, or a step or adam_t outside [0, 2**63), is a DataError."""
    kind, config, tensors, extra = load_params(path)
    if kind != "train_state":
        raise DataError(f"{path}: not a training checkpoint (kind {kind!r})")
    try:
        step, adam_t = (check_value(k, int, config.get(k, 0))
                        for k in ("step", "adam_t"))
        enc_cfg = read_config(EncoderConfig, config.get("encoder", {}))
        ssl = config.get("ssl", {})
        if isinstance(ssl, dict):   # a dropped field older headers hold
            ssl.pop("gram_teacher_checkpoint", None)
        ssl_cfg = read_config(SslConfig, ssl)
    except ConfigError as e:
        raise DataError(f"{path}: bad header config: {e}") from None
    for key, count in (("step", step), ("adam_t", adam_t)):
        if count < 0:
            raise DataError(f"{path}: bad header config: {key} must be "
                            f">= 0, got {count}")
        if count >= 2 ** 63:
            raise DataError(f"{path}: bad header config: {key} must be < 2**63")
    state = TrainState(
        student=_sub(tensors, "student."),
        teacher=_sub(tensors, "teacher."),
        cls_center=tensors.get("cls_center"),
        patch_center=tensors.get("patch_center"),
        adam={"t": adam_t,
              "m": _sub(tensors, "adam.m."),
              "v": _sub(tensors, "adam.v.")},
        step=step,
        gram_teacher=(_sub(tensors, "gram.")
                      if config.get("has_gram_teacher") else None),
    )
    mismatch = train_state_mismatch(state, enc_cfg, ssl_cfg, tensors)
    if mismatch:
        raise DataError(f"{path}: training checkpoint {mismatch} "
                        "under its header config")
    return state, enc_cfg, ssl_cfg, extra
