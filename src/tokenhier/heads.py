"""Frozen-encoder evaluation heads: linear probe and attention pooling.

The probe reads only the class token and applies a softmax classifier.
The pooling head forms one query per head from the class token, attends
over the patch tokens, concatenates the per-head summaries through an
output projection, and classifies the pooled vector.  Both heads train
with Adam on mean cross-entropy (``head_gradients``) while the encoder
stays untouched; model selection is by best validation balanced
accuracy (``balanced_accuracy``, the metric every report uses).

Everything runs on batches: ``probs_batch`` is the one forward pass of
both heads and ``predict_batch`` its argmax; for the pooling head it
also returns the pooled vectors and the per-head attention weights.
Every pooling projection (per-head query, key and value maps and the
output map) is learned.  The per-head query, key and value maps and
their weight gradients run as flat 2-D contractions (``_project``,
``_project_grad``) whose results are copied C-contiguous: that runs
the same per-element kernel as the batched per-head einsum, so the
bytes match it, while a strided result would make the einsums
downstream sum in a different order.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, NumericError
from .numkernel import RngStream, softmax_backward, softmax_rows, trunc_normal
from .optim import AdamConfig, adam_init, adam_step

LINEAR = "linear"
ATTNPOOL = "attnpool"


@dataclass
class ProbeParams:
    W_lp: np.ndarray       # (C, D)
    b: np.ndarray          # (C,)


@dataclass
class AttnPoolParams:
    Wq: np.ndarray         # (H, Dh, D)
    Wk: np.ndarray         # (H, Dh, D)
    Wv: np.ndarray         # (H, Dh, D)
    Wo: np.ndarray         # (D, D)
    W_attn: np.ndarray     # (C, D)
    b: np.ndarray          # (C,)


@dataclass(frozen=True)
class HeadTrainConfig:
    epochs: int = 100
    lr: float = 1e-3
    weight_decay: float = 1e-4
    batch: int = 32
    seed: int = 0
    num_heads: int = 4

    def __post_init__(self):
        if self.epochs < 1:
            raise ConfigError("epochs must be >= 1")
        # lr 0 is allowed: it degenerates to a no-op run with a flat curve
        if self.lr < 0 or self.weight_decay < 0:
            raise ConfigError("lr and weight_decay must be >= 0")
        if self.batch < 1 or self.num_heads < 1:
            raise ConfigError("batch and num_heads must be >= 1")


def class_recalls(y_true, y_pred, num_classes: int):
    """Per-class recall (correct count over support; NaN, 0/0, where
    support is 0) and support, each of length ``num_classes``.  The label
    arrays are non-empty, of one length, with labels in [0, num_classes)."""
    yt = np.asarray(y_true, dtype=np.int64).ravel()
    yp = np.asarray(y_pred, dtype=np.int64).ravel()
    support = np.bincount(yt, minlength=num_classes)
    with np.errstate(invalid="ignore"):
        return np.bincount(yt[yt == yp], minlength=num_classes) / support, support


def balanced_accuracy(y_true, y_pred, num_classes: int) -> float:
    """Unweighted mean of the ``num_classes`` per-class recalls, leaving out
    zero-support classes (callers can report them via class_recalls)."""
    recalls, support = class_recalls(y_true, y_pred, num_classes)
    live = support > 0
    return float(np.mean(recalls[live]))


def _project(W, x):
    """Per-head projection of weights W (H, dh, D) over tokens x
    (B, N, D): a C-contiguous (B, H, N, dh)."""
    nh, dh, d = W.shape
    bsz, n, _ = x.shape
    flat = np.einsum("kd,md->mk", W.reshape(nh * dh, d), x.reshape(bsz * n, d))
    return np.ascontiguousarray(
        flat.reshape(bsz, n, nh, dh).transpose(0, 2, 1, 3))


def _project_grad(g, x):
    """Weight gradient (H, dh, D) of :func:`_project` for an upstream
    gradient g (B, H, N, dh) over tokens x (B, N, D)."""
    bsz, nh, n, dh = g.shape
    rows = g.transpose(0, 2, 1, 3).reshape(bsz * n, nh * dh)
    flat = np.einsum("mk,md->kd", rows, x.reshape(bsz * n, -1))
    return flat.reshape(nh, dh, -1)


def _pool_batch(cls, patches, p: AttnPoolParams):
    """Vectorized pooling: cls (B,D), patches (B,N,D) -> h (B,D) and
    the cache of the backward pass, whose ``a`` holds the per-head
    attention weights (B,H,N)."""
    bsz, _, d = patches.shape
    dh = p.Wq.shape[1]
    q = _project(p.Wq, cls[:, None, :])[:, :, 0]
    k = _project(p.Wk, patches)
    v = _project(p.Wv, patches)
    logits = np.einsum("bhp,bhnp->bhn", q, k) / np.sqrt(dh)
    a = softmax_rows(logits)
    hh = np.einsum("bhn,bhnp->bhp", a, v)
    hc = hh.reshape(bsz, d)
    h = hc @ p.Wo.T
    return h, dict(q=q, k=k, v=v, a=a, hc=hc)


def _stack(items):
    cls = np.stack([seq.cls for seq, _ in items])
    patches = np.stack([seq.patches for seq, _ in items])
    y = np.array([label for _, label in items], dtype=np.int64)
    return cls, patches, y


def probs_batch(cls, patches, params, mode):
    """Class probabilities (B, C) from class tokens (B, D) and patch
    tokens (B, N, D), plus what :func:`head_gradients` needs of the
    pooling forward (None for the linear probe)."""
    if mode == LINEAR:
        return softmax_rows(cls @ params.W_lp.T + params.b), None
    h, cache = _pool_batch(cls, patches, params)
    return softmax_rows(h @ params.W_attn.T + params.b), (h, cache)


def head_gradients(cls, patches, y, params, mode):
    """Mean cross-entropy gradients for one batch of class tokens
    (B, D), patch tokens (B, N, D) and labels (B,).

    Returns (loss, grads dict keyed like the param dataclass fields),
    the ``(value, grad)`` order of every loss in the package.
    """
    bsz = len(y)
    probs, extra = probs_batch(cls, patches, params, mode)
    loss = float(-np.mean(np.log(probs[np.arange(bsz), y] + 1e-12)))
    dlogits = probs.copy()
    dlogits[np.arange(bsz), y] -= 1.0
    dlogits /= bsz
    if mode == LINEAR:
        return loss, {"W_lp": dlogits.T @ cls, "b": dlogits.sum(axis=0)}
    h, cache = extra
    grads = {"W_attn": dlogits.T @ h, "b": dlogits.sum(axis=0)}
    dh = dlogits @ params.W_attn
    dhc = dh @ params.Wo
    grads["Wo"] = dh.T @ cache["hc"]
    nh, dhd = params.Wq.shape[0], params.Wq.shape[1]
    dhh = dhc.reshape(bsz, nh, dhd)
    da = np.einsum("bhp,bhnp->bhn", dhh, cache["v"])
    dv = np.einsum("bhn,bhp->bhnp", cache["a"], dhh)
    dlog = softmax_backward(cache["a"], da) / np.sqrt(dhd)
    dq = np.einsum("bhn,bhnp->bhp", dlog, cache["k"])
    dk = np.einsum("bhn,bhp->bhnp", dlog, cache["q"])
    grads["Wq"] = _project_grad(dq[:, :, None], cls[:, None, :])
    grads["Wk"] = _project_grad(dk, patches)
    grads["Wv"] = _project_grad(dv, patches)
    return loss, grads


def predict_batch(items, params, mode):
    """argmax class per sequence; exact ties resolve to the lowest index."""
    cls, patches, _ = _stack([(seq, 0) for seq in items])
    probs, _ = probs_batch(cls, patches, params, mode)
    return probs.argmax(axis=1)


@dataclass
class HeadTrainResult:
    params: object
    curve: list = field(default_factory=list)
    best_val_bacc: float = 0.0


def train_head(train_items, val_items, mode,
               cfg: HeadTrainConfig) -> HeadTrainResult:
    """Mini-batch Adam on mean cross-entropy; the returned params are
    the epoch snapshot with the best validation balanced accuracy, and
    an epoch whose validation outputs are non-finite is a NumericError.
    Both sets are non-empty; the class count is the largest label + 1;
    ``cfg.num_heads`` divides the token width."""
    c = max(int(lab) for items in (train_items, val_items)
            for _, lab in items) + 1
    d = train_items[0][0].cls.shape[0]
    if mode == LINEAR:
        params = ProbeParams(np.zeros((c, d)), np.zeros(c))
    else:
        rng = RngStream(seed=cfg.seed, stream_id=77)
        shape = (cfg.num_heads, d // cfg.num_heads, d)
        params = AttnPoolParams(
            Wq=trunc_normal(rng, shape), Wk=trunc_normal(rng, shape),
            Wv=trunc_normal(rng, shape),
            Wo=np.eye(d),   # starts as a pass-through
            W_attn=np.zeros((c, d)), b=np.zeros(c))
    adam_cfg = AdamConfig(lr=cfg.lr, weight_decay=cfg.weight_decay)
    pdict = vars(params)
    opt = adam_init(pdict)
    order_rng = RngStream(seed=cfg.seed, stream_id=78)
    n = len(train_items)
    cls, patches, y = _stack(train_items)
    val_cls, val_patches, val_y = _stack(val_items)

    best = HeadTrainResult(copy.deepcopy(params), [], -1.0)
    for epoch in range(cfg.epochs):
        perm = order_rng.permutation(n)
        losses = []
        for start in range(0, n, cfg.batch):
            idx = perm[start:start + cfg.batch]
            loss, grads = head_gradients(cls[idx], patches[idx], y[idx],
                                         params, mode)
            adam_step(pdict, grads, opt, adam_cfg, no_decay=("b",))
            losses.append(loss)
        probs, _ = probs_batch(val_cls, val_patches, params, mode)
        if not np.isfinite(probs).all():
            raise NumericError(f"{mode} head diverged at epoch {epoch}")
        bacc = balanced_accuracy(val_y, probs.argmax(axis=1), c)
        best.curve.append({"epoch": epoch,
                           "train_loss": float(np.mean(losses)),
                           "val_bacc": float(bacc)})
        if bacc > best.best_val_bacc:
            best.best_val_bacc = float(bacc)
            best.params = copy.deepcopy(params)
    return best
