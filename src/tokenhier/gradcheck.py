"""Central finite-difference verification of every backward pass.

Each component is a small fixed instance in one table; a single routine
compares a deterministic sample of its analytic gradient entries
against central differences.  The reported number is the worst relative error
|a - n| / max(1e-6, |a|, |n|) over the sampled entries, so a single
wrong entry cannot hide behind a large tensor.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass

import numpy as np

from .encoder import (EncoderConfig, backward_batch, forward_batch,
                      init_params, patchify, token_gradients, tokenize_batch)
from .heads import (ATTNPOOL, LINEAR, AttnPoolParams, ProbeParams,
                    head_gradients)
from .numkernel import RngStream
from .ssl import (SslConfig, centered_ce_loss_grad, gram_loss_grad,
                  koleo_loss_grad)

TOLERANCE = 1e-4

_H = 1e-5
_MAX_ENTRIES = 24


@dataclass(frozen=True)
class ComponentResult:
    component: str
    worst_rel_err: float

    @property
    def passed(self) -> bool:
        return self.worst_rel_err <= TOLERANCE


def _rel(a: float, n: float) -> float:
    return abs(a - n) / max(1e-6, abs(a), abs(n))


def _sample_indices(rng: RngStream, size: int):
    if size <= _MAX_ENTRIES:
        return np.arange(size)
    picks = rng.integers(_MAX_ENTRIES - 1, size)
    # entry 0 always goes in: the pinned worst errors were measured on
    # this sample, and a fault at entry 0 of any tensor is always seen
    return np.unique(np.concatenate([[0], picks]))


def _check_tensor(loss_fn, arr, analytic, rng) -> float:
    """Worst sampled relative error for one tensor, arr mutated in place
    around each probe point."""
    flat = arr.reshape(-1)
    aflat = np.asarray(analytic).reshape(-1)
    worst = 0.0
    for idx in _sample_indices(rng, flat.size):
        keep = flat[idx]
        flat[idx] = keep + _H
        up = loss_fn()
        flat[idx] = keep - _H
        down = loss_fn()
        flat[idx] = keep
        worst = max(worst, _rel(float(aflat[idx]), (up - down) / (2 * _H)))
    return worst


def _crc_streams(rng: RngStream, tag: int, names) -> dict:
    """One sampling stream per tensor, keyed on a hash of its name."""
    return {n: rng.derive(tag, zlib.crc32(n.encode()) % 1000) for n in names}


def _encoder_blocks():
    cfg = EncoderConfig(image_size=32, token_size=16, embed_dim=16,
                        depth=2, num_heads=2, mlp_ratio=2.0)
    rng = RngStream(seed=101, stream_id=1)
    params = init_params(cfg, rng.derive(0))
    for k, v in params.items():
        params[k] = v + rng.derive(1, zlib.crc32(k.encode()) % 1000).gaussian(
            v.size, 0.0, 0.05).reshape(v.shape)
    z0 = rng.derive(2).gaussian(2 * cfg.seq_len * cfg.embed_dim).reshape(
        2, cfg.seq_len, cfg.embed_dim)
    w = rng.derive(3).gaussian(z0.size).reshape(z0.shape)

    def loss():
        out, _ = forward_batch(z0, cfg, params)
        return float((w * out).sum())

    _, cache = forward_batch(z0, cfg, params)
    grads = backward_batch(w, cache, params)
    streams = _crc_streams(rng, 5, params)
    streams["z0"] = rng.derive(4)
    return loss, grads, dict(params, z0=z0), streams


def _encoder_embedding():
    cfg = EncoderConfig(image_size=32, token_size=16, embed_dim=12,
                        depth=0, num_heads=2, mlp_ratio=2.0)
    rng = RngStream(seed=102, stream_id=1)
    params = init_params(cfg, rng.derive(0))
    raster = rng.derive(1).integers(
        cfg.image_size * cfg.image_size * 3, 256).reshape(
        cfg.image_size, cfg.image_size, 3).astype(np.uint8)
    mask = np.zeros(cfg.num_patches, dtype=bool)
    mask[0] = True
    w = rng.derive(2).gaussian(cfg.seq_len * cfg.embed_dim).reshape(
        cfg.seq_len, cfg.embed_dim)

    def loss():
        z0 = tokenize_batch(patchify(raster, cfg)[None], params, mask[None])
        return float((w * z0[0]).sum())

    grads = token_gradients(w[None, :, :], patchify(raster, cfg)[None],
                            mask[None], params)
    return loss, grads, params, _crc_streams(rng, 3, grads)


def _loss_term(seed, loss_grad, draws):
    """A (value, grad) loss checked on its first argument.  Argument i
    is drawn from stream i as (shape, sigma); the next stream samples."""
    def build():
        rng = RngStream(seed=seed, stream_id=1)
        args = [rng.derive(i).gaussian(int(np.prod(shape)), 0.0, sigma)
                .reshape(shape) for i, (shape, sigma) in enumerate(draws)]
        _, grad = loss_grad(*args)
        return (lambda: loss_grad(*args)[0], {"x": grad}, {"x": args[0]},
                {"x": rng.derive(len(draws))})
    return build


def _centered_term(seed, rows):
    cfg = SslConfig(prototype_count=8)
    return _loss_term(
        seed, lambda s, t, c: centered_ce_loss_grad(s, t, c, cfg),
        [((rows, 8), 1.0), ((rows, 8), 1.0), ((8,), 0.1)])


def _head_batch(rng, d, n):
    """Class tokens (4, D), patch tokens (4, N, D) and labels 0101."""
    rs = [rng.derive(i) for i in range(4)]
    return (np.stack([r.derive(0).gaussian(d) for r in rs]),
            np.stack([r.derive(1).gaussian(n * d).reshape(n, d) for r in rs]),
            np.arange(4) % 2)


def _linear_head():
    rng = RngStream(seed=107, stream_id=1)
    d = 16
    batch = _head_batch(rng.derive(0), d, 4)
    p = ProbeParams(rng.derive(1).gaussian(2 * d, 0.0, 0.3).reshape(2, d),
                    rng.derive(2).gaussian(2, 0.0, 0.3))
    _, grads = head_gradients(*batch, p, LINEAR)
    return (lambda: head_gradients(*batch, p, LINEAR)[0], grads,
            {"W_lp": p.W_lp, "b": p.b},
            {"W_lp": rng.derive(3), "b": rng.derive(4)})


def _attnpool_head():
    rng = RngStream(seed=108, stream_id=1)
    d, heads, n = 16, 2, 8
    dh = d // heads
    batch = _head_batch(rng.derive(0), d, n)
    g = lambda shape, k: rng.derive(1, k).gaussian(
        int(np.prod(shape)), 0.0, 0.3).reshape(shape)
    p = AttnPoolParams(Wq=g((heads, dh, d), 0), Wk=g((heads, dh, d), 1),
                       Wv=g((heads, dh, d), 2), Wo=g((d, d), 3),
                       W_attn=g((2, d), 4), b=g((2,), 5))
    _, grads = head_gradients(*batch, p, ATTNPOOL)
    return (lambda: head_gradients(*batch, p, ATTNPOOL)[0], grads,
            {name: getattr(p, name) for name in grads},
            _crc_streams(rng, 2, grads))


# Each builder returns (loss, analytic grads, tensors, sampling streams);
# the last three are keyed alike, and every analytic gradient is checked
# against central differences of loss over its tensor.
_COMPONENTS = {
    "encoder.embedding": _encoder_embedding,
    "encoder.blocks": _encoder_blocks,
    "ssl.dino": _centered_term(103, 4),
    "ssl.ibot": _centered_term(104, 6),
    "ssl.koleo": _loss_term(105, koleo_loss_grad, [((8, 16), 1.0)]),
    "ssl.gram": _loss_term(106, gram_loss_grad,
                           [((8, 16), 1.0), ((8, 16), 1.0)]),
    "heads.linear": _linear_head,
    "heads.attnpool": _attnpool_head,
}


def _worst(build) -> float:
    loss, grads, tensors, streams = build()
    return max(_check_tensor(loss, tensors[n], grads[n], streams[n])
               for n in grads)


def run_all():
    """Every component's worst sampled relative error, in a fixed order."""
    return [ComponentResult(name, float(_worst(build)))
            for name, build in _COMPONENTS.items()]
