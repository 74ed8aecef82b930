"""From-scratch pre-norm ViT with hand-written backpropagation.

The token sequence for an image is [class token; projected patches] plus
a learned positional table; L pre-norm blocks (multi-head attention,
then a GELU MLP, each with a residual) and a final layer norm produce
the output sequence.  Masked variants swap selected patch projections
for a learned mask token before positions are added.

Everything is batched as (B, S, D) float64 arrays with S = N + 1 and
the class token at row 0: ``patchify`` one raster per item, stack,
``tokenize_batch``, then ``forward_batch``.  That is the only path, for
training and for frozen embeddings alike.  ``forward_batch`` returns a
cache that ``backward_batch`` consumes to produce parameter gradients;
both are pure functions of their inputs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, NumericError
from .numkernel import (RngStream, gelu, gelu_grad, init_tensors, layer_norm,
                        layer_norm_backward, softmax_backward, softmax_rows)


@dataclass(frozen=True)
class EncoderConfig:
    image_size: int = 64
    token_size: int = 16
    embed_dim: int = 64
    depth: int = 4
    num_heads: int = 4
    mlp_ratio: float = 4.0

    def __post_init__(self):
        if self.image_size <= 0 or self.token_size <= 0:
            raise ConfigError("image_size and token_size must be positive")
        if self.image_size % self.token_size:
            raise ConfigError(
                f"image_size {self.image_size} not divisible by "
                f"token_size {self.token_size}")
        if self.depth < 0 or self.num_heads <= 0 or self.embed_dim <= 0:
            raise ConfigError("depth >= 0, num_heads and embed_dim > 0 required")
        if self.embed_dim % self.num_heads:
            raise ConfigError(
                f"embed_dim {self.embed_dim} not divisible by "
                f"num_heads {self.num_heads}")
        if self.mlp_ratio <= 0:
            raise ConfigError("mlp_ratio must be positive")
        try:
            self.mlp_hidden
        except OverflowError:
            raise ConfigError("embed_dim * mlp_ratio is too large") from None

    @property
    def grid(self) -> int:
        return self.image_size // self.token_size

    @property
    def num_patches(self) -> int:
        return self.grid * self.grid

    @property
    def seq_len(self) -> int:
        return self.num_patches + 1

    @property
    def head_dim(self) -> int:
        return self.embed_dim // self.num_heads

    @property
    def patch_dim(self) -> int:
        return self.token_size * self.token_size * 3

    @property
    def mlp_hidden(self) -> int:
        return int(round(self.embed_dim * self.mlp_ratio))


@dataclass
class TokenSequence:
    cls: np.ndarray        # (D,)
    patches: np.ndarray    # (N, D)


def param_layout(cfg: EncoderConfig):
    """(name, shape, init) of every parameter in draw order, lazily, so
    a layout can be compared with stored tensors without building it."""
    d, h = cfg.embed_dim, cfg.mlp_hidden
    yield "embed.W", (cfg.patch_dim, d), "normal"
    yield "embed.b", (d,), "zeros"
    yield "pos", (cfg.seq_len, d), "normal"
    yield "cls", (d,), "zeros"
    yield "mask_token", (d,), "normal"
    for i in range(cfg.depth):
        pre = f"layer{i}."
        yield pre + "ln1.g", (d,), "ones"
        yield pre + "ln1.b", (d,), "zeros"
        for w in ("Wq", "Wk", "Wv", "Wo"):
            yield pre + "attn." + w, (d, d), "normal"
        for b in ("bq", "bk", "bv", "bo"):
            yield pre + "attn." + b, (d,), "zeros"
        yield pre + "ln2.g", (d,), "ones"
        yield pre + "ln2.b", (d,), "zeros"
        yield pre + "mlp.W1", (d, h), "normal"
        yield pre + "mlp.b1", (h,), "zeros"
        yield pre + "mlp.W2", (h, d), "normal"
        yield pre + "mlp.b2", (d,), "zeros"
    yield "final_ln.g", (d,), "ones"
    yield "final_ln.b", (d,), "zeros"


def init_params(cfg: EncoderConfig, rng: RngStream) -> dict:
    """Fresh parameters: clipped-normal weights (sigma 0.02), zero
    biases and class token, unit norm gains."""
    return init_tensors(param_layout(cfg), rng)


def patchify(raster, cfg: EncoderConfig) -> np.ndarray:
    """(N, t*t*3) rows in [0,1], patches scanned row-major; the caller
    has checked that the raster is ``image_size`` square."""
    g, t = cfg.grid, cfg.token_size
    x = raster.astype(np.float64) / 255.0
    return (x.reshape(g, t, g, t, 3).transpose(0, 2, 1, 3, 4)
            .reshape(cfg.num_patches, cfg.patch_dim))


def tokenize_batch(patches: np.ndarray, params: dict, masks=None) -> np.ndarray:
    """Initial sequences for a (B, N, patch_dim) stack of patchified
    images: [cls; patch projections] + positions, (B, S, D).

    masks: optional (B, N) booleans.  Masked patch positions take the
    mask token in place of their projection (positions still added
    afterwards).
    """
    proj = patches @ params["embed.W"] + params["embed.b"]
    if masks is not None:
        proj = np.where(masks[:, :, None], params["mask_token"], proj)
    b, n, d = proj.shape
    z0 = np.empty((b, n + 1, d))
    z0[:, 0] = params["cls"]
    z0[:, 1:] = proj
    z0 += params["pos"]
    return z0


def _split_heads(x, cfg: EncoderConfig):
    b, s, d = x.shape
    return (x.reshape(b, s, cfg.num_heads, cfg.head_dim)
            .transpose(0, 2, 1, 3))


def _merge_heads(x):
    b, h, s, dh = x.shape
    return x.transpose(0, 2, 1, 3).reshape(b, s, h * dh)


def forward_batch(z0: np.ndarray, cfg: EncoderConfig, params: dict):
    """Run the block stack on a (B, S, D) batch of initial sequences.

    Returns (out, cache): the cache is what ``backward_batch`` reads.
    Non-finite activations abort with the offending layer named.
    """
    x = np.asarray(z0, dtype=np.float64)
    scale = 1.0 / np.sqrt(cfg.head_dim)
    layers = []
    for i in range(cfg.depth):
        pre = f"layer{i}."
        h1, ln1_stats = layer_norm(x, params[pre + "ln1.g"], params[pre + "ln1.b"])
        q = _split_heads(h1 @ params[pre + "attn.Wq"] + params[pre + "attn.bq"], cfg)
        k = _split_heads(h1 @ params[pre + "attn.Wk"] + params[pre + "attn.bk"], cfg)
        v = _split_heads(h1 @ params[pre + "attn.Wv"] + params[pre + "attn.bv"], cfg)
        scores = np.einsum("bhsd,bhtd->bhst", q, k) * scale
        attn = softmax_rows(scores)
        ctx = _merge_heads(np.einsum("bhst,bhtd->bhsd", attn, v))
        x = x + ctx @ params[pre + "attn.Wo"] + params[pre + "attn.bo"]
        h2, ln2_stats = layer_norm(x, params[pre + "ln2.g"], params[pre + "ln2.b"])
        u1 = h2 @ params[pre + "mlp.W1"] + params[pre + "mlp.b1"]
        a1 = gelu(u1)
        x = x + a1 @ params[pre + "mlp.W2"] + params[pre + "mlp.b2"]
        if not np.all(np.isfinite(x)):
            raise NumericError(f"layer {i}: non-finite activations")
        layers.append(dict(h1=h1, ln1=ln1_stats, q=q, k=k, v=v, attn=attn,
                           ctx=ctx, h2=h2, ln2=ln2_stats, u1=u1, a1=a1))
    out, fin_stats = layer_norm(x, params["final_ln.g"], params["final_ln.b"])
    if not np.all(np.isfinite(out)):
        raise NumericError("final norm: non-finite activations")
    return out, dict(layers=layers, fin=fin_stats, cfg=cfg)


def backward_batch(dout: np.ndarray, cache: dict, params: dict) -> dict:
    """Parameter gradients plus d(loss)/d(Z_0) under key "z0"."""
    cfg: EncoderConfig = cache["cfg"]
    scale = 1.0 / np.sqrt(cfg.head_dim)
    grads = {}
    dx, dg, db = layer_norm_backward(np.asarray(dout, dtype=np.float64),
                                     params["final_ln.g"], cache["fin"])
    grads["final_ln.g"] = dg
    grads["final_ln.b"] = db
    for i in reversed(range(cfg.depth)):
        pre = f"layer{i}."
        c = cache["layers"][i]
        # MLP half
        da1 = dx @ params[pre + "mlp.W2"].T
        # dx first makes the MLP width einsum's inner loop: same bytes, faster
        grads[pre + "mlp.W2"] = np.einsum("bsd,bsh->dh", dx, c["a1"]).T
        grads[pre + "mlp.b2"] = dx.sum(axis=(0, 1))
        du1 = da1 * gelu_grad(c["u1"])
        grads[pre + "mlp.W1"] = np.einsum("bsd,bsh->dh", c["h2"], du1)
        grads[pre + "mlp.b1"] = du1.sum(axis=(0, 1))
        dh2 = du1 @ params[pre + "mlp.W1"].T
        dmid, dg2, db2 = layer_norm_backward(dh2, params[pre + "ln2.g"], c["ln2"])
        grads[pre + "ln2.g"] = dg2
        grads[pre + "ln2.b"] = db2
        dx = dx + dmid
        # attention half
        dctx = dx @ params[pre + "attn.Wo"].T
        grads[pre + "attn.Wo"] = np.einsum("bsd,bse->de", c["ctx"], dx)
        grads[pre + "attn.bo"] = dx.sum(axis=(0, 1))
        dctx_h = _split_heads(dctx, cfg)
        dattn = np.einsum("bhsd,bhtd->bhst", dctx_h, c["v"])
        dv = np.einsum("bhst,bhsd->bhtd", c["attn"], dctx_h)
        dscores = softmax_backward(c["attn"], dattn)
        dq = np.einsum("bhst,bhtd->bhsd", dscores, c["k"]) * scale
        dk = np.einsum("bhst,bhsd->bhtd", dscores, c["q"]) * scale
        dh1 = np.zeros_like(c["h1"])
        for w, dgrad in (("Wq", dq), ("Wk", dk), ("Wv", dv)):
            merged = _merge_heads(dgrad)
            grads[pre + "attn." + w] = np.einsum("bsd,bse->de", c["h1"], merged)
            grads[pre + "attn.b" + w[1:].lower()] = merged.sum(axis=(0, 1))
            dh1 = dh1 + merged @ params[pre + "attn." + w].T
        din, dg1, db1 = layer_norm_backward(dh1, params[pre + "ln1.g"], c["ln1"])
        grads[pre + "ln1.g"] = dg1
        grads[pre + "ln1.b"] = db1
        dx = dx + din
    grads["z0"] = dx
    return grads


def token_gradients(dz0: np.ndarray, patch_mats, masks, params: dict) -> dict:
    """Fold d/d(Z_0) into embedding-level parameter gradients.

    patch_mats: per-item (N, patch_dim) matrices (pre-projection), such
    as the stack given to :func:`tokenize_batch`.
    masks: the (B, N) booleans the batch was tokenized with.
    """
    b = dz0.shape[0]
    grads = {
        "pos": dz0.sum(axis=0),
        "cls": dz0[:, 0, :].sum(axis=0),
        "embed.W": np.zeros_like(params["embed.W"]),
        "embed.b": np.zeros_like(params["embed.b"]),
        "mask_token": np.zeros_like(params["mask_token"]),
    }
    for i in range(b):
        dpatch = dz0[i, 1:, :]
        live = ~masks[i]
        grads["mask_token"] += dpatch[masks[i]].sum(axis=0)
        grads["embed.W"] += patch_mats[i][live].T @ dpatch[live]
        grads["embed.b"] += dpatch[live].sum(axis=0)
    return grads
