"""Deterministic dense float64 primitives and the counter-based RNG.

This module holds the one copy of each numeric primitive the model
uses: softmax and layer norm with their backward passes, exact GELU
and clipped-normal init.  Arrays are float64 ``numpy.ndarray`` objects
(``Mat`` documents that contract); the kernels act on the last axis,
so leading batch or head axes pass through.  The kernels are pure
functions; the draws are not: an ``RngStream`` draw advances its
stream's counter, and ``draw_words`` advances every stream it is given.

Randomness comes from :class:`RngStream`, a counter-based generator built
on the splitmix64 finalizer.  The n-th draw of a stream is a pure function
of ``(seed, stream_id, n)``, so per-item streams (``stream_id = item
index``) make parallel execution order-independent, and identical
``(seed, stream_id)`` pairs replay bit-identical sequences.

Importing the module sets glibc's allocator thresholds (``mallopt``; on
other C libraries nothing is set), so the temporaries of a training step
or an embedding chunk reuse freed heap pages instead of faulting in
fresh ones; forked workers inherit them.  No byte depends on them.
"""

from __future__ import annotations

import ctypes
import math
import platform
from dataclasses import dataclass, field

import numpy as np
from scipy.special import erf

Mat = np.ndarray

_M64_INT = 0xFFFFFFFFFFFFFFFF
_GOLDEN_INT = 0x9E3779B97F4A7C15
_MIX1_INT = 0xBF58476D1CE4E5B9
_MIX2_INT = 0x94D049BB133111EB
_GOLDEN = np.uint64(_GOLDEN_INT)
_MIX1 = np.uint64(_MIX1_INT)
_MIX2 = np.uint64(_MIX2_INT)
_STREAM_SALT = 0xD6E8FEB86659FD93

# layer norm's variance floor
LN_EPS = 1e-6

# glibc's M_MMAP_THRESHOLD (-3) and M_TRIM_THRESHOLD (-1), in bytes
MMAP_THRESHOLD = 8 << 20
TRIM_THRESHOLD = 32 << 20
if platform.libc_ver()[0] == "glibc":
    _LIBC = ctypes.CDLL(None)
    _LIBC.mallopt(-3, MMAP_THRESHOLD)
    _LIBC.mallopt(-1, TRIM_THRESHOLD)


def softmax_rows(m: Mat) -> Mat:
    """Row-wise softmax with max-subtraction so large magnitudes cannot
    overflow.  Each output row sums to 1."""
    m = np.asarray(m, dtype=np.float64)
    shifted = m - np.max(m, axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / np.sum(e, axis=-1, keepdims=True)


def softmax_backward(p: Mat, dp: Mat) -> Mat:
    """Gradient through :func:`softmax_rows`: given its output p and the
    upstream gradient dp, the gradient with respect to its input."""
    inner = (dp * p).sum(axis=-1, keepdims=True)
    return p * (dp - inner)


def layer_norm(x: Mat, gain: np.ndarray, bias: np.ndarray):
    """Per-row standardization followed by an affine map.

    The denominator is ``sqrt(max(var, LN_EPS))`` rather than
    ``sqrt(var + eps)`` so rows that are already exactly normalized pass
    through unchanged and constant rows collapse to the bias instead of
    dividing by zero.  Returns (out, stats); stats feed
    :func:`layer_norm_backward`.
    """
    mu = x.mean(axis=-1, keepdims=True)
    xc = x - mu
    var = (xc * xc).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(np.maximum(var, LN_EPS))
    xhat = xc * inv
    return xhat * gain + bias, (xhat, inv, var)


def layer_norm_backward(dy: Mat, gain: np.ndarray, stats):
    """(dx, dgain, dbias) for :func:`layer_norm`; gain and bias
    gradients are summed over every leading axis."""
    xhat, inv, var = stats
    lead = tuple(range(dy.ndim - 1))
    dg = np.sum(dy * xhat, axis=lead)
    db = np.sum(dy, axis=lead)
    dxhat = dy * gain
    live = (var > LN_EPS)  # else the denominator was pinned at sqrt(eps)
    m1 = dxhat.mean(axis=-1, keepdims=True)
    m2 = (dxhat * xhat).mean(axis=-1, keepdims=True)
    dx = inv * (dxhat - m1 - np.where(live, xhat * m2, 0.0))
    return dx, dg, db


def trunc_normal(rng: RngStream, shape) -> np.ndarray:
    """Normal draws at sigma 0.02 clipped to two sigma, in one
    ``gaussian`` call so the draw order is the row-major order of
    ``shape``."""
    sigma = 0.02
    v = rng.gaussian(math.prod(shape), 0.0, sigma)
    return np.clip(v, -2 * sigma, 2 * sigma).reshape(shape)


def init_tensors(layout, rng: RngStream) -> dict:
    """{name: tensor} for (name, shape, init) triples, in layout order:
    "normal" draws :func:`trunc_normal` from ``rng``, else "ones"/"zeros"."""
    return {name: trunc_normal(rng, shape) if init == "normal"
            else np.full(shape, 1.0 if init == "ones" else 0.0)
            for name, shape, init in layout}


def gelu(x: np.ndarray) -> np.ndarray:
    """Exact (erf-based) GELU."""
    return 0.5 * x * (1.0 + erf(x / np.sqrt(2.0)))


def gelu_grad(x: np.ndarray) -> np.ndarray:
    """Derivative of the exact GELU."""
    phi = np.exp(-0.5 * x * x) / np.sqrt(2.0 * np.pi)
    return 0.5 * (1.0 + erf(x / np.sqrt(2.0))) + x * phi


def _mix64(x: np.ndarray) -> np.ndarray:
    """splitmix64 finalizer over uint64 arrays, which wrap mod 2^64."""
    with np.errstate(over="ignore"):  # wraparound mod 2^64 is the point
        z = x + _GOLDEN
        z = (z ^ (z >> np.uint64(30))) * _MIX1
        z = (z ^ (z >> np.uint64(27))) * _MIX2
        return z ^ (z >> np.uint64(31))


def _mix_scalar(x: int) -> int:
    """:func:`_mix64` of one value in Python ints (several times faster
    than numpy scalars); x is taken as its 64-bit two's complement."""
    z = ((x & _M64_INT) + _GOLDEN_INT) & _M64_INT
    z = ((z ^ (z >> 30)) * _MIX1_INT) & _M64_INT
    z = ((z ^ (z >> 27)) * _MIX2_INT) & _M64_INT
    return z ^ (z >> 31)


@dataclass
class RngStream:
    """Counter-based random stream.

    The raw 64-bit word at counter ``n`` is
    ``mix64(key + n * golden)`` where ``key`` is derived from
    ``(seed, stream_id)``; drawing advances ``counter``.  Distinct
    ``stream_id`` values give statistically independent streams.
    """

    seed: int
    stream_id: int = 0
    counter: int = 0
    _key: int = field(init=False, repr=False)

    def __post_init__(self):
        key = _mix_scalar(self.seed ^ _STREAM_SALT)
        self._key = _mix_scalar(key ^ _mix_scalar(self.stream_id))

    def derive(self, *ids: int) -> "RngStream":
        """A fresh stream whose identity folds in the given sub-ids.

        Used to hand out per-item / per-purpose streams (e.g. one per
        batch element) whose draws do not depend on scheduling order.
        """
        sid = self.stream_id
        for i in ids:
            sid = _mix_scalar(sid ^ _mix_scalar(int(i) ^ _STREAM_SALT))
        return RngStream(self.seed, sid)

    def _raw(self, n: int) -> np.ndarray:
        return draw_words([self], n)[0]

    def uniform(self, n: int) -> np.ndarray:
        """n doubles in [0, 1) with 53-bit resolution."""
        return to_unit(self._raw(n))

    def gaussian(self, n: int, mu: float = 0.0, sigma: float = 1.0) -> np.ndarray:
        """n normal draws via Box-Muller on the uniform stream.

        Counter layout, relative to the counter on entry: with m =
        ceil(n/2), the u1 words are counters 0..m-1 and the u2 words
        m..2m-1; the cosine branch gives draws 0..m-1 and the sine
        branch the rest.  So a scalar call (n = 1) reads u1 at 0 and
        u2 at 1, and the k-th of successive scalar calls reads u1 at
        2k and u2 at 2k+1, keeping only the cosine branch.
        """
        m = (n + 1) // 2
        raw = self._raw(2 * m)
        r, theta = _box_muller(raw[:m], raw[m:])
        z = np.concatenate([r * np.cos(theta), r * np.sin(theta)])[:n]
        return mu + sigma * z

    def integers(self, n: int, bound: int) -> np.ndarray:
        """n integers uniform over [0, bound), bound >= 1.  Modulo bias is
        negligible for the small bounds used here (bound << 2^64)."""
        return (self._raw(n) % np.uint64(bound)).astype(np.int64)

    def permutation(self, n: int) -> np.ndarray:
        """Deterministic Fisher-Yates permutation of range(n)."""
        js = self._raw(n - 1).tolist() if n > 1 else []
        return np.array(fisher_yates(js, n), dtype=np.int64)


def draw_words(streams, n: int) -> np.ndarray:
    """n raw words from each stream, one row per stream, from one
    :func:`_mix64` call over the (streams x counters) state grid; each
    stream advances by n, so row s is ``streams[s]._raw(n)`` bit for bit."""
    keys = np.array([s._key for s in streams], dtype=np.uint64)
    starts = np.array([s.counter for s in streams], dtype=np.uint64)
    for s in streams:
        s.counter += n
    with np.errstate(over="ignore"):
        counters = starts[:, None] + np.arange(1, n + 1, dtype=np.uint64)
        return _mix64(keys[:, None] + counters * _GOLDEN)


def to_unit(words: np.ndarray) -> np.ndarray:
    """Doubles in [0, 1) with 53-bit resolution, one per raw word."""
    return (words >> np.uint64(11)).astype(np.float64) * 2.0**-53


def fisher_yates(words: list, n: int) -> list:
    """Permutation of range(n) from n - 1 raw words as Python ints
    (numpy scalars cost several times more per swap): the swap into
    position i reads word n - 1 - i modulo i + 1."""
    perm = list(range(n))
    for i in range(n - 1, 0, -1):
        j = words[n - 1 - i] % (i + 1)
        perm[i], perm[j] = perm[j], perm[i]
    return perm


def paired_normals(words: np.ndarray) -> np.ndarray:
    """Standard normals from raw words in (u1, u2) pairs along the last
    axis, cosine branch: entry j reads words 2j and 2j + 1, as the j-th
    of successive scalar ``gaussian(1)`` calls on one stream does."""
    r, theta = _box_muller(words[..., 0::2], words[..., 1::2])
    return r * np.cos(theta)


def _box_muller(raw1: np.ndarray, raw2: np.ndarray):
    """Radius and angle from two raw word blocks.  u1 in (0, 1] keeps
    the log finite; u2 in [0, 1)."""
    u1 = ((raw1 >> np.uint64(11)).astype(np.float64) + 1.0) * 2.0**-53
    u2 = to_unit(raw2)
    return np.sqrt(-2.0 * np.log(u1)), 2.0 * np.pi * u2

