"""Color-space conversions and channel-statistic stain jitter.

A raster is a ``(H, W, 3)`` uint8 ndarray, row-major RGB, as
:func:`read_ppm` returns one; the other functions here trust their
callers and check no raster.  Conversions produce float64 channel
images: LAB with L in [0,100], HSV with H in [0,360) and S,V in [0,1].
Round trips are exact to well under one 8-bit step, so augmenting with
all sigmas at zero reproduces the input after the conversion round
trip.

The augmentation perturbs per-patch channel statistics: for each channel
draw a mean offset and a spread ratio from Gaussians, then remap
``x -> (x - mu) * rho + mu + dmu``.  Hue is circular, so it only gets
the additive offset (mod 360) and is never spread-scaled.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataError
from .numkernel import RngStream, paired_normals

Raster = np.ndarray

# sRGB (D65) to XYZ. White is anchored to the matrix row sums so that
# (255,255,255) lands on L=100, a=b=0 exactly.
_RGB2XYZ = np.array([
    [0.4124564, 0.3575761, 0.1804375],
    [0.2126729, 0.7151522, 0.0721750],
    [0.0193339, 0.1191920, 0.9503041],
])
_XYZ2RGB = np.linalg.inv(_RGB2XYZ)
_WHITE = _RGB2XYZ.sum(axis=1)
_DELTA = 6.0 / 29.0


def _srgb_to_linear(c):
    # c in [0,1]
    return np.where(c <= 0.04045, c / 12.92, ((c + 0.055) / 1.055) ** 2.4)


def _linear_to_srgb(c):
    c = np.maximum(c, 0.0)
    return np.where(c <= 0.0031308, 12.92 * c, 1.055 * c ** (1.0 / 2.4) - 0.055)


def _lab_f(t):
    t = np.maximum(t, 0.0)
    return np.where(t > _DELTA**3, np.cbrt(t), t / (3 * _DELTA**2) + 4.0 / 29.0)


def _lab_finv(t):
    return np.where(t > _DELTA, t**3, 3 * _DELTA**2 * (t - 4.0 / 29.0))


# linear-light value of each 8-bit level, exactly as the formula gives it
_LINEAR_OF_U8 = _srgb_to_linear(np.arange(256) / 255.0)


def rgb_to_lab(r: Raster) -> np.ndarray:
    """CIELAB (D65) as float64, channels (L, a, b)."""
    lin = np.take(_LINEAR_OF_U8, r)
    xyz = lin @ _RGB2XYZ.T
    f = _lab_f(xyz / _WHITE)
    out = np.empty_like(f)
    out[..., 0] = 116.0 * f[..., 1] - 16.0
    out[..., 1] = 500.0 * (f[..., 0] - f[..., 1])
    out[..., 2] = 200.0 * (f[..., 1] - f[..., 2])
    return out


def lab_to_rgb(img) -> Raster:
    """Inverse of :func:`rgb_to_lab`; out-of-gamut values clamp to [0,255]."""
    img = np.asarray(img, dtype=np.float64)
    fy = (img[..., 0] + 16.0) / 116.0
    xyz = np.empty(img.shape)
    xyz[..., 0] = _lab_finv(fy + img[..., 1] / 500.0) * _WHITE[0]
    xyz[..., 1] = _lab_finv(fy) * _WHITE[1]
    xyz[..., 2] = _lab_finv(fy - img[..., 2] / 200.0) * _WHITE[2]
    lin = xyz @ _XYZ2RGB.T
    srgb = _linear_to_srgb(lin)
    return np.clip(np.rint(srgb * 255.0), 0, 255).astype(np.uint8)


def rgb_to_hsv(r: Raster) -> np.ndarray:
    """Hexcone HSV as float64; H in [0,360), S,V in [0,1], gray pins H=0."""
    rgb = r.astype(np.float64) / 255.0
    rc, gc, bc = rgb[..., 0], rgb[..., 1], rgb[..., 2]
    mx = np.maximum(np.maximum(rc, gc), bc)
    d = mx - np.minimum(np.minimum(rc, gc), bc)
    # the largest channel picks the numerator and the sector offset;
    # gray (d == 0) has a zero numerator, so its hue comes out as 0
    is_r, is_g = mx == rc, mx == gc
    num = np.where(is_r, gc - bc, np.where(is_g, bc - rc, rc - gc))
    offset = np.where(is_r, 0.0, np.where(is_g, 2.0, 4.0))
    out = np.empty_like(rgb)
    out[..., 0] = np.mod(60.0 * (num / np.where(d == 0, 1.0, d) + offset), 360.0)
    out[..., 1] = np.where(mx == 0, 0.0, d / np.where(mx == 0, 1.0, mx))
    out[..., 2] = mx
    return out


# per hue sector, the index into (c, x, 0) of output channels r, g, b
_SECTOR_PICK = np.array([[0, 1, 2], [1, 0, 2], [2, 0, 1],
                         [2, 1, 0], [1, 2, 0], [0, 2, 1]])


def hsv_to_rgb(img) -> Raster:
    """Inverse hexcone transform; S,V clamp to [0,1], H wraps mod 360."""
    img = np.asarray(img, dtype=np.float64)
    h = np.mod(img[..., 0], 360.0) / 60.0
    s = np.clip(img[..., 1], 0.0, 1.0)
    v = np.clip(img[..., 2], 0.0, 1.0)
    c = v * s
    cx0 = np.zeros(img.shape)
    cx0[..., 0] = c
    cx0[..., 1] = c * (1.0 - np.abs(np.mod(h, 2.0) - 1.0))
    sector = np.floor(h).astype(np.int64) % 6
    # one flat gather: pixel i, channel k reads cx0 at 3 i + pick[k]
    flat = np.take(_SECTOR_PICK, sector, axis=0)
    flat += 3 * np.arange(sector.size).reshape(sector.shape + (1,))
    rgb = np.take(cx0, flat)
    rgb += (v - c)[..., None]
    return np.clip(np.rint(rgb * 255.0), 0, 255).astype(np.uint8)


_SPACES = ("lab", "hsv", "both")
# A draw reaches at most Box-Muller's sqrt(2 * 53 * ln 2) ~ 8.57 sigmas.
# With it, of every sign, on RGB-corner and single-outlier rasters, the
# remap first overflows at sigma 1e102 in LAB (_lab_finv's cube) and 1e305
# in HSV, and the NaN that follows has no defined uint8 cast.
_SIGMA_MAX = 1e100


@dataclass(frozen=True)
class StainAugConfig:
    """Jitter magnitudes per color space.

    space: "lab", "hsv", or "both" ("both" runs LAB first, then HSV,
    with independent draws).  Sigmas are per-channel triples in the
    target space's units; hue's spread sigma is drawn but unused.
    """

    space: str = "both"
    lab_mean_sigma: tuple[float, ...] = (2.0, 1.5, 1.5)
    lab_std_sigma: tuple[float, ...] = (0.08, 0.08, 0.08)
    hsv_mean_sigma: tuple[float, ...] = (4.0, 0.03, 0.03)
    hsv_std_sigma: tuple[float, ...] = (0.05, 0.05, 0.05)
    enabled: bool = True

    def __post_init__(self):
        if self.space not in _SPACES:
            raise ConfigError(f"space must be one of {_SPACES}, got {self.space!r}")
        for name in ("lab_mean_sigma", "lab_std_sigma",
                     "hsv_mean_sigma", "hsv_std_sigma"):
            trip = getattr(self, name)
            if len(trip) != 3:
                raise ConfigError(f"{name} must have 3 entries, got {len(trip)}")
            for v in trip:
                if not 0 <= v <= _SIGMA_MAX:
                    raise ConfigError(f"{name} entries must be in [0, {_SIGMA_MAX:g}]")

    def sigmas(self, space: str) -> np.ndarray:
        """(6,) float64: ``space``'s mean sigmas, then its spread sigmas."""
        if space == "lab":
            return np.array([*self.lab_mean_sigma, *self.lab_std_sigma], np.float64)
        return np.array([*self.hsv_mean_sigma, *self.hsv_std_sigma], np.float64)


_RHO_FLOOR = 0.05
# the jitter draws' means: offsets center on 0, spread ratios on 1
_DRAW_MU = np.array([0.0, 0.0, 0.0, 1.0, 1.0, 1.0])


def stain_draws(words, sigmas):
    """(dmu, rho) from 12 raw words per row and a space's
    :meth:`StainAugConfig.sigmas` (or a row of them per word row): draw
    j of :func:`paired_normals` at ``sigmas[..., j]`` offsets channel
    j's mean for j < 3, else scales its spread.  rho clamps to >= 0.05
    so a channel can shrink but never flip or collapse."""
    draws = _DRAW_MU + sigmas * paired_normals(words)
    return draws[..., :3], np.maximum(draws[..., 3:], _RHO_FLOOR)


_CONVERSIONS = {"lab": (rgb_to_lab, lab_to_rgb), "hsv": (rgb_to_hsv, hsv_to_rgb)}


def stain_space(r: Raster, space: str):
    """(image, channel means) of ``r`` in ``space``, for any number of remaps."""
    img = _CONVERSIONS[space][0](r)
    # per-channel means, each reduced on its own as the remap defines it
    return img, np.array([img[..., c].mean() for c in range(3)])


def stain_remap(img, mu, dmu, rho, space: str) -> Raster:
    """The jittered raster: ``x -> (x - mu) * rho + mu + dmu`` on a
    :func:`stain_space` image with its means ``mu``, converted back to
    RGB; hue only shifts, mod 360."""
    out = np.empty_like(img)
    for c in range(3):  # 3x faster than broadcasting a length-3 last axis
        out[..., c] = (img[..., c] - mu[c]) * rho[c] + mu[c] + dmu[c]
    if space == "hsv":
        out[..., 0] = np.mod(img[..., 0] + dmu[0], 360.0)
    return _CONVERSIONS[space][1](out)


def stain_augment(r: Raster, cfg: StainAugConfig, rng: RngStream) -> Raster:
    """Perturb per-patch channel statistics in the configured space(s).

    Disabled configs return an untouched copy (no conversion round
    trip).  The same (raster, cfg, stream) triple always produces
    bit-identical output.
    """
    if not cfg.enabled:
        return r.copy()
    out = r
    for space in ("lab", "hsv"):
        if cfg.space in (space, "both"):
            dmu, rho = stain_draws(rng._raw(12), cfg.sigmas(space))
            out = stain_remap(*stain_space(out, space), dmu, rho, space)
    return out


# a header token: whitespace and '#' comment lines skipped, then non-whitespace
_TOKEN = re.compile(rb"(?:\s|#[^\n]*)*(\S*)")


def write_ppm(path, raster: Raster) -> None:
    """Binary PPM (P6, maxval 255); byte-exact round trip with read_ppm."""
    h, w = raster.shape[:2]
    with open(path, "wb") as fh:
        fh.write(f"P6\n{w} {h}\n255\n".encode("ascii"))
        fh.write(raster.tobytes())


def _ppm_token(buf: bytes, pos: int, path):
    token = _TOKEN.match(buf, pos)
    if not token[1]:
        raise DataError(f"{path}: truncated PPM header")
    return token[1], token.end()


def read_ppm(path) -> Raster:
    """A binary PPM as a raster; a file that cannot be read or parsed
    is a ``DataError`` that names ``path``."""
    try:
        with open(path, "rb") as fh:
            buf = fh.read()
    except OSError as e:
        raise DataError(f"{path}: cannot read PPM: {e.strerror or e}") from None
    magic, pos = _ppm_token(buf, 0, path)
    if magic != b"P6":
        raise DataError(f"{path}: not a binary PPM (magic {magic!r})")
    fields = []
    for _ in range(3):
        tok, pos = _ppm_token(buf, pos, path)
        try:
            fields.append(int(tok))
        except ValueError:
            raise DataError(f"{path}: bad PPM header token {tok!r}") from None
    w, h, maxval = fields
    if maxval != 255:
        raise DataError(f"{path}: unsupported PPM maxval {maxval}")
    if w <= 0 or h <= 0:
        raise DataError(f"{path}: bad PPM dimensions {w}x{h}")
    pos += 1  # single whitespace byte after maxval
    data = buf[pos:pos + 3 * w * h]
    if len(data) != 3 * w * h:
        raise DataError(f"{path}: PPM pixel payload truncated")
    return np.frombuffer(data, dtype=np.uint8).reshape(h, w, 3).copy()
