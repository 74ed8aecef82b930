"""Tissue detection and fixed-grid tile extraction.

The threshold search runs in exact integer arithmetic (Python ints), so
the selected level is the true argmax of between-class variance with no
floating-point tie ambiguity.  Tissue is the dark side of the split by
default (hematoxylin/eosin stains darker than glass); pass
``invert=True`` for bright-on-dark material.

Tile grids are anchored at (0,0) with no overlap; partial tiles at the
right/bottom edges are dropped.  Manifests persist as JSON lines: one
header object, then one record object per line.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .color import Raster, as_raster
from .errors import DegenerateInputError, ParameterError

_LUMA = np.array([0.299, 0.587, 0.114])


def otsu_threshold(gray_histogram) -> int:
    """Level t in [0,255] maximizing w0*w1*(mu0-mu1)^2 for the split
    {<= t} vs {> t}; ties break toward the smallest t.

    Comparisons use exact integers: with W0,S0 the count and index-sum
    at or below t, the between-class variance is proportional to
    (S0*N - S*W0)^2 / (W0*W1), compared across t by cross-multiplying.
    """
    h = np.asarray(gray_histogram)
    if h.shape != (256,):
        raise ParameterError(f"histogram must have 256 bins, got shape {h.shape}")
    if np.any(h < 0):
        raise ParameterError("histogram counts must be >= 0")
    hi = h.astype(np.int64)
    if not np.array_equal(hi, h):
        raise ParameterError("histogram counts must be integers")
    if int(np.count_nonzero(hi)) < 2:
        raise DegenerateInputError(
            "histogram has fewer than 2 populated levels; no tissue boundary")
    counts = [int(v) for v in hi]
    n = sum(counts)
    s = sum(i * c for i, c in enumerate(counts))
    best_t = 0
    best_num = -1
    best_den = 1
    w0 = 0
    s0 = 0
    for t in range(256):
        w0 += counts[t]
        s0 += t * counts[t]
        w1 = n - w0
        if w0 == 0 or w1 == 0:
            continue
        a = s0 * n - s * w0
        num = a * a
        den = w0 * w1
        if num * best_den > best_num * den:
            best_num, best_den, best_t = num, den, t
    return best_t


def _gray(raster: Raster) -> np.ndarray:
    # BT.601 luma, rounded to 8-bit levels
    g = np.rint(raster.astype(np.float64) @ _LUMA)
    return np.clip(g, 0, 255).astype(np.int64)


@dataclass(frozen=True)
class TileRecord:
    source_id: str
    x: int
    y: int
    size: int
    tissue_fraction: float

    def __post_init__(self):
        if self.size <= 0:
            raise ParameterError(f"tile size must be positive, got {self.size}")
        if self.x % self.size or self.y % self.size:
            raise ParameterError(
                f"tile offset ({self.x},{self.y}) not aligned to size {self.size}")
        if not (0.0 <= self.tissue_fraction <= 1.0):
            raise ParameterError(
                f"tissue_fraction {self.tissue_fraction} outside [0,1]")


@dataclass
class TileManifest:
    records: list = field(default_factory=list)
    tile_size: int = 256
    # scalar for a single source; {source_id: level} after a merge
    threshold_used: object = 0
    min_tissue_fraction: float = 0.5

    def __post_init__(self):
        seen = set()
        for rec in self.records:
            key = (rec.source_id, rec.x, rec.y)
            if key in seen:
                raise ParameterError(f"duplicate tile {key}")
            seen.add(key)


def extract_tiles(r: Raster, source_id: str, tile_size: int = 256,
                  min_tissue_fraction: float = 0.5,
                  invert: bool = False) -> TileManifest:
    """Grid-aligned tiles whose tissue fraction clears the floor.

    Images smaller than one tile give an empty manifest, as do
    single-valued images (no threshold exists, so no tissue).
    """
    if tile_size < 16:
        raise ParameterError(f"tile_size must be >= 16, got {tile_size}")
    if not (0.0 <= min_tissue_fraction <= 1.0):
        raise ParameterError(
            f"min_tissue_fraction must be in [0,1], got {min_tissue_fraction}")
    raster = as_raster(r)
    h, w = raster.shape[:2]
    gray = _gray(raster)
    try:
        t = otsu_threshold(np.bincount(gray.ravel(), minlength=256))
    except DegenerateInputError:
        return TileManifest([], tile_size, 0, min_tissue_fraction)
    # tissue is strictly below the threshold, or at or above it inverted
    mask = gray >= t if invert else gray < t
    records = []
    for y in range(0, h - tile_size + 1, tile_size):
        for x in range(0, w - tile_size + 1, tile_size):
            frac = float(mask[y:y + tile_size, x:x + tile_size].mean())
            if frac >= min_tissue_fraction:
                records.append(TileRecord(source_id, x, y, tile_size, frac))
    return TileManifest(records, tile_size, t, min_tissue_fraction)


def merge_manifests(manifests) -> TileManifest:
    """Combine single-source manifests, as ``extract_tiles`` gives them,
    into one, records ordered by (source_id, y, x); threshold_used
    becomes a per-source map."""
    manifests = list(manifests)
    if not manifests:
        raise ParameterError("nothing to merge")
    sizes = {m.tile_size for m in manifests}
    floors = {m.min_tissue_fraction for m in manifests}
    if len(sizes) != 1 or len(floors) != 1:
        raise ParameterError("manifests disagree on tile_size or tissue floor")
    thresholds = {}
    records = []
    for m in manifests:
        for rec in m.records:
            thresholds.setdefault(rec.source_id, m.threshold_used)
            records.append(rec)
    records.sort(key=lambda rec: (rec.source_id, rec.y, rec.x))
    return TileManifest(records, sizes.pop(), thresholds, floors.pop())


def write_manifest(manifest: TileManifest, path, fingerprint: str) -> None:
    with open(path, "w", encoding="ascii") as fh:
        header = {
            "tile_size": manifest.tile_size,
            "threshold_used": manifest.threshold_used,
            "min_tissue_fraction": manifest.min_tissue_fraction,
            "config_fingerprint": fingerprint,
        }
        fh.write(json.dumps(header, sort_keys=True) + "\n")
        for rec in manifest.records:
            fh.write(json.dumps({
                "source_id": rec.source_id,
                "x": rec.x,
                "y": rec.y,
                "size": rec.size,
                "tissue_fraction": rec.tissue_fraction,
            }, sort_keys=True) + "\n")
