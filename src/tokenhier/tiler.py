"""Tissue detection and fixed-grid tile extraction.

The threshold search runs in exact integer arithmetic (Python ints), so
the selected level is the true argmax of between-class variance with no
floating-point tie ambiguity.  Tissue is the dark side of the split by
default (hematoxylin/eosin stains darker than glass); pass
``invert=True`` for bright-on-dark material.

Tile grids are anchored at (0,0) with no overlap; partial tiles at the
right/bottom edges are dropped.  :func:`tile_sources` tiles a whole set
of sources in one call, under one tile size, tissue floor and polarity,
and :func:`write_manifest` persists its result as JSON lines: one
header object, then one record object per kept tile.
"""

from __future__ import annotations

import json

import numpy as np

from .color import Raster
from .errors import ConfigError

_LUMA = np.array([0.299, 0.587, 0.114])


def otsu_threshold(gray_histogram):
    """Level t in [0,255] maximizing w0*w1*(mu0-mu1)^2 for the split
    {<= t} vs {> t}; ties break toward the smallest t.  None when no
    split has pixels on both sides: there is no tissue boundary.

    Comparisons use exact integers: with W0,S0 the count and index-sum
    at or below t, the between-class variance is proportional to
    (S0*N - S*W0)^2 / (W0*W1), compared across t by cross-multiplying.
    """
    counts = [int(v) for v in gray_histogram]
    n = sum(counts)
    s = sum(i * c for i, c in enumerate(counts))
    best_t, best_num, best_den = None, -1, 1
    w0 = s0 = 0
    for t in range(256):
        w0 += counts[t]
        s0 += t * counts[t]
        if 0 < w0 < n:
            num = (s0 * n - s * w0) ** 2
            den = w0 * (n - w0)
            if num * best_den > best_num * den:
                best_num, best_den, best_t = num, den, t
    return best_t


def _gray(raster: Raster) -> np.ndarray:
    # BT.601 luma, rounded to 8-bit levels
    g = np.rint(raster.astype(np.float64) @ _LUMA)
    return np.clip(g, 0, 255).astype(np.int64)


def tile_sources(sources, tile_size: int, min_tissue_fraction: float,
                 invert: bool):
    """Tile ``(source_id, raster)`` pairs; the parameters are checked
    before any source is read.  Returns ``(levels, records)``: each
    source's Otsu level, or None for a single gray level (no tissue),
    and one ``(source_id, x, y, tissue_fraction)`` per tile that clears
    the floor, ordered by (source_id, y, x).
    """
    if tile_size < 16:
        raise ConfigError(f"tile_size must be >= 16, got {tile_size}")
    if not (0.0 <= min_tissue_fraction <= 1.0):
        raise ConfigError(
            f"min_tissue_fraction must be in [0,1], got {min_tissue_fraction}")
    levels, records = {}, []
    for source_id, raster in sources:
        h, w = raster.shape[:2]
        gray = _gray(raster)
        t = levels[source_id] = otsu_threshold(
            np.bincount(gray.ravel(), minlength=256))
        if t is None:
            continue
        # tissue is strictly below the threshold, or at or above it inverted
        mask = gray >= t if invert else gray < t
        for y in range(0, h - tile_size + 1, tile_size):
            for x in range(0, w - tile_size + 1, tile_size):
                frac = float(mask[y:y + tile_size, x:x + tile_size].mean())
                if frac >= min_tissue_fraction:
                    records.append((source_id, x, y, frac))
    records.sort(key=lambda rec: (rec[0], rec[2], rec[1]))
    return levels, records


def write_manifest(path, levels: dict, records, tile_size: int,
                   min_tissue_fraction: float, fingerprint: str) -> None:
    """Header, then one line per record of :func:`tile_sources`.  The
    header maps each source that kept a tile to its level (0 for no
    sources at all)."""
    tiled = {rec[0] for rec in records}
    with open(path, "w", encoding="ascii") as fh:
        header = {
            "tile_size": tile_size,
            "threshold_used": ({sid: t for sid, t in levels.items()
                                if sid in tiled} if levels else 0),
            "min_tissue_fraction": min_tissue_fraction,
            "config_fingerprint": fingerprint,
        }
        fh.write(json.dumps(header, sort_keys=True) + "\n")
        for source_id, x, y, frac in records:
            fh.write(json.dumps({"source_id": source_id, "x": x, "y": y,
                                 "size": tile_size, "tissue_fraction": frac},
                                sort_keys=True) + "\n")
