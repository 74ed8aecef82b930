"""Threshold search, tissue fractions, and tiling against brute-force
oracles."""

import json
from fractions import Fraction

import numpy as np
import pytest

from tokenhier.errors import DegenerateInputError, ParameterError
from tokenhier.tiler import (
    TileManifest,
    TileRecord,
    extract_tiles,
    merge_manifests,
    otsu_threshold,
    write_manifest,
)


def oracle_otsu(hist):
    """Exhaustive 256-way search with exact rational arithmetic."""
    hist = [int(v) for v in hist]
    n = sum(hist)
    total_s = sum(i * h for i, h in enumerate(hist))
    best_t, best_v = None, Fraction(-1)
    w0 = s0 = 0
    for t in range(256):
        w0 += hist[t]
        s0 += t * hist[t]
        w1 = n - w0
        if w0 == 0 or w1 == 0:
            continue
        mu0 = Fraction(s0, w0)
        mu1 = Fraction(total_s - s0, w1)
        v = Fraction(w0, n) * Fraction(w1, n) * (mu0 - mu1) ** 2
        if v > best_v:
            best_v, best_t = v, t
    return best_t


def random_histograms(count, seed):
    """Mixed regimes: dense, sparse, bimodal, low-count ties."""
    rng = np.random.default_rng(seed)
    out = []
    for k in range(count):
        kind = k % 4
        h = np.zeros(256, dtype=np.int64)
        if kind == 0:
            h = rng.integers(0, 100, 256)
        elif kind == 1:
            bins = rng.choice(256, size=int(rng.integers(2, 20)), replace=False)
            h[bins] = rng.integers(1, 50, len(bins))
        elif kind == 2:
            a, b = sorted(rng.choice(200, size=2, replace=False))
            h[a:a + 30] = rng.integers(0, 80, 30)
            h[b + 25:b + 55] = rng.integers(0, 80, 30)
            if np.count_nonzero(h) < 2:
                h[a] += 1
                h[255] += 1
        else:
            h = rng.integers(0, 3, 256)
        if np.count_nonzero(h) < 2:
            h[0] += 1
            h[255] += 1
        out.append(h)
    return out


class TestOtsu:
    def test_two_point_tie_breaks_low(self):
        """Half at 0, half at 255: every split in [0,254] ties, 0 wins."""
        h = np.zeros(256, dtype=int)
        h[0] = 500
        h[255] = 500
        assert otsu_threshold(h) == 0

    def test_bimodal_clusters(self):
        h = np.zeros(256, dtype=int)
        h[10:21] = 40
        h[200:211] = 40
        t = otsu_threshold(h)
        assert t == oracle_otsu(h)
        assert 20 <= t < 200

    def test_uniform_histogram(self):
        h = np.full(256, 7, dtype=int)
        assert otsu_threshold(h) == oracle_otsu(h)

    def test_matches_oracle_on_random_histograms(self):
        """Exact agreement with the rational exhaustive search."""
        for h in random_histograms(300, seed=0):
            assert otsu_threshold(h) == oracle_otsu(h)

    def test_degenerate_single_level(self):
        h = np.zeros(256, dtype=int)
        h[40] = 1000
        with pytest.raises(DegenerateInputError):
            otsu_threshold(h)

    def test_all_zero(self):
        with pytest.raises(DegenerateInputError):
            otsu_threshold(np.zeros(256, dtype=int))

    def test_bad_inputs(self):
        with pytest.raises(ParameterError):
            otsu_threshold(np.zeros(100, dtype=int))
        h = np.zeros(256)
        h[0], h[1] = 1, -1
        with pytest.raises(ParameterError):
            otsu_threshold(h)
        h = np.zeros(256)
        h[0], h[1] = 0.5, 1.0
        with pytest.raises(ParameterError):
            otsu_threshold(h)


def two_tone_square(bg=255, fg=40, ring=60, size=64, lo=16, hi=48):
    """fg square with a 1px ring at `ring` on a bg field."""
    img = np.full((size, size, 3), bg, dtype=np.uint8)
    img[lo - 1:hi + 1, lo - 1:hi + 1] = ring
    img[lo:hi, lo:hi] = fg
    return img


def oracle_mask(img, invert=False):
    """Per-pixel BT.601 luma against the oracle threshold: tissue is
    strictly below it, or at or above it when inverted."""
    h, w = img.shape[:2]
    gray = np.zeros((h, w), dtype=int)
    for i in range(h):
        for j in range(w):
            r, g, b = (int(v) for v in img[i, j])
            gray[i, j] = round(0.299 * r + 0.587 * g + 0.114 * b)
    t = oracle_otsu(np.bincount(gray.ravel(), minlength=256))
    return gray >= t if invert else gray < t


def tile_fractions(img, tile, invert=False):
    """{(y, x): tissue fraction} of every tile, through extract_tiles."""
    m = extract_tiles(img, "s", tile, 0.0, invert=invert)
    return {(r.y, r.x): r.tissue_fraction for r in m.records}


class TestTissueMask:
    def test_dark_square(self):
        """Tiles inside the square are all tissue; outside it, at most
        the 1px ring counts."""
        fracs = tile_fractions(two_tone_square(), 16)
        inner = [(y, x) for y in (16, 32) for x in (16, 32)]
        assert len(fracs) == 16 and all(fracs[k] == 1.0 for k in inner)
        outside = sum(f for k, f in fracs.items() if k not in inner)
        assert outside * 16 * 16 <= 34 * 34 - 32 * 32

    def test_all_white_degenerate(self):
        """A single-valued image has no threshold, so no tissue: no tile
        is kept even with a zero floor."""
        img = np.full((32, 32, 3), 255, dtype=np.uint8)
        m = extract_tiles(img, "s", 16, 0.0)
        assert m.records == [] and m.threshold_used == 0

    def test_invert_flag_complements(self):
        img = two_tone_square()
        a = tile_fractions(img, 16)
        b = tile_fractions(img, 16, invert=True)
        assert a.keys() == b.keys()
        assert all(b[k] == 1.0 - a[k] for k in a)

    def test_fraction_matches_pixel_count_oracle(self):
        """Each tile's fraction equals a per-pixel count under the
        oracle threshold, inverted or not."""
        rng = np.random.default_rng(1)
        img = rng.integers(0, 256, size=(32, 32, 3)).astype(np.uint8)
        for invert in (False, True):
            mask = oracle_mask(img, invert)
            expected = {(y, x): float(mask[y:y + 16, x:x + 16].mean())
                        for y in (0, 16) for x in (0, 16)}
            assert tile_fractions(img, 16, invert) == expected


def noisy_image(seed, h, w, lo=0, hi=256):
    rng = np.random.default_rng(seed)
    return rng.integers(lo, hi, size=(h, w, 3)).astype(np.uint8)


class TestExtractTiles:
    def test_512_grid(self):
        m = extract_tiles(noisy_image(0, 512, 512), "s0", 256, 0.0)
        assert len(m.records) == 4
        assert [(r.y, r.x) for r in m.records] == [(0, 0), (0, 256),
                                                   (256, 0), (256, 256)]

    def test_600_drops_remainder(self):
        m = extract_tiles(noisy_image(1, 600, 600), "s0", 256, 0.0)
        assert len(m.records) == 4

    def test_smaller_than_tile_empty(self):
        m = extract_tiles(noisy_image(2, 100, 100), "s0", 256, 0.0)
        assert m.records == []

    def test_uniform_image_empty(self):
        img = np.full((512, 512, 3), 200, dtype=np.uint8)
        m = extract_tiles(img, "s0", 256, 0.5)
        assert m.records == []

    def test_quadrant_matches_brute_force(self):
        """Retained set equals a per-tile mask-count loop."""
        img = np.full((128, 128, 3), 230, dtype=np.uint8)
        rng = np.random.default_rng(3)
        img[:64, :64] = rng.integers(20, 70, size=(64, 64, 3))
        m = extract_tiles(img, "q", 32, 0.5)
        mask = oracle_mask(img)
        expected = []
        for y in range(0, 128, 32):
            for x in range(0, 128, 32):
                cnt = 0
                for i in range(32):
                    for j in range(32):
                        cnt += bool(mask[y + i, x + j])
                if cnt / (32 * 32) >= 0.5:
                    expected.append((y, x))
        assert [(r.y, r.x) for r in m.records] == expected
        for rec in m.records:
            assert rec.tissue_fraction >= 0.5

    def test_alignment_invariant(self):
        for seed, ts in [(4, 16), (5, 32), (6, 48)]:
            m = extract_tiles(noisy_image(seed, 200, 170), "s", ts, 0.0)
            for rec in m.records:
                assert rec.x % ts == 0 and rec.y % ts == 0
            keys = [(rec.source_id, rec.x, rec.y) for rec in m.records]
            assert len(keys) == len(set(keys))

    def test_parameter_validation(self):
        img = noisy_image(7, 64, 64)
        with pytest.raises(ParameterError):
            extract_tiles(img, "s", 8, 0.5)
        with pytest.raises(ParameterError):
            extract_tiles(img, "s", 32, 1.5)

    def test_threshold_recorded(self):
        img = two_tone_square(size=64)
        m = extract_tiles(img, "s", 16, 0.0)
        gray_hist = np.bincount(
            np.rint(img.astype(float) @ [0.299, 0.587, 0.114]).astype(int).ravel(),
            minlength=256)
        assert m.threshold_used == oracle_otsu(gray_hist)


class TestManifestIo:
    def make(self):
        recs = [TileRecord("a", 0, 0, 256, 0.75),
                TileRecord("a", 256, 0, 256, 1.0),
                TileRecord("b", 0, 256, 256, 0.503217892341)]
        return TileManifest(recs, 256, 143, 0.5)

    def test_round_trip_lossless(self, tmp_path):
        m = self.make()
        p = tmp_path / "tiles.jsonl"
        write_manifest(m, p, "0123456789abcdef")
        header, *lines = map(json.loads, p.read_text().splitlines())
        assert header == {"tile_size": m.tile_size,
                          "threshold_used": m.threshold_used,
                          "min_tissue_fraction": m.min_tissue_fraction,
                          "config_fingerprint": "0123456789abcdef"}
        assert [TileRecord(**obj) for obj in lines] == m.records

    def test_header_is_first_line(self, tmp_path):
        p = tmp_path / "tiles.jsonl"
        write_manifest(self.make(), p, "0123456789abcdef")
        first = json.loads(p.read_text().splitlines()[0])
        assert set(first) == {"tile_size", "threshold_used",
                              "min_tissue_fraction", "config_fingerprint"}

    def test_record_field_names(self, tmp_path):
        p = tmp_path / "tiles.jsonl"
        write_manifest(self.make(), p, "0123456789abcdef")
        rec = json.loads(p.read_text().splitlines()[1])
        assert set(rec) == {"source_id", "x", "y", "size", "tissue_fraction"}

    def test_misaligned_record_rejected(self):
        with pytest.raises(ParameterError):
            TileRecord("a", 10, 0, 256, 0.5)

    def test_duplicate_records_rejected(self):
        rec = TileRecord("a", 0, 0, 256, 0.5)
        with pytest.raises(ParameterError):
            TileManifest([rec, rec], 256, 0, 0.5)


class TestMerge:
    def test_merge_two_sources(self):
        ma = extract_tiles(noisy_image(8, 512, 512), "a", 256, 0.0)
        mb = extract_tiles(noisy_image(9, 512, 256), "b", 256, 0.0)
        merged = merge_manifests([ma, mb])
        assert len(merged.records) == 6
        keys = [(r.source_id, r.y, r.x) for r in merged.records]
        assert keys == sorted(keys)
        assert merged.threshold_used == {"a": ma.threshold_used,
                                         "b": mb.threshold_used}

    def test_merge_disagreeing_sizes(self):
        ma = extract_tiles(noisy_image(10, 128, 128), "a", 32, 0.0)
        mb = extract_tiles(noisy_image(11, 128, 128), "b", 64, 0.0)
        with pytest.raises(ParameterError):
            merge_manifests([ma, mb])

    def test_merge_nothing(self):
        with pytest.raises(ParameterError):
            merge_manifests([])
