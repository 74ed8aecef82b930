"""Threshold search, tissue fractions, and tiling against brute-force
oracles."""

import json
from fractions import Fraction

import numpy as np
import pytest

from tokenhier.errors import ConfigError
from tokenhier.tiler import otsu_threshold, tile_sources, write_manifest


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
        assert otsu_threshold(h) is None

    def test_all_zero(self):
        assert otsu_threshold(np.zeros(256, dtype=int)) is None


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


def tile_one(img, tile, floor=0.0, invert=False):
    """(Otsu level, records) of one image tiled as source "s"."""
    levels, records = tile_sources([("s", img)], tile, floor, invert)
    return levels["s"], records


def tile_fractions(img, tile, invert=False):
    """{(y, x): tissue fraction} of every tile, through tile_sources."""
    _, records = tile_one(img, tile, invert=invert)
    return {(y, x): frac for _, x, y, frac in records}


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
        assert tile_one(img, 16) == (None, [])

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


def grid(records):
    return [(y, x) for _, x, y, _ in records]


class TestExtractTiles:
    def test_512_grid(self):
        _, records = tile_one(noisy_image(0, 512, 512), 256)
        assert grid(records) == [(0, 0), (0, 256), (256, 0), (256, 256)]

    def test_600_drops_remainder(self):
        _, records = tile_one(noisy_image(1, 600, 600), 256)
        assert len(records) == 4

    def test_smaller_than_tile_empty(self):
        _, records = tile_one(noisy_image(2, 100, 100), 256)
        assert records == []

    def test_uniform_image_empty(self):
        img = np.full((512, 512, 3), 200, dtype=np.uint8)
        assert tile_one(img, 256, 0.5) == (None, [])

    def test_quadrant_matches_brute_force(self):
        """Retained set equals a per-tile mask-count loop."""
        img = np.full((128, 128, 3), 230, dtype=np.uint8)
        rng = np.random.default_rng(3)
        img[:64, :64] = rng.integers(20, 70, size=(64, 64, 3))
        _, records = tile_one(img, 32, 0.5)
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
        assert grid(records) == expected
        for _, _, _, frac in records:
            assert frac >= 0.5

    def test_alignment_invariant(self):
        for seed, ts in [(4, 16), (5, 32), (6, 48)]:
            _, records = tile_one(noisy_image(seed, 200, 170), ts)
            for _, x, y, _ in records:
                assert x % ts == 0 and y % ts == 0
            keys = [rec[:3] for rec in records]
            assert len(keys) == len(set(keys))

    def test_parameter_validation(self):
        img = noisy_image(7, 64, 64)
        with pytest.raises(ConfigError):
            tile_one(img, 8, 0.5)
        with pytest.raises(ConfigError):
            tile_one(img, 32, 1.5)

    def test_threshold_recorded(self):
        img = two_tone_square(size=64)
        level, _ = tile_one(img, 16)
        gray_hist = np.bincount(
            np.rint(img.astype(float) @ [0.299, 0.587, 0.114]).astype(int).ravel(),
            minlength=256)
        assert level == oracle_otsu(gray_hist)


class TestTileSources:
    def test_sources_ordered_by_id_then_y_x(self):
        """Records come ordered by (source_id, y, x) whatever order the
        sources arrive in, and each source keeps its own level."""
        a, b = noisy_image(8, 512, 512), noisy_image(9, 512, 256)
        levels, records = tile_sources([("b", b), ("a", a)], 256, 0.0, False)
        assert len(records) == 6
        keys = [(sid, y, x) for sid, x, y, _ in records]
        assert keys == sorted(keys)
        assert levels == {"a": tile_one(a, 256)[0], "b": tile_one(b, 256)[0]}

    def test_no_sources_still_checks_parameters(self):
        """The parameters are checked before any source is read, so an
        empty source list is checked too."""
        def unread():
            raise AssertionError("source read before the parameter check")
            yield
        assert tile_sources([], 16, 0.5, False) == ({}, [])
        with pytest.raises(ConfigError):
            tile_sources([], 0, 0.5, False)
        with pytest.raises(ConfigError):
            tile_sources(unread(), 16, 7.0, False)


class TestManifestIo:
    LEVELS = {"a": 143, "b": 120, "flat": None}
    RECORDS = [("a", 0, 0, 0.75), ("a", 256, 0, 1.0),
               ("b", 0, 256, 0.503217892341)]

    def write(self, path):
        write_manifest(path, self.LEVELS, self.RECORDS, 256, 0.5,
                       "0123456789abcdef")

    def test_round_trip_lossless(self, tmp_path):
        """The header maps each source that kept a tile to its level."""
        p = tmp_path / "tiles.jsonl"
        self.write(p)
        header, *lines = map(json.loads, p.read_text().splitlines())
        assert header == {"tile_size": 256,
                          "threshold_used": {"a": 143, "b": 120},
                          "min_tissue_fraction": 0.5,
                          "config_fingerprint": "0123456789abcdef"}
        assert [(obj["source_id"], obj["x"], obj["y"], obj["tissue_fraction"])
                for obj in lines] == self.RECORDS
        assert all(obj["size"] == 256 for obj in lines)

    def test_header_is_first_line(self, tmp_path):
        p = tmp_path / "tiles.jsonl"
        self.write(p)
        first = json.loads(p.read_text().splitlines()[0])
        assert set(first) == {"tile_size", "threshold_used",
                              "min_tissue_fraction", "config_fingerprint"}

    def test_record_field_names(self, tmp_path):
        p = tmp_path / "tiles.jsonl"
        self.write(p)
        rec = json.loads(p.read_text().splitlines()[1])
        assert set(rec) == {"source_id", "x", "y", "size", "tissue_fraction"}
