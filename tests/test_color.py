"""Colorimetry and stain-jitter checks against independent references."""

import colorsys
import hashlib
import itertools
import math
import re
import tempfile
from dataclasses import replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from tokenhier.bench import AblationConfig, make_pretrain_corpus
from tokenhier.color import (
    StainAugConfig,
    _CONVERSIONS,
    _ppm_token,
    hsv_to_rgb,
    lab_to_rgb,
    read_ppm,
    rgb_to_hsv,
    rgb_to_lab,
    stain_augment,
    stain_draws,
    stain_remap,
    stain_space,
    write_ppm,
)
from tokenhier.errors import ConfigError, DataError
from tokenhier.numkernel import RngStream


def draw_stain_jitter(rng, mean_sigma, std_sigma):
    """One space's jitter, ``(dmu, rho)``, from the next 12 words of ``rng``."""
    return stain_draws(rng._raw(12), np.array([*mean_sigma, *std_sigma],
                                              dtype=np.float64))


def ref_srgb_to_lab(r8, g8, b8):
    """Scalar CIELAB reference using the CIE epsilon/kappa formulation."""
    def lin(u):
        u = u / 255.0
        if u <= 0.04045:
            return u / 12.92
        return math.pow((u + 0.055) / 1.055, 2.4)

    R, G, B = lin(r8), lin(g8), lin(b8)
    X = 0.4124564 * R + 0.3575761 * G + 0.1804375 * B
    Y = 0.2126729 * R + 0.7151522 * G + 0.0721750 * B
    Z = 0.0193339 * R + 0.1191920 * G + 0.9503041 * B
    Xn = 0.4124564 + 0.3575761 + 0.1804375
    Yn = 0.2126729 + 0.7151522 + 0.0721750
    Zn = 0.0193339 + 0.1191920 + 0.9503041

    def f(t):
        eps = 216.0 / 24389.0
        kappa = 24389.0 / 27.0
        if t > eps:
            return math.pow(t, 1.0 / 3.0)
        return (kappa * t + 16.0) / 116.0

    fx, fy, fz = f(X / Xn), f(Y / Yn), f(Z / Zn)
    return 116.0 * fy - 16.0, 500.0 * (fx - fy), 200.0 * (fy - fz)


def px(r, g, b):
    return np.array([[[r, g, b]]], dtype=np.uint8)


class TestLab:
    def test_white_anchor(self):
        lab = rgb_to_lab(px(255, 255, 255))[0, 0]
        assert abs(lab[0] - 100.0) < 1e-9
        assert abs(lab[1]) < 0.01 and abs(lab[2]) < 0.01

    def test_black_anchor(self):
        lab = rgb_to_lab(px(0, 0, 0))[0, 0]
        np.testing.assert_allclose(lab, [0.0, 0.0, 0.0], atol=1e-12)

    def test_mid_gray_matches_reference(self):
        """(119,119,119) agrees with an independent scalar CIELAB within 0.05."""
        lab = rgb_to_lab(px(119, 119, 119))[0, 0]
        ref = ref_srgb_to_lab(119, 119, 119)
        assert abs(lab[0] - ref[0]) < 0.05
        assert abs(lab[1]) < 1e-9 and abs(lab[2]) < 1e-9

    def test_random_pixels_match_reference(self):
        rng = np.random.default_rng(0)
        pts = rng.integers(0, 256, size=(64, 3))
        for r, g, b in pts:
            lab = rgb_to_lab(px(r, g, b))[0, 0]
            ref = ref_srgb_to_lab(int(r), int(g), int(b))
            np.testing.assert_allclose(lab, ref, atol=0.05)

    def test_white_black_inverse_anchors(self):
        white = lab_to_rgb(np.array([[[100.0, 0.0, 0.0]]]))
        np.testing.assert_array_equal(white, px(255, 255, 255))
        black = lab_to_rgb(np.array([[[0.0, 0.0, 0.0]]]))
        np.testing.assert_array_equal(black, px(0, 0, 0))

    def test_round_trip_100k_random_pixels(self):
        """rgb -> lab -> rgb lands within +/-1 per channel at 1e5 points."""
        rng = np.random.default_rng(1)
        r = rng.integers(0, 256, size=(100, 1000, 3)).astype(np.uint8)
        back = lab_to_rgb(rgb_to_lab(r))
        diff = np.abs(back.astype(np.int64) - r.astype(np.int64))
        assert diff.max() <= 1

    def test_out_of_gamut_clamps(self):
        loud = np.array([[[150.0, 120.0, -120.0]]])
        out = lab_to_rgb(loud)
        assert out.dtype == np.uint8  # clamped, no wraparound


class TestHsv:
    def test_primary_red(self):
        hsv = rgb_to_hsv(px(255, 0, 0))[0, 0]
        np.testing.assert_allclose(hsv, [0.0, 1.0, 1.0], atol=1e-12)

    def test_gray_convention(self):
        for g in (0, 1, 119, 254, 255):
            hsv = rgb_to_hsv(px(g, g, g))[0, 0]
            assert hsv[0] == 0.0 and hsv[1] == 0.0
            np.testing.assert_allclose(hsv[2], g / 255.0, atol=1e-12)

    def test_matches_colorsys(self):
        rng = np.random.default_rng(2)
        pts = rng.integers(0, 256, size=(128, 3))
        for r, g, b in pts:
            got = rgb_to_hsv(px(r, g, b))[0, 0]
            h, s, v = colorsys.rgb_to_hsv(r / 255.0, g / 255.0, b / 255.0)
            np.testing.assert_allclose(got, [(h * 360.0) % 360.0, s, v], atol=1e-9)

    def test_inverse_matches_colorsys(self):
        rng = np.random.default_rng(3)
        for _ in range(128):
            h = float(rng.uniform(0, 360))
            s = float(rng.uniform(0, 1))
            v = float(rng.uniform(0, 1))
            got = hsv_to_rgb(np.array([[[h, s, v]]]))[0, 0]
            r, g, b = colorsys.hsv_to_rgb(h / 360.0, s, v)
            ref = np.rint(np.array([r, g, b]) * 255.0)
            np.testing.assert_allclose(got.astype(float), ref, atol=1.0)

    def test_round_trip_100k_random_pixels(self):
        rng = np.random.default_rng(4)
        r = rng.integers(0, 256, size=(100, 1000, 3)).astype(np.uint8)
        back = hsv_to_rgb(rgb_to_hsv(r))
        diff = np.abs(back.astype(np.int64) - r.astype(np.int64))
        assert diff.max() <= 1

    def test_hue_wraps(self):
        a = hsv_to_rgb(np.array([[[359.9, 1.0, 1.0]]]))
        b = hsv_to_rgb(np.array([[[-0.1, 1.0, 1.0]]]))
        np.testing.assert_array_equal(a, b)


def mid_range_raster(seed, h=24, w=24):
    """Random raster away from the gamut edges so jitter cannot clamp."""
    rng = np.random.default_rng(seed)
    return rng.integers(70, 190, size=(h, w, 3)).astype(np.uint8)


class TestStainAugment:
    def test_disabled_is_exact_identity(self):
        r = mid_range_raster(0)
        cfg = StainAugConfig(enabled=False)
        out = stain_augment(r, cfg, RngStream(seed=1))
        np.testing.assert_array_equal(out, r)
        assert out is not r  # a copy, not an alias

    def test_zero_sigma_equals_round_trip(self):
        r = mid_range_raster(1)
        z3 = (0.0, 0.0, 0.0)
        cfg = StainAugConfig(space="lab", lab_mean_sigma=z3, lab_std_sigma=z3)
        out = stain_augment(r, cfg, RngStream(seed=2))
        np.testing.assert_array_equal(out, lab_to_rgb(rgb_to_lab(r)))
        diff = np.abs(out.astype(int) - r.astype(int))
        assert diff.max() <= 1

    def test_zero_sigma_hsv(self):
        r = mid_range_raster(2)
        z3 = (0.0, 0.0, 0.0)
        cfg = StainAugConfig(space="hsv", hsv_mean_sigma=z3, hsv_std_sigma=z3)
        out = stain_augment(r, cfg, RngStream(seed=3))
        diff = np.abs(out.astype(int) - r.astype(int))
        assert diff.max() <= 1

    def test_deterministic(self):
        r = mid_range_raster(3)
        cfg = StainAugConfig()
        a = stain_augment(r, cfg, RngStream(seed=7, stream_id=4))
        b = stain_augment(r, cfg, RngStream(seed=7, stream_id=4))
        np.testing.assert_array_equal(a, b)

    def test_streams_vary_output(self):
        r = mid_range_raster(4)
        cfg = StainAugConfig()
        a = stain_augment(r, cfg, RngStream(seed=7, stream_id=0))
        b = stain_augment(r, cfg, RngStream(seed=7, stream_id=1))
        assert np.any(a != b)

    def test_lab_mean_shift_matches_drawn_offset(self):
        """LAB channel means move by the drawn offsets within 0.1."""
        r = mid_range_raster(5, 48, 48)
        sig = (3.0, 2.0, 2.0)
        z3 = (0.0, 0.0, 0.0)
        cfg = StainAugConfig(space="lab", lab_mean_sigma=sig, lab_std_sigma=z3)
        out = stain_augment(r, cfg, RngStream(seed=11, stream_id=2))
        # replay the exact draws from an identical stream
        dmu, rho = draw_stain_jitter(RngStream(seed=11, stream_id=2), sig, z3)
        np.testing.assert_array_equal(rho, np.ones(3))
        before = rgb_to_lab(r).mean(axis=(0, 1))
        after = rgb_to_lab(out).mean(axis=(0, 1))
        np.testing.assert_allclose(after - before, dmu, atol=0.1)

    def test_mean_shift_direction(self):
        """sign(new_mean - old_mean) tracks sign(dmu) when |dmu| > 0.5."""
        sig = (4.0, 3.0, 3.0)
        z3 = (0.0, 0.0, 0.0)
        cfg = StainAugConfig(space="lab", lab_mean_sigma=sig, lab_std_sigma=z3)
        checked = 0
        for seed in range(12):
            r = mid_range_raster(100 + seed)
            out = stain_augment(r, cfg, RngStream(seed=seed))
            dmu, _ = draw_stain_jitter(RngStream(seed=seed), sig, z3)
            shift = rgb_to_lab(out).mean(axis=(0, 1)) - rgb_to_lab(r).mean(axis=(0, 1))
            for c in range(3):
                if abs(dmu[c]) > 0.5:
                    assert np.sign(shift[c]) == np.sign(dmu[c])
                    checked += 1
        assert checked >= 10

    def test_both_is_lab_then_hsv(self):
        """space='both' composes the two spaces off one stream in order."""
        r = mid_range_raster(6)
        cfg = StainAugConfig(space="both")
        got = stain_augment(r, cfg, RngStream(seed=13, stream_id=9))
        stream = RngStream(seed=13, stream_id=9)
        step1 = stain_augment(r, StainAugConfig(space="lab"), stream)
        step2 = stain_augment(step1, StainAugConfig(space="hsv"), stream)
        np.testing.assert_array_equal(got, step2)

    def test_std_scaling_spreads_channel(self):
        """A rho pinned above 1 widens the LAB L spread; below 1 narrows it."""
        r = mid_range_raster(7, 48, 48)
        z3 = (0.0, 0.0, 0.0)
        # huge std sigma makes |rho-1| large; find seeds on each side
        sig = (0.6, 0.0, 0.0)
        cfg = StainAugConfig(space="lab", lab_mean_sigma=z3, lab_std_sigma=sig)
        saw_wide = saw_narrow = False
        for seed in range(20):
            _, rho = draw_stain_jitter(RngStream(seed=seed), z3, sig)
            out = stain_augment(r, cfg, RngStream(seed=seed))
            s_before = rgb_to_lab(r)[..., 0].std()
            s_after = rgb_to_lab(out)[..., 0].std()
            if rho[0] > 1.15:
                assert s_after > s_before
                saw_wide = True
            elif rho[0] < 0.85:
                assert s_after < s_before
                saw_narrow = True
        assert saw_wide and saw_narrow

    def test_hue_never_scaled(self):
        """Hue moves additively: the circular spread is untouched by rho."""
        # saturated pixels only: hue is ill-conditioned near gray
        g = np.random.default_rng(8)
        hsv = np.stack([g.uniform(0, 360, (32, 32)),
                        g.uniform(0.5, 0.95, (32, 32)),
                        g.uniform(0.3, 0.9, (32, 32))], axis=-1)
        r = hsv_to_rgb(hsv)
        z3 = (0.0, 0.0, 0.0)
        cfg = StainAugConfig(space="hsv", hsv_mean_sigma=(30.0, 0.0, 0.0),
                             hsv_std_sigma=(5.0, 0.0, 0.0))
        out = stain_augment(r, cfg, RngStream(seed=21))
        dmu, _ = draw_stain_jitter(RngStream(seed=21), (30.0, 0.0, 0.0),
                                   (5.0, 0.0, 0.0))
        h_before = rgb_to_hsv(r)[..., 0]
        h_after = rgb_to_hsv(out)[..., 0]
        expected = np.mod(h_before + dmu[0], 360.0)
        # compare circularly, tolerant of the 8-bit re-quantization
        delta = np.mod(h_after - expected + 180.0, 360.0) - 180.0
        assert np.abs(delta).max() < 2.0

    @pytest.mark.parametrize("space", ["lab", "hsv"])
    def test_sigmas_are_mean_then_spread(self, space):
        cfg = StainAugConfig(lab_mean_sigma=(1.0, 2.0, 3.0), lab_std_sigma=(4, 5, 6),
                             hsv_mean_sigma=(7.0, 8.0, 9.0),
                             hsv_std_sigma=(0.1, 0.2, 0.3))
        sig = cfg.sigmas(space)
        assert sig.dtype == np.float64 and sig.shape == (6,)
        assert sig.tolist() == [*getattr(cfg, f"{space}_mean_sigma"),
                                *getattr(cfg, f"{space}_std_sigma")]

    def test_bad_config(self):
        with pytest.raises(ConfigError):
            StainAugConfig(space="rgb")
        with pytest.raises(ConfigError):
            StainAugConfig(lab_mean_sigma=(1.0, -0.5, 0.0))
        with pytest.raises(ConfigError):
            StainAugConfig(hsv_std_sigma=(0.1, 0.1))
        with pytest.raises(ConfigError):     # a JSON integer past float64
            StainAugConfig(lab_std_sigma=(10**400, 0.0, 0.0))

    @pytest.mark.parametrize("key", ["lab_mean_sigma", "lab_std_sigma",
                                     "hsv_mean_sigma", "hsv_std_sigma"])
    def test_sigma_past_the_bound_is_refused(self, key):
        StainAugConfig(**{key: (1e100,) * 3})
        with pytest.raises(ConfigError, match=key):
            StainAugConfig(**{key: (0.0, np.nextafter(1e100, np.inf), 0.0)})

    @pytest.mark.parametrize("space", ["lab", "hsv"])
    def test_remap_at_the_sigma_bound_stays_finite(self, space):
        """Box-Muller's largest draw (a word pair (0, 0) or (0, 2**63))
        at the largest sigma, of every sign, on the RGB corners and on
        one-outlier rasters: no overflow or NaN reaches the uint8 cast."""
        corners = np.array(list(itertools.product([0, 255], repeat=3)),
                           dtype=np.uint8)
        rasters = [corners.reshape(2, 4, 3)]
        for a, b in itertools.permutations(corners, 2):
            r = np.tile(a, (4, 4, 1))
            r[1, 2] = b
            rasters.append(r)
        pair = {1: [0, 0], -1: [0, 2**63]}    # draws of +-8.57
        words = np.array([[w for sign in signs for w in pair[sign]]
                          for signs in itertools.product([1, -1], repeat=6)],
                         dtype=np.uint64)
        dmu, rho = stain_draws(words, np.full(6, 1e100))
        assert np.abs(dmu).max() > 8.57e100 and rho.max() > 8.57e100
        for r in rasters:
            img, mu = stain_space(r, space)
            for row in range(len(words)):
                with np.errstate(all="raise"):
                    stain_remap(img, mu, dmu[row], rho[row], space)


# ---------------------------------------------------------------------------
# Bit-identity of the augmentation hot path.  The pins are sha256 digests
# of stain_augment outputs taken from the original multi-pass kernels;
# the oracles below are test-side copies of those kernels and of the
# one-Gaussian-at-a-time jitter draw.  Speedups must match them exactly.

STAIN_PINS = {
    ("lab", 0): "8a0c5c27f8e41551b1176a43d2c54aae05e1d38464912f3a0d62cc352a388cc7",
    ("lab", 1): "aa9ff01222711d2a713b5f378183178bbeec12ffd5a5da929e75dc9a04fd7b84",
    ("lab", 2): "1a5b9a98ebc83279a6339f367daa0671270ff40c84f1d7b850537c14806076b4",
    ("hsv", 0): "301e5a4c4511845cc4a43918d18ca42e4447852ab2bf7cfb33e6411bcc2724b6",
    ("hsv", 1): "2e8118434ca80a29259577232efbac0ec44c2ecc3f8c3fc9610a8dc3042f6a3b",
    ("hsv", 2): "68cdb1e70f01e64a53560f81a094b5fcf216b06c41bf0f8e20df96c1469a0d1d",
    ("both", 0): "ac1d668a2d75cd2e9f19dc3ea2517e520a5b26a2bf872edb5da59c39e4319497",
    ("both", 1): "d6e8509ecfec757838feff8e80b7e73ac05bed4132c70e00318555072cdad924",
    ("both", 2): "9f523e0bf1b64ae0e21a5c3bb125a254ad172e77fc26ab4441114c77e9e343d4",
}
PIN_STREAMS = (0, 7, 2**40 + 3)


@pytest.fixture(scope="module")
def bundled_rasters():
    """The first eight rasters of the corpus the CLI trains on by default."""
    return make_pretrain_corpus(RngStream(seed=0, stream_id=10), count=8,
                                image_size=64)


@pytest.mark.parametrize("space,seed", sorted(STAIN_PINS))
def test_stain_augment_golden(bundled_rasters, space, seed):
    cfg = replace(AblationConfig().aug, space=space)
    h = hashlib.sha256()
    for sid in PIN_STREAMS:
        for r in bundled_rasters:
            h.update(stain_augment(r, cfg, RngStream(seed=seed,
                                                     stream_id=sid)).tobytes())
    assert h.hexdigest() == STAIN_PINS[space, seed]


def multipass_rgb_to_hsv(r):
    rgb = r.astype(np.float64) / 255.0
    mx = rgb.max(axis=-1)
    mn = rgb.min(axis=-1)
    d = mx - mn
    rc, gc, bc = rgb[..., 0], rgb[..., 1], rgb[..., 2]
    safe = np.where(d == 0, 1.0, d)
    h = np.where(
        mx == rc, (gc - bc) / safe,
        np.where(mx == gc, (bc - rc) / safe + 2.0, (rc - gc) / safe + 4.0),
    )
    h = np.mod(60.0 * h, 360.0)
    h = np.where(d == 0, 0.0, h)
    s = np.where(mx == 0, 0.0, d / np.where(mx == 0, 1.0, mx))
    return np.stack([h, s, mx], axis=-1)


def multipass_hsv_to_rgb(img):
    h = np.mod(img[..., 0], 360.0) / 60.0
    s = np.clip(img[..., 1], 0.0, 1.0)
    v = np.clip(img[..., 2], 0.0, 1.0)
    c = v * s
    x = c * (1.0 - np.abs(np.mod(h, 2.0) - 1.0))
    m = v - c
    sector = np.floor(h).astype(np.int64) % 6
    z = np.zeros_like(c)
    patterns = [(c, x, z), (x, c, z), (z, c, x), (z, x, c), (x, z, c), (c, z, x)]
    rgb = np.zeros(img.shape, dtype=np.float64)
    for k, (pr, pg, pb) in enumerate(patterns):
        mask = sector == k
        rgb[..., 0] = np.where(mask, pr, rgb[..., 0])
        rgb[..., 1] = np.where(mask, pg, rgb[..., 1])
        rgb[..., 2] = np.where(mask, pb, rgb[..., 2])
    rgb += m[..., None]
    return np.clip(np.rint(rgb * 255.0), 0, 255).astype(np.uint8)


def power_rgb_to_lab(r):
    """rgb_to_lab with the sRGB power law evaluated at every pixel."""
    c = r.astype(np.float64) / 255.0
    lin = np.where(c <= 0.04045, c / 12.92, ((c + 0.055) / 1.055) ** 2.4)
    m = np.array([[0.4124564, 0.3575761, 0.1804375],
                  [0.2126729, 0.7151522, 0.0721750],
                  [0.0193339, 0.1191920, 0.9503041]])
    xyz = lin @ m.T
    t = np.maximum(xyz / m.sum(axis=1), 0.0)
    delta = 6.0 / 29.0
    f = np.where(t > delta**3, np.cbrt(t), t / (3 * delta**2) + 4.0 / 29.0)
    out = np.empty_like(f)
    out[..., 0] = 116.0 * f[..., 1] - 16.0
    out[..., 1] = 500.0 * (f[..., 0] - f[..., 1])
    out[..., 2] = 200.0 * (f[..., 1] - f[..., 2])
    return out


def scalar_jitter_draw(rng, mean_sigma, std_sigma):
    """Six successive single-Gaussian draws in the documented order."""
    dmu = np.array([rng.gaussian(1, 0.0, float(mean_sigma[c]))[0]
                    for c in range(3)])
    rho = np.array([rng.gaussian(1, 1.0, float(std_sigma[c]))[0]
                    for c in range(3)])
    return dmu, np.maximum(rho, 0.05)


def same_bits(a, b):
    """Equal dtype, shape and bytes: stricter than array_equal, which
    takes -0.0 for 0.0."""
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


small_rasters = arrays(np.uint8, st.tuples(st.integers(1, 9), st.integers(1, 9),
                                           st.just(3)))
sector_edges = st.sampled_from([-360.0, -60.0, -1e-300, -0.0, 0.0, 60.0,
                                120.0, 180.0, 240.0, 300.0, 360.0, 720.0,
                                np.nextafter(60.0, 0.0),
                                np.nextafter(360.0, 0.0)])
hsv_channel = st.floats(-0.5, 1.5, allow_nan=False)
hsv_pixels = st.tuples(st.one_of(st.floats(-1000.0, 1000.0, allow_nan=False),
                                 sector_edges),
                       hsv_channel, hsv_channel)
sigmas = st.tuples(*[st.floats(0.0, 50.0, allow_nan=False)] * 3)


class TestSinglePassKernels:
    @settings(max_examples=200, deadline=None)
    @given(small_rasters)
    def test_rgb_to_hsv_matches_multipass(self, r):
        assert same_bits(rgb_to_hsv(r), multipass_rgb_to_hsv(r))

    def test_rgb_to_hsv_every_ordering(self):
        """All 16.7M colours would be slow; every channel ordering,
        including ties and grays, over a coarse lattice is not."""
        lv = np.array([0, 1, 2, 63, 64, 127, 128, 200, 254, 255])
        r = np.stack(np.meshgrid(lv, lv, lv, indexing="ij"), axis=-1)
        r = r.reshape(len(lv), -1, 3).astype(np.uint8)
        assert same_bits(rgb_to_hsv(r), multipass_rgb_to_hsv(r))

    @settings(max_examples=200, deadline=None)
    @given(st.lists(hsv_pixels, min_size=1, max_size=40))
    def test_hsv_to_rgb_matches_multipass(self, pixels):
        img = np.array(pixels, dtype=np.float64).reshape(1, -1, 3)
        assert np.array_equal(hsv_to_rgb(img), multipass_hsv_to_rgb(img))

    def test_rgb_to_lab_every_level(self):
        """Each 8-bit level in each channel position, against the power
        formula evaluated per pixel."""
        lv = np.arange(256, dtype=np.uint8)
        r = np.stack([lv, lv[::-1], np.roll(lv, 85)], axis=-1).reshape(16, 16, 3)
        assert same_bits(rgb_to_lab(r), power_rgb_to_lab(r))

    @settings(max_examples=200, deadline=None)
    @given(small_rasters)
    def test_rgb_to_lab_lookup_matches_the_formula(self, r):
        """The 256-entry linear-light table against the power law at every
        pixel, over raster sizes that move numpy's vector-loop tails."""
        assert same_bits(rgb_to_lab(r), power_rgb_to_lab(r))

    @settings(max_examples=200, deadline=None)
    @given(small_rasters, st.sampled_from(["lab", "hsv"]),
           st.integers(0, 2**64 - 1), sigmas, sigmas)
    def test_remap_loop_matches_broadcast(self, r, space, seed, mean_sigma,
                                          std_sigma):
        """The per-channel remap loop against one broadcast expression,
        compared on the float image before the conversion back to RGB."""
        img, mu = stain_space(r, space)
        dmu, rho = draw_stain_jitter(RngStream(seed, 5), mean_sigma, std_sigma)
        with mock.patch.dict(_CONVERSIONS, {space: (None, lambda out: out)}):
            looped = stain_remap(img, mu, dmu, rho, space)
        twin = (img - mu) * rho + mu + dmu
        if space == "hsv":
            twin[..., 0] = np.mod(img[..., 0] + dmu[0], 360.0)
        assert same_bits(looped, twin)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 2**64 - 1), st.integers(-2**63, 2**64 - 1),
           st.integers(0, 40), sigmas, sigmas)
    def test_jitter_draw_matches_six_scalar_draws(self, seed, sid, skip,
                                                  mean_sigma, std_sigma):
        a, b = RngStream(seed, sid), RngStream(seed, sid)
        a.uniform(skip)
        b.uniform(skip)
        dmu, rho = draw_stain_jitter(a, mean_sigma, std_sigma)
        ref_dmu, ref_rho = scalar_jitter_draw(b, mean_sigma, std_sigma)
        assert same_bits(dmu, ref_dmu)
        assert same_bits(rho, ref_rho)
        assert a.counter == b.counter  # the stream advances the same way
        assert np.array_equal(a.uniform(2), b.uniform(2))

# a 3x2 binary PPM with a header comment
VALID_PPM = b"P6\n# c\n3 2\n255\n" + bytes(range(18))


@st.composite
def damaged_ppms(draw):
    """``VALID_PPM`` with a span of up to 4 bytes replaced by 1 to 4
    others."""
    i = draw(st.integers(0, len(VALID_PPM) - 1))
    cut = draw(st.integers(0, 4))
    return (VALID_PPM[:i] + draw(st.binary(min_size=1, max_size=4))
            + VALID_PPM[i + cut:])


# Header bytes: the six whitespace kinds, the comment marker, digits,
# the magic's letter, and bytes no header token holds.
HEADER_BYTES = b" \t\n\r\f\v#0123456789P\x00\xff-"
_SPACE = re.compile(rb"\s")


def scanned_ppm_token(buf: bytes, pos: int, path):
    """Reference header tokenizer, one byte at a time: skip whitespace
    and '#' comment lines, then take the run of non-whitespace bytes."""
    n = len(buf)
    while pos < n:
        ch = buf[pos:pos + 1]
        if ch == b"#":
            while pos < n and buf[pos:pos + 1] != b"\n":
                pos += 1
        elif _SPACE.match(ch):
            pos += 1
        else:
            break
    start = pos
    while pos < n and not _SPACE.match(buf[pos:pos + 1]):
        pos += 1
    if start == pos:
        raise DataError(f"{path}: truncated PPM header")
    return buf[start:pos], pos


def token_outcome(tokenize, buf, pos):
    """(token, end), or the DataError message."""
    try:
        return tokenize(buf, pos, "h.ppm")
    except DataError as e:
        return str(e)


class TestPpm:
    @settings(max_examples=1000, deadline=None)
    @given(st.data())
    def test_token_matches_byte_scanner(self, data):
        """The header tokenizer gives the byte scanner's token and end,
        or its error, from any start position."""
        buf = bytes(data.draw(st.lists(st.sampled_from(HEADER_BYTES),
                                       max_size=40)))
        pos = data.draw(st.integers(0, len(buf)))
        assert (token_outcome(_ppm_token, buf, pos)
                == token_outcome(scanned_ppm_token, buf, pos))

    def test_comment_lines_between_every_field(self, tmp_path):
        r = np.arange(18, dtype=np.uint8).reshape(2, 3, 3)
        p = tmp_path / "c.ppm"
        p.write_bytes(b"P6\n# magic\n\t#  \r\n3 # width\n# \n2\n"
                      b"#height#\n\v255\n" + r.tobytes())
        np.testing.assert_array_equal(read_ppm(p), r)

    def test_round_trip_bit_exact(self, tmp_path):
        r = np.random.default_rng(5).integers(0, 256, size=(17, 23, 3)).astype(np.uint8)
        p = tmp_path / "img.ppm"
        write_ppm(p, r)
        np.testing.assert_array_equal(read_ppm(p), r)

    def test_comment_in_header(self, tmp_path):
        r = np.array([[[1, 2, 3], [4, 5, 6]]], dtype=np.uint8)
        p = tmp_path / "c.ppm"
        p.write_bytes(b"P6\n# made by hand\n2 1\n255\n" + r.tobytes())
        np.testing.assert_array_equal(read_ppm(p), r)

    def test_bad_magic(self, tmp_path):
        p = tmp_path / "bad.ppm"
        p.write_bytes(b"P5\n2 2\n255\n" + bytes(12))
        with pytest.raises(DataError):
            read_ppm(p)

    def test_bad_maxval(self, tmp_path):
        p = tmp_path / "bad.ppm"
        p.write_bytes(b"P6\n2 2\n300\n" + bytes(24))
        with pytest.raises(DataError):
            read_ppm(p)

    def test_truncated_payload(self, tmp_path):
        p = tmp_path / "short.ppm"
        p.write_bytes(b"P6\n4 4\n255\n" + bytes(10))
        with pytest.raises(DataError):
            read_ppm(p)

    def test_unreadable_path(self, tmp_path):
        """A missing file, or a directory named like one, is damaged
        input, not an OSError."""
        (tmp_path / "dir.ppm").mkdir()
        for p in (tmp_path / "missing.ppm", tmp_path / "dir.ppm"):
            with pytest.raises(DataError, match="cannot read PPM"):
                read_ppm(p)

    @settings(max_examples=300, deadline=None)
    @given(data=st.binary(max_size=64) | damaged_ppms())
    def test_damaged_bytes_raise_only_data_error(self, data):
        """Random bytes, and a valid PPM with a span replaced, either
        read as a raster or raise DataError."""
        with tempfile.TemporaryDirectory() as tmp:
            p = Path(tmp) / "x.ppm"
            p.write_bytes(data)
            try:
                r = read_ppm(p)
            except DataError:
                return
        assert r.dtype == np.uint8 and r.ndim == 3 and r.shape[2] == 3
