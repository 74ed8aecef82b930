"""Token sequence construction, block stack, and hand-written gradients."""

import hashlib
from dataclasses import asdict, fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tokenhier.checkpoint import load_params, save_params
from tokenhier.encoder import (
    EncoderConfig,
    TokenSequence,
    backward_batch,
    forward_batch,
    init_params,
    patchify,
    token_gradients,
    tokenize_batch,
)
from tokenhier.errors import ConfigError, NumericError
from tokenhier.numkernel import RngStream


def small_cfg(**kw):
    base = dict(image_size=32, token_size=16, embed_dim=16, depth=2,
                num_heads=2, mlp_ratio=2.0)
    base.update(kw)
    return EncoderConfig(**base)


def rand_raster(seed, size):
    rng = np.random.default_rng(seed)
    return rng.integers(0, 256, size=(size, size, 3)).astype(np.uint8)


def tokenize(raster, cfg, params, mask=None):
    """Initial sequence (S, D) of one raster, through the batch path."""
    masks = None if mask is None else np.asarray(mask, dtype=bool)[None]
    return tokenize_batch(patchify(raster, cfg)[None], params, masks)[0]


def forward(raster, cfg, params, mask=None):
    """One (optionally masked) raster through the batch path, as
    training and frozen embedding run it."""
    out, _ = forward_batch(tokenize(raster, cfg, params, mask)[None],
                           cfg, params)
    return TokenSequence(out[0, 0], out[0, 1:])


class TestConfig:
    def test_defaults(self):
        cfg = EncoderConfig()
        assert cfg.num_patches == 16
        assert cfg.seq_len == 17
        assert cfg.head_dim == 16
        assert cfg.mlp_hidden == 256

    def test_invalid(self):
        with pytest.raises(ConfigError):
            EncoderConfig(image_size=60, token_size=16)
        with pytest.raises(ConfigError):
            EncoderConfig(embed_dim=30, num_heads=4)
        with pytest.raises(ConfigError):
            EncoderConfig(mlp_ratio=0.0)

    @pytest.mark.parametrize("kw", [dict(mlp_ratio=1e308),
                                    dict(embed_dim=10 ** 400, num_heads=1)])
    def test_mlp_width_past_float_range(self, kw):
        """An MLP width that overflows a float is a config error, not an
        OverflowError wherever the width is first asked for."""
        with pytest.raises(ConfigError, match="too large"):
            EncoderConfig(**kw)


class TestTokenize:
    def test_row_count_small(self):
        cfg = small_cfg()
        p = init_params(cfg, RngStream(seed=1))
        z0 = tokenize(rand_raster(0, 32), cfg, p)
        assert z0.shape == (5, 16)

    def test_row_count_224(self):
        cfg = EncoderConfig(image_size=224, token_size=16, embed_dim=8,
                            depth=0, num_heads=1)
        p = init_params(cfg, RngStream(seed=2))
        z0 = tokenize(rand_raster(1, 224), cfg, p)
        assert z0.shape == (197, 8)
        assert cfg.num_patches == 196

    def test_zero_image_rows_equal_bias(self):
        cfg = small_cfg()
        p = init_params(cfg, RngStream(seed=3))
        p["pos"] = np.zeros_like(p["pos"])
        p["embed.b"] = np.linspace(-1, 1, cfg.embed_dim)
        z0 = tokenize(np.zeros((32, 32, 3), dtype=np.uint8), cfg, p)
        for row in z0[1:]:
            np.testing.assert_allclose(row, p["embed.b"], atol=1e-15)
        np.testing.assert_allclose(z0[0], p["cls"], atol=1e-15)

    def test_patchify_layout(self):
        """Patch k = row-major grid cell, flattened row-major with channels."""
        cfg = small_cfg()
        img = np.zeros((32, 32, 3), dtype=np.uint8)
        img[0, 16] = (255, 0, 0)  # first pixel of grid cell (0,1)
        mats = patchify(img, cfg)
        assert mats[1][0] == 1.0 and mats[1][1] == 0.0
        assert np.count_nonzero(mats[0]) == 0


class TestForward:
    def test_depth_zero_is_final_norm_of_z0(self):
        cfg = small_cfg(depth=0)
        p = init_params(cfg, RngStream(seed=5))
        r = rand_raster(3, 32)
        z0 = tokenize(r, cfg, p)
        out, _ = forward_batch(z0[None], cfg, p)
        seq = forward(r, cfg, p)
        mu = z0.mean(axis=-1, keepdims=True)
        xc = z0 - mu
        var = (xc * xc).mean(axis=-1, keepdims=True)
        expect = xc / np.sqrt(np.maximum(var, 1e-6))
        np.testing.assert_allclose(out[0], expect, atol=1e-12)
        np.testing.assert_allclose(seq.cls, expect[0], atol=1e-12)

    def test_shapes_and_hash_field(self):
        """A sequence is its two token arrays; the write-only config
        hash field is gone."""
        cfg = small_cfg()
        p = init_params(cfg, RngStream(seed=6))
        seq = forward(rand_raster(4, 32), cfg, p)
        assert [f.name for f in fields(TokenSequence)] == ["cls", "patches"]
        assert seq.cls.shape == (16,)
        assert seq.patches.shape == (4, 16)

    def test_permutation_equivariance_without_positions(self):
        cfg = small_cfg()
        p = init_params(cfg, RngStream(seed=7))
        p["pos"] = np.zeros_like(p["pos"])
        img = rand_raster(5, 32)
        swapped = img.copy()
        swapped[0:16, 16:32] = img[16:32, 0:16]
        swapped[16:32, 0:16] = img[0:16, 16:32]
        a = forward(img, cfg, p)
        b = forward(swapped, cfg, p)
        np.testing.assert_allclose(a.cls, b.cls, atol=1e-12)
        np.testing.assert_allclose(a.patches[1], b.patches[2], atol=1e-12)
        np.testing.assert_allclose(a.patches[2], b.patches[1], atol=1e-12)
        np.testing.assert_allclose(a.patches[0], b.patches[0], atol=1e-12)

    def test_deterministic(self):
        cfg = small_cfg()
        p = init_params(cfg, RngStream(seed=8))
        r = rand_raster(6, 32)
        a = forward(r, cfg, p)
        b = forward(r, cfg, p)
        np.testing.assert_array_equal(a.cls, b.cls)
        np.testing.assert_array_equal(a.patches, b.patches)

    def test_golden_hash(self):
        """Frozen regression for the default config; catches silent
        numeric drift."""
        cfg = EncoderConfig()
        p = init_params(cfg, RngStream(seed=1234))
        seq = forward(rand_raster(99, 64), cfg, p)
        payload = np.round(np.concatenate([seq.cls[None, :], seq.patches]), 12)
        digest = hashlib.sha256(payload.tobytes()).hexdigest()
        assert digest == GOLDEN_FORWARD_SHA256

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 5), st.integers(0, 2),
           st.sampled_from([(12, 3), (16, 2), (16, 4), (32, 4), (64, 4)]),
           st.integers(0, 2**32 - 1))
    def test_rows_independent_of_batch(self, b, depth, dims, seed):
        """Each output row depends on its own input row alone, byte for
        byte: training runs the unmasked encoders once per item and
        repeats the rows for the item's two equal views."""
        cfg = small_cfg(depth=depth, embed_dim=dims[0], num_heads=dims[1])
        rng = RngStream(seed=seed)
        p = init_params(cfg, rng.derive(0))
        z0 = rng.derive(1).gaussian(b * cfg.seq_len * cfg.embed_dim).reshape(
            b, cfg.seq_len, cfg.embed_dim)
        twice, _ = forward_batch(np.repeat(z0, 2, axis=0), cfg, p)
        once, _ = forward_batch(z0, cfg, p)
        assert twice.tobytes() == np.repeat(once, 2, axis=0).tobytes()

    def test_nonfinite_guard_names_layer(self):
        cfg = small_cfg()
        p = init_params(cfg, RngStream(seed=9))
        p["layer1.mlp.b2"][0] = np.nan
        with pytest.raises(NumericError, match="layer 1"):
            forward(rand_raster(7, 32), cfg, p)


# captured from the first verified build of this configuration
GOLDEN_FORWARD_SHA256 = "371187bbaabc1824863119ab6fd2ef13340466c0049d7eca9887447f4358f585"


class TestForwardMasked:
    def test_all_false_equals_forward(self):
        cfg = small_cfg()
        p = init_params(cfg, RngStream(seed=10))
        r = rand_raster(8, 32)
        a = forward(r, cfg, p)
        b = forward(r, cfg, p, np.zeros(4, dtype=bool))
        np.testing.assert_array_equal(a.cls, b.cls)
        np.testing.assert_array_equal(a.patches, b.patches)

    def test_all_true_ignores_image(self):
        cfg = small_cfg()
        p = init_params(cfg, RngStream(seed=11))
        m = np.ones(4, dtype=bool)
        a = forward(rand_raster(9, 32), cfg, p, m)
        b = forward(rand_raster(10, 32), cfg, p, m)
        np.testing.assert_array_equal(a.patches, b.patches)
        np.testing.assert_array_equal(a.cls, b.cls)

    def test_single_mask_perturbs_other_tokens(self):
        cfg = small_cfg()
        p = init_params(cfg, RngStream(seed=12))
        r = rand_raster(11, 32)
        m = np.array([False, True, False, False])
        a = forward(r, cfg, p)
        b = forward(r, cfg, p, m)
        # attention mixes: every token should move, not just the masked one
        assert np.abs(a.patches[0] - b.patches[0]).max() > 0
        assert np.abs(a.cls - b.cls).max() > 0


def rel_err(a, n):
    return abs(a - n) / max(1e-6, abs(a), abs(n))


class TestGradients:
    """Analytic parameter gradients against central differences."""

    def setup_method(self):
        self.cfg = small_cfg()  # D=16, L=2, N=4
        self.params = init_params(self.cfg, RngStream(seed=20))
        self.rasters = [rand_raster(20, 32), rand_raster(21, 32)]
        self.masks = np.array([[False, False, False, False],
                               [True, False, False, True]])
        rng = np.random.default_rng(22)
        self.R = rng.normal(size=(2, self.cfg.seq_len, self.cfg.embed_dim))

    def loss(self):
        z0 = np.stack([tokenize(r, self.cfg, self.params, mask=m)
                       for r, m in zip(self.rasters, self.masks)])
        out, _ = forward_batch(z0, self.cfg, self.params)
        return float(np.sum(out * self.R))

    def analytic(self):
        z0 = np.stack([tokenize(r, self.cfg, self.params, mask=m)
                       for r, m in zip(self.rasters, self.masks)])
        out, cache = forward_batch(z0, self.cfg, self.params)
        grads = backward_batch(self.R, cache, self.params)
        mats = [patchify(r, self.cfg) for r in self.rasters]
        grads.update(token_gradients(grads.pop("z0"), mats, self.masks,
                                     self.params))
        return grads

    def test_matches_finite_differences(self):
        grads = self.analytic()
        h = 1e-6
        rng = np.random.default_rng(23)
        worst = 0.0
        for name in sorted(self.params):
            tensor = self.params[name]
            flat = tensor.reshape(-1)
            n_check = min(flat.size, 25)
            idxs = rng.choice(flat.size, size=n_check, replace=False)
            for idx in idxs:
                old = flat[idx]
                flat[idx] = old + h
                lp = self.loss()
                flat[idx] = old - h
                lm = self.loss()
                flat[idx] = old
                num = (lp - lm) / (2 * h)
                ana = grads[name].reshape(-1)[idx]
                worst = max(worst, rel_err(ana, num))
        assert worst <= 1e-4, f"worst relative error {worst:.3e}"

    def test_gradient_of_masked_token_nonzero(self):
        grads = self.analytic()
        assert np.abs(grads["mask_token"]).max() > 0
        assert np.abs(grads["cls"]).max() > 0


class TestCheckpointRoundTrip:
    def test_save_load_bit_exact(self, tmp_path):
        cfg = small_cfg()
        p = init_params(cfg, RngStream(seed=30))
        path = tmp_path / "enc.ckpt"
        save_params(path, "encoder", asdict(cfg), p,
                    extra={"step": 7})
        kind, cdict, loaded, extra = load_params(path)
        assert kind == "encoder"
        assert cdict == asdict(cfg)
        assert extra == {"step": 7}
        assert set(loaded) == set(p)
        for k in p:
            np.testing.assert_array_equal(loaded[k], p[k])

    def test_truncation_detected(self, tmp_path):
        cfg = small_cfg(depth=0)
        p = init_params(cfg, RngStream(seed=31))
        path = tmp_path / "enc.ckpt"
        save_params(path, "encoder", {}, p, {})
        data = path.read_bytes()
        path.write_bytes(data[:-16])
        from tokenhier.errors import DataError
        with pytest.raises(DataError):
            load_params(path)
