"""Dense-primitive and RNG checks against independent references."""

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tokenhier.numkernel import (
    LN_EPS,
    RngStream,
    _mix_scalar,
    draw_words,
    fisher_yates,
    gelu,
    gelu_grad,
    layer_norm,
    layer_norm_backward,
    softmax_backward,
    softmax_rows,
    trunc_normal,
)


def mp_softmax_row(row):
    """Row softmax at 50-digit precision."""
    with mpmath.workdps(50):
        exps = [mpmath.exp(mpmath.mpf(float(v))) for v in row]
        total = mpmath.fsum(exps)
        return np.array([float(e / total) for e in exps])


class TestSoftmaxRows:
    def test_rows_sum_to_one(self):
        m = np.random.default_rng(3).normal(size=(8, 16), scale=5)
        np.testing.assert_allclose(softmax_rows(m).sum(axis=-1),
                                   np.ones(8), atol=1e-12)

    def test_matches_high_precision(self):
        """Each entry agrees with a 50-digit mpmath evaluation."""
        rng = np.random.default_rng(4)
        m = rng.normal(size=(5, 9), scale=3)
        got = softmax_rows(m)
        for i in range(5):
            np.testing.assert_allclose(got[i], mp_softmax_row(m[i]), atol=1e-14)

    def test_shift_invariance(self):
        m = np.random.default_rng(5).normal(size=(4, 6))
        np.testing.assert_allclose(softmax_rows(m), softmax_rows(m + 123.0),
                                   atol=1e-12)

    def test_large_magnitudes_stable(self):
        m = np.array([[1e4, 1e4 - 1.0], [-1e4, -1e4 + 1.0]])
        out = softmax_rows(m)
        assert np.all(np.isfinite(out))
        np.testing.assert_allclose(out.sum(axis=-1), [1.0, 1.0], atol=1e-12)

    @given(st.lists(st.floats(-50, 50), min_size=2, max_size=12))
    @settings(max_examples=50, deadline=None)
    def test_monotone_in_logits(self, vals):
        """Larger logit never gets smaller probability within a row."""
        row = np.array([vals])
        p = softmax_rows(row)[0]
        order = np.argsort(vals)
        assert np.all(np.diff(p[order]) >= -1e-15)

    def test_backward_matches_finite_differences(self):
        rng = np.random.default_rng(11)
        m = rng.normal(size=(2, 3, 5), scale=2)
        w = rng.normal(size=m.shape)
        grad = softmax_backward(softmax_rows(m), w)
        h = 1e-6
        flat = m.reshape(-1)
        for i in range(flat.size):
            keep = flat[i]
            flat[i] = keep + h
            up = float((w * softmax_rows(m)).sum())
            flat[i] = keep - h
            down = float((w * softmax_rows(m)).sum())
            flat[i] = keep
            np.testing.assert_allclose(grad.reshape(-1)[i],
                                       (up - down) / (2 * h), atol=1e-8)


class TestTruncNormal:
    def test_clipped_draws_in_stream_order(self):
        """One gaussian call at sigma 0.02, clipped at two sigma,
        reshaped row-major."""
        got = trunc_normal(RngStream(seed=3, stream_id=2), (4, 25))
        raw = RngStream(seed=3, stream_id=2).gaussian(100, 0.0, 0.02)
        assert got.shape == (4, 25)
        np.testing.assert_array_equal(got.reshape(-1),
                                      np.clip(raw, -0.04, 0.04))
        assert np.any(np.abs(raw) > 0.04)

    def test_draw_count_is_exact(self):
        """A shape past int64's range asks for its exact element count,
        not a count that wrapped around (64 x (2**63 - 1) wraps to -64)."""
        asked = []

        class Recorder:
            def gaussian(self, n, mean, sigma):
                asked.append(n)
                raise MemoryError

        with pytest.raises(MemoryError):
            trunc_normal(Recorder(), (64, 2**63 - 1))
        assert asked == [64 * (2**63 - 1)]


class TestLayerNorm:
    def test_already_normalized_row_unchanged(self):
        """A row with mean 0 and variance 1 maps to itself under unit affine."""
        x = np.array([[1.0, -1.0]])
        g = np.ones(2)
        b = np.zeros(2)
        np.testing.assert_array_equal(layer_norm(x, g, b)[0], x)

    def test_constant_row_maps_to_bias(self):
        x = np.full((3, 4), 7.0)
        g = np.ones(4)
        b = np.array([0.5, -0.5, 0.0, 2.0])
        out, _ = layer_norm(x, g, b)
        for i in range(3):
            np.testing.assert_allclose(out[i], b, atol=1e-12)

    def test_statistics(self):
        """Normalized rows (unit affine) have mean ~0 and variance ~1."""
        x = np.random.default_rng(6).normal(size=(10, 32), loc=3, scale=4)
        out, _ = layer_norm(x, np.ones(32), np.zeros(32))
        np.testing.assert_allclose(out.mean(axis=-1), np.zeros(10), atol=1e-12)
        np.testing.assert_allclose(out.var(axis=-1), np.ones(10), atol=1e-6)

    def test_affine_applied(self):
        x = np.random.default_rng(7).normal(size=(2, 8))
        g = np.random.default_rng(8).normal(size=8)
        b = np.random.default_rng(9).normal(size=8)
        base, _ = layer_norm(x, np.ones(8), np.zeros(8))
        np.testing.assert_allclose(layer_norm(x, g, b)[0], base * g + b,
                                   atol=1e-12)

    def test_backward_matches_finite_differences(self):
        """Input, gain and bias gradients of sum(w * LN(x)) on a batch
        with one near-constant row, whose variance sits under the
        floor, so the pinned-denominator branch is checked too."""
        rng = np.random.default_rng(10)
        x = rng.normal(size=(2, 3, 6))
        x[1, 2] = 0.5 + 1e-5 * rng.normal(size=6)
        g, b = rng.normal(size=6), rng.normal(size=6)
        w = rng.normal(size=x.shape)
        _, stats = layer_norm(x, g, b)
        assert stats[2][1, 2, 0] < LN_EPS
        dx, dg, db = layer_norm_backward(w, g, stats)
        h = 1e-7
        for arr, grad in ((x, dx), (g, dg), (b, db)):
            flat, gflat = arr.reshape(-1), grad.reshape(-1)
            for i in range(flat.size):
                keep = flat[i]
                flat[i] = keep + h
                up = float((w * layer_norm(x, g, b)[0]).sum())
                flat[i] = keep - h
                down = float((w * layer_norm(x, g, b)[0]).sum())
                flat[i] = keep
                np.testing.assert_allclose(gflat[i], (up - down) / (2 * h),
                                           rtol=1e-5, atol=1e-6)


class TestGelu:
    def test_reference_values(self):
        """gelu(0)=0, gelu(x)-gelu(-x)=x, and a hand value at x=1."""
        assert gelu(np.array([0.0]))[0] == 0.0
        x = np.linspace(-3, 3, 13)
        np.testing.assert_allclose(gelu(x) - gelu(-x), x, atol=1e-12)
        # Phi(1) = 0.8413447460685429
        np.testing.assert_allclose(gelu(np.array([1.0]))[0],
                                   0.8413447460685429, atol=1e-12)

    def test_grad_matches_finite_difference(self):
        x = np.linspace(-4, 4, 41)
        h = 1e-6
        num = (gelu(x + h) - gelu(x - h)) / (2 * h)
        np.testing.assert_allclose(gelu_grad(x), num, atol=1e-8)


class TestRngStream:
    def test_bit_identical_replay(self):
        """Same (seed, stream) gives the same bytes; draws are pure in the counter."""
        a = RngStream(seed=42, stream_id=7).uniform(100)
        b = RngStream(seed=42, stream_id=7).uniform(100)
        np.testing.assert_array_equal(a, b)

    def test_counter_split_consistent(self):
        """Drawing 100 at once equals drawing 30 then 70."""
        whole = RngStream(seed=1).uniform(100)
        s = RngStream(seed=1)
        parts = np.concatenate([s.uniform(30), s.uniform(70)])
        np.testing.assert_array_equal(whole, parts)

    def test_streams_differ(self):
        a = RngStream(seed=5, stream_id=0).uniform(64)
        b = RngStream(seed=5, stream_id=1).uniform(64)
        assert np.max(np.abs(a - b)) > 1e-3

    def test_seeds_differ(self):
        a = RngStream(seed=5).uniform(64)
        b = RngStream(seed=6).uniform(64)
        assert np.max(np.abs(a - b)) > 1e-3

    def test_uniform_range_and_moments(self):
        u = RngStream(seed=11).uniform(100_000)
        assert np.all(u >= 0.0) and np.all(u < 1.0)
        assert abs(u.mean() - 0.5) < 0.02
        assert abs(u.var() - 1.0 / 12.0) < 0.02

    def test_gaussian_moments(self):
        z = RngStream(seed=12).gaussian(100_000, mu=2.0, sigma=3.0)
        assert abs(z.mean() - 2.0) < 0.05
        assert abs(z.std() - 3.0) < 0.05

    def test_gaussian_sigma_zero_exact(self):
        z = RngStream(seed=13).gaussian(10, mu=1.25, sigma=0.0)
        np.testing.assert_array_equal(z, np.full(10, 1.25))

    def test_gaussian_counter_layout(self):
        """A scalar call k reads u1 at counter 2k and u2 at 2k+1; a call
        for n > 1 reads a block of u1 words, then a block of u2 words."""
        def box_muller(raw1, raw2):
            u1 = ((raw1 >> np.uint64(11)).astype(np.float64) + 1.0) * 2.0**-53
            u2 = (raw2 >> np.uint64(11)).astype(np.float64) * 2.0**-53
            r = np.sqrt(-2.0 * np.log(u1))
            return r * np.cos(2.0 * np.pi * u2), r * np.sin(2.0 * np.pi * u2)

        raw = RngStream(seed=31, stream_id=4)._raw(6)
        s = RngStream(seed=31, stream_id=4)
        scalars = [s.gaussian(1)[0] for _ in range(3)]
        np.testing.assert_array_equal(scalars, box_muller(raw[0::2], raw[1::2])[0])
        cos, sin = box_muller(raw[:3], raw[3:])
        np.testing.assert_array_equal(RngStream(seed=31, stream_id=4).gaussian(5),
                                      np.concatenate([cos, sin])[:5])

    @settings(max_examples=300, deadline=None)
    @given(st.integers(-2**70, 2**70))
    def test_mix_scalar_matches_uint64_arithmetic(self, x):
        """The Python-int finalizer equals splitmix64 in numpy uint64
        arithmetic on the value's 64-bit two's-complement pattern."""
        m64 = np.uint64(0xFFFFFFFFFFFFFFFF)
        with np.errstate(over="ignore"):
            z = (np.uint64(x & 0xFFFFFFFFFFFFFFFF)
                 + np.uint64(0x9E3779B97F4A7C15)) & m64
            z = ((z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)) & m64
            z = ((z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)) & m64
            want = int(z ^ (z >> np.uint64(31)))
        assert _mix_scalar(x) == want

    def test_stream_keys_pinned(self):
        """Keys of root and derived streams, pinned so the identity of
        every stream survives reimplementation."""
        root = RngStream(seed=2024, stream_id=3)
        assert root._key == 0x0B05E43BE5AD8428
        assert root.derive(0, 7)._key == 0x0B7E9236E0EEBDD8
        assert RngStream(seed=0)._key == 0x3B2BB204ABD35422

    def test_derive_is_stable_and_independent(self):
        root = RngStream(seed=99)
        a1 = root.derive(3).uniform(16)
        a2 = RngStream(seed=99).derive(3).uniform(16)
        np.testing.assert_array_equal(a1, a2)
        b = root.derive(4).uniform(16)
        assert np.max(np.abs(a1 - b)) > 1e-3

    def test_derive_order_matters(self):
        root = RngStream(seed=7)
        ab = root.derive(1, 2).uniform(8)
        ba = root.derive(2, 1).uniform(8)
        assert np.max(np.abs(ab - ba)) > 1e-3

    def test_integers_in_bound(self):
        v = RngStream(seed=3).integers(1000, 7)
        assert v.min() >= 0 and v.max() < 7
        # every residue shows up over 1000 draws
        assert len(np.unique(v)) == 7

    def test_permutation_valid_and_deterministic(self):
        p1 = RngStream(seed=8).permutation(50)
        p2 = RngStream(seed=8).permutation(50)
        np.testing.assert_array_equal(p1, p2)
        np.testing.assert_array_equal(np.sort(p1), np.arange(50))
        assert np.any(p1 != np.arange(50))

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 300), st.integers(0, 2**32), st.integers(0, 999))
    def test_permutation_matches_numpy_scalar_loop(self, n, seed, stream_id):
        """The Python-int shuffle reproduces the numpy-scalar Fisher-Yates
        loop it replaced byte for byte, and leaves the counter where that
        loop did."""
        rng = RngStream(seed=seed, stream_id=stream_id)
        old = RngStream(seed=seed, stream_id=stream_id)
        want = np.arange(n)
        if n > 1:
            js = old._raw(n - 1)
        for i in range(n - 1, 0, -1):
            j = int(js[n - 1 - i] % np.uint64(i + 1))
            want[i], want[j] = want[j], want[i]
        got = rng.permutation(n)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
        assert rng.counter == old.counter

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 2**64 - 1),
                              st.integers(0, 2**64 - 1),
                              st.integers(0, 2**20)),
                    min_size=1, max_size=6),
           st.integers(0, 40))
    def test_block_draw_equals_each_stream(self, ids, n):
        """Row s of one ``draw_words`` call over many streams is stream
        s's own ``_raw`` (and the splitmix64 formula on Python ints),
        its Fisher-Yates order is the stream's ``permutation``, and
        every stream advances as its own draw would advance it."""
        def streams():
            return [RngStream(seed, sid, counter)
                    for seed, sid, counter in ids]

        block, own, perm = streams(), streams(), streams()
        words = draw_words(block, n)
        assert words.shape == (len(ids), n) and words.dtype == np.uint64
        for row, s, p in zip(words.tolist(), own, perm):
            key, start = s._key, s.counter
            assert row == [_mix_scalar(key + (start + c + 1) * 0x9E3779B97F4A7C15)
                           for c in range(n)]
            assert row == s._raw(n).tolist()
            assert (fisher_yates(row[:n - 1], n)
                    == p.permutation(n).tolist())
        assert [s.counter for s in block] == [s.counter for s in own]

    def test_chi_square_uniformity(self):
        """Coarse 16-bin chi-square on 32k draws stays far from pathological."""
        u = RngStream(seed=21).uniform(32_768)
        counts, _ = np.histogram(u, bins=16, range=(0, 1))
        expected = 32_768 / 16
        chi2 = float(np.sum((counts - expected) ** 2 / expected))
        # df=15: 99.9th percentile ~ 37.7
        assert chi2 < 45.0
