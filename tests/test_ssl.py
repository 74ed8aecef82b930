"""Objective terms against extended-precision and brute-force oracles,
plus the student/teacher loop."""

import copy
import hashlib
import json
import math
import os
import signal
import sys
import threading
import time
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, replace
from types import SimpleNamespace

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tokenhier.bench import AblationConfig, make_pretrain_corpus
from tokenhier.checkpoint import read_config
from tokenhier.cli import main as cli_main
from tokenhier.color import StainAugConfig, stain_augment
from tokenhier import ssl as ssl_module
from tokenhier.encoder import (EncoderConfig, forward_batch, patchify,
                               tokenize_batch)
from tokenhier.errors import ConfigError, NumericError
from tokenhier.gradcheck import TOLERANCE
from tokenhier.numkernel import RngStream, init_tensors
from tokenhier.ssl import (
    LossBreakdown,
    POSTTRAIN,
    PRETRAIN,
    SslConfig,
    _step_views,
    _sub,
    centered_ce_loss_grad,
    gram_loss_grad,
    head_backward,
    head_forward,
    head_layout,
    init_train_state,
    koleo_loss_grad,
    run_training,
    student_size,
    train_step,
)


def value_of(loss_grad):
    """The value half of a (value, grad) loss term."""
    return lambda *args: loss_grad(*args)[0]


# one centered cross-entropy serves the image-level (DINO) and the
# masked-patch (iBOT) terms
dino_loss = ibot_loss = value_of(centered_ce_loss_grad)
koleo_loss = value_of(koleo_loss_grad)
gram_loss = value_of(gram_loss_grad)


def cfg_small(**kw):
    base = dict(prototype_count=8, student_temp=0.1, teacher_temp=0.04)
    base.update(kw)
    return SslConfig(**base)


def mp_centered_ce(student, teacher, center, ts, tt):
    """60-digit direct evaluation of the centered cross-entropy."""
    with mpmath.workdps(60):
        te = [mpmath.exp((mpmath.mpf(float(t)) - mpmath.mpf(float(c))) / tt)
              for t, c in zip(teacher, center)]
        zt = mpmath.fsum(te)
        pt = [e / zt for e in te]
        se = [mpmath.exp(mpmath.mpf(float(s)) / ts) for s in student]
        zs = mpmath.fsum(se)
        q = [e / zs for e in se]
        eps = mpmath.mpf("1e-12")
        return float(-mpmath.fsum(p * mpmath.log(qq + eps)
                                  for p, qq in zip(pt, q)))


def entropy(p):
    return float(-(p * np.log(p)).sum())


class TestSslConfig:
    def test_defaults_valid(self):
        cfg = SslConfig()
        assert cfg.prototype_count == 256
        assert cfg.student_temp > cfg.teacher_temp > 0

    def test_temperature_ordering_enforced(self):
        with pytest.raises(ConfigError):
            SslConfig(student_temp=0.04, teacher_temp=0.1)
        with pytest.raises(ConfigError):
            SslConfig(student_temp=0.1, teacher_temp=0.1)

    def test_k_floor(self):
        with pytest.raises(ConfigError):
            SslConfig(prototype_count=1)

    def test_momentum_ranges(self):
        with pytest.raises(ConfigError):
            SslConfig(center_momentum=0.0)
        with pytest.raises(ConfigError):
            SslConfig(ema_momentum=1.5)
        SslConfig(ema_momentum=1.0)  # frozen teacher is allowed

    def test_round_trip_dict(self):
        cfg = cfg_small(mask_fraction=0.25)
        assert read_config(SslConfig, asdict(cfg)) == cfg

    @pytest.mark.parametrize("enc_cfg, k", [
        (EncoderConfig(), 256),
        (EncoderConfig(image_size=32, token_size=8, embed_dim=6, depth=3,
                       num_heads=3, mlp_ratio=2.5), 7),
        (EncoderConfig(image_size=16, token_size=16, embed_dim=3, depth=0,
                       num_heads=1, mlp_ratio=0.3), 2)])
    def test_student_size_counts_the_student(self, enc_cfg, k):
        """The closed form the CLI's size check uses is the number of
        values in a fresh student's tensors."""
        state = init_train_state(enc_cfg, SslConfig(prototype_count=k),
                                 RngStream(seed=0))
        assert student_size(enc_cfg, k) == sum(
            t.size for t in state.student.values())


class TestDinoLoss:
    def test_matches_extended_precision(self):
        rng = np.random.default_rng(0)
        cfg = cfg_small(prototype_count=3)
        for _ in range(20):
            s = rng.normal(size=3, scale=2)
            t = rng.normal(size=3, scale=2)
            c = rng.normal(size=3)
            got = dino_loss(s, t, c, cfg)
            want = mp_centered_ce(s, t, c, cfg.student_temp, cfg.teacher_temp)
            assert abs(got - want) < 1e-12

    def test_matching_distributions_hit_entropy(self):
        """Student logits scaled so P_s = P_t: loss equals H(P_t)."""
        cfg = cfg_small()
        rng = np.random.default_rng(1)
        t = rng.normal(size=8, scale=1.5)
        c = np.zeros(8)
        s = t * (cfg.student_temp / cfg.teacher_temp)
        loss = dino_loss(s, t, c, cfg)
        pt = np.exp(t / cfg.teacher_temp)
        pt /= pt.sum()
        assert abs(loss - entropy(pt)) < 1e-9

    def test_equal_temps_self_consistency(self):
        """With tau_s = tau_t and student = teacher the loss is exactly
        the entropy (duck-typed cfg: the real config forbids ties)."""
        ns = SimpleNamespace(student_temp=0.07, teacher_temp=0.07)
        rng = np.random.default_rng(2)
        t = rng.normal(size=5)
        loss = dino_loss(t, t, np.zeros(5), ns)
        pt = np.exp(t / 0.07)
        pt /= pt.sum()
        assert abs(loss - entropy(pt)) < 1e-9

    def test_uniform_student_against_peaked_teacher(self):
        cfg = cfg_small(prototype_count=16)
        t = np.zeros(16)
        t[3] = 50.0  # effectively one-hot after sharpening
        s = np.zeros(16)  # uniform student
        loss = dino_loss(s, t, np.zeros(16), cfg)
        assert abs(loss - math.log(16)) < 1e-6

    def test_cross_entropy_floor(self):
        """CE >= H(P_t), equality only at matching distributions."""
        cfg = cfg_small()
        rng = np.random.default_rng(3)
        for _ in range(30):
            s = rng.normal(size=8, scale=2)
            t = rng.normal(size=8, scale=2)
            pt = np.exp(t / cfg.teacher_temp - (t / cfg.teacher_temp).max())
            pt /= pt.sum()
            assert dino_loss(s, t, np.zeros(8), cfg) >= entropy(pt) - 1e-9

    def test_gradient_matches_fd(self):
        cfg = cfg_small(prototype_count=5)
        rng = np.random.default_rng(4)
        s = rng.normal(size=5)
        t = rng.normal(size=5)
        c = rng.normal(size=5) * 0.1
        _, grad = centered_ce_loss_grad(s, t, c, cfg)
        h = 1e-5
        for j in range(5):
            sp = s.copy(); sp[j] += h
            sm = s.copy(); sm[j] -= h
            num = (dino_loss(sp, t, c, cfg) - dino_loss(sm, t, c, cfg)) / (2 * h)
            rel = abs(grad[j] - num) / max(1e-6, abs(grad[j]), abs(num))
            assert rel <= 1e-4

    @pytest.mark.parametrize("side", [0, 1])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_logit_raises(self, side, bad):
        logits = [np.zeros((2, 3)), np.zeros((2, 3))]
        logits[side][1, 2] = bad
        with pytest.raises(NumericError, match="non-finite logits"):
            centered_ce_loss_grad(*logits, np.zeros(3), cfg_small())


class TestIbotLoss:
    def test_single_position_reduces_to_dino(self):
        cfg = cfg_small(prototype_count=6)
        rng = np.random.default_rng(5)
        s = rng.normal(size=6)
        t = rng.normal(size=6)
        c = rng.normal(size=6) * 0.1
        assert abs(ibot_loss(s[None], t[None], c, cfg)
                   - dino_loss(s, t, c, cfg)) < 1e-15

    def test_matches_extended_precision(self):
        cfg = cfg_small(prototype_count=3)
        rng = np.random.default_rng(6)
        s = rng.normal(size=(4, 3), scale=2)
        t = rng.normal(size=(4, 3), scale=2)
        c = rng.normal(size=3)
        got = ibot_loss(s, t, c, cfg)
        want = np.mean([mp_centered_ce(s[i], t[i], c, cfg.student_temp,
                                       cfg.teacher_temp) for i in range(4)])
        assert abs(got - want) < 1e-12

    def test_self_consistent_rows(self):
        cfg = cfg_small()
        rng = np.random.default_rng(7)
        t = rng.normal(size=(3, 8))
        s = t * (cfg.student_temp / cfg.teacher_temp)
        loss = ibot_loss(s, t, np.zeros(8), cfg)
        ents = []
        for row in t:
            p = np.exp(row / cfg.teacher_temp - (row / cfg.teacher_temp).max())
            p /= p.sum()
            ents.append(entropy(p))
        assert abs(loss - np.mean(ents)) < 1e-9

    def test_gradient_matches_fd(self):
        cfg = cfg_small(prototype_count=4)
        rng = np.random.default_rng(8)
        s = rng.normal(size=(3, 4))
        t = rng.normal(size=(3, 4))
        c = rng.normal(size=4) * 0.1
        _, grad = centered_ce_loss_grad(s, t, c, cfg)
        h = 1e-5
        worst = 0.0
        for i in range(3):
            for j in range(4):
                sp = s.copy(); sp[i, j] += h
                sm = s.copy(); sm[i, j] -= h
                num = (ibot_loss(sp, t, c, cfg)
                       - ibot_loss(sm, t, c, cfg)) / (2 * h)
                rel = abs(grad[i, j] - num) / max(1e-6, abs(grad[i, j]), abs(num))
                worst = max(worst, rel)
        assert worst <= 1e-4


def oracle_koleo(x):
    """Scalar brute-force: normalize, all-pairs distances, clamp, log."""
    rows = [list(map(float, r)) for r in x]
    normed = []
    for r in rows:
        nrm = math.sqrt(sum(v * v for v in r))
        normed.append([v / nrm for v in r])
    n = len(normed)
    total = 0.0
    for i in range(n):
        best = None
        for j in range(n):
            if i == j:
                continue
            dd = math.sqrt(sum((a - b) ** 2
                               for a, b in zip(normed[i], normed[j])))
            best = dd if best is None else min(best, dd)
        total += math.log(max(best, 1e-8))
    return -total / n


def koleo_loop(features):
    """The per-row scatter loop koleo_loss_grad ran before its
    ``np.add.at`` form, kept as the byte oracle of that form."""
    x = np.asarray(features, dtype=np.float64)
    n = x.shape[0]
    norms = np.sqrt((x * x).sum(axis=-1, keepdims=True))
    z = x / np.maximum(norms, 1e-12)
    diff = z[:, None, :] - z[None, :, :]
    dist = np.sqrt((diff * diff).sum(axis=-1))
    np.fill_diagonal(dist, np.inf)
    nn = dist.argmin(axis=1)
    d = dist[np.arange(n), nn]
    loss = float(-np.mean(np.log(np.maximum(d, 1e-8))))
    dz = np.zeros_like(z)
    for i in range(n):
        if d[i] <= 1e-8:
            continue
        j = nn[i]
        u = (z[i] - z[j]) / d[i]
        dz[i] -= u / (n * d[i])
        dz[j] += u / (n * d[i])
    dot = (dz * z).sum(axis=-1, keepdims=True)
    return loss, (dz - z * dot) / np.maximum(norms, 1e-12)


class TestKoleoLoss:
    @given(st.integers(2, 64), st.integers(1, 32),
           st.sampled_from([1e-3, 1.0, 1e3]), st.integers(0, 8),
           st.integers(0, 2**32 - 1))
    @settings(max_examples=200, deadline=None)
    def test_matches_per_row_loop_bytes(self, n, dim, scale, dups, seed):
        """Equal loss and gradient bytes, with rows copied and rescaled
        onto others so that their distances clamp."""
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(n, dim)) * scale
        src, dst = rng.integers(0, n, (2, dups))
        x[dst] = x[src] * rng.choice([1.0, 2.0], (dups, 1))
        loss, grad = koleo_loss_grad(x)
        want_loss, want_grad = koleo_loop(x)
        assert loss == want_loss
        assert grad.tobytes() == want_grad.tobytes()

    def test_antipodal_pair(self):
        x = np.array([[1.0, 0.0], [-1.0, 0.0]])
        assert abs(koleo_loss(x) + math.log(2.0)) < 1e-15

    def test_duplicate_rows_clamp(self):
        x = np.array([[3.0, 4.0], [3.0, 4.0], [0.0, 1.0]])
        loss = koleo_loss(x)
        assert np.isfinite(loss)
        # the duplicated pair contributes -log(1e-8) each
        expected_dup = -math.log(1e-8)
        assert loss > expected_dup * 0.5  # dominated by the clamp terms

    def test_matches_brute_force_n10(self):
        rng = np.random.default_rng(9)
        x = rng.normal(size=(10, 6))
        assert abs(koleo_loss(x) - oracle_koleo(x)) < 1e-12

    def test_matches_brute_force_up_to_64(self):
        rng = np.random.default_rng(10)
        for n in (2, 3, 5, 17, 33, 64):
            x = rng.normal(size=(n, 5))
            assert abs(koleo_loss(x) - oracle_koleo(x)) < 1e-12

    def test_gradient_matches_fd(self):
        rng = np.random.default_rng(11)
        x = rng.normal(size=(6, 4))
        _, grad = koleo_loss_grad(x)
        h = 1e-5
        worst = 0.0
        for i in range(6):
            for j in range(4):
                xp = x.copy(); xp[i, j] += h
                xm = x.copy(); xm[i, j] -= h
                num = (koleo_loss(xp) - koleo_loss(xm)) / (2 * h)
                rel = abs(grad[i, j] - num) / max(1e-6, abs(grad[i, j]), abs(num))
                worst = max(worst, rel)
        assert worst <= 1e-4


def oracle_gram(xs, xg):
    def norm_rows(m):
        out = []
        for r in m:
            nrm = math.sqrt(sum(float(v) ** 2 for v in r))
            out.append([float(v) / nrm for v in r])
        return out

    a = norm_rows(xs)
    b = norm_rows(xg)
    n = len(a)
    total = 0.0
    for i in range(n):
        for j in range(n):
            ga = sum(a[i][k] * a[j][k] for k in range(len(a[0])))
            gb = sum(b[i][k] * b[j][k] for k in range(len(b[0])))
            total += (ga - gb) ** 2
    return total / (n * n)


class TestGramLoss:
    def test_equal_inputs_zero(self):
        rng = np.random.default_rng(12)
        x = rng.normal(size=(7, 5))
        assert gram_loss(x, x) == 0.0

    def test_permuted_rows_nonzero_and_matches_oracle(self):
        rng = np.random.default_rng(13)
        x = rng.normal(size=(6, 4))
        perm = np.array([2, 0, 1, 5, 3, 4])
        got = gram_loss(x, x[perm])
        assert got > 1e-4
        assert abs(got - oracle_gram(x, x[perm])) < 1e-12

    def test_two_row_closed_form(self):
        """Orthonormal student vs rank-1 teacher: gap entries are the
        two off-diagonal ones, each 1, so loss = 2/4 = 0.5."""
        xs = np.eye(2)
        xg = np.array([[1.0, 0.0], [1.0, 0.0]])
        assert abs(gram_loss(xs, xg) - 0.5) < 1e-15
        assert abs(oracle_gram(xs, xg) - 0.5) < 1e-15

    def test_rotation_invariance(self):
        rng = np.random.default_rng(14)
        xs = rng.normal(size=(5, 4))
        xg = rng.normal(size=(5, 4))
        q, _ = np.linalg.qr(rng.normal(size=(4, 4)))
        base = gram_loss(xs, xg)
        rotated = gram_loss(xs @ q, xg @ q)
        assert abs(base - rotated) < 1e-10

    def test_gradient_matches_fd(self):
        rng = np.random.default_rng(15)
        xs = rng.normal(size=(5, 3))
        xg = rng.normal(size=(5, 3))
        _, grad = gram_loss_grad(xs, xg)
        h = 1e-5
        worst = 0.0
        for i in range(5):
            for j in range(3):
                xp = xs.copy(); xp[i, j] += h
                xm = xs.copy(); xm[i, j] -= h
                num = (gram_loss(xp, xg) - gram_loss(xm, xg)) / (2 * h)
                rel = abs(grad[i, j] - num) / max(1e-6, abs(grad[i, j]), abs(num))
                worst = max(worst, rel)
        assert worst <= 1e-4

    @pytest.mark.parametrize("views", [1, 2, 7])
    def test_view_stack_is_per_view_mean(self, views):
        """Leading axes index views: the value is the mean of the
        per-view values and the gradient each view's gradient divided
        by the view count, byte for byte."""
        rng = np.random.default_rng(16)
        xs = rng.normal(size=(views, 5, 3))
        xg = rng.normal(size=(views, 5, 3))
        per_view = [gram_loss_grad(xs[v], xg[v]) for v in range(views)]
        loss, grad = gram_loss_grad(xs, xg)
        assert loss == float(np.mean([value for value, _ in per_view]))
        want = np.stack([g / views for _, g in per_view])
        assert grad.tobytes() == want.tobytes()


class TestHeads:
    def test_shapes(self):
        hp = init_tensors(head_layout(16, 32), RngStream(seed=0))
        x = np.random.default_rng(16).normal(size=(5, 16))
        logits, _ = head_forward(x, hp)
        assert logits.shape == (5, 32)

    def test_gradients_match_fd(self):
        hp = init_tensors(head_layout(6, 9), RngStream(seed=1))
        rng = np.random.default_rng(17)
        x = rng.normal(size=(4, 6))
        r = rng.normal(size=(4, 9))

        def loss():
            lg, _ = head_forward(x, hp)
            return float((lg * r).sum())

        lg, cache = head_forward(x, hp)
        grads, dx = head_backward(r, cache, hp)
        h = 1e-5
        worst = 0.0
        for name in hp:
            flat = hp[name].reshape(-1)
            g = grads[name].reshape(-1)
            idxs = np.random.default_rng(18).choice(
                flat.size, size=min(20, flat.size), replace=False)
            for idx in idxs:
                old = flat[idx]
                flat[idx] = old + h; lp = loss()
                flat[idx] = old - h; lm = loss()
                flat[idx] = old
                num = (lp - lm) / (2 * h)
                worst = max(worst, abs(g[idx] - num)
                            / max(1e-6, abs(g[idx]), abs(num)))
        # input gradient too
        for i in range(4):
            for j in range(6):
                old = x[i, j]
                x[i, j] = old + h; lp = loss()
                x[i, j] = old - h; lm = loss()
                x[i, j] = old
                num = (lp - lm) / (2 * h)
                worst = max(worst, abs(dx[i, j] - num)
                            / max(1e-6, abs(dx[i, j]), abs(num)))
        assert worst <= 1e-4


class TestLossBreakdown:
    def test_total_formula(self):
        rng = np.random.default_rng(19)
        for _ in range(10):
            cfg = cfg_small(koleo_weight=float(rng.uniform(0, 2)),
                            gram_weight=float(rng.uniform(0, 2)))
            d, i, k, g = rng.uniform(0, 3, size=4)
            lb = LossBreakdown.compute(d, i, k, g, cfg)
            assert abs(lb.total - (d + i + cfg.koleo_weight * k
                                   + cfg.gram_weight * g)) < 1e-12


def tiny_setup(seed=0, k=32):
    enc_cfg = EncoderConfig(image_size=32, token_size=16, embed_dim=16,
                            depth=2, num_heads=2, mlp_ratio=2.0)
    ssl_cfg = SslConfig(prototype_count=k, mask_fraction=0.4)
    aug_cfg = StainAugConfig()
    rng = np.random.default_rng(seed)
    corpus = [rng.integers(40, 220, size=(32, 32, 3)).astype(np.uint8)
              for _ in range(64)]
    return enc_cfg, ssl_cfg, aug_cfg, corpus


def train_on(rasters, state, ssl_cfg, enc_cfg, aug_cfg, rng, **kw):
    """``train_step`` on the views ``_step_views`` builds from
    ``rasters`` at ``state.step``, as ``run_training`` feeds it."""
    views = _step_views(rasters, state.step, ssl_cfg, enc_cfg, aug_cfg, rng)
    return train_step(views, state, ssl_cfg, enc_cfg, aug_cfg, **kw)


class TestTrainStep:
    @pytest.mark.parametrize("fraction, masked",
                             [(0.001, 1), (0.3, 5), (0.999, 15)])
    def test_mask_count_is_clamped(self, fraction, masked):
        """A fraction that rounds to no masked token masks one; one
        that rounds to every token leaves one unmasked."""
        enc_cfg, _, aug_cfg, corpus = tiny_setup()
        enc_cfg = replace(enc_cfg, token_size=8)   # 16 patches
        for seed in range(3):
            _, masks = _step_views(
                corpus[:2], seed, SslConfig(mask_fraction=fraction),
                enc_cfg, aug_cfg, RngStream(seed=seed))
            assert masks.sum(axis=1).tolist() == [masked] * 4

    def test_pretrain_gram_exactly_zero(self):
        enc_cfg, ssl_cfg, aug_cfg, corpus = tiny_setup()
        state = init_train_state(enc_cfg, ssl_cfg, RngStream(seed=1))
        lb = train_on(corpus[:4], state, ssl_cfg, enc_cfg, aug_cfg,
                      RngStream(seed=2), phase=PRETRAIN)
        assert lb.gram == 0.0
        assert np.isfinite(lb.total)
        assert lb.dino >= 0 and lb.ibot >= 0

    def test_posttrain_gram_nonzero_at_start(self):
        """Student == gram teacher parameters, but the student runs
        masked, so the anchor still bites on step one."""
        enc_cfg, ssl_cfg, aug_cfg, corpus = tiny_setup()
        state = init_train_state(enc_cfg, ssl_cfg, RngStream(seed=5))
        state.gram_teacher = {k: v.copy()
                              for k, v in _sub(state.student, "enc.").items()}
        lb = train_on(corpus[:4], state, ssl_cfg, enc_cfg, aug_cfg,
                      RngStream(seed=6), phase=POSTTRAIN)
        assert np.isfinite(lb.gram)
        assert lb.gram > 0

    def test_frozen_teacher_at_momentum_one(self):
        enc_cfg, _, aug_cfg, corpus = tiny_setup()
        ssl_cfg = SslConfig(prototype_count=32, ema_momentum=1.0)
        state = init_train_state(enc_cfg, ssl_cfg, RngStream(seed=7))
        before = {k: v.copy() for k, v in state.teacher.items()}
        for _ in range(3):
            train_on(corpus[:4], state, ssl_cfg, enc_cfg, aug_cfg,
                     RngStream(seed=8))
        for k in before:
            np.testing.assert_array_equal(state.teacher[k], before[k])

    def test_student_moves_teacher_follows(self):
        enc_cfg, ssl_cfg, aug_cfg, corpus = tiny_setup()
        state = init_train_state(enc_cfg, ssl_cfg, RngStream(seed=9))
        s_before = state.student["enc.embed.W"].copy()
        t_before = state.teacher["enc.embed.W"].copy()
        train_on(corpus[:4], state, ssl_cfg, enc_cfg, aug_cfg,
                 RngStream(seed=10))
        assert np.abs(state.student["enc.embed.W"] - s_before).max() > 0
        drift_t = np.abs(state.teacher["enc.embed.W"] - t_before).max()
        drift_s = np.abs(state.student["enc.embed.W"] - s_before).max()
        assert 0 < drift_t < drift_s  # EMA trails the student

    @pytest.mark.parametrize("name, call, term", [
        ("centered_ce_loss_grad", 0, "dino"),
        ("centered_ce_loss_grad", 1, "ibot"),
        ("koleo_loss_grad", 0, "koleo"),
        ("gram_loss_grad", 0, "gram")])
    def test_non_finite_term_is_named(self, monkeypatch, name, call, term):
        """A loss term gone NaN stops the step with its name and step
        number, before any parameter moves."""
        real, calls = getattr(ssl_module, name), []

        def nan_at_call(*args):
            value, grad = real(*args)
            calls.append(name)
            return (np.nan if len(calls) == call + 1 else value), grad

        monkeypatch.setattr(ssl_module, name, nan_at_call)
        enc_cfg, ssl_cfg, aug_cfg, corpus = tiny_setup()
        state = init_train_state(enc_cfg, ssl_cfg, RngStream(seed=15))
        state.gram_teacher = _sub(state.student, "enc.")
        state.step = 5
        before = state_sha256(state)
        with pytest.raises(NumericError,
                           match=f"^{term} term non-finite at step 6$"):
            train_on(corpus[:2], state, ssl_cfg, enc_cfg, aug_cfg,
                     RngStream(seed=16), phase=POSTTRAIN)
        assert state.step == 5 and state_sha256(state) == before

    def test_deterministic_sequence(self):
        enc_cfg, ssl_cfg, aug_cfg, corpus = tiny_setup()
        seqs = []
        for _ in range(2):
            state = init_train_state(enc_cfg, ssl_cfg, RngStream(seed=11))
            hist = run_training(corpus, state, ssl_cfg, enc_cfg, aug_cfg,
                                RngStream(seed=12), steps=5, batch_size=4)
            seqs.append([(lb.dino, lb.ibot, lb.koleo, lb.total)
                         for lb in hist])
        assert seqs[0] == seqs[1]

    def test_total_invariant_on_history(self):
        enc_cfg, ssl_cfg, aug_cfg, corpus = tiny_setup()
        state = init_train_state(enc_cfg, ssl_cfg, RngStream(seed=13))
        hist = run_training(corpus, state, ssl_cfg, enc_cfg, aug_cfg,
                            RngStream(seed=14), steps=3, batch_size=4)
        for lb in hist:
            expect = (lb.dino + lb.ibot + ssl_cfg.koleo_weight * lb.koleo
                      + ssl_cfg.gram_weight * lb.gram)
            assert abs(lb.total - expect) < 1e-12

    def test_log_file_written(self, tmp_path):
        """The loss log appears beside the checkpoint once training
        succeeds: a header, then one line per step of ``run_training``'s
        history."""
        ck = tmp_path / "c.ckpt"
        assert cli_main(["pretrain", "--steps", "3", "--batch-size", "2",
                         "--out", str(ck), "--log-level", "quiet"]) == 0
        lines = [json.loads(l) for l in
                 (tmp_path / "c.ckpt.losses.jsonl").read_text().splitlines()]
        assert len(lines) == 4
        assert set(lines[0]) == {"config_fingerprint", "phase"}
        assert all(set(l) == {"step", "dino", "ibot", "koleo", "gram",
                              "total"} for l in lines[1:])

    @pytest.mark.parametrize("phase, config, message", [
        (PRETRAIN, {"koleo_weight": 1e308}, "weighted total"),
        (POSTTRAIN, {"gram_weight": 1e308}, "squared gradient norm")])
    def test_diverging_step_is_named(self, phase, config, message):
        """A weighted total or a gradient gone non-finite stops the step
        with its step number, before Adam, the EMA or a center moves."""
        enc_cfg, ssl_cfg, aug_cfg, corpus = tiny_setup()
        ssl_cfg = replace(ssl_cfg, **config)
        state = init_train_state(enc_cfg, ssl_cfg, RngStream(seed=17))
        state.gram_teacher = {k: v + 0.1 for k, v
                              in _sub(state.student, "enc.").items()}
        state.step = 4
        before = state_sha256(state)
        with pytest.raises(NumericError,
                           match=f"^{message} non-finite at step 5$"):
            with np.errstate(over="ignore", invalid="ignore"):
                train_on(corpus[:2], state, ssl_cfg, enc_cfg, aug_cfg,
                         RngStream(seed=18), phase=phase)
        assert state.step == 4 and state.adam["t"] == 0
        assert state_sha256(state) == before


def teacher_logits(views, state, enc_cfg):
    """The teacher's class and masked-patch prototype logits on the
    unmasked views, computed apart from ``train_step``."""
    patches, masks = views
    enc = _sub(state.teacher, "enc.")
    out, _ = forward_batch(tokenize_batch(patches, enc), enc_cfg, enc)
    return (head_forward(out[:, 0], _sub(state.teacher, "cls_head."))[0],
            head_forward(out[:, 1:][masks],
                         _sub(state.teacher, "patch_head."))[0])


class TestStepUpdate:
    """The update half of ``train_step`` against its formulas, on a
    state one step past its start so that the teacher, the student and
    the centers all differ."""

    @staticmethod
    def stepped():
        enc_cfg, ssl_cfg, aug_cfg, corpus = tiny_setup()
        ssl_cfg = replace(ssl_cfg, ema_momentum=0.7, center_momentum=0.6)
        state = init_train_state(enc_cfg, ssl_cfg, RngStream(seed=41))
        train_on(corpus[:4], state, ssl_cfg, enc_cfg, aug_cfg,
                 RngStream(seed=42))
        views = _step_views(corpus[4:8], state.step, ssl_cfg, enc_cfg,
                            aug_cfg, RngStream(seed=42))
        before = copy.deepcopy(state)
        train_step(views, state, ssl_cfg, enc_cfg, aug_cfg)
        return before, state, ssl_cfg, teacher_logits(views, before, enc_cfg)

    def test_teacher_is_the_momentum_mean(self):
        """Each teacher tensor is m * teacher before + (1 - m) * the
        student after its Adam step."""
        before, after, ssl_cfg, _ = self.stepped()
        m = ssl_cfg.ema_momentum
        assert sorted(after.teacher) == sorted(before.teacher)
        for k, t in before.teacher.items():
            np.testing.assert_array_equal(
                after.teacher[k], m * t + (1 - m) * after.student[k])

    def test_centers_follow_the_teacher_logit_means(self):
        """Both centers are cm * center + (1 - cm) * the batch mean of
        the teacher's logits (every view's class token, every masked
        patch)."""
        before, after, ssl_cfg, (cls_t, patch_t) = self.stepped()
        cm = ssl_cfg.center_momentum
        np.testing.assert_array_equal(
            after.cls_center,
            cm * before.cls_center + (1 - cm) * cls_t.mean(axis=0))
        np.testing.assert_array_equal(
            after.patch_center,
            cm * before.patch_center + (1 - cm) * patch_t.mean(axis=0))

    def test_dino_pairs_teacher_view_a_with_student_view_b(self):
        """On views built to differ (view b of item i is another image),
        the image-level term is the cross-entropy of student view a
        against teacher view b and of b against a, not of a view
        against itself."""
        enc_cfg, ssl_cfg, aug_cfg, corpus = tiny_setup()
        state = init_train_state(enc_cfg, ssl_cfg, RngStream(seed=43))
        b = 3
        _, masks = _step_views(corpus[:b], 0, ssl_cfg, enc_cfg, aug_cfg,
                               RngStream(seed=44))
        patches = np.stack([patchify(corpus[i + b * vi], enc_cfg)
                            for i in range(b) for vi in range(2)])
        enc = _sub(state.student, "enc.")
        out, _ = forward_batch(tokenize_batch(patches, enc, masks),
                               enc_cfg, enc)
        logits_s = head_forward(out[:, 0], _sub(state.student, "cls_head."))[0]
        logits_t, _ = teacher_logits((patches, masks), state, enc_cfg)
        crossed, same = (
            centered_ce_loss_grad(logits_s, t, state.cls_center, ssl_cfg)[0]
            for t in (logits_t[[1, 0, 3, 2, 5, 4]], logits_t))
        assert crossed != same
        lb = train_step((patches, masks), state, ssl_cfg, enc_cfg, aug_cfg)
        assert lb.dino == crossed


# (augmentation on, phase) of each whole-step gradient check
STEP_CASES = {"augmented-pretrain": (True, PRETRAIN),
              "plain-pretrain": (False, PRETRAIN),
              "posttrain": (True, POSTTRAIN)}


@pytest.mark.parametrize("case", sorted(STEP_CASES))
def test_train_step_gradient_matches_central_differences(monkeypatch, case):
    """The gradient a training step hands Adam is the derivative of the
    step's ``LossBreakdown.total`` over all 31 student tensors, with
    everything the per-term checks leave out: the swap of teacher rows,
    the repeat of unmasked rows, the Gram term in the output gradient,
    the masked-row scatter and the token gradients.  Along 4 seeded
    directions the analytic directional derivative matches central
    differences (h = 1e-6) on the desk config at batch 4; post-training
    runs against a perturbed Gram anchor."""
    aug_on, phase = STEP_CASES[case]
    desk = AblationConfig()
    enc_cfg, ssl_cfg = desk.encoder, desk.ssl
    aug_cfg = replace(desk.aug, enabled=aug_on)
    rasters = make_pretrain_corpus(RngStream(seed=0, stream_id=10), count=4,
                                   image_size=enc_cfg.image_size)
    views = _step_views(rasters, 0, ssl_cfg, enc_cfg, aug_cfg,
                        RngStream(seed=0, stream_id=12))
    state = init_train_state(enc_cfg, ssl_cfg, RngStream(seed=0, stream_id=11))
    if phase == POSTTRAIN:
        noise = RngStream(seed=0, stream_id=13)
        state.gram_teacher = {
            name: w + 0.05 * noise.gaussian(w.size).reshape(w.shape)
            for name, w in sorted(_sub(state.student, "enc.").items())}
    # the captured gradients; the state's weights stay where they are
    seen = []
    monkeypatch.setattr(ssl_module, "adam_step",
                        lambda params, grads, *rest: seen.append(grads))

    def total(direction=None, h=0.0):
        moved = copy.deepcopy(state)
        for name, d in (direction or {}).items():
            moved.student[name] += h * d
        return train_step(views, moved, ssl_cfg, enc_cfg, aug_cfg,
                          phase=phase).total

    total()
    grads = seen[0]
    assert sorted(grads) == sorted(state.student) and len(grads) == 31
    h, worst = 1e-6, 0.0
    for i in range(4):
        draw = RngStream(seed=i, stream_id=14)
        direction = {name: draw.gaussian(w.size).reshape(w.shape)
                     for name, w in sorted(state.student.items())}
        analytic = sum(float(np.vdot(grads[name], d))
                       for name, d in direction.items())
        numeric = (total(direction, h) - total(direction, -h)) / (2 * h)
        worst = max(worst, abs(analytic - numeric)
                    / max(1e-6, abs(analytic), abs(numeric)))
    assert worst <= TOLERANCE, f"{case}: relative error {worst:.3e}"


def state_sha256(state) -> str:
    h = hashlib.sha256()
    for group in (state.student, state.teacher, state.adam["m"],
                  state.adam["v"]):
        for name in sorted(group):
            h.update(name.encode("ascii"))
            h.update(np.ascontiguousarray(group[name]).tobytes())
    h.update(state.cls_center.tobytes())
    h.update(state.patch_center.tobytes())
    return h.hexdigest()


def trained_state(phase, aug_cfg, batch_size):
    """tiny_setup's state after three steps; post-training anchors to
    the initial student encoder."""
    enc_cfg, ssl_cfg, _, corpus = tiny_setup()
    state = init_train_state(enc_cfg, ssl_cfg, RngStream(seed=23))
    if phase == POSTTRAIN:
        state.gram_teacher = {k: v.copy()
                              for k, v in _sub(state.student, "enc.").items()}
    run_training(corpus, state, ssl_cfg, enc_cfg, aug_cfg, RngStream(seed=24),
                 steps=3, batch_size=batch_size, phase=phase)
    return state


# Final-state digests from the per-view tokenize path, so that batching
# the step cannot change a byte of training.
TRAIN_PINS = {
    PRETRAIN: "340c1eb9b835ae9826ca3fb80e96bc92717bd0766abf5115a26b5d727fef58d0",
    POSTTRAIN: "248411fd3c9e0be98b9aba0e39d0214a54e599f4cf1fbd8b0648ef65750cc63a",
}

# Unaugmented final-state digests, taken while the teacher and the Gram
# teacher still ran on every view, so running them once per item cannot
# change a byte; batch 1 and an odd batch included.
PLAIN_TRAIN_PINS = {
    (PRETRAIN, 1): "a6f2153bd2c990cdf322138af508b0d1a7396b789b63875c90e4df89924706c6",
    (PRETRAIN, 3): "fb257d047ffa9be6abd7cbcb529bb1756c9f23cd0457d645fccc7b6cda6e7ca6",
    (POSTTRAIN, 1): "d219982f239de80795de9b4f7b0a4d0e6dfcda95aaed29f2d03e14cb13ea2489",
    (POSTTRAIN, 3): "926596dfc1f11fbba177a25f9a470b754f8c2a216337138509c38b63050d7377",
}


@pytest.mark.parametrize("phase", [PRETRAIN, POSTTRAIN])
def test_train_state_golden(phase):
    state = trained_state(phase, StainAugConfig(), batch_size=4)
    assert state_sha256(state) == TRAIN_PINS[phase]


@pytest.mark.parametrize("phase, batch_size", sorted(PLAIN_TRAIN_PINS))
def test_plain_train_state_golden(phase, batch_size):
    state = trained_state(phase, StainAugConfig(enabled=False), batch_size)
    assert state_sha256(state) == PLAIN_TRAIN_PINS[phase, batch_size]


@pytest.mark.parametrize("enabled, rows", [(False, [6, 3, 3]),
                                           (True, [6, 6, 6])])
def test_forward_rows_per_step(monkeypatch, enabled, rows):
    """One post-training step over 3 items: the masked student runs
    every view; the teacher and the Gram teacher run once per item when
    the two views of an item are equal, once per view otherwise."""
    seen = []

    def counting(z0, *args, **kw):
        seen.append(len(z0))
        return forward_batch(z0, *args, **kw)

    enc_cfg, ssl_cfg, _, corpus = tiny_setup()
    state = init_train_state(enc_cfg, ssl_cfg, RngStream(seed=27))
    state.gram_teacher = _sub(state.student, "enc.")
    monkeypatch.setattr(ssl_module, "forward_batch", counting)
    train_on(corpus[:3], state, ssl_cfg, enc_cfg,
             StainAugConfig(enabled=enabled), RngStream(seed=28),
             phase=POSTTRAIN)
    assert seen == rows


class TestLane:
    """A step given a lane, the helper thread ``run_training`` makes
    when a core is free, against the same step in line: the same bytes,
    the same errors in the same order, and nothing moved by a failure."""

    CONFIGS = {"desk": AblationConfig().encoder, "default": EncoderConfig()}

    @staticmethod
    def both(step):
        """``step(lane)`` in line, then with a lane."""
        with ThreadPoolExecutor(1) as lane:
            return step(None), step(lane)

    @pytest.mark.parametrize("config", sorted(CONFIGS))
    @pytest.mark.parametrize("enabled", [True, False])
    @pytest.mark.parametrize("phase", [PRETRAIN, POSTTRAIN])
    def test_same_bytes(self, config, enabled, phase):
        """Two steps of a state whose Gram anchor differs from its
        student: equal state bytes and loss records either way."""
        enc_cfg = self.CONFIGS[config]
        ssl_cfg = AblationConfig().ssl
        aug_cfg = replace(AblationConfig().aug, enabled=enabled)
        corpus = make_pretrain_corpus(RngStream(seed=3, stream_id=10),
                                      count=6, image_size=enc_cfg.image_size)

        def stepped(lane):
            state = init_train_state(enc_cfg, ssl_cfg, RngStream(seed=43))
            state.gram_teacher = {k: v + 0.01 for k, v
                                  in _sub(state.student, "enc.").items()}
            losses = [asdict(train_on(corpus[2 * s:2 * s + 3], state,
                                      ssl_cfg, enc_cfg, aug_cfg,
                                      RngStream(seed=44), phase=phase,
                                      lane=lane))
                      for s in range(2)]
            return state_sha256(state), losses

        inline, laned = self.both(stepped)
        assert laned == inline

    def test_same_bytes_at_a_short_switch_interval(self):
        """Five plain post-training steps with the interpreter switching
        threads every microsecond, within 120 s, against the same steps
        in line."""
        enc_cfg, ssl_cfg, aug_cfg, corpus = tiny_setup()
        aug_cfg = replace(aug_cfg, enabled=False)

        def stepped(lane):
            state = fresh_state(ssl_cfg, enc_cfg, POSTTRAIN, 0)
            for s in range(5):
                train_on(corpus[3 * s:3 * s + 3], state, ssl_cfg, enc_cfg,
                         aug_cfg, RngStream(seed=49), phase=POSTTRAIN,
                         lane=lane)
            return state_sha256(state)

        def hung(signum, frame):
            raise TimeoutError("a lane step did not return")

        interval = sys.getswitchinterval()
        before = signal.signal(signal.SIGALRM, hung)
        sys.setswitchinterval(1e-6)
        signal.alarm(120)
        try:
            inline, laned = self.both(stepped)
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, before)
            sys.setswitchinterval(interval)
        assert laned == inline

    @pytest.mark.parametrize("fault, message", [
        ("teacher", "layer 1: non-finite activations"),
        ("gram", "layer 1: non-finite activations"),
        ("gram and dino", "dino term non-finite at step 4"),
        ("student and teacher", "layer 0: non-finite activations")])
    def test_errors_keep_their_serial_order(self, monkeypatch, fault,
                                            message):
        """A NaN weight in the teacher or the Gram teacher fails the
        step with that pass's error.  A Gram pass that fails on the lane
        does not pre-empt the image-level term's guard, which serial
        code reaches first; a failing student pass pre-empts a failing
        teacher.  No tensor moves."""
        enc_cfg, ssl_cfg, aug_cfg, corpus = tiny_setup()
        aug_cfg = replace(aug_cfg, enabled=False)
        real = ssl_module.centered_ce_loss_grad

        def dino_nan(*args):
            value, grad = real(*args)
            return np.nan, grad

        if "dino" in fault:
            monkeypatch.setattr(ssl_module, "centered_ce_loss_grad",
                                dino_nan)

        def failed(lane):
            state = init_train_state(enc_cfg, ssl_cfg, RngStream(seed=45))
            state.gram_teacher = copy.deepcopy(_sub(state.student, "enc."))
            state.step = 3
            for name, weights in (("student", _sub(state.student, "enc.")),
                                  ("teacher", _sub(state.teacher, "enc.")),
                                  ("gram", state.gram_teacher)):
                if name in fault:
                    layer = 0 if name == "student" else 1
                    weights[f"layer{layer}.mlp.W2"][0, 0] = np.nan
            before = state_sha256(state)
            with pytest.raises(NumericError) as raised:
                train_on(corpus[:3], state, ssl_cfg, enc_cfg, aug_cfg,
                         RngStream(seed=46), phase=POSTTRAIN, lane=lane)
            assert state.step == 3 and state_sha256(state) == before
            return str(raised.value)

        assert self.both(failed) == (message, message)

    @pytest.mark.parametrize("phase, config, scale, message", [
        (PRETRAIN, {"koleo_weight": 1e308}, 1.0,
         "weighted total non-finite at step 1"),
        (POSTTRAIN, {"gram_weight": 1e308}, 1.0,
         "squared gradient norm non-finite at step 1"),
        (PRETRAIN, {}, np.inf, "layer 0: non-finite activations")])
    def test_divergence_warns_on_no_thread(self, phase, config, scale,
                                           message):
        """A diverging step, or a teacher whose first MLP turns
        infinite on the lane, raises its guard's error alone: numpy's
        floating-point warnings stay off on the calling thread and on
        the lane's."""
        enc_cfg, ssl_cfg, aug_cfg, corpus = tiny_setup()
        ssl_cfg = replace(ssl_cfg, **config)
        aug_cfg = replace(aug_cfg, enabled=False)

        def failed(lane):
            state = init_train_state(enc_cfg, ssl_cfg, RngStream(seed=17))
            state.gram_teacher = {k: v + 0.1 for k, v
                                  in _sub(state.student, "enc.").items()}
            state.teacher["enc.layer0.mlp.W1"] *= scale
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(NumericError) as raised:
                    train_on(corpus[:2], state, ssl_cfg, enc_cfg, aug_cfg,
                             RngStream(seed=18), phase=phase, lane=lane)
            return str(raised.value)

        assert self.both(failed) == (message, message)

    def test_backward_batch_is_called_with_the_lane(self, monkeypatch):
        """The weight gradients get the step's lane, not None."""
        enc_cfg, ssl_cfg, aug_cfg, corpus = tiny_setup()
        real, seen = ssl_module.backward_batch, []

        def recording(*args):
            seen.append(args[3])
            return real(*args)

        monkeypatch.setattr(ssl_module, "backward_batch", recording)
        state = init_train_state(enc_cfg, ssl_cfg, RngStream(seed=47))
        with ThreadPoolExecutor(1) as lane:
            train_on(corpus[:2], state, ssl_cfg, enc_cfg, aug_cfg,
                     RngStream(seed=48), lane=lane)
        assert seen == [lane]


def per_view_mask(rng, n, fraction):
    """The student mask as one draw per view made it."""
    m = min(max(1, int(round(fraction * n))), n - 1)
    mask = np.zeros(n, dtype=bool)
    mask[rng.permutation(n)[:m]] = True
    return mask


def per_view_step_views(rasters, step, ssl_cfg, enc_cfg, aug_cfg, rng):
    """The view builder as it was when each view drew on its own
    streams: a derive, a ``uniform(1)`` coin, one ``stain_augment`` and
    one mask draw per view."""
    b, n = len(rasters), enc_cfg.num_patches
    patches = np.empty((2 * b, n, enc_cfg.patch_dim))
    masks = np.empty((2 * b, n), dtype=bool)
    for i in range(b):
        item_rng = rng.derive(step, i)
        for vi in range(2):
            if aug_cfg.enabled:
                view_rng = item_rng.derive(vi)
                pick = "lab" if view_rng.uniform(1)[0] < 0.5 else "hsv"
                view = stain_augment(rasters[i],
                                     replace(aug_cfg, space=pick), view_rng)
                patches[2 * i + vi] = patchify(view, enc_cfg)
            elif vi == 0:
                patches[2 * i:2 * i + 2] = patchify(rasters[i], enc_cfg)
            masks[2 * i + vi] = per_view_mask(item_rng.derive(2 + vi), n,
                                              ssl_cfg.mask_fraction)
    return patches, masks


@pytest.mark.parametrize("enabled", [True, False])
@pytest.mark.parametrize("batch", [1, 3, 8])
@pytest.mark.parametrize("token_size, num_patches", [(16, 4), (8, 16)])
def test_step_views_equal_per_view_draws(enabled, batch, token_size,
                                         num_patches):
    """One block draw and one conversion per (item, space) build the
    bytes that per-view streams and per-view ``stain_augment`` built."""
    enc_cfg, ssl_cfg, aug_cfg, corpus = tiny_setup()
    enc_cfg = replace(enc_cfg, token_size=token_size)
    assert enc_cfg.num_patches == num_patches
    aug_cfg = replace(aug_cfg, enabled=enabled)
    for step in (0, 7, 2**40 + 3):
        for seed in (0, 2**63 + 5):
            args = (corpus[step % 7:step % 7 + batch], step, ssl_cfg,
                    enc_cfg, aug_cfg, RngStream(seed=seed, stream_id=12))
            got, want = _step_views(*args), per_view_step_views(*args)
            for a, b in zip(got, want):
                assert a.dtype == b.dtype and a.shape == b.shape
                assert a.tobytes() == b.tobytes()


def serial_training(corpus, state, ssl_cfg, enc_cfg, aug_cfg, rng, steps,
                    batch_size, phase):
    """run_training's loop with every step's views built in line, just
    before the step trains on them: the reference the lookahead must
    equal."""
    history = []
    for _ in range(steps):
        pick = rng.derive(9001, state.step).integers(batch_size, len(corpus))
        lb = train_on([corpus[int(i)] for i in pick], state, ssl_cfg,
                      enc_cfg, aug_cfg, rng, phase=phase)
        history.append(lb)
    return history


def fresh_state(ssl_cfg, enc_cfg, phase, start):
    state = init_train_state(enc_cfg, ssl_cfg, RngStream(seed=31))
    if phase == POSTTRAIN:
        state.gram_teacher = {k: v.copy()
                              for k, v in _sub(state.student, "enc.").items()}
    state.step = start
    return state


class TestLookahead:
    """run_training builds each step's views in one forked worker
    process; nothing it returns or leaves in the state may tell, no
    buffer the caller holds is flushed twice, and no process outlives
    the call."""

    BATCH = 2

    @staticmethod
    def assert_no_child():
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    @pytest.mark.parametrize("enabled", [True, False])
    @pytest.mark.parametrize("phase", [PRETRAIN, POSTTRAIN])
    @pytest.mark.parametrize("steps, start", [(0, 0), (1, 0), (3, 0),
                                              (3, 3)])
    def test_equals_serial_loop(self, tmp_path, monkeypatch, enabled, phase,
                                steps, start):
        enc_cfg, ssl_cfg, aug_cfg, corpus = tiny_setup()
        aug_cfg = replace(aug_cfg, enabled=enabled)

        def outcome(train):
            state = fresh_state(ssl_cfg, enc_cfg, phase, start)
            held = tmp_path / "held.txt"
            with open(held, "w", encoding="ascii") as fh:
                fh.write("unflushed\n")   # a forked child must not flush it
                hist = train(state)
            return state_sha256(state), state.step, hist, held.read_bytes()

        serial = outcome(lambda state: serial_training(
            corpus, state, ssl_cfg, enc_cfg, aug_cfg, RngStream(seed=32),
            steps, self.BATCH, phase))

        # one line per remapped view, appended by whichever process
        # builds it
        augmented = tmp_path / "augmented.txt"
        real = ssl_module.stain_remap

        def counting(*args):
            with open(augmented, "a", encoding="ascii") as fh:
                fh.write(args[-1] + "\n")
            return real(*args)

        monkeypatch.setattr(ssl_module, "stain_remap", counting)
        lookahead = outcome(lambda state: run_training(
            corpus, state, ssl_cfg, enc_cfg, aug_cfg, RngStream(seed=32),
            steps, self.BATCH, phase=phase))
        self.assert_no_child()
        assert lookahead == serial
        assert lookahead[1] == start + steps and len(lookahead[2]) == steps
        assert lookahead[3] == b"unflushed\n"
        # no view is built for a step that never runs
        built = augmented.read_text().split() if augmented.exists() else []
        assert len(built) == (2 * self.BATCH * steps if enabled else 0)

    @pytest.mark.parametrize("enabled", [True, False])
    @pytest.mark.parametrize("exc", [None, NumericError("koleo"),
                                     KeyboardInterrupt()],
                             ids=["returns", "raises", "interrupted"])
    def test_lane_never_outlives_the_call(self, monkeypatch, enabled, exc):
        """A step has a lane exactly when the process has more cores
        than the trainer and, with augmentation on, the view worker keep
        busy; once ``run_training`` returns or raises, even while the
        lane still runs the Gram pass, no thread is left."""
        enc_cfg, ssl_cfg, aug_cfg, corpus = tiny_setup()
        aug_cfg = replace(aug_cfg, enabled=enabled)
        state = fresh_state(ssl_cfg, enc_cfg, POSTTRAIN, 0)
        real, extra = ssl_module.koleo_loss_grad, []
        before = threading.enumerate()

        def counting(*args):   # after the teacher's join, before the Gram's
            extra.append(threading.active_count() - len(before))
            if exc is not None and len(extra) == 2:
                raise exc
            return real(*args)

        def train():
            run_training(corpus, state, ssl_cfg, enc_cfg, aug_cfg,
                         RngStream(seed=35), 3, self.BATCH, phase=POSTTRAIN)

        monkeypatch.setattr(ssl_module, "koleo_loss_grad", counting)
        if exc is None:
            train()
        else:
            with pytest.raises(type(exc)):
                train()
        self.assert_no_child()
        assert threading.enumerate() == before
        busy = 2 if enabled else 1
        lanes = 1 if len(os.sched_getaffinity(0)) > busy else 0
        assert extra == [lanes] * (3 if exc is None else 2)

    def test_worker_runs_at_most_two_steps_ahead(self, tmp_path,
                                                 monkeypatch):
        """When step s starts training, the worker has started building
        views for no step past s + 2: two slots bound the lookahead.
        Each step first waits, so a worker free to run further would."""
        enc_cfg, ssl_cfg, aug_cfg, corpus = tiny_setup()
        built = tmp_path / "built.txt"
        real_views, real_step = ssl_module._step_views, ssl_module.train_step

        def counting(rasters, step, *args):
            with open(built, "a", encoding="ascii") as fh:
                fh.write(f"{step}\n")
            return real_views(rasters, step, *args)

        ahead = []

        def waiting(views, state, *args, **kw):
            time.sleep(0.05)
            ahead.append(max(map(int, built.read_text().split()))
                         - state.step)
            return real_step(views, state, *args, **kw)

        monkeypatch.setattr(ssl_module, "_step_views", counting)
        monkeypatch.setattr(ssl_module, "train_step", waiting)
        state = fresh_state(ssl_cfg, enc_cfg, PRETRAIN, 0)
        run_training(corpus, state, ssl_cfg, enc_cfg, aug_cfg,
                     RngStream(seed=34), 6, self.BATCH)
        self.assert_no_child()
        assert len(ahead) == 6 and max(ahead) <= 2

    @staticmethod
    def fresh():
        enc_cfg, ssl_cfg, _, _ = tiny_setup()
        return fresh_state(ssl_cfg, enc_cfg, PRETRAIN, 0)

    def train(self, state, steps):
        """``state`` after ``steps`` steps of the run that
        ``run_until_failure`` starts."""
        enc_cfg, ssl_cfg, aug_cfg, corpus = tiny_setup()
        run_training(corpus, state, ssl_cfg, enc_cfg, aug_cfg,
                     RngStream(seed=33), steps, self.BATCH)
        return state

    def run_until_failure(self, exc):
        """Five steps that must fail with ``exc``'s type and message
        within 120 s, leaving no child process and the state that
        steps 0 and 1 alone leave."""
        state = self.fresh()

        def hung(signum, frame):
            raise TimeoutError("run_training did not return")

        before = signal.signal(signal.SIGALRM, hung)
        signal.alarm(120)
        try:
            with pytest.raises(type(exc)) as raised:
                self.train(state, 5)
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, before)
        assert type(raised.value) is type(exc)
        assert str(raised.value) == str(exc)
        self.assert_no_child()
        assert state.step == 2
        assert state_sha256(state) == state_sha256(self.train(self.fresh(), 2))

    @pytest.mark.parametrize("exc", [NumericError("dino term non-finite"),
                                     KeyboardInterrupt()],
                             ids=["NumericError", "KeyboardInterrupt"])
    def test_failing_step_leaves_no_child(self, monkeypatch, exc):
        real = ssl_module.train_step

        def failing(views, state, *args, **kw):
            if state.step == 2:
                raise exc
            return real(views, state, *args, **kw)

        monkeypatch.setattr(ssl_module, "train_step", failing)
        self.run_until_failure(exc)

    def test_failing_views_surface_at_their_step(self, monkeypatch):
        """Step 2's views fail in the worker while step 1 trains; the
        error, with its type and message, leaves once step 1 has
        trained, not before."""
        real = ssl_module._step_views

        def failing(rasters, step, *args):
            if step == 2:
                raise NumericError("views of step 2")
            return real(rasters, step, *args)

        monkeypatch.setattr(ssl_module, "_step_views", failing)
        self.run_until_failure(NumericError("views of step 2"))

    def test_dead_worker_is_an_error_not_a_hang(self, monkeypatch):
        """A worker killed while it builds step 2's views, which the
        parent can build, ends the call at step 2 with a named error."""
        parent, real = os.getpid(), ssl_module._step_views

        def killed(rasters, step, *args):
            if step == 2 and os.getpid() != parent:
                os.kill(os.getpid(), signal.SIGKILL)
            return real(rasters, step, *args)

        monkeypatch.setattr(ssl_module, "_step_views", killed)
        self.run_until_failure(
            NumericError("the view worker died before step 2's views"))


class TestSmokeTraining:
    def test_loss_decreases_over_200_steps(self):
        """Training signal: the 50-step moving average of the total
        falls from the start of the run to the end, and step 200's
        total sits below step 1's."""
        enc_cfg, ssl_cfg, aug_cfg, corpus = tiny_setup(seed=42)
        state = init_train_state(enc_cfg, ssl_cfg, RngStream(seed=21))
        hist = run_training(corpus, state, ssl_cfg, enc_cfg, aug_cfg,
                            RngStream(seed=22), steps=200, batch_size=8)
        totals = [lb.total for lb in hist]
        assert np.mean(totals[-50:]) < np.mean(totals[:50])
        assert totals[199] < totals[0]
