import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tokenhier.encoder import TokenSequence
from tokenhier.errors import ConfigError, NumericError
from tokenhier.heads import (ATTNPOOL, LINEAR, AttnPoolParams,
                             HeadTrainConfig, ProbeParams, _stack,
                             head_gradients, predict_batch,
                             probs_batch, train_head)
from tokenhier.numkernel import RngStream, softmax_backward, softmax_rows

from token_suite import make_token_suite


def linear_probe_forward(cls_token, p):
    """Probe probabilities for one class token, through the batch path."""
    cls = np.asarray(cls_token, dtype=np.float64)[None]
    return probs_batch(cls, None, p, LINEAR)[0][0]


def attnpool_forward(seq, p):
    """Pooling-head probabilities for one sequence, through the batch path."""
    return probs_batch(seq.cls[None], seq.patches[None], p, ATTNPOOL)[0][0]


def attention_pool(seq, p):
    """Pooled vector (D,) and per-head attention weights (H, N) of one
    sequence, read from the pooling cache that the batch path returns."""
    _, (h, cache) = probs_batch(seq.cls[None], seq.patches[None], p, ATTNPOOL)
    return h[0], cache["a"][0]


def make_seq(rng, d=8, n=5):
    return TokenSequence(rng.derive(0).gaussian(d),
                         rng.derive(1).gaussian(n * d).reshape(n, d))


def rand_attn_params(rng, d=8, c=3, heads=2):
    dh = d // heads
    g = lambda shape, k: rng.derive(k).gaussian(int(np.prod(shape)), 0.0, 0.3).reshape(shape)
    return AttnPoolParams(Wq=g((heads, dh, d), 10), Wk=g((heads, dh, d), 11),
                          Wv=g((heads, dh, d), 12), Wo=g((d, d), 13),
                          W_attn=g((c, d), 14), b=g((c,), 15))


class TestConfig:
    def test_defaults(self):
        cfg = HeadTrainConfig()
        assert cfg.epochs == 100 and cfg.num_heads == 4

    def test_zero_lr_is_legal(self):
        """lr 0 is the documented no-op training run."""
        HeadTrainConfig(lr=0.0)

    @pytest.mark.parametrize("kw", [dict(epochs=0), dict(lr=-1e-3),
                                    dict(weight_decay=-0.1), dict(batch=0),
                                    dict(num_heads=0)])
    def test_rejects(self, kw):
        with pytest.raises(ConfigError):
            HeadTrainConfig(**kw)


class TestProbeForward:
    def test_zero_params_uniform(self):
        """All-zero parameters spread mass evenly over the classes."""
        p = ProbeParams(np.zeros((4, 6)), np.zeros(4))
        probs = linear_probe_forward(np.ones(6), p)
        assert np.allclose(probs, 0.25, atol=1e-15)

    def test_bias_dominated(self):
        p = ProbeParams(np.zeros((2, 3)), np.array([10.0, -10.0]))
        probs = linear_probe_forward(np.zeros(3), p)
        assert probs[0] > 0.999999 and probs[1] < 1e-6

    def test_matches_extended_precision(self):
        """Random instance against a 50-digit direct evaluation."""
        import mpmath

        mpmath.mp.dps = 50
        rng = RngStream(seed=3, stream_id=1)
        w = rng.derive(0).gaussian(12).reshape(3, 4)
        b = rng.derive(1).gaussian(3)
        z = rng.derive(2).gaussian(4)
        probs = linear_probe_forward(z, ProbeParams(w, b))
        logits = [mpmath.mpf(0) for _ in range(3)]
        for i in range(3):
            acc = mpmath.mpf(float(b[i]))
            for j in range(4):
                acc += mpmath.mpf(float(w[i, j])) * mpmath.mpf(float(z[j]))
            logits[i] = acc
        zsum = sum(mpmath.exp(v) for v in logits)
        ref = [float(mpmath.exp(v) / zsum) for v in logits]
        assert np.max(np.abs(probs - np.array(ref))) < 1e-12


class TestAttentionPool:
    def test_weights_are_a_distribution(self):
        """Nonnegative per-head weights summing to 1 within 1e-12."""
        rng = RngStream(seed=4, stream_id=2)
        seq = make_seq(rng.derive(0))
        p = rand_attn_params(rng.derive(1))
        h, w = attention_pool(seq, p)
        assert w.shape == (2, 5)
        assert np.all(w >= 0)
        assert np.max(np.abs(w.sum(axis=1) - 1.0)) < 1e-12
        assert h.shape == (8,)

    def test_identical_tokens_collapse(self):
        """Equal keys give a convex combination of equal values: the
        result is that token through value/output maps, query-free."""
        rng = RngStream(seed=4, stream_id=5)
        tok = rng.derive(0).gaussian(8)
        p = rand_attn_params(rng.derive(1))
        expected = None
        for k in (2, 3):
            seq = TokenSequence(rng.derive(k).gaussian(8),
                                np.tile(tok, (6, 1)))
            h, _ = attention_pool(seq, p)
            vout = np.concatenate([p.Wv[i] @ tok for i in range(2)])
            ref = p.Wo @ vout
            assert np.max(np.abs(h - ref)) < 1e-12
            if expected is not None:
                assert np.max(np.abs(h - expected)) < 1e-12
            expected = h

    def test_two_token_closed_form(self):
        """Hand-computed softmax-weighted sum, single head, D=2."""
        eye = np.eye(2)
        p = AttnPoolParams(Wq=eye[None], Wk=eye[None], Wv=eye[None],
                           Wo=eye, W_attn=np.zeros((2, 2)), b=np.zeros(2))
        seq = TokenSequence(np.array([1.0, 0.0]),
                            np.array([[2.0, 0.0], [0.0, 2.0]]))
        # logits = (2, 0)/sqrt(2); a1 = 1/(1+exp(-sqrt(2)))
        a1 = 1.0 / (1.0 + np.exp(-np.sqrt(2.0)))
        expect_h = np.array([2.0 * a1, 2.0 * (1.0 - a1)])
        h, w = attention_pool(seq, p)
        assert np.max(np.abs(h - expect_h)) < 1e-12
        assert abs(w[0, 0] - a1) < 1e-12

    def test_permuting_patches_leaves_h(self):
        """Attention pooling is permutation-invariant over the keys."""
        rng = RngStream(seed=4, stream_id=6)
        seq = make_seq(rng.derive(0), n=7)
        p = rand_attn_params(rng.derive(1))
        h0, _ = attention_pool(seq, p)
        perm = rng.derive(2).permutation(7)
        seq2 = TokenSequence(seq.cls, seq.patches[perm])
        h1, _ = attention_pool(seq2, p)
        assert np.max(np.abs(h0 - h1)) < 1e-12


GOLDEN_ATTNPOOL_PROBS = [0.341921895945, 0.255701745853, 0.402376358201]


class TestAttnPoolForward:
    def test_zero_classifier_uniform(self):
        rng = RngStream(seed=5, stream_id=1)
        seq = make_seq(rng.derive(0))
        p = rand_attn_params(rng.derive(1))
        p.W_attn = np.zeros_like(p.W_attn)
        p.b = np.zeros_like(p.b)
        probs = attnpool_forward(seq, p)
        assert np.allclose(probs, 1 / 3, atol=1e-15)

    def test_composition(self):
        """Definitionally the probe applied to the pooled vector."""
        rng = RngStream(seed=5, stream_id=2)
        seq = make_seq(rng.derive(0))
        p = rand_attn_params(rng.derive(1))
        h, _ = attention_pool(seq, p)
        via_probe = linear_probe_forward(h, ProbeParams(p.W_attn, p.b))
        assert np.array_equal(attnpool_forward(seq, p), via_probe)

    def test_golden_instance(self):
        """Regression value captured from the validated first build."""
        rng = RngStream(seed=5, stream_id=9)
        seq = make_seq(rng.derive(0))
        p = rand_attn_params(rng.derive(1))
        probs = attnpool_forward(seq, p)
        assert np.max(np.abs(probs - np.array(GOLDEN_ATTNPOOL_PROBS))) < 1e-9


def fd_check(items, params, mode, pdict, h=1e-5):
    batch = _stack(items)
    _, grads = head_gradients(*batch, params, mode)
    worst = 0.0
    for name, arr in pdict.items():
        flat = arr.ravel()
        gflat = grads[name].ravel()
        idx = range(flat.size) if flat.size <= 24 else \
            np.linspace(0, flat.size - 1, 24).astype(int)
        for k in idx:
            orig = flat[k]
            flat[k] = orig + h
            lp, _ = head_gradients(*batch, params, mode)
            flat[k] = orig - h
            lm, _ = head_gradients(*batch, params, mode)
            flat[k] = orig
            num = (lp - lm) / (2 * h)
            rel = abs(gflat[k] - num) / max(1e-6, abs(gflat[k]), abs(num))
            worst = max(worst, rel)
    return worst


class TestGradients:
    def test_linear_fd(self):
        """Analytic probe gradients match central differences, D=8."""
        rng = RngStream(seed=6, stream_id=1)
        batch = [(make_seq(rng.derive(i), d=8, n=4), i % 2) for i in range(3)]
        p = ProbeParams(rng.derive(9).gaussian(16).reshape(2, 8),
                        rng.derive(10).gaussian(2))
        worst = fd_check(batch, p, LINEAR, {"W_lp": p.W_lp, "b": p.b})
        assert worst <= 1e-4

    def test_attnpool_fd(self):
        """All six attention-pool tensors pass the same check."""
        rng = RngStream(seed=6, stream_id=2)
        batch = [(make_seq(rng.derive(i), d=8, n=4), i % 2) for i in range(3)]
        p = rand_attn_params(rng.derive(9), d=8, c=2, heads=2)
        pdict = {"Wq": p.Wq, "Wk": p.Wk, "Wv": p.Wv, "Wo": p.Wo,
                 "W_attn": p.W_attn, "b": p.b}
        worst = fd_check(batch, p, ATTNPOOL, pdict)
        assert worst <= 1e-4

    def test_stationary_at_perfect_fit(self):
        """Saturated correct predictions leave nothing to move."""
        rng = RngStream(seed=6, stream_id=4)
        batch = [(make_seq(rng.derive(i), d=8, n=4), 0) for i in range(3)]
        p = ProbeParams(np.zeros((2, 8)), np.array([50.0, -50.0]))
        loss, grads = head_gradients(*_stack(batch), p, LINEAR)
        norm = np.sqrt(sum(float(np.sum(g * g)) for g in grads.values()))
        assert loss < 1e-8 and norm <= 1e-8

    def test_duplicate_item_mean_invariance(self):
        rng = RngStream(seed=6, stream_id=5)
        item = (make_seq(rng.derive(0), d=8, n=4), 1)
        p = rand_attn_params(rng.derive(9), d=8, c=2, heads=2)
        l1, g1 = head_gradients(*_stack([item]), p, ATTNPOOL)
        l2, g2 = head_gradients(*_stack([item, item]), p, ATTNPOOL)
        assert abs(l1 - l2) < 1e-12
        for k in g1:
            assert np.max(np.abs(g1[k] - g2[k])) < 1e-12

    @pytest.mark.parametrize("mode", [LINEAR, ATTNPOOL])
    def test_reported_loss_is_floored_cross_entropy(self, mode):
        """The loss is the mean of -log(p[y] + 1e-12) over the batch, bit
        for bit, from the probabilities ``probs_batch`` gives."""
        rng = RngStream(seed=6, stream_id=7)
        batch = [(make_seq(rng.derive(i), d=8, n=4), i % 3) for i in range(5)]
        p = (rand_attn_params(rng.derive(9), d=8, c=3, heads=2)
             if mode == ATTNPOOL else
             ProbeParams(rng.derive(9).gaussian(24).reshape(3, 8),
                         rng.derive(10).gaussian(3)))
        cls, patches, y = _stack(batch)
        probs = probs_batch(cls, patches, p, mode)[0]
        loss, _ = head_gradients(cls, patches, y, p, mode)
        assert loss == -np.mean(np.log(probs[np.arange(len(y)), y] + 1e-12))

    def test_linear_ignores_patches(self):
        """The probe consumes only the class token."""
        rng = RngStream(seed=6, stream_id=6)
        seq = make_seq(rng.derive(0), d=8, n=4)
        p = ProbeParams(rng.derive(9).gaussian(16).reshape(2, 8),
                        np.zeros(2))
        probs = linear_probe_forward(seq.cls, p)
        mangled = TokenSequence(seq.cls, np.zeros((4, 8)))
        assert np.array_equal(probs, linear_probe_forward(mangled.cls, p))
        assert (predict_batch([seq], p, LINEAR)
                == predict_batch([mangled], p, LINEAR)).all()


def per_head_einsum_pool(cls, patches, y, p):
    """The pooling head as first written, with batched per-head einsums
    for the query, key and value maps and their weight gradients: the
    reference the flat contractions must match byte for byte.  Returns
    (probs, attention weights, grads)."""
    bsz, _, d = patches.shape
    nh, dhd = p.Wq.shape[:2]
    q = np.einsum("hpd,bd->bhp", p.Wq, cls)
    k = np.einsum("hpd,bnd->bhnp", p.Wk, patches)
    v = np.einsum("hpd,bnd->bhnp", p.Wv, patches)
    a = softmax_rows(np.einsum("bhp,bhnp->bhn", q, k) / np.sqrt(dhd))
    hc = np.einsum("bhn,bhnp->bhp", a, v).reshape(bsz, d)
    h = hc @ p.Wo.T
    probs = softmax_rows(h @ p.W_attn.T + p.b)
    dlogits = probs.copy()
    dlogits[np.arange(bsz), y] -= 1.0
    dlogits /= bsz
    grads = {"W_attn": dlogits.T @ h, "b": dlogits.sum(axis=0)}
    dh = dlogits @ p.W_attn
    grads["Wo"] = dh.T @ hc
    dhh = (dh @ p.Wo).reshape(bsz, nh, dhd)
    da = np.einsum("bhp,bhnp->bhn", dhh, v)
    dv = np.einsum("bhn,bhp->bhnp", a, dhh)
    dlog = softmax_backward(a, da) / np.sqrt(dhd)
    dq = np.einsum("bhn,bhnp->bhp", dlog, k)
    dk = np.einsum("bhn,bhp->bhnp", dlog, q)
    grads["Wq"] = np.einsum("bhp,bd->hpd", dq, cls)
    grads["Wk"] = np.einsum("bhnp,bnd->hpd", dk, patches)
    grads["Wv"] = np.einsum("bhnp,bnd->hpd", dv, patches)
    return probs, a, grads


class TestFlatContractions:
    # (H, D): single head, the unit-test pairs, the desk encoder width,
    # the c4 token-suite geometry and a head size that is not a power of 2
    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 33), st.integers(1, 17),
           st.sampled_from([(1, 4), (2, 8), (4, 32), (4, 64), (3, 12),
                            (8, 64)]),
           st.integers(0, 2**32))
    def test_bytes_match_per_head_einsums(self, bsz, n, heads_dim, seed):
        """Probabilities, cached attention weights and every gradient
        equal the per-head einsum reference byte for byte, at any shape;
        the seed-0 pins and the 1e-9 golden value would miss a layout
        slip that moves only the last bits."""
        heads, d = heads_dim
        rng = RngStream(seed=seed, stream_id=3)
        p = rand_attn_params(rng.derive(0), d=d, c=3, heads=heads)
        cls = rng.derive(1).gaussian(bsz * d).reshape(bsz, d)
        patches = rng.derive(2).gaussian(bsz * n * d).reshape(bsz, n, d)
        y = rng.derive(3).integers(bsz, 3)
        want_probs, want_a, want_grads = per_head_einsum_pool(cls, patches,
                                                              y, p)
        probs, (_, cache) = probs_batch(cls, patches, p, ATTNPOOL)
        assert probs.tobytes() == want_probs.tobytes()
        assert cache["a"].tobytes() == want_a.tobytes()
        _, grads = head_gradients(cls, patches, y, p, ATTNPOOL)
        assert grads.keys() == want_grads.keys()
        for name, g in grads.items():
            assert g.shape == want_grads[name].shape
            assert g.tobytes() == want_grads[name].tobytes(), name


def separable_items(rng, n_per_class, d=16, margin=5.0):
    items = []
    for c in (0, 1):
        for j in range(n_per_class):
            r = rng.derive(c, j)
            cls_tok = r.gaussian(d)
            cls_tok[0] += margin if c == 0 else -margin
            patches = r.derive(1).gaussian(3 * d).reshape(3, d)
            items.append((TokenSequence(cls_tok, patches), c))
    return items


class TestTrainHead:
    def test_separable_linear(self):
        """Linearly separable class tokens reach training accuracy 1.0
        within 50 epochs."""
        rng = RngStream(seed=7, stream_id=1)
        train = separable_items(rng.derive(0), 24)
        val = separable_items(rng.derive(1), 8)
        res = train_head(train, val, LINEAR, HeadTrainConfig(epochs=50))
        preds = predict_batch([s for s, _ in train], res.params, LINEAR)
        y = np.array([lab for _, lab in train])
        assert np.mean(preds == y) == 1.0
        assert res.best_val_bacc == 1.0

    def test_local_signal_separation(self):
        """The core contrast: a class-token probe on pure noise sits at
        chance while pooling over patch tokens recovers the planted
        signal."""
        rng = RngStream(seed=7, stream_id=2)
        train, val = make_token_suite(rng, per_class_train=96,
                                      per_class_val=256)
        cfg = HeadTrainConfig(epochs=60, lr=1e-2, weight_decay=1e-3, seed=0)
        lin = train_head(train, val, LINEAR, cfg)
        att = train_head(train, val, ATTNPOOL, cfg)
        assert 0.45 <= lin.best_val_bacc <= 0.55
        assert att.best_val_bacc >= 0.95

    def test_zero_lr_is_a_no_op(self):
        rng = RngStream(seed=7, stream_id=3)
        train = separable_items(rng.derive(0), 8)
        val = separable_items(rng.derive(1), 4)
        res = train_head(train, val, LINEAR, HeadTrainConfig(epochs=5, lr=0.0))
        assert np.array_equal(res.params.W_lp, np.zeros((2, 16)))
        baccs = [pt["val_bacc"] for pt in res.curve]
        losses = [pt["train_loss"] for pt in res.curve]
        assert len(set(baccs)) == 1 and len(set(losses)) == 1

    def test_bit_reproducible(self):
        """Same seed, same data: identical curve and identical params."""
        rng = RngStream(seed=7, stream_id=6)
        train = separable_items(rng.derive(0), 12)
        val = separable_items(rng.derive(1), 6)
        cfg = HeadTrainConfig(epochs=8, seed=3)
        r1 = train_head(train, val, ATTNPOOL, cfg)
        r2 = train_head(train, val, ATTNPOOL, cfg)
        assert r1.curve == r2.curve
        assert np.array_equal(r1.params.Wq, r2.params.Wq)
        assert np.array_equal(r1.params.W_attn, r2.params.W_attn)

    @pytest.mark.parametrize("mode", [LINEAR, ATTNPOOL])
    def test_divergence_is_a_numeric_error(self, mode):
        """Validation outputs that turn non-finite end the fit with a
        NumericError naming the mode and the epoch."""
        items = separable_items(RngStream(seed=7, stream_id=8), 6)
        cfg = HeadTrainConfig(epochs=3, lr=1e308)
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(
                NumericError, match=f"^{mode} head diverged at epoch 0$"):
            train_head(items, items, mode, cfg)

    def test_selection_prefers_best_epoch(self):
        rng = RngStream(seed=7, stream_id=7)
        train = separable_items(rng.derive(0), 12)
        val = separable_items(rng.derive(1), 6)
        res = train_head(train, val, LINEAR, HeadTrainConfig(epochs=6))
        assert res.best_val_bacc == max(pt["val_bacc"] for pt in res.curve)
