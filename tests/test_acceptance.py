"""Shipped-claim gate.

One test per published criterion, run at the stated tolerance and
printed as a single pass/fail line with the measured values, so a bare
``pytest tests/test_acceptance.py -v -s`` reads as the release
checklist.  Everything here is pinned: fixed seeds, fixed sizes, fixed
thresholds.  Nothing is resampled until it passes.
"""

import copy
import math
import os
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from tokenhier.bench import (AblationConfig, acceptance_suites,
                             balanced_accuracy, ingest_directory,
                             make_pretrain_corpus, render_ablation_table,
                             run_ablation)
from tokenhier.cli import main as cli_main
from tokenhier.color import (hsv_to_rgb, lab_to_rgb, rgb_to_hsv, rgb_to_lab,
                             write_ppm)
from tokenhier.encoder import TokenSequence
from tokenhier.gradcheck import run_all
from tokenhier.heads import (ATTNPOOL, LINEAR, AttnPoolParams,
                             HeadTrainConfig, predict_batch, probs_batch,
                             train_head)
from tokenhier.numkernel import RngStream
from tokenhier.optim import AdamConfig
from tokenhier.ssl import (POSTTRAIN, gram_loss_grad, init_train_state,
                           koleo_loss_grad, run_training,
                           student_encoder_params)
from tokenhier.tiler import otsu_threshold

from token_suite import make_token_suite


def report(number: int, label: str, ok: bool, detail: str) -> None:
    line = f"[criterion {number}] {label}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line, flush=True)
    assert ok, line


# ---------------------------------------------------------------------------
# 1. gradient correctness


def test_c1_gradient_correctness():
    """Analytic gradients of the encoder, all four objective terms, and
    both heads agree with central finite differences to 1e-4."""
    t0 = time.time()
    results = run_all()
    elapsed = time.time() - t0
    worst = max(r.worst_rel_err for r in results)
    ok = all(r.passed for r in results) and elapsed < 120
    report(1, "gradient correctness", ok,
           f"{len(results)} components, worst rel err {worst:.2e}, "
           f"{elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 2. oracle equivalence


def oracle_otsu(hist):
    """Exhaustive rational search over all 256 split points."""
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
        mu0, mu1 = Fraction(s0, w0), Fraction(total_s - s0, w1)
        v = Fraction(w0, n) * Fraction(w1, n) * (mu0 - mu1) ** 2
        if v > best_v:
            best_v, best_t = v, t
    return best_t


def oracle_koleo(x):
    """Scalar nearest-neighbor sweep on unit-normalized rows."""
    normed = []
    for r in x:
        nrm = math.sqrt(sum(float(v) ** 2 for v in r))
        normed.append([float(v) / nrm for v in r])
    total = 0.0
    for i, a in enumerate(normed):
        best = min(math.sqrt(sum((u - v) ** 2 for u, v in zip(a, b)))
                   for j, b in enumerate(normed) if j != i)
        total += math.log(max(best, 1e-8))
    return -total / len(normed)


def test_c2_oracle_equivalence():
    """Threshold search, repulsion term, and pooling agree with
    independent brute-force computations."""
    rng = np.random.default_rng(20240)
    checked = 0
    for k in range(1000):
        h = np.zeros(256, dtype=np.int64)
        kind = k % 4
        if kind == 0:
            h = rng.integers(0, 100, 256)
        elif kind == 1:
            bins = rng.choice(256, size=int(rng.integers(2, 20)),
                              replace=False)
            h[bins] = rng.integers(1, 50, len(bins))
        elif kind == 2:
            a, b = sorted(rng.choice(200, size=2, replace=False))
            h[a:a + 30] = rng.integers(0, 80, 30)
            h[b + 25:b + 55] = rng.integers(0, 80, 30)
        else:
            h = rng.integers(0, 3, 256)
        if np.count_nonzero(h) < 2:
            h[0] += 1
            h[255] += 1
        assert otsu_threshold(h) == oracle_otsu(h)
        checked += 1

    worst_koleo = 0.0
    for n in (2, 3, 5, 17, 33, 64):
        x = rng.normal(size=(n, 5))
        worst_koleo = max(worst_koleo,
                          abs(koleo_loss_grad(x)[0] - oracle_koleo(x)))

    eye = np.eye(2)
    p = AttnPoolParams(Wq=eye[None], Wk=eye[None], Wv=eye[None], Wo=eye,
                       W_attn=np.zeros((2, 2)), b=np.zeros(2))
    seq = TokenSequence(np.array([1.0, 0.0]),
                        np.array([[2.0, 0.0], [0.0, 2.0]]))
    a1 = 1.0 / (1.0 + math.exp(-math.sqrt(2.0)))
    _, (h_pool, cache) = probs_batch(seq.cls[None], seq.patches[None], p,
                                     ATTNPOOL)
    h_pool, w_pool = h_pool[0], cache["a"][0]
    pool_err = max(abs(h_pool[0] - 2.0 * a1), abs(h_pool[1] - 2.0 * (1 - a1)),
                   abs(w_pool[0, 0] - a1))

    ok = checked == 1000 and worst_koleo < 1e-12 and pool_err < 1e-12
    report(2, "oracle equivalence", ok,
           f"otsu 1000/1000 exact, koleo err {worst_koleo:.1e}, "
           f"pool err {pool_err:.1e}")


# ---------------------------------------------------------------------------
# 3. colorimetry


def test_c3_colorimetry():
    """Both color spaces round-trip within one 8-bit step at 1e5 random
    pixels, and the anchor points are exact."""
    rng = np.random.default_rng(3)
    pixels = rng.integers(0, 256, size=(100, 1000, 3)).astype(np.uint8)
    lab_diff = np.abs(lab_to_rgb(rgb_to_lab(pixels)).astype(np.int64)
                      - pixels.astype(np.int64)).max()
    hsv_diff = np.abs(hsv_to_rgb(rgb_to_hsv(pixels)).astype(np.int64)
                      - pixels.astype(np.int64)).max()

    white = rgb_to_lab(np.full((1, 1, 3), 255, np.uint8))[0, 0]
    black = rgb_to_lab(np.zeros((1, 1, 3), np.uint8))[0, 0]
    red = rgb_to_hsv(np.array([[[255, 0, 0]]], np.uint8))[0, 0]
    anchors_ok = (abs(white[0] - 100.0) < 1e-9
                  and abs(white[1]) < 0.01 and abs(white[2]) < 0.01
                  and np.all(black == 0.0)
                  and np.allclose(red, [0.0, 1.0, 1.0], atol=1e-12))
    ok = lab_diff <= 1 and hsv_diff <= 1 and anchors_ok
    report(3, "colorimetry", ok,
           f"round-trip max |delta| lab {lab_diff}, hsv {hsv_diff} "
           f"(<=1/255), anchors exact: {anchors_ok}")


# ---------------------------------------------------------------------------
# 4. local-signal separation


def test_c4_local_signal_separation():
    """Class-token probing of the planted-signal token suite sits at
    chance while attention pooling recovers the label, 5-seed means.
    The line also reports where the pooling head looks on the test
    items, ungated: the mean weight on the signal token and how often
    the head-averaged weights peak there (uniform: 1/16)."""
    t0 = time.time()
    signal = 3   # make_token_suite's signal_index
    lin, att, mass, peak = [], [], [], []
    for seed in range(5):
        rng = RngStream(seed=seed, stream_id=6)
        train, val = make_token_suite(rng.derive(0))
        test_items = make_token_suite(rng.derive(1), per_class_train=5,
                                      per_class_val=512)[1]
        test_y = np.array([lab for _, lab in test_items])
        test_seqs = [seq for seq, _ in test_items]
        cfg = HeadTrainConfig(epochs=60, lr=1e-2, weight_decay=1e-3,
                              seed=seed)
        for mode, sink in ((LINEAR, lin), (ATTNPOOL, att)):
            res = train_head(train, val, mode, cfg)
            preds = predict_batch(test_seqs, res.params, mode)
            sink.append(balanced_accuracy(test_y, preds, 2))
        # res is the pooling head's fit; its weights are (B, H, N)
        weights = probs_batch(np.stack([s.cls for s in test_seqs]),
                              np.stack([s.patches for s in test_seqs]),
                              res.params, ATTNPOOL)[1][1]["a"]
        mass.append(float(weights[:, :, signal].mean()))
        peak.append(float(np.mean(weights.mean(axis=1).argmax(axis=1)
                                  == signal)))
    elapsed = time.time() - t0
    lin_m, att_m = float(np.mean(lin)), float(np.mean(att))
    ok = 0.45 <= lin_m <= 0.55 and att_m >= 0.95 and elapsed < 300
    report(4, "local-signal separation", ok,
           f"linear {lin_m:.4f} in [0.45,0.55], attnpool {att_m:.4f} "
           f">= 0.95, {elapsed:.0f}s; signal-token weight "
           f"{np.mean(mass):.3f}, argmax rate {np.mean(peak):.3f}")


# ---------------------------------------------------------------------------
# 5. ablation ordering


def test_c5_ablation_ordering():
    """Desk-scale three-row grid: augmentation helps the linear probe
    and attention pooling helps again, both by at least 0.02 in 5-seed
    means, with the deltas rendered in '(x.x↑)' form."""
    t0 = time.time()
    suites = acceptance_suites(RngStream(seed=2024, stream_id=5), 60)
    rep = run_ablation(suites, AblationConfig(), "0" * 16)
    elapsed = time.time() - t0
    rows = rep["ablation_rows"]
    m1 = rows[1]["bacc"] - rows[0]["bacc"]
    m2 = rows[2]["bacc"] - rows[1]["bacc"]
    rendered = [rows[1]["delta_rendered"], rows[2]["delta_rendered"]]
    render_ok = all(r.startswith("(") and r.endswith("↑)") for r in rendered)
    table_ok = "↑" in render_ablation_table(rep)
    ok = m1 >= 0.02 and m2 >= 0.02 and render_ok and table_ok \
        and elapsed < 900
    report(5, "ablation ordering", ok,
           f"margins {m1:+.4f}/{m2:+.4f} >= 0.02, deltas "
           f"{' '.join(rendered)}, {elapsed:.0f}s")


# ---------------------------------------------------------------------------
# 6. training smoke


def test_c6_training_smoke():
    """200 pretraining steps on the bundled synthetic corpus push each
    successive 50-step mean of the total loss strictly below the
    previous one, and the post-training phase adds a gram term that
    starts positive yet vanishes exactly on identical features."""
    cfg = AblationConfig()
    corpus = make_pretrain_corpus(RngStream(seed=0, stream_id=10), count=64,
                                  image_size=cfg.encoder.image_size)
    state = init_train_state(cfg.encoder, cfg.ssl,
                             RngStream(seed=0, stream_id=11))
    hist = run_training(corpus, state, cfg.ssl, cfg.encoder, cfg.aug,
                        RngStream(seed=0, stream_id=12), steps=200,
                        batch_size=cfg.batch_size,
                        adam_cfg=AdamConfig(lr=cfg.ssl_lr))
    total = np.array([h.total for h in hist])
    windows = [float(total[i:i + 50].mean()) for i in range(0, 200, 50)]
    decreasing = all(b < a for a, b in zip(windows, windows[1:]))
    gram_pre_zero = all(h.gram == 0.0 for h in hist)

    post = copy.deepcopy(state)
    post.gram_teacher = copy.deepcopy(student_encoder_params(state))
    post_hist = run_training(corpus, post, cfg.ssl, cfg.encoder, cfg.aug,
                             RngStream(seed=1, stream_id=12), steps=3,
                             batch_size=cfg.batch_size, phase=POSTTRAIN,
                             adam_cfg=AdamConfig(lr=cfg.ssl_lr))
    first_gram = post_hist[0].gram
    feats = RngStream(seed=2, stream_id=1).gaussian(8 * 16).reshape(8, 16)
    ident, _ = gram_loss_grad(feats, feats.copy())

    ok = (decreasing and gram_pre_zero and np.isfinite(first_gram)
          and first_gram > 0.0 and ident == 0.0)
    report(6, "training smoke", ok,
           f"50-step means {' > '.join(f'{w:.3f}' for w in windows)}, "
           f"first posttrain gram {first_gram:.3f} > 0, "
           f"identical-feature gram {ident}")


# ---------------------------------------------------------------------------
# 7. metric correctness


def test_c7_metric_correctness():
    """Hand example, balanced-equality, and constant-predictor floor."""
    hand = balanced_accuracy([0, 0, 1, 1], [0, 1, 1, 1], 2)

    rng = np.random.default_rng(7)
    worst_eq = 0.0
    for c in (2, 3, 5):
        y_true = np.repeat(np.arange(c), 40)
        y_pred = rng.integers(0, c, size=y_true.size)
        plain = float(np.mean(y_true == y_pred))
        worst_eq = max(worst_eq,
                       abs(balanced_accuracy(y_true, y_pred, c) - plain))

    const_ok = all(
        abs(balanced_accuracy(np.repeat(np.arange(c), 6),
                              np.zeros(6 * c, dtype=int), c) - 1.0 / c)
        < 1e-15
        for c in (2, 3, 4, 5))

    ok = hand == 0.75 and worst_eq < 1e-12 and const_ok
    report(7, "metric correctness", ok,
           f"hand example {hand}, balanced-equality err {worst_eq:.1e}, "
           f"constant predictor at 1/C: {const_ok}")


# ---------------------------------------------------------------------------
# 8. CLI determinism


def _primary_bytes(out_dir: Path) -> bytes:
    """Concatenated primary outputs under a directory, sidecar logs
    excluded; file names participate so layout changes also count."""
    blob = []
    for f in sorted(out_dir.rglob("*")):
        if f.is_file() and f.suffix != ".log":
            blob.append(f.name.encode() + b"\0" + f.read_bytes())
    return b"\0".join(blob)


def test_c8_cli_determinism(tmp_path, capsys):
    """Every subcommand, run three times with a fixed seed into separate
    directories, produces byte-identical primary outputs."""
    t0 = time.time()
    src = tmp_path / "src"
    src.mkdir()
    rng = RngStream(seed=1, stream_id=90)
    for i in range(2):
        img = np.clip(90 + 50 * rng.derive(i).gaussian(64 * 64 * 3)
                      .reshape(64, 64, 3), 0, 255).astype(np.uint8)
        img[:32] //= 3
        write_ppm(src / f"s{i}.ppm", img)
    abl_cfg = tmp_path / "abl.json"
    abl_cfg.write_text('{"seeds": [0], "pretrain_steps": 2, '
                       '"suite_per_class": 6, "head_epochs": 2}')

    seed_ckpt = tmp_path / "seed.ckpt"
    seed_tree = tmp_path / "seedtree"
    assert cli_main(["pretrain", "--steps", "2", "--out", str(seed_ckpt),
                     "--seed", "0", "--log-level", "quiet"]) == 0
    assert cli_main(["bench", "--suite", "global", "--out", str(seed_tree),
                     "--per-class", "10", "--seed", "0",
                     "--log-level", "quiet"]) == 0

    def argv_for(cmd, out):
        return {
            "tile": ["tile", "--input", str(src), "--out",
                     str(out / "m.jsonl"), "--tile-size", "16",
                     "--min-tissue", "0.0"],
            "augment": ["augment", "--input", str(src), "--out", str(out),
                        "--seed", "3"],
            "pretrain": ["pretrain", "--steps", "3", "--out",
                         str(out / "c.ckpt"), "--seed", "0"],
            "posttrain": ["posttrain", "--steps", "2", "--out",
                          str(out / "p.ckpt"), "--gram-teacher",
                          str(seed_ckpt), "--seed", "0"],
            "embed": ["embed", "--ckpt", str(seed_ckpt), "--data",
                      str(seed_tree), "--out", str(out / "e.emb")],
            "probe": ["probe", "--ckpt", str(seed_ckpt), "--data",
                      str(seed_tree), "--mode", "linear", "--seed", "0",
                      "--report", str(out / "r.json")],
            "bench": ["bench", "--suite", "shifted", "--out",
                      str(out / "tree"), "--per-class", "8", "--seed", "2"],
            "ablate": ["ablate", "--config", str(abl_cfg), "--out",
                       str(out / "a.json")],
            "gradcheck": ["gradcheck"],
            "demo": ["demo", "--out", str(out), "--seed", "0"],
        }[cmd]

    commands = ("tile", "augment", "pretrain", "posttrain", "embed",
                "probe", "bench", "ablate", "gradcheck", "demo")
    mismatches = []
    for cmd in commands:
        blobs = []
        for run in (1, 2, 3):
            out = tmp_path / f"{cmd}-run{run}"
            out.mkdir()
            code = cli_main(argv_for(cmd, out) + ["--log-level", "quiet"])
            captured = capsys.readouterr()
            assert code == 0, f"{cmd} run {run} exited {code}: " \
                              f"{captured.err}"
            blob = _primary_bytes(out)
            if cmd == "gradcheck":
                blob = captured.out.encode()
            blobs.append(blob)
        if not (blobs[0] == blobs[1] == blobs[2]):
            mismatches.append(cmd)
    elapsed = time.time() - t0
    ok = not mismatches
    report(8, "CLI determinism", ok,
           f"{len(commands)} commands x 3 runs byte-identical"
           + (f"; MISMATCH: {', '.join(mismatches)}" if mismatches else "")
           + f", {elapsed:.0f}s")


# ---------------------------------------------------------------------------
# 9. optional real-data ingest


@pytest.mark.skipif("TOKENHIER_CRC_DIR" not in os.environ,
                    reason="network-gated; set TOKENHIER_CRC_DIR to a local "
                           "copy of the 9-class 7,180-patch validation set "
                           "(converted to binary .ppm) to enable")
def test_c9_real_data_ingest():
    """Pointed at the public 9-class validation layout, ingestion sees
    all classes and items; no accuracy floor is asserted."""
    ds = ingest_directory(os.environ["TOKENHIER_CRC_DIR"])
    c, n = len(ds.class_names), len(ds.items)
    ok = c == 9 and n == 7180
    report(9, "real-data ingest", ok, f"C={c} (want 9), items={n} (want 7180)")
