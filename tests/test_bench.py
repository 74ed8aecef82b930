import hashlib
import json
from dataclasses import asdict, replace

import jsonschema
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tokenhier import bench
from tokenhier.bench import (GLOBAL, LOCAL, SHIFTED, SUITE_SPECS,
                             AblationConfig, LabeledDataset, _fmt_delta,
                             SuiteSpec, acceptance_suites,
                             embed_dataset,
                             ingest_directory, make_report,
                             make_pretrain_corpus, make_synthetic_suite,
                             render_ablation_table,
                             run_ablation, save_embeddings, split_dataset,
                             split_hash, write_bacc_svg, write_report)
from tokenhier.checkpoint import load_params
from tokenhier.color import rgb_to_lab, write_ppm
from tokenhier.encoder import EncoderConfig, init_params
from tokenhier.errors import ConfigError, DataError
from tokenhier.heads import HeadTrainConfig, balanced_accuracy, class_recalls
from tokenhier.numkernel import RngStream
from tokenhier.ssl import SslConfig

from report_schema import validate_report
from token_suite import make_token_suite


SMALL_ENC = EncoderConfig(image_size=32, token_size=16, embed_dim=16,
                          depth=1, num_heads=2, mlp_ratio=2.0)


def small_suite(kind=GLOBAL, per_class=10, seed=0, **kw):
    spec = SuiteSpec(kind=kind, per_class=per_class, image_size=32, **kw)
    return make_synthetic_suite(RngStream(seed=seed, stream_id=3), spec)


def mean_color_nearest_centroid(train, test):
    """Classify test items by nearest train-class mean color."""
    feats = lambda ds: np.stack([r.reshape(-1, 3).mean(axis=0)
                                 for r in ds.rasters])
    ftr, fte = feats(train), feats(test)
    cents = np.stack([ftr[train.labels == c].mean(axis=0)
                      for c in range(len(train.class_names))])
    d = ((fte[:, None, :] - cents[None, :, :]) ** 2).sum(axis=2)
    return np.argmin(d, axis=1)


def scalar_class_recalls(y_true, y_pred, c):
    """Reference recalls and support, one class and one label at a time
    in Python ints: a class's correct count over its support, NaN
    without support."""
    recalls, support = [], []
    for cls in range(c):
        preds = [p for t, p in zip(y_true, y_pred) if t == cls]
        support.append(len(preds))
        recalls.append(preds.count(cls) / len(preds) if preds else float("nan"))
    return np.array(recalls), np.array(support)


@st.composite
def label_pairs(draw):
    """(y_true, y_pred, num_classes): num_classes may reach past the
    largest true label, so some classes may have no support."""
    c = draw(st.integers(1, 6))
    n = draw(st.integers(1, 60))
    labels = st.lists(st.integers(0, c - 1), min_size=n, max_size=n)
    y_true, y_pred = draw(labels), draw(labels)
    num_classes = draw(st.integers(c, c + 3))
    return y_true, y_pred, num_classes


class TestBalancedAccuracy:
    @settings(max_examples=300, deadline=None)
    @given(label_pairs())
    def test_recalls_match_scalar_reference(self, labels):
        """Recalls are bitwise the reference's, NaN in the same places,
        and support is equal."""
        y_true, y_pred, num_classes = labels
        recalls, support = class_recalls(y_true, y_pred, num_classes)
        c = len(recalls)
        assert c == num_classes
        ref_recalls, ref_support = scalar_class_recalls(y_true, y_pred, c)
        assert np.array_equal(support, ref_support)
        nan = np.isnan(recalls)
        assert np.array_equal(nan, np.isnan(ref_recalls))
        assert recalls[~nan].tobytes() == ref_recalls[~nan].tobytes()

    def test_perfect(self):
        assert balanced_accuracy([0, 1, 2], [0, 1, 2], 3) == 1.0

    def test_hand_example(self):
        """Recalls 1/2 and 1 average to 3/4."""
        y_true = [0, 0, 1, 1]
        y_pred = [0, 1, 1, 1]
        assert balanced_accuracy(y_true, y_pred, 2) == 0.75

    @pytest.mark.parametrize("c", [2, 3, 5])
    def test_constant_predictor(self, c):
        """Always answering one class scores exactly 1/C."""
        y_true = np.repeat(np.arange(c), 4)
        y_pred = np.zeros_like(y_true)
        assert abs(balanced_accuracy(y_true, y_pred, c) - 1.0 / c) < 1e-15

    def test_equals_accuracy_when_balanced(self):
        rng = RngStream(seed=9, stream_id=2)
        y_true = np.repeat(np.arange(4), 25)
        y_pred = rng.integers(100, 4)
        plain = float(np.mean(y_true == y_pred))
        assert abs(balanced_accuracy(y_true, y_pred, 4) - plain) < 1e-12

    def test_relabeling_invariance(self):
        """Swapping class ids consistently cannot change the score."""
        y_true = np.array([0, 0, 0, 1, 1, 2])
        y_pred = np.array([0, 1, 0, 1, 2, 2])
        swap = np.array([2, 0, 1])
        a = balanced_accuracy(y_true, y_pred, 3)
        b = balanced_accuracy(swap[y_true], swap[y_pred], 3)
        assert abs(a - b) < 1e-15

    def test_zero_support_excluded(self):
        """A class absent from y_true drops out of the mean but is
        visible through class_recalls support."""
        y_true = [0, 0, 1, 1]
        y_pred = [0, 0, 1, 0]
        assert balanced_accuracy(y_true, y_pred, 3) == 0.75
        recalls, support = class_recalls(y_true, y_pred, 3)
        assert support[2] == 0 and np.isnan(recalls[2])


class TestLabeledDataset:
    def test_split_hash_order_free(self):
        r = np.zeros((2, 2, 3), np.uint8)
        a = LabeledDataset([(r, 0), (r, 0)], ["a"], ["s1", "s2"])
        b = LabeledDataset([(r, 0), (r, 0)], ["a"], ["s2", "s1"])
        assert split_hash(a) == split_hash(b)
        assert len(split_hash(a)) == 16


class TestSuiteSpec:
    @pytest.mark.parametrize("kw", [pytest.param(dict(per_class=4), id="kw2")])
    def test_rejects(self, kw):
        with pytest.raises(ConfigError):
            SuiteSpec(**kw)


def ordered_ids_digest(splits) -> str:
    """sha256 over every split's source ids in order, splits in order."""
    payload = "\n\n".join("\n".join(ds.source_ids) for ds in splits)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


# Source-id order of each split, pinned before the 60/20/20 rule moved
# into one helper.
SPLIT_ORDER_SHA256 = {
    LOCAL:
        "6b952cf93c78c87b3c8219a1b997dafa1be9733c082febb966597508f0c0d3cb",
    SHIFTED:
        "6a625c2e02dc02b0f2d1e24e6569d3e00c9d712cd5a03874a89b26c83ef8279a",
    "ingested":
        "2041fe820cca49663c25725f3a7473befa47930e5355e635b36eaab1bff56489",
}


def suite_digest(splits) -> str:
    """sha256 over each split's source ids, labels and rasters, splits
    in order."""
    h = hashlib.sha256()
    for ds in splits:
        h.update("\n".join(ds.source_ids).encode("utf-8"))
        h.update(np.ascontiguousarray(ds.labels, dtype="<i8").tobytes())
        for raster in ds.rasters:
            h.update(np.ascontiguousarray(raster).tobytes())
    return h.hexdigest()


def shipped_suites():
    """{name: (train, val, test)} of every suite the package and the
    benchmark build: each shipped spec at 5 and 12 per class, the
    benchmark's probe-eval LOCAL spec at 60, and the acceptance pair."""
    rng = RngStream(seed=0, stream_id=5)
    suites = {f"{kind}-{n}": make_synthetic_suite(
        rng, replace(SUITE_SPECS[kind], per_class=n))
        for kind in (GLOBAL, LOCAL, SHIFTED) for n in (5, 12)}
    suites["perfbench-local-60"] = make_synthetic_suite(rng, SuiteSpec(
        kind=LOCAL, per_class=60, color_jitter=0.0, gradient_amp=20.0))
    acceptance = acceptance_suites(RngStream(seed=2024, stream_id=5), 20)
    suites.update({f"acceptance-{k}": v for k, v in acceptance.items()})
    return suites


# Source ids, labels and raster bytes of every shipped suite, pinned
# before the suite constants left ``SuiteSpec``.
SUITE_SHA256 = {
    "global-5":
        "3f306f3253987f330a812e4be5995b532d3538a3744d548bf3723b3d6442143f",
    "global-12":
        "e88a4d29d0a7577eade8bc41875b3dd1d104551c2d5daf20df19e48a44cdcc4c",
    "local-5":
        "5f75eb5d50369312c70e607612838f3673cffce88d45de2d09226e4f407c3392",
    "local-12":
        "c827e3d4115e9094af5194f2f7ed36bbf63af3f2f88c7905e1617405d979d047",
    "shifted-5":
        "0a435bfdfc3d39d1d903569b7d4c9f106d3939001991b83986ea416648c66890",
    "shifted-12":
        "74aad72832ef0f5d593ee47f4608a31218c8908038ce34c176ae76e48e8aeaeb",
    "perfbench-local-60":
        "f7fbaad9e011bb80fd47d3d939fc0823244165062509be03fa338a47809293df",
    "acceptance-local":
        "02cb35b38b7cde1f30ab7a8a58fc6f6d4f158b01c1bd6c84498305d3d44680cc",
    "acceptance-shifted":
        "947022b094c7f645c582a217d5341d68f19d755c04f77feec576e39b6900690e",
}


class TestSyntheticSuites:
    def test_shipped_suite_bytes_pinned(self):
        digests = {name: suite_digest(splits)
                   for name, splits in shipped_suites().items()}
        assert digests == SUITE_SHA256

    @pytest.mark.parametrize("kind,per_class,sizes", [
        (LOCAL, 13, [16, 6, 4]), (SHIFTED, 7, [8, 2, 4])])
    def test_split_order_pinned(self, kind, per_class, sizes):
        splits = small_suite(kind, per_class=per_class)
        assert [len(ds.items) for ds in splits] == sizes
        assert ordered_ids_digest(splits) == SPLIT_ORDER_SHA256[kind]

    def test_reproducible(self):
        """Same seed, same spec, byte-identical rasters in every split."""
        a = small_suite(LOCAL, seed=7)
        b = small_suite(LOCAL, seed=7)
        for ds_a, ds_b in zip(a, b):
            assert ds_a.source_ids == ds_b.source_ids
            for (ra, la), (rb, lb) in zip(ds_a.items, ds_b.items):
                assert la == lb and np.array_equal(ra, rb)

    def test_splits_disjoint_and_stratified(self):
        tr, va, te = small_suite(GLOBAL, per_class=20)
        ids = [set(ds.source_ids) for ds in (tr, va, te)]
        assert not (ids[0] & ids[1]) and not (ids[0] & ids[2]) \
            and not (ids[1] & ids[2])
        for ds, count in zip((tr, va, te), (12, 4, 4)):
            assert np.bincount(ds.labels, minlength=2).tolist() == [count, count]

    def test_global_mean_color_separates(self):
        """GLOBAL is solvable by nearest mean-color centroid."""
        tr, _, te = small_suite(GLOBAL, per_class=30)
        preds = mean_color_nearest_centroid(tr, te)
        assert balanced_accuracy(te.labels, preds, 2) >= 0.9

    def test_local_mean_color_is_chance(self):
        """LOCAL mean color carries nothing: a nearest-centroid read of
        it stays within the chance band even in sample."""
        tr, va, te = small_suite(LOCAL, per_class=100, seed=1)
        pooled = LabeledDataset(tr.items + va.items + te.items,
                                tr.class_names, tr.source_ids + va.source_ids
                                + te.source_ids)
        preds = mean_color_nearest_centroid(tr, pooled)
        assert abs(balanced_accuracy(pooled.labels, preds, 2) - 0.5) <= 0.07

    def test_local_signal_tile_mean_preserving(self, monkeypatch):
        """The informative texture moves pixels but not the tile mean."""
        monkeypatch.setattr(bench, "_NOISE_SIGMA", 1e-9)
        monkeypatch.setattr(bench, "_DISTRACTOR_AMP", 1e-9)
        spec = SuiteSpec(kind=LOCAL, per_class=10, image_size=32,
                         gradient_amp=0.0, color_jitter=0.0)
        r0 = RngStream(seed=2, stream_id=8)
        tr, _, _ = make_synthetic_suite(r0, spec)
        gy, gx = bench._SIGNAL_TILE
        t = bench._TILE
        for raster, _ in tr.items[:4]:
            win = raster[gy * t:(gy + 1) * t, gx * t:(gx + 1) * t].astype(float)
            assert abs(win.mean() - 120.0) < 1.0
            assert win.std() > 10.0

    def test_shifted_moves_test_colors(self):
        """Only the test split wears the protocol change, far outside
        the train color range."""
        spec = replace(SUITE_SPECS[SHIFTED], per_class=20, image_size=32)
        tr, va, te = make_synthetic_suite(RngStream(seed=4, stream_id=3), spec)
        lab_mean = lambda ds: np.mean(
            [rgb_to_lab(r).reshape(-1, 3).mean(axis=0) for r in ds.rasters],
            axis=0)
        m_tr, m_va, m_te = lab_mean(tr), lab_mean(va), lab_mean(te)
        assert np.abs(m_tr - m_va).max() < 3.0
        assert m_te[0] - m_tr[0] > 8.0

    def test_pretrain_corpus(self):
        a = make_pretrain_corpus(RngStream(seed=3, stream_id=1), count=5,
                                 image_size=32)
        b = make_pretrain_corpus(RngStream(seed=3, stream_id=1), count=5,
                                 image_size=32)
        assert len(a) == 5 and a[0].shape == (32, 32, 3)
        assert a[0].dtype == np.uint8
        assert all(np.array_equal(x, y) for x, y in zip(a, b))


class TestTokenSuite:
    def test_shapes_and_balance(self):
        train, val = make_token_suite(RngStream(seed=5, stream_id=2),
                                      embed_dim=8, patch_count=4,
                                      per_class_train=6, per_class_val=3)
        assert len(train) == 12 and len(val) == 6
        seq, label = train[0]
        assert seq.cls.shape == (8,) and seq.patches.shape == (4, 8)
        assert sorted({lab for _, lab in train}) == [0, 1]

    def test_signal_lives_in_one_token(self):
        """Averaged over items, only the signal token separates classes
        and only along the class dimension."""
        train, _ = make_token_suite(RngStream(seed=6, stream_id=2),
                                    embed_dim=8, patch_count=4,
                                    per_class_train=400, per_class_val=2,
                                    signal_index=2, amplitude=4.0, beacon=3.0)
        by_class = {0: [], 1: []}
        for seq, lab in train:
            by_class[lab].append(seq.patches)
        m0 = np.mean(by_class[0], axis=0)
        m1 = np.mean(by_class[1], axis=0)
        gap = np.abs(m0 - m1)
        assert gap[2, 1] > 6.0
        gap[2, 1] = 0.0
        assert gap.max() < 1.0
        cls_gap = np.abs(np.mean([s.cls for s, l in train if l == 0], axis=0)
                         - np.mean([s.cls for s, l in train if l == 1], axis=0))
        assert cls_gap.max() < 1.0

    def test_signal_index_checked(self):
        with pytest.raises(ConfigError):
            make_token_suite(RngStream(seed=0, stream_id=0), patch_count=4,
                             signal_index=4)


def write_tree(root, layout):
    """layout: {class_name: raster count}; 4x4 deterministic pixels."""
    for name, count in layout.items():
        d = root / name
        d.mkdir()
        for i in range(count):
            r = np.full((4, 4, 3), 10 * (i + 1), np.uint8)
            write_ppm(d / f"img{i}.ppm", r)


class TestIngestDirectory:
    def test_basic_layout(self, tmp_path):
        """Sorted subdirectory names define the dense class ids."""
        write_tree(tmp_path, {"tumor": 3, "stroma": 2})
        ds = ingest_directory(tmp_path)
        assert ds.class_names == ["stroma", "tumor"]
        assert len(ds.items) == 5
        assert np.bincount(ds.labels).tolist() == [2, 3]
        assert ds.source_ids[0].startswith("stroma/")

    def test_empty_class_dir_warns_and_excluded(self, tmp_path):
        write_tree(tmp_path, {"a": 2, "b": 1})
        (tmp_path / "empty").mkdir()
        with pytest.warns(UserWarning, match="empty"):
            ds = ingest_directory(tmp_path)
        assert ds.class_names == ["a", "b"]

    def test_unreadable_file_is_itemized(self, tmp_path):
        write_tree(tmp_path, {"a": 1})
        bad = tmp_path / "a" / "broken.ppm"
        bad.write_bytes(b"P6\n4 4\n255\nxx")
        with pytest.raises(DataError, match="broken.ppm"):
            ingest_directory(tmp_path)

    def test_not_a_directory(self, tmp_path):
        with pytest.raises(ConfigError):
            ingest_directory(tmp_path / "missing")

    def test_renaming_changes_ids(self, tmp_path):
        """Class ids follow sorted names, so renames re-map labels."""
        write_tree(tmp_path, {"aa": 1, "bb": 1})
        before = ingest_directory(tmp_path)
        (tmp_path / "aa").rename(tmp_path / "zz")
        after = ingest_directory(tmp_path)
        assert before.class_names == ["aa", "bb"]
        assert after.class_names == ["bb", "zz"]


class TestSplitDataset:
    def make_ds(self, per_class=10):
        r = np.zeros((2, 2, 3), np.uint8)
        items, ids = [], []
        for c in range(2):
            for j in range(per_class):
                items.append((r, c))
                ids.append(f"c{c}-{j}")
        return LabeledDataset(items, ["a", "b"], ids)

    def test_sizes_and_stratification(self):
        tr, va, te = split_dataset(self.make_ds(10), seed=0)
        assert [len(tr.items), len(va.items), len(te.items)] == [12, 4, 4]
        for ds in (tr, va, te):
            counts = np.bincount(ds.labels, minlength=2)
            assert counts[0] == counts[1]

    def test_deterministic_and_seed_sensitive(self):
        ds = self.make_ds(12)
        a1 = split_dataset(ds, seed=5)
        a2 = split_dataset(ds, seed=5)
        b = split_dataset(ds, seed=6)
        assert [x.source_ids for x in a1] == [x.source_ids for x in a2]
        assert [x.source_ids for x in a1] != [x.source_ids for x in b]

    def test_too_small_class_rejected(self):
        with pytest.raises(ConfigError, match="at least 5"):
            split_dataset(self.make_ds(4), seed=0)

    def test_ingested_split_order_pinned(self, tmp_path):
        write_tree(tmp_path, {"aa": 6, "bb": 9, "cc": 11})
        splits = split_dataset(ingest_directory(tmp_path), seed=3)
        assert [len(ds.items) for ds in splits] == [16, 5, 5]
        assert ordered_ids_digest(splits) == SPLIT_ORDER_SHA256["ingested"]


EMBED_ENCODERS = {"desk": AblationConfig().encoder, "default": EncoderConfig()}

GOLDEN_EMBED_SHA256 = {
    "desk": "9d7a921ab3ff29c2f4073ef31fc305b29875ee4cc2f0ebe987fefbd2e5f60b0a",
    "default": "cd9231cd708d5f0a4c7bf68e8f7649c87c36473919e528ee0a003db385a0300a",
}


def local_items(count=20):
    """The first ``count`` items of the seed-0 shipped LOCAL suite at 10
    per class, train then val then test, as one dataset."""
    spec = replace(SUITE_SPECS[LOCAL], per_class=10)
    splits = make_synthetic_suite(RngStream(seed=0, stream_id=5), spec)
    items = [item for ds in splits for item in ds.items]
    ids = [sid for ds in splits for sid in ds.source_ids]
    return LabeledDataset(items[:count], splits[0].class_names, ids[:count])


def embedding_digest(seqs) -> str:
    """sha256 over the stacked class tokens, then the stacked patches."""
    h = hashlib.sha256()
    for arr in (np.stack([s.cls for s in seqs]),
                np.stack([s.patches for s in seqs])):
        h.update(np.ascontiguousarray(arr, dtype="<f8").tobytes())
    return h.hexdigest()


class TestEmbedDataset:
    def setup_method(self):
        self.suite = small_suite(GLOBAL, per_class=12)
        self.params = init_params(SMALL_ENC, RngStream(seed=1, stream_id=9))

    def test_order_and_shapes(self):
        tr = self.suite[0]
        seqs = embed_dataset(tr, self.params, SMALL_ENC)
        assert len(seqs) == len(tr.items)
        assert seqs[0].cls.shape == (16,)
        assert seqs[0].patches.shape == (4, 16)

    @pytest.mark.parametrize("name", sorted(EMBED_ENCODERS))
    def test_golden_digest(self, name):
        """Embedding bytes on the seed-0 LOCAL suite, pinned from the
        batch-1 forward so the batched path must reproduce them."""
        cfg = EMBED_ENCODERS[name]
        params = init_params(cfg, RngStream(seed=0, stream_id=11))
        seqs = embed_dataset(local_items(), params, cfg)
        assert len(seqs) == 20
        assert embedding_digest(seqs) == GOLDEN_EMBED_SHA256[name]

    def test_chunk_split_invariant(self):
        """17 items in one call (a full chunk plus one) give the same
        bytes as 17 one-item calls, for both pinned encoders."""
        ds = local_items(17)
        for cfg in EMBED_ENCODERS.values():
            params = init_params(cfg, RngStream(seed=0, stream_id=11))
            whole = embed_dataset(ds, params, cfg)
            single = [embed_dataset(LabeledDataset([item], ds.class_names,
                                                   [sid]), params, cfg)[0]
                      for item, sid in zip(ds.items, ds.source_ids)]
            assert embedding_digest(whole) == embedding_digest(single)

    def test_save_load_round_trip(self, tmp_path):
        tr = self.suite[0]
        seqs = embed_dataset(tr, self.params, SMALL_ENC)
        path = tmp_path / "emb.npz"
        save_embeddings(path, seqs, tr.labels, SMALL_ENC,
                        extra={"config_fingerprint": "ab" * 8})
        kind, config, tensors, extra = load_params(path)
        assert kind == "embeddings" and config == asdict(SMALL_ENC)
        assert np.array_equal(tensors["labels"], tr.labels)
        assert extra["config_fingerprint"] == "ab" * 8
        assert np.array_equal(tensors["cls"], [s.cls for s in seqs])
        assert np.array_equal(tensors["patches"], [s.patches for s in seqs])


class TestReports:
    def make(self):
        return make_report("demo", [0, 0, 1, 1], [0, 1, 1, 1],
                           fingerprint="0123456789abcdef", seed=3,
                           class_names=["a", "b"], extra={})

    def test_make_report_fields(self):
        rep = self.make()
        assert rep["bacc"] == 0.75
        assert rep["per_class_recalls"] == [0.5, 1.0]
        assert rep["zero_support_classes"] == []
        validate_report(rep)

    def test_zero_support_reported(self):
        rep = make_report("demo", [0, 0, 1, 1], [0, 1, 1, 1],
                          fingerprint="0123456789abcdef", seed=0,
                          class_names=["a", "b", "c"], extra={})
        assert rep["zero_support_classes"] == [2]
        assert rep["per_class_recalls"][2] is None
        validate_report(rep)

    @pytest.mark.parametrize("patch", [
        {"bacc": 1.5}, {"config_fingerprint": "nothex!"},
        {"format_version": 2}, {"task": None}])
    def test_validation_rejects(self, patch):
        rep = self.make()
        rep.update(patch)
        with pytest.raises(jsonschema.ValidationError):
            validate_report(rep)

    def test_write_report_round_trip(self, tmp_path):
        rep = self.make()
        path = tmp_path / "report.json"
        write_report(rep, path)
        assert json.loads(path.read_text()) == rep

    def test_delta_rendering(self):
        rep = self.make()
        rep["ablation_rows"] = [
            {"staining_aug": False, "head_mode": "linear", "bacc": 0.813},
            {"staining_aug": True, "head_mode": "linear", "bacc": 0.836,
             "delta_rendered": _fmt_delta(0.836 - 0.813)},
            {"staining_aug": True, "head_mode": "attnpool", "bacc": 0.869,
             "delta_rendered": _fmt_delta(0.869 - 0.836)},
        ]
        table = render_ablation_table(rep)
        assert "(2.3↑)" in table and "(3.3↑)" in table
        assert table.count("\n") == 3

    def test_delta_arrow_direction(self):
        rep = self.make()
        rep["ablation_rows"] = [
            {"staining_aug": False, "head_mode": "linear", "bacc": 0.8},
            {"staining_aug": True, "head_mode": "linear", "bacc": 0.75,
             "delta_rendered": _fmt_delta(0.75 - 0.8)},
        ]
        assert "(5.0↓)" in render_ablation_table(rep)

    def test_svg_deterministic(self, tmp_path):
        rep = self.make()
        rep["ablation_rows"] = [
            {"staining_aug": False, "head_mode": "linear", "bacc": 0.5},
            {"staining_aug": True, "head_mode": "attnpool", "bacc": 0.9},
        ]
        p1, p2 = tmp_path / "a.svg", tmp_path / "b.svg"
        write_bacc_svg(rep, p1)
        write_bacc_svg(rep, p2)
        data = p1.read_bytes()
        assert data == p2.read_bytes()
        assert data.startswith(b"<svg") and b"</svg>" in data


class TestAblation:
    def tiny_cfg(self, seeds=(0,)):
        return AblationConfig(
            seeds=seeds, pretrain_steps=2, batch_size=4, ssl_lr=1e-3,
            encoder=EncoderConfig(image_size=32, token_size=16, embed_dim=16,
                                  depth=1, num_heads=2, mlp_ratio=2.0),
            ssl=SslConfig(prototype_count=8, mask_fraction=0.3),
            head=HeadTrainConfig(epochs=4, lr=1e-2, batch=16, num_heads=2))

    def test_config_dict_round_trip_fingerprintable(self):
        d = asdict(AblationConfig())
        json.dumps(d, sort_keys=True)
        assert d["pretrain_steps"] == 400

    def test_smoke_run_structure(self):
        """One seed, two tiny tasks: three schema-valid rows sharing the
        exact same splits, deltas rendered on rows 2 and 3."""
        suites = {
            "g": small_suite(GLOBAL, per_class=10, seed=0),
            "l": small_suite(LOCAL, per_class=10, seed=1),
        }
        rep = run_ablation(suites, self.tiny_cfg(), "0" * 16)
        validate_report(rep)
        rows = rep["ablation_rows"]
        assert [(r["staining_aug"], r["head_mode"]) for r in rows] == [
            (False, "linear"), (True, "linear"), (True, "attnpool")]
        assert all(r["split_hashes"] == rows[0]["split_hashes"] for r in rows)
        assert "delta_rendered" in rows[1] and "delta_rendered" in rows[2]
        # the table prints the stored deltas, equal to recomputing them
        lines = render_ablation_table(rep).splitlines()
        assert lines[1].endswith(f"{rows[0]['bacc'] * 100:>6.1f}  ")
        for i in (1, 2):
            assert lines[i + 1].endswith(
                "  " + _fmt_delta(rows[i]["bacc"] - rows[i - 1]["bacc"]))
        assert set(rows[0]["per_task_bacc"]) == {"g", "l"}
        assert rep["full_scale_context"]["rows"] == [81.3, 83.6, 86.9]

    def test_same_seed_reproducible(self):
        suites = {"g": small_suite(GLOBAL, per_class=10, seed=0)}
        a = run_ablation(suites, self.tiny_cfg(), "0" * 16)
        b = run_ablation(suites, self.tiny_cfg(), "0" * 16)
        assert a == b
