"""The one config reader: ``read_config`` is the inverse of ``asdict``
for every config dataclass, ``check_value`` holds the type rules, and
a value of any JSON type in any field comes out as a ``ConfigError``
from a config file or a ``DataError`` from an artifact header."""

import json
import tempfile
from dataclasses import asdict, fields, is_dataclass
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tokenhier.bench import AblationConfig, load_embeddings
from tokenhier.checkpoint import check_value, read_config, save_params
from tokenhier.color import StainAugConfig
from tokenhier.encoder import EncoderConfig
from tokenhier.errors import ConfigError, DataError
from tokenhier.heads import HeadTrainConfig
from tokenhier.ssl import SslConfig, load_train_state

CONFIGS = (EncoderConfig, SslConfig, StainAugConfig, HeadTrainConfig,
           AblationConfig)
FIELDS = [(cls, f.name) for cls in CONFIGS for f in fields(cls)]

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(), inner, max_size=4),
    max_leaves=8)


def desk_configs():
    desk = AblationConfig()
    return [cls() for cls in CONFIGS] + [desk.encoder, desk.ssl, desk.aug,
                                         desk.head]


class TestRoundTrip:
    @pytest.mark.parametrize("cfg", desk_configs(),
                             ids=lambda c: type(c).__name__)
    def test_inverse_of_asdict(self, cfg):
        assert read_config(type(cfg), asdict(cfg)) == cfg
        # what a header or a config file gives back: lists, not tuples
        as_json = json.loads(json.dumps(asdict(cfg)))
        assert read_config(type(cfg), as_json) == cfg

    def test_absent_fields_take_defaults(self):
        """A nested object is read against its class's defaults too."""
        cfg = read_config(AblationConfig,
                          {"pretrain_steps": 3, "head": {"epochs": 2}})
        assert cfg == AblationConfig(pretrain_steps=3,
                                     head=HeadTrainConfig(epochs=2))

    def test_values_are_not_converted(self):
        """An integer in a float field stays an integer, so a config
        that loads keeps the fingerprint it had."""
        cfg = read_config(EncoderConfig, {"mlp_ratio": 2})
        assert type(cfg.mlp_ratio) is int
        seeds = read_config(AblationConfig, {"seeds": [3, 4]}).seeds
        assert seeds == (3, 4)


class TestTypeRules:
    @pytest.mark.parametrize("hint, value", [
        (int, 3), (float, 3), (float, 0.5), (bool, False), (str, "lab"),
        (str | None, None), (str | None, "x"), (tuple[int, ...], [1, 2]),
        (tuple[float, ...], (1, 2.5))])
    def test_accepts(self, hint, value):
        assert check_value("k", hint, value) == (
            tuple(value) if isinstance(value, list) else value)

    @pytest.mark.parametrize("hint, value", [
        (int, 1.5), (int, 2.0), (int, True), (int, "3"), (float, True),
        (float, "x"), (float, None), (bool, 1), (bool, "false"), (str, None),
        (str, 5), (tuple[int, ...], 3), (tuple[int, ...], [0.5]),
        (tuple[float, ...], [True, 1, 2]), (tuple[float, ...], "abc")])
    def test_rejects_naming_the_key(self, hint, value):
        with pytest.raises(ConfigError, match="^k must be"):
            check_value("k", hint, value)

    def test_unknown_key(self):
        with pytest.raises(ConfigError, match="warp"):
            read_config(HeadTrainConfig, {"warp": 1})

    def test_non_object(self):
        with pytest.raises(ConfigError, match="SslConfig must be an object"):
            read_config(AblationConfig, {"ssl": [1]})


def load_error(load, kind, config, tensors):
    """The class of the exception ``load`` raises on a file whose header
    holds ``config``, or None."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "x"
        save_params(path, kind, config, tensors)
        try:
            load(path)
        except Exception as e:  # noqa: BLE001 - the class is the result
            return type(e)
    return None


class TestAnyValueInAnyField:
    @settings(max_examples=300, deadline=None)
    @given(field=st.sampled_from(FIELDS), value=json_values)
    def test_config_file_raises_config_error_only(self, field, value):
        """A value that is read is stored as written; any other is a
        ConfigError."""
        cls, name = field
        try:
            stored = getattr(read_config(cls, {name: value}), name)
        except ConfigError:
            return
        if not is_dataclass(stored):
            assert json.dumps(stored) == json.dumps(value)

    @settings(max_examples=150, deadline=None)
    @given(field=st.sampled_from(
        [f for f in FIELDS if f[0] in (EncoderConfig, SslConfig)]
        + [(None, "step"), (None, "adam_t")]), value=json_values)
    def test_training_header_raises_data_error_only(self, field, value):
        cls, name = field
        section = {EncoderConfig: "encoder", SslConfig: "ssl"}.get(cls)
        config = {section: {name: value}} if section else {name: value}
        centers = {"cls_center": np.zeros(2), "patch_center": np.zeros(2)}
        assert load_error(load_train_state, "train_state", config,
                          centers) in (None, DataError)

    @settings(max_examples=100, deadline=None)
    @given(name=st.sampled_from([f.name for f in fields(EncoderConfig)]),
           value=json_values)
    def test_embeddings_header_raises_data_error_only(self, name, value):
        tensors = {"cls": np.zeros((1, 64)), "patches": np.zeros((1, 16, 64)),
                   "labels": np.zeros(1)}
        assert load_error(load_embeddings, "embeddings", {name: value},
                          tensors) in (None, DataError)
