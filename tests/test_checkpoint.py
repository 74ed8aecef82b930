"""The one config reader: ``read_config`` is the inverse of ``asdict``
for every config dataclass, ``check_value`` holds the type rules, and
a value of any JSON type in any field comes out as a ``ConfigError``
from a config file or a ``DataError`` from an artifact header.  Any
damage to a checkpoint file comes out of ``load_params`` as a
``DataError``."""

import json
import math
import tempfile
import tracemalloc
from dataclasses import asdict, fields, is_dataclass
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tokenhier.bench import AblationConfig
from tokenhier.checkpoint import (check_value, load_params, read_config,
                                  save_params)
from tokenhier.color import StainAugConfig
from tokenhier.encoder import EncoderConfig
from tokenhier.errors import ConfigError, DataError
from tokenhier.heads import HeadTrainConfig
from tokenhier.numkernel import RngStream
from tokenhier.ssl import (SslConfig, init_train_state, load_train_state,
                           save_train_state)

CONFIGS = (EncoderConfig, SslConfig, StainAugConfig, HeadTrainConfig,
           AblationConfig)
FIELDS = [(cls, f.name) for cls in CONFIGS for f in fields(cls)]

# Python's json reads NaN, Infinity and -Infinity, so a file can hold them
non_finite = st.sampled_from([math.nan, math.inf, -math.inf])

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | non_finite
    | st.text(),
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
        (tuple[int, ...], [1, 2]), (tuple[float, ...], (1, 2.5))])
    def test_accepts(self, hint, value):
        assert check_value("k", hint, value) == (
            tuple(value) if isinstance(value, list) else value)

    @pytest.mark.parametrize("hint, value", [
        (int, 1.5), (int, 2.0), (int, True), (int, "3"), (float, True),
        (float, "x"), (float, None), (bool, 1), (bool, "false"), (str, None),
        (str, 5), (tuple[int, ...], 3), (tuple[int, ...], [0.5]),
        (tuple[float, ...], [True, 1, 2]), (tuple[float, ...], "abc"),
        (float, math.nan), (float, math.inf), (float, -math.inf),
        pytest.param(float, 10 ** 400, id="float-10**400"),
        (tuple[float, ...], [1.0, math.nan])])
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
        save_params(path, kind, config, tensors, {})
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


def checkpoint_bytes():
    """A valid two-tensor checkpoint, as bytes."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "x"
        save_params(path, "train_state", {"step": 1},
                    {"a": np.arange(6.0).reshape(2, 3), "b": np.ones(1)},
                    extra={"note": "x"})
        return path.read_bytes()


VALID = checkpoint_bytes()
HEADER, _, BLOB = VALID.partition(b"\n")

dims = st.integers(-2, 4) | st.sampled_from([2 ** 31, 2 ** 62, 2 ** 64])

# The tensor each float64 slot of BLOB belongs to, in file order.
SLOTS = [entry["name"] for entry in json.loads(HEADER)["tensors"]
         for _ in range(math.prod(entry["shape"]))]


@st.composite
def byte_mutations(draw):
    """The valid file with a few bytes overwritten, dropped or added."""
    data = bytearray(VALID)
    for _ in range(draw(st.integers(1, 6))):
        i = draw(st.integers(0, len(data) - 1))
        op = draw(st.sampled_from(["set", "drop", "insert"]))
        byte = draw(st.integers(0, 255))
        if op == "set":
            data[i] = byte
        elif op == "drop":
            del data[i]
        else:
            data.insert(i, byte)
    return bytes(data)


@st.composite
def non_finite_payloads(draw):
    """The valid file with one payload float overwritten by a NaN (either
    sign, any mantissa: quiet or signalling) or an infinity (mantissa
    0); the header is kept.  Returns the bytes and the tensor hit."""
    slot = draw(st.integers(0, len(SLOTS) - 1))
    mantissa = draw(st.just(0) | st.integers(1, 2 ** 52 - 1))
    bits = draw(st.integers(0, 1)) << 63 | 0x7FF << 52 | mantissa
    blob = bytearray(BLOB)
    blob[8 * slot:8 * slot + 8] = bits.to_bytes(8, "little")
    return HEADER + b"\n" + bytes(blob), SLOTS[slot]


@st.composite
def header_mutations(draw):
    """The valid file with one header value, or one field of one tensor
    entry, replaced by any JSON value (or a list of dimensions), and
    the tensor bytes mostly kept, else cut or padded by one float."""
    header = json.loads(HEADER)
    entries = header["tensors"]
    if draw(st.booleans()):
        key = draw(st.sampled_from(sorted(header)))
        header[key] = draw(json_values)
    else:
        entry = entries[draw(st.integers(0, len(entries) - 1))]
        key = draw(st.sampled_from(["name", "shape"]))
        entry[key] = draw(json_values | st.lists(dims, max_size=3)
                          | st.sampled_from([e["name"] for e in entries]))
    blob = draw(st.sampled_from([BLOB, BLOB, BLOB[:-8], BLOB + bytes(8)]))
    return json.dumps(header).encode("ascii") + b"\n" + blob


class TestDamagedCheckpointFile:
    def raised(self, data: bytes):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "x"
            path.write_bytes(data)
            try:
                load_params(path)
            except Exception as e:  # noqa: BLE001 - the class is the result
                return type(e)
        return None

    def test_valid_file_loads(self):
        assert self.raised(VALID) is None

    @settings(max_examples=200, deadline=None)
    @given(data=st.binary(max_size=200) | byte_mutations())
    def test_damaged_bytes_raise_only_data_error(self, data):
        assert self.raised(data) in (None, DataError)

    @settings(max_examples=300, deadline=None)
    @given(data=header_mutations())
    def test_damaged_header_raises_only_data_error(self, data):
        assert self.raised(data) in (None, DataError)

    @settings(max_examples=100, deadline=None)
    @given(damaged=non_finite_payloads())
    def test_non_finite_payload_names_its_tensor(self, damaged):
        """``save_params`` writes no non-finite tensor, so one read back
        is damage: a ``DataError`` naming the first tensor that holds it."""
        data, name = damaged
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "x"
            path.write_bytes(data)
            with pytest.raises(DataError, match=f"tensor '{name}' has "
                                                "non-finite entries$"):
                load_params(path)

    @pytest.mark.parametrize("data", [b"[" * 100000 + b"\n", b"\xff\n"],
                             ids=["deeply_nested", "not_utf8"])
    def test_unparsable_header(self, data):
        assert self.raised(data) is DataError

    def test_header_int_past_digit_limit(self):
        """An integer longer than Python parses from a string (4,300
        digits by default) is a bad header, not a ValueError."""
        data = VALID.replace(b'"step": 1', b'"step": ' + b"9" * 5000)
        assert data != VALID
        assert self.raised(data) is DataError


class TestOneBuffer:
    """``load_params`` reads a checkpoint's payload once, into one
    buffer, and hands out its tensors as views of it."""

    @pytest.fixture
    def desk_checkpoint(self, tmp_path):
        desk = AblationConfig()
        state = init_train_state(desk.encoder, desk.ssl, RngStream(seed=0))
        path = tmp_path / "desk.ckpt"
        save_train_state(path, state, desk.encoder, desk.ssl)
        return path, state

    def test_peak_is_about_one_file(self, desk_checkpoint):
        """One load holds the file about once at its peak, not twice."""
        path, _ = desk_checkpoint
        tracemalloc.start()
        try:
            load_params(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.1 * path.stat().st_size

    def test_tensors_are_writable_aligned_views(self, desk_checkpoint):
        """Every tensor holds the saved bytes as an aligned float64 array
        that training can update in place without touching another."""
        path, state = desk_checkpoint
        _, _, tensors, _ = load_params(path)
        saved = {"student." + k: v for k, v in state.student.items()}
        for tensor in tensors.values():
            assert tensor.dtype == np.float64
            assert tensor.flags.writeable and tensor.flags.aligned
        for name, value in saved.items():
            assert tensors[name].tobytes() == value.tobytes()
        before = {name: t.copy() for name, t in tensors.items()}
        tensors["student.enc.embed.W"] += 1.0
        assert all(np.array_equal(t, before[name])
                   for name, t in tensors.items()
                   if name != "student.enc.embed.W")

