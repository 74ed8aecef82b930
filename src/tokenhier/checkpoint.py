"""Single-file tensor container: one JSON header line, then raw blobs.

Layout: ``{"format_version": 1, "kind": ..., "config": {...},
"tensors": [{"name", "shape"}...], "extra": {...}}\n`` followed by each
tensor's float64 little-endian bytes in the header's declared order.
Tensor names are written sorted so identical params yield identical
bytes on every platform.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import sys
import typing
from dataclasses import is_dataclass

import numpy as np

from .errors import ConfigError, DataError

FORMAT_VERSION = 1


def config_fingerprint(obj) -> str:
    """Stable 16-hex-digit hash of a JSON-serializable config."""
    payload = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode("ascii")).hexdigest()[:16]


_KINDS = {int: "an integer", float: "a number", bool: "true or false",
          str: "a string"}


def check_value(key: str, hint, value):
    """``value`` if its JSON type fits the annotation ``hint``, else a
    ``ConfigError`` naming ``key``: a float also takes an integer but
    nothing non-finite, a bool is never a number, ``tuple[X, ...]`` takes
    a list of X and a nested config an object.  Only lists change (to
    tuples): fingerprints hold."""
    if is_dataclass(hint):
        return read_config(hint, value)
    if typing.get_origin(hint) is tuple:
        if not isinstance(value, (list, tuple)):
            raise ConfigError(f"{key} must be a list, got {value!r}")
        return tuple(check_value(key, typing.get_args(hint)[0], v)
                     for v in value)
    allowed = (int, float) if hint is float else hint
    if (not isinstance(value, allowed)
            or isinstance(value, bool) and hint is not bool):
        raise ConfigError(f"{key} must be {_KINDS[hint]}, got {value!r}")
    # NaN and the infinities (which Python's json reads) slip past every
    # domain check written as a comparison; so would an integer too
    # large for a float
    big = sys.float_info.max
    if hint is float and not -big <= value <= big:
        raise ConfigError(f"{key} must be a finite number, got {value!r}")
    return value


def check_size(what: str, count: int) -> None:
    """Refuse ``count`` float64 values or RNG words (and the word an odd
    Gaussian draw adds) past what one numpy array can index."""
    if 8 * (count + 1) > np.iinfo(np.intp).max:
        raise ConfigError(f"{what} is too large for any array")


def read_config(cls, obj):
    """Inverse of ``asdict``, for header configs and config files alike:
    the ``cls`` config from a JSON object whose values pass
    ``check_value``, absent fields taking their defaults.  Failures are
    ``ConfigError``; artifact loaders report them as damaged data."""
    if not isinstance(obj, dict):
        raise ConfigError(f"{cls.__name__} must be an object, got {obj!r}")
    hints = typing.get_type_hints(cls)
    unknown = sorted(set(obj) - set(hints))
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
    return cls(**{key: check_value(key, hints[key], value)
                  for key, value in obj.items()})


def save_params(path, kind: str, config: dict, params: dict, extra: dict) -> None:
    names = sorted(params)
    for name in names:
        arr = np.asarray(params[name])
        if not np.all(np.isfinite(arr)):
            raise ConfigError(f"tensor {name!r} has non-finite entries")
    header = {
        "format_version": FORMAT_VERSION,
        "kind": kind,
        "config": config,
        "tensors": [{"name": n, "shape": list(np.asarray(params[n]).shape)}
                    for n in names],
        "extra": extra,
    }
    with open(path, "wb") as fh:
        fh.write(json.dumps(header, sort_keys=True).encode("ascii") + b"\n")
        for n in names:
            fh.write(np.ascontiguousarray(params[n], dtype="<f8").tobytes())


def load_params(path):
    """Returns (kind, config, params, extra); a bad shape or size, a
    non-finite entry or an unreadable path is a data error, not a crash.
    The payload is read once into one buffer, and every tensor is a
    writable view of it."""
    try:
        with open(path, "rb") as fh:
            head_line = fh.readline()
            # fstat gives a /proc file size 0: its payload reads empty
            size = os.fstat(fh.fileno()).st_size - fh.tell()
            blob = bytearray(max(0, size))
            del blob[fh.readinto(blob):]   # a file that shrank meanwhile
    except OSError as e:
        raise DataError(f"{path}: cannot read checkpoint: "
                        f"{e.strerror or e}") from None
    try:
        # ValueError covers non-UTF-8 bytes and ints past the digit limit too
        header = json.loads(head_line)
    except (ValueError, RecursionError) as e:
        raise DataError(f"{path}: bad checkpoint header: {e}") from None
    if not isinstance(header, dict) or header.get("format_version") != FORMAT_VERSION:
        raise DataError(f"{path}: unsupported checkpoint format")
    if not isinstance(header.get("kind"), str):
        raise DataError(f"{path}: checkpoint header names no kind")
    config, extra = header.get("config", {}), header.get("extra", {})
    if not (isinstance(config, dict) and isinstance(extra, dict)):
        raise DataError(f"{path}: checkpoint config and extra must be objects")
    entries = header.get("tensors", [])
    if not isinstance(entries, list):
        raise DataError(f"{path}: checkpoint tensor table is not a list")
    params = {}
    off = 0
    for entry in entries:
        if not (isinstance(entry, dict) and isinstance(entry.get("name"), str)
                and isinstance(entry.get("shape"), list)
                and all(type(s) is int for s in entry["shape"])):
            raise DataError(f"{path}: bad tensor entry {entry!r}")
        name, shape = entry["name"], entry["shape"]
        if name in params:
            raise DataError(f"{path}: tensor {name!r} listed twice")
        if any(s < 0 for s in shape):
            raise DataError(f"{path}: tensor {name!r} has a negative dimension")
        count = math.prod(shape)
        if off + 8 * count > len(blob):
            raise DataError(f"{path}: tensor {name!r} truncated")
        try:
            tensor = np.frombuffer(blob, "<f8", count, off).reshape(shape)
        except (ValueError, OverflowError):
            raise DataError(f"{path}: tensor {name!r} has shape {shape}, "
                            "too large for an array") from None
        if not np.isfinite(tensor).all():   # save_params writes none
            raise DataError(f"{path}: tensor {name!r} has non-finite entries")
        params[name] = tensor
        off += 8 * count
    if off != len(blob):
        raise DataError(f"{path}: {len(blob) - off} trailing bytes after tensors")
    return header["kind"], config, params, extra
