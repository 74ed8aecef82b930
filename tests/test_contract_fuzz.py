"""The exit-code contract under generated config files.

Each example writes a config file of 1-3 keys drawn from the fields of
``StainAugConfig`` and ``SslConfig`` plus ``lr``, each holding a value
(or a triple of values) from one edge pool, and runs ``pretrain`` or
``augment`` through ``cli.main`` in a forked child under its own
address-space limit and alarm.  The oracle: the exit code is 0, 1 or
2; stderr's last line starts with that code's label; an exit 0 writes
strict JSON (no NaN or Infinity) and prints no ``warning:`` line.
"""

import dataclasses
import json
import os
import resource
import signal
import sys
import tempfile
import traceback
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tokenhier import cli
from tokenhier.color import StainAugConfig, write_ppm
from tokenhier.errors import TokenhierError
from tokenhier.numkernel import RngStream
from tokenhier.ssl import SslConfig

KEYS = sorted({f.name for cfg in (StainAugConfig, SslConfig)
               for f in dataclasses.fields(cfg)} | {"lr"})
EDGES = st.sampled_from([0, 5e-324, 1e-300, 1, 1e101, 1e300, 1e308, -1])
VALUES = EDGES | st.lists(EDGES, min_size=3, max_size=3)
LABELS = {cls.code: cls.label for cls in TokenhierError.__subclasses__()}
CHILD_AS_EXTRA = 3 << 30
CHILD_ALARM_S = 30


@st.composite
def configs(draw):
    keys = draw(st.lists(st.sampled_from(KEYS), min_size=1, max_size=3,
                         unique=True))
    return {key: draw(VALUES) for key in keys}


@pytest.fixture(scope="module")
def rasters(tmp_path_factory):
    """A two-raster tree for ``augment``."""
    root = tmp_path_factory.mktemp("in")
    for i in range(2):
        rng = RngStream(seed=i, stream_id=3)
        write_ppm(root / f"r{i}.ppm",
                  (rng.uniform(16 * 16 * 3) * 256).astype("uint8")
                  .reshape(16, 16, 3))
    return root


def run_in_child(argv, tmp: Path):
    """``(exit code, stderr)`` of ``cli.main(argv)`` in a forked child;
    a signal that ends the child (the alarm, say) comes back negative."""
    err_path = tmp / "stderr"
    pid = os.fork()
    if pid == 0:
        code = 70   # an exception escaped main
        try:
            err = os.open(err_path, os.O_WRONLY | os.O_CREAT, 0o644)
            os.dup2(os.open(os.devnull, os.O_WRONLY), 1)
            os.dup2(err, 2)
            sys.stdout = open(1, "w", closefd=False)
            sys.stderr = open(2, "w", buffering=1, closefd=False)
            # the limit counts the mappings the child inherits, so the
            # headroom goes on top of them
            with open("/proc/self/statm", encoding="ascii") as fh:
                pages = int(fh.read().split()[0])
            limit = pages * os.sysconf("SC_PAGESIZE") + CHILD_AS_EXTRA
            resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
            signal.alarm(CHILD_ALARM_S)
            code = cli.main([str(a) for a in argv])
        except BaseException:   # reported, never returned into pytest
            traceback.print_exc()
        finally:
            sys.stderr.flush()
            os._exit(code)
    _, status = os.waitpid(pid, 0)
    return os.waitstatus_to_exitcode(status), err_path.read_text()


def refuse_constant(name):
    raise ValueError(f"non-strict JSON constant {name}")


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(config=configs(), command=st.sampled_from(["augment", "pretrain"]))
def test_config_files_keep_the_exit_contract(rasters, config, command):
    with tempfile.TemporaryDirectory() as tmp:
        cfg, out = Path(tmp) / "c.json", Path(tmp) / "out"
        cfg.write_text(json.dumps(config))
        argv = {"augment": ["--input", rasters, "--out", out],
                "pretrain": ["--steps", "2", "--batch-size", "2",
                             "--out", out / "c.ckpt"]}[command]
        code, err = run_in_child([command, "--config", cfg, *argv,
                                  "--log-level", "quiet"], Path(tmp))
        lines = err.splitlines()
        assert code in (0, 1, 2), (code, err)
        if code:
            assert lines and lines[-1].startswith(f"{LABELS[code]}: "), err
            return
        assert not [ln for ln in lines if ln.startswith("warning:")], err
        documents = [p.read_text() for p in out.glob("*.json")]
        for path in out.glob("*.jsonl"):
            documents += path.read_text().splitlines()
        assert documents
        for doc in documents:
            json.loads(doc, parse_constant=refuse_constant)
