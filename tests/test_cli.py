import argparse
import ast
import contextlib
import errno
import hashlib
import io
import json
import math
import os
import re
import shlex
import subprocess
import sys
import tempfile
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tokenhier import cli
from tokenhier.bench import AblationConfig
from tokenhier.checkpoint import config_fingerprint, load_params, save_params
from tokenhier.cli import build_parser, main
from tokenhier.color import write_ppm
from tokenhier.numkernel import RngStream
from tokenhier.ssl import init_train_state, load_train_state

from report_schema import validate_report
from test_gradcheck import inject_fault


def run_cli(*argv):
    return main([str(a) for a in argv])


def tree_bytes(root):
    """{path: bytes} of every file under ``root``."""
    return {p: p.read_bytes() for p in sorted(root.rglob("*"))
            if p.is_file()}


# What a config key of a non-integer type must hold, as the error says it.
MUST_BE = {"lr": "a number", "ssl_lr": "a number", "mlp_ratio": "a number",
           "koleo_weight": "a number", "lab_mean_sigma": "a number",
           "enabled": "true or false"}


def type_error(config):
    """The message a one-key config file of the wrong type must print."""
    key = next(iter(config))
    return f"{key} must be {MUST_BE.get(key, 'an integer')}"


def noisy_raster(seed, size=512):
    """Half-dark structured image that tiles into foreground everywhere."""
    rng = RngStream(seed=seed, stream_id=88)
    img = 80.0 + 60.0 * rng.gaussian(size * size * 3).reshape(size, size, 3)
    img = np.clip(img, 0, 255).astype(np.uint8)
    img[: size // 2] //= 3
    return img


# What each subcommand needs to get past argument parsing.
MINIMAL_ARGV = {
    "tile": ["--input", "in", "--out", "o"],
    "augment": ["--input", "in", "--out", "o"],
    "pretrain": ["--out", "o"],
    "posttrain": ["--out", "o", "--gram-teacher", "g"],
    "embed": ["--ckpt", "c", "--data", "d", "--out", "o"],
    "probe": ["--ckpt", "c", "--data", "d", "--mode", "linear",
              "--report", "r"],
    "bench": ["--suite", "global", "--out", "o"],
    "ablate": ["--out", "o"],
    "gradcheck": [],
    "demo": ["--out", "o"],
}


@pytest.fixture(scope="session")
def work(tmp_path_factory):
    """Shared artifacts for the expensive pipeline stages: one GLOBAL
    tree, one LOCAL tree, an untrained checkpoint, and a briefly
    pretrained one."""
    root = tmp_path_factory.mktemp("cli")
    assert run_cli("bench", "--suite", "global", "--out", root / "sg",
                   "--per-class", "20", "--seed", "0",
                   "--log-level", "quiet") == 0
    assert run_cli("bench", "--suite", "local", "--out", root / "sl",
                   "--per-class", "60", "--seed", "0",
                   "--log-level", "quiet") == 0
    assert run_cli("pretrain", "--steps", "0", "--out", root / "init.ckpt",
                   "--seed", "0", "--log-level", "quiet") == 0
    assert run_cli("pretrain", "--steps", "100", "--out", root / "enc.ckpt",
                   "--seed", "0", "--log-level", "quiet") == 0
    return root


class TestArgumentHandling:
    """Usage problems come back as exit 2 without tracebacks."""

    def test_no_arguments(self, capsys):
        assert main([]) == 2
        capsys.readouterr()

    def test_unknown_subcommand(self, capsys):
        assert main(["frobnicate"]) == 2
        capsys.readouterr()

    def test_bogus_probe_mode(self, work, capsys):
        assert run_cli("probe", "--ckpt", work / "enc.ckpt",
                       "--data", work / "sg", "--mode", "bogus",
                       "--report", work / "x.json") == 2
        assert "--mode" in capsys.readouterr().err

    def test_missing_input_directory(self, tmp_path, capsys):
        assert run_cli("tile", "--input", tmp_path / "nope",
                       "--out", tmp_path / "m.jsonl") == 2
        capsys.readouterr()

    def test_config_file_not_json(self, tmp_path, capsys):
        cfg = tmp_path / "bad.json"
        cfg.write_text("not json {")
        assert run_cli("pretrain", "--config", cfg, "--steps", "1",
                       "--out", tmp_path / "c.ckpt") == 2
        assert "JSON" in capsys.readouterr().err

    def test_config_file_nested_too_deep(self, tmp_path, capsys):
        """Nesting past the recursion limit is a bad config file (exit
        2), not a RecursionError traceback."""
        cfg = tmp_path / "deep.json"
        cfg.write_text("[" * 100_000)
        assert run_cli("pretrain", "--config", cfg, "--steps", "0",
                       "--out", tmp_path / "c.ckpt") == 2
        assert "not valid JSON" in capsys.readouterr().err
        assert not (tmp_path / "c.ckpt").exists()

    @pytest.mark.parametrize("text", [b'{"depth": "\xff"}',
                                      b'{"depth": ' + b"9" * 5000 + b"}"],
                             ids=["not_utf8", "int_past_digit_limit"])
    def test_config_file_unreadable_value(self, tmp_path, capsys, text):
        """Bytes that are not UTF-8, or an integer longer than Python
        parses from a string, make a bad config file (exit 2), not a
        UnicodeDecodeError or ValueError traceback."""
        cfg = tmp_path / "bad.json"
        cfg.write_bytes(text)
        assert run_cli("pretrain", "--config", cfg, "--steps", "0",
                       "--out", tmp_path / "c.ckpt") == 2
        assert "not valid JSON" in capsys.readouterr().err
        assert not (tmp_path / "c.ckpt").exists()

    def test_config_file_not_object(self, tmp_path, capsys):
        cfg = tmp_path / "list.json"
        cfg.write_text("[1, 2]")
        assert run_cli("pretrain", "--config", cfg, "--steps", "1",
                       "--out", tmp_path / "c.ckpt") == 2
        capsys.readouterr()

    @pytest.mark.parametrize("command", ["augment", "pretrain", "posttrain",
                                         "probe", "ablate"])
    def test_config_file_unreadable(self, tmp_path, monkeypatch, capsys,
                                    command):
        """A --config path that cannot be opened is a usage error on
        every command that reads one, and nothing is written."""
        monkeypatch.chdir(tmp_path)
        assert run_cli(command, *MINIMAL_ARGV[command],
                       "--config", "missing.json") == 2
        assert "cannot read config missing.json" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

    def test_unknown_config_key(self, tmp_path, capsys):
        cfg = tmp_path / "extra.json"
        cfg.write_text('{"warp_factor": 9}')
        assert run_cli("pretrain", "--config", cfg, "--steps", "1",
                       "--out", tmp_path / "c.ckpt") == 2
        assert "warp_factor" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["pretrain", "posttrain"])
    def test_training_config_refuses_space(self, tmp_path, capsys, command):
        """Each augmented view picks LAB or HSV by a coin, so a training
        config's ``space`` would change only the fingerprint: exit 2
        naming the key, nothing written."""
        cfg = tmp_path / "c.json"
        cfg.write_text('{"space": "lab"}')
        anchor = (["--gram-teacher", tmp_path / "g.ckpt"]
                  if command == "posttrain" else [])
        assert run_cli(command, "--config", cfg, "--steps", "1",
                       "--out", tmp_path / "out" / "c.ckpt", *anchor) == 2
        assert "unknown config keys: space" in capsys.readouterr().err
        assert sorted(tmp_path.iterdir()) == [cfg]

    def test_negative_steps(self, tmp_path, capsys):
        assert run_cli("pretrain", "--steps", "-3",
                       "--out", tmp_path / "c.ckpt") == 2
        capsys.readouterr()

    @pytest.mark.parametrize("config", [
        {"depth": 1.5}, {"embed_dim": 32.0}, {"prototype_count": True},
        {"steps": 2.7}, {"batch_size": 4.0}, {"seed": False},
        {"lr": "x"}, {"lr": True}, {"enabled": "false"}, {"mlp_ratio": True},
        {"koleo_weight": True}, {"lab_mean_sigma": [True, 1, 2]}])
    def test_training_integer_keys_reject_non_integers(self, tmp_path,
                                                       capsys, config):
        """A value of the wrong JSON type is a usage error naming its
        key, not a traceback or a silently converted value: floats and
        booleans in integer keys, strings and booleans in number keys,
        a string in a boolean key."""
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps(config))
        assert run_cli("pretrain", "--config", cfg,
                       "--out", tmp_path / "c.ckpt") == 2
        assert type_error(config) in capsys.readouterr().err
        assert not (tmp_path / "c.ckpt").exists()

    @pytest.mark.parametrize("text", [
        '{"mlp_ratio": NaN}', '{"lr": Infinity}', '{"koleo_weight": NaN}',
        '{"lab_std_sigma": [0.1, -Infinity, 0.1]}', '{"lr": 1e400}',
        '{"lr": %d}' % 10 ** 400], ids=[
        "mlp_ratio-nan", "lr-inf", "koleo_weight-nan", "lab_std_sigma--inf",
        "lr-1e400", "lr-10**400"])
    def test_non_finite_numbers_are_usage_errors(self, tmp_path, capsys,
                                                 text):
        """NaN, the infinities and integers past float range (which
        Python's json reads) are refused by name, not passed on to
        domain checks that cannot see them."""
        cfg = tmp_path / "c.json"
        cfg.write_text(text)
        assert run_cli("pretrain", "--config", cfg, "--steps", "0",
                       "--out", tmp_path / "c.ckpt") == 2
        key = next(iter(json.loads(text)))
        assert f"{key} must be a finite number" in capsys.readouterr().err
        assert not (tmp_path / "c.ckpt").exists()

    def test_config_seed_is_read(self, tmp_path, capsys):
        """A config-file seed acts like --seed; it used to be masked by
        a flag default leaking in from other subcommands."""
        cfg = tmp_path / "c.json"
        cfg.write_text('{"seed": 5}')
        outs = {}
        for name, extra in (("file", ["--config", cfg]),
                            ("flag", ["--seed", "5"]), ("none", [])):
            out = tmp_path / f"{name}.ckpt"
            assert run_cli("pretrain", "--steps", "0", "--out", out,
                           "--log-level", "quiet", *extra) == 0
            outs[name] = out.read_bytes()
        assert outs["file"] == outs["flag"] != outs["none"]
        capsys.readouterr()

    @pytest.mark.parametrize("config", [
        {"seeds": [0.5]}, {"seeds": [True]}, {"pretrain_steps": 1.5},
        {"batch_size": True}, {"head_epochs": 2.0}, {"suite_seed": 1.5},
        {"suite_per_class": 10.0}, {"ssl_lr": "x"}])
    def test_ablate_integer_keys_reject_non_integers(self, tmp_path,
                                                     capsys, config):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps(config))
        assert run_cli("ablate", "--config", cfg,
                       "--out", tmp_path / "a.json") == 2
        assert type_error(config) in capsys.readouterr().err

    @pytest.mark.parametrize("command, config, message", [
        ("ablate", {"pretrain_steps": -1}, "bad pretrain schedule"),
        ("ablate", {"batch_size": 0}, "bad pretrain schedule"),
        ("ablate", {"ssl_lr": 0.0}, "ssl_lr must be positive"),
        ("ablate", {"ssl_lr": -1e-3}, "ssl_lr must be positive"),
        ("pretrain", {"koleo_weight": -0.1}, "loss weights must be >= 0"),
        ("pretrain", {"gram_weight": -0.1}, "loss weights must be >= 0")])
    def test_values_outside_their_domain(self, tmp_path, capsys, command,
                                         config, message):
        """A value of the right type outside its domain is a usage
        error naming the rule, with nothing written."""
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps(config))
        assert run_cli(command, "--config", cfg,
                       "--out", tmp_path / "out" / "o") == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert sorted(tmp_path.iterdir()) == [cfg]

    def test_ablate_seeds_must_be_a_list(self, tmp_path, capsys):
        cfg = tmp_path / "c.json"
        cfg.write_text('{"seeds": 3}')
        assert run_cli("ablate", "--config", cfg,
                       "--out", tmp_path / "a.json") == 2
        assert "seeds must be a list" in capsys.readouterr().err

    def test_probe_integer_keys_reject_non_integers(self, tmp_path, capsys):
        cfg = tmp_path / "c.json"
        cfg.write_text('{"epochs": 2.5}')
        assert run_cli("probe", "--config", cfg, "--ckpt", tmp_path / "x",
                       "--data", tmp_path, "--mode", "linear",
                       "--report", tmp_path / "r.json") == 2
        assert "epochs must be an integer" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["tile", "--config", "/nonexistent"], ["tile", "--seed", "1"],
        ["embed", "--config", "c.json"], ["embed", "--seed", "1"],
        ["bench", "--config", "c.json"], ["ablate", "--seed", "5"],
        ["gradcheck", "--config", "/nonexistent"],
        ["gradcheck", "--seed", "9"], ["demo", "--config", "c.json"],
        # no command runs a worker pool, so none takes a thread count
        *([command, "--threads", "2"] for command in sorted(MINIMAL_ARGV))],
        ids=" ".join)
    def test_unread_options_are_refused(self, tmp_path, monkeypatch,
                                        capsys, argv):
        """A subcommand refuses an option it would not read (exit 2)
        instead of running without it, and shows its own usage, which
        lists what it does take."""
        monkeypatch.chdir(tmp_path)
        assert run_cli(argv[0], *MINIMAL_ARGV[argv[0]], *argv[1:]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"usage: tokenhier {argv[0]} [-h]")
        assert f"tokenhier {argv[0]}: error: unrecognized arguments" in err
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("argv,target", [
        (["pretrain", "--steps", "0"], "file/x"),
        (["tile", "--input", "in", "--tile-size", "16"], "file/x"),
        (["bench", "--suite", "global", "--per-class", "5"], "file/x"),
        (["augment", "--input", "in"], "file/x"),
        (["pretrain", "--steps", "0"], "dir")],
        ids=["pretrain-under-file", "tile-under-file", "bench-under-file",
             "augment-under-file", "pretrain-onto-dir"])
    def test_unwritable_output_is_usage_error(self, tmp_path, monkeypatch,
                                              capsys, argv, target):
        """An --out under a regular file, or naming a directory, is a
        usage error (exit 2, an ``error:`` line), not a traceback."""
        monkeypatch.chdir(tmp_path)
        tile_input(tmp_path / "in", "tree")
        Path("file").write_text("")
        Path("dir").mkdir()
        assert run_cli(*argv, "--out", target, "--log-level", "quiet") == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err

    def test_refused_write_is_usage_error(self, tmp_path, monkeypatch,
                                          capsys):
        """A write the OS refuses (here a full disk) exits 2 with an
        ``error:`` line, not a traceback."""
        def full_disk(*args, **kwargs):
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        monkeypatch.setattr(cli, "write_report", full_disk)
        assert run_cli("bench", "--suite", "global", "--per-class", "5",
                       "--out", tmp_path / "suite",
                       "--log-level", "quiet") == 2
        assert (capsys.readouterr().err
                == f"error: [Errno {errno.ENOSPC}] "
                   f"{os.strerror(errno.ENOSPC)}\n")

    @pytest.mark.parametrize("argv,config", [
        (["pretrain", "--steps", "1"], {"prototype_count": 10**13}),
        (["pretrain", "--steps", "1"], {"embed_dim": 10**13}),
        (["bench", "--suite", "global", "--per-class", 10**14], None)],
        ids=["prototype-count", "embed-dim", "per-class"])
    def test_unallocatable_size_is_usage_error(self, tmp_path, capsys, argv,
                                               config):
        """A model or suite too large to allocate exits 2 with one
        ``error:`` line and writes nothing.  Each size needs an array of
        more than 2**48 bytes, so no host starts to fill one."""
        cfg = tmp_path / "c.json"
        if config:
            cfg.write_text(json.dumps(config))
            argv = argv + ["--config", cfg]
        assert run_cli(*argv, "--out", tmp_path / "out",
                       "--log-level", "quiet") == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err
        assert err.count("\n") == 1
        assert sorted(tmp_path.iterdir()) == ([cfg] if config else [])

    @pytest.mark.parametrize("argv,config", [
        (["pretrain"], {"prototype_count": 10**20}),
        (["pretrain"], {"prototype_count": 2**63 - 1}),
        (["pretrain"], {"embed_dim": 10**20}),
        (["pretrain"], {"mlp_ratio": 1e300}),
        (["pretrain"], {"depth": 10**20}),
        (["pretrain"], {"image_size": 10**10, "token_size": 10**5}),
        (["pretrain"], {"batch_size": 2**63 - 1}),
        (["ablate"], {"batch_size": 2**63 - 1}),
        (["bench", "--suite", "global", "--per-class", 10**20], None),
        (["bench", "--suite", "global", "--per-class", 2**63 - 1], None)],
        ids=["prototype-count", "prototype-count-2**63-1", "embed-dim",
             "mlp-ratio", "depth", "corpus-raster", "batch-size",
             "ablate-batch-size", "per-class", "per-class-2**63-1"])
    def test_size_past_any_array_is_refused_at_entry(
            self, tmp_path, monkeypatch, capsys, argv, config):
        """A size no numpy array can index (a model tensor, the model's
        tensors together, a step's views, which are at least a bundled
        corpus raster, or a suite's draws) exits 2 with one ``error:``
        line where the config enters, before anything is built, and
        writes nothing; ``depth`` would otherwise allocate layer after
        layer until memory runs out."""
        for stub in ("make_pretrain_corpus", "init_train_state",
                     "make_synthetic_suite", "acceptance_suites",
                     "run_ablation"):
            monkeypatch.setattr(cli, stub, refuse_work)
        cfg = tmp_path / "c.json"
        if config:
            cfg.write_text(json.dumps(config))
            argv = argv + ["--config", cfg]
        assert run_cli(*argv, "--out", tmp_path / "out") == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "too large" in err
        assert err.count("\n") == 1 and "Traceback" not in err
        assert sorted(tmp_path.iterdir()) == ([cfg] if config else [])

    def test_out_of_memory_names_itself(self, tmp_path, monkeypatch, capsys):
        """A ``MemoryError`` without a message still prints a non-empty
        ``error:`` line."""
        def no_memory(*args, **kwargs):
            raise MemoryError()

        monkeypatch.setattr(cli, "make_synthetic_suite", no_memory)
        assert run_cli("bench", "--suite", "global",
                       "--out", tmp_path / "suite") == 2
        assert capsys.readouterr().err == "error: out of memory\n"
        assert not any(tmp_path.iterdir())


def refuse_work(*args, **kwargs):
    raise AssertionError("the command did its work before its outputs "
                         "were checked")


class TestOutputsCheckedFirst:
    """An output that cannot be written is refused (exit 2) before the
    command does any work, and nothing is written: ``file`` is a regular
    file, ``dir`` a directory, and ``stub`` the function that does the
    command's work, which must not run."""

    @pytest.mark.parametrize("stub,argv", [
        ("run_ablation", "ablate --config {tmp}/one-seed.json "
                         "--out {tmp}/file/a.json"),
        ("run_training", "pretrain --steps 30 --out {tmp}/dir"),
        ("embed_dataset", "probe --ckpt {work}/enc.ckpt --data {work}/sg "
                          "--mode linear --report {tmp}/dir"),
        ("embed_dataset", "embed --ckpt {work}/enc.ckpt --data {work}/sg "
                          "--out {tmp}/dir"),
        ("tile_sources", "tile --input {tmp}/in --out {tmp}/dir"),
        ("run_training", "pretrain --steps 30 --out {tmp}/c.ckpt "
                         "--log {tmp}/file/l.jsonl"),
        ("run_ablation", "ablate --config {tmp}/one-seed.json "
                         "--out {tmp}/a.json --svg {tmp}/dir"),
        ("write_ppm", "bench --suite global --out {tmp}/file/suite")],
        ids=["ablate-out-under-file", "pretrain-out-is-dir",
             "probe-report-is-dir", "embed-out-is-dir", "tile-out-is-dir",
             "pretrain-log-under-file", "ablate-svg-is-dir",
             "bench-out-under-file"])
    def test_refused_before_work(self, work, tmp_path, monkeypatch, capsys,
                                 stub, argv):
        err = self.refused(work, tmp_path, monkeypatch, capsys, stub, argv)
        assert err.startswith("error: --") and "directory" in err

    @pytest.mark.parametrize("stub,argv,sidecar", [
        ("run_ablation", "ablate --config {tmp}/one-seed.json "
                         "--out {tmp}/a.json", "a.json.svg"),
        ("run_training", "pretrain --steps 1 --out {tmp}/p/c.ckpt",
         "p/c.ckpt.losses.jsonl"),
        ("embed_dataset", "embed --ckpt {work}/enc.ckpt --data {work}/sg "
                          "--out {tmp}/e.emb", "e.emb.log"),
        ("embed_dataset", "probe --ckpt {work}/enc.ckpt --data {work}/sg "
                          "--mode linear --report {tmp}/r.json",
         "r.json.log"),
        ("write_ppm", "bench --suite global --out {tmp}/suite",
         "suite/report.json.log"),
        ("write_ppm", "bench --suite global --out {tmp}/suite",
         "suite/report.json"),
        ("write_ppm", "augment --input {tmp}/in --out {tmp}/aug",
         "aug/augment_summary.json")],
        ids=["ablate-default-svg", "pretrain-default-log", "embed-note",
             "probe-note", "bench-note", "bench-summary", "augment-summary"])
    def test_default_sidecar_refused_before_work(self, work, tmp_path,
                                                 monkeypatch, capsys, stub,
                                                 argv, sidecar):
        """The paths a command writes by default, beside the ones its
        flags name, are checked before any work too; so are the summary
        files that augment and bench write inside their --out."""
        (tmp_path / sidecar).mkdir(parents=True)
        err = self.refused(work, tmp_path, monkeypatch, capsys, stub, argv)
        assert err.startswith("error: ") and f"{sidecar} is a directory" in err

    @pytest.mark.parametrize("stub,argv,clash,other", [
        ("run_training", "pretrain --steps 1 --out {tmp}/c.ckpt "
                         "--log {tmp}/c.ckpt.log", "sidecar", "--log"),
        ("run_training", "pretrain --steps 1 --out {tmp}/d.ckpt "
                         "--log {tmp}/d.ckpt", "--log", "--out"),
        ("run_ablation", "ablate --config {tmp}/one-seed.json "
                         "--out {tmp}/a.json --svg {tmp}/a.json",
         "--svg", "--out"),
        ("run_ablation", "ablate --config {tmp}/one-seed.json "
                         "--out {tmp}/a.json --svg {tmp}/sub/../a.json",
         "--svg", "--out"),
        ("embed_dataset", "embed --ckpt {tmp}/a.ckpt --data {work}/sg "
                          "--out {tmp}/a.ckpt", "--out", "--ckpt"),
        ("embed_dataset", "probe --ckpt {tmp}/a.ckpt --data {work}/sg "
                          "--mode linear --report {tmp}/a.ckpt",
         "--report", "--ckpt"),
        ("run_training", "posttrain --steps 1 --gram-teacher {tmp}/a.ckpt "
                         "--out {tmp}/p.ckpt --log {tmp}/a.ckpt",
         "--log", "--gram-teacher"),
        ("run_training", "posttrain --steps 1 --gram-teacher {work}/init.ckpt "
                         "--init {tmp}/a.ckpt --out {tmp}/a.ckpt",
         "--out", "--init"),
        ("run_training", "pretrain --config {tmp}/steps.json "
                         "--out {tmp}/steps.json", "--out", "--config"),
        ("run_ablation", "ablate --config {tmp}/one-seed.json "
                         "--out {tmp}/one-seed.json", "--out", "--config"),
        ("run_ablation", "ablate --config {tmp}/one-seed.json "
                         "--out {tmp}/a.json --svg {tmp}/one-seed.json",
         "--svg", "--config"),
        ("run_ablation", "ablate --config {tmp}/run.log --out {tmp}/run",
         "sidecar", "--config")],
        ids=["pretrain-note-is-log", "pretrain-log-is-out",
             "ablate-svg-is-out", "ablate-svg-resolves-to-out",
             "embed-out-is-ckpt", "probe-report-is-ckpt",
             "posttrain-log-is-gram-teacher", "posttrain-out-is-init",
             "pretrain-out-is-config", "ablate-out-is-config",
             "ablate-svg-is-config", "ablate-note-is-config"])
    def test_two_outputs_on_one_path_refused(self, work, tmp_path,
                                             monkeypatch, capsys, stub,
                                             argv, clash, other):
        """An output that resolves to the path of another output, or of
        an input, would lose that artifact or destroy the input it is
        made from, so the command refuses before any work."""
        err = self.refused(work, tmp_path, monkeypatch, capsys, stub, argv)
        assert err.startswith(f"error: {clash} ")
        assert err.endswith(f" is the same path as {other}\n")

    @staticmethod
    def refused(work, tmp_path, monkeypatch, capsys, stub, argv):
        """Run argv with ``stub`` refusing work; assert exit 2 and an
        unchanged tree, every file's bytes kept, and return stderr."""
        (tmp_path / "file").write_text("")
        (tmp_path / "dir").mkdir()
        for name in ("one-seed.json", "run.log"):
            (tmp_path / name).write_text(
                json.dumps({"seeds": [0], "pretrain_steps": 20}))
        (tmp_path / "steps.json").write_text('{"steps": 1}')
        (tmp_path / "a.ckpt").write_bytes((work / "init.ckpt").read_bytes())
        tile_input(tmp_path / "in", "tree")
        before = sorted(tmp_path.rglob("*")), tree_bytes(tmp_path)
        monkeypatch.setattr(cli, stub, refuse_work)
        assert run_cli(*(a.format(tmp=tmp_path, work=work)
                         for a in argv.split())) == 2
        assert (sorted(tmp_path.rglob("*")), tree_bytes(tmp_path)) == before
        return capsys.readouterr().err


def tile_input(root, tree):
    """An input directory: "empty" holds no raster; "tree" holds mixed
    sizes, a flat raster, a raster smaller than a tile, and ids ("a" <
    "a-b") whose order differs from their paths' ("a-b.ppm" < "a.ppm")."""
    root.mkdir()
    if tree == "tree":
        write_ppm(root / "a.ppm", noisy_raster(0, size=64))
        write_ppm(root / "a-b.ppm", noisy_raster(1, size=48))
        write_ppm(root / "flat.ppm", np.full((32, 48, 3), 77, np.uint8))
        write_ppm(root / "tiny.ppm", noisy_raster(2, size=8))
        write_ppm(root / "wide.ppm", noisy_raster(3, size=96)[:40])
    return root


def one_gray_level(h, w):
    """Three colours of BT.601 luma 100: one gray level, many colours."""
    colours = np.array([(100, 100, 100), (0, 170, 0), (255, 0, 208)],
                       np.uint8)
    return colours[(np.arange(h)[:, None] + np.arange(w)) % 3]


# Manifest sha256s for tile_input's directories, written before tiling
# moved into one tiler call.
TILE_MANIFEST_SHA256 = {
    ("tree", "--tile-size 16 --min-tissue 0.5"):
        "e28c28959e0ce3e307b7d958f5da00a2f7c81778bd276c04d4715a966b07fdf0",
    ("tree", "--tile-size 16 --min-tissue 0.0"):
        "f195dc208eecb5d45cf4544cec30412f1e20551dc478c8c8fb2759b0193d7b8a",
    ("tree", "--tile-size 32 --min-tissue 0.2 --invert"):
        "a426b5c1b31a75197425d88de95a43d827d678c32218dd3269ff91fa92c3eb18",
    ("tree", "--tile-size 256"):
        "caa1a0650c6cb8dc89c12bf97e7d7debe7f66b5353cac84110b44cba069f3772",
    ("empty", "--tile-size 16 --min-tissue 0.5"):
        "2f4f0d8bc01de4be09cd1d10eb30dd8493298df69a9dac5e7a3da5f98bddf753",
    ("empty", ""):
        "d6ba73fac42e42bd9cbed1000610b195e534bdedcb4cd87fac881f05568edce3",
}


class TestTile:
    @pytest.mark.parametrize("tree,flags", sorted(TILE_MANIFEST_SHA256))
    def test_manifest_bytes_pinned(self, tmp_path, capsys, tree, flags):
        src = tile_input(tmp_path / "in", tree)
        out = tmp_path / "m.jsonl"
        assert run_cli("tile", "--input", src, "--out", out,
                       *flags.split()) == 0
        digest = hashlib.sha256(out.read_bytes()).hexdigest()
        assert digest == TILE_MANIFEST_SHA256[tree, flags]
        capsys.readouterr()

    @pytest.mark.parametrize("flags", [["--tile-size", "0"],
                                       ["--tile-size", "8"],
                                       ["--min-tissue", "7"],
                                       ["--min-tissue", "-0.5"]],
                             ids=" ".join)
    @pytest.mark.parametrize("tree", ["empty", "tree"])
    def test_bad_flags_write_nothing(self, tmp_path, capsys, tree, flags):
        """Out-of-range flags exit 2 whether or not the directory holds
        rasters, and leave neither a manifest nor its sidecar."""
        src = tile_input(tmp_path / "in", tree)
        out = tmp_path / "out" / "m.jsonl"
        assert run_cli("tile", "--input", src, "--out", out, *flags) == 2
        assert "must be" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_one_gray_level_everywhere_is_data_error(self, tmp_path, capsys):
        """Rasters of several colours but a single gray level have no
        Otsu level, so nothing is tiled: exit 3, as for flat rasters."""
        src = tmp_path / "in"
        src.mkdir()
        write_ppm(src / "m.ppm", one_gray_level(32, 32))
        write_ppm(src / "n.ppm", one_gray_level(40, 20))
        out = tmp_path / "m.jsonl"
        assert run_cli("tile", "--input", src, "--out", out,
                       "--tile-size", "16", "--min-tissue", "0.0") == 3
        assert "single gray level" in capsys.readouterr().err
        assert not out.exists()

    def test_grid_arithmetic(self, tmp_path, capsys):
        """A 512x512 raster at tile size 256 with no tissue floor gives
        exactly the 4 grid tiles."""
        src = tmp_path / "in"
        src.mkdir()
        write_ppm(src / "a.ppm", noisy_raster(0))
        out = tmp_path / "m.jsonl"
        assert run_cli("tile", "--input", src, "--out", out,
                       "--tile-size", "256", "--min-tissue", "0.0") == 0
        lines = out.read_text().strip().split("\n")
        header, records = json.loads(lines[0]), lines[1:]
        assert len(records) == 4
        assert header["tile_size"] == 256
        assert len(header["config_fingerprint"]) == 16
        capsys.readouterr()

    def test_empty_directory_warns(self, tmp_path, capsys):
        src = tmp_path / "in"
        src.mkdir()
        out = tmp_path / "m.jsonl"
        assert run_cli("tile", "--input", src, "--out", out) == 0
        assert "warning" in capsys.readouterr().err.lower()
        lines = out.read_text().strip().split("\n")
        assert len(lines) == 1          # header only

    def test_rerun_byte_identical(self, tmp_path, capsys):
        src = tmp_path / "in"
        src.mkdir()
        for i in range(3):
            write_ppm(src / f"s{i}.ppm", noisy_raster(i))
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        assert run_cli("tile", "--input", src, "--out", a,
                       "--min-tissue", "0.2") == 0
        assert run_cli("tile", "--input", src, "--out", b,
                       "--min-tissue", "0.2") == 0
        assert a.read_bytes() == b.read_bytes()
        capsys.readouterr()

    def test_all_degenerate_is_data_error(self, tmp_path, capsys):
        src = tmp_path / "in"
        src.mkdir()
        write_ppm(src / "flat.ppm", np.full((64, 64, 3), 77, np.uint8))
        assert run_cli("tile", "--input", src, "--out", tmp_path / "m",
                       "--tile-size", "16") == 3
        capsys.readouterr()

    def test_partial_degenerate_is_fine(self, tmp_path, capsys):
        """One flat raster among structured ones is skipped, not fatal."""
        src = tmp_path / "in"
        src.mkdir()
        write_ppm(src / "flat.ppm", np.full((64, 64, 3), 77, np.uint8))
        write_ppm(src / "ok.ppm", noisy_raster(1, size=64))
        out = tmp_path / "m.jsonl"
        assert run_cli("tile", "--input", src, "--out", out,
                       "--tile-size", "16", "--min-tissue", "0.0") == 0
        records = out.read_text().strip().split("\n")[1:]
        assert all(json.loads(r)["source_id"] == "ok" for r in records)
        capsys.readouterr()

    def test_truncated_raster_is_usage_error(self, tmp_path, capsys):
        src = tmp_path / "in"
        src.mkdir()
        (src / "broken.ppm").write_bytes(b"P6\n64 64\n255\nshort")
        assert run_cli("tile", "--input", src,
                       "--out", tmp_path / "m") == 2
        assert "broken.ppm" in capsys.readouterr().err

    def test_unreadable_raster_is_usage_error(self, tmp_path, capsys):
        """``tile`` reports an input it cannot open as it reports one it
        cannot parse."""
        src = tmp_path / "in"
        (src / "x.ppm").mkdir(parents=True)
        assert run_cli("tile", "--input", src,
                       "--out", tmp_path / "m") == 2
        assert "x.ppm" in capsys.readouterr().err


class TestTraining:
    def test_pretrain_writes_checkpoint_and_log(self, tmp_path, capsys):
        ck = tmp_path / "c.ckpt"
        assert run_cli("pretrain", "--steps", "4", "--out", ck,
                       "--seed", "0", "--log-level", "quiet") == 0
        state, enc_cfg, ssl_cfg, extra = load_train_state(ck)
        assert state.step == 4
        assert len(extra["config_fingerprint"]) == 16
        rows = [json.loads(l) for l in
                (tmp_path / "c.ckpt.losses.jsonl").read_text().splitlines()]
        assert rows[0] == {"config_fingerprint": extra["config_fingerprint"],
                           "phase": "pretrain"}
        assert [r["step"] for r in rows[1:]] == [1, 2, 3, 4]
        assert all(set(r) == {"step", "dino", "ibot", "koleo", "gram",
                              "total"} for r in rows[1:])
        capsys.readouterr()

    def test_pretrain_gram_column_all_zero(self, tmp_path, capsys):
        ck = tmp_path / "c.ckpt"
        assert run_cli("pretrain", "--steps", "5", "--out", ck,
                       "--seed", "1", "--log-level", "quiet") == 0
        rows = [json.loads(l) for l in
                (tmp_path / "c.ckpt.losses.jsonl").read_text().splitlines()]
        assert all(r["gram"] == 0.0 for r in rows[1:])
        capsys.readouterr()

    def test_steps_zero_equals_initialization(self, work):
        """--steps 0 must write the untouched seeded initialization."""
        state, enc_cfg, ssl_cfg, _ = load_train_state(work / "init.ckpt")
        ref = init_train_state(enc_cfg, ssl_cfg,
                               RngStream(seed=0, stream_id=11))
        assert state.step == 0
        for k in ref.student:
            assert np.array_equal(state.student[k], ref.student[k])
        for k in ref.teacher:
            assert np.array_equal(state.teacher[k], ref.teacher[k])

    @pytest.mark.parametrize("command, config", [
        ("pretrain", {"koleo_weight": 1e308}),
        ("posttrain", {"gram_weight": 1e308})])
    def test_diverging_step_exits_1(self, work, tmp_path, capsys, command,
                                    config):
        """A step whose weighted total or gradients turn non-finite is a
        verification error (exit 1), and the run writes nothing: no
        checkpoint, no loss log, no sidecar, no output directory."""
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps(config))
        argv = [command, "--config", cfg, "--steps", "1", "--batch-size", "2",
                "--out", tmp_path / "o" / "c.ckpt", "--log-level", "quiet"]
        if command == "posttrain":
            argv += ["--gram-teacher", work / "enc.ckpt"]
        assert run_cli(*argv) == 1
        assert re.fullmatch(r"verification error: .+ non-finite at step \d+",
                            capsys.readouterr().err.splitlines()[-1])
        assert list(tmp_path.iterdir()) == [cfg]

    def test_posttrain_requires_gram_teacher(self, tmp_path, capsys):
        assert run_cli("posttrain", "--steps", "2",
                       "--out", tmp_path / "p.ckpt") == 2
        assert "--gram-teacher" in capsys.readouterr().err

    def test_posttrain_gram_column_nonzero(self, work, tmp_path, capsys):
        ck = tmp_path / "p.ckpt"
        assert run_cli("posttrain", "--steps", "3", "--out", ck,
                       "--gram-teacher", work / "enc.ckpt",
                       "--seed", "0", "--log-level", "quiet") == 0
        rows = [json.loads(l) for l in
                (tmp_path / "p.ckpt.losses.jsonl").read_text().splitlines()]
        assert all(r["gram"] > 0.0 for r in rows[1:])
        # steps continue from the 100-step checkpoint the run starts at
        assert [r["step"] for r in rows[1:]] == [101, 102, 103]
        state, _, _, extra = load_train_state(ck)
        assert state.gram_teacher is not None
        assert extra["phase"] == "posttrain"
        capsys.readouterr()

    @pytest.mark.parametrize("init", [False, True])
    def test_posttrain_anchor_stays_frozen(self, work, tmp_path, init):
        """The output's ``gram.*`` tensors are the ``--gram-teacher``
        checkpoint's ``student.enc.*`` byte for byte, though the
        student trained away from them."""
        out = tmp_path / "p.ckpt"
        argv = ["posttrain", "--steps", "2", "--out", out, "--gram-teacher",
                work / "enc.ckpt", "--log-level", "quiet"]
        if init:
            argv += ["--init", work / "init.ckpt"]
        assert run_cli(*argv) == 0
        anchor = load_params(work / "enc.ckpt")[2]
        trained = load_params(out)[2]
        names = [k[len("gram."):] for k in trained if k.startswith("gram.")]
        assert sorted(names) == sorted(
            k[len("student.enc."):] for k in anchor
            if k.startswith("student.enc."))
        for name in names:
            frozen = anchor["student.enc." + name]
            kept = trained["gram." + name]
            assert (kept.dtype, kept.shape) == (frozen.dtype, frozen.shape)
            assert kept.tobytes() == frozen.tobytes()
        assert any(not np.array_equal(trained["student.enc." + name],
                                      anchor["student.enc." + name])
                   for name in names)

    @pytest.mark.parametrize("legacy", [None, "anchor.ckpt"])
    def test_legacy_ssl_key_still_loads(self, work, tmp_path, capsys,
                                        legacy):
        """Checkpoints written while ``SslConfig`` had a
        ``gram_teacher_checkpoint`` field hold the key in their header;
        they still embed and anchor post-training.  In a config file
        the key is unknown."""
        kind, config, params, extra = load_params(work / "enc.ckpt")
        config["ssl"]["gram_teacher_checkpoint"] = legacy
        old = tmp_path / "old.ckpt"
        save_params(old, kind, config, params, extra)
        embs = []
        for ck in (old, work / "enc.ckpt"):
            emb = tmp_path / f"{ck.stem}.emb"
            assert run_cli("embed", "--ckpt", ck, "--data", work / "sg",
                           "--out", emb, "--log-level", "quiet") == 0
            embs.append(emb.read_bytes())
        assert embs[0] == embs[1]
        assert run_cli("posttrain", "--steps", "1", "--gram-teacher", old,
                       "--out", tmp_path / "p.ckpt",
                       "--log-level", "quiet") == 0
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"gram_teacher_checkpoint": legacy}))
        assert run_cli("pretrain", "--config", cfg, "--steps", "0",
                       "--out", tmp_path / "c.ckpt") == 2
        assert ("unknown config keys: gram_teacher_checkpoint"
                in capsys.readouterr().err)

    def test_config_file_steps_and_flag_override(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"steps": 3}')
        ck = tmp_path / "c.ckpt"
        assert run_cli("pretrain", "--config", cfg, "--out", ck,
                       "--log-level", "quiet") == 0
        assert load_train_state(ck)[0].step == 3
        assert run_cli("pretrain", "--config", cfg, "--steps", "5",
                       "--out", ck, "--log-level", "quiet") == 0
        assert load_train_state(ck)[0].step == 5
        capsys.readouterr()

    def test_geometry_mismatch_rejected(self, work, tmp_path, capsys):
        """A gram teacher, or a starting checkpoint beside a matching
        teacher, with a different encoder shape is a config error, not
        a crash deep inside the math."""
        cfg = tmp_path / "small.json"
        cfg.write_text('{"embed_dim": 16, "num_heads": 2}')
        small = tmp_path / "small.ckpt"
        assert run_cli("pretrain", "--config", cfg, "--steps", "0",
                       "--out", small, "--log-level", "quiet") == 0
        assert run_cli("posttrain", "--steps", "1",
                       "--out", tmp_path / "p.ckpt",
                       "--gram-teacher", small) == 2
        assert run_cli("posttrain", "--steps", "1",
                       "--out", tmp_path / "p.ckpt", "--init", small,
                       "--gram-teacher", work / "init.ckpt") == 2
        err = capsys.readouterr().err
        assert "--gram-teacher encoder geometry differs" in err
        assert "--init encoder geometry differs" in err
        assert not (tmp_path / "p.ckpt").exists()

    def test_custom_corpus_directory(self, tmp_path, capsys):
        src = tmp_path / "corpus"
        src.mkdir()
        for i in range(3):
            write_ppm(src / f"c{i}.ppm", noisy_raster(i, size=64))
        assert run_cli("pretrain", "--steps", "2", "--input", src,
                       "--out", tmp_path / "c.ckpt",
                       "--log-level", "quiet") == 0
        assert run_cli("pretrain", "--steps", "2",
                       "--input", tmp_path / "corpus_missing",
                       "--out", tmp_path / "d.ckpt") == 2
        src2 = tmp_path / "empty"
        src2.mkdir()
        assert run_cli("pretrain", "--steps", "2", "--input", src2,
                       "--out", tmp_path / "e.ckpt") == 3
        capsys.readouterr()


    @pytest.mark.parametrize("command", ["pretrain", "posttrain"])
    @pytest.mark.parametrize("where", ["flag", "config"])
    def test_batch_size_zero_writes_nothing(self, work, tmp_path, command,
                                            where, capsys):
        """A batch size below 1 is refused with the other schedule
        checks, before the loss log or the checkpoint is opened."""
        out = tmp_path / "out"
        argv = [command, "--steps", "1", "--out", out / "c.ckpt"]
        if where == "flag":
            argv += ["--batch-size", "0"]
        else:
            cfg = tmp_path / "b0.json"
            cfg.write_text('{"batch_size": 0}')
            argv += ["--config", cfg]
        if command == "posttrain":
            argv += ["--gram-teacher", work / "init.ckpt"]
        assert run_cli(*argv) == 2
        assert "--batch-size must be >= 1" in capsys.readouterr().err
        assert not out.exists()

    def test_single_patch_geometry_is_usage_error(self, tmp_path, capsys):
        """image_size == token_size leaves one patch: masking it would
        leave the student nothing unmasked, so the command refuses."""
        cfg = tmp_path / "one_patch.json"
        cfg.write_text(json.dumps({"image_size": 16, "token_size": 16}))
        assert run_cli("pretrain", "--steps", "1", "--config", cfg,
                       "--out", tmp_path / "c.ckpt") == 2
        assert "num_patches" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["pretrain", "posttrain"])
    def test_single_patch_writes_nothing(self, work, tmp_path, command,
                                         capsys):
        """A one-patch geometry is refused with the schedule checks,
        before the loss log or the checkpoint is opened."""
        cfg = tmp_path / "one_patch.json"
        cfg.write_text(json.dumps({"image_size": 16, "token_size": 16}))
        out = tmp_path / "out"
        argv = [command, "--steps", "1", "--config", cfg,
                "--out", out / "c.ckpt"]
        if command == "posttrain":
            argv += ["--gram-teacher", work / "init.ckpt"]
        assert run_cli(*argv) == 2
        assert "num_patches" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["pretrain", "posttrain"])
    def test_corpus_size_mismatch_writes_nothing(self, work, tmp_path,
                                                 command, capsys):
        """An --input raster whose size is not the config's image_size
        is refused with the file named (exit 2, as ``embed`` and
        ``probe`` do), before the loss log or the checkpoint is opened."""
        src = tmp_path / "corpus"
        src.mkdir()
        write_ppm(src / "a.ppm", noisy_raster(0, size=64))
        write_ppm(src / "small.ppm", noisy_raster(1, size=32))
        out = tmp_path / "out"
        argv = [command, "--steps", "1", "--input", src,
                "--out", out / "c.ckpt"]
        if command == "posttrain":
            argv += ["--gram-teacher", work / "init.ckpt"]
        assert run_cli(*argv) == 2
        err = capsys.readouterr().err
        assert "small.ppm" in err and "does not match image_size 64" in err
        assert not out.exists()

    @pytest.mark.parametrize("payload, message", [
        (b"P6 garbage", "bad PPM header token"),
        (b"P6\n0 64\n255\n", "bad PPM dimensions 0x64"),
        (b"P6\n64 0\n255\n", "bad PPM dimensions 64x0")],
        ids=["garbage", "zero-width", "zero-height"])
    def test_malformed_corpus_raster_is_named(self, tmp_path, capsys,
                                              payload, message):
        """An --input raster that does not parse exits 3 naming the
        file, before the loss log or the checkpoint is opened."""
        src = tmp_path / "corpus"
        src.mkdir()
        write_ppm(src / "a.ppm", noisy_raster(0, size=64))
        (src / "b.ppm").write_bytes(payload)
        out = tmp_path / "out"
        assert run_cli("pretrain", "--steps", "1", "--input", src,
                       "--out", out / "c.ckpt") == 3
        err = capsys.readouterr().err
        assert err.startswith(f"data error: {src / 'b.ppm'}: {message}")
        assert not out.exists()

    @pytest.mark.parametrize("command", ["pretrain", "posttrain"])
    def test_bundled_corpus_needs_image_size_9(self, work, tmp_path,
                                               command, capsys):
        """The bundled corpus has no rasters under 9 pixels: exit 2
        naming image_size and pointing to --input, writing nothing."""
        cfg = tmp_path / "small.json"
        cfg.write_text(json.dumps({"image_size": 8, "token_size": 4}))
        out = tmp_path / "out"
        argv = [command, "--steps", "0", "--config", cfg,
                "--out", out / "c.ckpt"]
        if command == "posttrain":
            argv += ["--gram-teacher", work / "init.ckpt"]
        assert run_cli(*argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: image_size 8 ") and "--input" in err
        assert not out.exists()

    def test_small_rasters_train_from_input(self, tmp_path, capsys):
        """8x8 rasters from --input train: the size floor is the
        bundled corpus's alone."""
        src = tmp_path / "corpus"
        src.mkdir()
        for i in range(3):
            write_ppm(src / f"r{i}.ppm", noisy_raster(i, size=8))
        cfg = tmp_path / "small.json"
        cfg.write_text(json.dumps({"image_size": 8, "token_size": 4}))
        ck = tmp_path / "c.ckpt"
        assert run_cli("pretrain", "--steps", "2", "--batch-size", "2",
                       "--config", cfg, "--input", src, "--out", ck,
                       "--log-level", "quiet") == 0
        assert load_train_state(ck)[0].step == 2
        capsys.readouterr()


def _header(**fields):
    head = {"format_version": 1, "kind": "train_state", "config": {},
            "tensors": [], "extra": {}}
    head.update(fields)
    return json.dumps(head).encode("ascii") + b"\n"


class TestMalformedCheckpoint:
    """Damaged checkpoint headers are data errors (exit 3), never
    tracebacks."""

    def embed_exit(self, tmp_path, payload: bytes) -> int:
        ck = tmp_path / "bad.ckpt"
        ck.write_bytes(payload)
        return run_cli("embed", "--ckpt", ck, "--data", tmp_path,
                       "--out", tmp_path / "e.emb")

    def test_tensor_entry_without_name(self, tmp_path, capsys):
        payload = _header(tensors=[{"shape": [1]}]) + bytes(8)
        assert self.embed_exit(tmp_path, payload) == 3
        assert "data error" in capsys.readouterr().err

    def test_header_without_kind(self, tmp_path, capsys):
        head = json.loads(_header())
        del head["kind"]
        payload = json.dumps(head).encode("ascii") + b"\n"
        assert self.embed_exit(tmp_path, payload) == 3
        assert "data error" in capsys.readouterr().err

    def test_tensors_not_a_list(self, tmp_path, capsys):
        assert self.embed_exit(tmp_path, _header(tensors=5)) == 3
        assert "data error" in capsys.readouterr().err

    def test_train_state_without_centers(self, tmp_path, capsys):
        assert self.embed_exit(tmp_path, _header()) == 3
        assert "cls_center" in capsys.readouterr().err

    @pytest.mark.parametrize("table,message", [
        ('[{"name": ["a"], "shape": [1]}]', "bad tensor entry"),
        ('[{"name": "a", "shape": [1e400]}]', "bad tensor entry"),
        ('[{"name": "a", "shape": [0, 4611686018427387904]}]', "too large"),
        ('[{"name": "a", "shape": [1]}, {"name": "a", "shape": [1]}]',
         "listed twice")], ids=["list_name", "float_dim", "huge_dim",
                                "repeated_name"])
    def test_bad_tensor_table(self, tmp_path, table, message, capsys):
        """A tensor table with a non-string name, a dimension that is
        not an integer or too large for numpy, or a name listed twice
        is a data error."""
        head = _header().replace(b'"tensors": []',
                                 b'"tensors": ' + table.encode("ascii"))
        assert self.embed_exit(tmp_path, head + bytes(16)) == 3
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("config", [
        {"encoder": 5}, {"encoder": {"embed_dim": -3}},
        {"ssl": [1]}, {"ssl": {"prototype_count": 1}},
        {"encoder": {"depth": 1.5}}, {"ssl": {"koleo_weight": "x"}}])
    def test_damaged_config(self, tmp_path, config, capsys):
        """A header config that is not an object, not a valid config or
        holds a value of the wrong type is damaged data, not a usage
        error; the message names the field (an empty --data exits 3
        too)."""
        ck = tmp_path / "bad.ckpt"
        save_params(ck, "train_state", config,
                    {"cls_center": np.zeros(2), "patch_center": np.zeros(2)},
                    {})
        assert run_cli("embed", "--ckpt", ck, "--data", tmp_path,
                       "--out", tmp_path / "e.emb") == 3
        err = capsys.readouterr().err
        assert "bad" in err
        section, value = next(iter(config.items()))
        field = next(iter(value)) if isinstance(value, dict) else section
        assert field in err.lower()

    @pytest.mark.parametrize("flag", ["embed --ckpt", "probe --ckpt",
                                      "posttrain --gram-teacher",
                                      "posttrain --init"])
    def test_missing_checkpoint(self, work, tmp_path, flag, capsys):
        """A checkpoint path that cannot be read is a data error."""
        command, option = flag.split()
        argv = {"embed": ["--data", work / "sg", "--out", tmp_path / "e"],
                "probe": ["--data", work / "sg", "--mode", "linear",
                          "--report", tmp_path / "r.json"],
                "posttrain": ["--steps", "0", "--out", tmp_path / "p.ckpt"]}
        if option == "--init":
            argv["posttrain"] += ["--gram-teacher", work / "init.ckpt"]
        assert run_cli(command, option, tmp_path / "nothing",
                       *argv[command]) == 3
        err = capsys.readouterr().err
        assert "data error" in err and "cannot read checkpoint" in err


    @staticmethod
    def damaged_copy(work, out, damage):
        """``work/init.ckpt`` (desk encoder: width 32, depth 1) with its
        tensors or its header config damaged in place."""
        kind, config, tensors, extra = load_params(work / "init.ckpt")
        if damage == "no_embed":
            del tensors["student.enc.embed.W"]
        elif damage == "embed_5x7":
            tensors["student.enc.embed.W"] = np.zeros((5, 7))
        elif damage == "width_64":
            config["encoder"]["embed_dim"] = 64
        elif damage == "mlp_1e308":
            config["encoder"]["mlp_ratio"] = 1e308
        elif damage == "stray_tensor":
            tensors["junk"] = np.zeros(3)
        elif damage == "gram_without_flag":   # has_gram_teacher is false
            tensors.update({"gram." + name[len("student.enc."):]: value
                            for name, value in tensors.items()
                            if name.startswith("student.enc.")})
        else:
            config["encoder"]["depth"] = 10 ** 9
        save_params(out, kind, config, tensors, extra)
        return out

    @pytest.mark.parametrize("damage", ["no_embed", "embed_5x7", "width_64",
                                        "depth_1e9", "mlp_1e308",
                                        "stray_tensor", "gram_without_flag"])
    @pytest.mark.parametrize("flag", ["embed --ckpt", "probe --ckpt",
                                      "posttrain --gram-teacher",
                                      "posttrain --init"])
    def test_tensors_disagreeing_with_header(self, work, tmp_path, flag,
                                             damage, capsys):
        """Tensors the header config does not describe (one missing, one
        misshapen, a header claiming another width, a billion layers, an
        MLP width past float range, a tensor outside every group, or a
        Gram teacher the header does not flag) are damaged data, found
        when the checkpoint is read."""
        bad = self.damaged_copy(work, tmp_path / "bad.ckpt", damage)
        command, option = flag.split()
        argv = {"embed": ["--data", work / "sg", "--out", tmp_path / "e"],
                "probe": ["--data", work / "sg", "--mode", "linear",
                          "--report", tmp_path / "r.json"],
                "posttrain": ["--steps", "0", "--out", tmp_path / "p.ckpt"]}
        if option == "--init":
            argv["posttrain"] += ["--gram-teacher", work / "init.ckpt"]
        assert run_cli(command, option, bad, *argv[command]) == 3
        err = capsys.readouterr().err
        assert err.startswith("data error: ")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["bad.ckpt"]

    @pytest.mark.parametrize("option", ["--gram-teacher", "--init"])
    def test_prototype_count_differs_from_request(self, work, tmp_path,
                                                  option, capsys):
        """A checkpoint trained with 128 prototypes, post-trained under
        the default 64, would be saved under a header that misdescribes
        its tensors: a usage error before anything is written."""
        cfg = tmp_path / "k128.json"
        cfg.write_text('{"prototype_count": 128}')
        wide = tmp_path / "k128.ckpt"
        assert run_cli("pretrain", "--config", cfg, "--steps", "0",
                       "--out", wide, "--log-level", "quiet") == 0
        anchor = wide if option == "--gram-teacher" else work / "init.ckpt"
        extra = ["--init", wide] if option == "--init" else []
        out = tmp_path / "out" / "p.ckpt"
        assert run_cli("posttrain", "--steps", "0", "--out", out,
                       "--gram-teacher", anchor, *extra) == 2
        err = capsys.readouterr().err
        assert "error: " in err and "cls_center" in err
        assert not (tmp_path / "out").exists()

    @staticmethod
    def poisoned_copy(work, out, name, value):
        """``work/init.ckpt`` with the first entry of tensor ``name`` set
        to ``value`` in the file's bytes: ``save_params`` writes no
        non-finite tensor."""
        head, _, blob = (work / "init.ckpt").read_bytes().partition(b"\n")
        offset = 0
        for entry in json.loads(head)["tensors"]:
            if entry["name"] == name:
                break
            offset += 8 * math.prod(entry["shape"])
        blob = bytearray(blob)
        blob[offset:offset + 8] = np.array(value, "<f8").tobytes()
        out.write_bytes(head + b"\n" + bytes(blob))
        return out

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("tensor", ["student.enc.embed.W",
                                        "adam.m.cls_head.W1"])
    @pytest.mark.parametrize("flag", ["embed --ckpt", "probe --ckpt",
                                      "posttrain --gram-teacher",
                                      "posttrain --init"])
    def test_non_finite_tensor(self, work, tmp_path, flag, tensor, value,
                               capsys):
        """A NaN or an infinity in any tensor, the encoder's or only the
        optimizer's, is damaged data found when the checkpoint is read:
        exit 3 naming the tensor, no output directory, no loss log."""
        bad = self.poisoned_copy(work, tmp_path / "bad.ckpt", tensor, value)
        command, option = flag.split()
        out = tmp_path / "out"
        argv = {"embed": ["--data", work / "sg", "--out", out / "e"],
                "probe": ["--data", work / "sg", "--mode", "linear",
                          "--report", out / "r.json"],
                "posttrain": ["--steps", "2", "--out", out / "p.ckpt"]}
        if option == "--init":
            argv["posttrain"] += ["--gram-teacher", work / "init.ckpt"]
        assert run_cli(command, option, bad, *argv[command]) == 3
        assert capsys.readouterr().err == (
            f"data error: {bad}: tensor {tensor!r} has non-finite entries\n")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["bad.ckpt"]

    @pytest.mark.skipif(not os.path.exists("/proc/self/status"),
                        reason="needs Linux's /proc")
    def test_proc_file_checkpoint(self, work, tmp_path, capsys):
        """A /proc file, which reports size 0 but reads text, is a
        checkpoint with a bad header, not a crash."""
        assert run_cli("embed", "--ckpt", "/proc/self/status", "--data",
                       work / "sg", "--out", tmp_path / "e") == 3
        assert capsys.readouterr().err.startswith(
            "data error: /proc/self/status: bad checkpoint header: ")
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("key, count", [("step", -3), ("adam_t", -1)])
    @pytest.mark.parametrize("flag", ["embed --ckpt", "probe --ckpt",
                                      "posttrain --gram-teacher",
                                      "posttrain --init"])
    def test_negative_header_counter(self, work, tmp_path, flag, key, count,
                                     capsys):
        """A negative step or Adam step count in the header is damaged
        data found when the checkpoint is read: exit 3 naming the field,
        no output directory, no loss log.  Trusted, -1 Adam steps would
        divide by zero in the bias correction and -3 steps would train
        from step -3."""
        kind, config, tensors, extra = load_params(work / "enc.ckpt")
        config[key] = count
        bad = tmp_path / "bad.ckpt"
        save_params(bad, kind, config, tensors, extra)
        command, option = flag.split()
        out = tmp_path / "out"
        argv = {"embed": ["--data", work / "sg", "--out", out / "e"],
                "probe": ["--data", work / "sg", "--mode", "linear",
                          "--report", out / "r.json"],
                "posttrain": ["--steps", "2", "--out", out / "p.ckpt"]}
        if option == "--init":
            argv["posttrain"] += ["--gram-teacher", work / "init.ckpt"]
        assert run_cli(command, option, bad, *argv[command]) == 3
        assert capsys.readouterr().err == (
            f"data error: {bad}: bad header config: {key} must be >= 0, "
            f"got {count}\n")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["bad.ckpt"]

    @pytest.mark.parametrize("count", [2 ** 63, 10 ** 400],
                             ids=["2**63", "10**400"])
    @pytest.mark.parametrize("key", ["step", "adam_t"])
    @pytest.mark.parametrize("flag", ["embed --ckpt", "probe --ckpt",
                                      "posttrain --gram-teacher",
                                      "posttrain --init"])
    def test_oversized_header_counter(self, work, tmp_path, flag, key, count,
                                      capsys):
        """A step or Adam step count no int64 holds is damaged data:
        exit 3 naming the field, no output directory, no loss log.
        Trusted, an Adam count of 10**400 overflows ``BETA1 ** t`` after
        posttrain --init has trained."""
        kind, config, tensors, extra = load_params(work / "enc.ckpt")
        config[key] = count
        bad = tmp_path / "bad.ckpt"
        save_params(bad, kind, config, tensors, extra)
        command, option = flag.split()
        out = tmp_path / "out"
        argv = {"embed": ["--data", work / "sg", "--out", out / "e"],
                "probe": ["--data", work / "sg", "--mode", "linear",
                          "--report", out / "r.json"],
                "posttrain": ["--steps", "2", "--out", out / "p.ckpt"]}
        if option == "--init":
            argv["posttrain"] += ["--gram-teacher", work / "init.ckpt"]
        assert run_cli(command, option, bad, *argv[command]) == 3
        assert capsys.readouterr().err == (
            f"data error: {bad}: bad header config: {key} must be < 2**63\n")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["bad.ckpt"]


def refuse_call(name):
    """A stand-in for ``name`` that fails the test if it is called."""
    def refused(*args, **kw):
        raise AssertionError(f"{name} was called")
    return refused


class TestRefusedAtEntry:
    """Each condition is refused where its value enters, in the order
    argv, config, checkpoints, rasters: a refusal reads nothing a later
    stage would."""

    def test_posttrain_without_gram_teacher(self, tmp_path, monkeypatch,
                                            capsys):
        """A missing --gram-teacher is an argv error under posttrain's
        own usage, before any checkpoint or raster is read."""
        for name in ("load_train_state", "_load_corpus"):
            monkeypatch.setattr(cli, name, refuse_call(name))
        monkeypatch.chdir(tmp_path)
        assert run_cli("posttrain", "--steps", "1", "--input", "corpus",
                       "--out", "p.ckpt") == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: tokenhier posttrain ")
        assert err.endswith("the following arguments are required: "
                            "--gram-teacher\n")
        assert not any(tmp_path.iterdir())

    def test_posttrain_help_marks_gram_teacher_required(self, capsys):
        assert main(["posttrain", "--help"]) == 0
        out = capsys.readouterr().out
        assert "--gram-teacher GRAM_TEACHER" in out
        assert "[--gram-teacher" not in out

    @pytest.mark.parametrize("option", ["--gram-teacher", "--init"])
    def test_checkpoint_geometry_before_corpus(self, work, tmp_path,
                                               monkeypatch, option, capsys):
        """A checkpoint of another encoder geometry is refused before
        the --input corpus is read, so a corrupt raster there does not
        hide it."""
        cfg = tmp_path / "small.json"
        cfg.write_text('{"embed_dim": 16, "num_heads": 2}')
        small = tmp_path / "small.ckpt"
        assert run_cli("pretrain", "--config", cfg, "--steps", "0",
                       "--out", small, "--log-level", "quiet") == 0
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        (corpus / "bad.ppm").write_bytes(b"P6 garbage")
        monkeypatch.setattr(cli, "read_ppm", refuse_call("read_ppm"))
        anchor = ["--gram-teacher", small]
        if option == "--init":
            anchor = ["--gram-teacher", work / "init.ckpt", "--init", small]
        out = tmp_path / "out"
        assert run_cli("posttrain", "--steps", "1", "--input", corpus,
                       "--out", out / "p.ckpt", *anchor) == 2
        assert capsys.readouterr().err == (
            f"error: {option} encoder geometry differs from the requested "
            "config\n")
        assert not out.exists()

    def test_bundled_corpus_size_before_checkpoint(self, tmp_path,
                                                   monkeypatch, capsys):
        """The bundled corpus's size floor needs only the config and
        whether --input is set, so no checkpoint is read first."""
        monkeypatch.setattr(cli, "load_train_state",
                            refuse_call("load_train_state"))
        cfg = tmp_path / "small.json"
        cfg.write_text(json.dumps({"image_size": 8, "token_size": 4}))
        out = tmp_path / "out"
        assert run_cli("posttrain", "--steps", "0", "--config", cfg,
                       "--gram-teacher", tmp_path / "g.ckpt",
                       "--out", out / "c.ckpt") == 2
        assert capsys.readouterr().err == (
            "error: image_size 8 is too small for the bundled corpus "
            "(needs >= 9); give --input\n")
        assert not out.exists()

    def test_attnpool_width_before_rasters(self, work, tmp_path,
                                           monkeypatch, capsys):
        """Pooling heads that do not divide the checkpoint's width are
        refused once the checkpoint is read, before the tree is read or
        embedded; the linear probe has no heads and runs."""
        cfg = tmp_path / "head.json"
        cfg.write_text('{"num_heads": 3, "epochs": 1}')
        argv = ["probe", "--ckpt", work / "enc.ckpt", "--data", work / "sg",
                "--config", cfg, "--log-level", "quiet"]
        with monkeypatch.context() as patched:
            for name in ("ingest_directory", "embed_dataset"):
                patched.setattr(cli, name, refuse_call(name))
            assert run_cli(*argv, "--mode", "attnpool",
                           "--report", tmp_path / "a.json") == 2
        assert capsys.readouterr().err == (
            "error: embed_dim 32 not divisible by num_heads 3\n")
        assert not (tmp_path / "a.json").exists()
        assert run_cli(*argv, "--mode", "linear",
                       "--report", tmp_path / "l.json") == 0
        report = json.loads((tmp_path / "l.json").read_text())
        assert report["head_mode"] == "linear"


class TestDegenerateConfigs:
    """Configs at the edge of their domain, each handled on purpose."""

    @pytest.mark.parametrize("config", [
        # rounds to no masked token; the mask is clamped to one
        {"mask_fraction": 0.001},
        # two views of one raster still give KoLeo its two rows
        {"prototype_count": 2, "batch_size": 1}])
    def test_pretrain_trains(self, tmp_path, capsys, config):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps(config))
        ck = tmp_path / "c.ckpt"
        assert run_cli("pretrain", "--config", cfg, "--steps", "2",
                       "--out", ck, "--log-level", "quiet") == 0
        log = Path(f"{ck}.losses.jsonl").read_text().splitlines()[1:]
        assert len(log) == 2
        assert all(np.isfinite(json.loads(line)["ibot"]) for line in log)
        capsys.readouterr()

    def test_head_batch_past_train_set_is_full_batch(self, work, tmp_path,
                                                      capsys):
        """Any batch size past the train set fits the same head: one
        full batch per epoch."""
        reports = []
        for batch in (10_000, 1_000):
            cfg = tmp_path / "head.json"
            cfg.write_text(json.dumps({"batch": batch, "epochs": 3}))
            rep = tmp_path / f"{batch}.json"
            assert run_cli("probe", "--ckpt", work / "enc.ckpt",
                           "--data", work / "sg", "--mode", "linear",
                           "--config", cfg, "--report", rep,
                           "--log-level", "quiet") == 0
            report = json.loads(rep.read_text())
            del report["config_fingerprint"]
            reports.append(report)
        assert reports[0] == reports[1]
        capsys.readouterr()

    def test_attnpool_heads_must_divide_width(self, work, tmp_path, capsys):
        cfg = tmp_path / "head.json"
        cfg.write_text('{"num_heads": 3, "epochs": 1}')
        assert run_cli("probe", "--ckpt", work / "enc.ckpt",
                       "--data", work / "sg", "--mode", "attnpool",
                       "--config", cfg, "--report", tmp_path / "r.json") == 2
        assert ("embed_dim 32 not divisible by num_heads 3"
                in capsys.readouterr().err)
        assert not (tmp_path / "r.json").exists()

    @pytest.mark.parametrize("sigma", [1.1e100, 1e300, 1e308])
    @pytest.mark.parametrize("command", ["augment", "pretrain"])
    def test_sigma_past_the_bound_exits_2(self, work, tmp_path, capsys,
                                          command, sigma):
        """A sigma that could overflow the colour remap into NaN, whose
        uint8 cast is undefined, is refused before anything is written."""
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"lab_mean_sigma": [sigma] * 3}))
        argv = {"augment": ["--input", work / "sg" / "class0"],
                "pretrain": ["--steps", "2", "--batch-size", "2"]}[command]
        assert run_cli(command, *argv, "--config", cfg,
                       "--out", tmp_path / "out") == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "lab_mean_sigma" in err
        assert sorted(tmp_path.iterdir()) == [cfg]


# Values of the wrong JSON type for any key (True and 1.5 are right for
# some).
WRONG_TYPES = st.sampled_from([None, "8", [8], {"v": 8}, True, 1.5])


def field(inside, outside):
    """A flat config key's values: inside its domain (drawn twice as
    often), outside it, and of the wrong JSON type."""
    return st.one_of(inside, inside, st.sampled_from(outside), WRONG_TYPES)


def triples(low, high):
    return st.lists(st.floats(low, high), min_size=3, max_size=3)


NAN, INF = float("nan"), float("inf")
SIGMA = field(triples(0, 20) | triples(0, 1e100),
              [[1.0, 1.0], [1.0, 1.0, 1.0, 1.0], [-1.0, 0.0, 0.0],
               ["a", "b", "c"], [NAN, 0.0, 0.0], [1e300, 0.0, 0.0]])

# Every key a flat pretrain config file takes, with sizes kept small.
PRETRAIN_KEYS = {
    "image_size": field(st.sampled_from([16, 32, 64]), [0, -16]),
    "token_size": field(st.sampled_from([4, 8, 16]), [0, -8, 5, 128]),
    "embed_dim": field(st.integers(1, 64), [0, -8]),
    "depth": field(st.integers(0, 2), [-1]),
    "num_heads": field(st.sampled_from([1, 2, 4]), [0, -2, 3]),
    "mlp_ratio": field(st.floats(0.01, 4.0), [0.0, -1.0, NAN, INF]),
    "prototype_count": field(st.integers(2, 256), [1, 0, -5]),
    "student_temp": field(st.floats(0.02, 1.0), [0.0, -0.1, 0.001]),
    "teacher_temp": field(st.floats(0.001, 0.09), [0.0, -0.04, 2.0]),
    "center_momentum": field(st.floats(0.01, 0.99), [0.0, 1.0, 1.5]),
    "ema_momentum": field(st.floats(0.01, 1.0), [0.0, 1.01]),
    "mask_fraction": field(st.floats(0.001, 0.999), [0.0, 1.0]),
    "koleo_weight": field(st.floats(0.0, 10.0), [-0.1, NAN]),
    "gram_weight": field(st.floats(0.0, 10.0), [-0.1, INF]),
    "lab_mean_sigma": SIGMA,
    "lab_std_sigma": SIGMA,
    "hsv_mean_sigma": SIGMA,
    "hsv_std_sigma": SIGMA,
    "enabled": field(st.booleans(), [0, 1]),
    "steps": field(st.integers(0, 1000), [-1]),
    "batch_size": field(st.integers(1, 8), [0, -1]),
    "lr": field(st.floats(0.0, 0.1) | st.just(1e300), [-1e-3, NAN]),
    "seed": field(st.integers(0, 2**63), [-1, 2**80]),
}

# Keys a flat pretrain config refuses whatever their value: ``space``
# (each augmented view picks LAB or HSV by a coin).
REFUSED_KEYS = {
    "space": field(st.sampled_from(["lab", "hsv", "both"]), ["rgb", ""]),
}
CONFIG_KEYS = {**PRETRAIN_KEYS, **REFUSED_KEYS}


@st.composite
def pretrain_configs(draw):
    keys = draw(st.lists(st.sampled_from(sorted(CONFIG_KEYS)),
                         max_size=3, unique=True))
    return {key: draw(CONFIG_KEYS[key]) for key in keys}


class TestConfigSearch:
    @settings(max_examples=50, deadline=None)
    @given(config=pretrain_configs())
    def test_pretrain_exits_by_the_contract(self, config):
        """Any flat config file gives exit 0 with a checkpoint, or exit
        1 with a verification error or exit 2, either having written
        nothing; never a traceback."""
        with tempfile.TemporaryDirectory() as tmp:
            cfg, out = Path(tmp) / "c.json", Path(tmp) / "out"
            cfg.write_text(json.dumps(config))
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                code = run_cli("pretrain", "--config", cfg, "--steps", "1",
                               "--batch-size", "1", "--out", out / "c.ckpt",
                               "--log-level", "quiet")
            if set(config) & set(REFUSED_KEYS):
                assert code == 2
            if code == 0:
                assert (out / "c.ckpt").is_file()
            elif code == 1:
                assert err.getvalue().startswith("verification error: ")
            else:
                assert code == 2 and err.getvalue().startswith("error: ")
            assert code == 0 or not out.exists()


def tree_with(work, root, extra):
    """``root`` linking the two classes of ``work/sg``, with ``extra``
    ``{path: raster or None}`` added (None: an empty directory)."""
    for name in ("class0", "class1"):
        (root / name).mkdir(parents=True)
        for f in sorted((work / "sg" / name).glob("*.ppm")):
            (root / name / f.name).symlink_to(f)
    for path, raster in extra.items():
        if raster is None:
            (root / path).mkdir()
        else:
            write_ppm(root / path, raster)
    return root


# the argv tail after --ckpt and --data of each command that reads a tree
TREE_ARGV = {"embed": ["--out", "e.emb"],
             "probe": ["--mode", "linear", "--report", "r.json"]}


def misfit_refused(work, tmp_path, monkeypatch, capsys, command):
    """A raster of another size than the checkpoint's image_size is
    refused naming ``class/<file>.ppm`` (exit 2), before any embedding
    and with nothing written."""
    tree = tree_with(work, tmp_path / "tree",
                     {"class0/small.ppm": noisy_raster(1, size=32)})
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(cli, "embed_dataset", refuse_work)
    assert run_cli(command, "--ckpt", work / "init.ckpt", "--data", tree,
                   *TREE_ARGV[command]) == 2
    err = capsys.readouterr().err
    assert err == ("error: class0/small.ppm: raster (32, 32) does not "
                   "match image_size 64\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["tree"]


@pytest.mark.parametrize("command", sorted(TREE_ARGV))
def test_empty_class_warning_is_one_line(work, tmp_path, monkeypatch, capsys,
                                         command):
    """An empty class directory is excluded with one ``warning:`` line
    on stderr, not Python's warning format with its source line."""
    tree = tree_with(work, tmp_path / "tree", {"empty": None})
    monkeypatch.chdir(tmp_path)
    assert run_cli(command, "--ckpt", work / "init.ckpt", "--data", tree,
                   *TREE_ARGV[command], "--log-level", "quiet") == 0
    assert capsys.readouterr().err == ("warning: class directory 'empty' "
                                       "has no .ppm files; excluded\n")


class TestEmbed:
    def test_misfit_raster_is_named(self, work, tmp_path, monkeypatch,
                                    capsys):
        misfit_refused(work, tmp_path, monkeypatch, capsys, "embed")

    def test_embeddings_round_trip(self, work, tmp_path, capsys):
        out = tmp_path / "g.emb"
        assert run_cli("embed", "--ckpt", work / "enc.ckpt",
                       "--data", work / "sg", "--out", out,
                       "--log-level", "quiet") == 0
        kind, _, tensors, extra = load_params(out)
        assert kind == "embeddings" and tensors["cls"].shape[0] == 40
        assert tensors["patches"].shape[0] == 40
        assert extra["class_names"] == ["class0", "class1"]
        assert len(extra["config_fingerprint"]) == 16
        assert sorted(set(tensors["labels"].tolist())) == [0, 1]
        capsys.readouterr()

    def test_no_class_directories_is_data_error(self, work, tmp_path,
                                                capsys):
        empty = tmp_path / "empty"
        empty.mkdir()
        assert run_cli("embed", "--ckpt", work / "init.ckpt",
                       "--data", empty, "--out", tmp_path / "e.emb") == 3
        assert "data error" in capsys.readouterr().err
        assert not (tmp_path / "e.emb").exists()


class TestProbe:
    def test_misfit_raster_is_named(self, work, tmp_path, monkeypatch,
                                    capsys):
        misfit_refused(work, tmp_path, monkeypatch, capsys, "probe")

    def test_global_linear_separates(self, work, tmp_path, capsys):
        """Color-separable classes give a near-perfect class-token
        probe; the contract floor is 0.9."""
        rep = tmp_path / "r.json"
        assert run_cli("probe", "--ckpt", work / "enc.ckpt",
                       "--data", work / "sg", "--mode", "linear",
                       "--report", rep, "--seed", "0",
                       "--log-level", "quiet") == 0
        report = json.loads(rep.read_text())
        validate_report(report)
        assert report["bacc"] >= 0.9
        assert report["head_mode"] == "linear"
        capsys.readouterr()

    def test_local_attnpool_beats_linear(self, work, tmp_path, capsys):
        """One-tile texture labels are nearly invisible to the
        class-token probe but well above it under attention pooling;
        the contract margin is 0.3."""
        baccs = {}
        for mode in ("linear", "attnpool"):
            rep = tmp_path / f"{mode}.json"
            assert run_cli("probe", "--ckpt", work / "enc.ckpt",
                           "--data", work / "sl", "--mode", mode,
                           "--report", rep, "--seed", "0",
                           "--log-level", "quiet") == 0
            baccs[mode] = json.loads(rep.read_text())["bacc"]
        assert baccs["attnpool"] - baccs["linear"] >= 0.3
        capsys.readouterr()

    def test_data_dot_names_the_directory(self, work, tmp_path,
                                          monkeypatch, capsys):
        """``--data .`` reports the task under the directory's own
        name, not the empty name of ``.``; a symlinked tree keeps its
        link name."""
        (tmp_path / "link").symlink_to(work / "sg")
        for cwd, data, task in ((work / "sg", ".", "sg"),
                                (tmp_path, "link", "link")):
            rep = tmp_path / f"{task}.json"
            monkeypatch.chdir(cwd)
            assert run_cli("probe", "--ckpt", work / "init.ckpt",
                           "--data", data, "--mode", "linear",
                           "--report", rep, "--log-level", "quiet") == 0
            report = json.loads(rep.read_text())
            validate_report(report)
            assert report["task"] == task

    def test_single_class_rejected(self, work, tmp_path, capsys):
        solo = tmp_path / "solo"
        (solo / "only").mkdir(parents=True)
        for f in sorted((Path(work) / "sg" / "class0").glob("*.ppm")):
            (solo / "only" / f.name).write_bytes(f.read_bytes())
        assert run_cli("probe", "--ckpt", work / "enc.ckpt",
                       "--data", solo, "--mode", "linear",
                       "--report", tmp_path / "r.json") == 2
        assert "at least 2" in capsys.readouterr().err

    def test_embeddings_are_not_a_checkpoint(self, work, tmp_path, capsys):
        """An embeddings file given as --ckpt is a data error (exit 3)
        naming what it is not."""
        emb = tmp_path / "g.emb"
        assert run_cli("embed", "--ckpt", work / "init.ckpt",
                       "--data", work / "sg", "--out", emb,
                       "--log-level", "quiet") == 0
        assert run_cli("probe", "--ckpt", emb, "--data", work / "sg",
                       "--mode", "linear",
                       "--report", tmp_path / "r.json") == 3
        assert "not a training checkpoint" in capsys.readouterr().err
        assert not (tmp_path / "r.json").exists()

    @pytest.mark.parametrize("mode", ["linear", "attnpool"])
    def test_diverging_head_exits_1(self, work, tmp_path, capsys, mode):
        """A head whose outputs turn non-finite is a verification error
        (exit 1) naming the epoch; no report and no sidecar is written."""
        cfg = tmp_path / "head.json"
        cfg.write_text('{"lr": 1e308, "epochs": 3}')
        rep = tmp_path / "r.json"
        assert run_cli("probe", "--ckpt", work / "init.ckpt",
                       "--data", work / "sg", "--mode", mode,
                       "--config", cfg, "--report", rep) == 1
        assert (f"verification error: {mode} head diverged at epoch 0"
                in capsys.readouterr().err)
        assert not rep.exists() and not Path(f"{rep}.log").exists()

    def test_report_is_idempotent(self, work, tmp_path, capsys):
        reps = []
        for name in ("a.json", "b.json"):
            rep = tmp_path / name
            assert run_cli("probe", "--ckpt", work / "init.ckpt",
                           "--data", work / "sg", "--mode", "linear",
                           "--report", rep, "--seed", "3",
                           "--log-level", "quiet") == 0
            reps.append(rep.read_bytes())
        assert reps[0] == reps[1]
        capsys.readouterr()


class TestBench:
    def test_tree_layout_and_report(self, tmp_path, capsys):
        out = tmp_path / "suite"
        assert run_cli("bench", "--suite", "shifted", "--out", out,
                       "--per-class", "10", "--seed", "2",
                       "--log-level", "quiet") == 0
        for c in ("class0", "class1"):
            assert len(list((out / c).glob("*.ppm"))) == 10
        report = json.loads((out / "report.json").read_text())
        validate_report(report)
        capsys.readouterr()

    def test_same_seed_same_bytes(self, tmp_path, capsys):
        trees = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert run_cli("bench", "--suite", "local", "--out", out,
                           "--per-class", "8", "--seed", "5",
                           "--log-level", "quiet") == 0
            trees.append(b"".join(
                f.read_bytes()
                for f in sorted(out.rglob("*.ppm"))))
        assert trees[0] == trees[1]
        capsys.readouterr()

    def test_reused_out_holds_one_suite(self, tmp_path, capsys):
        """The same suite re-runs into its own tree; a suite that would
        leave another's rasters beside its own is refused (exit 2),
        naming one of them, with the tree unchanged."""
        out = tmp_path / "suite"
        for _ in range(2):
            assert run_cli("bench", "--suite", "global", "--out", out,
                           "--per-class", "10", "--seed", "0",
                           "--log-level", "quiet") == 0
            assert len(list(out.glob("*/*.ppm"))) == 20
        before = tree_bytes(tmp_path)
        assert run_cli("bench", "--suite", "global", "--out", out,
                       "--per-class", "5", "--seed", "0",
                       "--log-level", "quiet") == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: --out {out} already holds {out}/")
        assert "global-c" in err and ".ppm" in err
        assert tree_bytes(tmp_path) == before


TINY_ABLATE = ('{"seeds": [0], "pretrain_steps": 2, "suite_per_class": 6, '
               '"head_epochs": 2}')


class TestAblate:
    def test_report_and_svg(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(TINY_ABLATE)
        out = tmp_path / "abl.json"
        assert run_cli("ablate", "--config", cfg, "--out", out,
                       "--log-level", "quiet") == 0
        report = json.loads(out.read_text())
        validate_report(report)
        assert len(report["ablation_rows"]) == 3
        svg = (tmp_path / "abl.json.svg").read_text()
        assert svg.startswith("<svg")
        capsys.readouterr()

    def test_svg_in_new_directory(self, tmp_path, capsys):
        """An explicit --svg whose directory does not exist yet is
        created, as every other output's is."""
        cfg = tmp_path / "cfg.json"
        cfg.write_text(TINY_ABLATE)
        svg = tmp_path / "charts" / "abl.svg"
        assert run_cli("ablate", "--config", cfg, "--out",
                       tmp_path / "abl.json", "--svg", svg,
                       "--log-level", "quiet") == 0
        assert svg.read_text().startswith("<svg")
        capsys.readouterr()

    def test_zero_pretrain_steps(self, tmp_path, capsys):
        """``pretrain_steps: 0`` probes the initial encoders; the report
        is the one the grid wrote when it skipped training itself."""
        cfg = tmp_path / "cfg.json"
        cfg.write_text(TINY_ABLATE.replace('"pretrain_steps": 2',
                                           '"pretrain_steps": 0'))
        out = tmp_path / "abl.json"
        assert run_cli("ablate", "--config", cfg, "--out", out,
                       "--log-level", "quiet") == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == (
            "8f581419983429091e60580d16e972bb0fbec517d2835b9d0dde1beec4de2ed3")
        capsys.readouterr()

    def test_trained_report_bytes(self, tmp_path, capsys):
        """Two pretraining steps give the plain and augmented rows their
        own encoders; the report is the one the grid wrote when it kept
        its scores as a dict of lists."""
        cfg = tmp_path / "cfg.json"
        cfg.write_text(TINY_ABLATE)
        out = tmp_path / "abl.json"
        assert run_cli("ablate", "--config", cfg, "--out", out,
                       "--log-level", "quiet") == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == (
            "7dd676973210f1edd6e8e2da68b771977e51f6d6ac960b4dedf827effff0698a")
        capsys.readouterr()


def test_reports_need_no_jsonschema(work, tmp_path, monkeypatch, capsys):
    """Every report writer runs with ``jsonschema`` unimportable: the
    format is checked by the tests, not at run time."""
    monkeypatch.setitem(sys.modules, "jsonschema", None)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(TINY_ABLATE)
    assert run_cli("bench", "--suite", "global", "--per-class", "5",
                   "--out", tmp_path / "suite", "--log-level", "quiet") == 0
    assert run_cli("probe", "--ckpt", work / "init.ckpt",
                   "--data", work / "sg", "--mode", "linear",
                   "--report", tmp_path / "r.json",
                   "--log-level", "quiet") == 0
    assert run_cli("ablate", "--config", cfg, "--out", tmp_path / "a.json",
                   "--log-level", "quiet") == 0
    capsys.readouterr()


class TestGradcheckCommand:
    def test_clean_build_passes(self, capsys):
        assert main(["gradcheck"]) == 0
        out = capsys.readouterr().out
        assert out.count("PASS") == 8

    def test_fault_injection_names_component(self, monkeypatch, capsys):
        inject_fault(monkeypatch, "heads.linear")
        assert main(["gradcheck"]) == 1
        captured = capsys.readouterr()
        assert "heads.linear" in captured.err
        assert "FAIL" in captured.out


class TestAugment:
    def test_writes_matching_names(self, work, tmp_path, capsys):
        out = tmp_path / "aug"
        assert run_cli("augment", "--input", work / "sg" / "class0",
                       "--out", out, "--seed", "4",
                       "--log-level", "quiet") == 0
        src_names = {f.name for f in (Path(work) / "sg" / "class0").glob("*.ppm")}
        assert {f.name for f in out.glob("*.ppm")} == src_names
        summary = json.loads((out / "augment_summary.json").read_text())
        assert summary["count"] == len(src_names)
        capsys.readouterr()

    def test_seed_changes_output(self, work, tmp_path, capsys):
        outs = []
        for seed in (0, 1):
            out = tmp_path / f"aug{seed}"
            assert run_cli("augment", "--input", work / "sg" / "class0",
                           "--out", out, "--seed", seed,
                           "--log-level", "quiet") == 0
            f = sorted(out.glob("*.ppm"))[0]
            outs.append(f.read_bytes())
        assert outs[0] != outs[1]
        capsys.readouterr()

    def test_empty_input_is_data_error(self, tmp_path, capsys):
        src = tmp_path / "none"
        src.mkdir()
        assert run_cli("augment", "--input", src,
                       "--out", tmp_path / "aug") == 3
        capsys.readouterr()

    def test_reads_every_input_before_writing(self, tmp_path, capsys):
        """An unreadable raster among readable ones: exit 3 with no
        jittered copy or summary left behind, --out not even made."""
        src = tmp_path / "in"
        src.mkdir()
        write_ppm(src / "a.ppm", noisy_raster(0, size=16))
        (src / "b.ppm").write_bytes(b"P6 garbage")
        write_ppm(src / "c.ppm", noisy_raster(1, size=16))
        assert run_cli("augment", "--input", src,
                       "--out", tmp_path / "aug") == 3
        err = capsys.readouterr().err
        assert err.startswith("data error: ") and "b.ppm" in err
        assert not (tmp_path / "aug").exists()

    @pytest.mark.parametrize("out", ["in", "link"])
    def test_out_on_input_refused(self, work, tmp_path, monkeypatch, capsys,
                                  out):
        """Jittered copies keep their sources' names, so an --out that
        resolves to --input (itself or through a link) would overwrite
        the inputs: exit 2, every byte kept."""
        monkeypatch.chdir(tmp_path)
        src = tmp_path / "in"
        src.mkdir()
        for f in sorted((Path(work) / "sg" / "class0").glob("*.ppm"))[:2]:
            (src / f.name).write_bytes(f.read_bytes())
        (tmp_path / "link").symlink_to(src)
        before = tree_bytes(tmp_path)
        assert run_cli("augment", "--input", "in", "--out", out) == 2
        assert (capsys.readouterr().err
                == f"error: --out {out} is the same path as --input\n")
        assert tree_bytes(tmp_path) == before

    def test_reused_out_holds_one_run(self, work, tmp_path, capsys):
        """The same inputs re-run into their own --out; inputs of other
        names would leave the first run's rasters beside their own, so
        that run is refused (exit 2), naming one, with the tree
        unchanged."""
        firsts = sorted((Path(work) / "sg" / "class0").glob("*.ppm"))[:3]
        for name, prefix in (("b1", ""), ("b2", "other-")):
            (tmp_path / name).mkdir()
            for f in firsts:
                (tmp_path / name / (prefix + f.name)).write_bytes(
                    f.read_bytes())
        out = tmp_path / "aug"
        for _ in range(2):
            assert run_cli("augment", "--input", tmp_path / "b1",
                           "--out", out, "--log-level", "quiet") == 0
            assert len(list(out.glob("*.ppm"))) == 3
        before = tree_bytes(tmp_path)
        assert run_cli("augment", "--input", tmp_path / "b2", "--out", out,
                       "--log-level", "quiet") == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: --out {out} already holds {out}/")
        assert tree_bytes(tmp_path) == before

    def test_space_flag_overrides_config(self, work, tmp_path, capsys):
        cfg = tmp_path / "c.json"
        cfg.write_text('{"space": "lab"}')
        spaces = []
        for name, flag in (("file", []), ("flag", ["--space", "hsv"])):
            out = tmp_path / name
            assert run_cli("augment", "--input", work / "sg" / "class0",
                           "--out", out, "--config", cfg, *flag,
                           "--log-level", "quiet") == 0
            summary = json.loads((out / "augment_summary.json").read_text())
            spaces.append(summary["space"])
        assert spaces == ["lab", "hsv"]

    @pytest.mark.parametrize("command", ["augment", "pretrain"])
    def test_unreadable_input_is_data_error(self, tmp_path, capsys,
                                            command):
        """A directory named like a raster cannot be read: exit 3 for
        ``augment`` and ``pretrain --input``, not a traceback."""
        src = tmp_path / "in"
        (src / "x.ppm").mkdir(parents=True)
        argv = {"augment": ["--out", tmp_path / "aug"],
                "pretrain": ["--steps", "0", "--out", tmp_path / "c.ckpt"]}
        assert run_cli(command, "--input", src, *argv[command]) == 3
        err = capsys.readouterr().err
        assert "data error" in err and "x.ppm" in err


# A small pipeline run in a child process: each argv runs in order in
# the child's working directory, and the child exits with the first
# non-zero code.
CHILD = """
import json, sys
from tokenhier.cli import main
for argv in json.loads(sys.argv[1]):
    code = main(argv + ["--log-level", "quiet"])
    if code:
        sys.exit(code)
"""
PIPELINE = [
    ["bench", "--suite", "local", "--out", "suite", "--per-class", "5"],
    ["pretrain", "--steps", "3", "--out", "enc.ckpt"],
    ["embed", "--ckpt", "enc.ckpt", "--data", "suite", "--out", "suite.emb"],
    ["probe", "--ckpt", "enc.ckpt", "--data", "suite", "--mode", "attnpool",
     "--report", "probe.json"],
    ["posttrain", "--steps", "2", "--out", "post.ckpt",
     "--gram-teacher", "enc.ckpt"],
    ["augment", "--input", "suite/class0", "--out", "aug"],
    ["tile", "--input", "suite/class0", "--out", "tiles.jsonl",
     "--tile-size", "16", "--min-tissue", "0.0"],
]


class TestCrossProcessDeterminism:
    def test_primary_outputs_match_across_processes(self, tmp_path):
        """The determinism contract across processes: the pipeline run
        at OpenBLAS 1 thread and hash seed 1, and again at 2 threads and
        hash seed 987, writes the same files with the same bytes,
        sidecar logs aside.  A plain post-training run closes it: its
        steps take the lane wherever a core is free."""
        src = str(Path(cli.__file__).parents[1])
        plain = tmp_path / "plain.json"
        plain.write_text(json.dumps({"enabled": False}))
        pipeline = PIPELINE + [
            ["posttrain", "--config", str(plain), "--steps", "2",
             "--out", "plain.ckpt", "--gram-teacher", "enc.ckpt"]]
        trees = []
        for blas, hash_seed in (("1", "1"), ("2", "987")):
            run = tmp_path / f"blas{blas}"
            run.mkdir()
            env = dict(os.environ, OPENBLAS_NUM_THREADS=blas,
                       OMP_NUM_THREADS=blas, PYTHONHASHSEED=hash_seed,
                       PYTHONPATH=os.pathsep.join(filter(None, [
                           src, os.environ.get("PYTHONPATH")])))
            child = subprocess.run(
                [sys.executable, "-c", CHILD, json.dumps(pipeline)],
                cwd=run, env=env, capture_output=True, text=True,
                timeout=120)
            assert child.returncode == 0, child.stderr
            trees.append({f.relative_to(run): f.read_bytes()
                          for f in sorted(run.rglob("*"))
                          if f.is_file() and f.suffix != ".log"})
        # 10 rasters and report.json, the checkpoint and its loss log,
        # the embeddings, the probe report, the post-trained checkpoint
        # and its loss log, class0's 5 augmented views and their summary,
        # the tile manifest, and the plain post-trained checkpoint and its
        # loss log
        assert len(trees[0]) == 26
        assert trees[0].keys() == trees[1].keys()
        assert [f for f in trees[0] if trees[0][f] != trees[1][f]] == []


class TestDemo:
    def test_end_to_end(self, tmp_path, capsys):
        """The bootstrap driver chains suites, tiling, augmentation,
        pretraining, embedding, probes, and gradient checks."""
        out = tmp_path / "demo"
        assert run_cli("demo", "--out", out, "--seed", "0") == 0
        text = capsys.readouterr().out
        assert "demo reports:" in text
        for stem in ("probe-global-linear", "probe-local-linear",
                     "probe-local-attnpool"):
            report = json.loads((out / f"{stem}.json").read_text())
            validate_report(report)


    @pytest.mark.parametrize("code", [1, 3])
    def test_failing_step_code_passes_through(self, tmp_path, monkeypatch,
                                              capsys, code):
        """demo exits with a failing step's own code: a verification
        failure stays 1 and a data error 3."""
        def first_step_fails(argv):
            return code if argv[0] == "bench" else main(argv)

        monkeypatch.setattr(cli, "main", first_step_fails)
        assert run_cli("demo", "--out", tmp_path / "demo") == code
        assert f"demo step bench exited {code}" in capsys.readouterr().err


class TestConfigFingerprints:
    """Fingerprints of the resolved configs: refactoring the config
    plumbing must not move a fingerprint, or artifacts written before
    and after stop matching.  A pin moves only when what a config holds
    changes on purpose, as when ``enabled`` joined the augment
    fingerprint, ``gram_teacher_checkpoint`` left the SSL config and
    the suite seed and size joined the ablate fingerprint."""

    PINS = {
        ("augment", "default"): "daee191f7fda3fe2",
        ("augment", "file"): "9817cf56427bbd0e",
        ("augment", "disabled"): "98dd8452f5ccd346",
        ("pretrain", "default"): "3e6cc5fc1ab10a2a",
        ("pretrain", "file"): "5011aa50e9144047",
        ("ablate", "tiny"): "2bfeef2c9997dc98",
    }

    @pytest.mark.parametrize("source", ["default", "file"])
    def test_augment_and_pretrain(self, tmp_path, source, capsys):
        src = tmp_path / "in"
        src.mkdir()
        write_ppm(src / "a.ppm", np.full((8, 8, 3), 100, np.uint8))
        extra = []
        if source == "file":
            cfg = tmp_path / "sigmas.json"
            cfg.write_text(json.dumps({"lab_mean_sigma": [1.0, 2.0, 3.0],
                                       "hsv_std_sigma": [0.2, 0.2, 0.3]}))
            extra = ["--config", cfg]
        assert run_cli("augment", "--input", src, "--out", tmp_path / "aug",
                       "--log-level", "quiet", *extra) == 0
        summary = json.loads(
            (tmp_path / "aug" / "augment_summary.json").read_text())
        assert summary["config_fingerprint"] == self.PINS["augment", source]
        ck = tmp_path / "c.ckpt"
        assert run_cli("pretrain", "--steps", "0", "--out", ck,
                       "--log-level", "quiet", *extra) == 0
        fp = load_train_state(ck)[3]["config_fingerprint"]
        assert fp == self.PINS["pretrain", source]
        capsys.readouterr()

    def test_augment_covers_enabled(self, tmp_path, capsys):
        """Unjittered copies never share the default run's fingerprint."""
        src = tmp_path / "in"
        src.mkdir()
        write_ppm(src / "a.ppm", np.full((8, 8, 3), 100, np.uint8))
        cfg = tmp_path / "off.json"
        cfg.write_text('{"enabled": false}')
        assert run_cli("augment", "--input", src, "--out", tmp_path / "aug",
                       "--config", cfg, "--log-level", "quiet") == 0
        summary = json.loads(
            (tmp_path / "aug" / "augment_summary.json").read_text())
        assert summary["config_fingerprint"] == self.PINS["augment",
                                                          "disabled"]
        assert (tmp_path / "aug" / "a.ppm").read_bytes() == (
            src / "a.ppm").read_bytes()
        capsys.readouterr()

    def test_ablate(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(TINY_ABLATE)
        out = tmp_path / "abl.json"
        assert run_cli("ablate", "--config", cfg, "--out", out,
                       "--log-level", "quiet") == 0
        report = json.loads(out.read_text())
        assert report["config_fingerprint"] == self.PINS["ablate", "tiny"]
        assert report["ablation_rows"][0]["split_hashes"] == {
            "local": ["4054f80f8341fecf", "05afc50473976086",
                      "41fa34a99298e98a"],
            "shifted": ["6c314a619ac8586d", "af6e17a59c4766f1",
                        "db48e84f4f845296"]}
        assert (config_fingerprint(asdict(AblationConfig()))
                == "87a4c75afa26a847")
        capsys.readouterr()

    def test_ablate_covers_the_suites(self, tmp_path, capsys):
        """The suite seed and size make the datasets, so runs that
        differ only in one of them never share a fingerprint."""
        fps = {self.PINS["ablate", "tiny"]}
        for change in ({"suite_seed": 7}, {"suite_per_class": 7}):
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps({**json.loads(TINY_ABLATE), **change}))
            out = tmp_path / "abl.json"
            assert run_cli("ablate", "--config", cfg, "--out", out,
                           "--log-level", "quiet") == 0
            fps.add(json.loads(out.read_text())["config_fingerprint"])
        assert len(fps) == 3
        capsys.readouterr()

    def test_embed_and_probe(self, work, tmp_path, capsys):
        emb = tmp_path / "g.emb"
        assert run_cli("embed", "--ckpt", work / "init.ckpt",
                       "--data", work / "sg", "--out", emb,
                       "--log-level", "quiet") == 0
        fp = load_params(emb)[3]["config_fingerprint"]
        assert fp == "c33c682a5568b231"
        cfg = tmp_path / "head.json"
        cfg.write_text('{"epochs": 2, "lr": 0.05, "batch": 8, "seed": 3}')
        for mode, seed, pin in (
                ("linear", [], "c14a066645c14909"),
                ("attnpool", ["--seed", "7"], "640bb5e800e865ce")):
            rep = tmp_path / f"{mode}.json"
            assert run_cli("probe", "--ckpt", work / "init.ckpt",
                           "--data", work / "sg", "--mode", mode,
                           "--config", cfg, "--report", rep,
                           "--log-level", "quiet", *seed) == 0
            assert json.loads(rep.read_text())["config_fingerprint"] == pin
        capsys.readouterr()


def args_reads(functions, name):
    """The ``args.<dest>`` names that ``cli`` function ``name`` reads,
    itself or through the ``cli`` functions it passes ``args`` to."""
    reads, seen, todo = set(), set(), [name]
    while todo:
        fn = todo.pop()
        if fn in seen:
            continue
        seen.add(fn)
        for node in ast.walk(functions[fn]):
            if (isinstance(node, ast.Attribute)
                    and isinstance(node.value, ast.Name)
                    and node.value.id == "args"):
                reads.add(node.attr)
            elif isinstance(node, ast.Call) and isinstance(node.func,
                                                           ast.Name):
                passed = [ast.unparse(a) for a in node.args]
                if node.func.id == "getattr" and passed[0] == "args":
                    reads.add(node.args[1].value)
                elif node.func.id in functions and "args" in passed:
                    todo.append(node.func.id)
    return reads


def subcommands() -> dict:
    """{name: parser} of every ``build_parser()`` subcommand."""
    return next(a for a in build_parser()._actions
                if isinstance(a, argparse._SubParsersAction)).choices


def test_every_option_is_read():
    """Every option a subcommand accepts is read as ``args.<dest>`` by
    its handler or a ``cli`` helper the handler passes ``args`` to: an
    option no code reads is silently ignored, and one only ``main``
    reads is checked for every command but used by none."""
    tree = ast.parse(Path(cli.__file__).read_text(encoding="utf-8"))
    functions = {node.name: node for node in tree.body
                 if isinstance(node, ast.FunctionDef)}
    unread = []
    for command, sub in subcommands().items():
        reads = args_reads(functions, sub.get_default("func").__name__)
        unread += [f"{command} {action.option_strings[0]}"
                   for action in sub._actions
                   if not isinstance(action, argparse._HelpAction)
                   and action.dest not in reads]
    assert not unread, f"options no code reads: {unread}"


def test_output_table_matches_parser():
    """``cli._OUTPUTS`` has a row for every subcommand; each dashed flag
    in a row is an option of its subcommand, every output option a
    subcommand takes is in its row, and every other option that takes a
    path (no type, no choices, a value) is in ``cli._INPUTS``."""
    assert set(cli._OUTPUTS) == set(subcommands())
    for command, sub in subcommands().items():
        options = {s for a in sub._actions for s in a.option_strings}
        flags = {flag for flag, _, _ in cli._OUTPUTS[command]}
        assert {f for f in flags if f.startswith("--")} <= options, command
        outputs = options & {"--out", "--report", "--log", "--svg"}
        assert outputs <= flags, command
        # a path an option names is an output or an input, so the
        # output-onto-input refusal covers every path option
        inputs = {"--" + dest.replace("_", "-") for dest in cli._INPUTS}
        paths = {a.option_strings[0] for a in sub._actions
                 if a.option_strings and a.type is None and not a.choices
                 and a.nargs != 0}
        assert paths <= flags | inputs, command


def test_readme_commands_parse():
    """Every ``tokenhier`` line in README's code blocks parses, so the
    docs cannot name an option a subcommand does not take."""
    readme = Path(__file__).resolve().parents[1] / "README.md"
    blocks = re.findall(r"```\n(.*?)```", readme.read_text(encoding="utf-8"),
                        flags=re.S)
    lines = [line for block in blocks for line in block.splitlines()
             if line.startswith("tokenhier ")]
    assert len(lines) >= len(MINIMAL_ARGV)
    for line in lines:
        build_parser().parse_args(shlex.split(line)[1:])


# Every action of every subcommand, in parser order, as (flags, dest,
# default, choices, required, type name); each starts with COMMON.
COMMON = [
    (("-h", "--help"), "help", argparse.SUPPRESS, None, False, None),
    (("--log-level",), "log_level", "info", ("quiet", "info"), False, None),
]
TRAINING = [
    (("--steps",), "steps", None, None, False, "int"),
    (("--batch-size",), "batch_size", None, None, False, "int"),
    (("--out",), "out", None, None, True, None),
    (("--input",), "input", None, None, False, None),
    (("--log",), "log", None, None, False, None),
]
CONFIG = (("--config",), "config", None, None, False, None)
SEED_0 = (("--seed",), "seed", 0, None, False, "int")
SEED_NONE = (("--seed",), "seed", None, None, False, "int")
OPTION_TABLE = {
    "tile": [
        (("--input",), "input", None, None, True, None),
        (("--out",), "out", None, None, True, None),
        (("--tile-size",), "tile_size", 256, None, False, "int"),
        (("--min-tissue",), "min_tissue", 0.5, None, False, "float"),
        (("--invert",), "invert", False, None, False, None)],
    "augment": [
        (("--input",), "input", None, None, True, None),
        (("--out",), "out", None, None, True, None),
        (("--space",), "space", None, ("lab", "hsv", "both"), False, None),
        CONFIG, SEED_0],
    "pretrain": [*TRAINING, CONFIG, SEED_NONE],
    "posttrain": [
        *TRAINING,
        (("--gram-teacher",), "gram_teacher", None, None, True, None),
        (("--init",), "init", None, None, False, None),
        CONFIG, SEED_NONE],
    "embed": [
        (("--ckpt",), "ckpt", None, None, True, None),
        (("--data",), "data", None, None, True, None),
        (("--out",), "out", None, None, True, None)],
    "probe": [
        (("--ckpt",), "ckpt", None, None, True, None),
        (("--data",), "data", None, None, True, None),
        (("--mode",), "mode", None, ("linear", "attnpool"), True, None),
        (("--report",), "report", None, None, True, None),
        CONFIG, SEED_NONE],
    "bench": [
        (("--suite",), "suite", None, ("global", "local", "shifted"), True,
         None),
        (("--out",), "out", None, None, True, None),
        (("--per-class",), "per_class", 30, None, False, "int"),
        SEED_0],
    "ablate": [
        (("--out",), "out", None, None, True, None),
        (("--svg",), "svg", None, None, False, None),
        CONFIG],
    "gradcheck": [],
    "demo": [
        (("--out",), "out", None, None, True, None),
        SEED_0],
}


def test_option_table_is_pinned():
    """Each subcommand takes exactly the pinned options: none dropped,
    added, renamed, retyped or given another default.  Unlike the
    ``--help`` text, the table does not depend on the Python version."""
    table = {command: [(tuple(a.option_strings), a.dest, a.default,
                        a.choices, a.required, a.type and a.type.__name__)
                       for a in sub._actions]
             for command, sub in subcommands().items()}
    assert table == {command: COMMON + rows
                     for command, rows in OPTION_TABLE.items()}
