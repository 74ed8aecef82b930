"""Command-line entry point for the full pipeline.

One executable, nine subcommands: tile, augment, pretrain, posttrain,
embed, probe, bench, ablate, gradcheck, plus a demo driver that chains
them end to end on synthetic data.

Conventions shared by every command:
  - exit codes, carried by the classes in :mod:`tokenhier.errors`: 0
    success, 1 verification failure, 2 usage/config error, 3 data
    error; ``demo`` exits with a failing step's code
  - ``_OUTPUTS`` is the one home of what each command writes and its
    default paths, ``_INPUTS`` of the options it reads from; outputs
    are checked before any work: one under a non-directory, a file
    output naming a directory, or an output on the path of an input or
    of another output exits 2 and writes nothing; so does a bench
    --out holding rasters of another suite
  - each condition is refused where its value enters, in the order
    argv, config, checkpoints (``_load_state``), rasters (``read_ppm``,
    ``_check_sizes``); the library functions they reach trust callers
  - augment, pretrain, posttrain, probe and ablate read an optional
    JSON config file (--config; flat, module-mirrored field names)
    through ``_read_config_file``, with command-line flags overriding
    file values; unknown keys are refused, every key's JSON type is
    checked, and integer keys take integers only
  - augment, bench and demo take --seed (default 0), and so do
    pretrain, posttrain and probe (default: the config file's seed,
    then 0); ablate reads its seeds from its config file
  - every primary output records a fingerprint of the resolved config
  - timestamps appear only in ``<output>.log`` sidecars, never in
    primary outputs
"""

from __future__ import annotations

import argparse
import copy
import datetime
import json
import sys
import warnings
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np

from . import bench as B
from .bench import (AblationConfig, acceptance_suites, embed_dataset,
                    ingest_directory, make_report, make_pretrain_corpus,
                    make_synthetic_suite, render_ablation_table,
                    run_ablation, save_embeddings, split_dataset,
                    write_bacc_svg, write_report)
from .checkpoint import (check_size, check_value, config_fingerprint,
                         read_config)
from .color import StainAugConfig, read_ppm, stain_augment, write_ppm
from .encoder import EncoderConfig
from .errors import ConfigError, DataError, TokenhierError
from .gradcheck import TOLERANCE, run_all
from .heads import ATTNPOOL, LINEAR, predict_batch, train_head
from .numkernel import RngStream
from .optim import AdamConfig
from .ssl import (POSTTRAIN, check_step_size, init_train_state,
                  load_train_state, run_training, save_train_state,
                  student_encoder_params, student_size, train_state_mismatch)
from .tiler import tile_sources, write_manifest

_DESK = AblationConfig()   # desk-scale defaults shared with the ablation grid


# ---------------------------------------------------------------------------
# config plumbing


def _load_config_file(path) -> dict:
    if path is None:
        return {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
    except OSError as e:
        raise ConfigError(f"cannot read config {path}: {e}") from None
    except (ValueError, RecursionError) as e:   # see checkpoint.load_params
        raise ConfigError(f"config {path} is not valid JSON: {e}") from None
    if not isinstance(cfg, dict):
        raise ConfigError(f"config {path} must hold a JSON object")
    return cfg


def _read_config_file(args, bases, loose=None, refused=()):
    """The ``--config`` file read over each config in ``bases``, then its
    loose keys ``{key: (default, flag)}`` checked against the type of
    their default, a set flag winning; keys nothing names, and keys in
    ``refused``, are refused.  Returns the configs, then the values."""
    flat, loose = _load_config_file(args.config), loose or {}
    known = {k for base in bases for k in asdict(base)} | set(loose)
    unknown = sorted(set(flat) - (known - set(refused)))
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
    configs = [read_config(type(base), {k: flat.get(k, v)
                                        for k, v in asdict(base).items()})
               for base in bases]
    for key, (default, flag) in loose.items():
        value = check_value(key, type(default), flat.get(key, default))
        configs.append(value if flag is None else flag)
    return configs


def _fingerprint(command: str, resolved: dict) -> str:
    return config_fingerprint({"command": command, **resolved})


def _note(args, message: str) -> None:
    """Timestamped line in the ``args.note`` sidecar; the only place
    wall-clock time goes."""
    stamp = datetime.datetime.now().isoformat(timespec="seconds")
    with open(args.note, "a", encoding="utf-8") as fh:
        fh.write(f"{stamp} {message}\n")


def _say(args, message: str) -> None:
    if args.log_level != "quiet":
        print(message)


# What each subcommand writes, primary first: (flag, default path over
# --out, is_dir); a flag without dashes is an ``args`` attribute only.
_OUTPUTS = {
    "tile": [("--out", None, False)],
    "augment": [("--out", None, True),
                ("summary", "{}/augment_summary.json", False)],
    "pretrain": [("--out", None, False), ("--log", "{}.losses.jsonl", False)],
    "embed": [("--out", None, False)],
    "probe": [("--report", None, False)],
    "bench": [("--out", None, True), ("summary", "{}/report.json", False)],
    "ablate": [("--out", None, False), ("--svg", "{}.svg", False)],
    "gradcheck": [],
    "demo": [("--out", None, True)],
}
_OUTPUTS["posttrain"] = _OUTPUTS["pretrain"]

# The ``args`` attributes any subcommand reads a file or directory from.
_INPUTS = ("input", "data", "ckpt", "gram_teacher", "init", "config")


def _check_outputs(args) -> None:
    """Fill :data:`_OUTPUTS`' defaults and the ``<first file>.log`` note
    into ``args``; refuse, writing nothing, an output under a file, a
    file output that is a directory, or an output on the path of an
    input or of another output."""
    values = vars(args)
    seen = {Path(values[dest]).resolve(): "--" + dest.replace("_", "-")
            for dest in _INPUTS if values.get(dest) is not None}
    args.outputs = []
    for flag, default, is_dir in _OUTPUTS[args.command]:
        dest = flag.lstrip("-")
        if values.get(dest) is None:
            values[dest] = default.format(args.out)
        args.outputs.append((flag, values[dest], is_dir))
    files = [path for _, path, is_dir in args.outputs if not is_dir]
    args.note = f"{files[0]}.log" if files else None
    if files:
        args.outputs.append(("sidecar", args.note, False))
    for flag, path, is_dir in args.outputs:
        target = Path(path).absolute()
        start = target if is_dir else target.parent
        nearest = next(p for p in (start, *start.parents) if p.exists())
        if not nearest.is_dir():
            raise ConfigError(f"{flag} {path}: {nearest} is not a directory")
        if not is_dir and target.is_dir():
            raise ConfigError(f"{flag} {path} is a directory")
        other = seen.setdefault(target.resolve(), flag)
        if other != flag:
            raise ConfigError(f"{flag} {path} is the same path as {other}")


def _make_outputs(args) -> None:
    """Create each output directory and each output file's parent."""
    for _, path, is_dir in args.outputs:
        path = Path(path).resolve()
        (path if is_dir else path.parent).mkdir(parents=True, exist_ok=True)


def _ppm_files(directory, required=True) -> list:
    d = Path(directory)
    if not d.is_dir():
        raise ConfigError(f"{d}: not a readable directory")
    files = sorted(d.glob("*.ppm"))
    if required and not files:
        raise DataError(f"no .ppm files under {directory}")
    return files


def _refuse_strays(args, pattern: str, written) -> None:
    """Refuse an --out tree holding rasters (``pattern`` under it) that
    this run would not write: the tree would mix two runs."""
    stray = sorted(set(Path(args.out).glob(pattern)) - set(written))
    if stray:
        raise ConfigError(f"--out {args.out} already holds {stray[0]}, "
                          "which this run does not write")


def _check_sizes(names, rasters, enc: EncoderConfig) -> None:
    """Refuse, naming it, a raster that is not ``enc``'s image size."""
    for name, raster in zip(names, rasters):
        if raster.shape[:2] != (enc.image_size, enc.image_size):
            raise ConfigError(f"{name}: raster {raster.shape[:2]} does not "
                              f"match image_size {enc.image_size}")


def _read_input(path):
    """A raster ``tile`` cannot read is a usage error (exit 2)."""
    try:
        return read_ppm(path)
    except DataError as e:
        raise ConfigError(f"unreadable input {e}") from None


# ---------------------------------------------------------------------------
# tile


def cmd_tile(args) -> int:
    files = _ppm_files(args.input, required=False)
    resolved = {"tile_size": args.tile_size, "min_tissue": args.min_tissue,
                "invert": bool(args.invert)}
    fp = _fingerprint("tile", resolved)
    levels, records = tile_sources(((f.stem, _read_input(f)) for f in files),
                                   args.tile_size, args.min_tissue,
                                   args.invert)
    if not files:
        print(f"warning: no .ppm files under {args.input}", file=sys.stderr)
    elif all(t is None for t in levels.values()):
        raise DataError("every input image has a single gray level; "
                        "nothing tiled")
    _make_outputs(args)
    write_manifest(args.out, levels, records, args.tile_size,
                   args.min_tissue, fp)
    _note(args, f"tile: {len(files)} sources")
    _say(args, f"tiled {len(files)} sources -> {len(records)} tiles")
    return 0


# ---------------------------------------------------------------------------
# augment


def cmd_augment(args) -> int:
    aug, = _read_config_file(args, [StainAugConfig()])
    if args.space is not None:
        aug = replace(aug, space=args.space)
    files = _ppm_files(args.input)
    out_dir = Path(args.out)
    _refuse_strays(args, "*.ppm", [out_dir / f.name for f in files])
    rasters = [read_ppm(f) for f in files]   # all read before any write
    _make_outputs(args)
    fp = _fingerprint("augment", {"seed": args.seed, **asdict(aug)})
    root = RngStream(seed=args.seed, stream_id=71)
    for i, (f, raster) in enumerate(zip(files, rasters)):
        write_ppm(out_dir / f.name, stain_augment(raster, aug, root.derive(i)))
    write_report({"config_fingerprint": fp, "count": len(files),
                  "space": aug.space}, args.summary)
    _note(args, f"augment: {len(files)} rasters")
    _say(args, f"augmented {len(files)} rasters -> {out_dir}")
    return 0


# ---------------------------------------------------------------------------
# pretrain / posttrain


def _training_configs(args):
    # no space key: each augmented view picks LAB or HSV by a coin
    enc, ssl, aug, steps, batch, lr, seed = _read_config_file(
        args, [_DESK.encoder, _DESK.ssl, _DESK.aug],
        {"steps": (200, args.steps),
         "batch_size": (_DESK.batch_size, args.batch_size),
         "lr": (_DESK.ssl_lr, None), "seed": (0, args.seed)},
        refused=["space"])
    lr = float(lr)
    if steps < 0:
        raise ConfigError(f"--steps must be >= 0, got {steps}")
    if batch < 1:
        raise ConfigError(f"--batch-size must be >= 1, got {batch}")
    if enc.num_patches < 2:
        raise ConfigError(
            f"num_patches must be >= 2 so a masked view keeps an unmasked "
            f"token, got {enc.num_patches} (image_size {enc.image_size}, "
            f"token_size {enc.token_size})")
    if not args.input and enc.image_size < 9:
        # the bundled corpus's block corners lie in [0, image_size - 8)
        raise ConfigError(f"image_size {enc.image_size} is too small for the "
                          "bundled corpus (needs >= 9); give --input")
    check_size("the model", student_size(enc, ssl.prototype_count))
    check_step_size(enc, batch)
    adam = AdamConfig(lr=lr)   # checks lr before anything is written
    resolved = {"encoder": asdict(enc), "ssl": asdict(ssl), "aug": asdict(aug),
                "steps": steps, "batch_size": batch, "lr": lr, "seed": seed}
    return enc, ssl, aug, steps, batch, adam, seed, resolved


def _load_corpus(args, enc: EncoderConfig, seed: int) -> list:
    if not args.input:
        return make_pretrain_corpus(RngStream(seed=seed, stream_id=10),
                                    count=64, image_size=enc.image_size)
    files = _ppm_files(args.input)
    corpus = [read_ppm(f) for f in files]
    _check_sizes(files, corpus, enc)
    return corpus


def _load_state(path, flag: str, enc: EncoderConfig = None):
    """(state, encoder config) at ``path``; an ``enc`` given must match."""
    state, ckpt_enc, _, _ = load_train_state(path)
    if enc is not None and ckpt_enc != enc:
        raise ConfigError(f"{flag} encoder geometry differs "
                          "from the requested config")
    return state, ckpt_enc


def _run_ssl(args) -> int:
    phase = args.command
    enc, ssl, aug, steps, batch, adam, seed, resolved = _training_configs(args)
    fp = _fingerprint(phase, {**resolved, "phase": phase})
    if phase == POSTTRAIN:
        anchor, _ = _load_state(args.gram_teacher, "--gram-teacher", enc)
        state, _ = (_load_state(args.init, "--init", enc) if args.init
                    else (anchor, enc))
        mismatch = train_state_mismatch(state, enc, ssl)
        if mismatch:
            raise ConfigError(f"{args.init or args.gram_teacher}: checkpoint "
                              f"{mismatch} under the requested config")
        # a copy: the student may be the anchor, and it trains in place
        state.gram_teacher = copy.deepcopy(student_encoder_params(anchor))
    else:
        state = init_train_state(enc, ssl, RngStream(seed=seed, stream_id=11))
    corpus = _load_corpus(args, enc, seed)
    _make_outputs(args)
    with open(args.log, "w", encoding="ascii") as fh:
        fh.write(json.dumps({"config_fingerprint": fp, "phase": phase},
                            sort_keys=True) + "\n")
        history = run_training(corpus, state, ssl, enc, aug,
                               RngStream(seed=seed, stream_id=12),
                               steps=steps, batch_size=batch, phase=phase,
                               adam_cfg=adam, log_file=fh)
    save_train_state(args.out, state, enc, ssl,
                     extra={"config_fingerprint": fp, "phase": phase})
    _note(args, f"{phase}: {steps} steps on {len(corpus)} rasters")
    if history:
        _say(args, f"{phase} {steps} steps: total "
                   f"{history[0].total:.4f} -> {history[-1].total:.4f}")
    else:
        _say(args, f"{phase} 0 steps: checkpoint is the initialization")
    return 0


# ---------------------------------------------------------------------------
# embed


def cmd_embed(args) -> int:
    state, enc_cfg = _load_state(args.ckpt, "--ckpt")
    ds = ingest_directory(args.data)
    if not ds.items:
        raise DataError(f"{args.data}: no class subdirectory holds a .ppm file")
    _check_sizes(ds.source_ids, ds.rasters, enc_cfg)
    fp = _fingerprint("embed", {"encoder": asdict(enc_cfg),
                                "data": sorted(ds.source_ids)})
    seqs = embed_dataset(ds, student_encoder_params(state), enc_cfg)
    _make_outputs(args)
    save_embeddings(args.out, seqs, ds.labels, enc_cfg,
                    extra={"config_fingerprint": fp,
                           "class_names": ds.class_names})
    _note(args, f"embed: {len(seqs)} items from {args.data}")
    _say(args, f"embedded {len(seqs)} items -> {args.out}")
    return 0


# ---------------------------------------------------------------------------
# probe


def cmd_probe(args) -> int:
    head_cfg, = _read_config_file(args, [_DESK.head])
    if args.seed is not None:
        head_cfg = replace(head_cfg, seed=args.seed)
    state, enc_cfg = _load_state(args.ckpt, "--ckpt")
    if args.mode == ATTNPOOL and enc_cfg.embed_dim % head_cfg.num_heads:
        raise ConfigError(f"embed_dim {enc_cfg.embed_dim} not divisible by "
                          f"num_heads {head_cfg.num_heads}")
    params = student_encoder_params(state)
    ds = ingest_directory(args.data)
    _check_sizes(ds.source_ids, ds.rasters, enc_cfg)
    if len(ds.class_names) < 2:
        raise ConfigError(
            f"{args.data}: found {len(ds.class_names)} class directories; "
            "probing needs at least 2")
    tr, va, te = split_dataset(ds, head_cfg.seed)
    etr, eva, ete = (embed_dataset(s, params, enc_cfg) for s in (tr, va, te))
    result = train_head(list(zip(etr, tr.labels)), list(zip(eva, va.labels)),
                        args.mode, head_cfg)
    preds = predict_batch(ete, result.params, args.mode)
    fp = _fingerprint("probe", {"encoder": asdict(enc_cfg),
                                "mode": args.mode, **asdict(head_cfg)})
    data = Path(args.data).absolute()   # not resolve(): keeps link names
    report = make_report(data.name or str(data), te.labels, preds, fp,
                         head_cfg.seed, class_names=ds.class_names,
                         extra={"head_mode": args.mode,
                                "val_bacc": result.best_val_bacc})
    _make_outputs(args)
    write_report(report, args.report)
    _note(args, f"probe: mode={args.mode}")
    _say(args, f"probe {args.mode} test bacc {report['bacc']:.4f}")
    return 0


# ---------------------------------------------------------------------------
# bench


def cmd_bench(args) -> int:
    out_dir = Path(args.out)
    spec = replace(B.SUITE_SPECS[args.suite], per_class=args.per_class)
    splits = make_synthetic_suite(RngStream(seed=args.seed, stream_id=5), spec)
    rasters = {out_dir / f"class{label}" / f"{sid}.ppm": raster
               for split in splits
               for (raster, label), sid in zip(split.items, split.source_ids)}
    _refuse_strays(args, "*/*.ppm", rasters)
    _make_outputs(args)
    for path, raster in rasters.items():
        path.parent.mkdir(exist_ok=True)
        write_ppm(path, raster)
    tr, va, te = splits

    def feats(ds):
        return np.stack([r.reshape(-1, 3).mean(axis=0) for r in ds.rasters])

    ftr, fte = feats(tr), feats(te)
    cents = np.stack([ftr[tr.labels == c].mean(axis=0)
                      for c in range(len(tr.class_names))])
    d = ((fte[:, None, :] - cents[None, :, :]) ** 2).sum(axis=2)
    preds = np.argmin(d, axis=1)
    fp = _fingerprint("bench", {"suite": args.suite,
                                "per_class": args.per_class,
                                "seed": args.seed})
    report = make_report(f"suite-{args.suite}", te.labels, preds, fp,
                         args.seed, class_names=tr.class_names,
                         extra={"note": "mean-color nearest-centroid "
                                        "baseline on the held-out third"})
    write_report(report, args.summary)
    _note(args, f"bench: suite={args.suite}")
    _say(args, f"wrote {args.suite} suite ({len(rasters)} items) -> "
               f"{out_dir}; mean-color baseline bacc {report['bacc']:.4f}")
    return 0


# ---------------------------------------------------------------------------
# ablate


def cmd_ablate(args) -> int:
    cfg, epochs, suite_seed, per_class = _read_config_file(
        args, [_DESK], {"head_epochs": (_DESK.head.epochs, None),
                        "suite_seed": (2024, None),
                        "suite_per_class": (60, None)},
        refused=["encoder", "ssl", "aug", "head"])
    cfg = replace(cfg, ssl_lr=float(cfg.ssl_lr),
                  head=replace(cfg.head, epochs=epochs))
    suites = acceptance_suites(RngStream(seed=suite_seed, stream_id=5),
                               per_class)
    fp = _fingerprint("ablate", {**asdict(cfg), "suite_seed": suite_seed,
                                 "suite_per_class": per_class})
    report = run_ablation(suites, cfg, fp)
    _make_outputs(args)
    write_report(report, args.out)
    write_bacc_svg(report, args.svg)
    _note(args, f"ablate: seeds={list(cfg.seeds)}")
    _say(args, render_ablation_table(report))
    return 0


# ---------------------------------------------------------------------------
# gradcheck


def cmd_gradcheck(args) -> int:
    results = run_all()
    for r in results:
        _say(args, f"{r.component:<20} {r.worst_rel_err:.3e} "
                   f"{'PASS' if r.passed else 'FAIL'}")
    failing = [r.component for r in results if not r.passed]
    if failing:
        print(f"gradient check failed: {', '.join(failing)}",
              file=sys.stderr)
        return 1
    _say(args, f"all {len(results)} components within {TOLERANCE:g}")
    return 0


# ---------------------------------------------------------------------------
# demo


def cmd_demo(args) -> int:
    out = Path(args.out)
    _make_outputs(args)
    probes = (("global", LINEAR), ("local", LINEAR), ("local", ATTNPOOL))
    phases = [
        ("[1/6] synthetic suites", [
            ["bench", "--suite", "global", "--out", str(out / "suite-global"),
             "--per-class", "20", "--seed", str(args.seed)],
            ["bench", "--suite", "local", "--out", str(out / "suite-local"),
             "--per-class", "60", "--seed", str(args.seed)]]),
        ("[2/6] tiling + augmentation", [
            ["tile", "--input", str(out / "suite-global" / "class0"),
             "--out", str(out / "tiles.jsonl"), "--tile-size", "16",
             "--min-tissue", "0.0"],
            ["augment", "--input", str(out / "suite-global" / "class0"),
             "--out", str(out / "augmented"), "--seed", str(args.seed)]]),
        ("[3/6] self-supervised pretraining (100 steps)", [
            ["pretrain", "--steps", "100", "--out", str(out / "encoder.ckpt"),
             "--seed", str(args.seed)]]),
        ("[4/6] frozen embeddings", [
            ["embed", "--ckpt", str(out / "encoder.ckpt"),
             "--data", str(out / "suite-global"),
             "--out", str(out / "global.emb")]]),
        ("[5/6] probes", [
            ["probe", "--ckpt", str(out / "encoder.ckpt"),
             "--data", str(out / f"suite-{suite}"), "--mode", mode,
             "--seed", str(args.seed),
             "--report", str(out / f"probe-{suite}-{mode}.json")]
            for suite, mode in probes]),
        ("[6/6] gradient checks", [["gradcheck"]]),
    ]
    for progress, steps in phases:
        _say(args, progress)
        for argv in steps:
            code = main(argv + ["--log-level", args.log_level])
            if code:   # demo exits with the failing step's code
                print(f"demo step {argv[0]} exited {code}", file=sys.stderr)
                return code
    lines = ["demo reports:"]
    for suite, mode in probes:
        rep = json.loads((out / f"probe-{suite}-{mode}.json").read_text())
        lines.append(f"  {suite:<7} {mode:<9} test bacc {rep['bacc']:.4f}")
    _say(args, "\n".join(lines))
    return 0


# ---------------------------------------------------------------------------
# parser


class _SubcommandParser(argparse.ArgumentParser):
    """Refuses arguments the subcommand does not take under its own
    usage; argparse would hand them up to the top-level parser."""

    def parse_known_args(self, args=None, namespace=None):
        namespace, extras = super().parse_known_args(args, namespace)
        if extras:
            self.error(f"unrecognized arguments: {' '.join(extras)}")
        return namespace, extras


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tokenhier",
        description="tiling, stain augmentation, self-supervised encoder "
                    "training, token probes, and benchmark harness")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--log-level", choices=("quiet", "info"),
                        default="info")
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_SubcommandParser)

    p = sub.add_parser("tile", parents=[common],
                       help="grid-tile rasters into a JSON-lines manifest")
    p.add_argument("--input", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--tile-size", type=int, default=256)
    p.add_argument("--min-tissue", type=float, default=0.5)
    p.add_argument("--invert", action="store_true",
                   help="treat bright regions as tissue")
    p.set_defaults(func=cmd_tile)

    p = sub.add_parser("augment", parents=[common],
                       help="write stain-jittered copies of a raster tree")
    p.add_argument("--input", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--space", choices=("lab", "hsv", "both"), default=None)
    p.set_defaults(func=cmd_augment)

    for name in ("pretrain", "posttrain"):
        p = sub.add_parser(name, parents=[common],
                           help=f"{name} the encoder; JSON-lines loss log "
                                "rides next to the checkpoint")
        p.add_argument("--steps", type=int, default=None)
        p.add_argument("--batch-size", type=int, default=None)
        p.add_argument("--out", required=True)
        p.add_argument("--input", default=None,
                       help="corpus directory of .ppm files; bundled "
                            "synthetic corpus when omitted")
        p.add_argument("--log", default=None,
                       help="loss log path (default <out>.losses.jsonl)")
        if name == "posttrain":
            p.add_argument("--gram-teacher", required=True,
                           help="checkpoint anchoring patch-token geometry")
            p.add_argument("--init", default=None,
                           help="starting checkpoint (default: the gram "
                                "teacher itself)")
        p.set_defaults(func=_run_ssl)

    p = sub.add_parser("embed", parents=[common],
                       help="frozen-encoder embeddings for a class tree")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_embed)

    p = sub.add_parser("probe", parents=[common],
                       help="train a head on frozen embeddings, report BACC")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--mode", choices=(LINEAR, ATTNPOOL), required=True)
    p.add_argument("--report", required=True)
    p.set_defaults(func=cmd_probe)

    p = sub.add_parser("bench", parents=[common],
                       help="materialize a synthetic suite as a class tree")
    p.add_argument("--suite", choices=(B.GLOBAL, B.LOCAL, B.SHIFTED),
                   required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--per-class", type=int, default=30)
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("ablate", parents=[common],
                       help="three-row augmentation/head grid with report "
                            "and bar chart")
    p.add_argument("--out", required=True)
    p.add_argument("--svg", default=None,
                   help="bar chart path (default <out>.svg)")
    p.set_defaults(func=cmd_ablate)

    p = sub.add_parser("gradcheck", parents=[common],
                       help="finite-difference verification of every "
                            "backward pass")
    p.set_defaults(func=cmd_gradcheck)

    p = sub.add_parser("demo", parents=[common],
                       help="end-to-end run on synthetic data")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_demo)

    # one action per subparser: a default set on an action shared through
    # a parent parser would leak into every subcommand
    for name in ("augment", "pretrain", "posttrain", "probe", "ablate"):
        sub.choices[name].add_argument(
            "--config", default=None,
            help="JSON config file; flags override its values")
    for name in ("augment", "bench", "demo"):
        sub.choices[name].add_argument("--seed", type=int, default=0,
                                       help="run seed (default 0)")
    for name in ("pretrain", "posttrain", "probe"):
        sub.choices[name].add_argument(
            "--seed", type=int, default=None,
            help="run seed (default: the config file's seed, then 0)")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        with warnings.catch_warnings():
            # the message alone, without its source line or category
            warnings.showwarning = lambda *shown: print(
                f"warning: {shown[0]}", file=sys.stderr)
            _check_outputs(args)
            return args.func(args)
    except TokenhierError as e:
        print(f"{e.label}: {e}", file=sys.stderr)
        return e.code
    except (OSError, MemoryError) as e:   # a refused write; too large a size
        print(f"error: {str(e) or 'out of memory'}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
