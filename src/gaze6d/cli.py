"""Command-line entry points.

Subcommands cover the whole pipeline: dataset generation, training,
per-subject fine-tuning, evaluation, plane-point conversion, and a gradient
self-check.  A run directory gets its config.json snapshot once the inputs
are read; rerunning a command from it reproduces the outputs byte for byte.

Exit codes: 0 success, 2 usage or config error, 3 numeric failure.
Set GAZE6D_LOG=DEBUG|INFO|WARNING for logging verbosity.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import io
import itertools
import json
import logging
import math
import os
import sys
from dataclasses import asdict, fields, is_dataclass
from pathlib import Path

import numpy as np

from . import metrics, model, synth
from .errors import (COUNT, SEED, ConfigError, GeometryError, TrainingDiverged, bad_input, cast, check_ranges,
                     field_types, from_dict)
from .jsonl import BLOCK_LINES, decode_json
from .pogz import RigidTransform, convert_lines

log = logging.getLogger("gaze6d")

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3

GRADCHECK_TOLERANCE = 1e-4


def _setup_logging() -> None:
    level = os.environ.get("GAZE6D_LOG", "WARNING").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING),
                        format="%(levelname)s %(name)s: %(message)s")


# each command's settings and their defaults; a default that is a type is
# an optional setting, absent (None) unless given, and one that is a dict a
# nested setting, merged key by key
SETTINGS = {
    "gen": {"mode": "general", "subjects": 12, "frames": 100, "seed": 0,
            "kappa_range": synth.KAPPA_RANGE, "noise_sigma": synth.NOISE_SIGMA,
            "scene": asdict(synth.SceneConfig())},
    "train": {"data": str, "folds": 0, **asdict(model.TrainConfig())},
    "finetune": {"params": str, "calib": str, "subject": int, **asdict(model.TrainConfig())},
    "eval": {"params": str, "data": str, "screen": str},
}
# the rule of each setting that is no field of a config dataclass, which states its
# own (errors.ranged): its range, the values it may take, or its config dataclass
RULES = {"mode": synth.MODES, "subjects": COUNT, "frames": COUNT, "seed": SEED, "kappa_range": synth.KAPPA_RANGES,
         "noise_sigma": synth.NOISE_SIGMAS, "scene": synth.SceneConfig, "folds": COUNT}


def _configure(args) -> tuple:
    """The command's SETTINGS, overridden by the --config file, then by flags,
    and the config dataclass they build, all checked before the run directory
    is written; a fault in a value from the file names the file."""
    table, cfg = SETTINGS[args.command], {}
    cls = model.TrainConfig if args.command in ("train", "finetune") else None
    _settings(args, cfg, table, cls)   # the flags alone first: a fault in one reads as it is
    with bad_input(args.config):
        if args.config is not None:
            cfg = decode_json(Path(args.config).read_text(encoding="utf-8", errors="surrogateescape"))
            if not isinstance(cfg, dict):
                raise ConfigError(f"expected a JSON object, got {type(cfg).__name__}")
        unknown = sorted(set(cfg) - set(table) - {"command"})
        if unknown:
            raise ConfigError(f"unknown keys {unknown}; expected keys from {sorted({'command', *table})}")
        if cfg.get("command", args.command) != args.command:
            raise ConfigError(f"command: expected {args.command!r}, got {cfg['command']!r}")
        settings = _settings(args, cfg, table, cls)
        if args.command == "gen":
            return settings, from_dict(synth.SceneConfig, {**settings["scene"], "seed": settings["seed"]}, "scene")
        return settings, cls and from_dict(cls, settings, args.command)


def _settings(args, cfg: dict, defaults: dict, cls=None, where: str = "") -> dict:
    """`defaults`, overridden by `cfg`, then by flags of the same dest; dicts
    merge key by key.  Each value takes its type and rule from its field of the
    config dataclass `cls`, or else from its default and RULES."""
    kinds, ranges = (field_types(cls), {f.name: f.metadata.get("range") for f in fields(cls)}) if cls else ({}, {})
    out = {}
    for key, default in defaults.items():
        name, value = f"{where}.{key}".lstrip("."), getattr(args, key, None)
        optional = isinstance(default, type)
        kind = kinds.get(key, default if optional else type(default))
        rule = kind if is_dataclass(kind) else ranges.get(key, RULES.get(key))
        if value is None:
            value = cfg.get(key, None if optional else default)
        if not isinstance(default, dict):
            with bad_input(name):
                out[key] = value = cast(kind, value, optional)
                if isinstance(rule, tuple) and value not in rule:
                    raise ValueError(f"expected {' or '.join(map(repr, rule))}, got {value!r}")
            if isinstance(rule, str):
                with bad_input(where):
                    check_ranges({key: (value, rule)})
        elif isinstance(value, dict) and set(value) <= set(default):
            out[key] = _settings(args, value, default, rule, name)
        else:
            raise ConfigError(f"{name}: expected an object with keys from {sorted(default)}, got {value!r}")
    return out


def _write_snapshot(args, settings: dict) -> Path:
    """Make the run directory and write its config.json, the command and its
    settings: replayed through --config, it reproduces the run."""
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    with open(out_dir / "config.json", "w") as f:
        json.dump({"command": args.command, **settings}, f, indent=2, sort_keys=True)
    return out_dir


def _load_rows(path) -> synth.Dataset:
    """The dataset at `path`; one with no rows is a ConfigError naming the file."""
    dataset = synth.load_dataset(path)
    if not len(dataset):
        raise ConfigError(f"{path}: no rows after the header")
    return dataset


# ---------------------------------------------------------------------------
# gen


def cmd_gen(args) -> int:
    settings, scene = _configure(args)
    mode, n_subjects, frames, seed = (settings[k] for k in ("mode", "subjects", "frames", "seed"))
    subjects = synth.make_subjects(n_subjects, seed, settings["kappa_range"], settings["noise_sigma"])
    out_dir = _write_snapshot(args, {**settings, "scene": asdict(scene)})

    stats = synth.generate_dataset(scene, subjects, frames, mode, out_dir / "dataset.jsonl")
    log.info("wrote %s", out_dir / "dataset.jsonl")
    print(f"dataset: {out_dir / 'dataset.jsonl'} ({n_subjects} subjects x {frames} frames, mode={mode})")
    if stats:
        print(f"{'attribute':>12}  {'mean':>8} {'target':>8}  {'std':>8} {'target':>8}")
        for name, s in stats.items():
            print(f"{name:>12}  {s['mean']:8.4f} {s['target_mean']:8.4f}  {s['std']:8.4f} {s['target_std']:8.4f}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# train


def cmd_train(args) -> int:
    settings, tc = _configure(args)
    if settings["data"] is None:
        raise ConfigError("train needs --data")
    folds = settings["folds"]
    dataset = _load_rows(settings["data"])
    # cross-subject folds: subject id modulo fold count picks the held-out fold;
    # every split is checked before the run directory is made
    splits = [dataset.subjects % folds == fold for fold in range(folds)]
    for fold, in_fold in enumerate(splits):
        if in_fold.all() or not in_fold.any():
            raise ConfigError(f"fold {fold}: empty split (subjects {dataset.subject_ids()})")
    out_dir = _write_snapshot(args, settings)

    if folds <= 0:
        params, history = model.train(tc, dataset)
        model.save_params(params, out_dir / "params.json")
        (out_dir / "history.csv").write_text(model.history_to_csv(history))
        last = history[-1] if history else None
        if last is not None:
            print(f"final: train_loss={last.train_loss:.4f} val_loss={last.val_loss:.4f} "
                  f"val_angular_deg={last.val_angular_deg:.3f}")
        return EXIT_OK

    for fold, in_fold in enumerate(splits):
        held = [sid for sid in dataset.subject_ids() if sid % folds == fold]
        fold_dir = out_dir / f"fold_{fold}"
        fold_dir.mkdir(parents=True, exist_ok=True)
        params, history = model.train(tc, dataset.subset(~in_fold))
        model.save_params(params, fold_dir / "params.json")
        (fold_dir / "history.csv").write_text(model.history_to_csv(history))
        report = metrics.evaluate(params, dataset.subset(in_fold))
        (fold_dir / "report.csv").write_text(report.to_csv())
        print(f"fold {fold}: held-out subjects {held}, "
              f"g_n mean {report.overall.gn_deg_mean:.3f} deg over {report.overall.n} samples")
    return EXIT_OK


# ---------------------------------------------------------------------------
# finetune


def cmd_finetune(args) -> int:
    settings, tc = _configure(args)
    params_path, calib_path, subject_filter = (settings[k] for k in ("params", "calib", "subject"))
    if params_path is None or calib_path is None:
        raise ConfigError("finetune needs --params and --calib")
    base = model.load_params(params_path)
    calib = _load_rows(calib_path)
    if subject_filter not in (None, *calib.subject_ids()):
        raise ConfigError(f"no calibration frames for subject {subject_filter} in {calib_path}")
    subjects = calib.subject_ids() if subject_filter is None else [subject_filter]
    out_dir = _write_snapshot(args, settings)

    for sid in subjects:
        rows = calib.by_subject(sid)
        used = rows[: math.ceil(len(rows) * tc.calibration_fraction)]
        if calib.mode == "calibration":
            # lens-fixation frames: labels come from the pixel derivation only
            used = synth.calibration_view(used, calib.intrinsics)
        tuned = model.fine_tune(base, tc, used, calib.intrinsics)
        path = out_dir / f"params_subject_{sid}.json"
        model.save_params(tuned, path)
        print(f"subject {sid}: fine-tuned on {len(used)}/{len(rows)} frames -> {path}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# eval


def cmd_eval(args) -> int:
    settings, _ = _configure(args)
    params_path, data_path, screen_path = (settings[k] for k in ("params", "data", "screen"))
    if params_path is None or data_path is None:
        raise ConfigError("eval needs --params and --data")
    # the transform is small: a bad one is reported before the params and rows load
    transform = None if screen_path is None else RigidTransform.load(screen_path)
    params = model.load_params(params_path)
    dataset = _load_rows(data_path)
    out_dir = _write_snapshot(args, settings)

    report = metrics.evaluate(params, dataset, screen_transform=transform)
    (out_dir / "report.csv").write_text(report.to_csv())
    print(report.table())
    return EXIT_OK


# ---------------------------------------------------------------------------
# convert


def _is_file_of(stream, st: os.stat_result) -> bool:
    """Whether `stream` reads the file whose stat is `st`; a stream without a
    file descriptor reads none."""
    try:
        return os.path.samestat(os.fstat(stream.fileno()), st)
    except OSError:   # io.UnsupportedOperation: no file descriptor
        return False


def cmd_convert(args) -> int:
    transform = RigidTransform.load(args.transform)
    with contextlib.ExitStack() as stack:
        stream_in = stack.enter_context(open(args.input, encoding="utf-8")) if args.input else sys.stdin
        # a byte that is not UTF-8 reads as a lone surrogate, and only "\n" ends a
        # line: a "\r" is JSON whitespace within a record, as in a dataset
        if isinstance(stream_in, io.TextIOWrapper):
            stream_in.reconfigure(errors="surrogateescape", newline="\n")
        # opening the output truncates it: a regular file must not be the input,
        # by any name or through standard input
        if args.output and os.path.isfile(args.output) and _is_file_of(stream_in, os.stat(args.output)):
            raise ConfigError(f"{args.output}: is the input file; convert would erase it before reading it")
        stream_out = stack.enter_context(open(args.output, "w")) if args.output else sys.stdout
        numbered = enumerate(stream_in)
        while block := list(itertools.islice(numbered, BLOCK_LINES)):
            stream_out.write(convert_lines(block, args.dir, transform))
    return EXIT_OK


# ---------------------------------------------------------------------------
# gradcheck


def cmd_gradcheck(args) -> int:
    # 0 restarts or rows would check nothing and still print OK
    check_ranges({"seed": (args.seed, SEED), "--restarts": (args.restarts, ">= 1"), "--batch": (args.batch, ">= 1")})
    worst = 0.0
    for restart in range(args.restarts):
        seed = args.seed + restart
        params = model.init_params(seed=seed)
        batch = model.make_gradcheck_batch(params, seed=seed, n=args.batch)
        rel = model.gradient_check(params, batch, model.LossWeights())
        worst = max(worst, rel)
        print(f"restart {restart}: max relative gradient error {rel:.3e}")
    print(f"overall max {worst:.3e} (tolerance {GRADCHECK_TOLERANCE:.0e})")
    if worst > GRADCHECK_TOLERANCE or not np.isfinite(worst):
        print("FAIL", file=sys.stderr)
        return EXIT_NUMERIC
    print("OK")
    return EXIT_OK


# ---------------------------------------------------------------------------


@functools.cache   # built once per process: parse_args leaves it as it was
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="gaze6d", description="desk-scale 6-DoF gaze pipeline")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a synthetic dataset")
    p.add_argument("--mode", choices=synth.MODES)
    p.add_argument("--subjects", type=int, help="number of subjects")
    p.add_argument("--frames", type=int, help="frames per subject")
    p.add_argument("--seed", type=int)
    p.add_argument("--kappa-range", dest="kappa_range", type=float,
                   help="per-subject bias drawn uniformly from +-range (radians)")
    p.add_argument("--noise-sigma", dest="noise_sigma", type=float)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("train", help="train the multi-task model")
    p.add_argument("--data", help="dataset JSONL")
    p.add_argument("--folds", type=int, help="cross-subject folds (0 = single run)")
    p.add_argument("--lr", type=float)
    p.add_argument("--batch-size", dest="batch_size", type=int)
    p.add_argument("--epochs", type=int)
    p.add_argument("--val-fraction", dest="val_fraction", type=float)
    _add_common_train_flags(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("finetune", help="fine-tune on calibration frames, per subject")
    p.add_argument("--params", help="trained params JSON")
    p.add_argument("--calib", help="calibration dataset JSONL (gen --mode calibration)")
    p.add_argument("--subject", type=int, help="only this subject id")
    p.add_argument("--fraction", dest="calibration_fraction", type=float,
                   help="fraction of calibration frames to use")
    p.add_argument("--finetune-lr", dest="finetune_lr", type=float)
    p.add_argument("--finetune-steps", dest="finetune_steps", type=int,
                   help="parameter updates per subject")
    p.add_argument("--finetune-batch", dest="finetune_batch", type=int)
    _add_common_train_flags(p)
    p.set_defaults(func=cmd_finetune)

    p = sub.add_parser("eval", help="evaluate params on a labeled dataset")
    p.add_argument("--params", help="params JSON")
    p.add_argument("--data", help="dataset JSONL")
    p.add_argument("--screen", help="camera-to-screen rigid transform JSON")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("convert", help="convert plane points between camera and screen frames")
    p.add_argument("--dir", choices=["pogz2pog", "pog2pogz"], required=True,
                   help="conversion direction")
    p.add_argument("--transform", required=True, help="camera-to-screen rigid transform JSON")
    p.add_argument("--input", help="JSONL input (default stdin)")
    p.add_argument("--output", help="JSONL output (default stdout)")
    p.set_defaults(func=cmd_convert)

    p = sub.add_parser("gradcheck", help="verify analytic gradients against finite differences")
    p.add_argument("--restarts", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--batch", type=int, default=8)
    p.set_defaults(func=cmd_gradcheck)

    for name in SETTINGS:  # a command with settings snapshots them in its run directory
        sub.choices[name].add_argument("--config", help="JSON config; flags override it")
        sub.choices[name].add_argument("--out", required=True, help="run directory")
    return parser


def _add_common_train_flags(p: argparse.ArgumentParser) -> None:
    """train's and finetune's shared flags; each dest names a TrainConfig or LossWeights field."""
    p.add_argument("--seed", type=int)
    for flag, task in [("gn", "g_n"), ("go", "g_o"), ("pogz", "pogz"), ("r", "r_on"), ("face", "face")]:
        p.add_argument(f"--lambda-{flag}", dest=task, type=float, help=f"{task} loss weight")


def main(argv=None) -> int:
    _setup_logging()
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_CONFIG if exc.code else EXIT_OK
    try:
        return args.func(args)
    except (ConfigError, GeometryError, OSError) as exc:
        # an OSError (a file that cannot be opened, read or made) names its file apart
        message = f"{exc.filename}: {exc.strerror}" if getattr(exc, "filename", None) else exc
        print(f"error: {message}", file=sys.stderr)
        return EXIT_CONFIG
    except TrainingDiverged as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
