"""Command-line entry points.

Subcommands cover the whole pipeline: dataset generation, training,
per-subject fine-tuning, evaluation, plane-point conversion, and a gradient
self-check.  Every run directory gets a config.json snapshot; rerunning a
command from its snapshot reproduces the outputs byte for byte.

Exit codes: 0 success, 2 usage or config error, 3 numeric failure.
Set GAZE6D_LOG=DEBUG|INFO|WARNING for logging verbosity.
"""

from __future__ import annotations

import argparse
import io
import json
import logging
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import calibration, metrics, model, synth
from .errors import BAD_INPUT, ConfigError, GeometryError, TrainingDiverged, bad_input, describe
from .pogz import (FRAME_CAMERA_PLANE, FRAME_SCREEN_PLANE, PlanePoint,
                   RigidTransform, pog_to_pogz, pogz_to_pog)

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
# an optional setting, absent (None) unless given
_TRAIN_DEFAULTS = model.TrainConfig().to_dict()
SETTINGS = {
    "gen": {"mode": "general", "subjects": 12, "frames": 100, "seed": 0,
            "kappa_range": synth.KAPPA_RANGE, "noise_sigma": synth.NOISE_SIGMA, "scene": dict},
    "train": {"data": str, "folds": 0, **_TRAIN_DEFAULTS},
    "finetune": {"params": str, "calib": str, "subject": int, **_TRAIN_DEFAULTS},
    "eval": {"params": str, "data": str, "screen": str},
}
_KIND_NAMES = {str: "a string", int: "an integer id", dict: "an object"}


def _configure(args) -> dict:
    """The command's SETTINGS, overridden by the --config file, then by flags.
    Any fault in the file, an unknown key included, is a ConfigError naming
    the file, raised before the run directory is written."""
    table, cfg = SETTINGS[args.command], {}
    with bad_input(args.config):
        if args.config is not None:
            with open(args.config) as f:
                cfg = json.load(f)
            if not isinstance(cfg, dict):
                raise ConfigError(f"expected a JSON object, got {type(cfg).__name__}")
        unknown = sorted(set(cfg) - set(table) - {"command"})
        if unknown:
            raise ConfigError(f"unknown keys {unknown}; expected keys from {sorted({'command', *table})}")
        return _settings(args, cfg, table)


def _settings(args, cfg: dict, defaults: dict, where: str = "") -> dict:
    """`defaults`, overridden by `cfg`, then by flags of the same dest; dicts
    merge key by key.  Flags arrive typed, so a value that fails came from
    the config file."""
    out = {}
    for key, default in defaults.items():
        name, value = where + key, getattr(args, key, None)
        if value is None:
            value = cfg.get(key, None if isinstance(default, type) else default)
        if not isinstance(default, dict):
            with bad_input(name):
                out[key] = _cast(default, value)
        elif isinstance(value, dict) and set(value) <= set(default):
            out[key] = _settings(args, value, default, name + ".")
        else:
            raise ConfigError(f"{name}: expected an object with keys from {sorted(default)}, got {value!r}")
    return out


def _cast(default, value):
    """`value` as a setting with `default`.  A string or optional setting takes
    exactly its JSON type (an optional one also None); a number is cast, but
    from no bool, and an int from no fraction."""
    if isinstance(default, (type, str)):
        kind = default if isinstance(default, type) else str
        if type(value) is kind or (value is None and default is kind):
            return value
        raise ValueError(f"expected {_KIND_NAMES[kind]}, got {value!r}")
    if isinstance(value, bool):
        raise ValueError(f"expected a number, got {value!r}")
    if isinstance(default, int) and isinstance(value, float) and not value.is_integer():
        raise ValueError(f"expected an integer, got {value!r}")
    return type(default)(value)


def _write_snapshot(args, settings: dict, **more) -> Path:
    """Make the run directory and write its config.json, the command and its
    settings: replayed through --config, it reproduces the run."""
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    with open(out_dir / "config.json", "w") as f:
        json.dump({"command": args.command, **settings, **more}, f, indent=2, sort_keys=True)
    return out_dir


# ---------------------------------------------------------------------------
# gen


def cmd_gen(args) -> int:
    settings = _configure(args)
    mode, n_subjects, frames, seed = (settings[k] for k in ("mode", "subjects", "frames", "seed"))
    with bad_input(args.config), bad_input("scene"):  # a scene needs all its keys
        scene = (synth.SceneConfig(seed=seed) if settings["scene"] is None
                 else synth.SceneConfig.from_dict({**settings["scene"], "seed": seed}))
    out_dir = _write_snapshot(args, settings, scene=scene.to_dict())

    subjects = synth.make_subjects(n_subjects, seed, settings["kappa_range"], settings["noise_sigma"])
    stats = synth.generate_dataset(scene, subjects, frames, mode, out_dir / "dataset.jsonl")
    log.info("wrote %s", out_dir / "dataset.jsonl")

    if mode == "calibration":
        ds = synth.load_dataset(out_dir / "dataset.jsonl")
        calibration.write_calibration_set(ds.samples, scene.intrinsics,
                                          out_dir / "calibration_records.jsonl")

    print(f"dataset: {out_dir / 'dataset.jsonl'} ({n_subjects} subjects x {frames} frames, mode={mode})")
    if stats:
        print(f"{'attribute':>12}  {'mean':>8} {'target':>8}  {'std':>8} {'target':>8}")
        for name, s in stats.items():
            print(f"{name:>12}  {s['mean']:8.4f} {s['target_mean']:8.4f}  {s['std']:8.4f} {s['target_std']:8.4f}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# train


def cmd_train(args) -> int:
    settings = _configure(args)
    if settings["data"] is None:
        raise ConfigError("train needs --data")
    folds = settings["folds"]
    tc = model.TrainConfig.from_dict({k: settings[k] for k in _TRAIN_DEFAULTS})
    out_dir = _write_snapshot(args, settings)

    dataset = synth.load_dataset(settings["data"])
    if folds <= 0:
        params, history = model.train(tc, dataset)
        model.save_params(params, out_dir / "params.json")
        (out_dir / "history.csv").write_text(model.history_to_csv(history))
        last = history[-1] if history else None
        if last is not None:
            print(f"final: train_loss={last.train_loss:.4f} val_loss={last.val_loss:.4f} "
                  f"val_angular_deg={last.val_angular_deg:.3f}")
        return EXIT_OK

    # cross-subject folds: subject id modulo fold count picks the held-out fold
    for fold in range(folds):
        held = [sid for sid in dataset.subject_ids() if sid % folds == fold]
        train_rows = [s for s in dataset.samples if s.subject % folds != fold]
        test_rows = [s for s in dataset.samples if s.subject % folds == fold]
        if not train_rows or not test_rows:
            raise ConfigError(f"fold {fold}: empty split (subjects {dataset.subject_ids()})")
        fold_dir = out_dir / f"fold_{fold}"
        fold_dir.mkdir(parents=True, exist_ok=True)
        sub_ds = synth.Dataset(header=dataset.header, samples=train_rows)
        params, history = model.train(tc, sub_ds)
        model.save_params(params, fold_dir / "params.json")
        (fold_dir / "history.csv").write_text(model.history_to_csv(history))
        held_ds = synth.Dataset(header=dataset.header, samples=test_rows)
        report = metrics.evaluate(params, held_ds)
        (fold_dir / "report.csv").write_text(report.to_csv())
        print(f"fold {fold}: held-out subjects {held}, "
              f"g_n mean {report.overall.gn_deg_mean:.3f} deg over {report.overall.n} samples")
    return EXIT_OK


# ---------------------------------------------------------------------------
# finetune


def cmd_finetune(args) -> int:
    settings = _configure(args)
    params_path, calib_path, subject_filter = (settings[k] for k in ("params", "calib", "subject"))
    if params_path is None or calib_path is None:
        raise ConfigError("finetune needs --params and --calib")
    tc = model.TrainConfig.from_dict({k: settings[k] for k in _TRAIN_DEFAULTS})
    out_dir = _write_snapshot(args, settings)

    base = model.load_params(params_path)
    calib = synth.load_dataset(calib_path)
    subjects = calib.subject_ids() if subject_filter is None else [subject_filter]
    for sid in subjects:
        rows = calib.by_subject(sid)
        if not rows:
            raise ConfigError(f"no calibration frames for subject {sid} in {calib_path}")
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
    settings = _configure(args)
    params_path, data_path, screen_path = (settings[k] for k in ("params", "data", "screen"))
    if params_path is None or data_path is None:
        raise ConfigError("eval needs --params and --data")
    out_dir = _write_snapshot(args, settings)

    # the transform is small: a bad one is reported before the params and rows load
    transform = None if screen_path is None else RigidTransform.load(screen_path)
    params = model.load_params(params_path)
    dataset = synth.load_dataset(data_path)
    report = metrics.evaluate(params, dataset, screen_transform=transform)
    (out_dir / "report.csv").write_text(report.to_csv())
    print(report.table())
    return EXIT_OK


# ---------------------------------------------------------------------------
# convert


def _convert_record(rec: dict, direction: str, transform: RigidTransform) -> dict:
    point, gaze = rec["point"], rec["gaze"]
    if len(point) != 2 or len(gaze) != 3:
        raise ValueError(f"expected a 2-value point and a 3-value gaze, got {len(point)} and {len(gaze)}")
    x, y = float(point[0]), float(point[1])
    g = [float(gaze[0]), float(gaze[1]), float(gaze[2])]
    # json.loads accepts NaN and Infinity: check the plain floats before any arithmetic
    if not (math.isfinite(x) and math.isfinite(y) and all(map(math.isfinite, g))):
        raise ValueError(f"non-finite point {point} or gaze {gaze}")
    gaze = np.array(g)
    if direction == "pogz2pog":
        src = PlanePoint(x, y, frame=FRAME_CAMERA_PLANE)
        dst = pogz_to_pog(src, gaze, transform)
        out_gaze = transform.apply_direction(gaze)
    else:
        src = PlanePoint(x, y, frame=FRAME_SCREEN_PLANE)
        dst = pog_to_pogz(src, gaze, transform)
        out_gaze = transform.apply_inverse_direction(gaze)
    return {
        "point": [dst.x, dst.y],
        "gaze": [float(v) for v in out_gaze],
        "behind": dst.behind,
    }


def cmd_convert(args) -> int:
    transform = RigidTransform.load(args.transform)
    stream_in = open(args.input, encoding="utf-8") if args.input else sys.stdin
    if isinstance(stream_in, io.TextIOWrapper):  # a byte that is not UTF-8 reads as a lone surrogate
        stream_in.reconfigure(errors="surrogateescape")
    stream_out = open(args.output, "w") if args.output else sys.stdout
    try:
        for i, line in enumerate(stream_in):
            line = line.strip()
            if not line:
                continue
            try:
                line.encode()  # rejects a lone surrogate
                out = _convert_record(json.loads(line), args.dir, transform)
            except BAD_INPUT as exc:
                # keep streaming: emit an error record for the bad line
                out = {"error": describe(exc), "line": i}
            stream_out.write(json.dumps(out, sort_keys=True) + "\n")
    finally:
        if args.input:
            stream_in.close()
        if args.output:
            stream_out.close()
    return EXIT_OK


# ---------------------------------------------------------------------------
# gradcheck


def cmd_gradcheck(args) -> int:
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


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="gaze6d", description="desk-scale 6-DoF gaze pipeline")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a synthetic dataset")
    p.add_argument("--mode", choices=["general", "calibration"])
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
