"""Hash every output of a small, pinned gaze6d pipeline.

    PYTHONPATH=src python tests/pipeline_digest.py OUT

runs, in-process and inside the new directory OUT: gen of a training, an
evaluation and a calibration set; gen --config of a full, non-default scene;
a gen replayed from the training set's config.json; train; train --folds 2;
finetune; eval with and without --screen; and convert in both directions over
records that include NaN, zero-length, plane-parallel and unparsable lines,
some of them on each side of the first two seams between convert's input
blocks, values that are no JSON number, all integers, beyond the 1e9
bound or too large for a float, and, on each side of the first seam,
records of -0.0 values and records whose output holds a gaze component
below 1e-4 or a screen point beyond 1e16 mm, values whose text the number
writer takes from repr.  Then it writes predictions.jsonl, predict_6dof
of every evaluation row with the trained params, the tracking API's
answers.  It prints `relative_path sha256` for every file under OUT, sorted
by path.

Every path the commands see is relative to OUT, so the config.json
snapshots hold the same bytes wherever OUT is: run it against two checkouts
(`PYTHONPATH=<checkout>/src`) and diff the listings to find each output that
changed.

tests/pipeline_digest.golden holds the listing that every change must keep,
under `# ` lines naming the environment it was recorded in (header()).
Re-recording it is a deliberate change of answers:

    (PYTHONPATH=src:tests python -c 'import pipeline_digest as d; print(*d.header(), sep="\n")';
     PYTHONPATH=src python tests/pipeline_digest.py OUT) > tests/pipeline_digest.golden
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import platform
import sys
from pathlib import Path

import numpy as np
import orjson

from gaze6d import cli, load_dataset, load_params, predict_6dof
from gaze6d.jsonl import LINE_ENCODER

# the screen is tilted TILT rad about the camera's x-axis
TILT = 0.3
C, S = math.cos(TILT), math.sin(TILT)
SCREEN = {"R": [1.0, 0.0, 0.0, 0.0, C, -S, 0.0, S, C], "t": [10.0, 180.0, -25.0]}

NAN = '{"point": [1.0, NaN], "gaze": [0.0, 0.0, -1.0]}'
ZERO = json.dumps({"point": [3.0, 4.0], "gaze": [0.0, 0.0, 0.0]})
PARALLEL_TO_SCREEN = json.dumps({"point": [3.0, 4.0], "gaze": [0.0, C, -S]})   # a pogz2pog fault
PARALLEL_TO_CAMERA = json.dumps({"point": [3.0, 4.0], "gaze": [0.0, C, S]})    # a pog2pogz fault
UNPARSABLE = '{"point": [1.0, 2.0], "gaze": '
# values that the checks over a block's columns pass on to the one-record check
NOT_A_NUMBER = '{"point": [1.0, 2.0], "gaze": [true, 0.0, -1.0]}'
NUMERIC_STRING = '{"point": ["1", 2.0], "gaze": [0.0, 0.0, -1.0]}'
ALL_INTEGERS = '{"point": [12, -40], "gaze": [0, 1, -2]}'                # a valid record
TOO_LARGE_FOR_A_FLOAT = '{"point": [1.0, 2.0], "gaze": [0.0, 0.0, -1%s]}' % ("0" * 400)
BEYOND_THE_BOUND = '{"point": [1e10, 2.0], "gaze": [0.0, 0.0, -1.0]}'
# valid records whose output holds a value that orjson writes otherwise than
# repr: the screen turns about the camera's x-axis, so an output gaze keeps
# its input's x, here below 1e-4; a gaze 1e-8 from parallel to the screen
# meets it beyond 1e16 mm.  And one of -0.0 values, which both write alike
TINY_GAZE = json.dumps({"point": [12.5, -40.0], "gaze": [5e-05, 0.2, -0.97]})
NEGATIVE_ZERO = json.dumps({"point": [-0.0, 30.0], "gaze": [-0.0, -0.0, -1.0]})
FAR_POINT = json.dumps({"point": [0.0, 1e9], "gaze": [0.0, C, -S + 1e-8]})

# a scene with every key present and no value at its default, the intrinsics
# included; its seed is gen's, so the 4 here is replaced by --seed
SCENE = {"gaze_yaw": {"mean": 0.1, "std": 0.2, "lo": -0.5, "hi": 0.75},
         "gaze_pitch": {"mean": -0.05, "std": 0.15, "lo": -0.4, "hi": 0.6},
         "head_yaw": {"mean": 0.0, "std": 0.3, "lo": -1.0, "hi": 1.0},
         "head_pitch": {"mean": 0.02, "std": 0.1, "lo": -0.5, "hi": 0.5},
         "depth_lo": 450.0, "depth_hi": 750.0, "face_size_mm": 150.0,
         "intrinsics": {"focal_px": 700.0, "cx": 330.5, "cy": 250.0, "k_mm_per_px": 0.004,
                        "width": 660, "height": 500},
         "seed": 4}


def finite_line(k: int) -> str:
    return json.dumps({"point": [12.5 - 0.75 * k, -40.0 + 0.5 * k], "gaze": [0.1 - k / 1000, 0.2, -0.97]})


# convert reads its input in blocks of this many lines (jsonl.BLOCK_LINES,
# written out so that the script runs against checkouts from before blocks)
SEAM = 256
# one record per line of convert's input: finite records, then the faults;
# then finite records up to the first two block seams, with faults on each side,
# and records with values outside orjson's repr range on each side of the first.
# A value that is no JSON number sends the first block's values through the
# one-record check; the second block holds an all-integer record and one
# beyond the bound; the last line, an int too large for a float, ends the last
# block
CONVERT_LINES = [
    json.dumps({"point": [12.5, -40.0], "gaze": [0.1, 0.2, -0.97]}),
    json.dumps({"point": [-150.0, 75.25], "gaze": [-0.3, 0.05, -0.9]}),
    json.dumps({"point": [0.0, 0.0], "gaze": [0.2, -0.1, 0.8]}),          # behind the screen
    NAN,
    ZERO,
    json.dumps({"point": [3.0, 4.0], "gaze": [1.0, 0.0, 0.0]}),           # parallel to both planes
    PARALLEL_TO_SCREEN,
    PARALLEL_TO_CAMERA,
    UNPARSABLE,
    *(finite_line(k) for k in range(9, 100)),
    NOT_A_NUMBER, NUMERIC_STRING,
    *(finite_line(k) for k in range(102, SEAM - 4)),
    NEGATIVE_ZERO, TINY_GAZE, FAR_POINT,
    ZERO, PARALLEL_TO_SCREEN,                                            # the first seam
    NEGATIVE_ZERO, TINY_GAZE, FAR_POINT,
    *(finite_line(k) for k in range(SEAM + 4, SEAM + 100)),
    ALL_INTEGERS, BEYOND_THE_BOUND,
    *(finite_line(k) for k in range(SEAM + 102, 2 * SEAM - 1)),
    PARALLEL_TO_CAMERA, NAN,                                             # the second seam
    UNPARSABLE, finite_line(2 * SEAM + 2), finite_line(2 * SEAM + 3),
    TOO_LARGE_FOR_A_FLOAT,                                               # the end of input
]

PIPELINE = [
    ["gen", "--subjects", "3", "--frames", "40", "--seed", "1", "--out", "gen_train"],
    ["gen", "--subjects", "3", "--frames", "20", "--seed", "2", "--out", "gen_eval"],
    ["gen", "--mode", "calibration", "--subjects", "3", "--frames", "10", "--seed", "2", "--out", "gen_calib"],
    ["gen", "--config", "scene.json", "--subjects", "2", "--frames", "15", "--seed", "5", "--out", "gen_scene"],
    ["gen", "--config", "gen_train/config.json", "--out", "gen_replay"],
    ["train", "--data", "gen_train/dataset.jsonl", "--epochs", "4", "--batch-size", "16", "--seed", "3",
     "--out", "train"],
    ["train", "--data", "gen_train/dataset.jsonl", "--folds", "2", "--epochs", "2", "--batch-size", "16",
     "--out", "folds"],
    ["finetune", "--params", "train/params.json", "--calib", "gen_calib/dataset.jsonl", "--finetune-steps", "10",
     "--out", "tuned"],
    ["eval", "--params", "train/params.json", "--data", "gen_eval/dataset.jsonl", "--out", "eval_base"],
    ["eval", "--params", "train/params.json", "--data", "gen_eval/dataset.jsonl", "--screen", "screen.json",
     "--out", "eval_base_screen"],
    ["eval", "--params", "tuned/params_subject_0.json", "--data", "gen_eval/dataset.jsonl", "--out", "eval_tuned"],
    ["eval", "--params", "tuned/params_subject_0.json", "--data", "gen_eval/dataset.jsonl",
     "--screen", "screen.json", "--out", "eval_tuned_screen"],
    ["convert", "--dir", "pogz2pog", "--transform", "screen.json", "--input", "records.jsonl",
     "--output", "pogz2pog.jsonl"],
    ["convert", "--dir", "pog2pogz", "--transform", "screen.json", "--input", "records.jsonl",
     "--output", "pog2pogz.jsonl"],
]


def write_predictions(params_path, data_path, out_path) -> None:
    """predict_6dof of every row of a dataset, one JSONL line each: its
    origin, direction, pogz and pogz_geometric (null where the predicted ray
    is parallel to the camera plane), written by LINE_ENCODER."""
    params, ds = load_params(params_path), load_dataset(data_path)
    with open(out_path, "w") as f:
        for s in ds.samples:
            pred = predict_6dof(params, s.features, s.bbox, ds.intrinsics)
            geometric = None if pred.pogz_geometric is None else pred.pogz_geometric.xy.tolist()
            f.write(LINE_ENCODER.encode({"origin": pred.origin.xyz.tolist(), "direction": pred.direction.tolist(),
                                         "pogz": pred.pogz.xy.tolist(), "pogz_geometric": geometric}) + "\n")


def header() -> list[str]:
    """The environment the hashes may depend on, as the golden listing's
    `# ` lines: Python, numpy, orjson, the BLAS numpy was built with (this
    one may pick its kernels by CPU) and the CPU architecture."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return [f"# python {platform.python_version()}", f"# numpy {np.__version__}", f"# orjson {orjson.__version__}",
            f"# blas {blas['name']} {blas['version']}", f"# machine {platform.machine()}"]


def digest(out) -> dict[str, str]:
    """Run the pipeline inside the new directory `out`; {relative path: sha256}
    of every file under it.  A command that does not exit 0 is a RuntimeError."""
    out = Path(out)
    out.mkdir(parents=True)
    (out / "screen.json").write_text(json.dumps(SCREEN))
    (out / "scene.json").write_text(json.dumps({"scene": SCENE}))
    (out / "records.jsonl").write_text("".join(line + "\n" for line in CONVERT_LINES))
    cwd = os.getcwd()
    os.chdir(out)
    try:
        for argv in PIPELINE:
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(argv)
            if code != 0:
                raise RuntimeError(f"{' '.join(argv)} exited {code}")
        write_predictions("train/params.json", "gen_eval/dataset.jsonl", "predictions.jsonl")
    finally:
        os.chdir(cwd)
    files = {path.relative_to(out).as_posix(): path for path in out.rglob("*") if path.is_file()}
    return {name: hashlib.sha256(files[name].read_bytes()).hexdigest() for name in sorted(files)}


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 1:
        print("usage: pipeline_digest.py OUT", file=sys.stderr)
        return 2
    for path, sha in digest(args[0]).items():
        print(path, sha)
    return 0


if __name__ == "__main__":
    sys.exit(main())
