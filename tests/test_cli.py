import gc
import io
import json
import os
import subprocess
import sys
import warnings
from dataclasses import asdict
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import oracles
from fuzz import FUZZ, json_values

import gaze6d
from gaze6d import cli
from gaze6d.calibration import derive_calibration_label
from gaze6d.easy_norm import Rotation3
from gaze6d.errors import ConfigError, RayParallelError, from_dict
from gaze6d.jsonl import BLOCK_LINES, LINE_ENCODER
from gaze6d.model import (LossWeights, TrainConfig, euler_from_vec, forward, init_params, load_params,
                          save_params, vec_from_euler)
from gaze6d.pogz import PlanePoint, RigidTransform, pogz_to_pog, record_lines
from gaze6d.synth import Subject, load_dataset


def run(*argv):
    return cli.main(list(argv))


def write_transform(path, R=None, t=(0.0, 0.0, 0.0)):
    R = np.eye(3) if R is None else np.asarray(R, dtype=float)
    RigidTransform(Rotation3(R), np.asarray(t, dtype=float)).save(path)
    return path


def test_gen_writes_dataset_and_snapshot(tmp_path, capsys):
    out = tmp_path / "run"
    assert run("gen", "--mode", "general", "--subjects", "2", "--frames", "5",
               "--seed", "1", "--out", str(out)) == 0
    assert (out / "dataset.jsonl").exists()
    snapshot = json.loads((out / "config.json").read_text())
    assert snapshot["command"] == "gen"
    assert snapshot["subjects"] == 2 and snapshot["frames"] == 5
    ds = load_dataset(out / "dataset.jsonl")
    assert len(ds) == 10
    assert "dataset:" in capsys.readouterr().out


def test_gen_deterministic_across_runs(tmp_path):
    for mode in ("general", "calibration"):
        a, b = tmp_path / mode / "a", tmp_path / mode / "b"
        run("gen", "--mode", mode, "--subjects", "2", "--frames", "8", "--seed", "3", "--out", str(a))
        run("gen", "--mode", mode, "--subjects", "2", "--frames", "8", "--seed", "3", "--out", str(b))
        assert (a / "dataset.jsonl").read_bytes() == (b / "dataset.jsonl").read_bytes()


def test_gen_rerun_from_snapshot_is_byte_identical(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    run("gen", "--subjects", "2", "--frames", "6", "--seed", "9",
        "--kappa-range", "0.05", "--out", str(a))
    assert run("gen", "--config", str(a / "config.json"), "--out", str(b)) == 0
    assert (a / "dataset.jsonl").read_bytes() == (b / "dataset.jsonl").read_bytes()
    assert (a / "config.json").read_bytes() == (b / "config.json").read_bytes()


def bits(a):
    return np.asarray(a, dtype=float).view(np.int64).tolist()


def test_gen_calibration_mode_writes_records(tmp_path):
    out = tmp_path / "calib"
    assert run("gen", "--mode", "calibration", "--subjects", "2", "--frames", "50",
               "--seed", "0", "--out", str(out)) == 0
    assert sorted(p.name for p in out.iterdir()) == ["config.json", "dataset.jsonl"]
    ds = load_dataset(out / "dataset.jsonl")
    assert ds.mode == "calibration" and len(ds) == 100
    assert ds.subjects.tolist() == [0] * 50 + [1] * 50
    # g_o follows from the box center alone, and g_n is the normalized optical axis, (+0.0, +0.0)
    for s in ds.samples:
        assert s.bbox.side > 0
        assert bits(s.g_o) == bits(euler_from_vec(derive_calibration_label(ds.intrinsics, s.bbox.center)))
        assert bits(s.g_n) == [0, 0]


def test_calibration_view_gives_the_labels_gen_wrote_bit_for_bit(tmp_path):
    out = tmp_path / "calib"
    assert run("gen", "--mode", "calibration", "--subjects", "3", "--frames", "20",
               "--seed", "5", "--out", str(out)) == 0
    ds = load_dataset(out / "dataset.jsonl")
    rows = gaze6d.calibration_view(ds.samples, ds.intrinsics)
    assert len(rows) == len(ds) == 60
    for s, row in zip(ds.samples, rows):
        assert bits(row.g_o) == bits(s.g_o) and bits(row.g_n) == bits(s.g_n) == [0, 0]


@pytest.mark.parametrize("mode, attributes", [
    ("general", ["gaze_yaw", "gaze_pitch", "head_yaw", "head_pitch"]),
    # a lens-fixation g_n is (0, 0) by construction: only the head pose is sampled
    ("calibration", ["head_yaw", "head_pitch"]),
])
def test_gen_prints_the_statistics_of_the_attributes_it_samples(tmp_path, capsys, mode, attributes):
    assert run("gen", "--mode", mode, "--subjects", "2", "--frames", "8", "--seed", "3",
               "--out", str(tmp_path / "run")) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("dataset: ") and lines[1].split() == ["attribute", "mean", "target", "std", "target"]
    assert [line.split()[0] for line in lines[2:]] == attributes


def test_gen_zero_frames(tmp_path):
    out = tmp_path / "empty"
    assert run("gen", "--frames", "0", "--subjects", "2", "--out", str(out)) == 0
    assert len((out / "dataset.jsonl").read_text().splitlines()) == 1


def test_gen_negative_counts_exit_2(tmp_path, capsys):
    for flag, message in (("--subjects", "subjects must be in [0, 2147483647], got -3"),
                          ("--frames", "frames must be in [0, 2147483647], got -3")):
        assert run("gen", flag, "-3", "--out", str(tmp_path / "g")) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "g").exists()


@pytest.mark.parametrize("setting", ["lr", "finetune_lr"])
@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
def test_a_non_finite_learning_rate_exits_2_before_the_snapshot(tmp_path, capsys, small_run_inputs,
                                                               setting, value):
    paths = small_run_inputs
    argv = {"lr": ["train", "--data", paths["data"], "--epochs", "1"],
            "finetune_lr": ["finetune", "--params", paths["params"], "--calib", paths["calib"]]}[setting]
    config = tmp_path / "config.json"
    config.write_text(json.dumps({setting: value}))   # NaN, Infinity or -Infinity
    flag = f"--{setting.replace('_', '-')}={value}"
    out = tmp_path / "run"
    literal = json.dumps(value)
    for via, message in (([flag], f"error: {setting} must be finite and >= 0, got "),
                         (["--config", str(config)], f"error: {config}: non-finite value {literal}\n")):
        capsys.readouterr()
        assert run(*argv, *via, "--out", str(out)) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(message) and captured.out == ""
        assert not out.exists()


@pytest.mark.parametrize("command, flag, value", [
    ("train", "--lambda-gn", "nan"), ("train", "--lambda-go", "inf"), ("train", "--lambda-face", "-1"),
    ("finetune", "--lambda-r", "-0.5"),
])
@pytest.mark.parametrize("via", ["flag", "config"])
def test_a_loss_weight_outside_its_range_exits_2_before_the_snapshot(tmp_path, capsys, small_run_inputs,
                                                                    command, flag, value, via):
    paths = small_run_inputs
    argv = {"train": ["--data", paths["data"], "--epochs", "1"],
            "finetune": ["--params", paths["params"], "--calib", paths["calib"]]}[command]
    task = {"--lambda-gn": "g_n", "--lambda-go": "g_o", "--lambda-face": "face", "--lambda-r": "r_on"}[flag]
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"weights": {task: float(value)}}))   # {"weights": {"g_n": NaN}} and so on
    out = tmp_path / "run"
    capsys.readouterr()
    assert run(command, *argv, *([f"{flag}={value}"] if via == "flag" else ["--config", str(config)]),
               "--out", str(out)) == 2
    captured = capsys.readouterr()
    if via == "flag":
        assert captured.err == f"error: weights: {task} must be finite and >= 0, got {float(value)}\n"
    elif value in ("nan", "inf"):
        assert captured.err == f"error: {config}: non-finite value {json.dumps(float(value))}\n"
    else:
        assert captured.err == f"error: {config}: weights: {task} must be finite and >= 0, got {float(value)}\n"
    assert captured.out == "" and not out.exists()


def test_usage_errors_exit_2(tmp_path):
    assert run("train", "--out", str(tmp_path / "t")) == 2          # missing --data
    assert run("nonsense") == 2                                     # unknown command
    assert run("train", "--data", str(tmp_path / "missing.jsonl"),
               "--out", str(tmp_path / "t2")) == 2                  # missing file
    assert run("gen", "--mode", "calibration", "--subjects", "1", "--frames", "1",
               "--seed", "0") == 2                                  # missing --out


def test_train_eval_flow(tmp_path, capsys):
    gen = tmp_path / "gen"
    run("gen", "--subjects", "2", "--frames", "20", "--seed", "4", "--out", str(gen))
    train = tmp_path / "train"
    assert run("train", "--data", str(gen / "dataset.jsonl"), "--epochs", "2",
               "--batch-size", "16", "--out", str(train)) == 0
    assert (train / "params.json").exists()
    history = (train / "history.csv").read_text().splitlines()
    assert history[0] == "epoch,train_loss,val_loss,val_angular_deg"
    assert len(history) == 3
    capsys.readouterr()

    ev = tmp_path / "eval"
    assert run("eval", "--params", str(train / "params.json"),
               "--data", str(gen / "dataset.jsonl"), "--out", str(ev)) == 0
    printed = capsys.readouterr().out
    assert "all" in printed
    assert "n/a" in printed  # no screen transform given
    report = (ev / "report.csv").read_text().splitlines()
    assert len(report) == 4  # header, 2 subjects, overall


def test_train_and_eval_reject_bad_rows_with_exit_2(tmp_path, capsys):
    gen = tmp_path / "gen"
    run("gen", "--subjects", "1", "--frames", "4", "--seed", "5", "--out", str(gen))
    train = tmp_path / "train"
    assert run("train", "--data", str(gen / "dataset.jsonl"), "--epochs", "1",
               "--out", str(train)) == 0
    lines = (gen / "dataset.jsonl").read_text().splitlines()
    row = json.loads(lines[3])
    bad_rows = {
        "no_bbox": ({k: v for k, v in row.items() if k != "bbox"}, "missing key 'bbox'"),
        "short": ({**row, "features": row["features"][:5]}, "features has 5 values, expected 7"),
        "nan": ({**row, "features": [float("nan")] + row["features"][1:]}, "non-finite value NaN"),
        "huge": ({**row, "features": [10**400] + row["features"][1:]},
                 f"features has an integer too large for a float, got {[10**400] + row['features'][1:]}\n"),
        # 12345.5 is written as 1e999, which parses to inf
        "inf": ({**row, "features": [12345.5] + row["features"][1:]}, "features must be finite, got [inf, "),
    }
    capsys.readouterr()
    for name, (bad, message) in bad_rows.items():
        data = tmp_path / f"{name}.jsonl"
        data.write_text("\n".join(lines[:3] + [json.dumps(bad).replace("12345.5", "1e999")] + lines[4:]) + "\n")
        for argv in (["train", "--data", str(data), "--epochs", "1"],
                     ["eval", "--params", str(train / "params.json"), "--data", str(data)]):
            assert run(*argv, "--out", str(tmp_path / name)) == 2, (name, argv[0])
            err = capsys.readouterr().err
            assert err.startswith(f"error: {data}:4: {message}") and "Traceback" not in err


def test_train_rerun_from_snapshot_identical(tmp_path):
    gen = tmp_path / "gen"
    run("gen", "--subjects", "2", "--frames", "15", "--seed", "5", "--out", str(gen))
    a, b = tmp_path / "ta", tmp_path / "tb"
    run("train", "--data", str(gen / "dataset.jsonl"), "--epochs", "2",
        "--batch-size", "8", "--seed", "7", "--out", str(a))
    assert run("train", "--config", str(a / "config.json"), "--out", str(b)) == 0
    assert (a / "params.json").read_bytes() == (b / "params.json").read_bytes()
    assert (a / "history.csv").read_bytes() == (b / "history.csv").read_bytes()


def write_huge_label_set(tmp_path):
    """A 6-row dataset whose fourth row (file line 4) has a finite face label
    of 1.7e308 mm per axis, whose loss term would overflow to inf."""
    gen = tmp_path / "gen"
    run("gen", "--subjects", "1", "--frames", "6", "--seed", "5", "--out", str(gen))
    lines = (gen / "dataset.jsonl").read_text().splitlines()
    lines[3] = json.dumps({**json.loads(lines[3]), "o_face": [1.7e308] * 3})
    (gen / "dataset.jsonl").write_text("\n".join(lines) + "\n")
    return gen / "dataset.jsonl"


def test_train_rejects_an_overflow_sized_label_at_load(tmp_path, capsys):
    data = write_huge_label_set(tmp_path)
    capsys.readouterr()
    out = tmp_path / "train"
    assert run("train", "--data", str(data), "--epochs", "1", "--batch-size", "8", "--out", str(out)) == 2
    assert capsys.readouterr().err == (f"error: {data}:4: o_face values must be at most 1e+09 in magnitude, "
                                       f"got [1.7e+308, 1.7e+308, 1.7e+308]\n")
    assert not (out / "params.json").exists()


def write_small_set(tmp_path):
    gen = tmp_path / "gen"
    run("gen", "--subjects", "1", "--frames", "6", "--seed", "5", "--out", str(gen))
    return gen / "dataset.jsonl"


# a loss weight of 1e308 makes the face task's weighted term overflow to inf
# on the first step; a loaded dataset cannot, as load_dataset bounds its values
HUGE_FACE_WEIGHT = ("--lambda-face", "1e308")


def test_train_stops_on_a_non_finite_loss_with_exit_3(tmp_path, capsys):
    data = write_small_set(tmp_path)
    capsys.readouterr()
    out = tmp_path / "train"
    assert run("train", "--data", str(data), "--epochs", "1",
               "--batch-size", "8", *HUGE_FACE_WEIGHT, "--out", str(out)) == 3
    assert (capsys.readouterr().err == "numeric failure: non-finite loss at epoch 0, step 0 "
                                       "(batch offset 0), task terms: face\n")
    assert not (out / "params.json").exists()


def test_non_finite_loss_exit_writes_only_the_failure_line(tmp_path):
    # a separate process, so that any numpy warning reaches the real stderr
    data = write_small_set(tmp_path)
    src = str(Path(gaze6d.__file__).parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run([sys.executable, "-m", "gaze6d.cli", "train", "--data", str(data),
                           "--epochs", "1", *HUGE_FACE_WEIGHT, "--out", str(tmp_path / "train")],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 3
    assert proc.stderr.startswith("numeric failure: non-finite loss at epoch 0, step 0 ")
    assert proc.stderr.count("\n") == 1 and proc.stderr.endswith("\n"), proc.stderr


def test_train_folds(tmp_path, capsys):
    gen = tmp_path / "gen"
    run("gen", "--subjects", "4", "--frames", "10", "--seed", "6", "--out", str(gen))
    out = tmp_path / "folds"
    assert run("train", "--data", str(gen / "dataset.jsonl"), "--folds", "2",
               "--epochs", "1", "--batch-size", "8", "--out", str(out)) == 0
    for fold in (0, 1):
        assert (out / f"fold_{fold}" / "params.json").exists()
        assert (out / f"fold_{fold}" / "report.csv").exists()
    printed = capsys.readouterr().out
    assert "held-out subjects [0, 2]" in printed
    assert "held-out subjects [1, 3]" in printed


def test_train_folds_checks_every_split_before_any_fold_trains(tmp_path, capsys):
    gen = tmp_path / "gen"
    run("gen", "--subjects", "2", "--frames", "10", "--seed", "6", "--out", str(gen))
    data = str(gen / "dataset.jsonl")
    for folds, empty in ((1, 0), (3, 2)):
        out = tmp_path / f"folds_{folds}"
        capsys.readouterr()
        assert run("train", "--data", data, "--folds", str(folds), "--epochs", "1",
                   "--batch-size", "8", "--out", str(out)) == 2
        assert capsys.readouterr().err == f"error: fold {empty}: empty split (subjects [0, 1])\n"
        assert not out.exists()
    out = tmp_path / "folds_2"
    assert run("train", "--data", data, "--folds", "2", "--epochs", "1", "--batch-size", "8", "--out", str(out)) == 0
    assert sorted(p.name for p in out.glob("fold_*")) == ["fold_0", "fold_1"]


@pytest.mark.parametrize("via", ["flag", "config"])
def test_train_negative_folds_exit_2_before_the_snapshot(tmp_path, capsys, small_run_inputs, via):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"folds": -2}))
    out = tmp_path / "run"
    argv = ["--folds=-2"] if via == "flag" else ["--config", str(config)]
    capsys.readouterr()
    assert run("train", "--data", small_run_inputs["data"], "--epochs", "1", *argv, "--out", str(out)) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {'' if via == 'flag' else f'{config}: '}folds must be in [0, 2147483647], got -2\n"
    assert captured.out == ""
    assert not out.exists()


def test_finetune_flow(tmp_path, capsys):
    calib = tmp_path / "calib"
    run("gen", "--mode", "calibration", "--subjects", "2", "--frames", "10",
        "--seed", "8", "--out", str(calib))
    gen = tmp_path / "gen"
    run("gen", "--subjects", "2", "--frames", "10", "--seed", "8", "--out", str(gen))
    train = tmp_path / "train"
    run("train", "--data", str(gen / "dataset.jsonl"), "--epochs", "1",
        "--batch-size", "8", "--out", str(train))
    capsys.readouterr()

    ft = tmp_path / "ft"
    assert run("finetune", "--params", str(train / "params.json"),
               "--calib", str(calib / "dataset.jsonl"),
               "--finetune-steps", "5", "--out", str(ft)) == 0
    assert (ft / "params_subject_0.json").exists()
    assert (ft / "params_subject_1.json").exists()
    assert "fine-tuned on 10/10 frames" in capsys.readouterr().out

    half = tmp_path / "half"
    assert run("finetune", "--params", str(train / "params.json"),
               "--calib", str(calib / "dataset.jsonl"), "--fraction", "0.5",
               "--subject", "1", "--finetune-steps", "5", "--out", str(half)) == 0
    assert not (half / "params_subject_0.json").exists()
    assert "fine-tuned on 5/10 frames" in capsys.readouterr().out


def test_finetune_and_eval_rerun_from_snapshot_identical(tmp_path):
    gen = tmp_path / "gen"
    run("gen", "--subjects", "2", "--frames", "12", "--seed", "8", "--out", str(gen))
    calib = tmp_path / "calib"
    run("gen", "--mode", "calibration", "--subjects", "2", "--frames", "10",
        "--seed", "8", "--out", str(calib))
    train = tmp_path / "train"
    run("train", "--data", str(gen / "dataset.jsonl"), "--epochs", "1",
        "--batch-size", "8", "--out", str(train))
    screen = write_transform(tmp_path / "screen.json", R=np.diag([1.0, -1.0, -1.0]), t=(0, 100, -20))
    a, b = tmp_path / "fa", tmp_path / "fb"
    run("finetune", "--params", str(train / "params.json"), "--calib", str(calib / "dataset.jsonl"),
        "--fraction", "0.5", "--finetune-steps", "7", "--finetune-lr", "1e-3",
        "--finetune-batch", "4", "--lambda-gn", "0", "--seed", "3", "--out", str(a))
    assert run("finetune", "--config", str(a / "config.json"), "--out", str(b)) == 0
    for name in ("config.json", "params_subject_0.json", "params_subject_1.json"):
        assert (a / name).read_bytes() == (b / name).read_bytes(), name
    a, b = tmp_path / "ea", tmp_path / "eb"
    run("eval", "--params", str(tmp_path / "fa" / "params_subject_1.json"),
        "--data", str(gen / "dataset.jsonl"), "--screen", str(screen), "--out", str(a))
    assert run("eval", "--config", str(a / "config.json"), "--out", str(b)) == 0
    for name in ("config.json", "report.csv"):
        assert (a / name).read_bytes() == (b / name).read_bytes(), name


@pytest.mark.parametrize("text, message", [
    ('{"epochs": "x"}', "epochs: invalid literal for int()"),
    ('{"weights": {"gaze": 1}}', "weights: expected an object with keys from"),
    ('{"weights": {"g_n": "heavy"}}', "weights.g_n: could not convert string to float"),
    ('{"weights": 2}', "weights: expected an object"),
    ('{"lr": null}', "lr: float() argument must be"),
    pytest.param('{"lr": 1' + "0" * 400 + "}", "lr: int too large to convert to float", id="huge-lr"),
    ('{"epochs": 3,', "Expecting property name"),
    ('{"epochs": 2.7}', "epochs: expected an integer, got 2.7"),
    ('{"epochs": true}', "epochs: expected a number, got True"),
    ('{"lr": true}', "lr: expected a number, got True"),
    ('[1, 2]', "expected a JSON object, got list"),
])
def test_config_file_errors_exit_2_and_name_the_file(tmp_path, capsys, text, message):
    gen = tmp_path / "gen"
    run("gen", "--subjects", "1", "--frames", "4", "--seed", "5", "--out", str(gen))
    config = tmp_path / "bad.json"
    config.write_text(text)
    capsys.readouterr()
    assert run("train", "--data", str(gen / "dataset.jsonl"), "--config", str(config),
               "--out", str(tmp_path / "t")) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {config}: ") and "Traceback" not in err
    assert message in err


def test_finetune_config_subject_must_be_an_id(tmp_path, capsys):
    config = tmp_path / "bad.json"
    for subject in ('"x"', "true"):   # a JSON true is no subject 1
        config.write_text(f'{{"subject": {subject}}}')
        assert run("finetune", "--params", str(tmp_path / "p.json"), "--calib", str(tmp_path / "c.jsonl"),
                   "--config", str(config), "--out", str(tmp_path / "f")) == 2
        assert capsys.readouterr().err.startswith(f"error: {config}: subject: expected an integer id")


def test_gen_config_errors_exit_2_and_name_the_file(tmp_path, capsys):
    for text, message in [('{"frames": "many"}', "frames: invalid literal"),
                          ('{"subjects": true}', "subjects: expected a number, got True"),
                          ('{"scene": {"face_size_mm": true}}', "scene.face_size_mm: expected a number, got True")]:
        config = tmp_path / "bad.json"
        config.write_text(text)
        assert run("gen", "--config", str(config), "--out", str(tmp_path / "g")) == 2
        assert capsys.readouterr().err.startswith(f"error: {config}: {message}")


def test_gen_that_fails_mid_run_leaves_no_dataset(tmp_path, capsys):
    """A face too large for the image finds no placement at some frame past
    the first block, whose rows are written by then: gen exits 2 and removes
    the dataset it cut short, which would otherwise load as a whole one."""
    config = tmp_path / "big_face.json"
    config.write_text('{"scene": {"face_size_mm": 540}}')
    out = tmp_path / "g"
    assert run("gen", "--config", str(config), "--seed", "3", "--subjects", "1", "--frames", "2000",
               "--out", str(out)) == 2
    assert capsys.readouterr().err.startswith("error: no face placement found in 1000 draws")
    assert sorted(p.name for p in out.iterdir()) == ["config.json"]


def setting_paths(table, prefix=()):
    """The key path of every setting in a SETTINGS table, the keys of nested
    objects at any depth included."""
    for key, default in table.items():
        yield prefix + (key,)
        if isinstance(default, dict):
            yield from setting_paths(default, prefix + (key,))


def nested(path, value):
    """The config object that sets the key path `path` to `value`."""
    for key in reversed(path):
        value = {key: value}
    return value


def has_its_type(setting, default) -> bool:
    """Whether a setting, or a nested object of them, has its SETTINGS type."""
    if isinstance(default, dict):
        return set(setting) == set(default) and all(has_its_type(setting[k], d) for k, d in default.items())
    if isinstance(default, type):   # an optional setting
        return setting is None or type(setting) is default
    return type(setting) is type(default)


PARSER = cli._build_parser()
# the scene's fields in a relation that a config dataclass checks: lo < hi,
# 0 < depth_lo < depth_hi, and the principal point inside the image
RELATED_FIELDS = {"lo", "hi", "depth_lo", "depth_hi", "cx", "cy", "width", "height"}


@FUZZ
@given(setting=st.sampled_from([(command, path) for command in sorted(cli.SETTINGS)
                                 for path in setting_paths(cli.SETTINGS[command])]),
       value=json_values)
def test_a_fuzzed_config_value_gives_typed_settings_or_names_the_file(fuzz_dir, setting, value):
    """The settings pass alone, so that no fuzzed value can start a run."""
    command, path = setting
    config = fuzz_dir / "config.json"
    config.write_text(json.dumps(nested(path, value)))
    args = PARSER.parse_args([command, "--config", str(config), "--out", str(fuzz_dir / "run")])
    try:
        settings, _ = cli._configure(args)
    except ConfigError as exc:
        # a fault names the file and the key path; a range fault the parent's
        # path, then the key; a fault in a relation between fields the parent's
        parent, key = ".".join(path[:-1]), path[-1]
        forms = [f"{'.'.join(path)}: ", f"{parent}: {key} must be " if parent else f"{key} must be "]
        if key in RELATED_FIELDS:
            forms.append(f"{parent}: ")
        assert str(exc).startswith(tuple(f"{config}: {form}" for form in forms)), (str(exc), path)
        return
    assert has_its_type(settings, cli.SETTINGS[command])
    got = settings
    for key in path:
        got = got[key]
    # taken as given: no bool for a number, no fraction truncated; a string may be a number
    assert not isinstance(value, bool) and (got == value or isinstance(value, str)), (got, value)


# the TrainConfig and LossWeights fields each command reads, by flag dest
WEIGHT_FIELDS = set(asdict(LossWeights()))
READS = {
    "train": {"lr", "batch_size", "epochs", "val_fraction", "seed"} | WEIGHT_FIELDS,
    "finetune": {"finetune_lr", "finetune_steps", "finetune_batch", "calibration_fraction",
                 "seed"} | WEIGHT_FIELDS,
}
OTHER_FLAGS = {
    "train": {"help", "data", "folds", "config", "out"},
    "finetune": {"help", "params", "calib", "subject", "config", "out"},
}


def subcommand_dests(command):
    sub = next(a for a in cli._build_parser()._actions if a.dest == "command")
    return {a.dest for a in sub.choices[command]._actions}


def test_consecutive_commands_each_see_only_their_own_flags_and_defaults(tmp_path, capsys, small_run_inputs):
    """main builds its parser once per process; each call still parses into a
    fresh namespace holding its own command's flags and defaults alone."""
    assert cli._build_parser() is cli._build_parser()
    t = write_transform(tmp_path / "t.json")
    src = tmp_path / "in.jsonl"
    src.write_text(json.dumps({"point": [7.0, 8.0], "gaze": [0.0, 0.0, -1.0]}) + "\n")
    data, params = small_run_inputs["data"], small_run_inputs["params"]
    assert run("eval", "--params", params, "--data", data, "--screen", str(t), "--out", str(tmp_path / "e1")) == 0
    assert run("convert", "--dir", "pog2pogz", "--transform", str(t), "--input", str(src),
               "--output", str(tmp_path / "out.jsonl")) == 0
    assert run("gen", "--subjects", "1", "--frames", "1", "--seed", "5", "--out", str(tmp_path / "g1")) == 0
    assert run("eval", "--params", params, "--data", data, "--out", str(tmp_path / "e2")) == 0
    assert run("gen", "--subjects", "1", "--frames", "1", "--out", str(tmp_path / "g2")) == 0
    snapshot = {name: json.loads((tmp_path / name / "config.json").read_text()) for name in ("e1", "e2", "g1", "g2")}
    assert snapshot["e1"]["screen"] == str(t) and snapshot["e2"]["screen"] is None
    assert (snapshot["g1"]["seed"], snapshot["g2"]["seed"]) == (5, cli.SETTINGS["gen"]["seed"])
    for name, command in (("e1", "eval"), ("e2", "eval"), ("g1", "gen"), ("g2", "gen")):
        assert set(snapshot[name]) == {"command", *cli.SETTINGS[command]}
    parsed = {argv[0]: vars(PARSER.parse_args(argv)) for argv in (
        ["eval", "--params", "p", "--screen", "s", "--out", "o"],
        ["convert", "--dir", "pogz2pog", "--transform", "t"],
        ["gen", "--out", "o"])}
    assert parsed["eval"].keys() == {"command", "func", "params", "data", "screen", "config", "out"}
    assert parsed["convert"] == {"command": "convert", "func": cli.cmd_convert, "dir": "pogz2pog",
                                 "transform": "t", "input": None, "output": None}
    assert parsed["gen"]["out"] == "o" and "screen" not in parsed["gen"] and "dir" not in parsed["gen"]


@pytest.mark.parametrize("command", sorted(READS))
def test_train_flags_are_the_fields_the_command_reads(command):
    assert READS[command] <= set(asdict(TrainConfig())) | WEIGHT_FIELDS
    assert subcommand_dests(command) - OTHER_FLAGS[command] == READS[command]


def test_reads_table_matches_what_train_and_fine_tune_read(tmp_path):
    # the table above must be what the model reads, or the guard guards nothing
    class Recorder:
        def __init__(self, cfg, read):
            self._cfg, self._read = cfg, read

        def __getattr__(self, name):
            # LossWeights.array is every weight, built once from the fields
            self._read.update(WEIGHT_FIELDS if name == "array" else {name})
            value = getattr(self._cfg, name)
            return Recorder(value, self._read) if name == "weights" else value

    gen = tmp_path / "gen"
    run("gen", "--subjects", "1", "--frames", "6", "--seed", "5", "--out", str(gen))
    ds = load_dataset(gen / "dataset.jsonl")
    cfg = TrainConfig(epochs=1, finetune_steps=1)
    read = {"train": set(), "finetune": set()}
    params, _ = cli.model.train(Recorder(cfg, read["train"]), ds)
    cli.model.fine_tune(params, Recorder(cfg, read["finetune"]), ds.samples, ds.intrinsics)
    read["finetune"].add("calibration_fraction")   # cmd_finetune reads it itself
    for command in READS:
        assert read[command] - {"weights"} == READS[command], command


@pytest.mark.parametrize("command, flag, value", [
    ("train", "--finetune-lr", "0.5"), ("train", "--finetune-steps", "5"),
    ("train", "--finetune-batch", "5"), ("finetune", "--lr", "0.5"),
    ("finetune", "--batch-size", "5"), ("finetune", "--epochs", "5"),
    ("finetune", "--val-fraction", "0.5"),
])
def test_flags_a_command_does_not_read_exit_2(tmp_path, command, flag, value):
    run("gen", "--mode", "calibration", "--subjects", "1", "--frames", "4", "--out", str(tmp_path / "gen"))
    data = str(tmp_path / "gen" / "dataset.jsonl")
    run("train", "--data", data, "--epochs", "1", "--out", str(tmp_path / "train"))
    # everything else is valid, so only the flag can make the command fail
    argv = {"train": ["--data", data, "--epochs", "1"],
            "finetune": ["--params", str(tmp_path / "train" / "params.json"), "--calib", data,
                         "--finetune-steps", "1"]}[command]
    assert run(command, *argv, "--out", str(tmp_path / "ok")) == 0
    assert run(command, *argv, flag, value, "--out", str(tmp_path / "x")) == 2


def test_eval_with_screen_transform(tmp_path, capsys):
    gen = tmp_path / "gen"
    run("gen", "--subjects", "1", "--frames", "10", "--seed", "2", "--out", str(gen))
    train = tmp_path / "train"
    run("train", "--data", str(gen / "dataset.jsonl"), "--epochs", "1",
        "--batch-size", "8", "--out", str(train))
    transform = write_transform(tmp_path / "screen.json",
                                R=np.diag([1.0, -1.0, -1.0]), t=(0, 100, -20))
    capsys.readouterr()
    out = tmp_path / "eval"
    assert run("eval", "--params", str(train / "params.json"),
               "--data", str(gen / "dataset.jsonl"),
               "--screen", str(transform), "--out", str(out)) == 0
    assert "n/a" not in capsys.readouterr().out
    last = (out / "report.csv").read_text().splitlines()[-1]
    assert not last.endswith(",")  # PoG column populated


def test_eval_report_matches_the_per_row_reference_byte_for_byte(tmp_path, capsys):
    gen = tmp_path / "gen"
    run("gen", "--subjects", "3", "--frames", "20", "--seed", "6", "--out", str(gen))
    data = gen / "dataset.jsonl"
    save_params(init_params(seed=1), tmp_path / "params.json")
    params = load_params(tmp_path / "params.json")
    _, samples, _ = oracles.reference_load_dataset(data)
    intr = load_dataset(data).intrinsics
    # a screen plane parallel to row 4's true gaze and to row 11's predicted gaze
    true_dir = vec_from_euler(samples[4].g_o)
    pred_dir = vec_from_euler(forward(params, samples[11].features).g_o)
    z = np.cross(true_dir, pred_dir)
    z /= np.linalg.norm(z)
    screen = write_transform(tmp_path / "screen.json", R=[true_dir, np.cross(z, true_dir), z],
                             t=(10.0, 200.0, -30.0))
    transform = RigidTransform.load(screen)
    for row, direction in ((samples[4], true_dir), (samples[11], pred_dir)):
        with pytest.raises(RayParallelError):
            pogz_to_pog(PlanePoint(row.pogz[0], row.pogz[1]), direction, transform)

    for flags, screen_transform in (([], None), (["--screen", str(screen)], transform)):
        out = tmp_path / f"eval_{len(flags)}"
        assert run("eval", "--params", str(tmp_path / "params.json"), "--data", str(data),
                   *flags, "--out", str(out)) == 0
        want = oracles.reference_evaluate(params, samples, intr, screen_transform).to_csv()
        assert (out / "report.csv").read_text() == want
    assert not want.splitlines()[-1].endswith(",")   # the PoG column is filled
    capsys.readouterr()


def test_eval_and_finetune_reject_bad_params_with_exit_2(tmp_path, capsys):
    gen = tmp_path / "gen"
    run("gen", "--subjects", "1", "--frames", "5", "--seed", "2", "--out", str(gen))
    calib = tmp_path / "calib"
    run("gen", "--mode", "calibration", "--subjects", "1", "--frames", "5",
        "--seed", "2", "--out", str(calib))
    # arrays 32 wide under a model_config that says 16
    narrow = tmp_path / "narrow.json"
    save_params(init_params(seed=0), narrow)
    doc = json.loads(narrow.read_text())
    doc["model_config"]["hidden"] = 16
    narrow.write_text(json.dumps(doc))
    # a NaN weight, as the bytes of a format-2 payload and as a format-1 NaN literal
    params = init_params(seed=0)
    params.arrays["fuse_w"][1, 2] = np.nan
    nan, nan_format1 = tmp_path / "nan.json", tmp_path / "nan_format1.json"
    save_params(params, nan)
    oracles.params_json_per_float(params, nan_format1)
    not_json = tmp_path / "not_json.json"
    not_json.write_text("not json")
    huge = tmp_path / "huge.json"   # format 1, whose values are JSON numbers
    oracles.params_json_per_float(init_params(seed=0), huge)
    doc = json.loads(huge.read_text())
    doc["arrays"]["fuse_w"]["data"][0] = 10**400   # valid JSON, too large for a float
    huge.write_text(json.dumps(doc))
    # format 1 with values that numpy would take: a numeric string and a bool
    not_numbers = tmp_path / "not_numbers.json"
    doc["arrays"]["fuse_w"]["data"][0] = 0.0
    doc["arrays"]["head_gn_b"]["data"] = ["0.5", True]
    not_numbers.write_text(json.dumps(doc))
    # a version that equals 1 but is no JSON integer
    bool_version = tmp_path / "bool_version.json"
    oracles.params_json_per_float(init_params(seed=0), bool_version)
    bool_version.write_text(json.dumps({**json.loads(bool_version.read_text()), "format_version": True}))
    assert [json.loads(p.read_text())["format_version"] for p in (nan, nan_format1, huge)] == [2, 1, 1]
    capsys.readouterr()

    messages = {narrow: "model_config hidden is 16", nan: "array fuse_w has non-finite values",
                nan_format1: "non-finite value NaN\n", not_json: "Expecting value",
                huge: "unsupported params format 1\n", not_numbers: "unsupported params format 1\n",
                bool_version: "unsupported params format True"}
    for bad, message in messages.items():
        assert run("eval", "--params", str(bad), "--data", str(gen / "dataset.jsonl"),
                   "--out", str(tmp_path / "eval")) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {bad}: {message}") and "Traceback" not in err
        assert run("finetune", "--params", str(bad), "--calib", str(calib / "dataset.jsonl"),
                   "--out", str(tmp_path / "ft")) == 2
        assert capsys.readouterr().err.startswith(f"error: {bad}: ")
    assert not (tmp_path / "ft" / "params_subject_0.json").exists()


def test_a_params_file_of_another_architecture_exits_2(tmp_path, capsys, small_run_inputs):
    # consistent in itself: first encoder layers 16 wide under a model_config.hidden of 16
    rng = np.random.default_rng(16)
    arrays = {}
    for name, array in init_params().arrays.items():
        shape = list(array.shape)
        if name.endswith(("1_w", "1_b")):
            shape[0] = 16
        elif name.endswith("2_w"):
            shape[1] = 16
        arrays[name] = rng.normal(0.0, 0.1, size=shape)
    path = tmp_path / "hidden16.json"
    oracles.params_json_base64(SimpleNamespace(arrays=arrays), path, hidden=16)
    message = f"{path}: model_config hidden is 16; the model's is 32"
    with pytest.raises(ConfigError) as info:
        load_params(path)
    assert str(info.value) == message
    paths = small_run_inputs
    for command, rows in (("eval", ["--data", paths["data"]]), ("finetune", ["--calib", paths["calib"]])):
        assert run(command, "--params", str(path), *rows, "--out", str(tmp_path / command)) == 2
        assert capsys.readouterr().err == f"error: {message}\n"


@pytest.fixture(scope="module")
def small_run_inputs(tmp_path_factory):
    """A 3-row dataset, a 2-row calibration set of the same subject, and
    untrained params; each command runs on them in well under a second."""
    root = tmp_path_factory.mktemp("inputs")
    run("gen", "--subjects", "1", "--frames", "3", "--seed", "2", "--out", str(root / "gen"))
    run("gen", "--mode", "calibration", "--subjects", "1", "--frames", "2", "--seed", "2",
        "--out", str(root / "calib"))
    save_params(init_params(seed=0), root / "params.json")
    return {"data": str(root / "gen" / "dataset.jsonl"),
            "calib": str(root / "calib" / "dataset.jsonl"),
            "params": str(root / "params.json")}


def faulty_inputs(root, paths) -> dict:
    """case -> (argv, the start of its error), one input at fault in each."""
    header_only, sheared, missing = root / "header_only.jsonl", root / "sheared.json", root / "missing.json"
    header_only.write_text('{"schema_version": 1}\n')
    sheared.write_text(json.dumps({"R": [1, 0, 0, 0, 1, 0, 0, 0.5, 1], "t": [0, 0, 0]}))
    run("gen", "--subjects", "0", "--out", str(root / "empty"))
    run("gen", "--mode", "calibration", "--subjects", "2", "--frames", "2", "--out", str(root / "two"))
    empty, two = root / "empty" / "dataset.jsonl", root / "two" / "dataset.jsonl"
    # params beyond the value bound, and params with a NaN literal in a key load_params ignores
    huge, note = root / "huge.json", root / "note.json"
    params = init_params(seed=0)
    params.arrays["fuse_w"][0, 0] = 1e300
    save_params(params, huge)
    note.write_text(Path(paths["params"]).read_text()[:-1] + ', "note": NaN}')
    return {
        "train_header_only": (["train", "--data", header_only], f"{header_only}:1: "),
        "eval_sheared_screen": (["eval", "--params", paths["params"], "--data", paths["data"],
                                 "--screen", sheared], f"{sheared}: "),
        "finetune_missing_params": (["finetune", "--params", missing, "--calib", paths["calib"]], f"{missing}: "),
        "finetune_absent_subject": (["finetune", "--params", paths["params"], "--calib", two, "--subject", "7"],
                                    f"no calibration frames for subject 7 in {two}"),
        "train_no_rows": (["train", "--data", empty], f"{empty}: no rows after the header\n"),
        "eval_no_rows": (["eval", "--params", paths["params"], "--data", empty], f"{empty}: no rows after the header\n"),
        "finetune_no_rows": (["finetune", "--params", paths["params"], "--calib", empty],
                             f"{empty}: no rows after the header\n"),
        "eval_huge_params": (["eval", "--params", huge, "--data", paths["data"]],
                             f"{huge}: array fuse_w values must be at most 1e+09 in magnitude, got 1e+300\n"),
        "eval_nan_in_params": (["eval", "--params", note, "--data", paths["data"]], f"{note}: non-finite value NaN\n"),
    }


@pytest.mark.parametrize("case", ["train_header_only", "eval_sheared_screen", "finetune_missing_params",
                                  "finetune_absent_subject", "train_no_rows", "eval_no_rows",
                                  "finetune_no_rows", "eval_huge_params", "eval_nan_in_params"])
def test_inputs_are_read_before_the_snapshot(tmp_path, capsys, small_run_inputs, case):
    argv, where = faulty_inputs(tmp_path, small_run_inputs)[case]
    out = tmp_path / "run"
    capsys.readouterr()
    assert run(*map(str, argv), "--out", str(out)) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: {where}") and captured.err.count("\n") == 1, captured.err
    assert captured.out == "" and not out.exists()


@pytest.mark.parametrize("command", ["gen", "train", "finetune", "eval"])
def test_unknown_config_keys_exit_2_before_the_snapshot(tmp_path, capsys, small_run_inputs, command):
    paths = small_run_inputs
    argv = {"gen": ["--subjects", "1", "--frames", "2"],
            "train": ["--data", paths["data"], "--epochs", "1"],
            "finetune": ["--params", paths["params"], "--calib", paths["calib"],
                         "--finetune-steps", "1"],
            "eval": ["--params", paths["params"], "--data", paths["data"]]}[command]
    first, replay, bad_run = tmp_path / "first", tmp_path / "replay", tmp_path / "bad"
    assert run(command, *argv, "--out", str(first)) == 0
    snapshot = json.loads((first / "config.json").read_text())
    assert run(command, "--config", str(first / "config.json"), "--out", str(replay)) == 0
    assert (replay / "config.json").read_bytes() == (first / "config.json").read_bytes()

    config = tmp_path / "typo.json"
    config.write_text(json.dumps({**snapshot, "epoch": 2, "fraction": 0.5}))
    capsys.readouterr()
    assert run(command, "--config", str(config), "--out", str(bad_run)) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {config}: unknown keys ['epoch', 'fraction']")
    assert "Traceback" not in err
    assert not (bad_run / "config.json").exists()


@pytest.mark.parametrize("command, via", [("gen", "flag"), ("train", "flag"), ("finetune", "flag"),
                                          ("gradcheck", "flag"), ("gen", "config"), ("train", "config"),
                                          ("finetune", "config")])
def test_a_negative_seed_exits_2_before_the_snapshot(tmp_path, capsys, small_run_inputs, command, via):
    paths = small_run_inputs
    argv = {"gen": ["--subjects", "1", "--frames", "2"],
            "train": ["--data", paths["data"], "--epochs", "1"],
            "finetune": ["--params", paths["params"], "--calib", paths["calib"], "--finetune-steps", "1"],
            "gradcheck": ["--restarts", "1"]}[command]
    if via == "flag":
        argv += ["--seed=-1"]
    else:
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"seed": -1}))
        argv += ["--config", str(config)]
    out = tmp_path / "run"
    capsys.readouterr()
    assert run(command, *argv, *(["--out", str(out)] if command != "gradcheck" else [])) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {'' if via == 'flag' else f'{config}: '}seed must be >= 0, got -1\n"
    assert captured.out == ""
    assert not out.exists()


@pytest.mark.parametrize("flag, value, message", [
    ("--kappa-range", "nan", "kappa_range must be in [0, 0.15], got nan"),
    ("--kappa-range", "1e308", "kappa_range must be in [0, 0.15], got 1e+308"),
    ("--kappa-range", "-inf", "kappa_range must be in [0, 0.15], got -inf"),
    ("--kappa-range", "0.1500001", "kappa_range must be in [0, 0.15], got 0.1500001"),
    ("--kappa-range", "-0.01", "kappa_range must be in [0, 0.15], got -0.01"),
    ("--noise-sigma", "inf", "noise_sigma must be finite and >= 0, got inf"),
    ("--noise-sigma", "nan", "noise_sigma must be finite and >= 0, got nan"),
    ("--noise-sigma", "-1e-9", "noise_sigma must be finite and >= 0, got -1e-09"),
])
def test_gen_takes_only_a_finite_kappa_range_and_noise_sigma_in_range(tmp_path, capsys, monkeypatch,
                                                                      flag, value, message):
    def no_draw(*args, **kwargs):
        raise AssertionError("a random stream was made")

    out = tmp_path / "run"
    with monkeypatch.context() as patch:
        patch.setattr(np.random, "SeedSequence", no_draw)
        assert run("gen", "--subjects", "2", "--frames", "2", f"{flag}={value}", "--out", str(out)) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n" and captured.out == ""
    assert not out.exists()
    # the same value through --config, where JSON spells NaN and the infinities
    config = tmp_path / "config.json"
    config.write_text(json.dumps({flag[2:].replace("-", "_"): float(value)}))
    assert run("gen", "--subjects", "2", "--frames", "2", "--config", str(config), "--out", str(out)) == 2
    literal = json.dumps(float(value))   # NaN, Infinity and -Infinity are refused as the file is parsed
    assert capsys.readouterr().err == (f"error: {config}: non-finite value {literal}\n"
                                       if value in ("nan", "inf", "-inf") else f"error: {config}: {message}\n")
    assert not out.exists()


def test_gen_takes_the_ends_of_the_kappa_and_noise_ranges(tmp_path):
    for kappa, sigma in (("0", "0"), ("0.15", "1e3")):
        out = tmp_path / f"run_{kappa}"
        assert run("gen", "--subjects", "3", "--frames", "2", "--kappa-range", kappa,
                   "--noise-sigma", sigma, "--out", str(out)) == 0
        subjects = [from_dict(Subject, d, "subject") for d in load_dataset(out / "dataset.jsonl").header["subjects"]]
        assert all(abs(s.kappa_yaw) <= float(kappa) and s.noise_sigma == float(sigma) for s in subjects)


EYE9 = [1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0]


@pytest.mark.parametrize("command", ["convert", "eval"])
@pytest.mark.parametrize("text, message", [
    pytest.param(json.dumps({"R": EYE9[:8], "t": [0, 0, 0]}),
                 "R has 8 values, expected 9\n", id="short-R"),
    pytest.param(json.dumps({"R": EYE9}), "missing key 't'", id="no-t"),
    pytest.param(json.dumps({"R": [1.0, 0.5] + EYE9[2:], "t": [0, 0, 0]}),
                 "matrix is not orthonormal", id="skewed-R"),
    pytest.param(json.dumps({"R": EYE9, "t": [0.0, float("nan"), 0.0]}),
                 "non-finite value NaN\n", id="nan-t"),
    pytest.param(json.dumps({"R": [float("inf")] + EYE9[1:], "t": [0, 0, 0]}),
                 "non-finite value Infinity\n", id="inf-R"),
    pytest.param(json.dumps({"R": EYE9, "t": [0, 0]}),
                 "t has 2 values, expected 3\n", id="short-t"),
    pytest.param(json.dumps({"R": [10**400] + EYE9[1:], "t": [0, 0, 0]}),
                 f"R has an integer too large for a float, got {[10**400] + EYE9[1:]}\n", id="huge-R"),
    pytest.param(json.dumps({"R": EYE9, "t": [0, 0, 1.7e308]}),
                 "t values must be at most 1e+09 in magnitude, got [0.0, 0.0, 1.7e+308]\n", id="t-beyond-bound"),
    pytest.param("[1, 2]", "list indices must be integers", id="not-an-object"),
    pytest.param('{"R": ', "Expecting value", id="not-json"),
])
def test_transform_file_errors_exit_2_and_name_the_file(tmp_path, capsys, small_run_inputs,
                                                        command, text, message):
    transform = tmp_path / "screen.json"
    transform.write_text(text)
    records = tmp_path / "points.jsonl"
    records.write_text(json.dumps({"point": [1.0, 2.0], "gaze": [0.0, 0.0, -1.0]}) + "\n")
    argv = {"convert": ["convert", "--dir", "pogz2pog", "--transform", str(transform),
                        "--input", str(records), "--output", str(tmp_path / "out.jsonl")],
            "eval": ["eval", "--params", small_run_inputs["params"], "--data",
                     small_run_inputs["data"], "--screen", str(transform),
                     "--out", str(tmp_path / "eval")]}[command]
    capsys.readouterr()
    assert run(*argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {transform}: {message}") and "Traceback" not in err


def test_eval_reports_a_bad_transform_before_loading_params_or_rows(tmp_path, capsys, monkeypatch,
                                                                   small_run_inputs):
    transform = tmp_path / "screen.json"
    transform.write_text(json.dumps({"R": EYE9[:8], "t": [0, 0, 0]}))
    params = tmp_path / "params.json"
    params.write_text('{"format_version": 1')   # not JSON either

    def no_load(path):
        raise AssertionError(f"load_dataset({path}) called")

    monkeypatch.setattr(cli.synth, "load_dataset", no_load)
    capsys.readouterr()
    assert run("eval", "--params", str(params), "--data", small_run_inputs["data"],
               "--screen", str(transform), "--out", str(tmp_path / "eval")) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {transform}: R has 8 values, expected 9\n") and "Traceback" not in err


@pytest.mark.parametrize("key, literal", [("seed", "NaN"), ("n_per_subject", "Infinity")])
def test_eval_refuses_a_header_with_a_non_finite_literal(tmp_path, capsys, small_run_inputs, key, literal):
    lines = Path(small_run_inputs["data"]).read_text().splitlines()
    lines[0] = json.dumps({**json.loads(lines[0]), key: 12345.5}).replace("12345.5", literal)
    data = tmp_path / "d.jsonl"
    data.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert run("eval", "--params", small_run_inputs["params"], "--data", str(data),
               "--out", str(tmp_path / "eval")) == 2
    assert capsys.readouterr().err == f"error: {data}:1: non-finite value {literal}\n"


def with_a_bad_row(data, path, line_no, bad):
    """`data`'s header and rows repeated to 40 lines, line `line_no` (1-based)
    replaced by the bytes `bad`; past the first 8 KiB, where a text-mode read
    decodes in chunks."""
    lines = Path(data).read_bytes().splitlines()
    lines = lines[:1] + [lines[1 + i % (len(lines) - 1)] for i in range(39)]
    lines[line_no - 1] = bad
    path.write_bytes(b"\n".join(lines) + b"\n")
    assert len(b"\n".join(lines[:line_no - 1])) > 8192 or line_no == 1
    return path


NOT_UTF8_ROW = b'{"subject": 0, "note": "\xff"}'
DEEP = b"[" * 100_000


# (argv, the name the error starts with, whether the --config file is at fault);
# t is the test's tmp_path holding a directory "dir", a file "file" and the
# config "bad.json", p the small_run_inputs
HOLES = {
    "dir-as-data": lambda t, p: (["train", "--data", t / "dir"], t / "dir", False),
    "dir-as-params": lambda t, p: (["eval", "--params", t / "dir", "--data", p["data"]], t / "dir", False),
    "dir-as-screen": lambda t, p: (["eval", "--params", p["params"], "--data", p["data"],
                                    "--screen", t / "dir"], t / "dir", False),
    "dir-as-transform": lambda t, p: (["convert", "--dir", "pogz2pog", "--transform", t / "dir",
                                       "--input", t / "file"], t / "dir", False),
    "dir-as-config": lambda t, p: (["eval", "--config", t / "dir"], t / "dir", True),
    "out-is-a-file": lambda t, p: (["gen", "--subjects", "1", "--frames", "1", "--out", t / "file"],
                                   t / "file", False),
    "not-utf8-row": lambda t, p: (["train", "--data", with_a_bad_row(p["data"], t / "d.jsonl", 33,
                                                                     NOT_UTF8_ROW)],
                                  f"{t / 'd.jsonl'}:33", False),
    "not-utf8-header": lambda t, p: (["eval", "--params", p["params"], "--data",
                                      with_a_bad_row(p["data"], t / "d.jsonl", 1, b'{"mode": "\xff"}')],
                                     f"{t / 'd.jsonl'}:1", False),
    "deep-row": lambda t, p: (["train", "--data", with_a_bad_row(p["data"], t / "d.jsonl", 35, DEEP)],
                              f"{t / 'd.jsonl'}:35", False),
    "not-utf8-config": lambda t, p: (["train", "--data", p["data"], "--config", t / "bad.json"],
                                     t / "bad.json", True),
    "deep-config": lambda t, p: (["train", "--data", p["data"], "--config", t / "bad.json"],
                                 t / "bad.json", True),
    "config-data-list": lambda t, p: (["train", "--config", t / "bad.json"], f"{t / 'bad.json'}: data", True),
    # an int path would be a file descriptor to open(); one surely not open here
    "config-data-int": lambda t, p: (["train", "--config", t / "bad.json"], f"{t / 'bad.json'}: data", True),
    "config-screen-int": lambda t, p: (["eval", "--params", p["params"], "--data", p["data"],
                                        "--config", t / "bad.json"], f"{t / 'bad.json'}: screen", True),
}
HOLE_CONFIGS = {"not-utf8-config": b'{"epochs": 1, "seed": "\xff"}', "deep-config": b'{"a": ' + DEEP,
                "config-data-list": b'{"data": [1]}', "config-data-int": b'{"data": 999999}',
                "config-screen-int": b'{"screen": 999999}'}


@pytest.mark.parametrize("case", sorted(HOLES))
def test_bad_input_exits_2_and_names_the_file(tmp_path, capsys, small_run_inputs, case):
    (tmp_path / "dir").mkdir()
    (tmp_path / "file").write_text(json.dumps({"point": [1.0, 2.0], "gaze": [0.0, 0.0, -1.0]}) + "\n")
    (tmp_path / "bad.json").write_bytes(HOLE_CONFIGS.get(case, b"{}"))
    argv, where, config_at_fault = HOLES[case](tmp_path, small_run_inputs)
    argv = [str(a) for a in argv]
    out = tmp_path / "run"
    if "--out" not in argv and argv[0] != "convert":
        argv += ["--out", str(out)]
    capsys.readouterr()
    assert run(*argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {where}") and "Traceback" not in err, err
    assert err.count("\n") == 1, err
    if config_at_fault:
        assert not (out / "config.json").exists()


def run_convert(monkeypatch, capsys, argv, lines):
    monkeypatch.setattr("sys.stdin", io.StringIO("\n".join(lines) + "\n"))
    code = cli.main(argv)
    return code, [json.loads(l) for l in capsys.readouterr().out.splitlines()]


def test_convert_identity(tmp_path, monkeypatch, capsys):
    t = write_transform(tmp_path / "id.json")
    rec = {"point": [30.0, 40.0], "gaze": [0.1, 0.2, -1.0]}
    code, out = run_convert(monkeypatch, capsys,
                            ["convert", "--dir", "pogz2pog", "--transform", str(t)],
                            [json.dumps(rec)])
    assert code == 0
    assert out[0]["point"] == pytest.approx([30.0, 40.0])
    assert out[0]["behind"] is False


def test_convert_round_trip_pipe(tmp_path, monkeypatch, capsys):
    t = write_transform(tmp_path / "t.json", R=np.diag([1.0, -1.0, -1.0]), t=(5, -3, 40))
    rng = np.random.default_rng(60)
    records = []
    for _ in range(50):
        g = rng.normal(size=3)
        g /= np.linalg.norm(g)
        if abs(g[2]) < 0.2:
            continue
        records.append({"point": list(rng.uniform(-100, 100, size=2)), "gaze": list(g)})
    code, forward = run_convert(monkeypatch, capsys,
                                ["convert", "--dir", "pogz2pog", "--transform", str(t)],
                                [json.dumps(r) for r in records])
    assert code == 0
    code, back = run_convert(monkeypatch, capsys,
                             ["convert", "--dir", "pog2pogz", "--transform", str(t)],
                             [json.dumps(r) for r in forward])
    assert code == 0
    for rec, b in zip(records, back):
        assert np.max(np.abs(np.array(b["point"]) - rec["point"])) < 1e-6
        assert np.max(np.abs(np.array(b["gaze"]) - rec["gaze"])) < 1e-9


def test_convert_bad_lines_keep_streaming(tmp_path, monkeypatch, capsys):
    t = write_transform(tmp_path / "id.json")
    lines = [
        "this is not json",
        json.dumps({"point": [0.0, 0.0]}),                          # missing gaze
        json.dumps({"point": [1.0, 2.0], "gaze": [1.0, 0.0, 0.0]}),  # parallel ray
        json.dumps({"point": [3.0, 4.0], "gaze": [0.0, 0.0, -1.0]}),
        '{"point": [NaN, 1.0], "gaze": [0.0, 0.0, -1.0]}',           # json.loads takes NaN
        '{"point": [1.0, 2.0], "gaze": [Infinity, 0.0, -1.0]}',
        json.dumps({"point": [1.0, 2.0, 3.0], "gaze": [0.0, 0.0, -1.0]}),  # a 3-value point
        json.dumps({"point": [10**400, 2.0], "gaze": [0.0, 0.0, -1.0]}),   # too large for a float
        json.dumps({"point": [1.0, 2.0], "gaze": [0.0, 0.0, 0.0]}),        # no direction
        json.dumps({"point": [1.0, 2.0], "gaze": [1e-320, 0.0, 1e-320]}),  # squared norm underflows
    ]
    code, out = run_convert(monkeypatch, capsys,
                            ["convert", "--dir", "pogz2pog", "--transform", str(t)], lines)
    assert code == 0
    assert len(out) == 10
    assert "error" in out[0] and out[0]["line"] == 0
    assert "error" in out[1]
    assert "error" in out[2]
    assert out[3]["point"] == pytest.approx([3.0, 4.0])
    for i in (4, 5, 6, 7, 8, 9):
        assert set(out[i]) == {"error", "line"} and out[i]["line"] == i, out[i]


@pytest.mark.parametrize("source", ["file", "stdin", "text-stream"])
def test_convert_turns_a_line_that_is_not_utf8_into_an_error_record(tmp_path, monkeypatch, capsys, source):
    t = write_transform(tmp_path / "id.json")
    good = json.dumps({"point": [3.0, 4.0], "gaze": [0.0, 0.0, -1.0]}).encode()
    bad = b'{"point": [1.0, 2.0], "gaze": [0.0, 0.0, -1.0], "note": "\xff"}'
    data = b"\n".join([good, bad, good]) + b"\n"
    argv = ["convert", "--dir", "pogz2pog", "--transform", str(t)]
    if source == "file":
        (tmp_path / "in.jsonl").write_bytes(data)
        argv += ["--input", str(tmp_path / "in.jsonl")]
    elif source == "stdin":   # a strict UTF-8 text stream over bytes, like a pipe
        monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(data), encoding="utf-8"))
    else:                     # a text stream holding the byte as a lone surrogate
        monkeypatch.setattr("sys.stdin", io.StringIO(data.decode("utf-8", "surrogateescape")))
    assert cli.main(argv) == 0
    out = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert len(out) == 3
    assert set(out[1]) == {"error", "line"} and out[1]["line"] == 1, out[1]
    for i in (0, 2):
        assert out[i]["point"] == pytest.approx([3.0, 4.0])


def test_convert_file_io(tmp_path):
    t = write_transform(tmp_path / "id.json")
    src = tmp_path / "in.jsonl"
    src.write_text(json.dumps({"point": [7.0, 8.0], "gaze": [0.0, 0.0, -1.0]}) + "\n")
    dst = tmp_path / "out.jsonl"
    assert run("convert", "--dir", "pogz2pog", "--transform", str(t),
               "--input", str(src), "--output", str(dst)) == 0
    rec = json.loads(dst.read_text())
    assert rec["point"] == pytest.approx([7.0, 8.0])


def test_convert_writes_the_reference_bytes_in_both_directions(tmp_path):
    """Every output line, error records included, is json.dumps(sort_keys=True)
    of the reference record."""
    R = oracles.rotation_matrix_from_axis_angle([0.6, 0.0, 0.8], 0.4)
    t = (210.0, -40.0, 15.0)
    transform = write_transform(tmp_path / "t.json", R=R, t=t)
    rng = np.random.default_rng(61)
    records = [(rng.normal(0.0, 200.0, 2).tolist(), rng.normal(size=3).tolist()) for _ in range(200)]
    records[5] = ([1.0, 2.0], [0.0, 0.0, 0.0])                       # no direction
    records[6] = ([1.0, 2.0], (R.T @ [0.6, 0.8, 0.0]).tolist())       # parallel to the screen
    records[8] = ([1.0, 2.0], (R @ [0.6, 0.8, 0.0]).tolist())         # parallel to the camera plane
    lines = [json.dumps({"point": p, "gaze": g}) for p, g in records]
    errors = {3: ('{"point": [NaN, 1.0], "gaze": [0.0, 0.0, -1.0]}', "non-finite value NaN"),
              11: ("not json", "Expecting value: line 1 column 1 (char 0)"),
              12: (json.dumps({"point": [1.0, 2.0]}), "missing key 'gaze'")}
    for i, (line, _) in errors.items():
        lines[i] = line
    src = tmp_path / "in.jsonl"
    src.write_text("\n".join(lines) + "\n")
    for direction in ("pogz2pog", "pog2pogz"):
        dst = tmp_path / f"{direction}.jsonl"
        assert run("convert", "--dir", direction, "--transform", str(transform),
                   "--input", str(src), "--output", str(dst)) == 0
        want = [{"error": errors[i][1], "line": i} if i in errors
                else oracles.reference_convert_record(p, g, R, t, direction, i)
                for i, (p, g) in enumerate(records)]
        assert sum("error" in w for w in want) == 5   # one of records 6 and 8 is parallel
        assert dst.read_text() == "".join(json.dumps(w, sort_keys=True) + "\n" for w in want)


def block_seam_lines(R):
    """(records, input lines, {line: error}) over 2 x BLOCK_LINES + 4 lines
    with a fault on the first or last line of each block: the output must not
    depend on where a block starts or ends.  The first block holds values that
    are no JSON number, the second an all-integer record and a value beyond
    the bound, and the last line an int too large for a float: the checks over
    a block's columns pass each of them on to the one-record check."""
    B = BLOCK_LINES
    rng = np.random.default_rng(62)
    records = [(rng.normal(0.0, 200.0, 2).tolist(), rng.normal(size=3).tolist()) for _ in range(2 * B + 4)]
    records[B + 1] = ([1.0, 2.0], [0.0, 0.0, 0.0])                         # no direction
    records[B + 5] = ([12, -40], [0, 1, -2])                               # all integers
    records[2 * B - 1] = ([1.0, 2.0], (R @ [0.6, 0.8, 0.0]).tolist())      # parallel to the camera plane
    records[2 * B] = ([1.0, 2.0], (R.T @ [0.6, 0.8, 0.0]).tolist())        # parallel to the screen
    lines = [json.dumps({"point": p, "gaze": g}) for p, g in records]
    not_utf8 = '{"point": [1.0, 2.0], "gaze": [0.0, 0.0, -1.0], "note": "\udcff"}'
    try:
        not_utf8.encode("utf-8", "surrogateescape").decode()
    except UnicodeDecodeError as exc:
        not_utf8_error = str(exc)
    errors = {0: ("not json", "Expecting value: line 1 column 1 (char 0)"),
              5: ('{"point": [1.0, 2.0], "gaze": [true, 0.0, -1.0]}',
                  "gaze must be a flat list of 3 JSON numbers, got [True, 0.0, -1.0]"),
              6: ('{"point": ["1", 2.0], "gaze": [0.0, 0.0, -1.0]}',
                  "point must be a flat list of 2 JSON numbers, got ['1', 2.0]"),
              B - 1: ('{"point": [NaN, 1.0], "gaze": [0.0, 0.0, -1.0]}', "non-finite value NaN"),
              B + 6: ('{"point": [1e10, 2.0], "gaze": [0.0, 0.0, -1.0]}',
                      out_of_bounds("point", [10000000000.0, 2.0])),
              2 * B + 2: (not_utf8, not_utf8_error),
              2 * B + 3: ('{"point": [1.0, 2.0], "gaze": [0.0, 0.0, %d]}' % 10**400,
                          f"gaze has an integer too large for a float, got {[0.0, 0.0, 10**400]}")}
    for i, (line, _) in errors.items():
        lines[i] = line
    lines[B] = "   "                                                       # blank: no output record
    return records, lines, {i: error for i, (_, error) in errors.items()}


@pytest.mark.parametrize("source", ["file", "stdin"])
def test_convert_across_block_seams_writes_the_reference_bytes_in_both_directions(tmp_path, monkeypatch, capsys,
                                                                                source):
    """Every input line is answered in order by EOF, with the bytes of the
    one-record reference, faults on the blocks' first and last lines included."""
    R = oracles.rotation_matrix_from_axis_angle([0.6, 0.0, 0.8], 0.4)
    t = (210.0, -40.0, 15.0)
    transform = write_transform(tmp_path / "t.json", R=R, t=t)
    records, lines, errors = block_seam_lines(R)
    data = ("\n".join(lines) + "\n").encode("utf-8", "surrogateescape")
    for direction in ("pogz2pog", "pog2pogz"):
        argv = ["convert", "--dir", direction, "--transform", str(transform)]
        if source == "file":
            (tmp_path / "in.jsonl").write_bytes(data)
            argv += ["--input", str(tmp_path / "in.jsonl"), "--output", str(tmp_path / "out.jsonl")]
        else:   # a strict UTF-8 text stream over bytes, like a pipe
            monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(data), encoding="utf-8"))
        assert cli.main(argv) == 0
        out = (tmp_path / "out.jsonl").read_text() if source == "file" else capsys.readouterr().out
        want = [{"error": errors[i], "line": i} if i in errors
                else oracles.reference_convert_record(p, g, R, t, direction, i)
                for i, (p, g) in enumerate(records) if lines[i].strip()]
        assert len(want) == len(lines) - 1 and sum("error" in w for w in want) == 9
        assert out == "".join(json.dumps(w, sort_keys=True) + "\n" for w in want)


@pytest.mark.parametrize("source", ["file", "stdin"])
def test_convert_ends_a_line_only_at_a_newline(tmp_path, monkeypatch, capsys, source):
    """A "\\r" is JSON whitespace within a record, as in a dataset row, and
    ends no line: the record converts, and the lines after keep their numbers."""
    R = oracles.rotation_matrix_from_axis_angle([0.6, 0.0, 0.8], 0.4)
    t = (210.0, -40.0, 15.0)
    transform = write_transform(tmp_path / "t.json", R=R, t=t)
    records = [([1.0, 2.0], [0.1, 0.2, -1.0]), ([3.0, 4.0], [-0.1, 0.2, -0.9])]
    data = ('{"point": [1.0, 2.0],\r"gaze": [0.1, 0.2, -1.0]}\n'
            '{"point": [3.0, 4.0], "gaze": [-0.1, 0.2, -0.9]}\r\n'
            'not json\n').encode()
    for direction in ("pogz2pog", "pog2pogz"):
        argv = ["convert", "--dir", direction, "--transform", str(transform)]
        if source == "file":
            (tmp_path / "in.jsonl").write_bytes(data)
            argv += ["--input", str(tmp_path / "in.jsonl"), "--output", str(tmp_path / "out.jsonl")]
        else:   # a text stream over bytes, with universal newlines
            monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(data), encoding="utf-8"))
        assert cli.main(argv) == 0
        out = (tmp_path / "out.jsonl").read_text() if source == "file" else capsys.readouterr().out
        want = [oracles.reference_convert_record(p, g, R, t, direction, i) for i, (p, g) in enumerate(records)]
        want.append({"error": "Expecting value: line 1 column 1 (char 0)", "line": 2})
        assert out == "".join(json.dumps(w, sort_keys=True) + "\n" for w in want)


def test_convert_closes_its_input_when_the_output_cannot_be_opened(tmp_path, capsys):
    t = write_transform(tmp_path / "id.json")
    src, dst = tmp_path / "rec.jsonl", tmp_path / "missing" / "x.jsonl"
    src.write_text(json.dumps({"point": [7.0, 8.0], "gaze": [0.0, 0.0, -1.0]}) + "\n")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert run("convert", "--dir", "pogz2pog", "--transform", str(t), "--input", str(src),
                   "--output", str(dst)) == 2
        gc.collect()
    assert capsys.readouterr().err == f"error: {dst}: No such file or directory\n"
    assert not [w for w in caught if issubclass(w.category, ResourceWarning)], [str(w.message) for w in caught]


@pytest.mark.parametrize("name", ["the-same-path", "a-symlink", "a-hard-link", "stdin"])
def test_convert_refuses_an_output_that_is_its_input(tmp_path, capsys, monkeypatch, name):
    """Opening the output truncates it, so an output that is the input file,
    by any name or as standard input, is a ConfigError naming it, and the
    file keeps its bytes."""
    t = write_transform(tmp_path / "id.json")
    src = tmp_path / "in.jsonl"
    data = "".join(json.dumps({"point": [float(k), 2.0], "gaze": [0.0, 0.0, -1.0]}) + "\n" for k in range(3))
    src.write_text(data)
    dst = {"a-symlink": tmp_path / "link.jsonl", "a-hard-link": tmp_path / "hard.jsonl"}.get(name, src)
    if name == "a-symlink":
        dst.symlink_to(src)
    elif name == "a-hard-link":
        os.link(src, dst)
    with open(src, encoding="utf-8") as stdin:
        source = ["--input", str(src)]
        if name == "stdin":   # convert ... --output in.jsonl < in.jsonl
            monkeypatch.setattr("sys.stdin", stdin)
            source = []
        assert run("convert", "--dir", "pogz2pog", "--transform", str(t), *source, "--output", str(dst)) == 2
    assert capsys.readouterr().err == f"error: {dst}: is the input file; convert would erase it before reading it\n"
    assert src.read_text() == data


def test_convert_writes_to_a_device_that_is_also_its_input(tmp_path, capsys, monkeypatch):
    """Only a regular file is erased by opening it, so reading standard input
    from /dev/null and writing to /dev/null is no conflict."""
    t = write_transform(tmp_path / "id.json")
    with open(os.devnull, encoding="utf-8") as devnull:
        monkeypatch.setattr("sys.stdin", devnull)
        assert run("convert", "--dir", "pogz2pog", "--transform", str(t), "--output", os.devnull) == 0
    assert capsys.readouterr().err == ""


FINITE_FLOATS = st.floats(allow_nan=False, allow_infinity=False)


@FUZZ
@given(behind=st.booleans(), gaze=st.lists(FINITE_FLOATS, min_size=3, max_size=3),
       point=st.lists(FINITE_FLOATS, min_size=2, max_size=2))
@example(behind=False, gaze=[-0.0, 5e-324, 1e16], point=[1e-7, 2.5e18])
@example(behind=True, gaze=[0.0, -5e-324, -1e16], point=[-1e-7, -2.5e18])
def test_the_record_line_template_writes_the_line_encoders_bytes(behind, gaze, point):
    """pogz.record_lines, the converted records' writer.  Both examples take
    number_rows' LINE_ENCODER path: their values, -0.0 and 0.0 aside, lie
    outside the range where orjson's text is repr's."""
    record = {"point": point, "gaze": gaze, "behind": behind}
    assert record_lines([behind], np.array([gaze]), np.array([point])) == [LINE_ENCODER.encode(record) + "\n"]


@pytest.mark.parametrize("doc, message", [
    pytest.param({"R": [v == 1.0 for v in EYE9], "t": [0, 0, 0]},
                 f"R must be a flat list of 9 JSON numbers, got {[v == 1.0 for v in EYE9]}\n", id="bool-R"),
    pytest.param({"R": EYE9, "t": [0, 0, True]}, "t must be a flat list of 3 JSON numbers, got [0, 0, True]\n",
                 id="bool-t"),
    pytest.param({"R": EYE9, "t": [0, 0, "1"]}, "t must be a flat list of 3 JSON numbers, got [0, 0, '1']\n",
                 id="string-t"),
    pytest.param({"R": [EYE9[:3], EYE9[3:6], EYE9[6:]], "t": [0, 0, 0]},
                 f"R must be a flat list of 9 JSON numbers, got {[EYE9[:3], EYE9[3:6], EYE9[6:]]}\n", id="nested-R"),
])
def test_a_transform_takes_json_numbers_only(tmp_path, capsys, doc, message):
    transform = tmp_path / "t.json"
    transform.write_text(json.dumps(doc))
    src = tmp_path / "in.jsonl"
    src.write_text(json.dumps({"point": [1.0, 2.0], "gaze": [0.0, 0.0, -1.0]}) + "\n")
    assert run("convert", "--dir", "pogz2pog", "--transform", str(transform), "--input", str(src),
               "--output", str(tmp_path / "out.jsonl")) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {transform}: {message}") and err.count("\n") == 1, err


def out_of_bounds(name, values):
    return f"{name} values must be at most 1e+09 in magnitude, got {values}"


@pytest.mark.parametrize("direction", ["pogz2pog", "pog2pogz"])
def test_convert_takes_json_numbers_within_the_physical_bound_only(tmp_path, capsys, direction):
    """A record follows the physical rule of a dataset row, every value at most
    1e9 in magnitude, and holds JSON numbers only: any other record is an error
    record that says so, with nothing on stderr."""
    R = oracles.rotation_matrix_from_axis_angle([1.0, 0.0, 0.0], 0.3)
    t = (10.0, 180.0, -25.0)
    transform = write_transform(tmp_path / "t.json", R=R, t=t)
    ok = [([12.5, -40.0], [0.1, 0.2, -0.97]), ([1e9, -1e9], [0.1, 0.2, -0.97]),
          ([3.0, 4.0], [-1e9, 5e8, 1e9])]
    bad = [({"point": [1.0, 2.0], "gaze": [1e308, 1e308, 1e308]}, out_of_bounds("gaze", [1e308] * 3)),
           ({"point": [1.0, 2.0], "gaze": [1e200, 1e200, 1e200]}, out_of_bounds("gaze", [1e200] * 3)),
           ({"point": [1.7e308, 1.7e308], "gaze": [0.1, 0.2, -0.97]}, out_of_bounds("point", [1.7e308, 1.7e308])),
           ({"point": [1000000001.0, 0.0], "gaze": [0.1, 0.2, -0.97]}, out_of_bounds("point", [1000000001.0, 0.0])),
           ({"point": [1.0, 2.0], "gaze": [True, 0.0, -1.0]},
            "gaze must be a flat list of 3 JSON numbers, got [True, 0.0, -1.0]"),
           ({"point": ["1", 2.0], "gaze": [0.0, 0.0, -1.0]},
            "point must be a flat list of 2 JSON numbers, got ['1', 2.0]")]
    lines = [json.dumps({"point": p, "gaze": g}) for p, g in ok] + [json.dumps(rec) for rec, _ in bad]
    lines.append('{"point": [1.0, 2.0], "gaze": [0.0, Infinity, -1.0]}')   # today's non-finite text
    src, dst = tmp_path / "in.jsonl", tmp_path / "out.jsonl"
    src.write_text("".join(line + "\n" for line in lines))
    assert run("convert", "--dir", direction, "--transform", str(transform), "--input", str(src),
               "--output", str(dst)) == 0
    assert capsys.readouterr().err == ""
    want = [oracles.reference_convert_record(p, g, R, t, direction, i) for i, (p, g) in enumerate(ok)]
    want += [{"error": error, "line": len(ok) + i} for i, (_, error) in enumerate(bad)]
    want.append({"error": "non-finite value Infinity", "line": len(lines) - 1})
    assert [json.loads(line) for line in dst.read_text().splitlines()] == want


def test_gen_calibration_records_are_the_reference_bytes(tmp_path):
    out = tmp_path / "cal"
    assert run("gen", "--mode", "calibration", "--subjects", "3", "--frames", "20", "--seed", "9",
               "--out", str(out)) == 0
    ds = load_dataset(out / "dataset.jsonl")
    gaze6d.write_calibration_set(ds.samples, ds.intrinsics, tmp_path / "records.jsonl")
    assert ((tmp_path / "records.jsonl").read_text()
            == oracles.reference_calibration_records_text(ds.samples, ds.intrinsics))


def test_gradcheck_passes(capsys):
    assert run("gradcheck", "--restarts", "2", "--batch", "4") == 0
    out = capsys.readouterr().out
    assert "OK" in out


def test_gradcheck_failure_exit_code(monkeypatch, capsys):
    monkeypatch.setattr(cli.model, "gradient_check", lambda *a, **k: 1.0)
    assert run("gradcheck", "--restarts", "1", "--batch", "2") == 3
    assert "FAIL" in capsys.readouterr().err


@pytest.mark.parametrize("flag", ["--restarts", "--batch"])
@pytest.mark.parametrize("value", ["0", "-1"])
def test_gradcheck_that_would_check_nothing_exits_2(monkeypatch, capsys, flag, value):
    monkeypatch.setattr(cli.model, "gradient_check", lambda *a, **k: pytest.fail("nothing to check"))
    assert run("gradcheck", flag, value) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {flag} must be >= 1, got {value}\n" and captured.out == ""
