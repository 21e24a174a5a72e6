import io
import json
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracles
from fuzz import FUZZ, json_values

import gaze6d
from gaze6d import cli
from gaze6d.calibration import derive_calibration_label
from gaze6d.easy_norm import Rotation3
from gaze6d.errors import ConfigError
from gaze6d.model import LossWeights, TrainConfig, init_params, load_params, save_params
from gaze6d.pogz import RigidTransform
from gaze6d.synth import load_dataset


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
    records = "calibration_records.jsonl"
    assert (a / records).read_bytes() == (b / records).read_bytes()


def test_gen_rerun_from_snapshot_is_byte_identical(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    run("gen", "--subjects", "2", "--frames", "6", "--seed", "9",
        "--kappa-range", "0.05", "--out", str(a))
    assert run("gen", "--config", str(a / "config.json"), "--out", str(b)) == 0
    assert (a / "dataset.jsonl").read_bytes() == (b / "dataset.jsonl").read_bytes()
    assert (a / "config.json").read_bytes() == (b / "config.json").read_bytes()


def test_gen_calibration_mode_writes_records(tmp_path):
    out = tmp_path / "calib"
    assert run("gen", "--mode", "calibration", "--subjects", "2", "--frames", "50",
               "--seed", "0", "--out", str(out)) == 0
    lines = (out / "calibration_records.jsonl").read_text().splitlines()
    assert len(lines) == 100
    assert set(json.loads(lines[0])) == {"subject", "face_px", "bbox", "g_o"}
    ds = load_dataset(out / "dataset.jsonl")
    assert ds.mode == "calibration"
    # one record per dataset row, in row order; the label follows from the box center alone
    records = [json.loads(line) for line in lines]
    assert [r["subject"] for r in records] == [s.subject for s in ds.samples]
    for r, s in zip(records, ds.samples):
        assert r["bbox"] == s.bbox.to_list() and r["bbox"][2] > 0
        assert r["face_px"] == [s.bbox.x, s.bbox.y]
        g_o = np.array(r["g_o"])
        assert abs(np.linalg.norm(g_o) - 1.0) < 1e-9
        assert np.max(np.abs(g_o - derive_calibration_label(ds.intrinsics, r["face_px"]))) == 0.0


def test_gen_zero_frames(tmp_path):
    out = tmp_path / "empty"
    assert run("gen", "--frames", "0", "--subjects", "2", "--out", str(out)) == 0
    assert len((out / "dataset.jsonl").read_text().splitlines()) == 1


def test_gen_negative_counts_exit_2(tmp_path, capsys):
    for flag, message in (("--subjects", "subject count must be >= 0, got -3"),
                          ("--frames", "n_per_subject must be >= 0, got -3")):
        assert run("gen", flag, "-3", "--out", str(tmp_path / "g")) == 2
        assert capsys.readouterr().err == f"error: {message}\n"


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
        "huge": ({**row, "features": [10**400] + row["features"][1:]}, "int too large to convert to float"),
    }
    capsys.readouterr()
    for name, (bad, message) in bad_rows.items():
        data = tmp_path / f"{name}.jsonl"
        data.write_text("\n".join(lines[:3] + [json.dumps(bad)] + lines[4:]) + "\n")
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


def write_inf_feature_set(tmp_path):
    """A 6-row dataset whose fourth row has a feature written 1e999; 1e999
    loads as inf, and tanh saturates, so only the gradients go non-finite."""
    gen = tmp_path / "gen"
    run("gen", "--subjects", "1", "--frames", "6", "--seed", "5", "--out", str(gen))
    lines = (gen / "dataset.jsonl").read_text().splitlines()
    row = json.loads(lines[3])
    row["features"][0] = 12345.5
    lines[3] = json.dumps(row).replace("12345.5", "1e999")
    (gen / "dataset.jsonl").write_text("\n".join(lines) + "\n")
    return gen / "dataset.jsonl"


def test_train_stops_on_non_finite_gradients_with_exit_3(tmp_path, capsys):
    data = write_inf_feature_set(tmp_path)
    capsys.readouterr()
    out = tmp_path / "train"
    assert run("train", "--data", str(data), "--epochs", "1",
               "--batch-size", "8", "--out", str(out)) == 3
    assert ("numeric failure: non-finite gradients at epoch 0, step 0 (batch offset 0), arrays: "
            in capsys.readouterr().err)
    assert not (out / "params.json").exists()


def test_non_finite_gradient_exit_writes_only_the_failure_line(tmp_path):
    # a separate process, so that any numpy warning reaches the real stderr
    data = write_inf_feature_set(tmp_path)
    src = str(Path(gaze6d.__file__).parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run([sys.executable, "-m", "gaze6d.cli", "train", "--data", str(data),
                           "--epochs", "1", "--out", str(tmp_path / "train")],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 3
    assert proc.stderr.startswith("numeric failure: non-finite gradients at epoch 0, step 0 ")
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
                          ('{"scene": {"depth_lo": 1}}', "scene: missing key 'gaze_yaw'")]:
        config = tmp_path / "bad.json"
        config.write_text(text)
        assert run("gen", "--config", str(config), "--out", str(tmp_path / "g")) == 2
        assert capsys.readouterr().err.startswith(f"error: {config}: {message}")


def setting_paths(table):
    """The key path of every setting in a SETTINGS table, the keys of a nested
    object included."""
    for key, default in table.items():
        yield (key,)
        if isinstance(default, dict):
            yield from ((key, inner) for inner in default)


def has_its_type(setting, default) -> bool:
    """Whether a setting, or a nested object of them, has its SETTINGS type."""
    if isinstance(default, dict):
        return set(setting) == set(default) and all(has_its_type(setting[k], d) for k, d in default.items())
    if isinstance(default, type):   # an optional setting
        return setting is None or type(setting) is default
    return type(setting) is type(default)


PARSER = cli._build_parser()


@FUZZ
@given(setting=st.sampled_from([(command, path) for command in sorted(cli.SETTINGS)
                                 for path in setting_paths(cli.SETTINGS[command])]),
       value=json_values)
def test_a_fuzzed_config_value_gives_typed_settings_or_names_the_file(fuzz_dir, setting, value):
    """The settings pass alone, so that no fuzzed value can start a run."""
    command, path = setting
    config = fuzz_dir / "config.json"
    config.write_text(json.dumps({path[0]: value} if len(path) == 1 else {path[0]: {path[1]: value}}))
    args = PARSER.parse_args([command, "--config", str(config), "--out", str(fuzz_dir / "run")])
    try:
        settings = cli._configure(args)
    except ConfigError as exc:
        assert str(exc).startswith(f"{config}: {'.'.join(path)}: ")
        return
    assert has_its_type(settings, cli.SETTINGS[command])
    got = settings[path[0]] if len(path) == 1 else settings[path[0]][path[1]]
    # taken as given: no bool for a number, no fraction truncated; a string may be a number
    assert not isinstance(value, bool) and (got == value or isinstance(value, str)), (got, value)


# the TrainConfig and LossWeights fields each command reads, by flag dest
WEIGHT_FIELDS = set(LossWeights().to_dict())
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


@pytest.mark.parametrize("command", sorted(READS))
def test_train_flags_are_the_fields_the_command_reads(command):
    assert READS[command] <= set(TrainConfig().to_dict()) | WEIGHT_FIELDS
    assert subcommand_dests(command) - OTHER_FLAGS[command] == READS[command]


def test_reads_table_matches_what_train_and_fine_tune_read(tmp_path):
    # the table above must be what the model reads, or the guard guards nothing
    class Recorder:
        def __init__(self, cfg, read):
            self._cfg, self._read = cfg, read

        def __getattr__(self, name):
            self._read.add(name)
            value = getattr(self._cfg, name)
            return Recorder(value, self._read) if name == "weights" else value

        def value(self, task):
            self._read.add(task)
            return self._cfg.value(task)

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
    nan = tmp_path / "nan.json"
    params = init_params(seed=0)
    params.arrays["fuse_w"][1, 2] = np.nan
    save_params(params, nan)
    not_json = tmp_path / "not_json.json"
    not_json.write_text("not json")
    huge = tmp_path / "huge.json"
    save_params(init_params(seed=0), huge)
    doc = json.loads(huge.read_text())
    doc["arrays"]["fuse_w"]["data"][0] = 10**400   # valid JSON, too large for a float
    huge.write_text(json.dumps(doc))
    capsys.readouterr()

    for bad in (narrow, nan, not_json, huge):
        assert run("eval", "--params", str(bad), "--data", str(gen / "dataset.jsonl"),
                   "--out", str(tmp_path / "eval")) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {bad}: ") and "Traceback" not in err
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
    oracles.params_json_per_float(SimpleNamespace(arrays=arrays), path, hidden=16)
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


EYE9 = [1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0]


@pytest.mark.parametrize("command", ["convert", "eval"])
@pytest.mark.parametrize("text, message", [
    pytest.param(json.dumps({"R": EYE9[:8], "t": [0, 0, 0]}),
                 "R must be 9 finite values, got [1.0, 0.0,", id="short-R"),
    pytest.param(json.dumps({"R": EYE9}), "missing key 't'", id="no-t"),
    pytest.param(json.dumps({"R": [1.0, 0.5] + EYE9[2:], "t": [0, 0, 0]}),
                 "matrix is not orthonormal", id="skewed-R"),
    pytest.param(json.dumps({"R": EYE9, "t": [0.0, float("nan"), 0.0]}),
                 "t must be 3 finite values, got [0.0, nan, 0.0]", id="nan-t"),
    pytest.param(json.dumps({"R": [float("inf")] + EYE9[1:], "t": [0, 0, 0]}),
                 "R must be 9 finite values, got [inf,", id="inf-R"),
    pytest.param(json.dumps({"R": EYE9, "t": [0, 0]}),
                 "t must be 3 finite values, got [0.0, 0.0]", id="short-t"),
    pytest.param(json.dumps({"R": [10**400] + EYE9[1:], "t": [0, 0, 0]}),
                 "int too large to convert to float", id="huge-R"),
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
    assert err.startswith(f"error: {transform}: R must be 9 finite values") and "Traceback" not in err


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


def test_gradcheck_passes(capsys):
    assert run("gradcheck", "--restarts", "2", "--batch", "4") == 0
    out = capsys.readouterr().out
    assert "OK" in out


def test_gradcheck_failure_exit_code(monkeypatch, capsys):
    monkeypatch.setattr(cli.model, "gradient_check", lambda *a, **k: 1.0)
    assert run("gradcheck", "--restarts", "1", "--batch", "2") == 3
    assert "FAIL" in capsys.readouterr().err
