import io
import json

import numpy as np
import pytest

from gaze6d import cli
from gaze6d.easy_norm import Rotation3
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
    a, b = tmp_path / "a", tmp_path / "b"
    run("gen", "--subjects", "2", "--frames", "8", "--seed", "3", "--out", str(a))
    run("gen", "--subjects", "2", "--frames", "8", "--seed", "3", "--out", str(b))
    assert (a / "dataset.jsonl").read_bytes() == (b / "dataset.jsonl").read_bytes()


def test_gen_rerun_from_snapshot_is_byte_identical(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    run("gen", "--subjects", "2", "--frames", "6", "--seed", "9",
        "--kappa-range", "0.05", "--out", str(a))
    assert run("gen", "--config", str(a / "config.json"), "--out", str(b)) == 0
    assert (a / "dataset.jsonl").read_bytes() == (b / "dataset.jsonl").read_bytes()
    assert (a / "config.json").read_bytes() == (b / "config.json").read_bytes()


def test_gen_calibration_mode_writes_records(tmp_path):
    out = tmp_path / "calib"
    assert run("gen", "--mode", "calibration", "--subjects", "2", "--frames", "4",
               "--seed", "0", "--out", str(out)) == 0
    records = (out / "calibration_records.jsonl").read_text().splitlines()
    assert len(records) == 8
    assert set(json.loads(records[0])) == {"subject", "face_px", "bbox", "g_o"}
    assert load_dataset(out / "dataset.jsonl").mode == "calibration"


def test_gen_zero_frames(tmp_path):
    out = tmp_path / "empty"
    assert run("gen", "--frames", "0", "--subjects", "2", "--out", str(out)) == 0
    assert len((out / "dataset.jsonl").read_text().splitlines()) == 1


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


def test_train_rerun_from_snapshot_identical(tmp_path):
    gen = tmp_path / "gen"
    run("gen", "--subjects", "2", "--frames", "15", "--seed", "5", "--out", str(gen))
    a, b = tmp_path / "ta", tmp_path / "tb"
    run("train", "--data", str(gen / "dataset.jsonl"), "--epochs", "2",
        "--batch-size", "8", "--seed", "7", "--out", str(a))
    assert run("train", "--config", str(a / "config.json"), "--out", str(b)) == 0
    assert (a / "params.json").read_bytes() == (b / "params.json").read_bytes()
    assert (a / "history.csv").read_bytes() == (b / "history.csv").read_bytes()


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
    from gaze6d.model import ModelConfig, init_params, save_params

    gen = tmp_path / "gen"
    run("gen", "--subjects", "1", "--frames", "5", "--seed", "2", "--out", str(gen))
    calib = tmp_path / "calib"
    run("gen", "--mode", "calibration", "--subjects", "1", "--frames", "5",
        "--seed", "2", "--out", str(calib))
    # arrays 32 wide under a model_config that says 16
    narrow = tmp_path / "narrow.json"
    save_params(init_params(seed=0), narrow)
    doc = json.loads(narrow.read_text())
    doc["model_config"] = ModelConfig(hidden=16).to_dict()
    narrow.write_text(json.dumps(doc))
    nan = tmp_path / "nan.json"
    params = init_params(seed=0)
    params.arrays["fuse_w"][1, 2] = np.nan
    save_params(params, nan)
    capsys.readouterr()

    for bad in (narrow, nan):
        assert run("eval", "--params", str(bad), "--data", str(gen / "dataset.jsonl"),
                   "--out", str(tmp_path / "eval")) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {bad}: ") and "Traceback" not in err
        assert run("finetune", "--params", str(bad), "--calib", str(calib / "dataset.jsonl"),
                   "--out", str(tmp_path / "ft")) == 2
        assert capsys.readouterr().err.startswith(f"error: {bad}: ")
    assert not (tmp_path / "ft" / "params_subject_0.json").exists()


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
    ]
    code, out = run_convert(monkeypatch, capsys,
                            ["convert", "--dir", "pogz2pog", "--transform", str(t)], lines)
    assert code == 0
    assert len(out) == 4
    assert "error" in out[0] and out[0]["line"] == 0
    assert "error" in out[1]
    assert "error" in out[2]
    assert out[3]["point"] == pytest.approx([3.0, 4.0])


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
