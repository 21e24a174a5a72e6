"""The call counts a traced benchmark run checks (bench/plan.py's
check_counts), held at small sizes: one backward and one Adam step per
optimizer step, one forward_batch per 6-DoF prediction, one sample_frame
per generated frame, and one pog_to_pogz per pog2pogz record.

Each counter replaces every binding of its function in the gaze6d modules,
as the benchmark's tracer does, so a call made through any module's name
for it is counted."""

import json
import math
import sys

import numpy as np
import pytest

from gaze6d import cli, model, pogz, synth
from gaze6d.model import TrainConfig, fine_tune, init_params, predict_6dof, train
from gaze6d.synth import SceneConfig, calibration_view, generate_dataset, load_dataset, make_subjects


def count_calls(monkeypatch, module, name) -> list:
    """Count the calls of `module.name` through every gaze6d module's binding
    of it; returns a one-entry list holding the count."""
    original, calls = getattr(module, name), [0]

    def counted(*args, **kwargs):
        calls[0] += 1
        return original(*args, **kwargs)

    for mod_name, mod in list(sys.modules.items()):
        if mod_name == "gaze6d" or mod_name.startswith("gaze6d."):
            for attr, value in list(vars(mod).items()):
                if value is original:
                    monkeypatch.setattr(mod, attr, counted)
    return calls


def count_method_calls(monkeypatch, cls, name) -> list:
    original, calls = getattr(cls, name), [0]

    def counted(self, *args, **kwargs):
        calls[0] += 1
        return original(self, *args, **kwargs)

    monkeypatch.setattr(cls, name, counted)
    return calls


def dataset(tmp_path, subjects, frames, mode="general", seed=0):
    path = tmp_path / f"{mode}_{subjects}x{frames}_{seed}.jsonl"
    generate_dataset(SceneConfig(seed=seed), make_subjects(subjects, seed=seed), frames, mode, path)
    return load_dataset(path)


@pytest.mark.parametrize("epochs, batch_size", [(3, 16), (2, 7), (0, 16)])
def test_train_makes_one_backward_and_one_adam_step_per_step(tmp_path, monkeypatch, epochs, batch_size):
    ds = dataset(tmp_path, subjects=2, frames=25)
    cfg = TrainConfig(epochs=epochs, batch_size=batch_size, val_fraction=0.2)
    backward = count_calls(monkeypatch, model, "backward")
    step = count_method_calls(monkeypatch, model.Adam, "step")
    train(cfg, ds)
    train_rows = 2 * (25 - int(25 * 0.2))
    assert backward[0] == step[0] == epochs * math.ceil(train_rows / batch_size)


@pytest.mark.parametrize("steps, batch", [(100, 8), (5, 8), (9, 50), (0, 8)])
def test_fine_tune_makes_one_backward_and_one_adam_step_per_step(tmp_path, monkeypatch, steps, batch):
    calib = dataset(tmp_path, subjects=1, frames=50, mode="calibration")
    rows = calibration_view(calib.samples, calib.intrinsics)
    backward = count_calls(monkeypatch, model, "backward")
    step = count_method_calls(monkeypatch, model.Adam, "step")
    fine_tune(init_params(seed=1), TrainConfig(finetune_steps=steps, finetune_batch=batch), rows, calib.intrinsics)
    assert backward[0] == step[0] == steps


def test_predict_6dof_makes_one_forward_batch_call(tmp_path, monkeypatch):
    track = dataset(tmp_path, subjects=1, frames=20)
    params = init_params(seed=2)
    forward = count_calls(monkeypatch, model, "forward_batch")
    for i, s in enumerate(track.samples, start=1):
        predict_6dof(params, s.features, s.bbox, track.intrinsics)
        assert forward[0] == i


@pytest.mark.parametrize("mode", synth.MODES)
def test_generate_dataset_makes_one_sample_frame_call_per_frame(tmp_path, monkeypatch, mode):
    frames = count_calls(monkeypatch, synth, "sample_frame")
    generate_dataset(SceneConfig(seed=4), make_subjects(3, seed=4), 7, mode, tmp_path / "d.jsonl")
    assert frames[0] == 3 * 7


def test_convert_pog2pogz_makes_one_pog_to_pogz_call_per_record(tmp_path, monkeypatch):
    transform = tmp_path / "t.json"
    R = np.array([[1.0, 0.0, 0.0], [0.0, math.cos(0.3), -math.sin(0.3)], [0.0, math.sin(0.3), math.cos(0.3)]])
    transform.write_text(json.dumps({"R": R.reshape(9).tolist(), "t": [10.0, 200.0, -5.0]}))
    rng = np.random.default_rng(6)
    records = tmp_path / "in.jsonl"
    gazes = rng.normal(size=(300, 3)) + [0.0, 0.0, -4.0]
    with open(records, "w") as f:
        for point, gaze in zip(rng.uniform(-300.0, 300.0, size=(300, 2)).tolist(), gazes.tolist()):
            f.write(json.dumps({"point": point, "gaze": gaze}) + "\n")
    calls = count_calls(monkeypatch, pogz, "pog_to_pogz")
    assert cli.main(["convert", "--dir", "pog2pogz", "--transform", str(transform), "--input", str(records),
                     "--output", str(tmp_path / "out.jsonl")]) == 0
    assert calls[0] == 300
    assert len((tmp_path / "out.jsonl").read_text().splitlines()) == 300
