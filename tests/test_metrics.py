from dataclasses import asdict

import numpy as np
import pytest

import oracles

import gaze6d.metrics
import gaze6d.pogz

from gaze6d.errors import FrameMismatchError, GeometryError
from gaze6d.metrics import EvalReport, angular_error, evaluate, pog_error
from gaze6d.model import vec_from_euler
from gaze6d.pogz import FRAME_CAMERA_PLANE, FRAME_SCREEN_PLANE, PlanePoint, RigidTransform
from gaze6d.easy_norm import Rotation3
from gaze6d.synth import SceneConfig, Subject, frame_rng, sample_frame

from test_model import oracle_params_for, zero_params


def test_angular_error_knowns():
    g = np.array([0.0, 0.0, -1.0])
    assert angular_error(g, g) == pytest.approx(0.0, abs=1e-9)
    assert angular_error(g, np.array([1.0, 0.0, 0.0])) == pytest.approx(90.0, abs=1e-9)
    assert angular_error(g, -g) == pytest.approx(180.0, abs=1e-9)
    five = np.array([np.sin(np.radians(5.0)), 0.0, -np.cos(np.radians(5.0))])
    assert angular_error(g, five) == pytest.approx(5.0, abs=1e-9)


def test_angular_error_scale_invariant():
    rng = np.random.default_rng(50)
    for _ in range(500):
        g = rng.normal(size=3)
        assert angular_error(g, 7.3 * g) == pytest.approx(0.0, abs=1e-5)
        assert angular_error(g, g / np.linalg.norm(g)) == pytest.approx(0.0, abs=1e-5)


def test_angular_error_clamps_rounding():
    # parallel vectors whose dot product rounds above 1 must not NaN
    g = np.array([0.577350269189626, 0.577350269189626, 0.577350269189626])
    e = angular_error(g, g * (1.0 + 1e-16))
    assert np.isfinite(e) and e >= 0.0


def test_angular_error_zero_vector():
    with pytest.raises(GeometryError):
        angular_error(np.zeros(3), np.array([0.0, 0.0, 1.0]))


def test_pog_error_knowns():
    a = PlanePoint(0.0, 0.0, FRAME_SCREEN_PLANE)
    b = PlanePoint(3.0, 4.0, FRAME_SCREEN_PLANE)
    assert pog_error(a, b) == pytest.approx(5.0, abs=1e-9)
    assert pog_error(a, a) == 0.0


def test_pog_error_is_a_metric():
    rng = np.random.default_rng(51)
    for _ in range(300):
        pts = [PlanePoint(*rng.uniform(-100, 100, size=2), frame=FRAME_CAMERA_PLANE)
               for _ in range(3)]
        a, b, c = pts
        assert pog_error(a, b) == pytest.approx(pog_error(b, a), abs=1e-12)
        assert pog_error(a, c) <= pog_error(a, b) + pog_error(b, c) + 1e-12


def test_pog_error_frame_mismatch():
    with pytest.raises(FrameMismatchError):
        pog_error(PlanePoint(0.0, 0.0, FRAME_CAMERA_PLANE),
                  PlanePoint(0.0, 0.0, FRAME_SCREEN_PLANE))


def make_oracle_dataset(n_subjects=2, n_frames=8, seed=33):
    cfg = SceneConfig(seed=seed)
    samples = []
    for sid in range(n_subjects):
        for i in range(n_frames):
            samples.append(sample_frame(Subject(id=sid), cfg, frame_rng(seed, sid, i)))
    header = {"schema_version": 1, "mode": "general", "config": asdict(cfg)}
    return oracles.dataset_from_samples(header, samples)


def test_evaluate_oracle_params_single_sample():
    ds = make_oracle_dataset(n_subjects=1, n_frames=1)
    report = evaluate(oracle_params_for(ds.samples[0]), ds)
    assert report.overall.n == 1
    # arccos of a rounded unit dot product floors at ~sqrt(eps) radians, so
    # "zero" angular error means a few microdegrees
    assert report.overall.gn_deg_mean == pytest.approx(0.0, abs=5e-6)
    assert report.overall.go_deg_mean == pytest.approx(0.0, abs=5e-6)
    assert report.overall.pogz_mm_mean == pytest.approx(0.0, abs=1e-6)


def test_evaluate_row_counts_and_subjects():
    ds = make_oracle_dataset(n_subjects=3, n_frames=5)
    report = evaluate(zero_params(), ds)
    assert [r.subject for r in report.per_subject] == ["0", "1", "2"]
    assert all(r.n == 5 for r in report.per_subject)
    assert report.overall.n == 15
    assert report.overall.subject == "all"


def test_evaluate_overall_is_mean_of_equal_subjects():
    ds = make_oracle_dataset(n_subjects=3, n_frames=10)
    report = evaluate(zero_params(), ds)
    per = np.mean([r.gn_deg_mean for r in report.per_subject])
    assert report.overall.gn_deg_mean == pytest.approx(per, abs=1e-9)


def test_evaluate_pog_only_with_transform():
    ds = make_oracle_dataset(n_subjects=1, n_frames=6)
    params = zero_params()
    without = evaluate(params, ds)
    assert without.overall.pog_mm_mean is None
    transform = RigidTransform(Rotation3(np.diag([1.0, -1.0, -1.0])),
                               np.array([10.0, 20.0, 30.0]))
    with_screen = evaluate(params, ds, screen_transform=transform)
    assert with_screen.overall.pog_mm_mean is not None
    assert with_screen.overall.pog_mm_mean >= 0.0


def test_evaluate_pog_zero_for_oracle_params():
    ds = make_oracle_dataset(n_subjects=1, n_frames=1)
    transform = RigidTransform(Rotation3(np.eye(3)), np.array([0.0, 0.0, -50.0]))
    report = evaluate(oracle_params_for(ds.samples[0]), ds, screen_transform=transform)
    assert report.overall.pog_mm_mean == pytest.approx(0.0, abs=1e-6)


def test_evaluate_with_a_screen_makes_no_scalar_pogz_to_pog_call(monkeypatch):
    def scalar(*args):
        raise AssertionError("evaluate called the scalar pogz_to_pog")

    monkeypatch.setattr(gaze6d.pogz, "pogz_to_pog", scalar)
    monkeypatch.setattr(gaze6d.metrics, "pogz_to_pog", scalar, raising=False)
    transform = RigidTransform(Rotation3(np.diag([1.0, -1.0, -1.0])), np.array([10.0, 20.0, 30.0]))
    report = evaluate(zero_params(), make_oracle_dataset(n_subjects=2, n_frames=5), screen_transform=transform)
    assert report.overall.pog_mm_mean is not None


def test_evaluate_empty_dataset():
    ds = oracles.dataset_from_samples({"mode": "general", "config": asdict(SceneConfig())}, [])
    with pytest.raises(GeometryError):
        evaluate(zero_params(), ds)


def test_report_csv_and_table():
    ds = make_oracle_dataset(n_subjects=2, n_frames=4)
    report = evaluate(zero_params(), ds)
    csv = report.to_csv()
    lines = csv.splitlines()
    assert lines[0] == ("subject,n,gn_deg_mean,gn_deg_median,go_deg_mean,"
                        "go_deg_median,pogz_mm_mean,pog_mm_mean")
    assert len(lines) == 4  # header + 2 subjects + overall
    assert lines[-1].startswith("all,")
    assert lines[1].endswith(",")  # empty PoG cell without a screen transform

    table = report.table()
    assert "n/a" in table
    assert "all" in table


def test_report_csv_round_trips_floats():
    ds = make_oracle_dataset(n_subjects=1, n_frames=3)
    report = evaluate(zero_params(), ds)
    row = report.to_csv().splitlines()[1].split(",")
    assert float(row[2]) == report.per_subject[0].gn_deg_mean
