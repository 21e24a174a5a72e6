import json

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracles
from fuzz import FUZZ, json_values
from gaze6d.camera import CameraIntrinsics, backproject
from gaze6d.easy_norm import norm_rotation, normalize_gaze, denormalize_gaze
from gaze6d.errors import ConfigError
from gaze6d.model import vec_from_euler
from gaze6d.pogz import pogz_from_ray
from gaze6d.synth import (DEFAULT_INTRINSICS, ClippedGaussian, Dataset,
                          GazeSample, SceneConfig, Subject, dataset_header,
                          frame_rng, generate_dataset, load_dataset,
                          make_subjects, sample_frame)


class ScriptedRng:
    """Deterministic stand-in: uniforms return midpoints, normals return 0."""

    def uniform(self, lo, hi, size=None):
        mid = (lo + hi) / 2.0
        return mid if size is None else np.full(size, mid)

    def normal(self, loc=0.0, scale=1.0, size=None):
        return 0.0 if size is None else np.zeros(size)


def test_clipped_gaussian_bounds_and_dict():
    dist = ClippedGaussian(0.0, 10.0, -1.0, 2.0)
    rng = np.random.default_rng(30)
    draws = [dist.sample(rng) for _ in range(2000)]
    assert min(draws) >= -1.0 and max(draws) <= 2.0
    assert ClippedGaussian.from_dict(dist.to_dict()) == dist


def test_clipped_gaussian_validation():
    with pytest.raises(ConfigError):
        ClippedGaussian(0.0, -1.0, -1.0, 1.0)
    with pytest.raises(ConfigError):
        ClippedGaussian(0.0, 1.0, 2.0, 1.0)


def test_subject_validation_and_dict():
    s = Subject(id=4, kappa_yaw=0.05, kappa_pitch=-0.02, noise_sigma=0.01)
    assert Subject.from_dict(s.to_dict()) == s
    with pytest.raises(ConfigError):
        Subject(id=0, kappa_yaw=0.2)
    with pytest.raises(ConfigError):
        Subject(id=0, noise_sigma=-0.1)


def test_make_subjects_deterministic_and_bounded():
    a = make_subjects(10, seed=1)
    b = make_subjects(10, seed=1)
    assert a == b
    assert [s.id for s in a] == list(range(10))
    for s in a:
        assert abs(s.kappa_yaw) <= 0.09
        assert abs(s.kappa_pitch) <= 0.09
        assert s.noise_sigma == 0.035
    kappas = {(s.kappa_yaw, s.kappa_pitch) for s in a}
    assert len(kappas) == 10  # distinct draws per subject


def test_scene_config_round_trip_and_hash():
    cfg = SceneConfig(seed=5)
    assert SceneConfig.from_dict(cfg.to_dict()) == cfg
    assert cfg.hash() == SceneConfig(seed=5).hash()
    assert cfg.hash() != SceneConfig(seed=6).hash()


def test_scene_config_validation():
    with pytest.raises(ConfigError):
        SceneConfig(depth_lo=800.0, depth_hi=400.0)
    with pytest.raises(ConfigError):
        SceneConfig(face_size_mm=0.0)


def test_degenerate_frame_all_zero():
    # face centered, zero gaze, zero head angles: every label collapses to 0
    subj = Subject(id=0, noise_sigma=0.0)
    s = sample_frame(subj, SceneConfig(), ScriptedRng())
    assert np.allclose(s.g_n, [0.0, 0.0])
    assert np.allclose(s.g_o, [0.0, 0.0])
    assert np.allclose(s.r_on, [0.0, 0.0])
    assert np.allclose(s.pogz, [0.0, 0.0])
    assert np.allclose(s.o_face[:2], [0.0, 0.0])
    assert s.o_face[2] == pytest.approx(600.0)
    assert np.allclose(s.features[:4], 0.0)


def test_sample_consistency_invariants():
    cfg = SceneConfig(seed=2)
    intr = cfg.intrinsics
    for subj_id in range(3):
        subj = Subject(id=subj_id)
        for i in range(300):
            s = sample_frame(subj, cfg, frame_rng(cfg.seed, subj.id, i))
            r = norm_rotation(intr, s.bbox.center)
            # stored rotation matches the box center
            assert np.max(np.abs(r.xy - s.r_on)) < 1e-12
            # gaze pair is one rotation apart
            g_n_vec = vec_from_euler(s.g_n)
            g_o_vec = vec_from_euler(s.g_o)
            assert np.max(np.abs(denormalize_gaze(g_n_vec, r) - g_o_vec)) < 1e-6
            assert np.max(np.abs(normalize_gaze(g_o_vec, r) - g_n_vec)) < 1e-6
            # plane point recomputes from the face center and gaze ray
            origin = backproject(intr, s.bbox.center, s.o_face[2])
            assert np.max(np.abs(origin.xyz - s.o_face)) < 1e-9
            pz = pogz_from_ray(origin, g_o_vec)
            assert np.max(np.abs(pz.xy - s.pogz)) < 1e-6
            # box side encodes depth
            assert s.bbox.side == pytest.approx(
                intr.focal_px * cfg.face_size_mm / s.o_face[2])


def test_calibration_frames_pin_gaze():
    cfg = SceneConfig(seed=3)
    subj = Subject(id=1)
    for i in range(200):
        s = sample_frame(subj, cfg, frame_rng(cfg.seed, subj.id, i), calibration=True)
        # lens fixation: normalized gaze sits exactly on the optical axis
        assert np.max(np.abs(s.g_n)) < 1e-9
        assert np.max(np.abs(s.pogz)) < 1e-6
        g_o_vec = vec_from_euler(s.g_o)
        want = -s.o_face / np.linalg.norm(s.o_face)
        assert oracles.angular_gap_deg(g_o_vec, want) < 1e-6


def test_feature_kappa_identifiability():
    # noiseless features expose the kappa offset as an exact mean gap
    cfg = SceneConfig(seed=4)
    subj = Subject(id=0, kappa_yaw=0.05, kappa_pitch=0.0, noise_sigma=0.0)
    gaps = []
    for i in range(200):
        s = sample_frame(subj, cfg, frame_rng(cfg.seed, subj.id, i))
        gaps.append(s.features[0] - s.g_n[0])
        assert s.features[1] - s.g_n[1] == pytest.approx(0.0, abs=1e-12)
    assert np.mean(gaps) == pytest.approx(0.05, abs=1e-9)


def test_feature_noise_floor_matches_analytic():
    # mean angular gap between feature-implied and true gaze tracks the
    # Monte-Carlo floor for the same sigma
    sigma = 0.035
    cfg = SceneConfig(seed=5)
    subj = Subject(id=0, noise_sigma=sigma)
    gaps = []
    for i in range(4000):
        s = sample_frame(subj, cfg, frame_rng(cfg.seed, subj.id, i))
        gaps.append(oracles.angular_gap_deg(
            vec_from_euler(s.features[:2]), vec_from_euler(s.g_n)))
    measured = float(np.mean(gaps))
    floor = oracles.monte_carlo_noise_floor_deg(sigma, n=100_000)
    assert measured == pytest.approx(floor, rel=0.08)


def test_rejection_failure_raises():
    # a face too large for the image can never fit
    intr = CameraIntrinsics(600.0, 40.0, 40.0, 0.005, 80, 80)
    cfg = SceneConfig(intrinsics=intr, depth_lo=400.0, depth_hi=500.0)
    with pytest.raises(ConfigError, match="draws"):
        sample_frame(Subject(id=0), cfg, frame_rng(0, 0, 0))


def test_frame_rng_keying():
    a = frame_rng(1, 2, 3).normal(size=4)
    b = frame_rng(1, 2, 3).normal(size=4)
    c = frame_rng(1, 2, 4).normal(size=4)
    d = frame_rng(1, 3, 3).normal(size=4)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, d)


def test_gaze_sample_schema():
    s = sample_frame(Subject(id=0), SceneConfig(), frame_rng(0, 0, 0))
    d = s.to_dict()
    assert set(d) == {"features", "bbox", "g_n", "g_o", "pogz", "r_on", "o_face", "subject"}
    back = GazeSample.from_dict(d)
    assert np.array_equal(back.features, s.features)
    assert np.array_equal(back.g_n, s.g_n)
    assert back.head_pose is None  # in-memory only, never serialized


def test_generate_dataset_deterministic(tmp_path):
    cfg = SceneConfig(seed=11)
    subjects = make_subjects(3, seed=11)
    p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    generate_dataset(cfg, subjects, 25, "general", p1)
    generate_dataset(cfg, subjects, 25, "general", p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_generate_dataset_header_and_load(tmp_path):
    cfg = SceneConfig(seed=12)
    subjects = make_subjects(2, seed=12)
    path = tmp_path / "ds.jsonl"
    stats = generate_dataset(cfg, subjects, 30, "general", path)
    assert set(stats) == {"gaze_yaw", "gaze_pitch", "head_yaw", "head_pitch"}

    ds = load_dataset(path)
    assert len(ds) == 60
    assert ds.mode == "general"
    assert ds.subject_ids() == [0, 1]
    assert len(ds.by_subject(1)) == 30
    assert ds.intrinsics == cfg.intrinsics
    header = json.loads(path.read_text().splitlines()[0])
    assert header["config_hash"] == cfg.hash()
    assert header["n_per_subject"] == 30
    assert len(header["subjects"]) == 2


def test_generate_dataset_empty(tmp_path):
    path = tmp_path / "empty.jsonl"
    stats = generate_dataset(SceneConfig(), make_subjects(2, seed=0), 0, "general", path)
    assert stats == {}
    ds = load_dataset(path)
    assert len(ds) == 0
    assert len(path.read_text().splitlines()) == 1  # header only


def test_generate_dataset_bad_mode(tmp_path):
    with pytest.raises(ConfigError):
        generate_dataset(SceneConfig(), [], 1, "test", tmp_path / "x.jsonl")


def test_load_dataset_rejects_bad_files(tmp_path):
    empty = tmp_path / "empty.jsonl"
    empty.write_text("")
    with pytest.raises(ConfigError):
        load_dataset(empty)
    alien = tmp_path / "alien.jsonl"
    alien.write_text('{"something": 1}\n')
    with pytest.raises(ConfigError):
        load_dataset(alien)
    future = tmp_path / "future.jsonl"
    future.write_text('{"schema_version": 99}\n')
    with pytest.raises(ConfigError):
        load_dataset(future)


def without(header, *keys):
    """The header with the nested key keys[0] -> keys[1] -> ... deleted."""
    header = json.loads(json.dumps(header))
    inner = header
    for key in keys[:-1]:
        inner = inner[key]
    del inner[keys[-1]]
    return json.dumps(header)


@pytest.mark.parametrize("edit, message", [
    (lambda h: without(h, "config"), "missing key 'config'"),
    (lambda h: without(h, "config", "intrinsics"), "missing key 'intrinsics'"),
    (lambda h: without(h, "config", "intrinsics", "focal_px"), "missing key 'focal_px'"),
    (lambda h: without(h, "mode"), "missing key 'mode'"),
    (lambda h: json.dumps({**h, "mode": "test"}), "unknown mode 'test'"),
    (lambda h: json.dumps({**h, "config": []}), "list indices must be integers"),
    (lambda h: '{"schema_version": 1, "mode": ', "Expecting value"),
    (lambda h: "[1, 2]", "first line is not a dataset header"),
    (lambda h: json.dumps({**h, "schema_version": 99}), "unsupported schema version 99"),
])
def test_load_dataset_names_a_bad_header(tmp_path, edit, message):
    path = tmp_path / "bad_header.jsonl"
    generate_dataset(SceneConfig(seed=14), make_subjects(1, seed=14), 2, "general", path)
    lines = path.read_text().splitlines()
    lines[0] = edit(json.loads(lines[0]))
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ConfigError) as info:
        load_dataset(path)
    assert str(info.value).startswith(f"{path}:1: ")
    assert message in str(info.value)


def write_with_bad_row(path, edit):
    """A two-row dataset whose second row (file line 3) went through `edit`."""
    generate_dataset(SceneConfig(seed=14), make_subjects(1, seed=14), 2, "general", path)
    lines = path.read_text().splitlines()
    row = json.loads(lines[2])
    lines[2] = edit(row) if callable(edit) else edit
    path.write_text("\n".join(lines) + "\n")
    return path


def drop(key):
    return lambda row: json.dumps({k: v for k, v in row.items() if k != key})


def setting(key, value):
    return lambda row: json.dumps({**row, key: value})


@pytest.mark.parametrize("edit, message", [
    (drop("bbox"), "missing key 'bbox'"),
    (drop("subject"), "missing key 'subject'"),
    (setting("features", [0.1] * 5), "features has 5 values, expected 7"),
    (setting("bbox", [320.0, 240.0]), "bbox has 2 values, expected 3"),
    (setting("o_face", [0.0, 0.0, 600.0, 1.0]), "o_face has 4 values, expected 3"),
    (setting("r_on", [0.0]), "r_on has 1 values, expected 2"),
    (setting("g_n", None), "has no len()"),
    (setting("features", [float("nan")] + [0.1] * 6), "non-finite value NaN"),
    (setting("pogz", [float("inf"), 0.0]), "non-finite value Infinity"),
    (setting("g_o", [0.0, float("-inf")]), "non-finite value -Infinity"),
    (setting("bbox", ["a", 1.0, 2.0]), "could not convert string to float"),
    (setting("features", [10**400] + [0.1] * 6), "int too large to convert to float"),
    (setting("features", [[0.1]] * 7), "features must be a flat list of 7 numbers"),
    (setting("subject", "3"), "subject must be an integer id, got '3'"),
    (setting("subject", 1.7), "subject must be an integer id, got 1.7"),
    (setting("subject", True), "subject must be an integer id, got True"),
    (setting("r_on", [True, 0.0]), "r_on must be a flat list of 2 numbers"),
    (setting("g_n", ["0.1", 0.2]), "g_n must be a flat list of 2 numbers"),
    (setting("pogz", [None, 0.0]), "pogz must be a flat list of 2 numbers"),
    ('{"features": [0.1,', "Expecting value"),
    ("[1, 2]", "row is not a JSON object"),
])
def test_load_dataset_names_the_bad_row(tmp_path, edit, message):
    path = write_with_bad_row(tmp_path / "bad.jsonl", edit)
    with pytest.raises(ConfigError) as info:
        load_dataset(path)
    assert str(info.value).startswith(f"{path}:3: ")
    assert message in str(info.value)


VECTOR_LENGTHS = {"features": 7, "g_n": 2, "g_o": 2, "pogz": 2, "r_on": 2, "o_face": 3}
_FUZZ_CFG = SceneConfig(seed=15)
VALID_HEADER = dataset_header(_FUZZ_CFG, [Subject(0)], 1, "general")
VALID_ROW = sample_frame(Subject(0), _FUZZ_CFG, frame_rng(15, 0, 0)).to_dict()


@FUZZ
@given(field=st.sampled_from(sorted(VALID_ROW)), value=json_values)
def test_load_dataset_loads_a_fuzzed_row_or_names_it(fuzz_dir, field, value):
    """A row with one field replaced by any JSON value loads with every vector
    field a finite (n,) array and a JSON integer subject, or is a ConfigError
    naming its line."""
    path = fuzz_dir / "fuzzed_row.jsonl"
    row = {**VALID_ROW, field: value}
    path.write_text(json.dumps(VALID_HEADER) + "\n" + json.dumps(row) + "\n")
    try:
        sample = load_dataset(path).samples[0]
    except ConfigError as exc:
        assert str(exc).startswith(f"{path}:2: ")
        return
    for key, n in VECTOR_LENGTHS.items():
        vec = getattr(sample, key)
        assert vec.shape == (n,) and vec.dtype == float and np.isfinite(vec).all(), (key, vec)
    assert all(type(v) is float for v in sample.bbox.to_list())
    assert type(row["subject"]) is int and sample.subject == row["subject"]


def header_fields(header, prefix=()):
    """The key path of every field of `header`, nested objects' fields included."""
    for key, value in header.items():
        yield prefix + (key,)
        if isinstance(value, dict):
            yield from header_fields(value, prefix + (key,))


def replaced(doc, keys, value):
    """A copy of `doc` with the field at the key path `keys` set to `value`."""
    doc = json.loads(json.dumps(doc))
    inner = doc
    for key in keys[:-1]:
        inner = inner[key]
    inner[keys[-1]] = value
    return doc


@FUZZ
@given(field=st.sampled_from(sorted(header_fields(VALID_HEADER))), value=json_values)
def test_load_dataset_loads_a_fuzzed_header_or_names_it(fuzz_dir, field, value):
    """A header with one field, at any depth, replaced by any JSON value loads
    with a known mode and valid intrinsics, or is a ConfigError naming line 1."""
    path = fuzz_dir / "fuzzed_header.jsonl"
    path.write_text(json.dumps(replaced(VALID_HEADER, field, value)) + "\n" + json.dumps(VALID_ROW) + "\n")
    try:
        dataset = load_dataset(path)
    except ConfigError as exc:
        assert str(exc).startswith(f"{path}:1: ")
        return
    assert dataset.mode in ("general", "calibration")
    assert isinstance(dataset.intrinsics, CameraIntrinsics)


def test_attribute_stats_track_targets(tmp_path):
    cfg = SceneConfig(seed=13)
    stats = generate_dataset(cfg, make_subjects(4, seed=13), 500, "general",
                             tmp_path / "big.jsonl")
    for name, dist in [("gaze_yaw", cfg.gaze_yaw), ("gaze_pitch", cfg.gaze_pitch),
                       ("head_yaw", cfg.head_yaw), ("head_pitch", cfg.head_pitch)]:
        assert stats[name]["mean"] == pytest.approx(dist.mean, abs=0.03)
        assert stats[name]["std"] == pytest.approx(dist.std, abs=0.03)


def test_default_intrinsics_shape():
    assert DEFAULT_INTRINSICS.width == 640
    assert DEFAULT_INTRINSICS.height == 480
    assert DEFAULT_INTRINSICS.focal_px == 600.0
