import base64
import copy
import json
import struct
from dataclasses import asdict
from types import SimpleNamespace

import numpy as np
import pytest

import oracles

from gaze6d.camera import BoundingBox, CameraIntrinsics, Point3, backproject
from gaze6d.easy_norm import Rotation3
from gaze6d.errors import MAX_ABS_VALUE, ConfigError, GeometryError, GimbalLockError, TrainingDiverged, from_dict
from gaze6d.model import (TASK_LABELS, TASKS, Adam, Batch, Gradients, LossWeights, ModelParams,
                          MultiTaskOutput, SixDofPrediction, TrainConfig, backward, batch_loss,
                          euler_from_vec, fine_tune, forward, forward_batch,
                          gradient_check, history_to_csv, init_params,
                          load_params, make_gradcheck_batch, predict_6dof,
                          save_params, train, vec_from_euler)
from gaze6d.pogz import RigidTransform
from gaze6d.synth import Dataset, GazeSample, SceneConfig, Subject, frame_rng, sample_frame
from gaze6d.synth import calibration_view, generate_dataset, load_dataset, make_subjects

INTR = CameraIntrinsics(600.0, 320.0, 240.0, 0.005, 640, 480)


# ---------------------------------------------------------------------------
# gaze angle convention


def test_euler_knowns():
    assert np.allclose(euler_from_vec([0.0, 0.0, -1.0]), [0.0, 0.0])
    assert np.allclose(euler_from_vec([0.0, -0.5, -np.sqrt(3) / 2]), [0.0, np.pi / 6])
    assert np.allclose(vec_from_euler([0.0, 0.0]), [0.0, 0.0, -1.0])
    assert np.allclose(vec_from_euler([np.pi / 2, 0.0]), [-1.0, 0.0, 0.0], atol=1e-12)


def test_euler_round_trip():
    rng = np.random.default_rng(40)
    count = 0
    while count < 10_000:
        g = rng.normal(size=3)
        g /= np.linalg.norm(g)
        if g[2] >= -1e-6:  # convention covers camera-facing gaze
            continue
        back = vec_from_euler(euler_from_vec(g))
        assert np.max(np.abs(back - g)) < 1e-12
        count += 1


def test_vec_from_euler_batch_matches_rows_bit_for_bit():
    E = np.random.default_rng(41).uniform(-1.5, 1.5, size=(500, 2))
    rows = np.array([vec_from_euler(e) for e in E])
    assert np.array_equal(vec_from_euler(E), rows)
    assert vec_from_euler(E.reshape(5, 100, 2)).shape == (5, 100, 3)


def test_euler_normalizes_input():
    a = euler_from_vec([0.0, 0.0, -2.0])
    assert np.allclose(a, [0.0, 0.0])


def test_euler_pole_and_zero():
    with pytest.raises(GimbalLockError):
        euler_from_vec([0.0, -1.0, 0.0])
    with pytest.raises(GeometryError):
        euler_from_vec([0.0, 0.0, 0.0])


# ---------------------------------------------------------------------------
# params and config


def test_init_params_deterministic():
    a = init_params(seed=3)
    b = init_params(seed=3)
    assert set(a.arrays) == set(b.arrays)
    for k in a.arrays:
        assert np.array_equal(a.arrays[k], b.arrays[k])
    c = init_params(seed=4)
    assert any(not np.array_equal(a.arrays[k], c.arrays[k]) for k in a.arrays)


def test_init_depth_bias():
    params = init_params()
    out = forward(params, np.zeros(7))
    # softplus(600) is exactly 600 in double precision
    assert abs(out.face_depth - 600.0) < 1.0  # small weight wiggle around the bias


def test_params_save_load_round_trip(tmp_path):
    params = init_params(seed=9)
    path = tmp_path / "params.json"
    save_params(params, path)
    loaded = load_params(path)
    for k in params.arrays:
        assert np.array_equal(loaded.arrays[k], params.arrays[k])
    blob = json.loads(path.read_text())
    assert blob["format_version"] == 2
    assert set(blob["arrays"]) == set(params.arrays)


def test_params_are_views_of_one_flat_vector():
    params = init_params(seed=9)
    assert params.flat.dtype == np.float64 and params.flat.flags.c_contiguous
    assert params.flat.size == sum(v.size for v in params.arrays.values())
    params.flat[:] = np.arange(params.flat.size)
    # layout order: each layer's weight, then its bias
    assert params.arrays["gaze1_w"].flat[0] == 0.0
    assert params.arrays["head_depth_b"][0] == params.flat.size - 1
    copy = params.copy()
    copy.arrays["fuse_w"][0, 0] = -1.0
    assert params.arrays["fuse_w"][0, 0] != -1.0


def test_stacked_views_alias_the_named_arrays():
    params = init_params(seed=9)
    params.flat[:] = np.arange(params.flat.size)   # each value names its position
    s, a = params.stacks, params.arrays
    for k, enc in enumerate(("gaze", "pose", "box")):
        assert np.array_equal(s["encoder1_b"][k, 0], a[enc + "1_b"])
        assert np.array_equal(s["encoder2_w"][k], a[enc + "2_w"])
        assert np.array_equal(s["encoder2_b"][k, 0], a[enc + "2_b"])
    heads = ("head_go", "head_pogz", "head_r")
    assert np.array_equal(s["joint_w"], np.concatenate([a[h + "_w"] for h in heads]))
    assert np.array_equal(s["joint_b"], np.concatenate([a[h + "_b"] for h in heads]))
    assert all(np.shares_memory(v, params.flat) for v in s.values())


def changed_params(tmp_path, change):
    """(params, params changed in place or made anew) by one of the ways the
    package changes params: an Adam step, load_params, ModelParams.copy and
    then an in-place write to the copy, or gradient_check's flat[i] += h on
    one entry of every array."""
    params = init_params(seed=7)
    forward_batch(params, np.zeros((1, 7)), np.array([[0.0, 0.0, 1.0]]))   # the views are in use before
    if change == "Adam.step":
        opt = Adam(params, lr=1e-2)
        grads, _, _ = backward(params, make_gradcheck_batch(params, seed=2), LossWeights())
        opt.step(grads.flat)
        return params
    if change == "load_params":
        other = init_params(seed=8)
        save_params(other, tmp_path / "p.json")
        return load_params(tmp_path / "p.json")   # written into its arrays after they are made
    if change == "copy":
        tuned = params.copy()
        tuned.flat += np.random.default_rng(0).normal(0.0, 0.1, size=tuned.flat.size)
        return tuned
    positions = ModelParams(np.arange(float(params.flat.size)))   # each value names its index in flat
    for view in positions.arrays.values():
        params.flat[int(view.flat[0])] += 0.25
    return params


@pytest.mark.parametrize("change", ["Adam.step", "load_params", "copy", "flat[i] += h"])
def test_the_transposed_weight_views_alias_flat(tmp_path, change):
    """forward_batch multiplies by ModelParams.transposed, kept from
    __post_init__; after each change it gives the bits of a forward through
    params built afresh from a copy of `flat`, at 1, 8 and 128 rows."""
    params = changed_params(tmp_path, change)
    assert all(np.shares_memory(v, params.flat) for v in params.transposed.values())
    fresh = ModelParams(params.flat.copy())
    rng = np.random.default_rng(5)
    for n in (1, 8, 128):
        features = rng.normal(0.0, 0.6, size=(n, 7))
        ray = np.column_stack([rng.uniform(-0.3, 0.3, size=(n, 2)), np.ones(n)])
        got, want = forward_batch(params, features, ray), forward_batch(fresh, features, ray)
        for key in ("preds", "d_raw", "depth", "H1", "E", "Epos"):
            assert same_bits(got[key], want[key]), (change, n, key)


def trained_params(tmp_path):
    params, _ = train(TrainConfig(epochs=1, batch_size=8, seed=0),
                      make_dataset(tmp_path, n_subjects=1, n_frames=10))
    params.arrays["fuse_b"][:3] = (-0.0, 5e-324, -1.7976931348623157e308)   # sign, subnormal, extreme
    return params


def test_save_params_bytes_match_the_struct_base64_writer(tmp_path):
    params = trained_params(tmp_path)
    save_params(params, tmp_path / "new.json")
    oracles.params_json_base64(params, tmp_path / "ref.json")
    assert (tmp_path / "new.json").read_bytes() == (tmp_path / "ref.json").read_bytes()
    # any value is written; one beyond MAX_ABS_VALUE in magnitude is refused on
    # load, so the extreme that loads, bit for bit, is the bound itself
    with pytest.raises(ConfigError, match=r": array fuse_b values must be at most 1e\+09 in magnitude, "
                                          r"got -1\.7976931348623157e\+308$"):
        load_params(tmp_path / "new.json")
    params.arrays["fuse_b"][2] = -MAX_ABS_VALUE
    save_params(params, tmp_path / "new.json")
    assert same_bits(load_params(tmp_path / "new.json").flat, params.flat)


def test_format_1_params_files_are_refused(tmp_path):
    params = trained_params(tmp_path)
    oracles.params_json_per_float(params, tmp_path / "format1.json")
    assert json.loads((tmp_path / "format1.json").read_text())["format_version"] == 1
    with pytest.raises(ConfigError) as info:
        load_params(tmp_path / "format1.json")
    assert str(info.value) == f"{tmp_path / 'format1.json'}: unsupported params format 1"


def write_params_doc(path, edit):
    """Save init params, apply `edit` to the parsed document, write it back."""
    save_params(init_params(seed=9), path)
    doc = json.loads(path.read_text())
    edit(doc)
    path.write_text(json.dumps(doc))
    return path


def payload(values) -> str:
    return base64.b64encode(struct.pack(f"<{len(values)}d", *values)).decode()


def edit_values(doc, name, edit):
    """Apply `edit` to the list of values of array `name` in a format-2 document."""
    raw = base64.b64decode(doc["arrays"][name]["data"])
    values = list(struct.unpack(f"<{len(raw) // 8}d", raw))
    edit(values)
    doc["arrays"][name]["data"] = payload(values)


@pytest.mark.parametrize("edit, message", [
    # arrays are 32 wide, the config says 16
    (lambda d: d["model_config"].update(hidden=16), "model_config hidden is 16; the model's is 32"),
    (lambda d: d["arrays"].pop("fuse_b"), "missing ['fuse_b']"),
    (lambda d: d["arrays"].update(extra_w=d["arrays"]["fuse_b"]), "unexpected ['extra_w']"),
    (lambda d: edit_values(d, "head_r_b", list.pop), "head_r_b has shape [2] and 1 values"),
    (lambda d: edit_values(d, "head_gn_w", lambda v: v.__setitem__(3, float("nan"))),
     "head_gn_w has non-finite"),
    (lambda d: edit_values(d, "box1_b", lambda v: v.__setitem__(0, float("inf"))), "box1_b has non-finite"),
    # json.dumps writes NaN, which the reader refuses as it parses
    pytest.param(lambda d: d["model_config"].update(pogz_gain=float("nan")), "non-finite value NaN",
                 id="<lambda>-model_config pogz_gain is nan"),
    (lambda d: d["model_config"].update(width=3), "width"),
    (lambda d: d["model_config"].pop("depth_bias"), "model_config lacks 'depth_bias'"),
    (lambda d: d.pop("arrays"), "missing key 'arrays'"),
    (lambda d: d.update(format_version=3), "unsupported params format 3"),
])
def test_load_params_rejects_what_the_layout_does_not_hold(tmp_path, edit, message):
    path = write_params_doc(tmp_path / "params.json", edit)
    with pytest.raises(ConfigError) as info:
        load_params(path)
    assert str(info.value).startswith(f"{path}: ")
    assert message in str(info.value)


def set_data(doc, name, data):
    doc["arrays"][name]["data"] = data


@pytest.mark.parametrize("edit, message", [
    pytest.param(lambda d: set_data(d, "fuse_b", "*" + d["arrays"]["fuse_b"]["data"][1:]),
                 "array fuse_b: Only base64 data is allowed", id="bad-base64"),
    pytest.param(lambda d: set_data(d, "fuse_b", d["arrays"]["fuse_b"]["data"][:-1]),
                 "array fuse_b: Incorrect padding", id="cut-base64"),
    pytest.param(lambda d: set_data(d, "fuse_b", base64.b64encode(bytes(251)).decode()),
                 "array fuse_b: 251 bytes, not a whole number of float64 values", id="partial-value"),
    pytest.param(lambda d: edit_values(d, "fuse_b", lambda v: v.append(0.0)),
                 "array fuse_b has shape [32] and 33 values", id="8-bytes-long"),
    pytest.param(lambda d: edit_values(d, "fuse_b", list.pop),
                 "array fuse_b has shape [32] and 31 values", id="8-bytes-short"),
    pytest.param(lambda d: edit_values(d, "gaze2_w", lambda v: v.__setitem__(5, float("-inf"))),
                 "array gaze2_w has non-finite values", id="inf-bytes"),
    pytest.param(lambda d: set_data(d, "head_go_b", payload([1.0, float("nan")])),
                 "array head_go_b has non-finite values", id="nan-bytes"),
    pytest.param(lambda d: d["arrays"]["head_go_b"].update(shape=[1, 2]),
                 "array head_go_b has shape [1, 2] and 2 values, the model needs shape [2]", id="shape"),
    pytest.param(lambda d: set_data(d, "head_go_b", [1.0, 2.0]),
                 "array head_go_b: argument should be a bytes-like object or ASCII string",
                 id="a-list-in-format-2"),
    pytest.param(lambda d: d.update(format_version=1), "unsupported params format 1", id="base64-in-format-1"),
])
def test_load_params_rejects_a_bad_format_2_payload(tmp_path, edit, message):
    path = write_params_doc(tmp_path / "params.json", edit)
    with pytest.raises(ConfigError) as info:
        load_params(path)
    assert str(info.value).startswith(f"{path}: {message}")


def zero_params():
    params = init_params(seed=0)
    for arr in params.arrays.values():
        arr[:] = 0.0
    return params


def test_zero_params_zero_heads():
    out = forward(zero_params(), np.ones(7))
    assert np.all(out.g_n == 0.0)
    assert np.all(out.g_o == 0.0)
    assert np.all(out.pogz == 0.0)
    assert np.all(out.r_on == 0.0)
    assert out.face_depth == pytest.approx(np.log(2.0))  # softplus(0)


def test_forward_shape_check():
    with pytest.raises(ConfigError):
        forward(init_params(), np.zeros(5))


def test_dataflow_isolation():
    # the directional head must not see positional inputs
    params = init_params(seed=1)
    f = np.array([0.3, -0.2, 0.5, 0.1, 0.4, 0.6, 0.2])
    base = forward(params, f)
    for i in range(2, 7):
        g = f.copy()
        g[i] += 0.37
        out = forward(params, g)
        assert np.array_equal(out.g_n, base.g_n)
    # and it must react to directional inputs
    g = f.copy()
    g[0] += 0.01
    assert not np.array_equal(forward(params, g).g_n, base.g_n)


def test_positional_heads_react_to_position():
    params = init_params(seed=2)
    f = np.array([0.3, -0.2, 0.5, 0.1, 0.4, 0.6, 0.2])
    base = forward(params, f)
    g = f.copy()
    g[4] += 0.1
    out = forward(params, g)
    assert not np.array_equal(out.g_o, base.g_o)
    assert out.face_depth != base.face_depth


# ---------------------------------------------------------------------------
# loss


def one_row_batch(offsets=None):
    """Params and a one-row batch whose labels sit at `offsets` from
    forward_batch's predictions (at the predictions when offsets is None)."""
    params = init_params(seed=1)
    features = np.array([[0.3, -0.2, 0.5, 0.1, 0.4, 0.6, 0.2]])
    ray = np.array([[0.1, -0.05, 1.0]])
    c = forward_batch(params, features, ray)
    offsets = offsets or {}
    labels = np.concatenate([c[t] + offsets.get(t, 0.0) for t in TASKS], axis=1)
    return params, Batch(features, ray, labels, np.ones((1, len(TASKS))))


# errors of exactly 1 per task, signs mixed; pogz is measured in gain units (500 mm)
UNIT_OFFSETS = {"g_n": np.array([1.0, -1.0]), "g_o": np.array([-1.0, -1.0]),
                "pogz": np.array([500.0, -500.0]), "r_on": np.array([1.0, 1.0]),
                "face": np.array([-1.0, 1.0, 1.0])}


def test_loss_zero_at_labels():
    params, batch = one_row_batch()
    total, terms = batch_loss(params, batch, LossWeights())
    assert total == 0.0
    assert all(v == 0.0 for v in terms.values())


def test_loss_unit_errors_weighted_sum():
    params, batch = one_row_batch(UNIT_OFFSETS)
    total, terms = batch_loss(params, batch, LossWeights())
    assert total == pytest.approx(2.2, abs=1e-12)
    assert all(terms[t] == pytest.approx(1.0) for t in TASKS)


def test_loss_weights_array_is_every_weight_in_task_order_read_only():
    w = LossWeights(g_n=0.7, g_o=0.3, pogz=0.0, r_on=1.1, face=0.2)
    assert w.array.tolist() == [0.7, 0.3, 0.0, 1.1, 0.2] == [getattr(w, t) for t in TASKS]
    with pytest.raises(ValueError):
        w.array[0] = 1.0
    assert w == LossWeights(g_n=0.7, g_o=0.3, pogz=0.0, r_on=1.1, face=0.2) and "array" not in asdict(w)


def test_loss_decomposition_exact():
    w = LossWeights(g_n=0.7, g_o=0.3, pogz=0.05, r_on=1.1, face=0.2)
    params, batch = one_row_batch(UNIT_OFFSETS)
    total, terms = batch_loss(params, batch, w)
    recomputed = sum(getattr(w, t) * terms[t] for t in TASKS)
    assert abs(total - recomputed) < 1e-12


def test_loss_ablated_task_contributes_zero():
    params, batch = one_row_batch(UNIT_OFFSETS)
    total, terms = batch_loss(params, batch, LossWeights(pogz=0.0))
    assert total == pytest.approx(2.1, abs=1e-12)
    assert terms["pogz"] == pytest.approx(1.0)  # error still reported


def test_loss_missing_labels_masked():
    params, batch = one_row_batch(UNIT_OFFSETS)
    for task in TASKS:
        if task != "g_n":
            batch.mask[:, TASKS.index(task)] = 0.0
    total, terms = batch_loss(params, batch, LossWeights())
    assert total == pytest.approx(1.0)
    assert terms["g_o"] == 0.0 and terms["face"] == 0.0


# ---------------------------------------------------------------------------
# gradients


def test_gradient_check_random_restarts():
    for seed in range(3):
        params = init_params(seed=seed)
        batch = make_gradcheck_batch(params, seed=seed, n=4)
        assert gradient_check(params, batch, LossWeights()) < 1e-4


def test_gradients_zero_for_frozen_heads():
    params = init_params(seed=5)
    batch = make_gradcheck_batch(params, seed=5, n=4)
    w = LossWeights(pogz=0.0)
    grads, _, _ = backward(params, batch, w)
    assert np.all(grads["head_pogz_w"] == 0.0)
    assert np.all(grads["head_pogz_b"] == 0.0)


def test_gradients_zero_for_masked_task():
    params = init_params(seed=6)
    batch = make_gradcheck_batch(params, seed=6, n=4)
    batch.mask[:, TASKS.index("face")] = 0.0
    grads, _, terms = backward(params, batch, LossWeights())
    assert terms["face"] == 0.0
    assert np.all(grads["head_depth_w"] == 0.0)
    assert np.all(grads["head_depth_b"] == 0.0)


def test_gradient_at_exact_labels_is_zero_for_heads():
    # sign(0) = 0: sitting on every kink produces no update pressure
    params = zero_params()
    n = 3
    batch = Batch(
        features=np.zeros((n, 7)),
        ray=np.tile([0.0, 0.0, 1.0], (n, 1)),
        # g_n, g_o, pogz and r_on at 0, the face point at depth log 2 on the ray
        labels=np.tile([0.0] * 8 + [0.0, 0.0, np.log(2.0)], (n, 1)),
        mask=np.ones((n, len(TASKS))),
    )
    grads, total, _ = backward(params, batch, LossWeights())
    assert total == 0.0
    assert all(np.all(g == 0.0) for g in grads.values())


def random_loss_batch(rng):
    """Params, a batch of 1 to 200 rows with random labels (about a tenth of
    them exactly on the prediction) and random per-task masks whose
    labelled-row rates run from 0 to 1, and the batch's forward cache."""
    params = init_params(seed=int(rng.integers(0, 5)))
    n = int(rng.integers(1, 201))
    features = rng.normal(0.0, 0.6, size=(n, 7))
    ray = np.column_stack([rng.uniform(-0.3, 0.3, size=(n, 2)), np.ones(n)])
    c = forward_batch(params, features, ray)
    preds = np.concatenate([c[t] for t in TASKS], axis=1)
    spread = np.array([1.0, 1.0, 1.0, 1.0, 300.0, 300.0, 1.0, 1.0, 50.0, 50.0, 50.0])
    labels = preds + rng.normal(size=preds.shape) * spread
    exact = rng.random(preds.shape) < 0.1
    labels[exact] = preds[exact]
    mask = (rng.random((n, len(TASKS))) < rng.uniform(0.0, 1.0, size=len(TASKS))).astype(float)
    mask[:, rng.random(len(TASKS)) < 0.15] = 0.0
    return params, Batch(features, ray, labels, mask), c


def same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return np.array_equal(a, b, equal_nan=True) and np.array_equal(np.signbit(a), np.signbit(b))


def test_loss_and_gradients_match_the_per_task_reference_bit_for_bit():
    rng = np.random.default_rng(2024)
    for i in range(1000):
        params, batch, c = random_loss_batch(rng)
        weights = LossWeights()
        if i % 2:
            zeroed = TASKS[i // 2 % len(TASKS)]
            weights = LossWeights(**{**asdict(weights), zeroed: 0.0})
            if i % 4 == 3:
                # a NaN residual in the zero-weight task: its head still gets exactly 0
                rows = rng.random(len(batch)) < 0.3
                batch.labels[rows, TASK_LABELS[zeroed][1]] = np.nan
        labels, masks = oracles.split_labels(batch.labels, batch.mask)
        ref_grads, ref_total, ref_terms = oracles.reference_backward(
            params, c, batch.ray, labels, masks, weights)

        total, terms = batch_loss(params, batch, weights)
        grads, g_total, g_terms = backward(params, batch, weights)
        assert type(total) is float and same_bits(total, ref_total) and same_bits(g_total, ref_total), i
        ref_row = [ref_terms[t] for t in TASKS]
        assert same_bits([terms[t] for t in TASKS], ref_row), i
        assert same_bits([g_terms[t] for t in TASKS], ref_row), i
        assert set(grads) == set(ref_grads)
        for name, ref in ref_grads.items():
            assert same_bits(grads[name], ref), (i, name)


# every prediction, and every forward entry that reference_backward reads
FORWARD_KEYS = ("Xd", "Xp", "Xb", "G1", "P1", "B1", "Ed", "Ep", "Eb", "Cpb", "Epos", "C",
                "d_raw", "depth") + TASKS


def test_forward_batch_matches_the_per_layer_reference_bit_for_bit():
    rng = np.random.default_rng(2025)
    for i in range(1000):
        params = init_params(seed=int(rng.integers(0, 5)))
        params.flat += rng.normal(0.0, rng.uniform(0.0, 0.5), size=params.flat.size)
        n = int(rng.integers(1, 201))
        features = rng.normal(0.0, rng.choice([0.6, 5.0]), size=(n, 7))
        ray = np.column_stack([rng.uniform(-0.3, 0.3, size=(n, 2)), np.ones(n)])
        c = forward_batch(params, features, ray)
        ref = oracles.reference_forward(params, features, ray)
        for key in FORWARD_KEYS:
            assert same_bits(c[key], ref[key]), (i, key)


def reference_fine_tune(params, cfg, data):
    """fine_tune's loop over the same permutations, through reference_forward,
    reference_backward and the per-array Adam; returns the tuned arrays."""
    arrays = {k: v.copy() for k, v in params.arrays.items()}   # separate arrays, no flat vector
    ref = SimpleNamespace(arrays=arrays)
    opt = oracles.PerArrayAdam(arrays, lr=cfg.finetune_lr)
    rng = np.random.default_rng(cfg.seed)
    n, size = len(data), cfg.finetune_batch
    batches = (n + size - 1) // size
    epochs = (cfg.finetune_steps + batches - 1) // batches
    steps = 0
    for _ in range(epochs):
        perm = rng.permutation(n)
        for lo in range(0, n, size):
            if steps == cfg.finetune_steps:
                break
            idx = perm[lo:lo + size]
            labels, masks = oracles.split_labels(data.labels[idx], data.mask[idx])
            c = oracles.reference_forward(ref, data.features[idx], data.ray[idx])
            grads, _, _ = oracles.reference_backward(ref, c, data.ray[idx], labels, masks, cfg.weights)
            opt.step(arrays, grads)
            steps += 1
    assert steps == cfg.finetune_steps
    return arrays


def test_batch_from_samples_matches_the_per_row_reference_bit_for_bit(tmp_path):
    general = make_dataset(tmp_path, n_subjects=2, n_frames=20)
    lens = make_dataset(tmp_path, n_subjects=1, n_frames=10, mode="calibration")
    samples = general.samples + calibration_view(lens.samples, lens.intrinsics)
    # drop each label from a random third of the rows: every mix of present and absent tasks
    rng = np.random.default_rng(11)
    for s in samples:
        for attr, _ in TASK_LABELS.values():
            if rng.uniform() < 1 / 3:
                setattr(s, attr, None)
    order = rng.permutation(len(samples))
    samples = [samples[i] for i in order]
    assert 0 < Batch.from_samples(samples, general.intrinsics).mask.mean() < 1
    for rows in (samples, samples[:1], []):
        batch = Batch.from_samples(rows, general.intrinsics)
        ref = oracles.reference_batch_rows(rows, general.intrinsics)
        for got, want in zip((batch.features, batch.ray, batch.labels, batch.mask), ref):
            assert got.shape == want.shape and same_bits(got, want)


@pytest.mark.parametrize("cfg", [TrainConfig(), TrainConfig(finetune_lr=1e-3, seed=3)],
                         ids=["defaults", "lr-1e-3"])
def test_fine_tune_matches_the_per_layer_reference_loop_bit_for_bit(tmp_path, cfg):
    ds = make_dataset(tmp_path, n_subjects=1, n_frames=50, mode="calibration")
    rows = calibration_view(ds.samples, ds.intrinsics)
    data = Batch.from_samples(rows, ds.intrinsics)
    # lens-fixation rows carry g_n and g_o only
    assert data.mask[:, :2].all() and not data.mask[:, 2:].any()
    params = init_params(seed=4)
    tuned = fine_tune(params, cfg, rows, ds.intrinsics)
    ref = reference_fine_tune(params, cfg, data)
    assert not np.array_equal(tuned.flat, params.flat)
    for name, array in ref.items():
        assert np.array_equal(tuned.arrays[name], array), name


def test_backward_fills_every_entry_of_a_reused_buffer():
    params = init_params(seed=3)
    buffer = Gradients()
    for i, n in enumerate((8, 3, 8, 1)):   # scratch arrays of one shape, reused after another's
        batch = make_gradcheck_batch(params, seed=i, n=n)
        buffer.flat[:] = np.nan
        for scratch in buffer.work.values():
            scratch[...] = np.nan
        grads, total, terms = backward(params, batch, LossWeights(), out=buffer)
        fresh, fresh_total, fresh_terms = backward(params, batch, LossWeights())
        assert grads is buffer and fresh is not buffer
        assert same_bits(buffer.flat, fresh.flat)
        assert total == fresh_total and terms == fresh_terms


TASK_HEADS = {"g_n": "head_gn", "g_o": "head_go", "pogz": "head_pogz",
              "r_on": "head_r", "face": "head_depth"}


@pytest.mark.parametrize("weights", [LossWeights(), LossWeights(pogz=0.0)])
def test_adam_matches_per_array_reference(weights):
    # the reference skips the zero-weight heads outright; the package Adam
    # updates every entry, and must leave those heads bit-equal anyway
    params = init_params(seed=5)
    batch = make_gradcheck_batch(params, seed=1)
    frozen = {TASK_HEADS[t] + s for t in TASKS if getattr(weights, t) == 0.0 for s in ("_w", "_b")}
    ref = {k: v.copy() for k, v in params.arrays.items()}
    ref_opt = oracles.PerArrayAdam(ref, lr=1e-2)
    opt = Adam(params, lr=1e-2)
    for _ in range(20):
        grads, _, _ = backward(params, batch, weights)
        opt.step(grads.flat)
        ref_params = ModelParams(np.concatenate([a.reshape(-1) for a in ref.values()]))
        ref_grads, _, _ = backward(ref_params, batch, weights)
        ref_opt.step(ref, ref_grads, frozen)
        for k in ref:
            assert np.array_equal(params.arrays[k], ref[k]), k
    untouched = init_params(seed=5)
    for k in params.arrays:
        assert np.array_equal(params.arrays[k], untouched.arrays[k]) == (k in frozen), k


# ---------------------------------------------------------------------------
# training


def make_dataset(tmp_path, n_subjects=3, n_frames=40, seed=0, kappa_range=0.0,
                 noise_sigma=0.035, mode="general"):
    cfg = SceneConfig(seed=seed)
    subjects = make_subjects(n_subjects, seed=seed, kappa_range=kappa_range,
                             noise_sigma=noise_sigma)
    path = tmp_path / f"ds_{mode}_{seed}.jsonl"
    generate_dataset(cfg, subjects, n_frames, mode, path)
    return load_dataset(path)


def test_train_empty_dataset_rejected():
    ds = oracles.dataset_from_samples({"mode": "general", "config": asdict(SceneConfig())}, [])
    with pytest.raises(ConfigError):
        train(TrainConfig(epochs=1), ds)


def test_train_config_rejects_a_negative_seed():
    with pytest.raises(ConfigError, match="seed must be >= 0, got -1"):
        TrainConfig(seed=-1)
    with pytest.raises(ConfigError, match="seed must be >= 0"):
        from_dict(TrainConfig, {**asdict(TrainConfig()), "seed": -2}, "train")


def test_train_lr_zero_leaves_params_at_init(tmp_path):
    ds = make_dataset(tmp_path, n_subjects=1, n_frames=10)
    cfg = TrainConfig(lr=0.0, epochs=1, batch_size=4, seed=0)
    params, history = train(cfg, ds)
    init = init_params(seed=0)
    for k in params.arrays:
        assert np.array_equal(params.arrays[k], init.arrays[k])
    assert len(history) == 1


def test_train_deterministic(tmp_path):
    ds = make_dataset(tmp_path, n_subjects=2, n_frames=30)
    cfg = TrainConfig(epochs=3, batch_size=16, seed=1)
    p1, h1 = train(cfg, ds)
    p2, h2 = train(cfg, ds)
    for k in p1.arrays:
        assert np.array_equal(p1.arrays[k], p2.arrays[k])
    assert h1 == h2


def test_train_reduces_loss(tmp_path):
    ds = make_dataset(tmp_path, n_subjects=3, n_frames=60)
    cfg = TrainConfig(epochs=10, batch_size=32, seed=2)
    params, history = train(cfg, ds)
    assert history[-1].train_loss < history[0].train_loss
    assert history[-1].val_angular_deg < history[0].val_angular_deg


def test_divergence_detected(tmp_path):
    # a non-finite loss must abort the shared optimization loop
    ds = make_dataset(tmp_path, n_subjects=1, n_frames=10)
    poisoned = init_params(seed=0)
    poisoned.arrays["head_gn_b"][0] = np.nan
    cfg = TrainConfig(finetune_steps=1, finetune_batch=4, seed=0)
    with pytest.raises(TrainingDiverged) as info:
        fine_tune(poisoned, cfg, ds.samples, ds.intrinsics)
    # the message names where it happened and the poisoned head's task only
    assert str(info.value).startswith("non-finite loss at epoch 0, step 0 ")
    assert str(info.value).endswith("task terms: g_n")


def test_inf_feature_gradients_stop_training(tmp_path):
    # tanh saturates on an inf feature, so the loss stays finite, but the
    # first layer's weight gradient is 0 * inf = NaN
    ds = make_dataset(tmp_path, n_subjects=1, n_frames=6)
    params = init_params(seed=0)
    batch = Batch.from_samples(ds.samples, ds.intrinsics)
    batch.features[2, 0] = np.inf
    ds.samples[2].features[0] = np.inf
    cfg = TrainConfig(finetune_steps=3, finetune_batch=8, seed=0)
    with np.errstate(invalid="ignore"):
        grads, total, _ = backward(params, batch, LossWeights())
        assert np.isfinite(total)
        assert [k for k, g in grads.items() if not np.isfinite(g).all()] == ["gaze1_w"]
        with pytest.raises(TrainingDiverged) as info:
            fine_tune(params, cfg, ds.samples, ds.intrinsics)
    assert str(info.value) == ("non-finite gradients at epoch 0, step 0 (batch offset 0), "
                               "arrays: gaze1_w")


def test_val_split_is_last_fraction_per_subject(tmp_path):
    ds = make_dataset(tmp_path, n_subjects=2, n_frames=20)
    from gaze6d.model import _split_rows
    # the subjects interleaved in file order
    subjects = ds.subjects[np.random.default_rng(5).permutation(len(ds))]
    train_rows, val_rows = _split_rows(subjects, 0.1)
    # subject by subject in id order, each subject's rows in file order, its last two for validation
    per_subject = [np.flatnonzero(subjects == sid) for sid in (0, 1)]
    assert np.array_equal(train_rows, np.concatenate([rows[:-2] for rows in per_subject]))
    assert np.array_equal(val_rows, np.concatenate([rows[-2:] for rows in per_subject]))


def test_history_csv_format():
    from gaze6d.model import EpochStats
    text = history_to_csv([EpochStats(0, 1.5, 2.5, 10.0)])
    lines = text.splitlines()
    assert lines[0] == "epoch,train_loss,val_loss,val_angular_deg"
    assert lines[1].startswith("0,1.5,2.5,10.0")


# ---------------------------------------------------------------------------
# fine-tuning


def test_fine_tune_empty_returns_copy():
    params = init_params(seed=8)
    tuned = fine_tune(params, TrainConfig(), [], INTR)
    assert tuned is not params
    for k in params.arrays:
        assert np.array_equal(tuned.arrays[k], params.arrays[k])
        assert tuned.arrays[k] is not params.arrays[k]


def test_fine_tune_rejects_mixed_subjects(tmp_path):
    ds = make_dataset(tmp_path, n_subjects=2, n_frames=5, mode="calibration")
    with pytest.raises(ConfigError):
        fine_tune(init_params(), TrainConfig(), ds.samples, ds.intrinsics)


def test_fine_tune_moves_toward_calibration_labels(tmp_path):
    ds = make_dataset(tmp_path, n_subjects=1, n_frames=20, mode="calibration",
                      kappa_range=0.0, noise_sigma=0.0)
    base = init_params(seed=0)
    cfg = TrainConfig(finetune_lr=1e-3, finetune_steps=90, finetune_batch=8, seed=0)
    tuned = fine_tune(base, cfg, ds.samples, ds.intrinsics)
    batch = Batch.from_samples(ds.samples, ds.intrinsics)
    before, _ = batch_loss(base, batch, LossWeights())
    after, _ = batch_loss(tuned, batch, LossWeights())
    assert after < before


# ---------------------------------------------------------------------------
# 6-DoF assembly


def oracle_params_for(sample):
    """Constant heads emitting this sample's exact labels."""
    params = zero_params()
    a = params.arrays
    a["head_gn_b"][:] = sample.g_n
    a["head_go_b"][:] = sample.g_o
    a["head_pogz_b"][:] = sample.pogz / oracles.REFERENCE_POGZ_GAIN
    a["head_r_b"][:] = sample.r_on
    a["head_depth_b"][:] = sample.o_face[2]  # softplus is exact at this scale
    return params


def test_predict_6dof_oracle_params_recovers_labels():
    cfg = SceneConfig(seed=21)
    for i in range(50):
        s = sample_frame(Subject(id=0), cfg, frame_rng(cfg.seed, 0, i))
        pred = predict_6dof(oracle_params_for(s), s.features, s.bbox, cfg.intrinsics)
        assert np.max(np.abs(pred.origin.xyz - s.o_face)) < 1e-6
        assert np.max(np.abs(pred.direction - vec_from_euler(s.g_o))) < 1e-6
        assert np.max(np.abs(pred.pogz.xy - s.pogz)) < 1e-6
        assert pred.pogz_geometric is not None
        assert np.max(np.abs(pred.pogz_geometric.xy - s.pogz)) < 1e-6


def test_predict_6dof_on_axis_origin():
    params = zero_params()
    params.arrays["head_depth_b"][:] = 700.0
    pred = predict_6dof(params, np.zeros(7), BoundingBox(320.0, 240.0, 100.0), INTR)
    assert np.allclose(pred.origin.xyz, [0.0, 0.0, 700.0])


def test_predict_6dof_names_a_depth_underflow():
    params = init_params(seed=0)
    params.arrays["head_depth_b"][:] = -800.0   # softplus rounds to 0 below about -745
    d_raw = forward_batch(params, np.zeros((1, 7)), np.array([[0.0, 0.0, 1.0]]))["d_raw"][0, 0]
    with pytest.raises(GeometryError) as err:
        predict_6dof(params, np.zeros(7), BoundingBox(320.0, 240.0, 100.0), INTR)
    assert str(err.value) == (f"predicted face depth is not positive: the depth head's raw "
                              f"output {d_raw!r} gives softplus 0.0")


def test_predict_6dof_is_one_forward_batch_pass_on_its_row_bit_for_bit(tmp_path):
    """predict_6dof's origin, direction and pogz are the bits of forward_batch
    on its one row with that row's Batch ray: the origin is the face point
    training fits, ray * depth, not (u - cx) * depth / f, which differs from
    it by up to 2 ulps.  (A one-row pass need not give an N-row pass's bits.)"""
    ds = make_dataset(tmp_path, n_subjects=3, n_frames=200, seed=5)
    params, _ = train(TrainConfig(epochs=5, batch_size=32, seed=0), ds)
    batch = ds.batch()
    for i, s in enumerate(ds.samples):
        pred = predict_6dof(params, s.features, s.bbox, ds.intrinsics)
        c = forward_batch(params, batch.features[i:i + 1], batch.ray[i:i + 1])
        assert pred.origin.xyz.tobytes() == c["face"][0].tobytes(), i
        assert pred.direction.tobytes() == vec_from_euler(c["g_o"][0]).tobytes(), i
        assert pred.pogz.xy.tobytes() == c["pogz"][0].tobytes(), i


def test_predict_6dof_parallel_ray_flagged():
    params = zero_params()
    # g_o head pinned at pitch 0, yaw pi/2: direction (-1, 0, 0), parallel to the plane
    params.arrays["head_go_b"][:] = np.array([np.pi / 2, 0.0])
    pred = predict_6dof(params, np.zeros(7), BoundingBox(320.0, 240.0, 100.0), INTR)
    assert pred.pogz_geometric is None
    assert pred.pogz is not None


# ---------------------------------------------------------------------------
# classes that hold arrays


def a_sample():
    cfg = SceneConfig(seed=21)
    return sample_frame(Subject(id=0), cfg, frame_rng(cfg.seed, 0, 0))


ARRAY_HOLDERS = {
    Point3: lambda: Point3(np.zeros(3)),
    Rotation3: lambda: Rotation3(np.eye(3)),
    RigidTransform: lambda: RigidTransform(Rotation3(np.eye(3)), np.zeros(3)),
    ModelParams: lambda: init_params(seed=0),
    Batch: lambda: make_gradcheck_batch(init_params(seed=0)),
    MultiTaskOutput: lambda: forward(init_params(seed=0), np.zeros(7)),
    SixDofPrediction: lambda: predict_6dof(init_params(seed=0), np.zeros(7), BoundingBox(320.0, 240.0, 100.0), INTR),
    GazeSample: a_sample,
    Dataset: lambda: oracles.dataset_from_samples({"mode": "general", "config": asdict(SceneConfig())},
                                                  [a_sample()]),
}


@pytest.mark.parametrize("cls", ARRAY_HOLDERS, ids=lambda cls: cls.__name__)
def test_classes_that_hold_arrays_compare_and_hash_by_identity(cls):
    """An instance equals itself and not an equal-valued copy, and hashes,
    where a field-by-field == would ask an array for its truth value."""
    x = ARRAY_HOLDERS[cls]()
    twin = copy.deepcopy(x)
    assert type(x) is cls
    assert x == x and not x != x
    assert not x == twin and x != twin
    assert hash(x) == hash(x) and len({x, twin}) == 2
