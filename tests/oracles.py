"""Independent reference implementations used to cross-check the package.

Everything here is built from different primitives than the code under test:
rotations go through quaternions instead of Rodrigues, plane intersections
solve the general parametric form instead of the z=0 special case.
"""

import base64
import json
import struct

import numpy as np


def quat_from_axis_angle(axis, angle):
    """Unit quaternion (w, x, y, z) for a rotation about a unit axis."""
    axis = np.asarray(axis, dtype=float)
    half = 0.5 * angle
    return np.concatenate([[np.cos(half)], np.sin(half) * axis])


def quat_to_matrix(q):
    """Rotation matrix of a unit quaternion, from the standard expansion."""
    w, x, y, z = q
    return np.array([
        [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
        [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
        [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
    ])


def rotation_matrix_from_axis_angle(axis, angle):
    return quat_to_matrix(quat_from_axis_angle(axis, angle))


def random_rotation(rng):
    """Uniformly random rotation matrix via a random unit quaternion."""
    q = rng.normal(size=4)
    q /= np.linalg.norm(q)
    return quat_to_matrix(q)


def random_unit_vector(rng):
    v = rng.normal(size=3)
    return v / np.linalg.norm(v)


def line_plane_intersection(origin, direction, plane_point, plane_normal):
    """General parametric line-plane intersection; returns the 3-D point.

    Solves (origin + t*direction - plane_point) . normal = 0 for t.
    Returns None when the line is parallel to the plane.
    """
    origin = np.asarray(origin, dtype=float)
    direction = np.asarray(direction, dtype=float)
    plane_point = np.asarray(plane_point, dtype=float)
    plane_normal = np.asarray(plane_normal, dtype=float)
    denom = direction @ plane_normal
    if abs(denom) < 1e-12 * np.linalg.norm(direction) * np.linalg.norm(plane_normal):
        return None
    t = ((plane_point - origin) @ plane_normal) / denom
    return origin + t * direction


def angular_gap_deg(a, b):
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    cosang = np.dot(a, b) / (np.linalg.norm(a) * np.linalg.norm(b))
    return np.degrees(np.arccos(np.clip(cosang, -1.0, 1.0)))


def monte_carlo_noise_floor_deg(sigma, n=200_000, seed=123):
    """Mean angular error caused by iid Gaussian noise on (yaw, pitch).

    This is the best error any regressor can reach on features whose gaze
    channels carry N(0, sigma^2) noise: the prediction target is the clean
    angle pair, the observation is the noisy one.
    """
    rng = np.random.default_rng(seed)
    yaw = rng.uniform(-0.6, 0.6, size=n)
    pitch = rng.uniform(-0.5, 0.5, size=n)
    nyaw = yaw + rng.normal(0.0, sigma, size=n)
    npitch = pitch + rng.normal(0.0, sigma, size=n)

    def vecs(y, p):
        cp = np.cos(p)
        return np.stack([-cp * np.sin(y), -np.sin(p), -cp * np.cos(y)], axis=1)

    va, vb = vecs(yaw, pitch), vecs(nyaw, npitch)
    dots = np.clip(np.sum(va * vb, axis=1), -1.0, 1.0)
    return float(np.degrees(np.arccos(dots)).mean())


class PerArrayAdam:
    """Adam as a loop over named arrays, one small update per array.

    The package's optimizer runs the same per-element expressions once over
    a flat parameter vector; it must match this loop bit for bit.
    """

    def __init__(self, arrays, lr, beta1=0.9, beta2=0.999, eps=1e-8):
        self.lr = lr
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self.t = 0
        self.m = {k: np.zeros_like(v) for k, v in arrays.items()}
        self.v = {k: np.zeros_like(v) for k, v in arrays.items()}

    def step(self, arrays, grads, frozen=frozenset()):
        self.t += 1
        b1c = 1.0 - self.beta1 ** self.t
        b2c = 1.0 - self.beta2 ** self.t
        for k, a in arrays.items():
            if k in frozen:
                continue
            gk = grads[k]
            self.m[k] = self.beta1 * self.m[k] + (1.0 - self.beta1) * gk
            self.v[k] = self.beta2 * self.v[k] + (1.0 - self.beta2) * gk * gk
            a -= self.lr * (self.m[k] / b1c) / (np.sqrt(self.v[k] / b2c) + self.eps)


# the model's fixed architecture, stated here apart from the package: each
# encoder's feature columns, the encoder widths and the pogz head's output gain
REFERENCE_GAZE_IN, REFERENCE_POSE_IN, REFERENCE_BOX_IN = slice(0, 2), slice(2, 4), slice(4, 7)
REFERENCE_EMBED = 32
REFERENCE_POGZ_GAIN = 500.0
REFERENCE_MODEL_CONFIG = {"feature_dim": 7, "dir_lo": 0, "dir_hi": 2, "pose_lo": 2, "pose_hi": 4,
                          "box_lo": 4, "box_hi": 7, "hidden": 32, "embed": 32,
                          "pogz_gain": 500.0, "depth_bias": 600.0}


def params_json_per_float(params, path, **model_config):
    """A params file written one Python float at a time through json.dump,
    its model_config the reference architecture's with `model_config`'s
    entries replaced."""
    doc = {
        "format_version": 1,
        "model_config": {**REFERENCE_MODEL_CONFIG, **model_config},
        "arrays": {
            k: {"shape": list(v.shape), "data": [float(x) for x in v.reshape(-1)]}
            for k, v in params.arrays.items()
        },
    }
    with open(path, "w") as f:
        json.dump(doc, f, sort_keys=True)


def params_json_base64(params, path, **model_config):
    """A format-2 params file: each array's values packed one at a time with
    struct as little-endian doubles, the bytes in base64, the document through
    json.dump; model_config as in params_json_per_float."""
    def payload(v):
        return base64.b64encode(b"".join(struct.pack("<d", float(x)) for x in v.reshape(-1))).decode("ascii")

    doc = {
        "format_version": 2,
        "model_config": {**REFERENCE_MODEL_CONFIG, **model_config},
        "arrays": {k: {"shape": list(v.shape), "data": payload(v)} for k, v in params.arrays.items()},
    }
    with open(path, "w") as f:
        json.dump(doc, f, sort_keys=True)


# ---------------------------------------------------------------------------
# calibration rows and training batches, one row at a time

def _reference_euler(g):
    v = g / np.linalg.norm(g)
    return np.array([np.arctan2(-v[0], -v[2]), np.arcsin(-v[1])])


def reference_calibration_row(px, intr):
    """g_o of one lens-fixation frame from its box centre `px`: the (yaw,
    pitch) of the reversed backprojection ray."""
    k = intr.k_mm_per_px
    dx, dy = float(px[0]) - intr.cx, float(px[1]) - intr.cy
    ray = -np.array([dx * k, dy * k, intr.focal_px * k])
    return _reference_euler(ray / np.linalg.norm(ray))


REFERENCE_LABEL_FIELDS = ("g_n", "g_o", "pogz", "r_on", "o_face")


def reference_batch_rows(samples, intr):
    """(features, ray, labels, mask) of a training batch built row by row: the
    unit-depth backprojection of each box centre, each present label in its
    columns (field order as REFERENCE_LABEL_FIELDS) with a 1 in its mask."""
    features, rays, labels, mask = [], [], [], []
    for s in samples:
        features.append(np.array(s.features, dtype=float))
        rays.append([(s.bbox.x - intr.cx) * 1.0 / intr.focal_px,
                     (s.bbox.y - intr.cy) * 1.0 / intr.focal_px, 1.0])
        row, present = [], []
        for field, width in zip(REFERENCE_LABEL_FIELDS, (2, 2, 2, 2, 3)):
            value = getattr(s, field)
            row.extend([0.0] * width if value is None else value)
            present.append(0.0 if value is None else 1.0)
        labels.append(row)
        mask.append(present)
    return (np.array(features).reshape(-1, 7), np.array(rays).reshape(-1, 3),
            np.array(labels).reshape(-1, 11), np.array(mask).reshape(-1, 5))


# ---------------------------------------------------------------------------
# the multi-task loss and its gradient, one task at a time over per-task arrays

REFERENCE_TASKS = ("g_n", "g_o", "pogz", "r_on", "face")
REFERENCE_COMPONENTS = {"g_n": 2, "g_o": 2, "pogz": 2, "r_on": 2, "face": 3}


def split_labels(labels, mask):
    """Per-task contiguous (N, C) label arrays and (N,) masks from the packed
    (N, 11) label matrix and (N, 5) mask, columns in task order."""
    out_labels, out_masks, lo = {}, {}, 0
    for j, task in enumerate(REFERENCE_TASKS):
        width = REFERENCE_COMPONENTS[task]
        out_labels[task] = np.ascontiguousarray(labels[:, lo:lo + width])
        out_masks[task] = np.ascontiguousarray(mask[:, j])
        lo += width
    return out_labels, out_masks


def reference_task_terms(preds, labels, masks, weights, pogz_scale):
    """Masked per-task mean L1 terms and the weighted total, task by task."""
    terms, resids, counts = {}, {}, {}
    total = 0.0
    for task in REFERENCE_TASKS:
        resid = preds[task] - labels[task]
        if task == "pogz":
            resid = resid / pogz_scale
        mask = masks[task]
        n = mask.sum()
        per_sample = np.abs(resid).mean(axis=1)
        term = float((per_sample * mask).sum() / max(n, 1.0))
        terms[task] = term
        resids[task] = resid
        counts[task] = n
        total += getattr(weights, task) * term
    return total, terms, resids, counts


def _stable_sigmoid(x):
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def reference_forward(params, F, ray):
    """The forward pass one layer and one head at a time over named arrays:
    each task's (N, C) predictions by name, "face" from the (N, 3) rays, and
    every intermediate reference_backward reads."""
    p = params.arrays
    Xd = F[:, REFERENCE_GAZE_IN]
    Xp = F[:, REFERENCE_POSE_IN]
    Xb = F[:, REFERENCE_BOX_IN]

    G1 = np.tanh(Xd @ p["gaze1_w"].T + p["gaze1_b"])
    Ed = np.tanh(G1 @ p["gaze2_w"].T + p["gaze2_b"])
    P1 = np.tanh(Xp @ p["pose1_w"].T + p["pose1_b"])
    Ep = np.tanh(P1 @ p["pose2_w"].T + p["pose2_b"])
    B1 = np.tanh(Xb @ p["box1_w"].T + p["box1_b"])
    Eb = np.tanh(B1 @ p["box2_w"].T + p["box2_b"])
    Cpb = np.concatenate([Ep, Eb], axis=1)
    Epos = np.tanh(Cpb @ p["fuse_w"].T + p["fuse_b"])
    C = np.concatenate([Ed, Epos], axis=1)

    d_raw = Epos @ p["head_depth_w"].T + p["head_depth_b"]
    depth = np.logaddexp(0.0, d_raw)
    out = {
        "Xd": Xd, "Xp": Xp, "Xb": Xb,
        "G1": G1, "Ed": Ed, "P1": P1, "Ep": Ep, "B1": B1, "Eb": Eb,
        "Cpb": Cpb, "Epos": Epos, "C": C,
        "g_n": Ed @ p["head_gn_w"].T + p["head_gn_b"],
        "g_o": C @ p["head_go_w"].T + p["head_go_b"],
        "pogz_raw": C @ p["head_pogz_w"].T + p["head_pogz_b"],
        "r_on": C @ p["head_r_w"].T + p["head_r_b"],
        "d_raw": d_raw,
        "depth": depth,
    }
    out["pogz"] = out["pogz_raw"] * REFERENCE_POGZ_GAIN
    out["face"] = ray * depth
    return out


def reference_backward(params, c, ray, labels, masks, weights):
    """(grads by name, total, terms) of the batch loss from the forward cache
    `c`, with each head's output delta built on its own."""
    p = params.arrays
    total, terms, resids, counts = reference_task_terms(c, labels, masks, weights, REFERENCE_POGZ_GAIN)

    def head_delta(task):
        lam = getattr(weights, task)
        if lam == 0.0:
            return np.zeros_like(resids[task])
        scale = lam / (REFERENCE_COMPONENTS[task] * max(counts[task], 1.0))
        return np.sign(resids[task]) * masks[task][:, None] * scale

    d_gn, d_go, d_pz, d_r, d_face = (head_delta(t) for t in REFERENCE_TASKS)
    d_depth = (d_face * ray).sum(axis=1, keepdims=True)
    d_draw = d_depth * _stable_sigmoid(c["d_raw"])

    g = {}
    for head, d, inp in (("head_gn", d_gn, c["Ed"]), ("head_go", d_go, c["C"]),
                         ("head_pogz", d_pz, c["C"]), ("head_r", d_r, c["C"]),
                         ("head_depth", d_draw, c["Epos"])):
        g[head + "_w"] = d.T @ inp
        g[head + "_b"] = d.sum(axis=0)

    e = REFERENCE_EMBED
    d_C = d_go @ p["head_go_w"] + d_pz @ p["head_pogz_w"] + d_r @ p["head_r_w"]
    d_Ed = d_C[:, :e] + d_gn @ p["head_gn_w"]
    d_Epos = d_C[:, e:] + d_draw @ p["head_depth_w"]
    d_fuse_pre = d_Epos * (1.0 - c["Epos"] ** 2)
    g["fuse_w"] = d_fuse_pre.T @ c["Cpb"]
    g["fuse_b"] = d_fuse_pre.sum(axis=0)
    d_Cpb = d_fuse_pre @ p["fuse_w"]
    for prefix, X, H1, E, d_E in (("gaze", c["Xd"], c["G1"], c["Ed"], d_Ed),
                                  ("pose", c["Xp"], c["P1"], c["Ep"], d_Cpb[:, :e]),
                                  ("box", c["Xb"], c["B1"], c["Eb"], d_Cpb[:, e:])):
        d2 = d_E * (1.0 - E ** 2)
        g[prefix + "2_w"] = d2.T @ H1
        g[prefix + "2_b"] = d2.sum(axis=0)
        d1 = (d2 @ p[prefix + "2_w"]) * (1.0 - H1 ** 2)
        g[prefix + "1_w"] = d1.T @ X
        g[prefix + "1_b"] = d1.sum(axis=0)
    return g, total, terms


# ---------------------------------------------------------------------------
# datasets and eval reports, one row at a time


def dataset_from_samples(header, samples):
    """A gaze6d Dataset holding in-memory frames (sample_frame's GazeSamples),
    its columns built by Batch.from_samples."""
    from gaze6d.model import Batch
    from gaze6d.synth import Dataset

    intr = _intrinsics(header)
    batch = Batch.from_samples(samples, intr)
    boxes = np.array([s.bbox.to_list() for s in samples], dtype=float).reshape(-1, 3)
    return Dataset(header, batch.features, batch.labels, boxes,
                   np.array([s.subject for s in samples], dtype=np.int64))


def _intrinsics(header):
    from gaze6d.camera import CameraIntrinsics
    from gaze6d.errors import from_dict
    return from_dict(CameraIntrinsics, header["config"]["intrinsics"], "config.intrinsics")


def sample_from_dict(d: dict):
    """The GazeSample of a dataset row's JSON object: each vector field
    through np.array, the box's three values through float."""
    from gaze6d.camera import BoundingBox
    from gaze6d.synth import GazeSample

    return GazeSample(bbox=BoundingBox(float(d["bbox"][0]), float(d["bbox"][1]), float(d["bbox"][2])),
                      subject=int(d["subject"]),
                      **{k: np.array(d[k], dtype=float) for k in ("features", "g_n", "g_o", "pogz", "r_on", "o_face")})


def reference_load_dataset(path):
    """(header, samples, batch) of a dataset file read the way gaze6d read it
    before its loader parsed into columns: each row's JSON object to a
    GazeSample, then every row into one Batch.from_samples."""
    from gaze6d.model import Batch

    with open(path) as f:
        lines = [line for line in f if line.strip()]
    header = json.loads(lines[0])
    samples = [sample_from_dict(json.loads(line)) for line in lines[1:]]
    return header, samples, Batch.from_samples(samples, _intrinsics(header))


def reference_evaluate(params, samples, intr, screen_transform=None):
    """The eval report as gaze6d built it with a per-row screen loop: the
    batch forward pass, then pogz_to_pog once for the true and once for the
    predicted gaze of each row, a row without a screen intersection left out
    of the PoG mean."""
    from gaze6d.errors import RayParallelError
    from gaze6d.metrics import EvalReport, SubjectStats, pog_error
    from gaze6d.model import Batch, angular_deg, forward_batch, vec_from_euler
    from gaze6d.pogz import PlanePoint, pogz_to_pog

    batch = Batch.from_samples(samples, intr)
    c = forward_batch(params, batch.features, batch.ray)
    gn_deg = angular_deg(c["g_n"], batch.task_labels("g_n"))
    go_deg = angular_deg(c["g_o"], batch.task_labels("g_o"))
    pogz_mm = np.linalg.norm(c["pogz"] - batch.task_labels("pogz"), axis=1)

    pog_mm = None
    if screen_transform is not None:
        pog_mm = np.full(len(samples), np.nan)
        pred_dirs = vec_from_euler(c["g_o"])
        true_dirs = vec_from_euler(batch.task_labels("g_o"))
        for i, s in enumerate(samples):
            try:
                truth = pogz_to_pog(PlanePoint(s.pogz[0], s.pogz[1]), true_dirs[i], screen_transform)
                pred = pogz_to_pog(PlanePoint(c["pogz"][i, 0], c["pogz"][i, 1]), pred_dirs[i],
                                   screen_transform)
            except RayParallelError:
                continue
            pog_mm[i] = pog_error(truth, pred)

    def stats(tag, sel):
        pog = None if pog_mm is None else pog_mm[sel][~np.isnan(pog_mm[sel])]
        return SubjectStats(
            subject=tag, n=int(sel.sum()),
            gn_deg_mean=float(np.mean(gn_deg[sel])), gn_deg_median=float(np.median(gn_deg[sel])),
            go_deg_mean=float(np.mean(go_deg[sel])), go_deg_median=float(np.median(go_deg[sel])),
            pogz_mm_mean=float(np.mean(pogz_mm[sel])),
            pog_mm_mean=float(np.mean(pog)) if pog is not None and len(pog) else None)

    subject_of = np.array([s.subject for s in samples])
    return EvalReport(per_subject=[stats(str(sid), subject_of == sid) for sid in sorted(set(subject_of.tolist()))],
                      overall=stats("all", np.ones(len(samples), dtype=bool)))



# ---------------------------------------------------------------------------
# config dataclasses as dicts, each spelled out the way the class's own
# to_dict wrote it before dataclasses.asdict replaced it: the form of a
# dataset header, its config_hash and every config.json snapshot


def reference_config_dict(obj):
    """The dict form of a ClippedGaussian, Subject, SceneConfig,
    CameraIntrinsics, LossWeights or TrainConfig, nested objects included."""
    kind = type(obj).__name__
    if kind == "ClippedGaussian":
        return {"mean": obj.mean, "std": obj.std, "lo": obj.lo, "hi": obj.hi}
    if kind == "Subject":
        return {"id": obj.id, "kappa_yaw": obj.kappa_yaw, "kappa_pitch": obj.kappa_pitch,
                "noise_sigma": obj.noise_sigma}
    if kind == "CameraIntrinsics":
        return {"focal_px": obj.focal_px, "cx": obj.cx, "cy": obj.cy, "k_mm_per_px": obj.k_mm_per_px,
                "width": obj.width, "height": obj.height}
    if kind == "SceneConfig":
        return {"gaze_yaw": reference_config_dict(obj.gaze_yaw),
                "gaze_pitch": reference_config_dict(obj.gaze_pitch),
                "head_yaw": reference_config_dict(obj.head_yaw),
                "head_pitch": reference_config_dict(obj.head_pitch),
                "depth_lo": obj.depth_lo, "depth_hi": obj.depth_hi, "face_size_mm": obj.face_size_mm,
                "intrinsics": reference_config_dict(obj.intrinsics), "seed": obj.seed}
    if kind == "LossWeights":
        return {"g_n": obj.g_n, "g_o": obj.g_o, "pogz": obj.pogz, "r_on": obj.r_on, "face": obj.face}
    if kind == "TrainConfig":
        return {"lr": obj.lr, "batch_size": obj.batch_size, "epochs": obj.epochs, "seed": obj.seed,
                "weights": reference_config_dict(obj.weights), "val_fraction": obj.val_fraction,
                "finetune_lr": obj.finetune_lr, "finetune_steps": obj.finetune_steps,
                "finetune_batch": obj.finetune_batch, "calibration_fraction": obj.calibration_fraction}
    raise TypeError(f"no reference dict form for {kind}")


# ---------------------------------------------------------------------------
# JSONL writers: one json.dumps(sort_keys=True) per line, float() per value

def reference_dataset_text(cfg, subjects, n_per_subject, mode):
    """The dataset file generate_dataset writes for these arguments, over the
    same sample_frame draws: the header, then one row per frame."""
    from gaze6d.synth import dataset_header, frame_rng, sample_frame

    lines = [json.dumps(dataset_header(cfg, subjects, n_per_subject, mode), sort_keys=True)]
    for subject in subjects:
        for i in range(n_per_subject):
            s = sample_frame(subject, cfg, frame_rng(cfg.seed, subject.id, i), calibration=mode == "calibration")
            row = {field: [float(v) for v in getattr(s, field)] for field in ("features",) + REFERENCE_LABEL_FIELDS}
            row.update(bbox=[s.bbox.x, s.bbox.y, s.bbox.side], subject=s.subject)
            lines.append(json.dumps(row, sort_keys=True))
    return "".join(line + "\n" for line in lines)


def reference_calibration_records_text(samples, intr):
    """calibration_records.jsonl for lens-fixation frames: each frame's
    subject, box, face pixel (the box centre) and the unit reversed
    backprojection ray of that pixel."""
    k = intr.k_mm_per_px
    lines = []
    for s in samples:
        ray = -np.array([(s.bbox.x - intr.cx) * k, (s.bbox.y - intr.cy) * k, intr.focal_px * k])
        record = {"subject": s.subject, "face_px": [s.bbox.x, s.bbox.y], "bbox": [s.bbox.x, s.bbox.y, s.bbox.side],
                  "g_o": [float(v) for v in ray / np.linalg.norm(ray)]}
        lines.append(json.dumps(record, sort_keys=True) + "\n")
    return "".join(lines)


def reference_convert_record(point, gaze, R, t, direction, line):
    """What `convert --dir direction` writes for the finite record on input
    line `line`, in numpy arithmetic throughout: the point carried to the
    other plane with the gaze rotated, or the error record of a gaze with no
    length or parallel to the target plane."""
    R, t, g = np.asarray(R, dtype=float), np.asarray(t, dtype=float), np.asarray(gaze, dtype=float)
    if direction == "pog2pogz":   # the inverse motion p = R^T p' - R^T t
        R, t = R.T, -R.T @ t
    origin = R @ np.array([point[0], point[1], 0.0]) + t
    d = R @ g
    norm = np.linalg.norm(d)
    if not norm > 0:
        return {"error": f"gaze direction {d} has no length", "line": line}
    d = d / norm
    if abs(d[2]) < 1e-9:
        return {"error": f"gaze direction {d} is parallel to the z=0 plane", "line": line}
    lam = -origin[2] / d[2]
    return {"point": [float(origin[0] + lam * d[0]), float(origin[1] + lam * d[1])],
            "gaze": [float(v) for v in R @ g], "behind": bool(lam < 0)}
