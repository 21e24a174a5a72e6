"""Multi-task gaze regressor with analytic gradients.

Two input branches feed five small regression heads:

    features[0:2] -> gaze encoder ------------------> g_n head
    features[2:4] -> pose encoder --+                 (directional embedding
    features[4:7] -> box encoder  ---+-> fusion        only)
                                          |
          [directional ; positional] <----+
                     |
                     +-> g_o, pogz, r_on heads   (joint embedding)
          positional +-> face-depth head          (positional embedding only)

Encoders are two tanh layers of width 32, heads are single affine maps.  The
face-depth head goes through a softplus so depth stays positive; the 3-D face
center is reconstructed from it along the box-center backprojection ray.  All
five tasks are trained jointly with a weighted L1 loss; a task weight of zero
removes the task from the loss and so freezes its head: the head's gradient is
exactly zero, and Adam leaves an entry with zero gradient where it is.

Gradients are hand-written reverse mode over plain numpy arrays; training
uses Adam.  Everything is deterministic for a fixed seed.

Gaze angle convention: a direction g maps to (yaw, pitch) with
yaw = atan2(-g_x, -g_z) and pitch = asin(-g_y), so (0, 0) looks straight
along -z (toward the camera) and positive pitch looks up.
"""

from __future__ import annotations

import base64
import math
from dataclasses import dataclass, field

import numpy as np

from .camera import BoundingBox, CameraIntrinsics, Point3
from .errors import (COUNT, MAX_ABS_VALUE, SEED, ConfigError, GeometryError, GimbalLockError, RayParallelError,
                     TrainingDiverged, bad_input, check_ranges, ranged)
from .jsonl import LINE_ENCODER, decode_json
from .pogz import PlanePoint, pogz_from_ray

# task -> (GazeSample field holding its label, the label's columns in Batch.labels)
TASK_LABELS = {
    "g_n": ("g_n", slice(0, 2)),
    "g_o": ("g_o", slice(2, 4)),
    "pogz": ("pogz", slice(4, 6)),
    "r_on": ("r_on", slice(6, 8)),
    "face": ("o_face", slice(8, 11)),
}
TASKS = tuple(TASK_LABELS)

_STARTS = np.array([span.start for _, span in TASK_LABELS.values()])
_WIDTHS = np.array([span.stop - span.start for _, span in TASK_LABELS.values()])
_COLUMN_TASK = np.repeat(np.arange(len(TASKS)), _WIDTHS)   # task index of each label column
_GN, _GO, _POGZ, _R, _FACE = (TASK_LABELS[t][1] for t in ("g_n", "g_o", "pogz", "r_on", "face"))
# the columns of the joint heads g_o, pogz and r_on, one span in this order
_JOINT = slice(TASK_LABELS["g_o"][1].start, TASK_LABELS["r_on"][1].stop)
# step k of the per-row sum over each task's label columns: column k of the
# task, or a zero column past the labels once the task is no wider than k
# (adding +0.0 leaves a sum of absolute values as it is)
_SUM_COLUMNS = [np.where(k < _WIDTHS, _STARTS + k, _COLUMN_TASK.size) for k in range(_WIDTHS.max())]

# ---------------------------------------------------------------------------
# gaze angle parametrization


def vec_from_euler(e) -> np.ndarray:
    """Unit gaze direction(s) from (yaw, pitch): a (..., 2) array in, (..., 3) out."""
    e = np.asarray(e, dtype=float)
    if e.ndim == 1:
        yaw, pitch = e.tolist()
        return _gaze_vector(yaw, pitch)
    yaw, pitch = e[..., 0], e[..., 1]
    cp = np.cos(pitch)
    out = np.empty(e.shape[:-1] + (3,))
    out[..., 0] = -cp * np.sin(yaw)
    out[..., 1] = -np.sin(pitch)
    out[..., 2] = -cp * np.cos(yaw)
    return out


def _gaze_vector(yaw: float, pitch: float) -> np.ndarray:
    """vec_from_euler of one pair: the products as Python floats, the same IEEE operations."""
    cp = float(np.cos(pitch))
    return np.array([-cp * float(np.sin(yaw)), -float(np.sin(pitch)), -cp * float(np.cos(yaw))])


def euler_from_vec(g) -> np.ndarray:
    """(yaw, pitch) of a gaze direction; the input need not be unit length."""
    g = np.asarray(g, dtype=float)
    n = math.sqrt(g.dot(g))   # np.linalg.norm's arithmetic for a 1-D vector
    if n == 0:
        raise GeometryError("zero gaze vector has no direction")
    x, y, z = g.tolist()
    vx, vy, vz = x / n, y / n, z / n
    if abs(vy) >= 1.0:
        raise GimbalLockError("gaze along the y-axis: yaw is undefined")
    return np.array([np.arctan2(-vx, -vz), np.arcsin(-vy)])


def angular_deg(E_a, E_b) -> np.ndarray:
    """Angles in degrees between the gaze directions of two (..., 2) (yaw, pitch) arrays."""
    dots = np.clip(np.sum(vec_from_euler(E_a) * vec_from_euler(E_b), axis=-1), -1.0, 1.0)
    return np.degrees(np.arccos(dots))


# ---------------------------------------------------------------------------
# parameters


# the architecture, fixed
FEATURE_DIM = 7
# the feature columns that the gaze, pose and box encoders read
_GAZE_IN, _POSE_IN, _BOX_IN = slice(0, 2), slice(2, 4), slice(4, 7)
_HIDDEN = 32   # width of each encoder's first layer
_EMBED = 32    # width of each encoder's output and of the fusion block
# pogz targets are mm-scale; a fixed output gain keeps head weights O(1)
_POGZ_GAIN = 500.0
# softplus(_DEPTH_BIAS) = _DEPTH_BIAS for any plausible mm value, so the
# depth head starts near the middle of the working range
_DEPTH_BIAS = 600.0

# the architecture as a params file records it under "model_config"
_MODEL_CONFIG = {
    "feature_dim": FEATURE_DIM,
    "dir_lo": _GAZE_IN.start, "dir_hi": _GAZE_IN.stop,
    "pose_lo": _POSE_IN.start, "pose_hi": _POSE_IN.stop,
    "box_lo": _BOX_IN.start, "box_hi": _BOX_IN.stop,
    "hidden": _HIDDEN,
    "embed": _EMBED,
    "pogz_gain": _POGZ_GAIN,
    "depth_bias": _DEPTH_BIAS,
}

# affine layer -> (outputs, fan_in), in the order init_params draws them
_LAYER_DIMS = {
    "gaze1": (_HIDDEN, _GAZE_IN.stop - _GAZE_IN.start),
    "gaze2": (_EMBED, _HIDDEN),
    "pose1": (_HIDDEN, _POSE_IN.stop - _POSE_IN.start),
    "pose2": (_EMBED, _HIDDEN),
    "box1": (_HIDDEN, _BOX_IN.stop - _BOX_IN.start),
    "box2": (_EMBED, _HIDDEN),
    "fuse": (_EMBED, 2 * _EMBED),
    "head_gn": (2, _EMBED),
    "head_go": (2, 2 * _EMBED),
    "head_pogz": (2, 2 * _EMBED),
    "head_r": (2, 2 * _EMBED),
    "head_depth": (1, _EMBED),
}

# layers in flat-vector order, in groups: a group's weights sit side by side,
# then its biases, so that a group's arrays also form one stacked view
_LAYER_GROUPS = (("gaze1", "pose1", "box1"), ("gaze2", "pose2", "box2"), ("fuse",), ("head_gn",),
                 ("head_go", "head_pogz", "head_r"), ("head_depth",))


def _param_layout():
    """(entries, stacks, size) of the flat parameter vector: the (name, span,
    shape) of each array, group by group (_LAYER_GROUPS), and of each stacked
    group view, and the vector's length."""
    entries, size = [], 0
    for layers in _LAYER_GROUPS:
        for suffix in ("_w", "_b"):
            for layer in layers:
                shape = _LAYER_DIMS[layer] if suffix == "_w" else _LAYER_DIMS[layer][:1]
                n = math.prod(shape)
                entries.append((layer + suffix, slice(size, size + n), shape))
                size += n
    spans = {name: span for name, span, _ in entries}
    h, e = _HIDDEN, _EMBED
    # the encoders' layers run side by side on their own inputs, so they stack;
    # the joint heads all read the joint embedding, so they form one wider layer
    # (the first layers' weights differ in fan-in, so only their biases stack)
    stacks = tuple((name, slice(spans[first].start, spans[last].stop), shape)
                   for name, first, last, shape in (
                       ("encoder1_b", "gaze1_b", "box1_b", (3, 1, h)),
                       ("encoder2_w", "gaze2_w", "box2_w", (3, e, h)),
                       ("encoder2_b", "gaze2_b", "box2_b", (3, 1, e)),
                       ("joint_w", "head_go_w", "head_r_w", (6, 2 * e)),
                       ("joint_b", "head_go_b", "head_r_b", (6,))))
    return tuple(entries), stacks, size


_ENTRIES, _STACKS, _PARAM_COUNT = _param_layout()


def _views(flat: np.ndarray) -> tuple[dict[str, np.ndarray], dict[str, np.ndarray]]:
    """(name -> view of its array, stack name -> stacked view) in `flat`."""
    if flat.shape != (_PARAM_COUNT,) or flat.dtype != np.float64 or not flat.flags.c_contiguous:
        raise ConfigError(f"expected a contiguous float64 vector of {_PARAM_COUNT} params, "
                          f"got {flat.dtype} {flat.shape}")
    return ({name: flat[span].reshape(shape) for name, span, shape in _ENTRIES},
            {name: flat[span].reshape(shape) for name, span, shape in _STACKS})


@dataclass(eq=False)
class ModelParams:
    """Every weight in one contiguous float64 vector; `arrays` maps each name
    to its view into `flat`, and `stacks` the stacked views of whole layer
    groups ("encoder1_b", "encoder2_w", "encoder2_b", "joint_w", "joint_b";
    see _param_layout).  `transposed` maps each weight's name, and
    "encoder2_w", to the transposed view that forward_batch multiplies by, so
    no call builds one.  Every view aliases `flat`: a write into it is seen
    through all of them."""

    flat: np.ndarray
    arrays: dict[str, np.ndarray] = field(init=False, repr=False)
    stacks: dict[str, np.ndarray] = field(init=False, repr=False)
    transposed: dict[str, np.ndarray] = field(init=False, repr=False)

    def __post_init__(self):
        self.arrays, self.stacks = _views(self.flat)
        self.transposed = {name: view.T for name, view in self.arrays.items() if name.endswith("_w")}
        self.transposed["encoder2_w"] = self.stacks["encoder2_w"].mT

    def copy(self) -> "ModelParams":
        return ModelParams(self.flat.copy())


def init_params(seed: int = 0) -> ModelParams:
    """Gaussian init scaled by 1/sqrt(fan_in); biases zero except depth."""
    rng = np.random.default_rng(seed)
    params = ModelParams(np.zeros(_PARAM_COUNT))
    for name, (out, fan_in) in _LAYER_DIMS.items():
        params.arrays[name + "_w"][...] = rng.normal(0.0, 1.0 / np.sqrt(fan_in), size=(out, fan_in))
    params.arrays["head_depth_b"][0] = _DEPTH_BIAS
    return params


def save_params(params: ModelParams, path) -> None:
    """Write params as format 2: each named array as its shape and the base64
    of its little-endian float64 bytes, so the file holds the exact values."""
    doc = {
        "format_version": 2,
        "model_config": _MODEL_CONFIG,
        "arrays": {
            k: {"shape": list(v.shape),
                "data": base64.b64encode(v.astype("<f8", copy=False).tobytes()).decode()}
            for k, v in params.arrays.items()
        },
    }
    with open(path, "w") as f:
        f.write(LINE_ENCODER.encode(doc))


def load_params(path) -> ModelParams:
    """Read a params file written by save_params, in format 2.

    Its model_config must be this model's architecture, key for key and
    value for value; its arrays must match the layout name for name and
    shape for shape, each payload in whole float64 values; and every value
    must be finite and at most MAX_ABS_VALUE in magnitude.  Anything else, a
    file that is not JSON (NaN and Infinity included, in any key) or of
    another format included, is a ConfigError naming the file.
    """
    with open(path, encoding="utf-8", errors="surrogateescape") as f, bad_input(path):
        doc = decode_json(f.read())
        version = doc.get("format_version")
        if type(version) is not int or version != 2:   # 2.0 equals 2
            raise ConfigError(f"unsupported params format {version!r}")
        config = doc["model_config"]
        for key in sorted(config.keys() | _MODEL_CONFIG.keys()):
            if key not in _MODEL_CONFIG:
                raise ConfigError(f"model_config has an unknown key {key!r}")
            if key not in config:
                raise ConfigError(f"model_config lacks {key!r}")
            if config[key] != _MODEL_CONFIG[key]:
                raise ConfigError(f"model_config {key} is {config[key]!r}; the model's is {_MODEL_CONFIG[key]!r}")
        stored = doc["arrays"]
        params = ModelParams(np.empty(_PARAM_COUNT))
        if set(stored) != set(params.arrays):
            raise ConfigError(f"arrays do not match the model: missing "
                              f"{sorted(set(params.arrays) - set(stored))}, "
                              f"unexpected {sorted(set(stored) - set(params.arrays))}")
        for name, view in params.arrays.items():
            shape, data = stored[name]["shape"], _float64_payload(name, stored[name]["data"])
            if list(shape) != list(view.shape) or len(data) != view.size:
                raise ConfigError(f"array {name} has shape {shape} and {len(data)} values, "
                                  f"the model needs shape {list(view.shape)}")
            view.reshape(-1)[:] = data
        if not (np.abs(params.flat) <= MAX_ABS_VALUE).all():   # every value at once; NaN fails too
            name, view = next((n, v) for n, v in params.arrays.items() if not (np.abs(v) <= MAX_ABS_VALUE).all())
            if not np.isfinite(view).all():
                raise ConfigError(f"array {name} has non-finite values")
            raise ConfigError(f"array {name} values must be at most {MAX_ABS_VALUE:g} in magnitude, "
                              f"got {max(view.flat, key=abs)}")
    return params


def _float64_payload(name: str, data: str) -> np.ndarray:
    """The values of a format-2 array: base64 of little-endian float64 bytes."""
    with bad_input(f"array {name}"):
        raw = base64.b64decode(data, validate=True)
        if len(raw) % 8:
            raise ValueError(f"{len(raw)} bytes, not a whole number of float64 values")
    return np.frombuffer(raw, dtype="<f8")


# ---------------------------------------------------------------------------
# loss configuration


@dataclass(frozen=True)
class LossWeights:
    """Per-task L1 weights; a zero weight also freezes the task's head, whose
    gradient is then exactly zero.  `array` holds them in TASKS order, read-only,
    built once for the loss arithmetic."""

    g_n: float = ranged("finite and >= 0", 1.0)
    g_o: float = ranged("finite and >= 0", 0.5)
    pogz: float = ranged("finite and >= 0", 0.1)
    r_on: float = ranged("finite and >= 0", 0.5)
    face: float = ranged("finite and >= 0", 0.1)

    def __post_init__(self):
        check_ranges(self)
        array = np.array([getattr(self, t) for t in TASKS])
        array.flags.writeable = False
        object.__setattr__(self, "array", array)   # not a field: asdict, == and hash leave it out


@dataclass(frozen=True)
class TrainConfig:
    lr: float = ranged("finite and >= 0", 1e-4)
    batch_size: int = ranged(">= 1", 128)
    epochs: int = ranged(COUNT, 120)
    seed: int = ranged(SEED, 0)
    weights: LossWeights = LossWeights()
    val_fraction: float = ranged("in [0, 1)", 0.1)
    finetune_lr: float = ranged("finite and >= 0", 1e-5)
    # fine-tune budget is counted in parameter updates, not epochs, so runs
    # with different calibration set sizes get equal optimization pressure
    finetune_steps: int = ranged(COUNT, 100)
    finetune_batch: int = ranged(">= 1", 8)
    calibration_fraction: float = ranged("in (0, 1]", 1.0)

    def __post_init__(self):
        check_ranges(self)


# ---------------------------------------------------------------------------
# batches


@dataclass(eq=False)
class Batch:
    """Dense training arrays, one row per sample: each task's label in its
    TASK_LABELS columns, `mask` 1 where the row carries the task's label."""

    features: np.ndarray              # (N, FEATURE_DIM)
    ray: np.ndarray                   # (N, 3) box-center backprojection at unit depth
    labels: np.ndarray                # (N, 11)
    mask: np.ndarray                  # (N, 5)

    def __len__(self) -> int:
        return self.features.shape[0]

    def task_labels(self, task: str) -> np.ndarray:
        """The (N, C) label columns of one task."""
        return self.labels[:, TASK_LABELS[task][1]]

    def subset(self, idx) -> "Batch":
        return Batch(self.features[idx], self.ray[idx], self.labels[idx], self.mask[idx])

    @classmethod
    def from_columns(cls, features: np.ndarray, centres: np.ndarray, labels: np.ndarray,
                     mask: np.ndarray, intr: CameraIntrinsics) -> "Batch":
        """The batch of (N, 2) box centres and the rows' other columns."""
        ray = np.ones((len(centres), 3))   # backproject(intr, box centre, 1.0) of every row
        np.divide(centres - intr.principal, intr.focal_px, out=ray[:, :2])
        return cls(features, ray, labels, mask)

    @classmethod
    def from_samples(cls, samples, intr: CameraIntrinsics) -> "Batch":
        n = len(samples)
        features = np.array([s.features for s in samples], dtype=float).reshape(n, FEATURE_DIM)
        centres = np.array([(s.bbox.x, s.bbox.y) for s in samples], dtype=float).reshape(n, 2)
        labels = np.zeros((n, _COLUMN_TASK.size))
        mask = np.zeros((n, len(TASKS)))
        for j, (attr, span) in enumerate(TASK_LABELS.values()):
            values = [getattr(s, attr) for s in samples]
            rows = [i for i, value in enumerate(values) if value is not None]
            if rows:
                labels[rows, span] = [values[i] for i in rows]
                mask[rows, j] = 1.0
        return cls.from_columns(features, centres, labels, mask, intr)


# ---------------------------------------------------------------------------
# forward / loss / backward


def _sigmoid(x: np.ndarray) -> np.ndarray:
    # 1 / (1 + exp(-x)) for x >= 0 and exp(x) / (1 + exp(x)) below, never overflowing
    ex = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0, ex) / (1.0 + ex)


def _buffers(work: dict | None, names: tuple, shapes: tuple) -> tuple | list:
    """Uninitialised arrays of these shapes: fresh ones, or the ones `work`
    keeps under each name and shape from an earlier call."""
    if work is None:
        return tuple(map(np.empty, shapes))
    arrays = []
    for key in zip(names, shapes):
        array = work.get(key)
        if array is None:
            array = work[key] = np.empty(key[1])
        arrays.append(array)
    return arrays


def _tanh_backward(d_y: np.ndarray, y: np.ndarray, out: np.ndarray) -> np.ndarray:
    """d_y * (1 - y ** 2), the gradient through y = tanh(.), written into `out`,
    which may be y."""
    np.square(y, out=out)
    np.subtract(1.0, out, out=out)
    out *= d_y
    return out


_GRADCHECK_STEP = 1e-5   # gradient_check's central-difference step


def forward_batch(params: ModelParams, F: np.ndarray, ray: np.ndarray, *,
                  work: dict | None = None) -> dict:
    """Forward pass over (N, FEATURE_DIM) feature rows and their (N, 3) box rays.

    Returns a dict holding "preds", the (N, 11) predictions in TASK_LABELS
    column order, a view of each task's (N, C) columns under its name in
    TASKS ("face", the only one that reads the rays, is each unit-depth ray
    times the depth), "depth" (N, 1), and every intermediate backward needs.

    With `work` (backward's scratch dict), the large intermediates live in
    arrays kept there, which the next call with it overwrites.

    At one row a call's time goes to its some thirty numpy calls, not to
    arithmetic, so the body is straight-line code over the weights' ready
    transposed views (ModelParams.transposed), and each product is written
    where it is kept.
    """
    p, s, t = params.arrays, params.stacks, params.transposed
    if F.shape[1] != FEATURE_DIM:
        raise ConfigError(f"expected {FEATURE_DIM} features, got {F.shape[1]}")
    n, h, e = F.shape[0], _HIDDEN, _EMBED
    H1, E, Cpb, Epos, C = _buffers(work, ("H1", "E", "Cpb", "Epos", "C"),
                                     ((3, n, h), (3, n, e), (n, 2 * e), (n, e), (n, 2 * e)))
    Xd, Xp, Xb = F[:, _GAZE_IN], F[:, _POSE_IN], F[:, _BOX_IN]

    # both layers of the gaze, pose and box encoders, stacked in that order
    G1, P1, B1 = H1[0], H1[1], H1[2]
    np.matmul(Xd, t["gaze1_w"], out=G1)
    np.matmul(Xp, t["pose1_w"], out=P1)
    np.matmul(Xb, t["box1_w"], out=B1)
    H1 += s["encoder1_b"]
    np.tanh(H1, out=H1)
    np.matmul(H1, t["encoder2_w"], out=E)
    E += s["encoder2_b"]
    np.tanh(E, out=E)
    Ed, Ep, Eb = E[0], E[1], E[2]
    np.concatenate((Ep, Eb), axis=1, out=Cpb)
    np.matmul(Cpb, t["fuse_w"], out=Epos)
    Epos += p["fuse_b"]
    np.tanh(Epos, out=Epos)
    np.concatenate((Ed, Epos), axis=1, out=C)

    preds = np.empty((n, _COLUMN_TASK.size))
    g_n, g_o, pogz, r_on, face = preds[:, _GN], preds[:, _GO], preds[:, _POGZ], preds[:, _R], preds[:, _FACE]
    np.matmul(Ed, t["head_gn_w"], out=g_n)
    g_n += p["head_gn_b"]
    # one head at a time: one (6, 2 * embed) product would differ in the last bit
    np.matmul(C, t["head_go_w"], out=g_o)
    np.matmul(C, t["head_pogz_w"], out=pogz)
    np.matmul(C, t["head_r_w"], out=r_on)
    joint = preds[:, _JOINT]
    joint += s["joint_b"]
    pogz *= _POGZ_GAIN
    d_raw = np.matmul(Epos, t["head_depth_w"])
    d_raw += p["head_depth_b"]
    depth = np.logaddexp(0.0, d_raw)   # softplus
    np.multiply(ray, depth, out=face)  # (B, 3) face center along the box ray
    return {"g_n": g_n, "g_o": g_o, "pogz": pogz, "r_on": r_on, "face": face, "preds": preds,
            "Xd": Xd, "Xp": Xp, "Xb": Xb, "X": (Xd, Xp, Xb), "H1": H1, "G1": G1, "P1": P1, "B1": B1,
            "E": E, "Ed": Ed, "Ep": Ep, "Eb": Eb, "Cpb": Cpb, "Epos": Epos, "C": C,
            "d_raw": d_raw, "depth": depth}


@dataclass(frozen=True, eq=False)
class MultiTaskOutput:
    g_n: np.ndarray
    g_o: np.ndarray
    pogz: np.ndarray
    r_on: np.ndarray
    face_depth: float


def forward(params: ModelParams, features) -> MultiTaskOutput:
    """Single-sample forward pass; forward_batch on one row along the optical axis."""
    c = forward_batch(params, np.asarray(features, dtype=float).reshape(1, -1), np.array([[0.0, 0.0, 1.0]]))
    return MultiTaskOutput(
        g_n=c["g_n"][0].copy(),
        g_o=c["g_o"][0].copy(),
        pogz=c["pogz"][0].copy(),
        r_on=c["r_on"][0].copy(),
        face_depth=float(c["depth"][0, 0]),
    )


def _task_terms(preds: dict, batch: Batch, lam: np.ndarray):
    """(total, task -> masked mean L1 term, residual matrix, labelled rows per task)
    for the loss weights `lam` in TASKS order.

    The pogz residual is measured in units of the pogz head's output gain,
    not millimetres: that keeps the task's subgradients the same
    magnitude as the angular tasks', so no single task dominates the shared
    encoders.  Reported errors elsewhere stay metric.
    """
    resid = preds["preds"] - batch.labels
    pogz = resid[:, _POGZ]
    np.divide(pogz, _POGZ_GAIN, out=pogz)
    abs_resid = np.zeros((len(batch), _COLUMN_TASK.size + 1))   # last column stays 0
    np.abs(resid, out=abs_resid[:, :-1])
    # per-row mean over each task's columns, summed left to right as mean(axis=1) sums
    sums = abs_resid.take(_SUM_COLUMNS[0], axis=1)
    for columns in _SUM_COLUMNS[1:]:
        sums += abs_resid.take(columns, axis=1)
    counts = batch.mask.sum(axis=0)
    # each task's masked sum runs over one contiguous row, in a 1-D sum's order
    terms = np.ascontiguousarray((sums / _WIDTHS * batch.mask).T).sum(axis=1) / np.maximum(counts, 1.0)
    total = 0.0
    for weighted in (lam * terms).tolist():   # the weighted terms added in task order
        total += weighted
    return total, dict(zip(TASKS, terms.tolist())), resid, counts


def batch_loss(params: ModelParams, batch: Batch, weights: LossWeights):
    """(total, per-task breakdown) over a batch; used by training and checks."""
    c = forward_batch(params, batch.features, batch.ray)
    total, terms, _, _ = _task_terms(c, batch, weights.array)
    return total, terms


class Gradients(dict):
    """Param name -> gradient array, all views into one fresh vector `flat`
    laid out like the params' `flat`; `stacks` holds the stacked group views
    as in ModelParams.  backward fills every entry, and keeps its scratch
    arrays in `work` for the next call."""

    def __init__(self):
        self.flat = np.empty(_PARAM_COUNT)
        arrays, self.stacks = _views(self.flat)
        self.work: dict = {}
        super().__init__(arrays)


def backward(params: ModelParams, batch: Batch, weights: LossWeights, out: Gradients | None = None):
    """Analytic gradients of the batch loss.

    Returns (grads, total, per-task breakdown); grads maps each param name to
    its view into one flat gradient vector, `grads.flat`, laid out like
    `params.flat`.  `out`, a Gradients, is filled and returned in place of a
    fresh one, and its scratch arrays are reused, so that a training step
    allocates no large array.  Gradients of heads whose
    task weight is zero are identically zero; the L1 subgradient at zero
    residual is taken as 0.
    """
    p, s = params.arrays, params.stacks
    g = Gradients() if out is None else out
    work = None if out is None else out.work
    # backward owns this forward cache, and overwrites each large array after its last read
    c = forward_batch(params, batch.features, batch.ray, work=work)
    lam = weights.array
    total, terms, resid, counts = _task_terms(c, batch, lam)

    # d loss / d prediction on labelled rows: sign(resid) * lam / (label width *
    # labelled rows), exactly 0 for a zero-weight task; pogz loss is taken in
    # gain units, so the forward gain cancels here
    task_scale = lam / (_WIDTHS * np.maximum(counts, 1.0))
    delta = np.sign(resid) * (batch.mask * task_scale).take(_COLUMN_TASK, axis=1)
    if not lam.all():
        delta[:, (lam == 0.0)[_COLUMN_TASK]] = 0.0
    d_gn, d_go, d_pz, d_r, d_face = delta[:, _GN], delta[:, _GO], delta[:, _POGZ], delta[:, _R], delta[:, _FACE]

    # face point = ray * softplus(d_raw)
    d_depth = (d_face * batch.ray).sum(axis=1, keepdims=True)
    d_draw = d_depth * _sigmoid(c["d_raw"])

    # every gradient is written in place into its view of one flat vector
    np.matmul(d_gn.T, c["Ed"], out=g["head_gn_w"])
    d_gn.sum(axis=0, out=g["head_gn_b"])
    d_joint = delta[:, _JOINT]
    np.matmul(d_joint.T, c["C"], out=g.stacks["joint_w"])
    d_joint.sum(axis=0, out=g.stacks["joint_b"])
    np.matmul(d_draw.T, c["Epos"], out=g["head_depth_w"])
    d_draw.sum(axis=0, out=g["head_depth_b"])

    # the joint heads' terms of d_C one head at a time: one (N, 6) @ (6, 2 * embed)
    # product would reorder the sum; sums run in place, some with their operands
    # swapped (a + b and b + a round alike)
    e, n = _EMBED, len(batch)
    # d_E is stacked like the forward's E
    product, d_C, d_E, d_Epos = _buffers(work, ("product", "d_C", "d_E", "d_Epos"),
                                           ((n, 2 * e), (n, 2 * e), (3, n, e), (n, e)))
    np.matmul(d_go, p["head_go_w"], out=d_C)
    d_C += np.matmul(d_pz, p["head_pogz_w"], out=product)
    d_C += np.matmul(d_r, p["head_r_w"], out=product)
    d_Ed = np.matmul(d_gn, p["head_gn_w"], out=d_E[0])
    d_Ed += d_C[:, :e]
    np.matmul(d_draw, p["head_depth_w"], out=d_Epos)
    d_Epos += d_C[:, e:]

    # fusion block
    d_fuse_pre = _tanh_backward(d_Epos, c["Epos"], out=c["Epos"])
    np.matmul(d_fuse_pre.T, c["Cpb"], out=g["fuse_w"])
    d_fuse_pre.sum(axis=0, out=g["fuse_b"])
    d_Cpb = np.matmul(d_fuse_pre, p["fuse_w"], out=product)
    d_E[1:] = d_Cpb.reshape(n, 2, e).swapaxes(0, 1)

    # the three encoders, stacked
    d2 = _tanh_backward(d_E, c["E"], out=c["E"])
    np.matmul(d2.mT, c["H1"], out=g.stacks["encoder2_w"])
    d2.sum(axis=1, keepdims=True, out=g.stacks["encoder2_b"])
    d1 = _tanh_backward(np.matmul(d2, s["encoder2_w"], out=d_E), c["H1"], out=c["H1"])
    np.matmul(d1[0].T, c["Xd"], out=g["gaze1_w"])
    np.matmul(d1[1].T, c["Xp"], out=g["pose1_w"])
    np.matmul(d1[2].T, c["Xb"], out=g["box1_w"])
    d1.sum(axis=1, keepdims=True, out=g.stacks["encoder1_b"])
    return g, total, terms


def gradient_check(params: ModelParams, batch: Batch, weights: LossWeights) -> float:
    """Max relative error of analytic vs central-difference gradients.

    The relative-error denominator is floored at 1e-4, which turns the check
    into an absolute one for near-zero gradient entries.
    """
    grads, _, _ = backward(params, batch, weights)
    flat, gflat, h = params.flat, grads.flat, _GRADCHECK_STEP
    worst = 0.0
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        up, _ = batch_loss(params, batch, weights)
        flat[i] = orig - h
        down, _ = batch_loss(params, batch, weights)
        flat[i] = orig
        numeric = (up - down) / (2.0 * h)
        rel = abs(gflat[i] - numeric) / max(abs(gflat[i]) + abs(numeric), 1e-4)
        worst = max(worst, rel)
    return worst


def make_gradcheck_batch(params: ModelParams, seed: int = 0, n: int = 8) -> Batch:
    """Random batch whose labels sit a safe distance from every L1 kink.

    Labels are the current predictions pushed away by residuals of magnitude
    0.5 to 1.5 per component (5 to 50 mm for the face center), so a finite
    difference step can never cross a sign flip of the loss.
    """
    rng = np.random.default_rng(seed)
    features = np.column_stack([
        rng.uniform(-0.8, 0.8, size=(n, 2)),   # gaze angles
        rng.uniform(-1.0, 1.0, size=(n, 2)),   # head angles
        rng.uniform(0.2, 0.8, size=(n, 2)),    # box center, image fractions
        rng.uniform(0.1, 0.4, size=(n, 1)),    # box side, image fraction
    ])
    ray = np.column_stack([
        rng.uniform(-0.3, 0.3, size=(n, 2)),
        np.ones(n),
    ])
    c = forward_batch(params, features, ray)
    spread = {"g_n": (0.5, 1.5), "g_o": (0.5, 1.5), "r_on": (0.5, 1.5),
              "pogz": (5.0, 50.0), "face": (5.0, 50.0)}
    pushed = {t: c[t] + rng.uniform(lo, hi, size=c[t].shape) * rng.choice([-1.0, 1.0], size=c[t].shape)
              for t, (lo, hi) in spread.items()}
    labels = np.concatenate([pushed[t] for t in TASKS], axis=1)
    return Batch(features, ray, labels, np.ones((n, len(TASKS))))


# ---------------------------------------------------------------------------
# optimization


class Adam:
    """Adam with bias correction (Kingma & Ba, ICLR 2015) over params.flat.

    Each step applies the per-element update to the whole flat vector at
    once.  An entry whose gradient has always been zero keeps m = v = 0, so
    its update is 0 / (0 + eps) and it stays exactly where it is.
    """

    BETA1, BETA2, EPS = 0.9, 0.999, 1e-8

    def __init__(self, params: ModelParams, lr: float):
        self.flat = params.flat
        self.lr = lr
        self.t = 0
        self.m = np.zeros_like(self.flat)
        self.v = np.zeros_like(self.flat)
        self._scratch = (np.empty_like(self.flat), np.empty_like(self.flat))

    def step(self, grad: np.ndarray) -> None:
        """Update the params from the flat gradient vector `grad`, in place."""
        b1, b2 = self.BETA1, self.BETA2
        self.t += 1
        b1c = 1.0 - b1 ** self.t
        b2c = 1.0 - b2 ** self.t
        m, v, flat = self.m, self.v, self.flat
        a, b = self._scratch
        # each `x op= y` is np.op(x, y, out=x) at less call overhead
        # m = b1 * m + (1 - b1) * grad
        m *= b1
        np.multiply(grad, 1.0 - b1, out=a)
        m += a
        # v = b2 * v + (1 - b2) * grad * grad
        v *= b2
        np.multiply(grad, 1.0 - b2, out=a)
        a *= grad
        v += a
        # flat -= lr * (m / b1c) / (sqrt(v / b2c) + eps)
        np.divide(m, b1c, out=a)
        a *= self.lr
        np.divide(v, b2c, out=b)
        np.sqrt(b, out=b)
        b += self.EPS
        a /= b
        flat -= a


@dataclass(frozen=True)
class EpochStats:
    epoch: int
    train_loss: float
    val_loss: float
    val_angular_deg: float


def history_to_csv(history: list[EpochStats]) -> str:
    lines = ["epoch,train_loss,val_loss,val_angular_deg"]
    for h in history:
        lines.append(f"{h.epoch},{h.train_loss!r},{h.val_loss!r},{h.val_angular_deg!r}")
    return "\n".join(lines) + "\n"


def _val_stats(params: ModelParams, val: Batch, weights: LossWeights):
    if len(val) == 0:
        return float("nan"), float("nan")
    c = forward_batch(params, val.features, val.ray)
    total, _, _, _ = _task_terms(c, val, weights.array)
    mask = val.mask[:, TASKS.index("g_n")] > 0
    if not mask.any():
        return total, float("nan")
    ang = angular_deg(c["g_n"][mask], val.task_labels("g_n")[mask])
    return total, float(ang.mean())


def _optimize(params: ModelParams, data: Batch, lr: float, batch_size: int, epochs: int,
              weights: LossWeights, rng: np.random.Generator,
              val: Batch | None = None, max_steps: int | None = None) -> list[EpochStats]:
    """Shared minibatch loop for training and fine-tuning; mutates params.

    max_steps caps the total number of parameter updates across epochs, so a
    budget can be held fixed while the dataset size varies.
    """
    opt = Adam(params, lr)
    grads = Gradients()   # every step's backward fills this one buffer
    history: list[EpochStats] = []
    n = len(data)
    steps = 0
    # the epoch's rows in step order, gathered into these once per epoch: each
    # step's batch is the next slice of them, the rows perm[lo:lo + batch_size]
    # names; one copy of the data for every epoch
    columns = (data.features, data.ray, data.labels, data.mask)
    F, ray, labels, mask = shuffled = tuple(np.empty(c.shape, c.dtype) for c in columns)
    for epoch in range(epochs):
        perm = rng.permutation(n)
        for c, out in zip(columns, shuffled):
            # every index is in range, so "clip" takes the rows the default
            # mode takes, without buffering them in a second copy first
            np.take(c, perm, axis=0, out=out, mode="clip")
        seen, loss_sum = 0, 0.0
        # each step's non-finite values are caught right after its backward;
        # numpy need not warn first (one errstate per epoch, not per step)
        with np.errstate(invalid="ignore", over="ignore"):
            for lo in range(0, n, batch_size):
                if max_steps is not None and steps >= max_steps:
                    break
                hi = lo + batch_size
                step = Batch(F[lo:hi], ray[lo:hi], labels[lo:hi], mask[lo:hi])
                _, total, terms = backward(params, step, weights, out=grads)
                if not math.isfinite(total):
                    # a weighted term: a finite term times a huge weight overflows too
                    bad = [t for t in TASKS if not np.isfinite(getattr(weights, t) * terms[t])]
                    raise TrainingDiverged(f"non-finite loss at epoch {epoch}, step {steps} "
                                           f"(batch offset {lo}), task terms: {', '.join(bad) or 'none'}")
                # a finite loss can still have non-finite gradients, e.g. from an
                # inf feature behind a saturated tanh; one such step spoils every param
                if not np.isfinite(grads.flat).all():
                    bad = [name for name, g in grads.items() if not np.isfinite(g).all()]
                    raise TrainingDiverged(f"non-finite gradients at epoch {epoch}, step {steps} "
                                           f"(batch offset {lo}), arrays: {', '.join(bad)}")
                opt.step(grads.flat)
                rows = len(step)
                loss_sum += total * rows
                seen += rows
                steps += 1
        train_loss = loss_sum / max(seen, 1)
        if val is not None:
            val_loss, val_ang = _val_stats(params, val, weights)
            history.append(EpochStats(epoch, train_loss, val_loss, val_ang))
        else:
            history.append(EpochStats(epoch, train_loss, float("nan"), float("nan")))
        if max_steps is not None and steps >= max_steps:
            break
    return history


def _split_rows(subjects: np.ndarray, val_fraction: float) -> tuple[np.ndarray, np.ndarray]:
    """(train, val) row indices: subject by subject in id order, each
    subject's rows in file order, the last val_fraction of them for val."""
    train_rows, val_rows = [], []
    for sid in np.unique(subjects):
        rows = np.flatnonzero(subjects == sid)
        cut = len(rows) - int(len(rows) * val_fraction)
        train_rows.append(rows[:cut])
        val_rows.append(rows[cut:])
    return np.concatenate(train_rows), np.concatenate(val_rows)


def train(cfg: TrainConfig, dataset):
    """Train from scratch on a loaded dataset.

    Returns (params, history).  The validation split is the last
    cfg.val_fraction of each subject's rows in file order.
    """
    if not len(dataset):
        raise ConfigError("cannot train on an empty dataset")
    train_rows, val_rows = _split_rows(dataset.subjects, cfg.val_fraction)
    batch = dataset.batch()
    data, val = batch.subset(train_rows), batch.subset(val_rows)

    rng = np.random.default_rng(cfg.seed)
    params = init_params(seed=cfg.seed)
    history = _optimize(params, data, cfg.lr, cfg.batch_size, cfg.epochs,
                        cfg.weights, rng, val=val)
    return params, history


def fine_tune(params: ModelParams, cfg: TrainConfig, calibration_samples, intr: CameraIntrinsics) -> ModelParams:
    """Adapt trained params to one subject's calibration frames.

    Runs the same loop at the fine-tuning rate; absent labels are masked
    out.  An empty calibration set returns the params unchanged (a copy).
    """
    tuned = params.copy()
    if not calibration_samples:
        return tuned
    subjects = {s.subject for s in calibration_samples}
    if len(subjects) > 1:
        raise ConfigError(f"calibration set mixes subjects {sorted(subjects)}")
    data = Batch.from_samples(calibration_samples, intr)
    rng = np.random.default_rng(cfg.seed)
    batches = (len(data) + cfg.finetune_batch - 1) // cfg.finetune_batch
    epochs = (cfg.finetune_steps + batches - 1) // batches
    _optimize(tuned, data, cfg.finetune_lr, cfg.finetune_batch, epochs,
              cfg.weights, rng, max_steps=cfg.finetune_steps)
    return tuned


# ---------------------------------------------------------------------------
# 6-DoF assembly


@dataclass(frozen=True, eq=False)
class SixDofPrediction:
    """Full gaze state: ray origin, direction, and the plane intersection.

    pogz is the pogz head's output; pogz_geometric re-derives the plane point
    from the predicted origin and direction, and is None when that ray is
    parallel to the camera plane.
    """

    origin: Point3
    direction: np.ndarray
    pogz: PlanePoint
    pogz_geometric: PlanePoint | None


def predict_6dof(params: ModelParams, features, bbox: BoundingBox, intr: CameraIntrinsics) -> SixDofPrediction:
    """Assemble the 6-DoF gaze state for one sample from one forward_batch
    pass on its row and box ray: the origin is the "face" point training fits.

    A face depth that the depth head's softplus rounds to 0 (a raw output
    below about -745) is a GeometryError naming that raw output.
    """
    # Batch's ray of the box, ((x - cx) / f, (y - cy) / f, 1), as Python floats: the same IEEE operations
    f = intr.focal_px
    ray = np.array([[(float(bbox.x) - intr.cx) / f, (float(bbox.y) - intr.cy) / f, 1.0]])
    c = forward_batch(params, np.asarray(features, dtype=float).reshape(1, -1), ray)
    if not c["depth"][0, 0] > 0:
        raise GeometryError(f"predicted face depth is not positive: the depth head's raw "
                            f"output {c['d_raw'][0, 0]!r} gives softplus {float(c['depth'][0, 0])!r}")
    row = c["preds"][0].tolist()   # the row's predictions in TASK_LABELS column order
    origin = Point3(c["face"][0])
    direction = _gaze_vector(*row[_GO])
    try:
        geometric = pogz_from_ray(origin, direction)
    except RayParallelError:
        geometric = None
    return SixDofPrediction(origin, direction, PlanePoint(*row[_POGZ]), geometric)
