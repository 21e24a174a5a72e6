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
removes the task from the loss and freezes its head.

Gradients are hand-written reverse mode over plain numpy arrays; training
uses Adam.  Everything is deterministic for a fixed seed.

Gaze angle convention: a direction g maps to (yaw, pitch) with
yaw = atan2(-g_x, -g_z) and pitch = asin(-g_y), so (0, 0) looks straight
along -z (toward the camera) and positive pitch looks up.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass, field

import numpy as np

from .camera import BoundingBox, CameraIntrinsics, Point3, backproject
from .errors import ConfigError, GeometryError, GimbalLockError, RayParallelError, TrainingDiverged
from .pogz import PlanePoint, pogz_from_ray

TASKS = ("g_n", "g_o", "pogz", "r_on", "face")

# softmax-free heads; components per task for the L1 mean
_TASK_COMPONENTS = {"g_n": 2, "g_o": 2, "pogz": 2, "r_on": 2, "face": 3}

_TASK_HEAD = {
    "g_n": "head_gn",
    "g_o": "head_go",
    "pogz": "head_pogz",
    "r_on": "head_r",
    "face": "head_depth",
}


# ---------------------------------------------------------------------------
# gaze angle parametrization


def vec_from_euler(e) -> np.ndarray:
    """Unit gaze direction from (yaw, pitch)."""
    yaw, pitch = float(e[0]), float(e[1])
    cp = np.cos(pitch)
    return np.array([-cp * np.sin(yaw), -np.sin(pitch), -cp * np.cos(yaw)])


def euler_from_vec(g) -> np.ndarray:
    """(yaw, pitch) of a gaze direction; the input need not be unit length."""
    g = np.asarray(g, dtype=float)
    n = np.linalg.norm(g)
    if n == 0:
        raise GeometryError("zero gaze vector has no direction")
    v = g / n
    if abs(v[1]) >= 1.0:
        raise GimbalLockError("gaze along the y-axis: yaw is undefined")
    return np.array([np.arctan2(-v[0], -v[2]), np.arcsin(-v[1])])


def _vecs_from_euler(E: np.ndarray) -> np.ndarray:
    """Vectorized vec_from_euler for an (N, 2) array of (yaw, pitch)."""
    yaw, pitch = E[:, 0], E[:, 1]
    cp = np.cos(pitch)
    return np.stack([-cp * np.sin(yaw), -np.sin(pitch), -cp * np.cos(yaw)], axis=1)


def _angular_deg(E_pred: np.ndarray, E_true: np.ndarray) -> np.ndarray:
    va, vb = _vecs_from_euler(E_pred), _vecs_from_euler(E_true)
    dots = np.clip(np.sum(va * vb, axis=1), -1.0, 1.0)
    return np.degrees(np.arccos(dots))


# ---------------------------------------------------------------------------
# parameters


@dataclass(frozen=True)
class ModelConfig:
    feature_dim: int = 7
    dir_lo: int = 0
    dir_hi: int = 2
    pose_lo: int = 2
    pose_hi: int = 4
    box_lo: int = 4
    box_hi: int = 7
    hidden: int = 32
    embed: int = 32
    # pogz targets are mm-scale; a fixed output gain keeps head weights O(1)
    pogz_gain: float = 500.0
    # softplus(depth_bias) = depth_bias for any plausible mm value, so the
    # depth head starts near the middle of the working range
    depth_bias: float = 600.0

    def to_dict(self) -> dict:
        return {k: getattr(self, k) for k in self.__dataclass_fields__}

    @classmethod
    def from_dict(cls, d: dict) -> "ModelConfig":
        return cls(**d)


def _layer_dims(config: ModelConfig) -> dict[str, tuple[int, int]]:
    """Affine layer -> (outputs, fan_in), in parameter order."""
    h, e = config.hidden, config.embed
    return {
        "gaze1": (h, config.dir_hi - config.dir_lo),
        "gaze2": (e, h),
        "pose1": (h, config.pose_hi - config.pose_lo),
        "pose2": (e, h),
        "box1": (h, config.box_hi - config.box_lo),
        "box2": (e, h),
        "fuse": (e, 2 * e),
        "head_gn": (2, e),
        "head_go": (2, 2 * e),
        "head_pogz": (2, 2 * e),
        "head_r": (2, 2 * e),
        "head_depth": (1, e),
    }


@dataclass(frozen=True)
class ParamLayout:
    """Where each named weight array lives in the flat parameter vector."""

    entries: tuple[tuple[str, slice, tuple[int, ...]], ...]   # (name, span, shape), in order
    size: int

    def views(self, flat: np.ndarray) -> dict[str, np.ndarray]:
        """Name -> view of its array in `flat`."""
        if flat.shape != (self.size,) or flat.dtype != np.float64 or not flat.flags.c_contiguous:
            raise ConfigError(f"expected a contiguous float64 vector of {self.size} params, "
                              f"got {flat.dtype} {flat.shape}")
        # a bias needs no reshape, and backward makes these views every step
        return {name: flat[span] if len(shape) == 1 else flat[span].reshape(shape)
                for name, span, shape in self.entries}

    def mask(self, names) -> np.ndarray:
        """Boolean vector marking the entries of the named arrays."""
        out = np.zeros(self.size, dtype=bool)
        for name, span, _ in self.entries:
            if name in names:
                out[span] = True
        return out


@functools.lru_cache(maxsize=16)
def param_layout(config: ModelConfig) -> ParamLayout:
    """The flat layout of `config`'s params: each layer's weight, then its bias."""
    entries, size = [], 0
    for layer, (out, fan_in) in _layer_dims(config).items():
        for name, shape in ((layer + "_w", (out, fan_in)), (layer + "_b", (out,))):
            n = math.prod(shape)
            entries.append((name, slice(size, size + n), shape))
            size += n
    return ParamLayout(tuple(entries), size)


@dataclass
class ModelParams:
    """The architecture description plus every weight in one contiguous
    float64 vector; `arrays` maps each name to its view into `flat`."""

    config: ModelConfig
    flat: np.ndarray
    arrays: dict[str, np.ndarray] = field(init=False, repr=False)

    def __post_init__(self):
        self.arrays = self.layout.views(self.flat)

    @property
    def layout(self) -> ParamLayout:
        return param_layout(self.config)

    def copy(self) -> "ModelParams":
        return ModelParams(self.config, self.flat.copy())


def init_params(config: ModelConfig = ModelConfig(), seed: int = 0) -> ModelParams:
    """Gaussian init scaled by 1/sqrt(fan_in); biases zero except depth."""
    rng = np.random.default_rng(seed)
    params = ModelParams(config, np.zeros(param_layout(config).size))
    for name, (out, fan_in) in _layer_dims(config).items():
        params.arrays[name + "_w"][...] = rng.normal(0.0, 1.0 / np.sqrt(fan_in), size=(out, fan_in))
    params.arrays["head_depth_b"][0] = config.depth_bias
    return params


def save_params(params: ModelParams, path) -> None:
    doc = {
        "format_version": 1,
        "model_config": params.config.to_dict(),
        "arrays": {
            k: {"shape": list(v.shape), "data": v.reshape(-1).tolist()}
            for k, v in params.arrays.items()
        },
    }
    with open(path, "w") as f:
        f.write(json.dumps(doc, sort_keys=True))


def load_params(path) -> ModelParams:
    """Read a params file written by save_params.

    The arrays must match, name for name and shape for shape, the layout
    that the file's model_config implies, and every value must be finite;
    anything else is a ConfigError naming the file.
    """
    with open(path) as f:
        doc = json.load(f)
    try:
        return _params_from_doc(doc)
    except KeyError as exc:
        raise ConfigError(f"{path}: missing key {exc}") from None
    except (AttributeError, TypeError, ValueError) as exc:  # ConfigError too
        raise ConfigError(f"{path}: {exc}") from None


def _params_from_doc(doc: dict) -> ModelParams:
    if doc.get("format_version") != 1:
        raise ConfigError(f"unsupported params format {doc.get('format_version')}")
    config = ModelConfig.from_dict(doc["model_config"])
    if not np.isfinite([config.pogz_gain, config.depth_bias]).all():
        raise ConfigError("model_config has a non-finite pogz_gain or depth_bias")
    stored = doc["arrays"]
    params = ModelParams(config, np.empty(param_layout(config).size))
    if set(stored) != set(params.arrays):
        raise ConfigError(f"arrays do not match model_config: missing "
                          f"{sorted(set(params.arrays) - set(stored))}, "
                          f"unexpected {sorted(set(stored) - set(params.arrays))}")
    for name, view in params.arrays.items():
        shape, data = stored[name]["shape"], stored[name]["data"]
        if list(shape) != list(view.shape) or len(data) != view.size:
            raise ConfigError(f"array {name} has shape {shape} and {len(data)} values, "
                              f"model_config needs shape {list(view.shape)}")
        view.reshape(-1)[:] = data
        if not np.isfinite(view).all():
            raise ConfigError(f"array {name} has non-finite values")
    return params


# ---------------------------------------------------------------------------
# loss configuration


@dataclass(frozen=True)
class LossWeights:
    """Per-task L1 weights; a zero weight also freezes the task's head."""

    g_n: float = 1.0
    g_o: float = 0.5
    pogz: float = 0.1
    r_on: float = 0.5
    face: float = 0.1

    def value(self, task: str) -> float:
        return getattr(self, task)

    def frozen_params(self) -> set[str]:
        out = set()
        for task in TASKS:
            if self.value(task) == 0.0:
                head = _TASK_HEAD[task]
                out.update({head + "_w", head + "_b"})
        return out

    def to_dict(self) -> dict:
        return {k: getattr(self, k) for k in TASKS}

    @classmethod
    def from_dict(cls, d: dict) -> "LossWeights":
        return cls(**d)


@dataclass(frozen=True)
class TrainConfig:
    lr: float = 1e-4
    batch_size: int = 128
    epochs: int = 120
    seed: int = 0
    weights: LossWeights = LossWeights()
    val_fraction: float = 0.1
    finetune_lr: float = 1e-5
    # fine-tune budget is counted in parameter updates, not epochs, so runs
    # with different calibration set sizes get equal optimization pressure
    finetune_steps: int = 100
    finetune_batch: int = 8
    calibration_fraction: float = 1.0

    def __post_init__(self):
        if self.lr < 0 or self.finetune_lr < 0:
            raise ConfigError("learning rates must be >= 0")
        if self.batch_size < 1 or self.finetune_batch < 1:
            raise ConfigError("batch sizes must be >= 1")
        if self.epochs < 0 or self.finetune_steps < 0:
            raise ConfigError("epoch and step counts must be >= 0")
        if not 0 <= self.val_fraction < 1:
            raise ConfigError(f"val_fraction must be in [0, 1), got {self.val_fraction}")
        if not 0 < self.calibration_fraction <= 1:
            raise ConfigError(f"calibration_fraction must be in (0, 1], got {self.calibration_fraction}")

    def to_dict(self) -> dict:
        d = {k: getattr(self, k) for k in self.__dataclass_fields__}
        d["weights"] = self.weights.to_dict()
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "TrainConfig":
        d = dict(d)
        if "weights" in d:
            d["weights"] = LossWeights.from_dict(d["weights"])
        return cls(**d)


# ---------------------------------------------------------------------------
# batches


@dataclass
class Batch:
    """Dense training arrays; masks mark which labels are present per row."""

    features: np.ndarray              # (B, 7)
    ray: np.ndarray                   # (B, 3) box-center backprojection at unit depth
    labels: dict[str, np.ndarray]     # task -> (B, C)
    masks: dict[str, np.ndarray]      # task -> (B,)

    def __len__(self) -> int:
        return self.features.shape[0]

    def subset(self, idx) -> "Batch":
        return Batch(
            features=self.features[idx],
            ray=self.ray[idx],
            labels={k: v[idx] for k, v in self.labels.items()},
            masks={k: v[idx] for k, v in self.masks.items()},
        )

    @classmethod
    def from_samples(cls, samples, intr: CameraIntrinsics) -> "Batch":
        n = len(samples)
        features = np.zeros((n, 7))
        ray = np.zeros((n, 3))
        labels = {t: np.zeros((n, _TASK_COMPONENTS[t])) for t in TASKS}
        masks = {t: np.zeros(n) for t in TASKS}
        fields = {"g_n": "g_n", "g_o": "g_o", "pogz": "pogz", "r_on": "r_on", "face": "o_face"}
        for i, s in enumerate(samples):
            features[i] = s.features
            ray[i] = backproject(intr, s.bbox.center, 1.0).xyz
            for task, attr in fields.items():
                value = getattr(s, attr)
                if value is not None:
                    labels[task][i] = value
                    masks[task][i] = 1.0
        return cls(features, ray, labels, masks)


# ---------------------------------------------------------------------------
# forward / loss / backward


def _softplus(x: np.ndarray) -> np.ndarray:
    return np.logaddexp(0.0, x)


def _sigmoid(x: np.ndarray) -> np.ndarray:
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def _forward_arrays(params: ModelParams, F: np.ndarray, ray: np.ndarray | None = None) -> dict:
    """Batch forward pass; returns every intermediate needed by backward."""
    p, cfg = params.arrays, params.config
    Xd = F[:, cfg.dir_lo:cfg.dir_hi]
    Xp = F[:, cfg.pose_lo:cfg.pose_hi]
    Xb = F[:, cfg.box_lo:cfg.box_hi]

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
    depth = _softplus(d_raw)
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
    out["pogz"] = out["pogz_raw"] * cfg.pogz_gain
    if ray is not None:
        out["face"] = ray * depth  # (B, 3) face center along the box ray
    return out


@dataclass(frozen=True)
class MultiTaskOutput:
    g_n: np.ndarray
    g_o: np.ndarray
    pogz: np.ndarray
    r_on: np.ndarray
    face_depth: float


def forward(params: ModelParams, features) -> MultiTaskOutput:
    """Single-sample forward pass."""
    F = np.asarray(features, dtype=float).reshape(1, -1)
    if F.shape[1] != params.config.feature_dim:
        raise ConfigError(f"expected {params.config.feature_dim} features, got {F.shape[1]}")
    c = _forward_arrays(params, F)
    return MultiTaskOutput(
        g_n=c["g_n"][0].copy(),
        g_o=c["g_o"][0].copy(),
        pogz=c["pogz"][0].copy(),
        r_on=c["r_on"][0].copy(),
        face_depth=float(c["depth"][0, 0]),
    )


def _task_terms(preds: dict, batch: Batch, weights: LossWeights, pogz_scale: float):
    """Masked per-task mean L1 terms and the weighted total.

    The pogz residual is measured in units of pogz_scale (the head's output
    gain), not millimetres: that keeps the task's subgradients the same
    magnitude as the angular tasks', so no single task dominates the shared
    encoders.  Reported errors elsewhere stay metric.
    """
    terms, resids, counts = {}, {}, {}
    total = 0.0
    for task in TASKS:
        resid = preds[task] - batch.labels[task]
        if task == "pogz":
            resid = resid / pogz_scale
        mask = batch.masks[task]
        n = mask.sum()
        per_sample = np.abs(resid).mean(axis=1)
        term = float((per_sample * mask).sum() / max(n, 1.0))
        terms[task] = term
        resids[task] = resid
        counts[task] = n
        total += weights.value(task) * term
    return total, terms, resids, counts


@dataclass(frozen=True)
class SampleLabels:
    """Targets for one sample; None marks a task as unsupervised.

    `ray` is the unit-depth backprojection ray of the box center, required
    whenever o_face supervision is present.
    """

    g_n: np.ndarray | None = None
    g_o: np.ndarray | None = None
    pogz: np.ndarray | None = None
    r_on: np.ndarray | None = None
    o_face: np.ndarray | None = None
    ray: np.ndarray | None = None


def loss(
    output: MultiTaskOutput,
    labels: SampleLabels,
    weights: LossWeights = LossWeights(),
    pogz_scale: float = ModelConfig().pogz_gain,
):
    """Weighted multi-task L1 loss for one sample.

    Returns (total, per-task mean absolute error).  Absent labels contribute
    exactly zero.  Each task error is the mean over its components.  The pogz
    error is expressed in units of pogz_scale, matching the batch loss used
    for training, so a unit of error means the same thing for every task.
    """
    preds = {
        "g_n": np.asarray(output.g_n, dtype=float),
        "g_o": np.asarray(output.g_o, dtype=float),
        "pogz": np.asarray(output.pogz, dtype=float),
        "r_on": np.asarray(output.r_on, dtype=float),
    }
    targets = {"g_n": labels.g_n, "g_o": labels.g_o, "pogz": labels.pogz, "r_on": labels.r_on}
    total = 0.0
    breakdown = {}
    for task in ("g_n", "g_o", "pogz", "r_on"):
        if targets[task] is None:
            breakdown[task] = 0.0
            continue
        err = float(np.abs(preds[task] - np.asarray(targets[task], dtype=float)).mean())
        if task == "pogz":
            err /= pogz_scale
        breakdown[task] = err
        total += weights.value(task) * err
    if labels.o_face is None:
        breakdown["face"] = 0.0
    else:
        if labels.ray is None:
            raise ConfigError("o_face supervision requires the box-center ray")
        face_pred = np.asarray(labels.ray, dtype=float) * output.face_depth
        err = float(np.abs(face_pred - np.asarray(labels.o_face, dtype=float)).mean())
        breakdown["face"] = err
        total += weights.face * err
    return total, breakdown


def batch_loss(params: ModelParams, batch: Batch, weights: LossWeights):
    """(total, per-task breakdown) over a batch; used by training and checks."""
    c = _forward_arrays(params, batch.features, batch.ray)
    total, terms, _, _ = _task_terms(c, batch, weights, params.config.pogz_gain)
    return total, terms


class Gradients(dict):
    """Param name -> gradient array; every array is a view into `flat`, one
    contiguous vector laid out like the params' `flat`."""

    def __init__(self, views: dict[str, np.ndarray], flat: np.ndarray):
        super().__init__(views)
        self.flat = flat


def backward(params: ModelParams, batch: Batch, weights: LossWeights):
    """Analytic gradients of the batch loss.

    Returns (grads, total, per-task breakdown); grads maps each param name to
    its view into one flat gradient vector, `grads.flat`, laid out like
    `params.flat`.  Gradients of heads whose task weight is zero are
    identically zero; the L1 subgradient at zero residual is taken as 0.
    """
    p, cfg = params.arrays, params.config
    c = _forward_arrays(params, batch.features, batch.ray)
    total, terms, resids, counts = _task_terms(c, batch, weights, cfg.pogz_gain)

    def head_delta(task: str) -> np.ndarray:
        lam = weights.value(task)
        if lam == 0.0:
            return np.zeros_like(resids[task])
        scale = lam / (_TASK_COMPONENTS[task] * max(counts[task], 1.0))
        return np.sign(resids[task]) * batch.masks[task][:, None] * scale

    d_gn = head_delta("g_n")
    d_go = head_delta("g_o")
    # pogz loss is taken in gain units, so the forward gain cancels here
    d_pz = head_delta("pogz")
    d_r = head_delta("r_on")
    d_face = head_delta("face")                    # (B, 3) w.r.t. the 3-D point

    # face point = ray * softplus(d_raw)
    d_depth = (d_face * batch.ray).sum(axis=1, keepdims=True)
    d_draw = d_depth * _sigmoid(c["d_raw"])

    # every gradient is written in place into its view of one flat vector
    layout = params.layout
    gflat = np.empty(layout.size)
    g = Gradients(layout.views(gflat), gflat)

    np.matmul(d_gn.T, c["Ed"], out=g["head_gn_w"])
    d_gn.sum(axis=0, out=g["head_gn_b"])
    np.matmul(d_go.T, c["C"], out=g["head_go_w"])
    d_go.sum(axis=0, out=g["head_go_b"])
    np.matmul(d_pz.T, c["C"], out=g["head_pogz_w"])
    d_pz.sum(axis=0, out=g["head_pogz_b"])
    np.matmul(d_r.T, c["C"], out=g["head_r_w"])
    d_r.sum(axis=0, out=g["head_r_b"])
    np.matmul(d_draw.T, c["Epos"], out=g["head_depth_w"])
    d_draw.sum(axis=0, out=g["head_depth_b"])

    e = cfg.embed
    d_C = d_go @ p["head_go_w"] + d_pz @ p["head_pogz_w"] + d_r @ p["head_r_w"]
    d_Ed = d_C[:, :e] + d_gn @ p["head_gn_w"]
    d_Epos = d_C[:, e:] + d_draw @ p["head_depth_w"]

    # fusion block
    d_fuse_pre = d_Epos * (1.0 - c["Epos"] ** 2)
    np.matmul(d_fuse_pre.T, c["Cpb"], out=g["fuse_w"])
    d_fuse_pre.sum(axis=0, out=g["fuse_b"])
    d_Cpb = d_fuse_pre @ p["fuse_w"]
    d_Ep, d_Eb = d_Cpb[:, :e], d_Cpb[:, e:]

    def encoder_grads(prefix: str, X, H1, E, d_E):
        d2 = d_E * (1.0 - E ** 2)
        np.matmul(d2.T, H1, out=g[prefix + "2_w"])
        d2.sum(axis=0, out=g[prefix + "2_b"])
        d1 = (d2 @ p[prefix + "2_w"]) * (1.0 - H1 ** 2)
        np.matmul(d1.T, X, out=g[prefix + "1_w"])
        d1.sum(axis=0, out=g[prefix + "1_b"])

    encoder_grads("gaze", c["Xd"], c["G1"], c["Ed"], d_Ed)
    encoder_grads("pose", c["Xp"], c["P1"], c["Ep"], d_Ep)
    encoder_grads("box", c["Xb"], c["B1"], c["Eb"], d_Eb)

    for name in weights.frozen_params():
        g[name].fill(0.0)
    return g, total, terms


def gradient_check(params: ModelParams, batch: Batch, weights: LossWeights, h: float = 1e-5) -> float:
    """Max relative error of analytic vs central-difference gradients.

    The relative-error denominator is floored at 1e-4, which turns the check
    into an absolute one for near-zero gradient entries.
    """
    grads, _, _ = backward(params, batch, weights)
    flat, gflat = params.flat, grads.flat
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
    c = _forward_arrays(params, features, ray)
    offsets = {t: rng.uniform(0.5, 1.5, size=c[t].shape) * rng.choice([-1.0, 1.0], size=c[t].shape)
               for t in ("g_n", "g_o", "r_on")}
    labels = {
        "g_n": c["g_n"] + offsets["g_n"],
        "g_o": c["g_o"] + offsets["g_o"],
        "r_on": c["r_on"] + offsets["r_on"],
        "pogz": c["pogz"] + rng.uniform(5.0, 50.0, size=(n, 2)) * rng.choice([-1.0, 1.0], size=(n, 2)),
        "face": c["face"] + rng.uniform(5.0, 50.0, size=(n, 3)) * rng.choice([-1.0, 1.0], size=(n, 3)),
    }
    masks = {t: np.ones(n) for t in TASKS}
    return Batch(features=features, ray=ray, labels=labels, masks=masks)


# ---------------------------------------------------------------------------
# optimization


class Adam:
    """Adam with bias correction (Kingma & Ba, ICLR 2015) over params.flat.

    Each step applies the per-element update to the whole flat vector at
    once; entries of the `frozen` arrays are skipped entirely, so they and
    their moments never change.
    """

    def __init__(self, params: ModelParams, lr: float, frozen=frozenset(),
                 beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        self.flat = params.flat
        self.lr = lr
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self.t = 0
        self.m = np.zeros_like(self.flat)
        self.v = np.zeros_like(self.flat)
        # the entries that move: all of them, or those outside the frozen arrays
        self.live = np.flatnonzero(~params.layout.mask(frozen)) if frozen else slice(None)

    def step(self, grad: np.ndarray) -> None:
        """Update the params from the flat gradient vector `grad`."""
        self.t += 1
        b1c = 1.0 - self.beta1 ** self.t
        b2c = 1.0 - self.beta2 ** self.t
        live = self.live
        g = grad[live]
        m = self.m[live] = self.beta1 * self.m[live] + (1.0 - self.beta1) * g
        v = self.v[live] = self.beta2 * self.v[live] + (1.0 - self.beta2) * g * g
        self.flat[live] -= self.lr * (m / b1c) / (np.sqrt(v / b2c) + self.eps)


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
    c = _forward_arrays(params, val.features, val.ray)
    total, _, _, _ = _task_terms(c, val, weights, params.config.pogz_gain)
    mask = val.masks["g_n"] > 0
    if not mask.any():
        return total, float("nan")
    ang = _angular_deg(c["g_n"][mask], val.labels["g_n"][mask])
    return total, float(ang.mean())


def _optimize(params: ModelParams, data: Batch, lr: float, batch_size: int, epochs: int,
              weights: LossWeights, rng: np.random.Generator,
              val: Batch | None = None, max_steps: int | None = None) -> list[EpochStats]:
    """Shared minibatch loop for training and fine-tuning; mutates params.

    max_steps caps the total number of parameter updates across epochs, so a
    budget can be held fixed while the dataset size varies.
    """
    opt = Adam(params, lr, frozen=weights.frozen_params())
    history: list[EpochStats] = []
    n = len(data)
    steps = 0
    for epoch in range(epochs):
        perm = rng.permutation(n)
        seen, loss_sum = 0, 0.0
        for lo in range(0, n, batch_size):
            if max_steps is not None and steps >= max_steps:
                break
            idx = perm[lo:lo + batch_size]
            grads, total, _ = backward(params, data.subset(idx), weights)
            if not np.isfinite(total):
                raise TrainingDiverged(f"non-finite loss at epoch {epoch}, batch offset {lo}")
            opt.step(grads.flat)
            loss_sum += total * len(idx)
            seen += len(idx)
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


def _split_by_subject(samples, val_fraction: float):
    """Last val_fraction of each subject's rows (file order) go to validation."""
    by_subject: dict[int, list] = {}
    for s in samples:
        by_subject.setdefault(s.subject, []).append(s)
    train_rows, val_rows = [], []
    for sid in sorted(by_subject):
        rows = by_subject[sid]
        n_val = int(len(rows) * val_fraction)
        cut = len(rows) - n_val
        train_rows.extend(rows[:cut])
        val_rows.extend(rows[cut:])
    return train_rows, val_rows


def train(cfg: TrainConfig, dataset, model_config: ModelConfig = ModelConfig()):
    """Train from scratch on a loaded dataset.

    Returns (params, history).  The validation split is the last
    cfg.val_fraction of each subject's samples in file order.
    """
    samples, intr = dataset.samples, dataset.intrinsics
    if not samples:
        raise ConfigError("cannot train on an empty dataset")
    train_rows, val_rows = _split_by_subject(samples, cfg.val_fraction)
    data = Batch.from_samples(train_rows, intr)
    val = Batch.from_samples(val_rows, intr) if val_rows else Batch.from_samples([], intr)

    rng = np.random.default_rng(cfg.seed)
    params = init_params(model_config, seed=cfg.seed)
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


@dataclass(frozen=True)
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
    """Assemble the 6-DoF gaze state for one sample."""
    out = forward(params, features)
    origin = backproject(intr, bbox.center, out.face_depth)
    direction = vec_from_euler(out.g_o)
    try:
        geometric = pogz_from_ray(origin, direction)
    except RayParallelError:
        geometric = None
    return SixDofPrediction(
        origin=origin,
        direction=direction,
        pogz=PlanePoint(float(out.pogz[0]), float(out.pogz[1])),
        pogz_geometric=geometric,
    )
