"""Synthetic desk-scene generator with exact geometric ground truth.

Each frame is a random subject pose in front of a pinhole camera:

  * the face center is a single 3-D point, drawn at a random depth and at a
    lateral position whose projection (the box center) keeps the face box
    inside the image;
  * the true gaze direction is drawn in the normalized frame, so the gaze
    attribute statistics are camera-independent;
  * per-subject systematic bias ("kappa") and i.i.d. Gaussian noise corrupt
    the observable features, while labels stay exact.

Instead of rendered images the observable is a 7-dim feature vector standing
in for an appearance encoder's output:

    [0:2]  apparent normalized gaze (yaw, pitch) = true + kappa + noise
    [2:4]  head pose (yaw, pitch) + noise
    [4:7]  face box (x/W, y/H, side/W)

Generation is deterministic: every frame draws from its own generator keyed
by (config seed, subject id, frame index), so datasets are reproducible and
frames can be produced independently in any order.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass

import numpy as np

from . import calibration as _calibration
from .camera import BoundingBox, CameraIntrinsics, Point3, backproject
from .easy_norm import denormalize_gaze, norm_rotation, normalize_gaze
from .errors import ConfigError, bad_input
from .model import FEATURE_DIM, TASK_LABELS, euler_from_vec, vec_from_euler
from .pogz import pogz_from_ray

SCHEMA_VERSION = 1
MAX_REJECTION_DRAWS = 1000

# a gaze line this close to the camera plane has no usable plane intersection
MIN_ABS_GZ = 1e-3

# default per-subject bias range and feature noise (radians)
KAPPA_RANGE = 0.09
NOISE_SIGMA = 0.035

DEFAULT_INTRINSICS = CameraIntrinsics(
    focal_px=600.0, cx=320.0, cy=240.0, k_mm_per_px=0.005, width=640, height=480
)


@dataclass(frozen=True)
class ClippedGaussian:
    """Gaussian attribute clipped to a closed range."""

    mean: float
    std: float
    lo: float
    hi: float

    def __post_init__(self):
        if self.std < 0:
            raise ConfigError(f"std must be >= 0, got {self.std}")
        if self.lo >= self.hi:
            raise ConfigError(f"empty range [{self.lo}, {self.hi}]")

    def sample(self, rng: np.random.Generator) -> float:
        return float(np.clip(rng.normal(self.mean, self.std), self.lo, self.hi))

    def to_dict(self) -> dict:
        return {"mean": self.mean, "std": self.std, "lo": self.lo, "hi": self.hi}

    @classmethod
    def from_dict(cls, d: dict) -> "ClippedGaussian":
        return cls(float(d["mean"]), float(d["std"]), float(d["lo"]), float(d["hi"]))


@dataclass(frozen=True)
class Subject:
    """Synthetic subject: identity plus feature-corruption parameters.

    kappa_yaw / kappa_pitch is a constant per-subject offset between the true
    and the apparent gaze angle (radians); noise_sigma is the i.i.d. noise on
    the four angular feature channels.
    """

    id: int
    kappa_yaw: float = 0.0
    kappa_pitch: float = 0.0
    noise_sigma: float = NOISE_SIGMA

    def __post_init__(self):
        if abs(self.kappa_yaw) > 0.15 or abs(self.kappa_pitch) > 0.15:
            raise ConfigError(f"kappa bias out of range: ({self.kappa_yaw}, {self.kappa_pitch})")
        if self.noise_sigma < 0:
            raise ConfigError(f"noise_sigma must be >= 0, got {self.noise_sigma}")

    def to_dict(self) -> dict:
        return {
            "id": self.id,
            "kappa_yaw": self.kappa_yaw,
            "kappa_pitch": self.kappa_pitch,
            "noise_sigma": self.noise_sigma,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "Subject":
        return cls(int(d["id"]), float(d["kappa_yaw"]), float(d["kappa_pitch"]), float(d["noise_sigma"]))


def make_subjects(n: int, seed: int, kappa_range: float = KAPPA_RANGE,
                  noise_sigma: float = NOISE_SIGMA) -> list[Subject]:
    """Draw n subjects with kappa components uniform in [-kappa_range, kappa_range]."""
    if n < 0:
        raise ConfigError(f"subject count must be >= 0, got {n}")
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence((seed,))))
    return [
        Subject(
            id=i,
            kappa_yaw=float(rng.uniform(-kappa_range, kappa_range)),
            kappa_pitch=float(rng.uniform(-kappa_range, kappa_range)),
            noise_sigma=noise_sigma,
        )
        for i in range(n)
    ]


@dataclass(frozen=True)
class SceneConfig:
    """Sampling distributions for one synthetic recording setup.

    Angles are radians; gaze attributes live in the normalized frame, head
    pose and depth in the camera frame.
    """

    gaze_yaw: ClippedGaussian = ClippedGaussian(0.01, 0.27, -0.86, 0.97)
    gaze_pitch: ClippedGaussian = ClippedGaussian(-0.01, 0.23, -0.69, 0.84)
    head_yaw: ClippedGaussian = ClippedGaussian(0.03, 0.29, -1.45, 1.12)
    head_pitch: ClippedGaussian = ClippedGaussian(-0.01, 0.12, -0.77, 0.72)
    depth_lo: float = 400.0
    depth_hi: float = 800.0
    face_size_mm: float = 160.0
    intrinsics: CameraIntrinsics = DEFAULT_INTRINSICS
    seed: int = 0

    def __post_init__(self):
        if self.depth_lo <= 0 or self.depth_lo >= self.depth_hi:
            raise ConfigError(f"bad depth range [{self.depth_lo}, {self.depth_hi}]")
        if self.face_size_mm <= 0:
            raise ConfigError(f"face_size_mm must be positive, got {self.face_size_mm}")

    def to_dict(self) -> dict:
        return {
            "gaze_yaw": self.gaze_yaw.to_dict(),
            "gaze_pitch": self.gaze_pitch.to_dict(),
            "head_yaw": self.head_yaw.to_dict(),
            "head_pitch": self.head_pitch.to_dict(),
            "depth_lo": self.depth_lo,
            "depth_hi": self.depth_hi,
            "face_size_mm": self.face_size_mm,
            "intrinsics": self.intrinsics.to_dict(),
            "seed": self.seed,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "SceneConfig":
        return cls(
            gaze_yaw=ClippedGaussian.from_dict(d["gaze_yaw"]),
            gaze_pitch=ClippedGaussian.from_dict(d["gaze_pitch"]),
            head_yaw=ClippedGaussian.from_dict(d["head_yaw"]),
            head_pitch=ClippedGaussian.from_dict(d["head_pitch"]),
            depth_lo=float(d["depth_lo"]),
            depth_hi=float(d["depth_hi"]),
            face_size_mm=float(d["face_size_mm"]),
            intrinsics=CameraIntrinsics.from_dict(d["intrinsics"]),
            seed=int(d["seed"]),
        )

    def hash(self) -> str:
        blob = json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()[:16]


# the serialized float-list fields: the features, then each task's label
_VECTOR_FIELDS = ("features",) + tuple(attr for attr, _ in TASK_LABELS.values())


@dataclass
class GazeSample:
    """One synthetic frame: observable features plus exact labels.

    g_n and g_o are (yaw, pitch) pairs, pogz is a 2-D plane point in mm,
    r_on the in-plane normalization rotation components, o_face the 3-D face
    center in mm.  A label set to None marks the task as unsupervised for
    that row.  head_pose keeps the sampled head angles for in-memory
    statistics; it is not part of the serialized schema.
    """

    features: np.ndarray | None
    bbox: BoundingBox
    g_n: np.ndarray | None
    g_o: np.ndarray | None
    pogz: np.ndarray | None
    r_on: np.ndarray | None
    o_face: np.ndarray | None
    subject: int
    head_pose: np.ndarray | None = None

    def to_dict(self) -> dict:
        return {**{k: [float(v) for v in getattr(self, k)] for k in _VECTOR_FIELDS},
                "bbox": self.bbox.to_list(), "subject": self.subject}

    @classmethod
    def from_dict(cls, d: dict) -> "GazeSample":
        return cls(bbox=BoundingBox.from_list(d["bbox"]), subject=int(d["subject"]),
                   **{k: np.array(d[k], dtype=float) for k in _VECTOR_FIELDS})


def calibration_view(samples, intr: CameraIntrinsics) -> list[GazeSample]:
    """Reduce lens-fixation frames to what a calibration session observes.

    Keeps features, box and subject.  The labels are re-derived from the
    face pixel alone, which is all a real recording provides: the camera
    direction for g_o, and its normalized image for g_n.  Positional labels
    are absent, so rows from this view supervise only the two gaze heads
    during fine-tuning.
    """
    out = []
    for s in samples:
        label = _calibration.derive_calibration_label(intr, s.bbox.center)
        r_on = norm_rotation(intr, s.bbox.center)
        out.append(
            GazeSample(
                features=np.array(s.features, dtype=float),
                bbox=s.bbox,
                g_n=euler_from_vec(normalize_gaze(label, r_on)),
                g_o=euler_from_vec(label),
                pogz=None,
                r_on=None,
                o_face=None,
                subject=s.subject,
            )
        )
    return out


def frame_rng(seed: int, subject_id: int, index: int) -> np.random.Generator:
    """Independent generator for one frame, keyed by (seed, subject, index)."""
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence((seed, subject_id, index))))


def render_features(
    sample: GazeSample, subject: Subject, intr: CameraIntrinsics, rng: np.random.Generator
) -> np.ndarray:
    """Observable feature vector for a labeled frame.

    The gaze channel carries the subject's kappa offset, the four angular
    channels carry i.i.d. Gaussian noise, the box channel is exact.
    """
    noise = rng.normal(0.0, 1.0, size=4) * subject.noise_sigma
    f = np.empty(FEATURE_DIM)
    f[0] = sample.g_n[0] + subject.kappa_yaw + noise[0]
    f[1] = sample.g_n[1] + subject.kappa_pitch + noise[1]
    f[2] = sample.head_pose[0] + noise[2]
    f[3] = sample.head_pose[1] + noise[3]
    f[4] = sample.bbox.x / intr.width
    f[5] = sample.bbox.y / intr.height
    f[6] = sample.bbox.side / intr.width
    return f


def sample_frame(
    subject: Subject, cfg: SceneConfig, rng: np.random.Generator, calibration: bool = False
) -> GazeSample:
    """Draw one frame and compute all labels through the camera geometry.

    With calibration=True the gaze target is pinned at the camera origin
    (lens fixation) and the gaze label comes from the face pixel.
    """
    intr = cfg.intrinsics
    W, H = intr.width, intr.height

    for _ in range(MAX_REJECTION_DRAWS):
        depth = rng.uniform(cfg.depth_lo, cfg.depth_hi)
        side = intr.focal_px * cfg.face_size_mm / depth
        u = rng.uniform(0.0, W)
        v = rng.uniform(0.0, H)
        half = side / 2.0
        if not (half <= u <= W - half and half <= v <= H - half):
            continue

        face_px = (u, v)
        o_face = backproject(intr, face_px, depth)
        r_on = norm_rotation(intr, face_px)

        if calibration:
            g_o_vec = _calibration.derive_calibration_label(intr, face_px)
            g_n_vec = normalize_gaze(g_o_vec, r_on)
            gaze_n = euler_from_vec(g_n_vec)
        else:
            gaze_n = np.array([cfg.gaze_yaw.sample(rng), cfg.gaze_pitch.sample(rng)])
            g_n_vec = vec_from_euler(gaze_n)
            g_o_vec = denormalize_gaze(g_n_vec, r_on)
            if abs(g_o_vec[2]) < MIN_ABS_GZ:
                continue  # no usable plane intersection; reject the draw

        pogz = pogz_from_ray(o_face, g_o_vec)
        head_pose = np.array([cfg.head_yaw.sample(rng), cfg.head_pitch.sample(rng)])

        sample = GazeSample(
            features=None,
            bbox=BoundingBox(u, v, side),
            g_n=gaze_n,
            g_o=euler_from_vec(g_o_vec),
            pogz=pogz.xy,
            r_on=r_on.xy,
            o_face=o_face.xyz,
            subject=subject.id,
            head_pose=head_pose,
        )
        sample.features = render_features(sample, subject, intr, rng)
        return sample

    raise ConfigError(
        f"no face placement found in {MAX_REJECTION_DRAWS} draws; "
        f"face box does not fit the {W}x{H} image for this config"
    )


def _attribute_stats(attributes: np.ndarray, cfg: SceneConfig) -> dict:
    """Mean and std of each attribute row (one column per frame) and its target."""
    targets = {"gaze_yaw": cfg.gaze_yaw, "gaze_pitch": cfg.gaze_pitch,
               "head_yaw": cfg.head_yaw, "head_pitch": cfg.head_pitch}
    return {
        name: {
            "mean": float(vals.mean()),
            "std": float(vals.std()),
            "target_mean": dist.mean,
            "target_std": dist.std,
        }
        for (name, dist), vals in zip(targets.items(), attributes)
    }


def dataset_header(cfg: SceneConfig, subjects: list[Subject], n_per_subject: int, mode: str) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "config_hash": cfg.hash(),
        "seed": cfg.seed,
        "mode": mode,
        "n_per_subject": n_per_subject,
        "config": cfg.to_dict(),
        "subjects": [s.to_dict() for s in subjects],
    }


def generate_dataset(
    cfg: SceneConfig, subjects: list[Subject], n_per_subject: int, mode: str, out_path
) -> dict:
    """Write a JSONL dataset (header line first) and return attribute stats."""
    if mode not in ("general", "calibration"):
        raise ConfigError(f"unknown mode {mode!r}")
    if n_per_subject < 0:
        raise ConfigError(f"n_per_subject must be >= 0, got {n_per_subject}")

    calibration = mode == "calibration"
    # only the four sampled attributes are kept for the stats, not the frames
    attributes = np.empty((4, len(subjects) * n_per_subject))
    with open(out_path, "w") as f:
        f.write(json.dumps(dataset_header(cfg, subjects, n_per_subject, mode), sort_keys=True) + "\n")
        for j, subj in enumerate(subjects):
            for i in range(n_per_subject):
                s = sample_frame(subj, cfg, frame_rng(cfg.seed, subj.id, i), calibration=calibration)
                attributes[:, j * n_per_subject + i] = (s.g_n[0], s.g_n[1], s.head_pose[0], s.head_pose[1])
                f.write(json.dumps(s.to_dict(), sort_keys=True) + "\n")

    if not attributes.size:
        return {}
    return _attribute_stats(attributes, cfg)


@dataclass
class Dataset:
    """Loaded JSONL dataset: header metadata plus samples."""

    header: dict
    samples: list[GazeSample]

    def __len__(self) -> int:
        return len(self.samples)

    @property
    def intrinsics(self) -> CameraIntrinsics:
        return CameraIntrinsics.from_dict(self.header["config"]["intrinsics"])

    @property
    def mode(self) -> str:
        return self.header["mode"]

    def subject_ids(self) -> list[int]:
        return sorted({s.subject for s in self.samples})

    def by_subject(self, subject_id: int) -> list[GazeSample]:
        return [s for s in self.samples if s.subject == subject_id]


# serialized row fields and their lengths; `subject` is the one scalar field
_ROW_LENGTHS = {"features": FEATURE_DIM, "bbox": 3,
                **{attr: span.stop - span.start for attr, span in TASK_LABELS.values()}}


# JSON numbers parse to exactly these; a bool is no number here
_NUMBERS = frozenset((int, float))


def _reject_constant(name: str):
    raise ValueError(f"non-finite value {name}")


# json.loads builds a new decoder per call when given hooks; share one instead
_ROW_DECODER = json.JSONDecoder(parse_constant=_reject_constant)


def _sample_from_line(line: str) -> GazeSample:
    d = _ROW_DECODER.decode(line)
    if not isinstance(d, dict):
        raise ValueError("row is not a JSON object")
    for key, n in _ROW_LENGTHS.items():
        if len(d[key]) != n:
            raise ValueError(f"{key} has {len(d[key])} values, expected {n}")
    if type(d["subject"]) is not int:  # int() would take "3", 1.7 and true
        raise ValueError(f"subject must be an integer id, got {d['subject']!r}")
    sample = GazeSample.from_dict(d)
    # float arrays also take nested lists, numeric strings, bools and null (as NaN)
    for key, n in _ROW_LENGTHS.items():
        if type(d[key]) is not list or not _NUMBERS.issuperset(map(type, d[key])):
            raise ValueError(f"{key} must be a flat list of {n} numbers, got {d[key]!r}")
    return sample


def _header_from_line(line: str) -> dict:
    header = json.loads(line)
    if not isinstance(header, dict) or "schema_version" not in header:
        raise ValueError("first line is not a dataset header")
    if header["schema_version"] != SCHEMA_VERSION:
        raise ValueError(f"unsupported schema version {header['schema_version']}")
    if header["mode"] not in ("general", "calibration"):
        raise ValueError(f"unknown mode {header['mode']!r}")
    CameraIntrinsics.from_dict(header["config"]["intrinsics"])
    return header


def load_dataset(path) -> Dataset:
    """Read a JSONL dataset written by generate_dataset.

    A header line that is not JSON or lacks a known `mode` or valid
    `config.intrinsics`, and a row with a missing key, a non-integer
    `subject`, a vector field that is not a flat list of numbers of its
    length, a NaN, Infinity or too large number, or a byte that is not
    UTF-8, are a ConfigError naming the file and line.
    """
    header, samples, line_no = None, [], 0
    # decoded line by line: text mode decodes in chunks, past the line at fault
    with open(path, "rb") as f, bad_input(lambda: f"{path}:{line_no}"):
        for line_no, line in enumerate(f, start=1):
            line = line.decode()
            if header is None:
                header = _header_from_line(line)
            elif line.strip():
                samples.append(_sample_from_line(line))
    if header is None:
        raise ConfigError(f"{path}: empty file, expected a header line")
    return Dataset(header=header, samples=samples)
