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
import itertools
import json
import operator
import os
from array import array
from contextlib import ExitStack
from dataclasses import asdict, dataclass
from functools import cached_property

import numpy as np

from . import calibration as _calibration
from .camera import BoundingBox, CameraIntrinsics, backproject
from .easy_norm import denormalize_gaze, norm_rotation
from .errors import (COUNT, SEED, ConfigError, PhysicalRuleError, bad_input, check_ranges, describe, from_dict,
                     ranged)
from .jsonl import BLOCK_LINES, LINE_ENCODER, decode_json, number_rows, read_block
from .model import FEATURE_DIM, TASK_LABELS, Batch, euler_from_vec, vec_from_euler
from .pogz import pogz_from_ray

SCHEMA_VERSION = 1
MODES = ("general", "calibration")   # free gaze, and lens fixation for calibration
MAX_REJECTION_DRAWS = 1000

# a gaze line this close to the camera plane has no usable plane intersection
MIN_ABS_GZ = 1e-3

# default per-subject bias range and feature noise (radians), the largest
# bias a subject may carry, and the ranges of a bias, a noise and a bias range
KAPPA_RANGE = 0.09
NOISE_SIGMA = 0.035
MAX_KAPPA = 0.15
KAPPA_BIAS = f"in [{-MAX_KAPPA}, {MAX_KAPPA}]"
NOISE_SIGMAS = "finite and >= 0"
KAPPA_RANGES = f"in [0, {MAX_KAPPA}]"

DEFAULT_INTRINSICS = CameraIntrinsics(
    focal_px=600.0, cx=320.0, cy=240.0, k_mm_per_px=0.005, width=640, height=480
)


@dataclass(frozen=True)
class ClippedGaussian:
    """Gaussian attribute clipped to a closed range."""

    mean: float = ranged("finite")
    std: float = ranged("finite and >= 0")
    lo: float = ranged("finite")
    hi: float = ranged("finite")

    def __post_init__(self):
        check_ranges(self)
        if self.lo >= self.hi:
            raise ConfigError(f"empty range [{self.lo}, {self.hi}]")

    def sample(self, rng: np.random.Generator) -> float:
        # np.clip's result for a scalar, without its array dispatch
        return min(max(float(rng.normal(self.mean, self.std)), self.lo), self.hi)


@dataclass(frozen=True)
class Subject:
    """Synthetic subject: identity plus feature-corruption parameters.

    kappa_yaw / kappa_pitch is a constant per-subject offset between the true
    and the apparent gaze angle (radians); noise_sigma is the i.i.d. noise on
    the four angular feature channels.
    """

    id: int = ranged(SEED)   # an entry of each frame's seed
    kappa_yaw: float = ranged(KAPPA_BIAS, 0.0)
    kappa_pitch: float = ranged(KAPPA_BIAS, 0.0)
    noise_sigma: float = ranged(NOISE_SIGMAS, NOISE_SIGMA)

    def __post_init__(self):
        check_ranges(self)


def make_subjects(n: int, seed: int, kappa_range: float = KAPPA_RANGE,
                  noise_sigma: float = NOISE_SIGMA) -> list[Subject]:
    """Draw n subjects with kappa components uniform in [-kappa_range, kappa_range].

    Every argument is checked before the first draw: n >= 0, a valid seed,
    kappa_range in [0, MAX_KAPPA] and noise_sigma in Subject's range.
    """
    check_ranges({"subject count": (n, COUNT), "seed": (seed, SEED),
                  "kappa_range": (kappa_range, KAPPA_RANGES), "noise_sigma": (noise_sigma, NOISE_SIGMAS)})
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
    depth_lo: float = ranged("finite", 400.0)
    depth_hi: float = ranged("finite", 800.0)
    face_size_mm: float = ranged("finite and > 0", 160.0)
    intrinsics: CameraIntrinsics = DEFAULT_INTRINSICS
    seed: int = ranged(SEED, 0)

    def __post_init__(self):
        check_ranges(self)
        if self.depth_lo <= 0 or self.depth_lo >= self.depth_hi:
            raise ConfigError(f"bad depth range [{self.depth_lo}, {self.depth_hi}]")

    def hash(self) -> str:
        blob = json.dumps(asdict(self), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()[:16]


# the serialized float-list fields: the features, then each task's label
_VECTOR_FIELDS = ("features",) + tuple(attr for attr, _ in TASK_LABELS.values())


@dataclass(eq=False)
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
        return {**{k: getattr(self, k).tolist() for k in _VECTOR_FIELDS},
                "bbox": self.bbox.to_list(), "subject": self.subject}


def calibration_view(samples, intr: CameraIntrinsics) -> list[GazeSample]:
    """Reduce lens-fixation frames to what a calibration session observes: a
    copy of each frame's features, its box and subject, and the labels a real
    recording provides, from the face pixel alone.  g_o is the camera
    direction, derived as sample_frame derives it, and g_n is (0, 0), the
    normalized optical axis.  Positional labels are absent, so these rows
    supervise only the two gaze heads during fine-tuning."""
    return [GazeSample(features=np.array(s.features, dtype=float), bbox=s.bbox, g_n=np.zeros(2),
                       g_o=euler_from_vec(_calibration.derive_calibration_label(intr, (s.bbox.x, s.bbox.y))),
                       pogz=None, r_on=None, o_face=None, subject=s.subject)
            for s in samples]


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
    n0, n1, n2, n3 = (rng.normal(0.0, 1.0, size=4) * subject.noise_sigma).tolist()
    (gaze_yaw, gaze_pitch), (head_yaw, head_pitch) = sample.g_n.tolist(), sample.head_pose.tolist()
    box = sample.bbox
    return np.array([gaze_yaw + subject.kappa_yaw + n0, gaze_pitch + subject.kappa_pitch + n1,
                     head_yaw + n2, head_pitch + n3,
                     box.x / intr.width, box.y / intr.height, box.side / intr.width])


def sample_frame(
    subject: Subject, cfg: SceneConfig, rng: np.random.Generator, calibration: bool = False
) -> GazeSample:
    """Draw one frame and compute all labels through the camera geometry.

    With calibration=True the gaze target is the camera origin (lens
    fixation): g_o comes from the face pixel, and g_n is (0, 0), since
    normalization turns a gaze into the lens onto the optical axis.
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
            gaze_n = np.zeros(2)
        else:
            gaze_n = np.array([cfg.gaze_yaw.sample(rng), cfg.gaze_pitch.sample(rng)])
            g_o_vec = denormalize_gaze(vec_from_euler(gaze_n), r_on)
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


def dataset_header(cfg: SceneConfig, subjects: list[Subject], n_per_subject: int, mode: str) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "config_hash": cfg.hash(),
        "seed": cfg.seed,
        "mode": mode,
        "n_per_subject": n_per_subject,
        "config": asdict(cfg),
        "subjects": [asdict(s) for s in subjects],
    }


# a row's float fields in the sorted key order of LINE_ENCODER; `subject` sorts last
_LINE_FIELDS = tuple(sorted(_VECTOR_FIELDS + ("bbox",)))
# LINE_ENCODER.encode(sample.to_dict()) + "\n", filled with the number_rows
# text of each of _LINE_FIELDS and the subject id
ROW_LINE = "{" + "".join(f'"{name}": [%s], ' for name in _LINE_FIELDS) + '"subject": %d}\n'


def _rows_text(samples: list[GazeSample]) -> str:
    """The row lines of the samples, each field of all of them formatted at once."""
    columns = {name: [getattr(s, name) for s in samples] for name in _VECTOR_FIELDS}
    columns["bbox"] = [s.bbox.to_list() for s in samples]
    return "".join(ROW_LINE % row for row in zip(*(number_rows(columns[name]) for name in _LINE_FIELDS),
                                                 [s.subject for s in samples]))


def generate_dataset(
    cfg: SceneConfig, subjects: list[Subject], n_per_subject: int, mode: str, out_path
) -> dict:
    """Write a JSONL dataset (header line first) and return attribute stats:
    of gaze and head pose, or in calibration mode of head pose alone, as a
    lens-fixation g_n is (0, 0) by construction.  The rows are written
    BLOCK_LINES frames at a time, each block as one string; on an error the
    file, which would load as a whole dataset, is removed."""
    if mode not in MODES:
        raise ConfigError(f"unknown mode {mode!r}")
    check_ranges({"n_per_subject": (n_per_subject, COUNT)})

    calibration = mode == "calibration"
    # only the four sampled attributes are kept for the stats, not the frames,
    # in a buffer that grows frame by frame: no frame count is allocated at once
    attributes = array("d")
    frames = ((subj, i) for subj in subjects for i in range(n_per_subject))
    with ExitStack() as on_error:
        with open(out_path, "w") as f:
            on_error.callback(os.remove, out_path)   # on any error, a failed close included
            f.write(LINE_ENCODER.encode(dataset_header(cfg, subjects, n_per_subject, mode)) + "\n")
            while block := [sample_frame(subj, cfg, frame_rng(cfg.seed, subj.id, i), calibration=calibration)
                            for subj, i in itertools.islice(frames, BLOCK_LINES)]:
                for s in block:
                    attributes.extend((*s.g_n.tolist(), *s.head_pose.tolist()))
                f.write(_rows_text(block))
        on_error.pop_all()   # written and closed: kept

    if not attributes:
        return {}
    # each attribute's mean and std over one contiguous row, and its target
    rows = np.frombuffer(attributes).reshape(-1, 4).T.copy()
    return {name: {"mean": float(vals.mean()), "std": float(vals.std()),
                   "target_mean": getattr(cfg, name).mean, "target_std": getattr(cfg, name).std}
            for name, vals in zip(("gaze_yaw", "gaze_pitch", "head_yaw", "head_pitch"), rows)
            if not (calibration and name.startswith("gaze_"))}


@dataclass(eq=False)
class Dataset:
    """A loaded JSONL dataset: its header, and its rows as columns.

    features (N, FEATURE_DIM); labels (N, 11), each task's label in its
    TASK_LABELS columns (a dataset row carries every label); boxes (N, 3),
    each face box as (x, y, side); subjects (N,), the subject ids.  `samples`
    gives the rows as GazeSamples, built on first use, whose arrays are views
    of the columns.
    """

    header: dict
    features: np.ndarray
    labels: np.ndarray
    boxes: np.ndarray
    subjects: np.ndarray

    def __len__(self) -> int:
        return len(self.subjects)

    @property
    def intrinsics(self) -> CameraIntrinsics:
        return from_dict(CameraIntrinsics, self.header["config"]["intrinsics"], "config.intrinsics")

    @property
    def mode(self) -> str:
        return self.header["mode"]

    def batch(self) -> Batch:
        """The rows as a training batch, every task's label present."""
        mask = np.ones((len(self), len(TASK_LABELS)))
        return Batch.from_columns(self.features, self.boxes[:, :2], self.labels, mask, self.intrinsics)

    def subset(self, rows) -> "Dataset":
        """The dataset of the given rows (an index array or a boolean mask)."""
        return Dataset(self.header, self.features[rows], self.labels[rows], self.boxes[rows],
                       self.subjects[rows])

    def subject_ids(self) -> list[int]:
        return np.unique(self.subjects).tolist()

    def by_subject(self, subject_id: int) -> list[GazeSample]:
        samples = self.samples
        return [samples[i] for i in np.flatnonzero(self.subjects == subject_id)]

    @cached_property
    def samples(self) -> list[GazeSample]:
        # each task's row views; GazeSample takes its label fields in TASK_LABELS order
        labels = [self.labels[:, span] for _, span in TASK_LABELS.values()]
        return [GazeSample(features, BoundingBox(*box), *row_labels, subject=subject)
                for features, box, subject, *row_labels
                in zip(self.features, self.boxes.tolist(), self.subjects.tolist(), *labels)]


# the serialized row fields in column order and their lengths: the features, the
# labels in TASK_LABELS order, the box; `subject` is the one scalar field
_ROW_LENGTHS = {"features": FEATURE_DIM, **{attr: span.stop - span.start for attr, span in TASK_LABELS.values()},
                "bbox": 3}
_ROW_FIELDS = operator.itemgetter(*_ROW_LENGTHS)
# each field's first column, and the box side's and face depth's columns
_COLUMN_STARTS = dict(zip(_ROW_LENGTHS, itertools.accumulate(_ROW_LENGTHS.values(), initial=0)))
_BOX_SIDE = _COLUMN_STARTS["bbox"] + 2
_FACE_DEPTH = _COLUMN_STARTS["o_face"] + 2

# a subject id is a JSON integer that fits the int64 subject column
_SUBJECT_RANGE = range(-2**63, 2**63)


def _read_row(d) -> tuple[tuple, int]:
    """The decoded data line `d`'s fields in column order, and its subject
    id, a JSON integer in int64 range; else a BAD_INPUT exception.  The
    fields are checked by read_block."""
    if not isinstance(d, dict):
        raise ValueError("row is not a JSON object")
    fields = _ROW_FIELDS(d)
    subject = d["subject"]
    if type(subject) is not int:  # int() would take "3", 1.7 and true
        raise ValueError(f"subject must be an integer id, got {subject!r}")
    if subject not in _SUBJECT_RANGE:
        raise ValueError(f"subject id {subject} does not fit in 64 bits")
    return fields, subject


def _check_box_and_face(row: list) -> None:
    """A row's own rule, of its floats: a positive box side, then the face
    centre in front of the camera, the dataset's part of the physical rule."""
    BoundingBox(*row[_COLUMN_STARTS["bbox"]:])
    if not row[_FACE_DEPTH] > 0:
        face = _COLUMN_STARTS["o_face"]
        raise PhysicalRuleError(f"o_face must lie in front of the camera (z > 0), got {row[face:face + 3]}")


def _header_from_line(line: str) -> dict:
    header = decode_json(line)
    if not isinstance(header, dict) or "schema_version" not in header:
        raise ValueError("first line is not a dataset header")
    version = header["schema_version"]
    if type(version) is not int or version != SCHEMA_VERSION:  # 1.0 and true equal 1
        raise ValueError(f"unsupported schema version {version!r}")
    if header["mode"] not in MODES:
        raise ValueError(f"unknown mode {header['mode']!r}")
    from_dict(CameraIntrinsics, header["config"]["intrinsics"], "config.intrinsics")
    return header


def load_dataset(path) -> Dataset:
    """Read a JSONL dataset written by generate_dataset, as columns.

    A header line that is not JSON (NaN and Infinity included, as in a
    row), lacks a known `mode` or valid `config.intrinsics`, or whose
    `schema_version` is not the JSON integer 1, a line of whitespace other
    than JSON's, and a row with a missing key, a subject that is not a
    64-bit integer, a vector field that breaks jsonl.find_fault's rule (a
    flat list of finite JSON numbers of its length; NaN and Infinity
    included), a box side that is not positive, or a byte that is not
    UTF-8, are a ConfigError naming the file and line: the first such line
    in file order.

    Every row must also be physical: each value at most MAX_ABS_VALUE (1e9)
    in magnitude, in millimetres, pixels or radians, and the face centre
    `o_face` in front of the camera (z > 0).  This is reported last, once
    every row has passed the rules above, naming the file and line as well.

    The rows are read in blocks of BLOCK_LINES lines (read_block), and only
    each block's columns are kept past it.
    """
    blocks, subjects, physical = [np.zeros((0, sum(_ROW_LENGTHS.values())))], [], None
    with open(path, "rb") as f:
        first = f.readline()
        if not first:
            raise ConfigError(f"{path}: empty file, expected a header line")
        with bad_input(f"{path}:1"):
            header = _header_from_line(first.decode())
        # decoded line by line, a byte that is not UTF-8 as a lone surrogate: text
        # mode decodes in chunks, past the line at fault
        numbered = ((i, line.decode("utf-8", "surrogateescape")) for i, line in enumerate(f, start=2))
        while block := list(itertools.islice(numbered, BLOCK_LINES)):
            rows, columns, _, faults = read_block(
                block, _read_row, _ROW_LENGTHS,
                lambda columns: (columns[:, _BOX_SIDE] > 0) & (columns[:, _FACE_DEPTH] > 0), _check_box_and_face)
            for i, exc in faults:   # the physical rule is reported last
                if not isinstance(exc, PhysicalRuleError):
                    raise ConfigError(f"{path}:{i}: {describe(exc)}")
                physical = physical or ConfigError(f"{path}:{i}: {exc}")
            blocks.append(columns)
            subjects += [subject for _, subject, _ in rows]
    if physical is not None:
        raise physical
    columns = np.concatenate(blocks)
    del blocks   # copied into the columns
    return Dataset(header=header,
                   features=np.ascontiguousarray(columns[:, :FEATURE_DIM]),
                   labels=np.ascontiguousarray(columns[:, FEATURE_DIM:_COLUMN_STARTS["bbox"]]),
                   boxes=np.ascontiguousarray(columns[:, _COLUMN_STARTS["bbox"]:]),
                   subjects=np.array(subjects, dtype=np.int64))
