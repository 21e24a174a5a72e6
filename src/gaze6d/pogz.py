"""Point-of-gaze on the camera XY-plane, and conversion to a screen plane.

A gaze ray (origin at the face center, direction toward the scene) is
intersected with the plane z = 0 of the camera frame.  The resulting 2-D
point is a device-independent gaze target: moving it to a physical screen
needs only the rigid transform between the camera frame and the screen frame,
with the screen surface as the plane z = 0 of the screen frame.

`convert_lines` converts JSONL point records in either direction, the kernel
of `gaze6d convert`.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, field

import numpy as np

from .camera import FRAME_CAMERA, FRAME_SCREEN, Point3
from .easy_norm import Rotation3
from .errors import FrameMismatchError, GeometryError, RayParallelError, bad_input, describe
from .jsonl import LINE_ENCODER, decode_json, find_fault, number_rows, read_block

# minimum |z| of a unit direction before the ray counts as plane-parallel
RAY_EPS = 1e-9

FRAME_CAMERA_PLANE = FRAME_CAMERA + "-xy-plane"
FRAME_SCREEN_PLANE = FRAME_SCREEN + "-screen-plane"


@dataclass(frozen=True)
class PlanePoint:
    """2-D point (mm) on a tagged plane.

    `behind` marks intersections that lie opposite to the ray direction
    (negative ray parameter); it is diagnostic and ignored by equality.
    """

    x: float
    y: float
    frame: str = FRAME_CAMERA_PLANE
    behind: bool = field(default=False, compare=False)

    @property
    def xy(self) -> np.ndarray:
        return np.array([self.x, self.y], dtype=float)


@dataclass(frozen=True, eq=False)
class RigidTransform:
    """Rigid motion p' = R p + t between two metric frames (mm)."""

    rotation: Rotation3
    translation: np.ndarray
    _inverse: "RigidTransform | None" = field(default=None, init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "translation", np.asarray(self.translation, dtype=float).reshape(3))

    def apply_point(self, p: np.ndarray) -> np.ndarray:
        return self.rotation.matrix @ np.asarray(p, dtype=float) + self.translation

    def apply_direction(self, d: np.ndarray) -> np.ndarray:
        # directions rotate; the offset applies to points only
        return self.rotation.matrix @ np.asarray(d, dtype=float)

    @property
    def inverse(self) -> "RigidTransform":
        """p = R^T p' - R^T t, built on first use and kept; its inverse is self."""
        if self._inverse is None:
            R_T = self.rotation.matrix.T
            inverse = RigidTransform(Rotation3(R_T), -R_T @ self.translation)
            object.__setattr__(inverse, "_inverse", self)
            object.__setattr__(self, "_inverse", inverse)
        return self._inverse

    def to_dict(self) -> dict:
        return {"R": [float(v) for v in self.rotation.matrix.reshape(9)],
                "t": [float(v) for v in self.translation]}

    @classmethod
    def from_dict(cls, d: dict) -> "RigidTransform":
        # the rule of a record's values (jsonl.find_fault): with it, every point
        # and gaze that convert writes for a record within that rule is finite
        values = find_fault((("R", d["R"], 9), ("t", d["t"], 3)))
        return cls(Rotation3(np.array(values[:9]).reshape(3, 3)), np.array(values[9:]))

    def save(self, path) -> None:
        with open(path, "w") as f:
            json.dump(self.to_dict(), f, indent=2, sort_keys=True)

    @classmethod
    def load(cls, path) -> "RigidTransform":
        """Read a transform written by save.  R must be 9 values forming a
        proper rotation and t 3 values, each value within jsonl.find_fault's
        rule; else a ConfigError names the file."""
        with open(path, encoding="utf-8", errors="surrogateescape") as f, bad_input(path):
            return cls.from_dict(decode_json(f.read()))


def row_norms(V: np.ndarray) -> np.ndarray:
    """np.linalg.norm of each row of V, bit for bit: vecdot runs the same dot
    product as the norm of one vector, where (V * V).sum(1), einsum and
    norm(axis=1) sum in another order and can differ in the last bit."""
    return np.sqrt(np.vecdot(V, V))


def rotate_rows(R: np.ndarray, V: np.ndarray) -> np.ndarray:
    """R @ v of each row v of V (N, 3), bit for bit R @ v alone: the stacked
    product of column vectors runs the per-row arithmetic; V @ R.T does not."""
    return (R @ V[:, :, None])[:, :, 0]


def _intersect_z0(origin: np.ndarray, direction: np.ndarray, frame: str) -> PlanePoint:
    d = np.asarray(direction, dtype=float)
    norm = math.sqrt(d.dot(d))   # np.linalg.norm's arithmetic for a 1-D vector
    if not norm > 0:  # a zero vector, or one whose squared norm underflows
        raise GeometryError(f"gaze direction {d} has no length")
    # the rest as Python floats: the same IEEE operations as numpy's
    x, y, z = d.tolist()
    dx, dy, dz = x / norm, y / norm, z / norm
    if abs(dz) < RAY_EPS:
        raise RayParallelError(f"gaze direction {d / norm} is parallel to the z=0 plane")
    ox, oy, oz = origin.tolist()
    lam = -oz / dz
    return PlanePoint(x=ox + lam * dx, y=oy + lam * dy, frame=frame, behind=lam < 0)


def pogz_from_ray(origin: Point3, g_o: np.ndarray) -> PlanePoint:
    """Intersect the gaze line with the camera XY-plane (z = 0).

    Any point of the line is accepted as origin: the intersection only
    depends on the line itself.
    """
    if origin.frame != FRAME_CAMERA:
        raise FrameMismatchError(f"gaze ray origin must be in {FRAME_CAMERA}, got {origin.frame}")
    return _intersect_z0(origin.xyz, g_o, FRAME_CAMERA_PLANE)


def pogz_to_pog(pogz: PlanePoint, g_o: np.ndarray, cam_to_screen: RigidTransform) -> PlanePoint:
    """Carry a camera-plane gaze point onto the screen plane.

    The plane point is lifted to 3-D as (x, y, 0), moved into the screen
    frame, and the gaze line (direction rotated only) is intersected with the
    screen surface z = 0.  Intersections behind the lifted point are allowed
    and flagged via `behind`.
    """
    return _carry(pogz, g_o, cam_to_screen, FRAME_CAMERA_PLANE, FRAME_SCREEN_PLANE)


def pog_to_pogz(pog: PlanePoint, g_s: np.ndarray, cam_to_screen: RigidTransform) -> PlanePoint:
    """Inverse of pogz_to_pog; the gaze direction is given in the screen frame."""
    return _carry(pog, g_s, cam_to_screen.inverse, FRAME_SCREEN_PLANE, FRAME_CAMERA_PLANE)


def _carry(point: PlanePoint, g: np.ndarray, transform: RigidTransform, src: str, dst: str) -> PlanePoint:
    """pogz_to_pog's carry, from plane `src` over `transform` to plane `dst`."""
    if point.frame != src:
        raise FrameMismatchError(f"expected a {src} point, got {point.frame}")
    origin = transform.apply_point([point.x, point.y, 0.0])
    return _intersect_z0(origin, transform.apply_direction(g), dst)


def pogz_to_pog_rows(P: np.ndarray, G: np.ndarray, cam_to_screen: RigidTransform):
    """pogz_to_pog of each row: (N, 2) camera-plane points and (N, 3) gaze
    directions in, (screen points (N, 2), behind (N,), hit (N,), gaze (N, 3))
    out, the last the gaze directions rotated into the screen frame.

    Each hit row is bit for bit what pogz_to_pog gives that row alone, and
    each gaze row what cam_to_screen.apply_direction gives.  A row where
    pogz_to_pog raises, its gaze parallel to the screen or of no length (zero,
    or with a squared norm that underflows), has hit False, a NaN point and
    behind False.
    """
    n = len(P)
    R = cam_to_screen.rotation.matrix
    lifted = np.zeros((n, 3, 1))
    lifted[:, :2, 0] = P
    # R @ each column vector: the per-row arithmetic of R @ p; P @ R.T is not
    origin = (R @ lifted)[:, :, 0] + cam_to_screen.translation
    gaze = rotate_rows(R, np.asarray(G, dtype=float))
    norm = row_norms(gaze)
    d = gaze / np.where(norm > 0, norm, 1.0)[:, None]
    hit = (norm > 0) & ~(np.abs(d[:, 2]) < RAY_EPS)
    lam = np.full(n, np.nan)
    lam[hit] = -origin[hit, 2] / d[hit, 2]
    points = origin[:, :2] + lam[:, None] * d[:, :2]
    return points, lam < 0, hit, gaze


# a record's fields and their lengths
_RECORD_LENGTHS = {"point": 2, "gaze": 3}

# LINE_ENCODER.encode(record) + "\n" of a converted record {"behind": b,
# "gaze": [3 floats], "point": [2 floats]}, filled with (JSON_BOOLS[b], the
# gaze's number_rows text, the point's): the keys are written in sorted order
RECORD_LINE = '{"behind": %s, "gaze": [%s], "point": [%s]}\n'
JSON_BOOLS = ("false", "true")


def _read_record(rec) -> tuple:
    """The fields (point, gaze) of the decoded record line `rec`, as its JSON
    holds them, and no value of its own; a record that is no object or
    lacks a key raises a BAD_INPUT exception.  The fields are checked by
    read_block."""
    return (rec["point"], rec["gaze"]), None


def record_lines(behind, gazes, points) -> list[str]:
    """The converted records' lines, LINE_ENCODER.encode(record) + "\n" of
    each: behind (n,) bools, gazes (n, 3) and points (n, 2) floats."""
    return [RECORD_LINE % (JSON_BOOLS[b], g, p)
            for b, g, p in zip(np.asarray(behind).tolist(), number_rows(gazes), number_rows(points))]


def convert_lines(numbered_lines, direction: str, transform: RigidTransform) -> str:
    """The output text of [(line number, line)] of JSONL point records
    {"point": [x, y], "gaze": [gx, gy, gz]}, converted by `direction`,
    "pogz2pog" or "pog2pogz", over `transform`: one line per record, in line
    order, the converted record {"behind", "gaze", "point"} or the error
    record {"error", "line"} of a malformed record or one that does not
    convert; a blank line gives none.  `gaze6d convert` passes its input in
    blocks of jsonl.BLOCK_LINES lines, numbered from 0.  The lines are read
    by read_block, and jsonl.find_fault gives a rejected record its message.

    pogz2pog maps the passing records with one pogz_to_pog_rows call, which
    gives each row the bits the one-record pogz_to_pog gives it, and its
    rotated gaze.  pog2pogz rotates the block's gazes with one rotate_rows,
    bit for bit inverse.apply_direction of each.  A record without a finite
    point (every pog2pogz record; a pogz2pog one with no screen hit, a
    zero-length gaze among them) goes through the one-record pogz_to_pog or
    pog_to_pogz, so its error record names its own fault (a GeometryError)
    and its warnings are those of the one-record path.  The converted
    records' lines are written by record_lines, the block's gazes and points
    formatted together (jsonl.number_rows).
    """
    if direction not in ("pogz2pog", "pog2pogz"):
        raise ValueError(f"unknown direction {direction!r}, expected 'pogz2pog' or 'pog2pogz'")
    rows, columns, passed, faults = read_block(numbered_lines, _read_record, _RECORD_LENGTHS)
    lines = [i for i, _, _ in itertools.compress(rows, passed.tolist())]
    P, G = columns[passed, :2], columns[passed, 2:]

    if direction == "pogz2pog":
        convert, frame = pogz_to_pog, FRAME_CAMERA_PLANE
        with np.errstate(all="ignore"):   # a row that warns gets no finite point: it is redone alone
            points, behind, _, gazes = pogz_to_pog_rows(P, G, transform)
    else:
        convert, frame, gazes = pog_to_pogz, FRAME_SCREEN_PLANE, rotate_rows(transform.inverse.rotation.matrix, G)
        points, behind = np.full_like(P, np.nan), np.zeros(len(P), dtype=bool)
    for k in np.flatnonzero(~np.isfinite(points).all(axis=1)).tolist():
        try:
            dst = convert(PlanePoint(*P[k].tolist(), frame=frame), G[k], transform)
            points[k], behind[k] = (dst.x, dst.y), dst.behind
        except GeometryError as exc:
            faults.append((lines[k], exc))
    done = np.isfinite(points).all(axis=1)
    text = record_lines(behind[done], gazes[done], points[done])
    if faults:   # error records among them: every answer in line order
        out = {i: LINE_ENCODER.encode({"error": describe(exc), "line": i}) + "\n" for i, exc in faults}
        out.update(zip(itertools.compress(lines, done.tolist()), text))
        text = [out[i] for i in sorted(out)]
    return "".join(text)
