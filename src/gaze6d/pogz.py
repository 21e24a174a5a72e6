"""Point-of-gaze on the camera XY-plane, and conversion to a screen plane.

A gaze ray (origin at the face center, direction toward the scene) is
intersected with the plane z = 0 of the camera frame.  The resulting 2-D
point is a device-independent gaze target: moving it to a physical screen
needs only the rigid transform between the camera frame and the screen frame,
with the screen surface as the plane z = 0 of the screen frame.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .camera import FRAME_CAMERA, FRAME_SCREEN, Point3
from .easy_norm import Rotation3
from .errors import FrameMismatchError, GeometryError, RayParallelError, bad_input

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


@dataclass(frozen=True)
class RigidTransform:
    """Rigid motion p' = R p + t between two metric frames (mm)."""

    rotation: Rotation3
    translation: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "translation", np.asarray(self.translation, dtype=float).reshape(3))

    def apply_point(self, p: np.ndarray) -> np.ndarray:
        return self.rotation.matrix @ np.asarray(p, dtype=float) + self.translation

    def apply_direction(self, d: np.ndarray) -> np.ndarray:
        # directions rotate; the offset applies to points only
        return self.rotation.matrix @ np.asarray(d, dtype=float)

    @property
    def inverse(self) -> "RigidTransform":
        rt = self.rotation.matrix.T
        return RigidTransform(Rotation3(rt), -rt @ self.translation)

    # the inverse motion p = R^T p' - R^T t, applied without building (and
    # validating) a new transform; same arithmetic as `inverse`'s methods

    def apply_inverse_point(self, p: np.ndarray) -> np.ndarray:
        rt = self.rotation.matrix.T
        return rt @ np.asarray(p, dtype=float) + (-rt @ self.translation)

    def apply_inverse_direction(self, d: np.ndarray) -> np.ndarray:
        return self.rotation.matrix.T @ np.asarray(d, dtype=float)

    def to_dict(self) -> dict:
        return {"R": [float(v) for v in self.rotation.matrix.reshape(9)],
                "t": [float(v) for v in self.translation]}

    @classmethod
    def from_dict(cls, d: dict) -> "RigidTransform":
        R, t = np.array(d["R"], dtype=float), np.array(d["t"], dtype=float)
        for name, value, size in (("R", R, 9), ("t", t, 3)):
            if value.size != size or not np.isfinite(value).all():
                raise ValueError(f"{name} must be {size} finite values, got {value.tolist()}")
        return cls(Rotation3(R.reshape(3, 3)), t)

    def save(self, path) -> None:
        with open(path, "w") as f:
            json.dump(self.to_dict(), f, indent=2, sort_keys=True)

    @classmethod
    def load(cls, path) -> "RigidTransform":
        """Read a transform written by save.  R must be 9 finite values forming a
        proper rotation and t 3 finite values; else a ConfigError names the file."""
        with open(path) as f, bad_input(path):
            return cls.from_dict(json.load(f))


def _intersect_z0(origin: np.ndarray, direction: np.ndarray, frame: str) -> PlanePoint:
    d = np.asarray(direction, dtype=float)
    norm = np.linalg.norm(d)
    if not norm > 0:  # a zero vector, or one whose squared norm underflows
        raise GeometryError(f"gaze direction {d} has no length")
    d = d / norm
    if abs(d[2]) < RAY_EPS:
        raise RayParallelError(f"gaze direction {d} is parallel to the z=0 plane")
    lam = -origin[2] / d[2]
    return PlanePoint(
        x=float(origin[0] + lam * d[0]),
        y=float(origin[1] + lam * d[1]),
        frame=frame,
        behind=bool(lam < 0),
    )


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
    if pogz.frame != FRAME_CAMERA_PLANE:
        raise FrameMismatchError(f"expected a {FRAME_CAMERA_PLANE} point, got {pogz.frame}")
    origin_s = cam_to_screen.apply_point([pogz.x, pogz.y, 0.0])
    g_s = cam_to_screen.apply_direction(g_o)
    return _intersect_z0(origin_s, g_s, FRAME_SCREEN_PLANE)


def pog_to_pogz(pog: PlanePoint, g_s: np.ndarray, cam_to_screen: RigidTransform) -> PlanePoint:
    """Inverse of pogz_to_pog; the gaze direction is given in the screen frame."""
    if pog.frame != FRAME_SCREEN_PLANE:
        raise FrameMismatchError(f"expected a {FRAME_SCREEN_PLANE} point, got {pog.frame}")
    origin_c = cam_to_screen.apply_inverse_point([pog.x, pog.y, 0.0])
    g_o = cam_to_screen.apply_inverse_direction(g_s)
    return _intersect_z0(origin_c, g_o, FRAME_CAMERA_PLANE)
