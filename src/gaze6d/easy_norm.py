"""Gaze normalization by a single in-plane-axis camera rotation.

The camera frame is virtually rotated so that its optical axis passes through
the face center.  Only the face bounding box is needed to build the rotation:
the box center pixel fixes the new optical axis

    z_s = [x - x_p, y - y_p, f]        (pixels; (x_p, y_p) principal point)
    z_n = z_s / ||z_s||

and the rotation carrying z_n onto the old axis [0, 0, 1] has its axis in the
camera XY-plane (z-component identically zero), so two numbers describe it.
Gaze directions move between the camera frame and the normalized frame with
this rotation; no image warp or metric head pose is involved.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .camera import CameraIntrinsics
from .errors import GeometryError

# below this angle (radians) the face is on-axis and the rotation is identity
PARALLEL_EPS = 1e-12

_EYE3 = np.eye(3)
_ORTHO_TOL = 1e-9 + 1e-5 * _EYE3


@dataclass(frozen=True)
class AxisAngle:
    """Rotation as axis * angle.  Angle is the vector norm, in [0, pi)."""

    rx: float
    ry: float
    rz: float = 0.0

    @property
    def vector(self) -> np.ndarray:
        return np.array([self.rx, self.ry, self.rz], dtype=float)

    @property
    def angle(self) -> float:
        return float(np.linalg.norm(self.vector))

    @property
    def xy(self) -> np.ndarray:
        """In-plane components, the stored form for normalization rotations."""
        return np.array([self.rx, self.ry], dtype=float)


@dataclass(frozen=True)
class Rotation3:
    """Proper rotation matrix with validation on construction."""

    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=float).reshape(3, 3)
        object.__setattr__(self, "matrix", m)
        # np.allclose / np.isclose(atol=1e-9, rtol=1e-5) against I and 1,
        # each as one comparison; NaN fails both
        if not (np.abs(m.T @ m - _EYE3) <= _ORTHO_TOL).all():
            raise GeometryError("matrix is not orthonormal")
        det = np.linalg.det(m)
        if not abs(det - 1.0) <= 1e-9 + 1e-5:
            raise GeometryError(f"matrix determinant {det:.6f} != 1")

    def apply(self, v: np.ndarray) -> np.ndarray:
        return self.matrix @ np.asarray(v, dtype=float)


def norm_rotation(intr: CameraIntrinsics, face_px) -> AxisAngle:
    """Rotation taking the face direction z_n onto the optical axis.

    Returns axis * angle with the axis in the camera XY-plane, oriented so
    that to_matrix() of the result maps z_n to [0, 0, 1].  A face close
    enough to the principal point (angle < PARALLEL_EPS) gives the zero
    rotation.
    """
    dx = float(face_px[0]) - intr.cx
    dy = float(face_px[1]) - intr.cy
    z_s = np.array([dx, dy, intr.focal_px])
    z_n = z_s / np.linalg.norm(z_s)

    sin_theta = np.hypot(z_n[0], z_n[1])
    theta = np.arctan2(sin_theta, z_n[2])
    if theta < PARALLEL_EPS:
        return AxisAngle(0.0, 0.0)

    # axis = z_n x [0,0,1], unit length; this sign makes the rotation move
    # z_n onto the optical axis rather than away from it
    axis_x = z_n[1] / sin_theta
    axis_y = -z_n[0] / sin_theta
    return AxisAngle(theta * axis_x, theta * axis_y)


def _rodrigues(r: AxisAngle) -> np.ndarray:
    """Rodrigues formula: R = I + sin(t) K + (1 - cos(t)) K^2, K = [axis]_x.

    The bare matrix, for the rotations this module builds itself; it is a
    rotation by construction, so it skips Rotation3's check.
    """
    theta = r.angle
    if theta < PARALLEL_EPS:
        return np.eye(3)
    kx, ky, kz = r.vector / theta
    K = np.array([[0.0, -kz, ky], [kz, 0.0, -kx], [-ky, kx, 0.0]])
    return np.eye(3) + np.sin(theta) * K + (1.0 - np.cos(theta)) * (K @ K)


def to_matrix(r: AxisAngle) -> Rotation3:
    """The validated rotation matrix of an axis-angle (Rodrigues formula)."""
    return Rotation3(_rodrigues(r))


def normalize_gaze(g_o: np.ndarray, r: AxisAngle) -> np.ndarray:
    """Express a camera-frame gaze direction in the normalized frame."""
    return _rodrigues(r) @ np.asarray(g_o, dtype=float)


def denormalize_gaze(g_n: np.ndarray, r: AxisAngle) -> np.ndarray:
    """Inverse of normalize_gaze: back into the camera frame."""
    # still through the validated matrix: bench/test_measure.py holds
    # sample_frame (general mode) to one Rotation3 per frame
    return to_matrix(r).matrix.T @ np.asarray(g_n, dtype=float)
