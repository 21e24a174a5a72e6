"""Reference geometry for the benchmark's correctness checks.

Written from first principles and apart from `gaze6d`, so a shared mistake
cannot pass unseen: rotations go through the quaternion sandwich product
q (0, v) q*, plane intersections solve the general parametric line-plane
equation, and the noise floor is a Monte-Carlo estimate.  Every function
takes arrays of shape (N, ...) so a whole round is checked in one call.
"""

from __future__ import annotations

import numpy as np


def project(points, focal_px: float, cx: float, cy: float) -> np.ndarray:
    """Pinhole projection of camera-frame points (N, 3) to pixels (N, 2)."""
    p = np.asarray(points, dtype=float).reshape(-1, 3)
    return np.stack([focal_px * p[:, 0] / p[:, 2] + cx,
                     focal_px * p[:, 1] / p[:, 2] + cy], axis=1)


def line_plane(origin, direction, plane_point, plane_normal):
    """Intersect lines o + t d with the plane through p with normal n.

    Solves (o + t d - p) . n = 0 for t.  Returns (points (N, 3), t (N,));
    a line parallel to the plane gets t = nan and a nan point.
    """
    o = np.asarray(origin, dtype=float).reshape(-1, 3)
    d = np.asarray(direction, dtype=float).reshape(-1, 3)
    p = np.asarray(plane_point, dtype=float).reshape(3)
    n = np.asarray(plane_normal, dtype=float).reshape(3)
    denom = d @ n
    parallel = np.abs(denom) <= 1e-12 * np.linalg.norm(d, axis=1) * np.linalg.norm(n)
    safe = np.where(parallel, 1.0, denom)
    t = np.where(parallel, np.nan, ((p - o) @ n) / safe)
    return o + t[:, None] * d, t


def quat_multiply(a, b) -> np.ndarray:
    """Hamilton product of quaternions (w, x, y, z), broadcast over rows."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    aw, ax, ay, az = np.moveaxis(a, -1, 0)
    bw, bx, by, bz = np.moveaxis(b, -1, 0)
    return np.stack([
        aw * bw - ax * bx - ay * by - az * bz,
        aw * bx + ax * bw + ay * bz - az * by,
        aw * by - ax * bz + ay * bw + az * bx,
        aw * bz + ax * by - ay * bx + az * bw,
    ], axis=-1)


def quat_rotate(q, v) -> np.ndarray:
    """Rotate vectors v (N, 3) by the unit quaternion q: q (0, v) q*."""
    q = np.asarray(q, dtype=float)
    q = q / np.linalg.norm(q)
    v = np.asarray(v, dtype=float).reshape(-1, 3)
    pure = np.concatenate([np.zeros((len(v), 1)), v], axis=1)
    conj = q * np.array([1.0, -1.0, -1.0, -1.0])
    return quat_multiply(quat_multiply(q, pure), conj)[:, 1:]


class Rigid:
    """Rigid motion p' = rot(q) p + t, built from a quaternion."""

    def __init__(self, q, t):
        self.q = np.asarray(q, dtype=float) / np.linalg.norm(q)
        self.t = np.asarray(t, dtype=float).reshape(3)

    def point(self, p) -> np.ndarray:
        return quat_rotate(self.q, p) + self.t

    def direction(self, d) -> np.ndarray:
        return quat_rotate(self.q, d)

    def matrix(self) -> np.ndarray:
        """Row-major 3x3 matrix: the rotated basis vectors as columns."""
        return quat_rotate(self.q, np.eye(3)).T


def gaze_vectors(yaw, pitch) -> np.ndarray:
    """Unit gaze directions for (yaw, pitch) in radians.

    (0, 0) looks along -z, toward the camera; positive yaw turns toward -x
    and positive pitch toward -y (up in the image).
    """
    yaw = np.asarray(yaw, dtype=float)
    pitch = np.asarray(pitch, dtype=float)
    horizontal = np.cos(pitch)
    return np.stack([-horizontal * np.sin(yaw), -np.sin(pitch), -horizontal * np.cos(yaw)], axis=-1)


def angle_deg(a, b) -> np.ndarray:
    """Row-wise angle between direction arrays (N, 3), in degrees."""
    a = np.asarray(a, dtype=float).reshape(-1, 3)
    b = np.asarray(b, dtype=float).reshape(-1, 3)
    cos = np.sum(a * b, axis=1) / (np.linalg.norm(a, axis=1) * np.linalg.norm(b, axis=1))
    return np.degrees(np.arccos(np.clip(cos, -1.0, 1.0)))


def noise_floor_deg(sigma: float, yaw=(0.0, 0.25), pitch=(0.0, 0.25),
                    n: int = 200_000, seed: int = 7) -> float:
    """Mean angular error that i.i.d. N(0, sigma^2) noise on (yaw, pitch) causes.

    No regressor that sees only the noisy angles can beat it on average.
    yaw and pitch give the (mean, std) of the true angles.
    """
    rng = np.random.default_rng(seed)
    true_yaw = rng.normal(yaw[0], yaw[1], n)
    true_pitch = rng.normal(pitch[0], pitch[1], n)
    seen = gaze_vectors(true_yaw + rng.normal(0.0, sigma, n), true_pitch + rng.normal(0.0, sigma, n))
    return float(angle_deg(gaze_vectors(true_yaw, true_pitch), seen).mean())
