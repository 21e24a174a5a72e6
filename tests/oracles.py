"""Independent reference implementations used to cross-check the package.

Everything here is built from different primitives than the code under test:
rotations go through quaternions instead of Rodrigues, plane intersections
solve the general parametric form instead of the z=0 special case.
"""

import json

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


def params_json_per_float(params, path):
    """A params file written one Python float at a time through json.dump."""
    doc = {
        "format_version": 1,
        "model_config": params.config.to_dict(),
        "arrays": {
            k: {"shape": list(v.shape), "data": [float(x) for x in v.reshape(-1)]}
            for k, v in params.arrays.items()
        },
    }
    with open(path, "w") as f:
        json.dump(doc, f, sort_keys=True)
