import numpy as np
import pytest
from scipy.spatial.transform import Rotation as ScipyRotation

import oracles
from gaze6d.camera import CameraIntrinsics
from gaze6d.easy_norm import (PARALLEL_EPS, AxisAngle, Rotation3,
                              denormalize_gaze, norm_rotation, normalize_gaze,
                              to_matrix)
from gaze6d.errors import GeometryError

INTR = CameraIntrinsics(500.0, 320.0, 240.0, 0.005, 640, 480)


def random_face_px(rng):
    return np.array([rng.uniform(0, 640), rng.uniform(0, 480)])


def test_zero_rotation_at_principal_point():
    r = norm_rotation(INTR, INTR.principal)
    assert r.angle == 0.0
    assert np.allclose(to_matrix(r).matrix, np.eye(3))


def test_known_quarter_turn():
    # face 500 px right of the principal point at f=500: optical axis must
    # swing 45 degrees about -y to reach it
    r = norm_rotation(INTR, (INTR.cx + 500.0, INTR.cy))
    assert r.angle == pytest.approx(np.pi / 4, abs=1e-12)
    axis = r.vector / r.angle
    assert np.allclose(axis, [0.0, -1.0, 0.0], atol=1e-12)


def test_axis_z_component_is_zero():
    rng = np.random.default_rng(3)
    for _ in range(10_000):
        r = norm_rotation(INTR, random_face_px(rng))
        assert r.rz == 0.0


def test_defining_property_maps_face_ray_to_optical_axis():
    rng = np.random.default_rng(4)
    for _ in range(10_000):
        px = random_face_px(rng)
        z_s = np.array([px[0] - INTR.cx, px[1] - INTR.cy, INTR.focal_px])
        z_n = z_s / np.linalg.norm(z_s)
        mapped = to_matrix(norm_rotation(INTR, px)).apply(z_n)
        assert np.max(np.abs(mapped - [0.0, 0.0, 1.0])) < 1e-9


def test_to_matrix_identity():
    assert np.allclose(to_matrix(AxisAngle(0.0, 0.0, 0.0)).matrix, np.eye(3))


def test_to_matrix_canonical_z_rotation():
    r = AxisAngle(0.0, 0.0, np.pi / 2)
    expected = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
    assert np.allclose(to_matrix(r).matrix, expected, atol=1e-12)


def test_to_matrix_against_quaternion_oracle():
    rng = np.random.default_rng(5)
    for _ in range(2000):
        axis = oracles.random_unit_vector(rng)
        angle = rng.uniform(1e-6, np.pi - 1e-6)
        got = to_matrix(AxisAngle(*(axis * angle))).matrix
        want = oracles.rotation_matrix_from_axis_angle(axis, angle)
        assert np.max(np.abs(got - want)) < 1e-12


def test_to_matrix_against_scipy():
    rng = np.random.default_rng(6)
    for _ in range(500):
        vec = rng.normal(size=3)
        got = to_matrix(AxisAngle(*vec)).matrix
        want = ScipyRotation.from_rotvec(vec).as_matrix()
        assert np.max(np.abs(got - want)) < 1e-12


def test_rotation3_validation():
    with pytest.raises(GeometryError):
        Rotation3(np.eye(3) * 2.0)
    with pytest.raises(GeometryError):
        Rotation3(-np.eye(3))  # det -1
    with pytest.raises(GeometryError):
        Rotation3(np.full((3, 3), np.nan))
    nan_corner = np.eye(3)
    nan_corner[2, 2] = np.nan
    with pytest.raises(GeometryError):
        Rotation3(nan_corner)


def test_rotation3_tolerance_edges():
    # orthonormality: |M^T M - I| <= 1e-9 + 1e-5 I, so diagonal entries get
    # the relative slack and off-diagonal ones only the absolute 1e-9
    def stretched(excess):  # M^T M = I + excess at [0, 0]; det ~ 1 + excess / 2
        return np.diag([np.sqrt(1.0 + excess), 1.0, 1.0])

    def sheared(s):  # M^T M has s off the diagonal; det exactly 1
        m = np.eye(3)
        m[0, 1] = s
        return m

    Rotation3(stretched(0.99e-5))
    with pytest.raises(GeometryError, match="orthonormal"):
        Rotation3(stretched(1.01e-5))
    Rotation3(sheared(0.9e-9))
    with pytest.raises(GeometryError, match="orthonormal"):
        Rotation3(sheared(1.1e-9))
    # determinant: |det - 1| <= 1e-9 + 1e-5; a uniform scale passes the
    # orthonormality check first and then fails this one
    Rotation3(np.eye(3) * (1.0 + 0.33e-5))
    with pytest.raises(GeometryError, match="determinant"):
        Rotation3(np.eye(3) * (1.0 + 0.45e-5))


def test_rotation_orthonormality():
    rng = np.random.default_rng(7)
    for _ in range(2000):
        R = to_matrix(norm_rotation(INTR, random_face_px(rng))).matrix
        assert np.max(np.abs(R @ R.T - np.eye(3))) < 1e-9
        assert np.linalg.det(R) == pytest.approx(1.0, abs=1e-9)


def test_normalize_zero_rotation_is_identity():
    g = np.array([0.1, -0.2, -0.9])
    out = normalize_gaze(g, AxisAngle(0.0, 0.0, 0.0))
    assert np.allclose(out, g)


def test_normalize_preserves_norm():
    rng = np.random.default_rng(8)
    for _ in range(10_000):
        g = rng.normal(size=3)
        r = norm_rotation(INTR, random_face_px(rng))
        assert abs(np.linalg.norm(normalize_gaze(g, r)) - np.linalg.norm(g)) < 1e-12


def test_normalize_denormalize_round_trip():
    rng = np.random.default_rng(9)
    for _ in range(10_000):
        g = rng.normal(size=3)
        r = norm_rotation(INTR, random_face_px(rng))
        back = denormalize_gaze(normalize_gaze(g, r), r)
        assert np.max(np.abs(back - g)) < 1e-12


def test_normalize_and_denormalize_match_the_validated_matrix_bit_for_bit():
    # both skip Rotation3's check, and must still apply exactly to_matrix's matrix
    rng = np.random.default_rng(12)
    for i in range(10_000):
        if i % 10 == 0:
            r = AxisAngle(*rng.uniform(-1e-13, 1e-13, size=2))   # under PARALLEL_EPS
        else:
            axis = oracles.random_unit_vector(rng)
            r = AxisAngle(*(axis * rng.uniform(0.0, np.pi)))
        g = rng.normal(size=3)
        m = to_matrix(r).matrix
        assert np.array_equal(normalize_gaze(g, r), to_matrix(r).apply(g)), i
        assert np.array_equal(denormalize_gaze(g, r), m.T @ g), i


def test_denormalize_sends_axis_to_face_ray():
    # inverse of the defining property
    rng = np.random.default_rng(10)
    for _ in range(1000):
        px = random_face_px(rng)
        z_s = np.array([px[0] - INTR.cx, px[1] - INTR.cy, INTR.focal_px])
        z_n = z_s / np.linalg.norm(z_s)
        r = norm_rotation(INTR, px)
        assert np.max(np.abs(denormalize_gaze(np.array([0.0, 0.0, 1.0]), r) - z_n)) < 1e-9


def test_parallel_epsilon_gives_exact_zero():
    # a face pixel offset tiny enough to fall under the parallel threshold
    r = norm_rotation(INTR, (INTR.cx + 1e-12, INTR.cy))
    assert r.angle == 0.0
    assert r.vector.tolist() == [0.0, 0.0, 0.0]
    assert PARALLEL_EPS == 1e-12


def test_axis_angle_xy_serialization():
    r = AxisAngle(0.25, -0.5, 0.0)
    assert r.xy.tolist() == [0.25, -0.5]
