"""Hand-worked values for the benchmark's reference geometry.

    python3 -m pytest bench
"""

import math

import numpy as np
import pytest

import oracle


def test_project_pinhole():
    # u = 600 * 10 / 500 + 320, v = 600 * -20 / 500 + 240
    px = oracle.project([[10.0, -20.0, 500.0]], 600.0, 320.0, 240.0)
    assert px.tolist() == [[332.0, 216.0]]


def test_line_plane_general_form():
    hit, t = oracle.line_plane([[1.0, 2.0, 3.0]], [[0.0, 0.0, -1.0]], [0, 0, 0], [0, 0, 1])
    assert hit.tolist() == [[1.0, 2.0, 0.0]] and t.tolist() == [3.0]
    # the plane x = 5, reached along the diagonal
    hit, t = oracle.line_plane([[0.0, 0.0, 0.0]], [[1.0, 1.0, 0.0]], [5, 0, 0], [1, 0, 0])
    assert hit.tolist() == [[5.0, 5.0, 0.0]] and t.tolist() == [5.0]


def test_line_plane_behind_and_parallel():
    hit, t = oracle.line_plane([[0.0, 0.0, 2.0], [0.0, 0.0, 2.0]],
                               [[0.0, 0.0, 1.0], [1.0, 0.0, 0.0]], [0, 0, 0], [0, 0, 1])
    assert t[0] == -2.0 and hit[0].tolist() == [0.0, 0.0, 0.0]
    assert math.isnan(t[1]) and np.isnan(hit[1]).all()


def test_quaternion_quarter_turn_about_z():
    q = [math.cos(math.pi / 4), 0.0, 0.0, math.sin(math.pi / 4)]
    np.testing.assert_allclose(oracle.quat_rotate(q, [[1.0, 0.0, 0.0]]), [[0.0, 1.0, 0.0]], atol=1e-15)
    np.testing.assert_allclose(oracle.Rigid(q, [0, 0, 0]).matrix(),
                               [[0, -1, 0], [1, 0, 0], [0, 0, 1]], atol=1e-15)


def test_quaternion_half_turn_about_x():
    np.testing.assert_allclose(oracle.quat_rotate([0.0, 1.0, 0.0, 0.0], [[0.0, 1.0, 0.0]]),
                               [[0.0, -1.0, 0.0]], atol=1e-15)


def test_rigid_moves_points_and_only_rotates_directions():
    rigid = oracle.Rigid([math.cos(math.pi / 4), 0.0, 0.0, math.sin(math.pi / 4)], [1.0, 2.0, 3.0])
    np.testing.assert_allclose(rigid.point([[1.0, 0.0, 0.0]]), [[1.0, 3.0, 3.0]], atol=1e-15)
    np.testing.assert_allclose(rigid.direction([[1.0, 0.0, 0.0]]), [[0.0, 1.0, 0.0]], atol=1e-15)


def test_gaze_vectors():
    np.testing.assert_allclose(oracle.gaze_vectors(0.0, 0.0), [0.0, 0.0, -1.0])
    np.testing.assert_allclose(oracle.gaze_vectors(math.pi / 2, 0.0), [-1.0, 0.0, 0.0], atol=1e-15)
    # pitch 30 degrees up: y = -sin 30, z = -cos 30
    np.testing.assert_allclose(oracle.gaze_vectors(0.0, math.pi / 6), [0.0, -0.5, -math.sqrt(3) / 2])


def test_angle_deg():
    np.testing.assert_allclose(oracle.angle_deg([[1, 0, 0], [1, 0, 0]], [[0, 1, 0], [1, 1, 0]]),
                               [90.0, 45.0])


def test_noise_floor():
    assert oracle.noise_floor_deg(0.0) == 0.0
    # near the axis the error is Rayleigh with scale sigma: mean sigma * sqrt(pi / 2)
    floor = oracle.noise_floor_deg(0.01, yaw=(0.0, 1e-9), pitch=(0.0, 1e-9))
    assert floor == pytest.approx(math.degrees(0.01 * math.sqrt(math.pi / 2)), rel=0.01)
