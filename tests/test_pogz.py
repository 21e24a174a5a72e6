import numpy as np
import pytest

import oracles
from gaze6d.camera import FRAME_CAMERA, FRAME_SCREEN, Point3
from gaze6d.easy_norm import Rotation3
from gaze6d.errors import FrameMismatchError, RayParallelError
from gaze6d.pogz import (FRAME_CAMERA_PLANE, FRAME_SCREEN_PLANE, RAY_EPS,
                         PlanePoint, RigidTransform, pog_to_pogz,
                         pogz_from_ray, pogz_to_pog)


def cam_point(x, y, z):
    return Point3(np.array([x, y, z], dtype=float), FRAME_CAMERA)


def random_transform(rng):
    return RigidTransform(Rotation3(oracles.random_rotation(rng)), rng.uniform(-300, 300, size=3))


def test_on_axis_gaze():
    p = pogz_from_ray(cam_point(0, 0, 600), np.array([0.0, 0.0, -1.0]))
    assert p.xy.tolist() == [0.0, 0.0]
    assert p.frame == FRAME_CAMERA_PLANE
    assert not p.behind


def test_ray_through_origin():
    origin = cam_point(100, 50, 600)
    p = pogz_from_ray(origin, -origin.xyz)
    assert np.allclose(p.xy, [0.0, 0.0], atol=1e-12)


def test_known_intersection():
    p = pogz_from_ray(cam_point(0, 0, 500), np.array([0.2, -0.1, -1.0]))
    assert np.allclose(p.xy, [100.0, -50.0])


def test_matches_general_line_plane_oracle():
    rng = np.random.default_rng(11)
    for _ in range(5000):
        origin = cam_point(*rng.uniform(-200, 200, size=2), rng.uniform(100, 1000))
        d = rng.normal(size=3)
        if abs(d[2] / np.linalg.norm(d)) < 1e-6:
            continue
        want = oracles.line_plane_intersection(origin.xyz, d, [0, 0, 0], [0, 0, 1])
        got = pogz_from_ray(origin, d)
        assert np.max(np.abs(got.xy - want[:2])) < 1e-9


def test_scale_invariance():
    rng = np.random.default_rng(12)
    origin = cam_point(30, -40, 700)
    for _ in range(200):
        d = rng.normal(size=3)
        if abs(d[2]) < 0.05:
            continue
        a = pogz_from_ray(origin, d)
        b = pogz_from_ray(origin, d * rng.uniform(0.1, 50.0))
        assert np.max(np.abs(a.xy - b.xy)) < 1e-9


def test_any_line_point_gives_same_pogz():
    rng = np.random.default_rng(13)
    origin = cam_point(10, 20, 600)
    d = np.array([0.3, -0.2, -1.0])
    base = pogz_from_ray(origin, d)
    for _ in range(100):
        t = rng.uniform(-100, 100)
        moved = origin.xyz + t * d
        if moved[2] <= 0:
            continue
        p = pogz_from_ray(cam_point(*moved), d)
        assert np.max(np.abs(p.xy - base.xy)) < 1e-9


def test_parallel_ray_raises():
    with pytest.raises(RayParallelError):
        pogz_from_ray(cam_point(0, 0, 500), np.array([1.0, 0.0, 0.0]))
    assert RAY_EPS == 1e-9


def test_origin_frame_checked():
    with pytest.raises(FrameMismatchError):
        pogz_from_ray(Point3(np.array([0.0, 0.0, 500.0]), FRAME_SCREEN), np.array([0.0, 0.0, -1.0]))


def test_behind_flag():
    # gaze pointing away from the plane: intersection lies behind the origin point
    p = pogz_from_ray(cam_point(0, 0, 500), np.array([0.0, 0.0, 1.0]))
    assert p.behind
    assert p.xy.tolist() == [0.0, 0.0]


def test_behind_flag_not_compared():
    a = PlanePoint(1.0, 2.0, FRAME_CAMERA_PLANE, behind=False)
    b = PlanePoint(1.0, 2.0, FRAME_CAMERA_PLANE, behind=True)
    assert a == b


def identity_transform():
    return RigidTransform(Rotation3(np.eye(3)), np.zeros(3))


def test_pogz_to_pog_identity_transform():
    p = PlanePoint(30.0, 40.0, FRAME_CAMERA_PLANE)
    out = pogz_to_pog(p, np.array([0.1, 0.2, -1.0]), identity_transform())
    assert np.allclose(out.xy, p.xy)
    assert out.frame == FRAME_SCREEN_PLANE


def test_pogz_to_pog_pure_perpendicular_shift():
    t = RigidTransform(Rotation3(np.eye(3)), np.array([0.0, 0.0, -10.0]))
    out = pogz_to_pog(PlanePoint(30.0, 40.0, FRAME_CAMERA_PLANE), np.array([0.0, 0.0, -1.0]), t)
    assert np.allclose(out.xy, [30.0, 40.0])
    assert out.behind


def test_pogz_to_pog_half_turn_about_x():
    R = Rotation3(np.diag([1.0, -1.0, -1.0]))
    t = RigidTransform(R, np.zeros(3))
    out = pogz_to_pog(PlanePoint(30.0, 40.0, FRAME_CAMERA_PLANE), np.array([0.0, 0.0, -1.0]), t)
    assert np.allclose(out.xy, [30.0, -40.0])


def test_pog_to_pogz_inverts_half_turn():
    R = Rotation3(np.diag([1.0, -1.0, -1.0]))
    t = RigidTransform(R, np.zeros(3))
    g_s = R.matrix @ np.array([0.0, 0.0, -1.0])
    out = pog_to_pogz(PlanePoint(30.0, -40.0, FRAME_SCREEN_PLANE), g_s, t)
    assert np.allclose(out.xy, [30.0, 40.0])
    assert out.frame == FRAME_CAMERA_PLANE


def test_pogz_to_pog_matches_full_3d_oracle():
    rng = np.random.default_rng(14)
    checked = 0
    while checked < 2000:
        tr = random_transform(rng)
        pogz = PlanePoint(*rng.uniform(-200, 200, size=2), frame=FRAME_CAMERA_PLANE)
        g = rng.normal(size=3)
        g_s = tr.rotation.matrix @ (g / np.linalg.norm(g))
        if abs(g_s[2]) < 1e-3:
            continue
        lifted = tr.apply_point(np.array([pogz.x, pogz.y, 0.0]))
        want = oracles.line_plane_intersection(lifted, g_s, [0, 0, 0], [0, 0, 1])
        got = pogz_to_pog(pogz, g, tr)
        assert np.max(np.abs(got.xy - want[:2])) < 1e-6
        checked += 1


def test_round_trip_random_configurations():
    rng = np.random.default_rng(15)
    checked = 0
    while checked < 10_000:
        tr = random_transform(rng)
        p = PlanePoint(*rng.uniform(-300, 300, size=2), frame=FRAME_CAMERA_PLANE)
        g = rng.normal(size=3)
        gu = g / np.linalg.norm(g)
        if abs(gu[2]) < 1e-3 or abs((tr.rotation.matrix @ gu)[2]) < 1e-3:
            continue
        pog = pogz_to_pog(p, g, tr)
        back = pog_to_pogz(pog, tr.rotation.matrix @ gu, tr)
        assert np.max(np.abs(back.xy - p.xy)) < 1e-6
        checked += 1


def test_frame_tags_enforced():
    tr = identity_transform()
    with pytest.raises(FrameMismatchError):
        pogz_to_pog(PlanePoint(0.0, 0.0, FRAME_SCREEN_PLANE), np.array([0.0, 0.0, -1.0]), tr)
    with pytest.raises(FrameMismatchError):
        pog_to_pogz(PlanePoint(0.0, 0.0, FRAME_CAMERA_PLANE), np.array([0.0, 0.0, -1.0]), tr)


def test_transform_json_round_trip(tmp_path):
    rng = np.random.default_rng(16)
    tr = random_transform(rng)
    path = tmp_path / "transform.json"
    tr.save(path)
    loaded = RigidTransform.load(path)
    assert np.max(np.abs(loaded.rotation.matrix - tr.rotation.matrix)) < 1e-15
    assert np.max(np.abs(loaded.translation - tr.translation)) < 1e-15


def test_inverse_transform():
    rng = np.random.default_rng(17)
    for _ in range(200):
        tr = random_transform(rng)
        p = rng.uniform(-100, 100, size=3)
        assert np.max(np.abs(tr.inverse.apply_point(tr.apply_point(p)) - p)) < 1e-9


def test_apply_inverse_matches_inverse_bit_for_bit():
    rng = np.random.default_rng(18)
    for _ in range(200):
        tr = random_transform(rng)
        p, d = rng.uniform(-300, 300, size=3), rng.normal(size=3)
        inv = tr.inverse
        assert np.array_equal(tr.apply_inverse_point(p), inv.apply_point(p))
        assert np.array_equal(tr.apply_inverse_direction(d), inv.apply_direction(d))
