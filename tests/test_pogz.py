import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

import oracles
from fuzz import FUZZ
from gaze6d.camera import FRAME_CAMERA, FRAME_SCREEN, Point3
from gaze6d.easy_norm import Rotation3
from gaze6d.errors import FrameMismatchError, GeometryError, RayParallelError
from gaze6d.pogz import (FRAME_CAMERA_PLANE, FRAME_SCREEN_PLANE, RAY_EPS,
                         PlanePoint, RigidTransform, convert_lines, pog_to_pogz,
                         pogz_from_ray, pogz_to_pog, pogz_to_pog_rows, rotate_rows)


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


@pytest.mark.parametrize("gaze", [[0.0, 0.0, 0.0], [1e-320, 0.0, 1e-320]])
def test_zero_length_gaze_raises_without_numpy_warnings(gaze):
    # the second gaze is nonzero, but its squared norm underflows to 0
    g = np.array(gaze)
    tr = RigidTransform(Rotation3(np.eye(3)), np.zeros(3))
    with pytest.raises(GeometryError, match="has no length"):
        pogz_from_ray(cam_point(0, 0, 500), g)
    with pytest.raises(GeometryError, match="has no length"):
        pogz_to_pog(PlanePoint(1.0, 2.0, FRAME_CAMERA_PLANE), g, tr)
    with pytest.raises(GeometryError, match="has no length"):
        pog_to_pogz(PlanePoint(1.0, 2.0, FRAME_SCREEN_PLANE), g, tr)


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


def test_the_inverse_is_built_and_validated_once(monkeypatch):
    """The inverse is built on first use and kept, its Rotation3(R.T)
    validated once; its own inverse is the transform itself."""
    tr = random_transform(np.random.default_rng(18))
    validated = []
    check = Rotation3.__post_init__
    monkeypatch.setattr(Rotation3, "__post_init__", lambda r: (validated.append(r), check(r)))
    inv = tr.inverse
    assert tr.inverse is inv and inv.inverse is tr
    assert len(validated) == 1 and inv.rotation is validated[0]


def test_inverse_translation_is_the_per_call_formula_bit_for_bit():
    rng = np.random.default_rng(19)
    for _ in range(200):
        tr = random_transform(rng)
        p, rt = rng.uniform(-300, 300, size=3), tr.rotation.matrix.T
        assert np.array_equal(tr.inverse.translation, -rt @ tr.translation)
        assert np.array_equal(tr.inverse.apply_point(p), rt @ p + (-rt @ tr.translation))

coordinates = st.floats(-2000.0, 2000.0)
gaze_rows = st.tuples(coordinates, coordinates, st.floats(-1.0, 1.0), st.floats(-1.0, 1.0),
                      st.floats(-1.0, 1.0), st.sampled_from(["free"] * 3 + ["parallel"] * 2 + ["zero", "tiny"]))


@FUZZ
@given(quaternion=st.tuples(*[st.floats(-1.0, 1.0)] * 4), translation=st.tuples(*[coordinates] * 3),
       rows=st.lists(gaze_rows, min_size=1, max_size=12))
def test_pogz_to_pog_rows_matches_pogz_to_pog_bit_for_bit(quaternion, translation, rows):
    """Each row of the batched intersection is pogz_to_pog of that row alone:
    the same point bits and behind flag, and no hit, a NaN point and behind
    False where it raises, on a plane-parallel gaze (RayParallelError) or one
    of no length, zero or with a squared norm that underflows (GeometryError),
    whichever rows share the call; each returned gaze row has the bits of
    transform.apply_direction of that row."""
    q = np.array(quaternion)
    assume(np.linalg.norm(q) > 0.1)
    R = oracles.quat_to_matrix(q / np.linalg.norm(q))
    transform = RigidTransform(Rotation3(R), np.array(translation))
    P = np.array([row[:2] for row in rows])
    G = np.array([row[2:5] for row in rows])
    for i, kind in enumerate(row[5] for row in rows):
        if kind == "parallel":   # in the screen plane, up to rounding
            G[i] = R.T @ np.array([G[i, 0], G[i, 1], 0.0])
        elif kind == "zero":
            G[i] = 0.0
        elif kind == "tiny":   # its squared norm underflows to 0
            G[i] *= 1e-170

    errors = []
    for p, g in zip(P, G):
        try:
            errors.append(pogz_to_pog(PlanePoint(p[0], p[1]), g, transform))
        except GeometryError as exc:
            errors.append(exc)
    points, behind, hit, gaze = pogz_to_pog_rows(P, G, transform)
    assert points.shape == (len(rows), 2) and behind.shape == hit.shape == (len(rows),)
    assert gaze.shape == (len(rows), 3)
    for i, want in enumerate(errors):
        assert gaze[i].tobytes() == transform.apply_direction(G[i]).tobytes()
        if isinstance(want, GeometryError):
            assert not hit[i] and not behind[i] and np.isnan(points[i]).all()
        else:
            assert hit[i] and behind[i] == want.behind
            assert points[i, 0].tobytes() == np.float64(want.x).tobytes()
            assert points[i, 1].tobytes() == np.float64(want.y).tobytes()


def test_rotate_rows_by_the_inverse_is_its_apply_direction_bit_for_bit():
    """rotate_rows(transform.inverse.rotation.matrix, G), the output gaze of
    a convert --dir pog2pogz block, gives each row the bits
    transform.inverse.apply_direction gives it alone: over 200
    random rotations, gazes of every magnitude from 1e-5 to 1e9, contiguous
    and as the gaze columns of a block's (n, 5) values."""
    rng = np.random.default_rng(64)
    for _ in range(200):
        transform = random_transform(rng)
        columns = rng.normal(size=(300, 5)) * 10.0 ** rng.uniform(-5, 9, size=(300, 1))
        for G in (columns[:, 2:], np.ascontiguousarray(columns[:, 2:])):
            rows = rotate_rows(transform.inverse.rotation.matrix, G)
            want = np.array([transform.inverse.apply_direction(g) for g in G])
            assert rows.tobytes() == want.tobytes()


def test_pogz_to_pog_rows_covers_parallel_and_behind_rows():
    transform = RigidTransform(Rotation3(np.eye(3)), np.array([0.0, 0.0, -50.0]))
    points, behind, hit, _ = pogz_to_pog_rows(np.zeros((3, 2)), np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 1.0],
                                                                          [0.0, 0.0, -1.0]]), transform)
    assert hit.tolist() == [False, True, True]
    assert behind.tolist() == [False, False, True]
    assert points[1:].tolist() == [[0.0, 0.0], [0.0, 0.0]]


round_trip_rows = st.tuples(coordinates, coordinates, st.floats(-1.0, 1.0), st.floats(-1.0, 1.0),
                            st.floats(-1.0, 1.0))


@FUZZ
@given(quaternion=st.tuples(*[st.floats(-1.0, 1.0)] * 4), translation=st.tuples(*[coordinates] * 3),
       rows=st.lists(round_trip_rows, min_size=1, max_size=12))
def test_pog_to_pogz_returns_each_point_and_negates_behind(quaternion, translation, rows):
    """pog_to_pogz(pogz_to_pog(p, g, T), T g, T) is p to 1e-9 x max(1 mm, |PoG|),
    and the return trip's behind flag is the outbound one negated.  Gazes within
    1e-3 of either plane are skipped, as is the flag of a point that lies on
    the screen plane to rounding, where the ray starts at its own PoG."""
    q = np.array(quaternion)
    assume(np.linalg.norm(q) > 0.1)
    transform = RigidTransform(Rotation3(oracles.quat_to_matrix(q / np.linalg.norm(q))), np.array(translation))
    for x, y, *g in rows:
        g = np.array(g)
        norm = np.linalg.norm(g)
        if not norm > 0 or min(abs(g[2]), abs(transform.apply_direction(g)[2])) < 1e-3 * norm:
            continue
        p = PlanePoint(x, y)
        pog = pogz_to_pog(p, g, transform)
        back = pog_to_pogz(pog, transform.apply_direction(g), transform)
        scale = max(1.0, np.hypot(pog.x, pog.y))
        assert back.frame == FRAME_CAMERA_PLANE
        assert np.max(np.abs(back.xy - p.xy)) <= 1e-9 * scale
        gap = np.linalg.norm(transform.apply_point([x, y, 0.0]) - [pog.x, pog.y, 0.0])
        if gap > 1e-9 * max(scale, np.linalg.norm(transform.translation)):
            assert back.behind == (not pog.behind)


def test_convert_lines_answers_each_numbered_line_and_refuses_an_unknown_direction():
    """The kernel of `gaze6d convert`, called as a library function: a record
    per line, in line order, numbered as given, and no line for a blank one."""
    transform = RigidTransform(Rotation3(np.eye(3)), np.array([0.0, 0.0, 10.0]))
    lines = [(7, '{"point": [1.0, 2.0], "gaze": [0.0, 0.0, -1.0]}\n'), (8, "  \n"), (9, "{")]
    assert convert_lines(lines, "pogz2pog", transform) == (
        '{"behind": false, "gaze": [0.0, 0.0, -1.0], "point": [1.0, 2.0]}\n'
        '{"error": "Expecting property name enclosed in double quotes: line 1 column 2 (char 1)", "line": 9}\n')
    with pytest.raises(ValueError, match="unknown direction 'pogz2screen'"):
        convert_lines(lines, "pogz2screen", transform)
