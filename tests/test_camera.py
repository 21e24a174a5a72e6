import json
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from fuzz import FUZZ
from gaze6d.camera import (FRAME_CAMERA, FRAME_SCREEN, BoundingBox,
                           CameraIntrinsics, Point3, backproject, project)
from gaze6d.errors import (BehindCameraError, FrameMismatchError,
                           GeometryError, InvalidIntrinsicsError, from_dict)

INTR = CameraIntrinsics(500.0, 320.0, 240.0, 0.005, 640, 480)


def test_intrinsics_validation():
    with pytest.raises(InvalidIntrinsicsError):
        CameraIntrinsics(0.0, 320, 240, 0.005, 640, 480)
    with pytest.raises(InvalidIntrinsicsError):
        CameraIntrinsics(500, 320, 240, -0.005, 640, 480)
    with pytest.raises(InvalidIntrinsicsError):
        CameraIntrinsics(500, 320, 240, 0.005, 0, 480)
    with pytest.raises(InvalidIntrinsicsError):
        CameraIntrinsics(500, 700, 240, 0.005, 640, 480)


def test_intrinsics_json_round_trip():
    text = json.dumps(asdict(INTR), sort_keys=True)
    loaded = from_dict(CameraIntrinsics, json.loads(text), "intrinsics")
    assert loaded == INTR
    keys = set(json.loads(text))
    assert keys == {"focal_px", "cx", "cy", "k_mm_per_px", "width", "height"}


def test_bounding_box_validation():
    with pytest.raises(InvalidIntrinsicsError):
        BoundingBox(100, 100, 0)
    box = BoundingBox(420.0, 240.0, 200.0)
    assert BoundingBox(*box.to_list()) == box


def test_backproject_on_axis():
    p = backproject(INTR, INTR.principal, 600.0)
    assert np.allclose(p.xyz, [0.0, 0.0, 600.0])
    assert p.frame == FRAME_CAMERA


def test_backproject_known_point():
    p = backproject(INTR, (420.0, 190.0), 500.0)
    assert np.allclose(p.xyz, [100.0, -50.0, 500.0])


def test_backproject_linear_in_depth():
    a = backproject(INTR, (450.0, 300.0), 300.0)
    b = backproject(INTR, (450.0, 300.0), 600.0)
    assert np.allclose(2.0 * a.xyz, b.xyz)


def test_backproject_rejects_bad_depth():
    with pytest.raises(GeometryError):
        backproject(INTR, (320.0, 240.0), 0.0)
    with pytest.raises(GeometryError):
        backproject(INTR, (320.0, 240.0), -5.0)


def test_project_known_point():
    px = project(INTR, Point3(np.array([100.0, -50.0, 500.0]), FRAME_CAMERA))
    assert np.allclose(px, [420.0, 190.0])
    on_axis = project(INTR, Point3(np.array([0.0, 0.0, 600.0]), FRAME_CAMERA))
    assert np.allclose(on_axis, INTR.principal)


def test_project_scale_invariant():
    p = np.array([40.0, 25.0, 700.0])
    a = project(INTR, Point3(p, FRAME_CAMERA))
    b = project(INTR, Point3(3.7 * p, FRAME_CAMERA))
    assert np.allclose(a, b)


def test_project_errors():
    with pytest.raises(BehindCameraError):
        project(INTR, Point3(np.array([0.0, 0.0, -1.0]), FRAME_CAMERA))
    with pytest.raises(FrameMismatchError):
        project(INTR, Point3(np.array([0.0, 0.0, 500.0]), FRAME_SCREEN))


def test_project_backproject_round_trip():
    rng = np.random.default_rng(1)
    for _ in range(1000):
        px = np.array([rng.uniform(0, 640), rng.uniform(0, 480)])
        depth = rng.uniform(1.0, 5000.0)
        back = project(INTR, backproject(INTR, px, depth))
        assert np.max(np.abs(back - px)) < 1e-9


def test_backproject_matches_similar_triangles():
    # independent oracle: x/z must equal the pixel's metric offset over focal length
    rng = np.random.default_rng(2)
    for _ in range(500):
        px = np.array([rng.uniform(0, 640), rng.uniform(0, 480)])
        depth = rng.uniform(100.0, 2000.0)
        p = backproject(INTR, px, depth).xyz
        assert p[0] / p[2] == pytest.approx((px[0] - INTR.cx) / INTR.focal_px, abs=1e-12)
        assert p[1] / p[2] == pytest.approx((px[1] - INTR.cy) / INTR.focal_px, abs=1e-12)


@st.composite
def cameras(draw):
    """Intrinsics: focal 100-5000 px and any principal point of a 640x480 image."""
    return CameraIntrinsics(draw(st.floats(100.0, 5000.0)), draw(st.floats(0.0, 640.0)),
                            draw(st.floats(0.0, 480.0)), draw(st.floats(0.001, 0.02)), 640, 480)


depths = st.floats(1e-3, 1e6)


@FUZZ
@given(cameras(), st.tuples(st.floats(0.0, 640.0), st.floats(0.0, 480.0)), depths)
def test_project_returns_the_pixel_backproject_lifted(intr, px, depth):
    """A box centre anywhere in the image, lifted to any depth, projects back
    onto itself; the lifted point sits at exactly that depth."""
    p = backproject(intr, px, depth)
    assert p.frame == FRAME_CAMERA and p.z == depth
    assert np.max(np.abs(project(intr, p) - px)) < 1e-10


@FUZZ
@given(cameras(), st.tuples(st.floats(-2.0, 2.0), st.floats(-2.0, 2.0)), depths)
def test_backproject_at_its_depth_returns_the_projected_point(intr, slope, depth):
    """Any point in front of the camera (lateral offsets up to twice its depth)
    is recovered from its pixel and its depth, to rounding: the pixel's
    absolute error of ~1e-13 px grows by depth / focal."""
    point = np.array([slope[0] * depth, slope[1] * depth, depth])
    back = backproject(intr, project(intr, Point3(point, FRAME_CAMERA)), depth).xyz
    assert np.all(np.abs(back - point) <= 1e-12 * (np.abs(point) + depth * 640 / intr.focal_px))
