import warnings

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

import oracles
from fuzz import FUZZ
from gaze6d.calibration import derive_calibration_label
from gaze6d.camera import BoundingBox, CameraIntrinsics, backproject
from gaze6d.synth import GazeSample, calibration_view

INTR = CameraIntrinsics(500.0, 320.0, 240.0, 0.05, 640, 480)


def test_label_at_principal_point():
    g = derive_calibration_label(INTR, INTR.principal)
    assert np.allclose(g, [0.0, 0.0, -1.0])


def test_label_known_offset():
    # f=500 px, k=0.05 mm/px, face 100 px right and 50 px up of center
    g = derive_calibration_label(INTR, (420.0, 190.0))
    want = -np.array([5.0, -2.5, 25.0])
    want /= np.linalg.norm(want)
    assert np.max(np.abs(g - want)) < 1e-12


def test_label_is_unit_and_toward_camera():
    rng = np.random.default_rng(20)
    for _ in range(2000):
        px = (rng.uniform(0, 640), rng.uniform(0, 480))
        g = derive_calibration_label(INTR, px)
        assert abs(np.linalg.norm(g) - 1.0) < 1e-12
        assert g[2] < 0


def test_label_invariant_to_pixel_pitch():
    for k in (0.001, 0.05, 1.0, 17.3):
        intr = CameraIntrinsics(500.0, 320.0, 240.0, k, 640, 480)
        g = derive_calibration_label(intr, (411.0, 207.5))
        ref = derive_calibration_label(INTR, (411.0, 207.5))
        assert np.max(np.abs(g - ref)) < 1e-12


def test_label_matches_face_to_lens_oracle():
    # place a 3-D face center on the pixel's backprojection ray; the true
    # gaze direction during lens fixation is face -> (0,0,0)
    rng = np.random.default_rng(21)
    for _ in range(2000):
        px = (rng.uniform(0, 640), rng.uniform(0, 480))
        depth = rng.uniform(200.0, 1500.0)
        face = backproject(INTR, px, depth).xyz
        true_dir = -face / np.linalg.norm(face)
        g = derive_calibration_label(INTR, px)
        assert oracles.angular_gap_deg(g, true_dir) < 1e-6


def test_label_noise_bound():
    # +-0.5 px pixel noise at f >= 500 px and depth >= 400 mm stays under 0.12 deg
    rng = np.random.default_rng(22)
    worst = 0.0
    for _ in range(5000):
        px = np.array([rng.uniform(0, 640), rng.uniform(0, 480)])
        depth = rng.uniform(400.0, 1500.0)
        face = backproject(INTR, px, depth).xyz
        true_dir = -face / np.linalg.norm(face)
        noisy = px + rng.uniform(-0.5, 0.5, size=2)
        g = derive_calibration_label(INTR, noisy)
        worst = max(worst, oracles.angular_gap_deg(g, true_dir))
    assert worst <= 0.12


def lens_frames(centres):
    """Lens-fixation frames at the given box centres, with distinct features."""
    return [GazeSample(features=np.arange(7.0) + i, bbox=BoundingBox(x, y, 40.0), g_n=None, g_o=None,
                       pogz=None, r_on=None, o_face=None, subject=3)
            for i, (x, y) in enumerate(centres)]


def bits(a):
    return np.asarray(a, dtype=float).view(np.int64)


# anywhere in the image, or within 1e-9 px of the principal point
near_axis = st.floats(-1e-9, 1e-9)
centres = st.tuples(st.floats(0.0, 640.0) | near_axis.map(lambda e: INTR.cx + e),
                    st.floats(0.0, 480.0) | near_axis.map(lambda e: INTR.cy + e))


@FUZZ
@given(boxes=st.lists(centres, max_size=20), at=st.integers(0, 20))
def test_calibration_view_matches_the_per_row_reference_bit_for_bit(boxes, at):
    """g_o has the per-row reference's bits; g_n is (+0.0, +0.0), a gaze into
    the lens running along the normalized optical axis, in an array of its own."""
    boxes.insert(at % (len(boxes) + 1), (INTR.cx, INTR.cy))   # one box exactly on the principal point
    samples = lens_frames(boxes)
    with warnings.catch_warnings():
        warnings.simplefilter("error")   # the on-axis rows divide nothing by zero
        rows = calibration_view(samples, INTR)
    assert len(rows) == len(samples)
    for s, row in zip(samples, rows):
        g_o = oracles.reference_calibration_row((s.bbox.x, s.bbox.y), INTR)
        assert np.array_equal(bits(row.g_o), bits(g_o))
        assert bits(row.g_n).tolist() == [0, 0]
        assert np.array_equal(row.features, s.features) and not np.shares_memory(row.features, s.features)
        assert row.bbox == s.bbox and row.subject == s.subject
        assert row.pogz is None and row.r_on is None and row.o_face is None
    assert not any(np.shares_memory(a.g_n, b.g_n) for a, b in zip(rows, rows[1:]))


def test_calibration_view_of_no_frames_is_empty():
    assert calibration_view([], INTR) == []
