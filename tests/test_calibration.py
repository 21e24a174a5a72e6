import numpy as np

import oracles
from gaze6d.calibration import derive_calibration_label
from gaze6d.camera import CameraIntrinsics, backproject

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
