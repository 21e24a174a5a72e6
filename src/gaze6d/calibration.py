"""Screen-free calibration from lens-fixation frames.

The subject looks at the camera lens center while moving the head freely.
The true gaze direction is then fully determined by the face pixel: it is
the backprojection ray reversed, so metric ground truth comes for free from
the face box center

    g_o = -[(x - x_p) k, (y - y_p) k, f k] / || . ||

with (x_p, y_p) the principal point, f the focal length in pixels and k the
pixel pitch.  The direction does not depend on k or on the face depth, which
is what makes the procedure screen-free.
"""

from __future__ import annotations

import math

import numpy as np

from .camera import CameraIntrinsics
from .jsonl import LINE_ENCODER


def derive_calibration_label(intr: CameraIntrinsics, face_px) -> np.ndarray:
    """Unit gaze direction (camera frame) for a frame fixating the lens center."""
    k = intr.k_mm_per_px
    v = -np.array(
        [
            (float(face_px[0]) - intr.cx) * k,
            (float(face_px[1]) - intr.cy) * k,
            intr.focal_px * k,
        ]
    )
    return v / math.sqrt(v.dot(v))   # np.linalg.norm's arithmetic for a 1-D vector


def write_calibration_set(samples, intr: CameraIntrinsics, path) -> None:
    """Write one JSON line per lens-fixation frame (a calibration-mode
    `synth.GazeSample`): its subject, face box, face pixel (the box center)
    and the gaze label derived from that pixel."""
    with open(path, "w") as f:
        for s in samples:
            face_px = s.bbox.center
            record = {"subject": s.subject, "face_px": face_px.tolist(), "bbox": s.bbox.to_list(),
                      "g_o": derive_calibration_label(intr, face_px).tolist()}
            f.write(LINE_ENCODER.encode(record) + "\n")
