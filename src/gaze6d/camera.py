"""Pinhole camera model: intrinsics, face boxes, projection and backprojection.

COORDINATE SYSTEM CONVENTION (OpenCV style)
    Camera frame: origin at the lens center, +x right, +y down, +z along the
    optical axis into the scene.  Metric units are millimetres.
    Image frame: origin at the top-left pixel, u right, v down, units pixels.

Square pixels and a distortion-free lens are assumed throughout, so a single
focal length in pixels fully describes the projection.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (BehindCameraError, FrameMismatchError, GeometryError, InvalidIntrinsicsError, check_ranges,
                     ranged)

# frame tags carried by 3-D points
FRAME_CAMERA = "oCCS"
FRAME_SCREEN = "SCS"


@dataclass(frozen=True)
class CameraIntrinsics:
    """Pinhole intrinsics with a metric pixel pitch.

    focal_px      focal length in pixels
    cx, cy        principal point in pixels
    k_mm_per_px   physical pixel pitch, millimetres per pixel
    width, height sensor size in pixels
    """

    focal_px: float = ranged("finite and > 0")
    cx: float = ranged("finite")
    cy: float = ranged("finite")
    k_mm_per_px: float = ranged("finite and > 0")
    # "finite": a size too large for a float, which the image arithmetic takes, is refused
    width: int = ranged("finite and >= 1")
    height: int = ranged("finite and >= 1")

    def __post_init__(self):
        check_ranges(self, InvalidIntrinsicsError)
        if not (0 <= self.cx <= self.width and 0 <= self.cy <= self.height):
            raise InvalidIntrinsicsError(
                f"principal point ({self.cx}, {self.cy}) outside image {self.width}x{self.height}"
            )

    @property
    def principal(self) -> np.ndarray:
        return np.array([self.cx, self.cy], dtype=float)


@dataclass(frozen=True)
class BoundingBox:
    """Square face crop: center (x, y) in pixels and side length in pixels."""

    x: float
    y: float
    side: float

    def __post_init__(self):
        if self.side <= 0:
            raise InvalidIntrinsicsError(f"box side must be positive, got {self.side}")

    @property
    def center(self) -> np.ndarray:
        return np.array([self.x, self.y], dtype=float)

    def to_list(self) -> list:
        return [self.x, self.y, self.side]


@dataclass(frozen=True, eq=False)
class Point3:
    """3-D point in millimetres, tagged with the frame it lives in."""

    xyz: np.ndarray
    frame: str = FRAME_CAMERA

    def __post_init__(self):
        object.__setattr__(self, "xyz", np.asarray(self.xyz, dtype=float).reshape(3))

    @property
    def x(self) -> float:
        return float(self.xyz[0])

    @property
    def y(self) -> float:
        return float(self.xyz[1])

    @property
    def z(self) -> float:
        return float(self.xyz[2])


def backproject(intr: CameraIntrinsics, pixel, depth_mm: float) -> Point3:
    """Lift a pixel to the 3-D camera-frame point at the given depth (mm)."""
    if depth_mm <= 0:
        raise GeometryError(f"depth must be positive, got {depth_mm}")
    # Python floats: the same IEEE operations as numpy scalars, without their overhead
    u, v, depth = float(pixel[0]), float(pixel[1]), float(depth_mm)
    return Point3(
        np.array(
            [
                (u - intr.cx) * depth / intr.focal_px,
                (v - intr.cy) * depth / intr.focal_px,
                depth,
            ]
        ),
        frame=FRAME_CAMERA,
    )


def project(intr: CameraIntrinsics, point: Point3) -> np.ndarray:
    """Project a camera-frame 3-D point to pixel coordinates."""
    if point.frame != FRAME_CAMERA:
        raise FrameMismatchError(f"project expects a {FRAME_CAMERA} point, got {point.frame}")
    if point.z <= 0:
        raise BehindCameraError(f"point at z={point.z} is behind the camera")
    return np.array(
        [
            intr.focal_px * point.x / point.z + intr.cx,
            intr.focal_px * point.y / point.z + intr.cy,
        ]
    )
