"""Desk-scale 6-DoF gaze estimation from face bounding boxes.

The pipeline normalizes gaze with nothing but the face box and the camera
intrinsics, represents the point of gaze on the camera's own XY-plane, and
regresses everything with a small multi-task model that can be fine-tuned
per subject from camera-lens fixation frames alone.
"""

from .calibration import derive_calibration_label, write_calibration_set
from .camera import (FRAME_CAMERA, FRAME_SCREEN, BoundingBox,
                     CameraIntrinsics, Point3, backproject, project)
from .easy_norm import (PARALLEL_EPS, AxisAngle, Rotation3, denormalize_gaze,
                        norm_rotation, normalize_gaze, to_matrix)
from .errors import (BehindCameraError, ConfigError, FrameMismatchError,
                     GeometryError, GimbalLockError, InvalidIntrinsicsError,
                     RayParallelError, TrainingDiverged)
from .metrics import EvalReport, SubjectStats, angular_error, evaluate, pog_error
from .model import (LossWeights, ModelParams, MultiTaskOutput,
                    SixDofPrediction, TrainConfig, angular_deg, euler_from_vec,
                    fine_tune, forward, forward_batch, gradient_check,
                    init_params, load_params, predict_6dof, save_params,
                    train, vec_from_euler)
from .pogz import (FRAME_CAMERA_PLANE, FRAME_SCREEN_PLANE, RAY_EPS,
                   PlanePoint, RigidTransform, pog_to_pogz, pogz_from_ray,
                   pogz_to_pog, pogz_to_pog_rows)
from .synth import (DEFAULT_INTRINSICS, ClippedGaussian, Dataset, GazeSample,
                    SceneConfig, Subject, calibration_view, generate_dataset,
                    load_dataset, make_subjects, sample_frame)

__version__ = "0.1.0"

__all__ = [
    "AxisAngle", "BehindCameraError", "BoundingBox", "CameraIntrinsics",
    "ClippedGaussian", "ConfigError", "Dataset", "DEFAULT_INTRINSICS",
    "EvalReport", "FRAME_CAMERA", "FRAME_CAMERA_PLANE", "FRAME_SCREEN",
    "FRAME_SCREEN_PLANE", "FrameMismatchError", "GazeSample", "GeometryError",
    "GimbalLockError", "InvalidIntrinsicsError", "LossWeights", "ModelParams",
    "MultiTaskOutput", "PARALLEL_EPS", "PlanePoint", "Point3", "RAY_EPS",
    "RayParallelError", "RigidTransform", "Rotation3", "SceneConfig",
    "SixDofPrediction", "Subject", "SubjectStats", "TrainConfig",
    "TrainingDiverged", "angular_deg", "angular_error", "backproject",
    "calibration_view", "denormalize_gaze", "derive_calibration_label",
    "euler_from_vec", "evaluate", "fine_tune", "forward", "forward_batch",
    "generate_dataset", "gradient_check", "init_params", "load_dataset",
    "load_params", "make_subjects", "norm_rotation", "normalize_gaze",
    "pog_error", "pog_to_pogz", "pogz_from_ray", "pogz_to_pog", "pogz_to_pog_rows",
    "predict_6dof", "project", "sample_frame", "save_params", "to_matrix", "train",
    "vec_from_euler", "write_calibration_set",
]
