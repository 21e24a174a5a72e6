"""Evaluation metrics and per-subject reporting."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import FrameMismatchError, GeometryError, RayParallelError
from .pogz import FRAME_CAMERA_PLANE, PlanePoint, RigidTransform, pogz_to_pog
from .model import Batch, angular_deg, forward_batch, vec_from_euler


def angular_error(g_a, g_b) -> float:
    """Angle between two gaze directions, in degrees."""
    a = np.asarray(g_a, dtype=float)
    b = np.asarray(g_b, dtype=float)
    na, nb = np.linalg.norm(a), np.linalg.norm(b)
    if na == 0 or nb == 0:
        raise GeometryError("zero vector has no direction")
    cos = np.clip(np.dot(a, b) / (na * nb), -1.0, 1.0)
    return float(np.degrees(np.arccos(cos)))


def pog_error(p_a: PlanePoint, p_b: PlanePoint) -> float:
    """Euclidean distance between two plane points, in mm."""
    if p_a.frame != p_b.frame:
        raise FrameMismatchError(f"cannot compare points in {p_a.frame} and {p_b.frame}")
    return float(np.hypot(p_a.x - p_b.x, p_a.y - p_b.y))


@dataclass(frozen=True)
class SubjectStats:
    subject: str
    n: int
    gn_deg_mean: float
    gn_deg_median: float
    go_deg_mean: float
    go_deg_median: float
    pogz_mm_mean: float
    pog_mm_mean: float | None  # None when no screen transform was given


@dataclass(frozen=True)
class EvalReport:
    per_subject: list[SubjectStats]
    overall: SubjectStats

    def rows(self) -> list[SubjectStats]:
        return list(self.per_subject) + [self.overall]

    def to_csv(self) -> str:
        lines = ["subject,n,gn_deg_mean,gn_deg_median,go_deg_mean,go_deg_median,pogz_mm_mean,pog_mm_mean"]
        for r in self.rows():
            pog = "" if r.pog_mm_mean is None else repr(r.pog_mm_mean)
            lines.append(
                f"{r.subject},{r.n},{r.gn_deg_mean!r},{r.gn_deg_median!r},"
                f"{r.go_deg_mean!r},{r.go_deg_median!r},{r.pogz_mm_mean!r},{pog}"
            )
        return "\n".join(lines) + "\n"

    def table(self) -> str:
        headers = ["subject", "n", "g_n deg", "g_n med", "g_o deg", "g_o med", "pogz mm", "pog mm"]
        body = []
        for r in self.rows():
            pog = "n/a" if r.pog_mm_mean is None else f"{r.pog_mm_mean:.2f}"
            body.append([
                str(r.subject), str(r.n),
                f"{r.gn_deg_mean:.3f}", f"{r.gn_deg_median:.3f}",
                f"{r.go_deg_mean:.3f}", f"{r.go_deg_median:.3f}",
                f"{r.pogz_mm_mean:.2f}", pog,
            ])
        widths = [max(len(h), *(len(row[i]) for row in body)) for i, h in enumerate(headers)]
        def fmt(cells):
            return "  ".join(c.rjust(w) for c, w in zip(cells, widths))
        rule = "-" * (sum(widths) + 2 * (len(widths) - 1))
        return "\n".join([fmt(headers), rule] + [fmt(row) for row in body])


def _stats_for(tag: str, gn_deg, go_deg, pogz_mm, pog_mm) -> SubjectStats:
    return SubjectStats(
        subject=tag,
        n=len(gn_deg),
        gn_deg_mean=float(np.mean(gn_deg)),
        gn_deg_median=float(np.median(gn_deg)),
        go_deg_mean=float(np.mean(go_deg)),
        go_deg_median=float(np.median(go_deg)),
        pogz_mm_mean=float(np.mean(pogz_mm)),
        pog_mm_mean=float(np.mean(pog_mm)) if pog_mm is not None and len(pog_mm) else None,
    )


def evaluate(params, dataset, screen_transform: RigidTransform | None = None) -> EvalReport:
    """Per-subject and overall error report on a labeled dataset.

    Angular errors compare predicted and labeled directions for both gaze
    frames; plane errors are Euclidean in mm.  Point-of-gaze on the screen is
    only reported when a camera-to-screen transform is supplied.
    """
    samples = dataset.samples
    if not samples:
        raise GeometryError("cannot evaluate an empty dataset")
    batch = Batch.from_samples(samples, dataset.intrinsics)
    c = forward_batch(params, batch.features, batch.ray)

    gn_deg = angular_deg(c["g_n"], batch.task_labels("g_n"))
    go_deg = angular_deg(c["g_o"], batch.task_labels("g_o"))
    pogz_mm = np.linalg.norm(c["pogz"] - batch.task_labels("pogz"), axis=1)

    pog_mm = None
    if screen_transform is not None:
        pog_mm = np.full(len(samples), np.nan)
        pred_dirs = vec_from_euler(c["g_o"])
        true_dirs = vec_from_euler(batch.task_labels("g_o"))
        for i, s in enumerate(samples):
            try:
                truth = pogz_to_pog(PlanePoint(s.pogz[0], s.pogz[1]), true_dirs[i], screen_transform)
                pred = pogz_to_pog(PlanePoint(c["pogz"][i, 0], c["pogz"][i, 1]), pred_dirs[i], screen_transform)
            except RayParallelError:
                continue  # no screen intersection for this ray; skip the row
            pog_mm[i] = pog_error(truth, pred)

    subjects = sorted({s.subject for s in samples})
    rows = []
    sub_arr = np.array([s.subject for s in samples])
    for sid in subjects:
        sel = sub_arr == sid
        rows.append(_stats_for(
            str(sid), gn_deg[sel], go_deg[sel], pogz_mm[sel],
            None if pog_mm is None else pog_mm[sel][~np.isnan(pog_mm[sel])],
        ))
    overall = _stats_for(
        "all", gn_deg, go_deg, pogz_mm,
        None if pog_mm is None else pog_mm[~np.isnan(pog_mm)],
    )
    return EvalReport(per_subject=rows, overall=overall)
