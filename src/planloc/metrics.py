"""Trajectory and map quality metrics.

The headline trajectory metric is the unaligned 2D absolute pose error: the
point of global localization is that the estimate already lives in the plan
frame, so no post-hoc alignment may be applied. A rigid-alignment variant
exists for diagnostics. Map quality is the RMS distance from sampled points
of each estimated wall surface to its plan counterpart.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .a_graph import FloorPlan, wall_surfaces
from .geometry import (
    Pose2,
    axis_of_normal,
    estimate_transform_closed_form,
)

ALIGN_NONE = "none"
ALIGN_SE2 = "se2_umeyama"


class MetricsError(ValueError):
    pass


@dataclass
class ApeReport:
    rmse: float
    mean: float
    max: float
    per_pose: list[float]
    alignment: str

    def to_json_dict(self) -> dict:
        return {
            "rmse": self.rmse,
            "mean": self.mean,
            "max": self.max,
            "n_poses": len(self.per_pose),
            "alignment": self.alignment,
        }


@dataclass
class MapRmseReport:
    rmse: float
    n_points: int

    def to_json_dict(self) -> dict:
        return {"rmse": self.rmse, "n_points": self.n_points}


def compute_ape(
    estimated: list[Pose2], ground_truth: list[Pose2], align: str = ALIGN_NONE
) -> ApeReport:
    """Per-pose translational error between two equal-length trajectories."""
    if len(estimated) != len(ground_truth):
        raise MetricsError(
            f"trajectory length mismatch: {len(estimated)} vs {len(ground_truth)}"
        )
    if not estimated:
        raise MetricsError("empty trajectories")
    if align not in (ALIGN_NONE, ALIGN_SE2):
        raise MetricsError(f"unknown alignment {align!r}")
    est_pts = np.array([[p.x, p.y] for p in estimated])
    gt_pts = np.array([[p.x, p.y] for p in ground_truth])
    if align == ALIGN_SE2 and len(estimated) >= 2:
        t = estimate_transform_closed_form(list(zip(est_pts, gt_pts)))
        est_pts = est_pts @ t.rotation().T + t.translation
    errors = np.linalg.norm(est_pts - gt_pts, axis=1)
    report = ApeReport(
        rmse=float(np.sqrt(np.mean(errors**2))),
        mean=float(np.mean(errors)),
        max=float(np.max(errors)),
        per_pose=errors.tolist(),
        alignment=align,
    )
    assert report.max >= report.rmse >= 0.0
    assert report.rmse >= report.mean - 1e-12  # RMSE dominates the mean abs error
    return report


@dataclass(frozen=True)
class EstimatedSurface:
    """An estimated wall-surface plane in the plan frame, with observed extent."""

    phi: float
    d: float
    extent: tuple[float, float]
    surface_id: str | None = None  # merge-time association, when known


def compute_map_rmse(
    estimates: list[EstimatedSurface],
    plan: FloorPlan,
    sample_step: float = 0.1,
    assoc_tol: float = 0.5,
) -> MapRmseReport:
    """RMS distance from sampled estimated-surface points to their plan surfaces.

    Surfaces without a merge-time association fall back to the nearest plan
    surface of the same axis within ``assoc_tol``; estimates with no
    association at all are skipped.
    """
    surfaces = wall_surfaces(plan)
    sq_sum = 0.0
    n_points = 0
    for est in estimates:
        n = np.array([math.cos(est.phi), math.sin(est.phi)])
        m_hat = np.array([-n[1], n[0]])
        axis = axis_of_normal(n[0], n[1])
        target = surfaces.get(est.surface_id) if est.surface_id else None
        if target is None:
            foot = est.d * n
            best = None
            for surf in surfaces.values():
                if surf.axis != axis:
                    continue
                gap = abs(float(np.asarray(surf.normal) @ foot) - surf.dist)
                if gap <= assoc_tol and (best is None or gap < best[0]):
                    best = (gap, surf)
            if best is None:
                continue
            target = best[1]
        lo, hi = est.extent
        coords = np.arange(lo, hi + 1e-9, sample_step)
        if len(coords) == 0:
            coords = np.array([(lo + hi) / 2.0])
        pts = est.d * n[None, :] + coords[:, None] * m_hat[None, :]
        errs = pts @ np.asarray(target.normal) - target.dist
        sq_sum += float(np.sum(errs**2))
        n_points += len(coords)
    if n_points == 0:
        raise MetricsError("no estimated surface could be associated with the plan")
    return MapRmseReport(rmse=math.sqrt(sq_sum / n_points), n_points=n_points)
