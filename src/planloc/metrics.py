"""Trajectory and map quality metrics.

The headline trajectory metric is the unaligned 2D absolute pose error: the
point of global localization is that the estimate already lives in the plan
frame, so no post-hoc alignment may be applied. Map quality is the RMS
distance from sampled points of each estimated wall surface to its plan
counterpart.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .a_graph import FloorPlan
from .geometry import Pose2

# Map RMSE: spacing [m] of the points sampled along each estimated surface,
# and the largest distance [m] to a plan surface within 45 degrees of parallel
# at which an estimate without a merge-time association falls back to it.
MAP_SAMPLE_STEP = 0.1
MAP_ASSOC_TOL = 0.5


class MetricsError(ValueError):
    pass


@dataclass
class ApeReport:
    rmse: float
    mean: float
    max: float
    per_pose: list[float]

    def to_json_dict(self) -> dict:
        return {
            "rmse": self.rmse,
            "mean": self.mean,
            "max": self.max,
            "n_poses": len(self.per_pose),
            "alignment": "none",
        }


@dataclass
class MapRmseReport:
    rmse: float
    n_points: int

    def to_json_dict(self) -> dict:
        return {"rmse": self.rmse, "n_points": self.n_points}


def compute_ape(estimated: list[Pose2], ground_truth: list[Pose2]) -> ApeReport:
    """Per-pose translational error between two equal-length trajectories, unaligned."""
    if len(estimated) != len(ground_truth):
        raise MetricsError(
            f"trajectory length mismatch: {len(estimated)} vs {len(ground_truth)}"
        )
    if not estimated:
        raise MetricsError("empty trajectories")
    est_pts = np.array([[p.x, p.y] for p in estimated])
    gt_pts = np.array([[p.x, p.y] for p in ground_truth])
    errors = np.linalg.norm(est_pts - gt_pts, axis=1)
    report = ApeReport(
        rmse=float(np.sqrt(np.mean(errors**2))),
        mean=float(np.mean(errors)),
        max=float(np.max(errors)),
        per_pose=errors.tolist(),
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


def compute_map_rmse(estimates: list[EstimatedSurface], plan: FloorPlan) -> MapRmseReport:
    """RMS distance from sampled estimated-surface points to their plan surfaces.

    Surfaces without a merge-time association fall back to the nearest plan
    surface within 45 degrees of parallel and ``MAP_ASSOC_TOL``; estimates with no
    association at all are skipped.
    """
    surfaces = plan.surfaces
    cos_45 = math.sqrt(0.5)
    sq_sum = 0.0
    n_points = 0
    for est in estimates:
        c, s = math.cos(est.phi), math.sin(est.phi)
        n = np.array([c, s])
        m_hat = np.array([-n[1], n[0]])
        target = surfaces.get(est.surface_id) if est.surface_id else None
        if target is None:
            foot = est.d * n
            best = None
            for surf in surfaces.values():
                sx, sy = surf.normal
                if abs(sx * c + sy * s) < cos_45:
                    continue
                gap = abs(float(np.asarray(surf.normal) @ foot) - surf.dist)
                if gap <= MAP_ASSOC_TOL and (best is None or gap < best[0]):
                    best = (gap, surf)
            if best is None:
                continue
            target = best[1]
        lo, hi = est.extent
        coords = np.arange(lo, hi + 1e-9, MAP_SAMPLE_STEP)
        if len(coords) == 0:
            coords = np.array([(lo + hi) / 2.0])
        pts = est.d * n[None, :] + coords[:, None] * m_hat[None, :]
        errs = pts @ np.asarray(target.normal) - target.dist
        sq_sum += float(np.sum(errs**2))
        n_points += len(coords)
    if n_points == 0:
        raise MetricsError("no estimated surface could be associated with the plan")
    return MapRmseReport(rmse=math.sqrt(sq_sum / n_points), n_points=n_points)
