import math

import numpy as np
import pytest

from conftest import turned
from planloc.a_graph import plan_from_dict
from planloc.geometry import Pose2
from planloc.metrics import (
    EstimatedSurface,
    MetricsError,
    compute_ape,
    compute_map_rmse,
)
from planloc.plans import fixture_plan, two_rooms_plan


def _line(n=10):
    return [Pose2(0.5 * k, 0.1 * k, 0.0) for k in range(n)]


def test_ape_identical_trajectories():
    traj = _line()
    report = compute_ape(traj, traj)
    assert report.rmse == 0.0
    assert report.max == 0.0


def test_ape_constant_offset_unaligned():
    gt = _line()
    est = [Pose2(p.x + 0.1, p.y, p.theta) for p in gt]
    report = compute_ape(est, gt)
    assert report.rmse == pytest.approx(0.1, abs=1e-12)
    assert report.mean == pytest.approx(0.1, abs=1e-12)
    assert report.max >= report.rmse >= 0.0
    assert report.rmse >= report.mean - 1e-12


def test_ape_length_mismatch():
    with pytest.raises(MetricsError):
        compute_ape(_line(3), _line(4))
    with pytest.raises(MetricsError):
        compute_ape([], [])


def _plan_truth_estimates(plan, d_offset=0.0):
    out = []
    for sid, surf in sorted(plan.surfaces.items()):
        seg = np.asarray(surf.seg_start), np.asarray(surf.seg_end)
        nx, ny = surf.normal
        m_hat = np.array([-ny, nx])
        coords = sorted((float(seg[0] @ m_hat), float(seg[1] @ m_hat)))
        out.append(
            EstimatedSurface(math.atan2(ny, nx), surf.dist + d_offset, tuple(coords), sid)
        )
    return out


def test_map_rmse_zero_for_exact_estimates():
    plan = fixture_plan("two_rooms")
    report = compute_map_rmse(_plan_truth_estimates(plan), plan)
    assert report.rmse == pytest.approx(0.0, abs=1e-12)
    assert report.n_points > 0


def test_map_rmse_uniform_offset_is_exact():
    plan = fixture_plan("two_rooms")
    report = compute_map_rmse(_plan_truth_estimates(plan, d_offset=0.05), plan)
    assert report.rmse == pytest.approx(0.05, abs=1e-12)


def test_map_rmse_monotone_in_offset():
    plan = fixture_plan("single_room")
    r1 = compute_map_rmse(_plan_truth_estimates(plan, d_offset=0.02), plan)
    r2 = compute_map_rmse(_plan_truth_estimates(plan, d_offset=0.04), plan)
    assert r2.rmse == pytest.approx(r1.rmse + 0.02, abs=1e-12)


def test_map_rmse_nearest_surface_fallback():
    plan = fixture_plan("single_room")
    ests = [
        EstimatedSurface(e.phi, e.d, e.extent, None) for e in _plan_truth_estimates(plan)
    ]
    report = compute_map_rmse(ests, plan)
    assert report.rmse == pytest.approx(0.0, abs=1e-12)


def test_map_rmse_fallback_on_a_turned_plan():
    # no wall runs along x or y: the fallback still finds each estimate's surface
    doc, _ = turned(two_rooms_plan(), [], math.pi / 4)
    plan = plan_from_dict(doc)
    tagged = _plan_truth_estimates(plan)
    untagged = [EstimatedSurface(e.phi, e.d, e.extent, None) for e in tagged]
    report = compute_map_rmse(untagged, plan)
    assert report.rmse <= 1e-9
    assert report.n_points == compute_map_rmse(tagged, plan).n_points


def test_map_rmse_requires_associable_planes():
    plan = fixture_plan("single_room")
    lost = [EstimatedSurface(0.0, 50.0, (0.0, 1.0), None)]
    with pytest.raises(MetricsError):
        compute_map_rmse(lost, plan)
