import math

import numpy as np
import pytest

from conftest import scenario_config
from planloc.a_graph import build_a_graph
from planloc.factor_graph import FactorKind, VarKind
from planloc.geometry import Pose2, wrap_angle
from planloc.matcher import MatchResult, MatchStatus, match, room_entries
from planloc.merger import MergeError, extend_matches, localized_trajectory, merge
from planloc.plans import fixture_plan
from planloc.runner import run_pipeline
from planloc.s_graph import PlanSimulator, SGraph


def run_zero_noise(map_offset):
    plan = fixture_plan("five_rooms")
    config = scenario_config(
        "five_rooms",
        odom_noise=[0.0, 0.0],
        plane_noise=[0.0, 0.0],
        map_offset=map_offset,
    )
    return run_pipeline(plan, config)


@pytest.mark.parametrize(
    "offset",
    [
        [2.0, 1.0, math.radians(30)],
        [-3.0, 4.0, math.radians(135)],
        [0.0, 0.0, 0.0],
    ],
)
def test_zero_noise_transform_recovered_exactly(offset):
    merged = run_zero_noise(offset).merged
    assert merged is not None
    t = merged.transform_estimate()
    assert abs(t.x - offset[0]) < 1e-6
    assert abs(t.y - offset[1]) < 1e-6
    assert abs(wrap_angle(t.theta - offset[2])) < 1e-6


def test_identity_offset_zero_merge_cost():
    merged = run_zero_noise([0.0, 0.0, 0.0]).merged
    t = merged.transform_estimate()
    assert t.almost_equal(Pose2.identity(), tol=1e-6)
    merge_cost = sum(merged.graph.chi2(fid) for fid in merged.merge_factor_ids)
    assert merge_cost <= 1e-12


def test_zero_noise_trajectory_matches_ground_truth():
    result = run_zero_noise([2.0, 1.0, math.radians(30)])
    traj = localized_trajectory(result.merged, result.sgraph)
    for est, gt in zip(traj, result.sgraph.gt_plan):
        assert est.almost_equal(gt, tol=1e-6)


def test_noisy_transform_recovery_bounds(monte_carlo_100):
    merged = [r for r in monte_carlo_100 if r["merged"]]
    assert len(merged) >= 95
    t_errs = [r["t_err"] for r in merged]
    r_errs = [r["r_err"] for r in merged]
    assert float(np.percentile(t_errs, 95)) <= 0.05
    assert float(np.percentile(r_errs, 95)) <= math.radians(0.5)


def test_merge_refuses_non_matched():
    run = run_pipeline(fixture_plan("grid_2x2"), scenario_config("grid_2x2"))
    assert run.match_result.status == MatchStatus.AMBIGUOUS
    with pytest.raises(MergeError, match="ambiguous"):
        merge(run.agraph, run.sgraph, run.match_result)
    with pytest.raises(MergeError):
        merge(run.agraph, run.sgraph, MatchResult(MatchStatus.NO_MATCH, None, []))


def test_merged_graph_contains_both_sides_and_transform(five_rooms_run):
    ag, merged = five_rooms_run.agraph, five_rooms_run.merged
    g = merged.graph
    assert len(g.variables_of(VarKind.TRANSFORM)) == 1
    # every plan variable exists in the merged graph, fixed
    for vid in ag.graph.variables():
        assert merged.a_var_map[vid] in set(g.variables())
        assert g.is_fixed(merged.a_var_map[vid])
    # plan walls and doorways ride along
    assert len(g.variables_of(VarKind.WALL)) == len(ag.plan.walls)
    assert len(g.variables_of(VarKind.DOORWAY)) == len(ag.plan.doorways)
    # merge factors present for every pair
    assert len(merged.merge_factor_ids) == len(merged.room_pairs) + len(
        merged.plane_pairs
    )


def test_post_merge_ape(five_rooms_run):
    assert five_rooms_run.report["ape"]["rmse"] <= 0.1


def test_merge_does_not_corrupt_odometry_chain():
    # average odometry chi2 before vs after merging: the plan anchoring must
    # not distort the within-graph consistency (< 10% growth on average)
    plan = fixture_plan("five_rooms")
    before, after = [], []
    for seed in range(6):
        config = scenario_config("five_rooms", seed=seed)
        ag = build_a_graph(plan)
        sim = PlanSimulator(plan, config)
        sg = SGraph(sim.initial_map_pose)
        merged = None
        for step in sim.steps():
            sg.add_step(step)
            if merged is None:
                result = match(ag.rooms, room_entries(sg.graph))
                if result.status == MatchStatus.MATCHED:
                    before.append(
                        np.mean(
                            [sg.graph.chi2(f) for f, _ in sg.graph.factors_of(FactorKind.ODOMETRY)]
                        )
                    )
                    merged = merge(ag, sg, result)
                    after.append(
                        np.mean(
                            [sg.graph.chi2(f) for f, _ in sg.graph.factors_of(FactorKind.ODOMETRY)]
                        )
                    )
                    break
    assert len(before) == 6
    assert float(np.mean(after)) <= 1.1 * float(np.mean(before)) + 1e-9


def test_gauge_uniqueness_under_perturbed_initialization():
    plan = fixture_plan("two_rooms")
    merged = run_pipeline(plan, scenario_config("two_rooms", seed=2)).merged
    assert merged is not None
    reference = merged.graph.value(merged.transform)
    rng = np.random.default_rng(0)
    for _ in range(3):
        delta = np.array(
            [rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5), rng.uniform(-0.17, 0.17)]
        )
        merged.graph.set_value(merged.transform, reference + delta)
        merged.graph.optimize()
        recovered = merged.graph.value(merged.transform)
        assert recovered == pytest.approx(reference, abs=1e-6)


def test_extend_matches_adds_late_rooms():
    # merge early (after two rooms), then let the pipeline extend
    plan = fixture_plan("five_rooms")
    config = scenario_config("five_rooms")
    ag = build_a_graph(plan)
    sim = PlanSimulator(plan, config)
    sg = SGraph(sim.initial_map_pose)
    merged = None
    for step in sim.steps():
        sg.add_step(step)
        if merged is None:
            result = match(ag.rooms, room_entries(sg.graph))
            if result.status == MatchStatus.MATCHED:
                merged = merge(ag, sg, result)
                early_rooms = len(merged.room_pairs)
        else:
            extend_matches(merged, sg)
    assert merged is not None
    assert len(merged.room_pairs) > early_rooms
    assert len(merged.room_pairs) >= 4


def test_localized_trajectory_identity_transform():
    plan = fixture_plan("two_rooms")
    config = scenario_config(
        "two_rooms", odom_noise=[0.0, 0.0], plane_noise=[0.0, 0.0], map_offset=[0, 0, 0]
    )
    result = run_pipeline(plan, config)
    t = result.merged.transform_estimate()
    assert t.almost_equal(Pose2.identity(), tol=1e-9)
    traj = localized_trajectory(result.merged, result.sgraph)
    for est, kf in zip(traj, result.sgraph.keyframe_poses()):
        assert est.almost_equal(kf, tol=1e-9)

