import math

import numpy as np
import pytest

from conftest import scenario_config
from planloc.a_graph import build_a_graph, plan_from_dict
from planloc.factor_graph import FactorKind, VarKind
from planloc.geometry import Pose2, wrap_angle
import planloc.merger
import planloc.runner
from planloc.matcher import (
    DIM_TOL,
    DIST_TOL,
    MatchPair,
    MatchResult,
    MatchStatus,
    WallPairingError,
    match,
    propose_wall_pairs,
    read_room_entries,
    room_entries,
)
from planloc.merger import MergeError, _distances, extend_matches, localized_trajectory, merge
from planloc.plans import fixture_plan, generate_random_plan, route_waypoints, row_plan
from planloc.runner import run_pipeline
from planloc.s_graph import PlanSimulator, SGraph, SimConfig


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
    # the plan enters as measurements: no plan variable is in the merged graph
    robot = set(five_rooms_run.sgraph.keyframes) | set(five_rooms_run.sgraph.planes)
    robot |= set(five_rooms_run.sgraph.rooms)
    assert set(g.variables()) == robot | {merged.transform}
    # one merge factor per pair, robot node and transform, measuring the plan value
    assert len(merged.merge_factor_ids) == len(merged.room_pairs) + len(merged.plane_pairs)
    pairs = {**merged.room_pairs, **merged.plane_pairs}
    plan_of = {s_vid: a_vid for a_vid, s_vid in pairs.items()}
    for fid in merged.merge_factor_ids:
        factor = g.factor(fid)
        s_vid, transform = factor.variables
        assert transform == merged.transform
        kind = FactorKind.ROOM_TO_ROOM if s_vid.kind == VarKind.ROOM else FactorKind.PLANE_TO_PLANE
        assert factor.kind == kind
        assert np.array_equal(factor.measurement, ag.graph.value(plan_of[s_vid]))


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


def _reference_extend(state, s) -> list:
    """The (plan room, robot room) pairs extend_matches adds, by a loop over room pairs."""
    t = state.transform_estimate()
    matched_a = set(state.room_pairs)
    s_rooms = {
        r.vid: r
        for r in read_room_entries(
            state.graph,
            ((vid, *rec.planes) for vid, rec in s.rooms.items()
             if vid not in set(state.room_pairs.values())),
        )
    }
    out = []
    for s_vid in sorted(s_rooms, key=lambda v: v.index):
        mapped = t.transform_point(s_rooms[s_vid].center)
        best = None
        for a_vid, a_room in state.plan_rooms.items():
            if a_vid in matched_a:
                continue
            da, ds = a_room.dims, s_rooms[s_vid].dims
            if not (abs(da[0] - ds[0]) <= DIM_TOL and abs(da[1] - ds[1]) <= DIM_TOL):
                continue
            dist = float(np.linalg.norm(mapped - np.asarray(a_room.center)))
            if dist > planloc.merger.DIST_TOL:
                continue
            if best is None or (dist, a_vid.index) < (best[0], best[1].index):
                best = (dist, a_vid)
        if best is None:
            continue
        try:
            propose_wall_pairs(MatchPair(best[1], s_vid, "room"), state.plan_rooms, s_rooms, t)
        except WallPairingError:
            continue
        matched_a.add(best[1])
        out.append((best[1], s_vid))
    return out


@pytest.mark.parametrize("tol", [DIST_TOL, 10 * DIST_TOL])
def test_extend_matches_matches_loop_reference(monkeypatch, tol):
    """At the matcher's gate, and at a wide one that lets several plan rooms compete."""
    monkeypatch.setattr(planloc.merger, "DIST_TOL", tol)
    added = tested = 0

    def extend(state, s, _extend=extend_matches):
        nonlocal added, tested
        want = _reference_extend(state, s)
        before = set(state.room_pairs)
        tested += len(s.rooms) - len(before)
        assert _extend(state, s) == len(want)
        assert [(a, b) for a, b in state.room_pairs.items() if a not in before] == want
        added += len(want)
        return len(want)

    monkeypatch.setattr(planloc.runner, "extend_matches", extend)
    # eight equal rooms: every plan room passes the dimension gate
    rows8 = plan_from_dict(row_plan([3.0] * 8, [4.0] * 8, [0.5 + 0.5 * k for k in range(8)]))
    plans = [(generate_random_plan(n, seed), seed) for n, seed in ((8, 1), (12, 0), (16, 0))]
    for plan, seed in plans + [(rows8, 1004)]:
        run_pipeline(plan, SimConfig(tuple(route_waypoints(plan)), seed=seed))
    # robot rooms tested against the plan on a later update, and pairs added
    assert tested > 400 and added > 20


def test_center_distances_keep_norm_bits():
    rng = np.random.default_rng(5)
    for scale in (1e-9, 1e-3, 0.5, 3.0, 1e3):
        point = rng.normal(0, scale, 2)
        centers = rng.normal(0, scale, (200, 2))
        want = [float(np.linalg.norm(point - c)) for c in centers]
        assert _distances(point, centers).tolist() == want


def test_pipeline_reads_the_robot_rooms_as_room_entries_would(monkeypatch):
    """The match reads the rooms from the estimator's records, in the order of their factors."""
    seen = []

    def recorded(graph, rooms, _read=read_room_entries):
        out = _read(graph, rooms)
        seen.append((out, room_entries(graph)))
        return out

    monkeypatch.setattr(planloc.runner, "read_room_entries", recorded)
    for name in ("five_rooms", "grid_2x2"):
        run_pipeline(fixture_plan(name), scenario_config(name))
    assert seen and all(got == want for got, want in seen)
    assert max(len(got) for got, _ in seen) >= 2
