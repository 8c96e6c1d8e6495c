import math

import numpy as np
import pytest

from conftest import scenario_config, simulate_sgraph
from planloc.a_graph import wall_surfaces
from planloc.factor_graph import FactorKind, VarKind
from planloc.geometry import Pose2, transform_phi_dist, wrap_angle
from planloc.metrics import compute_ape
from planloc.plans import fixture_plan
from planloc.s_graph import (
    PlaneObservation,
    PlanSimulator,
    SGraph,
    SimConfig,
    SimulationError,
)


def test_sim_config_validation():
    with pytest.raises(SimulationError):
        SimConfig(waypoints=((0, 0),))
    with pytest.raises(SimulationError):
        SimConfig(waypoints=((0, 0), (1, 0)), keyframe_spacing=0.0)
    with pytest.raises(SimulationError):
        SimConfig(waypoints=((0, 0), (1, 0)), odom_noise=(-0.1, 0.0))


def test_path_through_wall_rejected():
    plan = fixture_plan("two_rooms")
    # a path from room a straight into room b missing the doorway
    cfg = SimConfig(waypoints=((1.5, 1.0), (8.0, 1.2)), seed=0)
    with pytest.raises(SimulationError, match="free space"):
        PlanSimulator(plan, cfg)


def test_zero_noise_odometry_matches_truth():
    plan = fixture_plan("single_room")
    cfg = SimConfig(
        waypoints=((1.5, 1.5), (4.5, 1.5)),
        odom_noise=(0.0, 0.0),
        plane_noise=(0.0, 0.0),
        seed=5,
    )
    sim = PlanSimulator(plan, cfg)
    steps = list(sim.steps())
    for prev, step in zip(steps, steps[1:]):
        true_rel = step.gt_plan.relative_to(prev.gt_plan)
        assert step.odometry.almost_equal(true_rel, tol=1e-12)


def test_zero_noise_observations_at_room_center():
    # from the exact center of the 5x4 room, the four surfaces appear at
    # analytically known body-frame azimuth/distance
    plan = fixture_plan("single_room")
    cfg = SimConfig(
        waypoints=((3.0, 2.5), (4.0, 2.5)),
        odom_noise=(0.0, 0.0),
        plane_noise=(0.0, 0.0),
        sensor_range=6.0,
        seed=1,
    )
    sim = PlanSimulator(plan, cfg)
    first = next(sim.steps())
    got = {o.surface_id: (round(o.phi, 9), round(o.dist, 9)) for o in first.observations}
    assert got == {
        "w_e:+": (0.0, 2.5),
        "w_w:-": (round(math.pi, 9), 2.5),
        "w_n:-": (round(math.pi / 2, 9), 2.0),
        "w_s:+": (round(-math.pi / 2, 9), 2.0),
    }


def test_fixed_seed_streams_identical():
    plan = fixture_plan("two_rooms")
    cfg = scenario_config("two_rooms")
    a = [
        (s.index, s.odometry, s.observations)
        for s in PlanSimulator(plan, cfg).steps()
    ]
    b = [
        (s.index, s.odometry, s.observations)
        for s in PlanSimulator(plan, cfg).steps()
    ]
    assert a == b


def test_occlusion_blocks_other_rooms_walls():
    plan = fixture_plan("two_rooms")
    cfg = SimConfig(
        waypoints=((1.5, 1.6), (1.6, 1.6)),
        odom_noise=(0.0, 0.0),
        plane_noise=(0.0, 0.0),
        sensor_range=12.0,
        seed=0,
    )
    sim = PlanSimulator(plan, cfg)
    first = next(sim.steps())
    seen = {o.surface_id for o in first.observations}
    # room b's north inner face is fully hidden behind the shared wall and
    # room a's own north wall; the doorway gap is too low to expose it
    assert "b_n:-" not in seen
    assert {"a_w:-", "a_s:+", "a_n:-", "s_ab:+"} <= seen


def test_doorway_gap_lets_observations_through():
    plan = fixture_plan("two_rooms")
    # standing in front of the doorway, looking through it into room b
    cfg = SimConfig(
        waypoints=((3.2, 2.35), (3.3, 2.35)),
        odom_noise=(0.0, 0.0),
        plane_noise=(0.0, 0.0),
        sensor_range=7.0,
        seed=0,
    )
    sim = PlanSimulator(plan, cfg)
    first = next(sim.steps())
    seen = {o.surface_id for o in first.observations}
    assert "b_e:+" in seen  # visible through the doorway gap only


def test_association_reuses_plane_and_allocates_new():
    plan, sim, sg = simulate_sgraph("single_room", odom_noise=[0.0, 0.0], plane_noise=[0.0, 0.0])
    # every surface observed many times, but only 4 plane variables exist
    assert len(sg.planes) == 4
    n_pose_plane = len(sg.graph.factors_of(FactorKind.POSE_PLANE))
    assert n_pose_plane > 4 * 3


def test_association_tie_break_smallest_distance():
    from planloc.s_graph import PlaneRecord, SimStep

    sg = SGraph(Pose2.identity())
    sg.add_step(SimStep(0, Pose2.identity(), Pose2.identity(), None, ()))
    p_far = sg.graph.add_variable(VarKind.PLANE, [0.0, 2.2])
    p_near = sg.graph.add_variable(VarKind.PLANE, [0.0, 2.1])
    sg.planes[p_far] = PlaneRecord(p_far, (0.0, 1.0))
    sg.planes[p_near] = PlaneRecord(p_near, (0.0, 1.0))
    obs = PlaneObservation(phi=0.0, dist=2.0, extent=(0.0, 1.0), surface_id="x")
    vid = sg._associate(Pose2.identity(), obs)
    assert vid == p_near  # |delta d| 0.1 beats 0.2


def test_association_polarity_distinguishes_wall_faces():
    sg = SGraph(Pose2.identity())
    from planloc.s_graph import PlaneRecord, SimStep

    sg.add_step(SimStep(0, Pose2.identity(), Pose2.identity(), None, ()))
    # a stored face at x=2 seen from the -x side (normal +x)
    stored = sg.graph.add_variable(VarKind.PLANE, [0.0, 2.0])
    sg.planes[stored] = PlaneRecord(stored, (0.0, 1.0))
    # observing the *other* face of the same wall from x>2.2: raw normal -x
    obs = PlaneObservation(phi=math.pi, dist=-2.2, extent=(0.0, 1.0), surface_id="y")
    vid = sg._associate(Pose2.identity(), obs)
    assert vid != stored


def test_zero_noise_full_traversal_matches_plan():
    plan, sim, sg = simulate_sgraph(
        "two_rooms", odom_noise=[0.0, 0.0], plane_noise=[0.0, 0.0]
    )
    surfaces = wall_surfaces(plan)
    offset = sim.map_offset
    for vid, rec in sg.planes.items():
        # map the estimate into the plan frame; compare up to polarity
        phi_b, d_b = transform_phi_dist(offset, *sg.graph.value(vid))
        truth = surfaces[rec.truth_surface()]
        if abs(wrap_angle(phi_b - math.atan2(truth.normal[1], truth.normal[0]))) > math.pi / 2:
            phi_b, d_b = phi_b + math.pi, -d_b
        assert (math.cos(phi_b), math.sin(phi_b)) == pytest.approx(truth.normal, abs=1e-6)
        assert d_b == pytest.approx(truth.dist, abs=1e-6)


def test_keyframe_chain_invariant():
    plan, sim, sg = simulate_sgraph("two_rooms")
    odos = sg.graph.factors_of(FactorKind.ODOMETRY)
    assert len(odos) == len(sg.keyframes) - 1
    for k, (fid, factor) in enumerate(odos):
        assert factor.variables[0] == sg.keyframes[k]
        assert factor.variables[1] == sg.keyframes[k + 1]
    # every plane has at least one pose-plane factor
    seen = {f.variables[1] for _, f in sg.graph.factors_of(FactorKind.POSE_PLANE)}
    assert set(sg.planes) <= seen


def test_rooms_detected_at_true_centers():
    plan, sim, sg = simulate_sgraph(
        "two_rooms", odom_noise=[0.0, 0.0], plane_noise=[0.0, 0.0]
    )
    assert len(sg.rooms) == 2
    offset = sim.map_offset
    expected = {
        "a": np.array([2.3, 2.1]),
        "b": np.array([6.8, 3.1]),
    }
    got = []
    for vid, rec in sg.rooms.items():
        center_b = offset.transform_point(sg.graph.value(vid))
        got.append(center_b)
    for center in expected.values():
        assert any(np.allclose(center, g, atol=1e-6) for g in got)


def test_detect_rooms_idempotent():
    plan, sim, sg = simulate_sgraph("two_rooms")
    assert sg.detect_rooms() == []
    n_factors = len(sg.graph.factors())
    assert sg.detect_rooms() == []
    assert len(sg.graph.factors()) == n_factors


def test_two_wall_room_in_partial_corridor():
    plan = fixture_plan("corridor")
    # drive only along the corridor middle: end walls stay out of range
    cfg = SimConfig(
        waypoints=((4.0, 1.5), (9.0, 1.5)),
        sensor_range=3.0,
        seed=2,
    )
    sim = PlanSimulator(plan, cfg)
    sg = SGraph(sim.initial_map_pose)
    for step in sim.steps():
        sg.add_step(step)
    assert len(sg.rooms) == 0
    assert len(sg.gammas) >= 1
    for rec in sg.gammas.values():
        truths = {sg.truth_of_plane(p) for p in rec.planes}
        assert truths == {"c_n:-", "c_s:+"}


def test_gamma_superseded_by_full_room():
    plan, sim, sg = simulate_sgraph("corridor")
    # corridor fully traversed: its gamma must have been replaced by a room
    room_truths = [
        {sg.truth_of_plane(p) for p in rec.planes} for rec in sg.rooms.values()
    ]
    assert {"c_n:-", "c_s:+", "o_w:-", "o_e:+"} in room_truths
    for rec in sg.gammas.values():
        truths = {sg.truth_of_plane(p) for p in rec.planes}
        assert truths != {"c_n:-", "c_s:+"}


def test_floor_connected_to_all_rooms():
    plan, sim, sg = simulate_sgraph("five_rooms")
    assert sg.floor is not None
    linked = set()
    for _, factor in sg.graph.factors_of(FactorKind.ROOM_TO_ROOM):
        if len(factor.variables) == 2 and factor.variables[1] == sg.floor:
            linked.add(factor.variables[0])
    assert linked == set(sg.rooms) | set(sg.gammas)


def test_noisy_traversal_ape_bounded():
    worst = 0.0
    for seed in range(5):
        plan, sim, sg = simulate_sgraph("five_rooms", seed=seed)
        worst = max(worst, compute_ape(sg.keyframe_poses(), sg.gt_map).rmse)
    assert worst <= 0.15


def test_update_determinism_full_graph():
    _, _, sg1 = simulate_sgraph("five_rooms")
    _, _, sg2 = simulate_sgraph("five_rooms")
    assert sg1.graph.to_json() == sg2.graph.to_json()
