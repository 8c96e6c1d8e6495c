import dataclasses
import math

import numpy as np
import pytest

import planloc.factor_graph as fg
from planloc.factor_graph import (
    Factor,
    FactorGraph,
    FactorKind,
    GaugeFreedomError,
    GraphError,
    VariableId,
    VarKind,
)
from planloc.geometry import Pose2, wrap_angle
from planloc.plans import fixture_dir
from planloc.runner import load_scenario, run_pipeline
from planloc.s_graph import SimConfig, SimulationError


def test_add_variable_monotone_indices():
    g = FactorGraph()
    k0 = g.add_variable(VarKind.KEYFRAME, [0, 0, 0])
    k1 = g.add_variable(VarKind.KEYFRAME, [1, 0, 0])
    r0 = g.add_variable(VarKind.ROOM, [2.5, 3.0])
    assert k0 == VariableId(VarKind.KEYFRAME, 0)
    assert k1 == VariableId(VarKind.KEYFRAME, 1)
    assert r0 == VariableId(VarKind.ROOM, 0)
    assert g.value(r0) == pytest.approx([2.5, 3.0])


def test_add_variable_dimension_checked():
    g = FactorGraph()
    with pytest.raises(GraphError):
        g.add_variable(VarKind.ROOM, [1.0, 2.0, 3.0])


def test_information_must_be_spd():
    g = FactorGraph()
    k = g.add_variable(VarKind.KEYFRAME, [0, 0, 0])
    with pytest.raises(GraphError):
        Factor(FactorKind.PRIOR, (k,), [0, 0, 0], np.diag([1.0, -1.0, 1.0]))
    with pytest.raises(GraphError):
        Factor(FactorKind.PRIOR, (k,), [0, 0, 0], np.array([[1, 2, 0], [0, 1, 0], [0, 0, 1.0]]))


def test_factor_arity_checked():
    g = FactorGraph()
    k = g.add_variable(VarKind.KEYFRAME, [0, 0, 0])
    r = g.add_variable(VarKind.ROOM, [0, 0])
    p = g.add_variable(VarKind.PLANE, [0, 1])
    with pytest.raises(GraphError):
        Factor(FactorKind.ODOMETRY, (k, r), [1.0, 0.0, 0.0])
    with pytest.raises(GraphError):
        Factor(FactorKind.ROOM_TO_WALLS, (r, k))
    # malformed measurements are refused up front, naming kind and shape
    for kind, variables, measurement in (
        (FactorKind.POSE_PLANE, (k, p), (1.0,)),
        (FactorKind.POSE_PLANE, (k, p), None),
        (FactorKind.ODOMETRY, (k, k), Pose2(1, 0, 0)),
        (FactorKind.DOORWAY_TO_ROOMS, (g.add_variable(VarKind.DOORWAY, [0, 0]), r, r), [1, 2]),
        (FactorKind.PRIOR, (r,), [0, 0, 0]),
        (FactorKind.ROOM_TO_WALLS, (r, p, p, p, p), [0.0]),
    ):
        with pytest.raises(GraphError, match=rf"{kind.value}.*shape"):
            Factor(kind, variables, measurement)


def test_odometry_residual_zero_for_consistent_measurement():
    g = FactorGraph()
    k0 = g.add_variable(VarKind.KEYFRAME, [0.5, 0.2, 0.3])
    true_rel = Pose2(1.0, -0.5, 0.2)
    p1 = Pose2(0.5, 0.2, 0.3).compose(true_rel)
    k1 = g.add_variable(VarKind.KEYFRAME, p1.as_array())
    f = Factor(FactorKind.ODOMETRY, (k0, k1), true_rel.as_array())
    assert g.evaluate_residual(f) == pytest.approx([0, 0, 0], abs=1e-12)


def test_room_to_room_residual_zero_at_identity():
    g = FactorGraph()
    ra = g.add_variable(VarKind.ROOM, [4, 4])
    rb = g.add_variable(VarKind.ROOM, [4, 4])
    t = g.add_variable(VarKind.TRANSFORM, [0, 0, 0])
    f = Factor(FactorKind.ROOM_TO_ROOM, (ra, rb, t))
    assert g.evaluate_residual(f) == pytest.approx([0, 0], abs=1e-15)


def test_wall_center_residual_matches_midpoint_oracle():
    # planes x=2 and x=3 with start point (0, 5): the center is the midpoint
    # of the plane feet along x, and the start point's perpendicular coordinate
    g = FactorGraph()
    w = g.add_variable(VarKind.WALL, [2.5, 5.0])
    p1 = g.add_variable(VarKind.PLANE, [0.0, 2.0])
    p2 = g.add_variable(VarKind.PLANE, [0.0, 3.0])
    f = Factor(FactorKind.WALL_CENTER, (w, p1, p2), np.array([0.0, 5.0]))
    g.add_factor(f)
    assert g.evaluate_residual(f) == pytest.approx([0, 0], abs=1e-12)
    # oracle: midpoint of offsets for the axis coordinate, s for the other
    oracle = np.array([(2.0 + 3.0) / 2.0, 5.0])
    g.set_value(w, oracle)
    assert g.evaluate_residual(f) == pytest.approx([0, 0], abs=1e-12)


def test_prior_only_graph_converges_immediately():
    g = FactorGraph()
    k = g.add_variable(VarKind.KEYFRAME, [1.0, 2.0, 0.5])
    g.add_factor(Factor(FactorKind.PRIOR, (k,), [1.0, 2.0, 0.5]))
    report = g.optimize()
    assert report.converged
    assert report.iterations <= 1
    assert report.final_cost == pytest.approx(0.0, abs=1e-18)


def test_chain_with_exact_odometry_recovered():
    g = FactorGraph()
    k0 = g.add_variable(VarKind.KEYFRAME, [0, 0, 0])
    k1 = g.add_variable(VarKind.KEYFRAME, [0.7, 0.2, 0.1])
    k2 = g.add_variable(VarKind.KEYFRAME, [2.4, -0.3, -0.1])
    g.add_factor(Factor(FactorKind.PRIOR, (k0,), [0, 0, 0]))
    g.add_factor(Factor(FactorKind.ODOMETRY, (k0, k1), [1.0, 0.0, 0.0]))
    g.add_factor(Factor(FactorKind.ODOMETRY, (k1, k2), [1.0, 0.0, 0.0]))
    report = g.optimize()
    assert report.converged
    assert g.value(k1) == pytest.approx([1, 0, 0], abs=1e-8)
    assert g.value(k2) == pytest.approx([2, 0, 0], abs=1e-8)


def _synthetic_room_world(seed: int):
    """Four rooms of planes observed from a keyframe chain with noisy ranges."""
    rng = np.random.default_rng(seed)
    sigma_d = 0.02
    g = FactorGraph()
    truth = []
    poses = [Pose2(0.5 * k, 0.1 * math.sin(k), 0.0) for k in range(12)]
    kfs = []
    for k, pose in enumerate(poses):
        kf = g.add_variable(VarKind.KEYFRAME, pose.as_array())
        kfs.append(kf)
        if k == 0:
            g.add_factor(Factor(FactorKind.PRIOR, (kf,), pose.as_array()))
        else:
            rel = poses[k].relative_to(poses[k - 1]).as_array()
            g.add_factor(Factor(FactorKind.ODOMETRY, (kfs[k - 1], kf), rel))
    planes = []
    for i in range(8):
        phi = (i % 4) * math.pi / 2 + 0.05
        d = 2.0 + i * 0.7
        truth.append((phi, d))
        planes.append(g.add_variable(VarKind.PLANE, [phi, d]))
    for kf, pose in zip(kfs, poses):
        for vid, (phi, d) in zip(planes, truth):
            phi_b = wrap_angle(phi - pose.theta)
            d_b = d - (pose.x * math.cos(phi) + pose.y * math.sin(phi))
            g.add_factor(
                Factor(
                    FactorKind.POSE_PLANE,
                    (kf, vid),
                    (phi_b, d_b + rng.normal(0, sigma_d)),
                )
            )
    return g, planes, truth, sigma_d


def test_noisy_plane_graph_estimates_within_3_sigma():
    worst = 0.0
    for seed in range(100):
        g, planes, truth, sigma_d = _synthetic_room_world(seed)
        report = g.optimize()
        assert report.converged
        for vid, (phi, d) in zip(planes, truth):
            err = abs(g.value(vid)[1] - d)
            worst = max(worst, err)
    assert worst <= 3 * sigma_d


def test_optimize_requires_anchor():
    g = FactorGraph()
    k0 = g.add_variable(VarKind.KEYFRAME, [0, 0, 0])
    k1 = g.add_variable(VarKind.KEYFRAME, [1, 0, 0])
    g.add_factor(Factor(FactorKind.ODOMETRY, (k0, k1), [1.0, 0.0, 0.0]))
    with pytest.raises(GaugeFreedomError):
        g.optimize()
    g.fix(k0)
    assert g.optimize().converged


def test_optimize_requires_factors():
    g = FactorGraph()
    g.add_variable(VarKind.ROOM, [0, 0])
    with pytest.raises(GraphError):
        g.optimize()


def test_cost_trace_non_increasing():
    g, *_ = _synthetic_room_world(3)
    # perturb initial values so the solver has real work
    for vid in g.variables():
        if vid.kind == VarKind.PLANE:
            g.set_value(vid, g.value(vid) + np.array([0.05, 0.4]))
    report = g.optimize()
    assert report.converged
    trace = report.cost_trace
    assert all(b <= a + 1e-12 for a, b in zip(trace, trace[1:]))
    assert report.final_cost <= report.initial_cost


def test_total_cost_matches_chi2_sum():
    g, *_ = _synthetic_room_world(1)
    g.optimize()
    total = g.total_cost()
    assert total == pytest.approx(sum(g.chi2(fid) for fid in g.factors()), rel=1e-12)


def _random_kind_graph(seed: int) -> FactorGraph:
    """One factor of every kind at a random, flip-safe linearization point."""
    rng = np.random.default_rng(seed)
    g = FactorGraph()
    kf = g.add_variable(VarKind.KEYFRAME, rng.uniform(-2, 2, 3))
    kf2 = g.add_variable(VarKind.KEYFRAME, rng.uniform(-2, 2, 3))
    phis = rng.uniform(-math.pi, math.pi, 4)
    planes = [
        g.add_variable(VarKind.PLANE, [phis[i], rng.uniform(1.0, 5.0)]) for i in range(2)
    ]
    planes += [
        g.add_variable(VarKind.PLANE, [phis[2] / 2, rng.uniform(1.0, 5.0)]),
        g.add_variable(VarKind.PLANE, [phis[3] / 2, rng.uniform(1.0, 5.0)]),
    ]
    room = g.add_variable(VarKind.ROOM, rng.uniform(-3, 3, 2))
    room2 = g.add_variable(VarKind.ROOM, rng.uniform(-3, 3, 2))
    wall = g.add_variable(VarKind.WALL, rng.uniform(-3, 3, 2))
    doorway = g.add_variable(VarKind.DOORWAY, rng.uniform(-3, 3, 2))
    gamma = g.add_variable(VarKind.TWO_WALL_ROOM, rng.uniform(-3, 3, 2))
    t = g.add_variable(VarKind.TRANSFORM, [*rng.uniform(-1, 1, 2), rng.uniform(-0.4, 0.4)])

    kf_pose = Pose2.from_array(g.value(kf))
    phi0, d0 = g.value(planes[0])
    meas_phi = wrap_angle(phi0 - kf_pose.theta + rng.normal(0, 0.02))
    meas_d = d0 - (kf_pose.x * math.cos(phi0) + kf_pose.y * math.sin(phi0)) + rng.normal(0, 0.05)
    g.add_factor(Factor(FactorKind.ODOMETRY, (kf, kf2), rng.uniform(-1, 1, 3)))
    g.add_factor(Factor(FactorKind.POSE_PLANE, (kf, planes[0]), (meas_phi, meas_d)))
    g.add_factor(Factor(FactorKind.ROOM_TO_WALLS, (room, *planes)))
    g.add_factor(Factor(FactorKind.ROOM_TO_WALLS, (gamma, planes[0], planes[1])))
    g.add_factor(Factor(FactorKind.WALL_CENTER, (wall, planes[0], planes[1]), rng.uniform(-4, 4, 2)))
    g.add_factor(
        Factor(
            FactorKind.DOORWAY_TO_ROOMS,
            (doorway, room, room2),
            (rng.uniform(-2, 2, 2), rng.uniform(-2, 2, 2)),
        )
    )
    g.add_factor(Factor(FactorKind.ROOM_TO_ROOM, (room, room2, t)))
    g.add_factor(Factor(FactorKind.ROOM_TO_ROOM, (room, room2), rng.uniform(-1, 1, 2)))
    g.add_factor(Factor(FactorKind.PLANE_TO_PLANE, (planes[0], planes[1], t)))
    g.add_factor(Factor(FactorKind.PLANE_TO_PLANE, (planes[2], planes[3])))
    g.add_factor(Factor(FactorKind.PRIOR, (kf,), g.value(kf)))
    g.add_factor(Factor(FactorKind.PRIOR, (t,), g.value(t)))
    return g


def test_jacobians_all_kinds_50_random_points():
    for seed in range(50):
        g = _random_kind_graph(seed)
        assert g.check_jacobians() == []


def test_jacobians_detect_corruption(monkeypatch):
    g = _random_kind_graph(0)

    spec = fg._FACTOR_SPECS[FactorKind.ODOMETRY]

    def corrupted(kinds, vals, meas):
        r, jacs = spec.kernel(kinds, vals, meas)
        jacs[0][:, 0, 0] += 0.5
        return r, jacs

    monkeypatch.setitem(
        fg._FACTOR_SPECS, FactorKind.ODOMETRY, dataclasses.replace(spec, kernel=corrupted)
    )
    offenders = g.check_jacobians()
    kinds = {g.factor(fid).kind for fid in offenders}
    assert kinds == {FactorKind.ODOMETRY}


def _dense_reference(g: FactorGraph):
    """H, b and cost assembled block by block from per-factor residuals and Jacobians."""
    offsets, n = {}, 0
    for vid in g.variables():
        if not g.is_fixed(vid):
            offsets[vid] = n
            n += len(g.value(vid))
    h, b, cost = np.zeros((n, n)), np.zeros(n), 0.0
    for _, factor in sorted(g.factors().items()):
        r, jacs = g.residual_and_jacobians(factor)
        info = factor.information
        cost += r @ info @ r
        for vi, ji in zip(factor.variables, jacs):
            if vi not in offsets:
                continue
            rows = slice(offsets[vi], offsets[vi] + ji.shape[1])
            b[rows] += ji.T @ info @ r
            for vj, jj in zip(factor.variables, jacs):
                if vj in offsets:
                    h[rows, offsets[vj] : offsets[vj] + jj.shape[1]] += ji.T @ info @ jj
    return h, b, cost


def test_linearize_matches_dense_reference():
    for seed in range(20):
        g = _random_kind_graph(seed)
        planes = g.variables_of(VarKind.PLANE)
        transform = g.variables_of(VarKind.TRANSFORM)[0]
        # Factors that list one variable twice: their blocks must add up.
        g.add_factor(Factor(FactorKind.PLANE_TO_PLANE, (planes[1], planes[1])))
        g.add_factor(Factor(FactorKind.PLANE_TO_PLANE, (planes[2], planes[2], transform)))
        for i, vid in enumerate(g.variables()):
            if (i + seed) % 4 == 0:
                g.fix(vid)
        h, b, cost = g._linearize()
        ref_h, ref_b, ref_cost = _dense_reference(g)
        assert cost == pytest.approx(ref_cost, rel=1e-12)
        np.testing.assert_allclose(b, ref_b, rtol=1e-12, atol=1e-12 * np.abs(ref_b).max())
        np.testing.assert_allclose(h, ref_h, rtol=1e-12, atol=1e-12 * np.abs(ref_h).max())


def _assert_solves_like_rebuilt(g: FactorGraph) -> None:
    """Move g off its optimum, then optimize it and a graph rebuilt from the same state."""
    for vid in g.variables():
        g.set_value(vid, g.value(vid) + 0.01)
    fresh = FactorGraph.from_json(g.to_json())
    assert g.total_cost() == fresh.total_cost()
    g.optimize()
    fresh.optimize()
    assert g.to_json() == fresh.to_json()


def test_structure_cache_follows_graph_edits():
    g = _random_kind_graph(3)
    planes = g.variables_of(VarKind.PLANE)
    rooms = g.variables_of(VarKind.ROOM)
    g.optimize()
    g.add_factor(Factor(FactorKind.ROOM_TO_ROOM, (rooms[0], rooms[1]), [0.4, -0.3]))
    _assert_solves_like_rebuilt(g)
    wall = g.add_variable(VarKind.WALL, [0.0, 1.0])
    fid = g.add_factor(Factor(FactorKind.WALL_CENTER, (wall, planes[2], planes[3]), [1.0, 0.0]))
    _assert_solves_like_rebuilt(g)
    g.remove_factor(fid)
    _assert_solves_like_rebuilt(g)
    g.remove_variable(wall)
    _assert_solves_like_rebuilt(g)
    g.fix(planes[1])
    _assert_solves_like_rebuilt(g)


def test_jacobians_empty_graph():
    assert FactorGraph().check_jacobians() == []


def test_angular_residuals_wrapped():
    g = FactorGraph()
    k0 = g.add_variable(VarKind.KEYFRAME, [0, 0, 3.0])
    k1 = g.add_variable(VarKind.KEYFRAME, [1, 0, -3.0])
    f = Factor(FactorKind.ODOMETRY, (k0, k1), [1.0, 0.0, 0.0])
    r = g.evaluate_residual(f)
    assert -math.pi < r[2] <= math.pi
    pb = g.add_variable(VarKind.PLANE, [3.1, 2.0])
    pm = g.add_variable(VarKind.PLANE, [-3.1, 2.0])
    f2 = Factor(FactorKind.PLANE_TO_PLANE, (pb, pm))
    r2 = g.evaluate_residual(f2)
    assert -math.pi < r2[0] <= math.pi
    assert abs(r2[0]) < 0.2  # wrapped difference, not ~2*pi


def test_serialization_roundtrip():
    g = _random_kind_graph(7)
    doc = g.to_json()
    g2 = FactorGraph.from_json(doc)
    assert g2.to_json() == doc
    assert g2.total_cost() == pytest.approx(g.total_cost(), rel=1e-12)


def test_serialization_roundtrip_keeps_ids_left_by_removals():
    # the corridor run removes two-wall rooms and their factors, leaving gaps
    plan, config, _ = load_scenario(fixture_dir() / "corridor.scenario.json")
    graph = run_pipeline(plan, config).sgraph.graph
    doc = graph.to_json()
    back = FactorGraph.from_json(doc)
    assert back.to_json() == doc
    assert back.total_cost() == graph.total_cost()
    # new ids continue past the largest stored one of each kind
    top = max(v.index for v in back.variables_of(VarKind.TWO_WALL_ROOM))
    assert back.add_variable(VarKind.TWO_WALL_ROOM, [0, 0]).index == top + 1
    last = max(back.factors())
    kf = back.variables_of(VarKind.KEYFRAME)[0]
    assert back.add_factor(Factor(FactorKind.PRIOR, (kf,), [0, 0, 0])) == last + 1


def test_deserialization_rejects_duplicate_and_dangling_ids():
    g = FactorGraph()
    r = g.add_variable(VarKind.ROOM, [1, 2])
    g.add_factor(Factor(FactorKind.PRIOR, (r,), [1, 2]))
    k = g.add_variable(VarKind.KEYFRAME, [0, 0, 0])
    g.add_factor(Factor(FactorKind.POSE_PLANE, (k, g.add_variable(VarKind.PLANE, [0, 1])), [0, 1]))
    doc = g.to_json_dict()
    prior, pose_plane = doc["factors"]
    for bad in (
        {**doc, "variables": doc["variables"] * 2},
        {**doc, "factors": doc["factors"] * 2},
        {**doc, "factors": [{**prior, "variables": [["room", 5]]}]},
        {**doc, "factors": [prior, {**pose_plane, "measurement": {"plane": [0, 1, 2]}}]},
        {**doc, "factors": [prior, {**pose_plane, "measurement": None}]},
        {**doc, "factors": [{k: v for k, v in prior.items() if k != "information"}]},
    ):
        with pytest.raises(GraphError):
            FactorGraph.from_json_dict(bad)
    with pytest.raises(GraphError, match="'variables'"):
        FactorGraph.from_json_dict({"factors": []})
    with pytest.raises(SimulationError, match="'waypoints'"):
        SimConfig.from_dict({"plan": "fixture:two_rooms", "seed": 3})


def test_serialization_preserves_fixed_flags():
    g = FactorGraph()
    r = g.add_variable(VarKind.ROOM, [1, 2], fixed=True)
    g.add_factor(Factor(FactorKind.PRIOR, (r,), [1, 2]))
    g2 = FactorGraph.from_json(g.to_json())
    assert g2.is_fixed(VariableId(VarKind.ROOM, 0))


def test_remove_variable_guarded_by_references():
    g = FactorGraph()
    r = g.add_variable(VarKind.ROOM, [0, 0])
    fid = g.add_factor(Factor(FactorKind.PRIOR, (r,), [0, 0]))
    with pytest.raises(GraphError):
        g.remove_variable(r)
    g.remove_factor(fid)
    g.remove_variable(r)
    assert g.variables() == []


def test_deterministic_optimization():
    g1, *_ = _synthetic_room_world(9)
    g2, *_ = _synthetic_room_world(9)
    g1.optimize()
    g2.optimize()
    assert g1.to_json() == g2.to_json()
