import dataclasses
import json
import math
from pathlib import Path

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
from planloc.geometry import Pose2, transform_phi_dist, wrap_angle
from planloc.plans import fixture_dir, generate_random_plan, route_waypoints
from planloc.runner import _plan_doc, load_scenario, run_pipeline, run_scenario
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
    for variables in ((r, k), (r, p, p)):  # a room needs four planes
        with pytest.raises(GraphError, match="room_to_walls factor requires"):
            Factor(FactorKind.ROOM_TO_WALLS, variables)
    # malformed measurements are refused up front, naming kind and shape
    for kind, variables, measurement in (
        (FactorKind.POSE_PLANE, (k, p), (1.0,)),
        (FactorKind.POSE_PLANE, (k, p), None),
        (FactorKind.ODOMETRY, (k, k), Pose2(1, 0, 0)),
        (FactorKind.PLANE_TO_PLANE, (p, g.add_variable(VarKind.TRANSFORM, [0, 0, 0])), None),
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
    room = g.add_variable(VarKind.ROOM, [4, 4])
    t = g.add_variable(VarKind.TRANSFORM, [0, 0, 0])
    f = Factor(FactorKind.ROOM_TO_ROOM, (room, t), [4, 4])
    assert g.evaluate_residual(f) == pytest.approx([0, 0], abs=1e-15)


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
    anchored = FactorGraph()
    k0 = anchored.add_variable(VarKind.KEYFRAME, [0, 0, 0], fixed=True)
    k1 = anchored.add_variable(VarKind.KEYFRAME, [1, 0, 0])
    anchored.add_factor(Factor(FactorKind.ODOMETRY, (k0, k1), [1.0, 0.0, 0.0]))
    assert anchored.optimize().converged


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
    """A factor of every kind at a random, flip-safe point, with priors on three variable kinds.

    Each measurement is what its factor predicts at the starting values, plus
    noise. The room starts about 2 m from where its walls put it, and the plan
    room is about as far off, so the optimum keeps a residual and a solve meets
    steps it must reject. A twin room on the same walls starts near their
    center and has a prior.
    """
    rng = np.random.default_rng(seed)
    g = FactorGraph()
    kfs = [g.add_variable(VarKind.KEYFRAME, rng.uniform(-2, 2, 3)) for _ in range(2)]
    phis = rng.uniform(-math.pi, math.pi, 4)
    planes = [g.add_variable(VarKind.PLANE, [phi, rng.uniform(1.0, 5.0)]) for phi in phis]
    t = g.add_variable(VarKind.TRANSFORM, [*rng.uniform(-1, 1, 2), rng.uniform(-0.4, 0.4)])

    def center(vids):  # where room_to_walls puts the center of these planes
        return sum(d * np.array([math.cos(phi), math.sin(phi)]) for phi, d in g.values(vids)) / 2

    def noisy(value, sigma):
        return np.asarray(value) + rng.normal(0, sigma, len(value))

    room = g.add_variable(VarKind.ROOM, noisy(center(planes), 2.0))
    twin = g.add_variable(VarKind.ROOM, noisy(center(planes), 0.1))
    poses = [Pose2.from_array(g.value(kf)) for kf in kfs]
    t_pose = Pose2.from_array(g.value(t))
    odometry = poses[1].relative_to(poses[0]).as_array()
    g.add_factor(Factor(FactorKind.ODOMETRY, tuple(kfs), noisy(odometry, 0.3)))
    for kf, pose, vid in zip(kfs, poses, (planes[0], planes[3])):
        seen = transform_phi_dist(pose.inverse(), *g.value(vid))
        g.add_factor(Factor(FactorKind.POSE_PLANE, (kf, vid), noisy(seen, 0.1)))
    g.add_factor(Factor(FactorKind.ROOM_TO_WALLS, (room, *planes)))
    g.add_factor(Factor(FactorKind.ROOM_TO_WALLS, (twin, *planes)))
    plan_room = t_pose.transform_point(g.value(room))
    g.add_factor(Factor(FactorKind.ROOM_TO_ROOM, (room, t), noisy(plan_room, 2.0)))
    plan_plane = transform_phi_dist(t_pose, *g.value(planes[1]))
    g.add_factor(Factor(FactorKind.PLANE_TO_PLANE, (planes[1], t), noisy(plan_plane, 0.1)))
    g.add_factor(Factor(FactorKind.PRIOR, (twin,), noisy(g.value(twin), 0.1)))
    g.add_factor(Factor(FactorKind.PRIOR, (kfs[0],), g.value(kfs[0])))
    g.add_factor(Factor(FactorKind.PRIOR, (t,), g.value(t)))
    return g


def test_jacobians_all_kinds_50_random_points():
    for seed in range(50):
        g = _random_kind_graph(seed)
        assert {f.kind for f in g.factors().values()} == set(FactorKind)
        assert g.check_jacobians() == []


def test_jacobians_detect_corruption(monkeypatch):
    g = _random_kind_graph(0)

    spec = fg._FACTOR_SPECS[FactorKind.ODOMETRY]

    def corrupted(kinds, vals, meas):
        r, jacobians = spec.kernel(kinds, vals, meas)

        def corrupted_jacobians():
            jacs = jacobians()
            jacs[0][:, 0, 0] += 0.5
            return jacs

        return r, corrupted_jacobians

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
        keyframe = g.variables_of(VarKind.KEYFRAME)[1]
        # Factors that list one variable twice: their blocks must add up.
        g.add_factor(Factor(FactorKind.ODOMETRY, (keyframe, keyframe), [0.1, -0.2, 0.3]))
        room = g.variables_of(VarKind.ROOM)[0]
        g.add_factor(Factor(FactorKind.ROOM_TO_WALLS, (room, planes[2], planes[2], *planes[2:])))
        doc = g.to_json_dict()
        for i, var in enumerate(doc["variables"]):
            var["fixed"] = (i + seed) % 4 == 0
        g = FactorGraph.from_json_dict(doc)
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


def _assert_linearizes_like_rebuilt(g: FactorGraph) -> None:
    """H, b and cost equal, bit for bit, those of a graph rebuilt from g's JSON."""
    fresh = FactorGraph.from_json(g.to_json())
    h, b, cost = g._linearize()
    fresh_h, fresh_b, fresh_cost = fresh._linearize()
    assert np.array_equal(h, fresh_h)
    assert np.array_equal(b, fresh_b)
    assert cost == fresh_cost == g.total_cost()


def _append_keyframe(g: FactorGraph, rng, planes: list[VariableId]) -> None:
    """One online update: a keyframe, its odometry, plane observations, maybe a new plane."""
    last = g.variables_of(VarKind.KEYFRAME)[-1]
    step = Pose2(0.3, rng.normal(0, 0.05), rng.normal(0, 0.05))
    pose = Pose2.from_array(g.value(last)).compose(step)
    kf = g.add_variable(VarKind.KEYFRAME, pose.as_array() + rng.normal(0, 0.01, 3))
    g.add_factor(Factor(FactorKind.ODOMETRY, (last, kf), step.as_array()))
    if rng.random() < 0.4:
        planes.append(g.add_variable(VarKind.PLANE, [rng.uniform(-3, 3), rng.uniform(1, 5)]))
    for vid in rng.choice(len(planes), size=min(3, len(planes)), replace=False):
        phi, d = g.value(planes[vid])
        phi_b = wrap_angle(phi - pose.theta + rng.normal(0, 0.01))
        d_b = d - (pose.x * math.cos(phi) + pose.y * math.sin(phi)) + rng.normal(0, 0.02)
        g.add_factor(Factor(FactorKind.POSE_PLANE, (kf, planes[vid]), (phi_b, d_b)))


def test_structure_cache_follows_graph_edits():
    g = _random_kind_graph(3)
    planes = g.variables_of(VarKind.PLANE)
    room = g.variables_of(VarKind.ROOM)[0]
    t = g.variables_of(VarKind.TRANSFORM)[0]
    g.optimize()
    structure = g._structure()
    g.add_factor(Factor(FactorKind.ROOM_TO_ROOM, (room, t), [0.4, -0.3]))
    _assert_solves_like_rebuilt(g)
    # A variable whose factor joins a group, and one whose factor starts a group.
    extra = g.add_variable(VarKind.ROOM, [0.0, 1.0])
    g.add_factor(Factor(FactorKind.ROOM_TO_WALLS, (extra, *planes[2:], *planes[:2])))
    _assert_solves_like_rebuilt(g)
    plane = g.add_variable(VarKind.PLANE, [0.3, 2.0])
    g.add_factor(Factor(FactorKind.PRIOR, (plane,), [0.3, 2.1]))
    _assert_solves_like_rebuilt(g)

    # Online updates extend the structure in place instead of rebuilding it.
    rng = np.random.default_rng(3)
    for k in range(20):
        _append_keyframe(g, rng, planes)
        _assert_linearizes_like_rebuilt(g)
        if k % 2:
            g.optimize(15)
            _assert_linearizes_like_rebuilt(g)
    assert g._structure() is structure

    # A merge: alignment factors through the transform that carry plan values,
    # and a fixed variable whose group has no free column.
    for vid in planes[:4]:
        plan_plane = g.value(vid) + rng.normal(0, 0.05, 2)
        g.add_factor(Factor(FactorKind.PLANE_TO_PLANE, (vid, t), plan_plane))
    g.add_factor(Factor(FactorKind.ROOM_TO_ROOM, (room, t), g.value(room)))
    anchor = g.add_variable(VarKind.ROOM, [1.0, 2.0], fixed=True)
    g.add_factor(Factor(FactorKind.PRIOR, (anchor,), [1.1, 2.0]))
    _assert_linearizes_like_rebuilt(g)
    g.set_value(t, [0.02, -0.01, 0.005])
    _assert_linearizes_like_rebuilt(g)
    # The structure holds no values, so a new value of a fixed variable keeps it.
    g.set_value(anchor, [1.2, 2.1])
    _assert_linearizes_like_rebuilt(g)
    g.optimize()
    _assert_linearizes_like_rebuilt(g)
    for _ in range(3):
        _append_keyframe(g, rng, planes)
        g.optimize(15)
        _assert_linearizes_like_rebuilt(g)
    assert g._structure() is structure


def test_run_builds_its_structure_once(monkeypatch):
    """A run's graph only grows: its first solve builds the structure, later ones extend it."""
    built = []
    structure = FactorGraph._structure

    def recorded(graph):
        built.append((graph, structure(graph)))
        return built[-1][1]

    monkeypatch.setattr(FactorGraph, "_structure", recorded)
    plan, config, _ = load_scenario(fixture_dir() / "corridor.scenario.json")
    result = run_pipeline(plan, config)
    monkeypatch.undo()
    graph = result.sgraph.graph
    ours = [s for g, s in built if g is graph]
    assert len(ours) > len(result.sgraph.keyframes) and result.sgraph.gammas
    assert all(s is ours[0] for s in ours)
    assert graph._structure() is ours[0]


def test_optimize_scores_each_trial_step_once(monkeypatch):
    """total_cost runs once before the loop, once per solved trial step and once after."""
    cost_calls = solves = 0
    total_cost, solve = FactorGraph.total_cost, np.linalg.solve

    def counted_cost(graph):
        nonlocal cost_calls
        cost_calls += 1
        return total_cost(graph)

    def counted_solve(*args):
        nonlocal solves
        out = solve(*args)
        solves += 1
        return out

    monkeypatch.setattr(FactorGraph, "total_cost", counted_cost)
    monkeypatch.setattr(np.linalg, "solve", counted_solve)
    rejected = windowed_rejected = 0
    for seed in range(10):
        g = _random_kind_graph(seed)
        for vid in g.variables():
            g.set_value(vid, g.value(vid) + 0.05)
        windowed = FactorGraph.from_json(g.to_json())
        cost_calls = solves = 0
        report = g.optimize()
        assert cost_calls == 2 + solves
        rejected += solves - (len(report.cost_trace) - 1)
        assert report.final_cost == total_cost(g)

        window = windowed.variables()[1::2]
        cost_calls = solves = 0
        report = windowed.optimize(window=window)
        assert cost_calls == 2 + solves
        windowed_rejected += solves - (len(report.cost_trace) - 1)
        # The costs are those of the factors touching the window.
        assert report.final_cost == report.cost_trace[-1]
        touching = [fid for fid, f in windowed.factors().items() if set(f.variables) & set(window)]
        assert report.final_cost == pytest.approx(
            sum(windowed.chi2(fid) for fid in touching), rel=1e-12
        )
    assert rejected > 0  # the count covers rejected trial steps too
    assert windowed_rejected > 0


def test_solve_at_its_optimum_ends_without_lambda_escalation(monkeypatch):
    """A re-solve after a 1e-15 nudge stops after one trial step.

    A rise at rounding level is undone and ends the solve as converged, where
    escalating lambda would retry it with ever more damping.
    """
    calls = 0
    total_cost = FactorGraph.total_cost

    def counted_cost(graph):
        nonlocal calls
        calls += 1
        return total_cost(graph)

    graphs = [_random_kind_graph(seed) for seed in range(10)] + [_merged_run_graph()]
    monkeypatch.setattr(FactorGraph, "total_cost", counted_cost)
    flat = 0
    for g in graphs:
        assert g.optimize().converged
        doc = g.to_json()
        for vid in g.variables():
            if g.is_fixed(vid):
                continue
            nudged = FactorGraph.from_json(doc)
            nudged.set_value(vid, nudged.value(vid) + 1e-15)
            calls = 0
            report = nudged.optimize()
            assert calls <= 3  # before the loop, one trial step, after the loop
            assert report.converged
            assert report.final_cost <= report.initial_cost
            flat += report.message.startswith("trial step cost within tolerance")
    assert flat > 20


def _merged_run_graph() -> FactorGraph:
    """The final graph of a run that merged: a transform and alignment factors through it."""
    plan, config, _ = load_scenario(fixture_dir() / "two_rooms.scenario.json")
    result = run_pipeline(plan, config)
    assert result.merged is not None
    return result.sgraph.graph


def test_window_of_every_variable_solves_like_the_full_graph():
    graphs = [_random_kind_graph(seed) for seed in range(10)] + [_merged_run_graph()]
    for g in graphs:
        for vid in g.variables():
            if not g.is_fixed(vid):
                g.set_value(vid, g.value(vid) + 0.02)
        doc = g.to_json()
        full, windowed = FactorGraph.from_json(doc), FactorGraph.from_json(doc)
        full_report = full.optimize()
        report = windowed.optimize(window=windowed.variables())
        assert windowed.to_json() == full.to_json()
        assert dataclasses.asdict(report) == dataclasses.asdict(full_report)
        assert windowed.total_cost() == full.total_cost()


def _keyframe_chain(seed: int, n_keyframes: int = 24):
    """A prior-anchored keyframe chain observing planes, as the estimator builds it."""
    rng = np.random.default_rng(seed)
    g = FactorGraph()
    kf = g.add_variable(VarKind.KEYFRAME, [0.0, 0.0, 0.0])
    g.add_factor(Factor(FactorKind.PRIOR, (kf,), [0.0, 0.0, 0.0]))
    planes = [g.add_variable(VarKind.PLANE, [rng.uniform(-3, 3), rng.uniform(1, 5)])]
    for _ in range(n_keyframes):
        _append_keyframe(g, rng, planes)
    for vid in g.variables():
        g.set_value(vid, g.value(vid) + rng.normal(0, 0.02, len(g.value(vid))))
    return g


def test_window_holds_the_rest_and_evaluates_only_its_factors(monkeypatch):
    for seed in range(5):
        g = _keyframe_chain(seed)
        keyframes = g.variables_of(VarKind.KEYFRAME)
        window = set(keyframes[-5:])
        window |= {
            v for _, f in g.factors_of(FactorKind.POSE_PLANE) if f.variables[0] in window
            for v in f.variables
        }
        before = {vid: g.value(vid) for vid in g.variables()}
        touching = [f for f in g.factors().values() if set(f.variables) & window]
        expected = {}
        for f in touching:
            key = (f.kind, tuple(v.kind for v in f.variables))
            expected[key] = expected.get(key, 0) + 1

        calls = []
        for kind, spec in list(fg._FACTOR_SPECS.items()):
            def recorded(kinds, vals, meas, kind=kind, kernel=spec.kernel):
                calls.append(((kind, tuple(kinds)), len(meas)))
                return kernel(kinds, vals, meas)

            monkeypatch.setitem(fg._FACTOR_SPECS, kind, dataclasses.replace(spec, kernel=recorded))
        report = g.optimize(15, window=window)
        monkeypatch.undo()

        # Each kernel run gets exactly its group's factors that touch the window.
        assert calls and {key: m for key, m in calls} == expected
        assert report.free_columns == sum(len(before[v]) for v in window)
        moved = {vid for vid in before if not np.array_equal(g.value(vid), before[vid])}
        assert moved and moved <= window
        assert report.final_cost == pytest.approx(sum(
            r @ f.information @ r for f in touching for r in [g.evaluate_residual(f)]
        ), rel=1e-12)
        # Once the solve returns, the cost covers the whole graph again.
        assert g.total_cost() == pytest.approx(sum(g.chi2(fid) for fid in g.factors()), rel=1e-12)


def _last_keyframes_window(g: FactorGraph, count: int = 5) -> set[VariableId]:
    """The last keyframes and the planes they observe: the window of an online update."""
    window = set(g.variables_of(VarKind.KEYFRAME)[-count:])
    return window | {
        v for _, f in g.factors_of(FactorKind.POSE_PLANE) if f.variables[0] in window
        for v in f.variables
    }


def test_windowed_update_builds_jacobians_only_to_linearize(monkeypatch):
    """A one-step windowed update scores its trial step without building a Jacobian."""
    linearizing = False
    linearize = FactorGraph._linearize

    def marked(graph):
        nonlocal linearizing
        linearizing = True
        try:
            return linearize(graph)
        finally:
            linearizing = False

    runs, builds = {}, []
    for kind, spec in list(fg._FACTOR_SPECS.items()):
        def counted(kinds, vals, meas, kind=kind, kernel=spec.kernel):
            key = (kind, tuple(kinds))
            runs[key] = runs.get(key, 0) + 1
            r, jacobians = kernel(kinds, vals, meas)

            def built():
                builds.append((key, linearizing))
                return jacobians()

            return r, built

        monkeypatch.setitem(fg._FACTOR_SPECS, kind, dataclasses.replace(spec, kernel=counted))
    monkeypatch.setattr(FactorGraph, "_linearize", marked)
    for seed in range(5):
        g = _keyframe_chain(seed)
        runs.clear()
        builds.clear()
        report = g.optimize(1, window=_last_keyframes_window(g))
        assert report.iterations == 1 and len(report.cost_trace) == 2
        # Every group ran its kernel for the starting state and the trial step,
        # and built its Jacobians once, inside the linearization.
        assert runs and all(count >= 2 for count in runs.values())
        assert len(builds) == len(runs) and set(builds) == {(key, True) for key in runs}


def _window_system(g: FactorGraph, window) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """H and b of a solve over ``window`` at g's state, and its columns among the whole graph's."""
    whole = g._cut(g.variables()).free
    g._window = g._cut(window)
    try:
        h, b, _ = g._linearize()
        columns = np.flatnonzero(np.isin(whole, g._window.free))
    finally:
        g._window = None
    assert columns.size == b.size
    return h, b, columns


def test_window_linearizes_like_the_whole_graph_bit_for_bit():
    """A window's H and b are the whole graph's on its free columns, entry for entry."""
    cases = []
    for seed in range(6):
        g = _keyframe_chain(seed)
        keyframes = g.variables_of(VarKind.KEYFRAME)
        # A factor that lists one variable twice, inside the window.
        g.add_factor(Factor(FactorKind.ODOMETRY, (keyframes[-2],) * 2, [0.1, -0.2, 0.3]))
        cases.append((g, seed, True))
        g = _random_kind_graph(seed)
        planes = g.variables_of(VarKind.PLANE)
        keyframe = g.variables_of(VarKind.KEYFRAME)[1]
        g.add_factor(Factor(FactorKind.ODOMETRY, (keyframe, keyframe), [0.1, -0.2, 0.3]))
        room = g.variables_of(VarKind.ROOM)[0]
        g.add_factor(Factor(FactorKind.ROOM_TO_WALLS, (room, planes[2], planes[2], *planes[2:])))
        cases.append((g, seed, False))
    fixed = 0
    for g, seed, chain in cases:
        doc = g.to_json_dict()
        for i, var in enumerate(doc["variables"]):
            var["fixed"] = (i + seed) % 5 == 0
        g = FactorGraph.from_json_dict(doc)
        window = _last_keyframes_window(g) if chain else g.variables()[seed % 2 :: 2]
        fixed += sum(g.is_fixed(vid) for vid in window)
        h, b, _ = g._linearize()
        window_h, window_b, columns = _window_system(g, window)
        assert 0 < columns.size < b.size
        assert np.array_equal(window_b, b[columns])
        assert np.array_equal(window_h, h[np.ix_(columns, columns)])
    assert fixed > 0


def _window_cost(g: FactorGraph, window) -> float:
    """The cost a solve over ``window`` starts from, at g's state."""
    g._window = g._cut(window)
    try:
        return g.total_cost()
    finally:
        g._window = None


def test_kept_evaluations_score_like_a_rebuilt_graph(monkeypatch):
    """After writes, rejected steps and appends, cost, H and b are a rebuilt graph's."""
    solves = accepted = flat = 0
    solve = np.linalg.solve

    def counted_solve(*args):
        nonlocal solves
        solves += 1
        return solve(*args)

    monkeypatch.setattr(np.linalg, "solve", counted_solve)

    def assert_scores_like_rebuilt(g, window):
        _assert_linearizes_like_rebuilt(g)
        fresh = FactorGraph.from_json(g.to_json())
        assert _window_cost(g, window) == _window_cost(fresh, window)
        h, b, columns = _window_system(g, window)
        fresh_h, fresh_b, fresh_columns = _window_system(fresh, window)
        assert np.array_equal(h, fresh_h) and np.array_equal(b, fresh_b)
        assert np.array_equal(columns, fresh_columns)

    for seed in range(6):
        chain = _keyframe_chain(seed)
        graphs = [(chain, _last_keyframes_window)]
        g = _random_kind_graph(seed)
        t = g.variables_of(VarKind.TRANSFORM)[0]
        graphs.append((g, lambda g, t=t: {t, *g.variables_of(VarKind.KEYFRAME)[-2:]}))
        for g, window_of in graphs:
            rng = np.random.default_rng(seed)
            planes = g.variables_of(VarKind.PLANE)
            for step in range(6):
                assert_scores_like_rebuilt(g, window_of(g))
                # a write, a windowed and a whole-graph step, then appends
                vid = g.variables()[step % len(g.variables())]
                g.set_value(vid, g.value(vid) + 0.01)
                assert_scores_like_rebuilt(g, window_of(g))
                report = g.optimize(1, window=window_of(g))
                accepted += len(report.cost_trace) - 1
                assert_scores_like_rebuilt(g, window_of(g))
                report = g.optimize(1)
                accepted += len(report.cost_trace) - 1
                assert_scores_like_rebuilt(g, window_of(g))
                _append_keyframe(g, rng, planes)
        # Solves that end on a rejected step: nudges off the optimum.
        g = _random_kind_graph(seed)
        g.optimize()
        doc = g.to_json()
        for vid in g.variables():
            nudged = FactorGraph.from_json(doc)
            nudged.set_value(vid, nudged.value(vid) + 1e-15)
            report = nudged.optimize()
            accepted += len(report.cost_trace) - 1
            if report.message.startswith("trial step cost within tolerance"):
                flat += 1
                assert_scores_like_rebuilt(nudged, nudged.variables()[1::2])
    assert solves > accepted  # some trial steps were rejected and their state restored
    assert flat > 5


def test_repeated_window_runs_no_kernel_for_unchanged_rows(monkeypatch):
    """Appends keep the groups' kept evaluations: a group whose window rows are those it
    evaluated last runs no kernel, and the cost is still bit for bit a rebuilt graph's."""
    runs = []
    for kind, spec in list(fg._FACTOR_SPECS.items()):
        def recorded(kinds, vals, meas, kind=kind, kernel=spec.kernel):
            runs.append(kind)
            return kernel(kinds, vals, meas)

        monkeypatch.setitem(fg._FACTOR_SPECS, kind, dataclasses.replace(spec, kernel=recorded))
    for seed in range(5):
        g = _random_kind_graph(seed)
        rng = np.random.default_rng(seed)
        t = g.variables_of(VarKind.TRANSFORM)[0]
        planes = g.variables_of(VarKind.PLANE)
        g.optimize(1, window={t, *g.variables_of(VarKind.KEYFRAME)})
        # keyframes and planes added and observed: the merge factors' rows do not change
        for _ in range(3):
            _append_keyframe(g, rng, planes)
        window = {t, *g.variables_of(VarKind.KEYFRAME)}
        runs.clear()
        cost = _window_cost(g, window)
        assert set(runs) == {FactorKind.ODOMETRY, FactorKind.POSE_PLANE}
        assert cost == _window_cost(FactorGraph.from_json(g.to_json()), window)
        # the same window again runs nothing; new rows in a group run its kernel
        runs.clear()
        assert _window_cost(g, window) == cost and runs == []
        g.add_factor(Factor(FactorKind.PLANE_TO_PLANE, (planes[2], t), [0.1, 2.0]))
        runs.clear()
        cost = _window_cost(g, window)
        assert runs == [FactorKind.PLANE_TO_PLANE]
        assert cost == _window_cost(FactorGraph.from_json(g.to_json()), window)
        # a write drops every kept evaluation
        g.set_value(t, g.value(t))
        runs.clear()
        _window_cost(g, window)
        assert len(runs) == len(g._cut(window).groups)


def test_structure_grown_across_buffer_doublings_equals_rebuilt():
    for seed in range(3):
        g = _keyframe_chain(seed, n_keyframes=0)
        rng = np.random.default_rng(seed)
        planes = g.variables_of(VarKind.PLANE)
        structure = g._structure()
        reallocated = 0
        for _ in range(40):
            _append_keyframe(g, rng, planes)
            held = [buffers[1] for buffers in structure._buffers]
            g._structure()
            reallocated += sum(
                a is not b for a, b in zip(held, (buffers[1] for buffers in structure._buffers))
            )
        assert g._structure() is structure and reallocated >= 10
        fresh = FactorGraph.from_json(g.to_json())._structure()
        assert fresh.size == structure.size == len(g.factors())
        assert len(fresh.groups) == len(structure.groups)
        for grown, rebuilt, grown_heads, rebuilt_heads in zip(
            structure.groups, fresh.groups, structure._heads, fresh._heads
        ):
            assert (grown.kind, grown.signature) == (rebuilt.kind, rebuilt.signature)
            for name in ("rows", "entries", "measurements", "information"):
                a, b = getattr(grown, name), getattr(rebuilt, name)
                assert a.dtype == b.dtype and np.array_equal(a, b)
            assert np.array_equal(grown_heads, rebuilt_heads)
            assert np.array_equal(grown.rows, np.arange(len(grown.rows)))


def _artifacts(scenario: Path, out: Path, seed: int) -> dict[str, bytes]:
    """Every file a run writes, but its wall-clock timings."""
    run_scenario(scenario, out, seed=seed)
    return {f.name: f.read_bytes() for f in sorted(out.iterdir()) if f.name != "timing.json"}


def test_run_artifacts_equal_those_of_a_run_that_keeps_no_evaluation(tmp_path, monkeypatch):
    """Kept evaluations change no byte of a run: fixtures, and a 16-room route that merges early."""
    plan = generate_random_plan(16, 0)
    plan_path = tmp_path / "rows16.plan.json"
    plan_path.write_text(json.dumps(_plan_doc(plan)))
    rows16 = tmp_path / "rows16.scenario.json"
    rows16.write_text(json.dumps({"plan": str(plan_path), "waypoints": route_waypoints(plan)[:23]}))
    cases = [
        (fixture_dir() / f"{name}.scenario.json", seed)
        for name in ("two_rooms", "five_rooms")
        for seed in range(3)
    ]
    cases.append((rows16, 1000))

    kept = [_artifacts(path, tmp_path / f"kept{k}", seed) for k, (path, seed) in enumerate(cases)]
    evaluate = FactorGraph._evaluate

    def forgetful(graph, structure):
        graph._evaluations = {}
        return evaluate(graph, structure)

    monkeypatch.setattr(FactorGraph, "_evaluate", forgetful)
    for k, (path, seed) in enumerate(cases):
        assert _artifacts(path, tmp_path / f"forgot{k}", seed) == kept[k]
    assert "planes_b.json" in kept[-1]  # the 16-room route merged


def test_values_reads_rows_of_one_dimension():
    g = _random_kind_graph(2)
    planes = g.variables_of(VarKind.PLANE)
    assert np.array_equal(g.values(planes), np.array([g.value(v) for v in planes]))
    assert g.values([]).shape == (0, 0)
    with pytest.raises(GraphError):
        g.values([planes[0], g.variables_of(VarKind.KEYFRAME)[0]])
    with pytest.raises(GraphError):
        g.values([VariableId(VarKind.PLANE, 99)])


def test_information_check_is_memoized_but_still_rejects(monkeypatch):
    fg._check_information.cache_clear()
    g = FactorGraph()
    k = g.add_variable(VarKind.KEYFRAME, [0, 0, 0])
    good = np.diag([1.0, 2.0, 3.0])
    first = Factor(FactorKind.PRIOR, (k,), [0, 0, 0], good)
    # A valid matrix of the same shape seen first does not let bad ones through,
    # and the same bad input fails every time.
    for _ in range(2):
        with pytest.raises(GraphError, match="symmetric"):
            Factor(FactorKind.PRIOR, (k,), [0, 0, 0], good + np.triu(np.ones((3, 3)), 1))
        with pytest.raises(GraphError, match="positive definite"):
            Factor(FactorKind.PRIOR, (k,), [0, 0, 0], np.diag([1.0, -2.0, 3.0]))
    # An equal matrix is checked once, and each factor keeps its own array.
    checks = 0
    cholesky = np.linalg.cholesky

    def counted(a):
        nonlocal checks
        checks += 1
        return cholesky(a)

    monkeypatch.setattr(np.linalg, "cholesky", counted)
    second = Factor(FactorKind.PRIOR, (k,), [0, 0, 0], good.copy())
    assert checks == 0
    assert second.information is not first.information
    Factor(FactorKind.PRIOR, (k,), [0, 0, 0], np.diag([1.0, 2.0, 4.0]))
    assert checks == 1


def test_jacobians_empty_graph():
    assert FactorGraph().check_jacobians() == []


def test_angular_residuals_wrapped():
    g = FactorGraph()
    k0 = g.add_variable(VarKind.KEYFRAME, [0, 0, 3.0])
    k1 = g.add_variable(VarKind.KEYFRAME, [1, 0, -3.0])
    f = Factor(FactorKind.ODOMETRY, (k0, k1), [1.0, 0.0, 0.0])
    r = g.evaluate_residual(f)
    assert -math.pi < r[2] <= math.pi
    pm = g.add_variable(VarKind.PLANE, [-3.1, 2.0])
    t = g.add_variable(VarKind.TRANSFORM, [0, 0, 0])
    f2 = Factor(FactorKind.PLANE_TO_PLANE, (pm, t), [3.1, 2.0])
    r2 = g.evaluate_residual(f2)
    assert -math.pi < r2[0] <= math.pi
    assert abs(r2[0]) < 0.2  # wrapped difference, not ~2*pi


def test_serialization_roundtrip():
    g = _random_kind_graph(7)
    doc = g.to_json()
    g2 = FactorGraph.from_json(doc)
    assert g2.to_json() == doc
    assert g2.total_cost() == pytest.approx(g.total_cost(), rel=1e-12)


def test_deserialization_rejects_duplicate_and_dangling_ids():
    g = FactorGraph()
    r = g.add_variable(VarKind.ROOM, [1, 2])
    g.add_factor(Factor(FactorKind.PRIOR, (r,), [1, 2]))
    k = g.add_variable(VarKind.KEYFRAME, [0, 0, 0])
    g.add_factor(Factor(FactorKind.POSE_PLANE, (k, g.add_variable(VarKind.PLANE, [0, 1])), [0, 1]))
    doc = g.to_json_dict()
    prior, pose_plane = doc["factors"]
    # A hand-written document whose ids skip numbers or run out of order.
    gapped = {
        "variables": [
            {"kind": "keyframe", "index": 0, "value": [0, 0, 0], "fixed": False},
            {"kind": "room", "index": 3, "value": [1, 2], "fixed": False},
            {"kind": "room", "index": 1, "value": [2, 1], "fixed": True},
        ],
        "factors": [
            {
                "id": 4,
                "kind": "prior",
                "variables": [["keyframe", 0]],
                "measurement": {"value": [0, 0, 0.5]},
                "information": np.eye(3).tolist(),
            },
            {
                "id": 9,
                "kind": "prior",
                "variables": [["room", 3]],
                "measurement": {"value": [1, 1]},
                "information": np.eye(2).tolist(),
            },
        ],
    }
    keyframe, room = gapped["variables"][:2]
    for bad in (
        gapped,
        {"variables": [keyframe, {**room, "index": 0}], "factors": gapped["factors"]},
        {**doc, "factors": [pose_plane, prior]},
        {**doc, "factors": [{**prior, "id": -1}, pose_plane]},
    ):
        with pytest.raises(GraphError, match="out of sequence"):
            FactorGraph.from_json_dict(bad)
    for bad in (
        {**doc, "variables": doc["variables"] * 2},
        {**doc, "factors": doc["factors"] * 2},
        {**doc, "factors": [{**prior, "variables": [["room", 5]]}]},
        {**doc, "factors": [prior, {**pose_plane, "measurement": {"plane": [0, 1, 2]}}]},
        {**doc, "factors": [prior, {**pose_plane, "measurement": None}]},
        {**doc, "factors": [{k: v for k, v in prior.items() if k != "information"}]},
        {**doc, "factors": [{**prior, "kind": "wall_center"}]},
        {**doc, "variables": [*doc["variables"], {**doc["variables"][0], "kind": "doorway"}]},
        # graph files of versions that solved two-wall rooms
        {**doc, "variables": [*doc["variables"], {**doc["variables"][0], "kind": "two_wall_room"}]},
        {**doc, "factors": [prior, {**prior, "id": 1, "kind": "room_to_walls", "measurement": None,
                                    "variables": [["room", 0], ["plane", 0], ["plane", 0]]}]},
        {**doc, "variables": [None]},
        {**doc, "factors": [[]]},
        [],
    ):
        with pytest.raises(GraphError):
            FactorGraph.from_json_dict(bad)
    with pytest.raises(GraphError, match="'variables'"):
        FactorGraph.from_json_dict({"factors": []})
    with pytest.raises(SimulationError, match="'waypoints'"):
        SimConfig.from_dict({"plan": "fixture:two_rooms", "seed": 3})


def test_unknown_factor_ids_raise():
    g = _random_kind_graph(2)
    n = len(g.factors())
    assert g.factor(n - 1) is g.factors()[n - 1]
    for fid in (-1, n):
        with pytest.raises(GraphError, match="unknown factor id"):
            g.factor(fid)
    with pytest.raises(GraphError, match="unknown factor id"):
        g.chi2(-1)


def test_serialization_preserves_fixed_flags():
    g = FactorGraph()
    r = g.add_variable(VarKind.ROOM, [1, 2], fixed=True)
    g.add_factor(Factor(FactorKind.PRIOR, (r,), [1, 2]))
    g2 = FactorGraph.from_json(g.to_json())
    assert g2.is_fixed(VariableId(VarKind.ROOM, 0))


def test_deterministic_optimization():
    g1, *_ = _synthetic_room_world(9)
    g2, *_ = _synthetic_room_world(9)
    g1.optimize()
    g2.optimize()
    assert g1.to_json() == g2.to_json()


def _room_to_walls_per_slot(vals, m):
    """The room_to_walls kernel computed one plane slot at a time."""
    k = len(vals) - 1
    mid = np.zeros((m, 2))
    jacs = [np.tile(np.eye(2), (m, 1, 1))]
    for plane in vals[1:]:
        phi, d = plane.T
        c, s = np.cos(phi), np.sin(phi)
        mid += (d / k)[:, None] * np.stack([c, s], axis=-1)
        jac = np.empty((m, 2, 2))
        jac[:, 0, 0], jac[:, 0, 1] = (d / k) * -s, c / k
        jac[:, 1, 0], jac[:, 1, 1] = (d / k) * c, s / k
        jacs.append(-(k / 2.0) * jac)
    return vals[0] - mid * (k / 2.0), jacs


def test_room_to_walls_kernel_matches_per_slot_reference_bit_for_bit():
    rng = np.random.default_rng(4)
    for m in (1, 2, 7, 33):
        vals = [rng.normal(0, 5, (m, 2))]
        vals += [np.stack([rng.uniform(-4, 4, m), rng.uniform(0, 12, m)], axis=1) for _ in range(4)]
        r, jacobians = fg._room_to_walls(None, vals, np.zeros((m, 0)))
        jacs = jacobians()
        want_r, want_jacs = _room_to_walls_per_slot(vals, m)
        assert np.array_equal(r, want_r)
        assert len(jacs) == len(want_jacs)
        for got, want in zip(jacs, want_jacs):
            assert got.shape == want.shape and np.array_equal(got, want)
