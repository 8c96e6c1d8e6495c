import copy
import json
import math

import numpy as np
import pytest

import planloc.a_graph
from planloc.a_graph import (
    PlanError,
    build_a_graph,
    load_plan,
    plan_from_dict,
    shared_wall,
    wall_surfaces,
)
from planloc.factor_graph import Factor, FactorGraph, FactorKind, VarKind
from planloc.geometry import Axis
from planloc.plans import (
    FIXTURE_PLANS,
    fixture_plan,
    generate_random_plan,
    route_waypoints,
    single_room_plan,
    two_rooms_plan,
)


def test_load_plan_single_room(tmp_path):
    path = tmp_path / "plan.json"
    path.write_text(json.dumps(single_room_plan()))
    plan = load_plan(path)
    assert len(plan.walls) == 4
    assert len(plan.rooms) == 1
    assert len(plan.doorways) == 0


def test_load_plan_two_rooms_counts():
    plan = fixture_plan("two_rooms")
    assert len(plan.walls) == 7
    assert len(plan.rooms) == 2
    assert len(plan.doorways) == 1


def test_load_plan_reports_json_position(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"walls": [,]}')
    with pytest.raises(PlanError, match="line"):
        load_plan(path)


def test_missing_surface_reference_named():
    doc = single_room_plan()
    doc["rooms"][0]["surfaces"]["px"] = "nope:+"
    with pytest.raises(PlanError, match="nope"):
        plan_from_dict(doc)


def test_room_must_enclose():
    doc = single_room_plan()
    # swap the two x-side references: the faces now point away from the room
    surf = doc["rooms"][0]["surfaces"]
    surf["px"], surf["mx"] = surf["mx"], surf["px"]
    with pytest.raises(PlanError):
        plan_from_dict(doc)


def test_doorway_requires_shared_wall():
    doc = two_rooms_plan()
    doc["doorways"][0]["position"] = [1.0, 1.0]  # a meter away from the shared wall
    with pytest.raises(PlanError, match="doorway"):
        plan_from_dict(doc)


def test_doorway_distinct_rooms():
    doc = two_rooms_plan()
    doc["doorways"][0]["rooms"] = ["a", "a"]
    with pytest.raises(PlanError):
        plan_from_dict(doc)


def _wall_faces(doc):
    surfaces = wall_surfaces(plan_from_dict(doc))
    return surfaces["w:+"], surfaces["w:-"]


def _foot(surface) -> np.ndarray:
    return surface.dist * np.asarray(surface.normal)


def test_extract_wall_surfaces_horizontal_wall():
    doc = {
        "walls": [{"id": "w", "start": [0, 0], "end": [4, 0], "thickness": 0.2}],
        "rooms": [],
        "doorways": [],
    }
    plus, minus = _wall_faces(doc)
    assert plus.axis == minus.axis == Axis.Y
    # surfaces at y = +0.1 and y = -0.1, normals canonicalized away from origin
    feet = sorted([_foot(plus)[1], _foot(minus)[1]])
    assert feet == pytest.approx([-0.1, 0.1])
    assert plus.dist == pytest.approx(0.1)
    assert minus.dist == pytest.approx(0.1)
    assert plus.normal == pytest.approx((0.0, 1.0))
    assert minus.normal == pytest.approx((0.0, -1.0))


def test_extract_wall_surfaces_vertical_wall():
    doc = {
        "walls": [{"id": "w", "start": [2, 0], "end": [2, 5], "thickness": 0.3}],
        "rooms": [],
        "doorways": [],
    }
    plus, minus = _wall_faces(doc)
    assert plus.axis == minus.axis == Axis.X
    feet = sorted([_foot(plus)[0], _foot(minus)[0]])
    assert feet == pytest.approx([1.85, 2.15])
    assert min(plus.dist, minus.dist) >= 0.0


def test_extract_wall_surfaces_translation_covariance():
    base = {
        "walls": [{"id": "w", "start": [2, 1], "end": [2, 5], "thickness": 0.3}],
        "rooms": [],
        "doorways": [],
    }
    shifted = copy.deepcopy(base)
    shifted["walls"][0]["start"] = [12, 1]
    shifted["walls"][0]["end"] = [12, 5]
    p0, m0 = _wall_faces(base)
    p1, m1 = _wall_faces(shifted)
    assert _foot(p1)[0] - _foot(p0)[0] == pytest.approx(10.0)
    assert _foot(m1)[0] - _foot(m0)[0] == pytest.approx(10.0)


def _kernel_wall_center(p1, p2, s) -> np.ndarray:
    """The wall center that zeroes the WALL_CENTER kernel for planes p1, p2 and start s."""
    g = FactorGraph()
    w = g.add_variable(VarKind.WALL, [0.0, 0.0])
    factor = Factor(
        FactorKind.WALL_CENTER,
        (w, g.add_variable(VarKind.PLANE, p1), g.add_variable(VarKind.PLANE, p2)),
        s,
    )
    center = -g.evaluate_residual(factor)  # the residual is wall - center
    g.set_value(w, center)
    assert g.evaluate_residual(factor) == pytest.approx([0.0, 0.0], abs=1e-12)
    return center


@pytest.mark.parametrize(
    "p1,p2,s,expected",
    [
        ((0.0, 2.0), (0.0, 3.0), (0, 5), (2.5, 5.0)),
        ((-math.pi / 2, 0.1), (math.pi / 2, 0.1), (0, 0), (0.0, 0.0)),
        ((0.0, 2.0), (0.0, 3.0), (7, -1), (2.5, -1.0)),
    ],
)
def test_compute_wall_center_cases(p1, p2, s, expected):
    assert _kernel_wall_center(p1, p2, s) == pytest.approx(expected, abs=1e-12)


def test_compute_wall_center_translation_equivariance():
    rng = np.random.default_rng(11)

    def canonical(d):  # the plane x = d with its normal pointing away from the origin
        return (0.0, d) if d >= 0 else (math.pi, -d)

    for _ in range(50):
        d1, d2 = rng.uniform(0.5, 6, 2)
        s = rng.uniform(-5, 5, 2)
        t = rng.uniform(-8, 8, 2)
        base = _kernel_wall_center(canonical(d1), canonical(d2), s)
        # shift the whole construction by t (canonicalization may flip normals)
        shifted = _kernel_wall_center(canonical(d1 + t[0]), canonical(d2 + t[0]), s + t)
        assert shifted == pytest.approx(base + t, abs=1e-9)


def test_build_a_graph_single_room_structure():
    plan = fixture_plan("single_room")
    ag = build_a_graph(plan)
    g = ag.graph
    assert len(g.variables_of(VarKind.PLANE)) == 8
    assert len(g.variables_of(VarKind.WALL)) == 4
    assert len(g.variables_of(VarKind.ROOM)) == 1
    assert len(g.variables_of(VarKind.DOORWAY)) == 0
    assert g.total_cost() <= 1e-12
    assert len(g.factors_of(FactorKind.WALL_CENTER)) == 4
    assert len(g.factors_of(FactorKind.ROOM_TO_WALLS)) == 1


def test_build_a_graph_doorway_residual_zero():
    plan = fixture_plan("two_rooms")
    ag = build_a_graph(plan)
    [(fid, factor)] = ag.graph.factors_of(FactorKind.DOORWAY_TO_ROOMS)
    assert ag.graph.evaluate_residual(factor) == pytest.approx([0, 0], abs=1e-12)


def test_build_a_graph_optimize_is_noop():
    for name in ("two_rooms", "five_rooms", "grid_2x2", "corridor"):
        ag = build_a_graph(fixture_plan(name))
        before = {v: ag.graph.value(v) for v in ag.graph.variables()}
        report = ag.graph.optimize()
        assert report.converged
        for v, val in before.items():
            assert ag.graph.value(v) == pytest.approx(val, abs=1e-9)


def test_every_plane_in_exactly_one_wall_center_factor():
    ag = build_a_graph(fixture_plan("five_rooms"))
    count: dict = {}
    for _, factor in ag.graph.factors_of(FactorKind.WALL_CENTER):
        for vid in factor.variables[1:]:
            count[vid] = count.get(vid, 0) + 1
    planes = ag.graph.variables_of(VarKind.PLANE)
    assert len(planes) == 2 * len(ag.plan.walls)
    assert all(count.get(p, 0) == 1 for p in planes)


def test_all_fixture_and_random_plans_zero_cost():
    for name in FIXTURE_PLANS:
        assert build_a_graph(fixture_plan(name)).graph.total_cost() <= 1e-9
    for seed in range(10):
        plan = generate_random_plan(3 + seed % 5, seed)
        assert build_a_graph(plan).graph.total_cost() <= 1e-9


def test_shared_wall_lookup():
    plan = fixture_plan("two_rooms")
    wall = shared_wall(plan, "a", "b")
    assert wall is not None and wall.id == "s_ab"
    assert shared_wall(plan, "a", "a") is None


def test_plan_surfaces_are_built_once(monkeypatch):
    # generating the plan validates it, which builds its surfaces; later
    # readers of the same plan reuse them
    plan = generate_random_plan(16, 0)
    built = []
    surfaces_of_wall = planloc.a_graph._surfaces_of_wall
    monkeypatch.setattr(
        planloc.a_graph,
        "_surfaces_of_wall",
        lambda wall: built.append(wall.id) or surfaces_of_wall(wall),
    )
    route_waypoints(plan)
    build_a_graph(plan)
    assert built == []
