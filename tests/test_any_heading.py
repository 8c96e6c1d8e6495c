"""Plans and robot map frames at any heading: outcomes equal those of the axis-aligned runs."""

import math

import numpy as np
import pytest

from conftest import scenario_config, turned
from planloc.a_graph import PlanError, build_a_graph, plan_from_dict
from planloc.matcher import MatchStatus
from planloc.plans import (
    FIXTURE_PLANS,
    fixture_plan,
    fixture_scenarios,
    generate_random_plan,
    route_waypoints,
    single_room_plan,
)
from planloc.runner import _plan_doc, run_pipeline
from planloc.s_graph import SimConfig

TURNS = (0.3, math.pi / 4, math.pi / 2)
SEEDS = (0, 1, 2)


def _outcome(result):
    """(status, merged room pairs by plan room id, robot planes, robot rooms), and the APE."""
    pairs = ape = None
    if result.merged is not None:
        room_of = result.agraph.room_of_variable
        pairs = sorted((room_of(a), s.index) for a, s in result.merged.room_pairs.items())
        ape = result.report["ape"]["rmse"]
    return (result.status, pairs, len(result.sgraph.planes), len(result.sgraph.rooms)), ape


def _assert_same_outcome(got, want, label):
    assert got[0] == want[0], label
    assert got[1] == pytest.approx(want[1], abs=1e-3), label


@pytest.mark.parametrize("name", ["two_rooms", "five_rooms", "corridor"])
def test_map_heading_45_degrees_gives_the_outcome_at_0(name):
    x, y = fixture_scenarios()[name]["waypoints"][0]
    plan = fixture_plan(name)
    for seed in range(5):
        at = {
            theta: _outcome(
                run_pipeline(plan, scenario_config(name, seed=seed, map_offset=[x, y, theta]))
            )
            for theta in (0.0, math.pi / 4)
        }
        _assert_same_outcome(at[math.pi / 4], at[0.0], (name, seed))
        (status, *_), ape = at[0.0]
        assert status == MatchStatus.MATCHED and ape <= 0.10, (name, seed)


def _case(label):
    """The plan document and scenario of a turned-plan case."""
    if label in FIXTURE_PLANS:
        return FIXTURE_PLANS[label](), fixture_scenarios()[label]
    plan = generate_random_plan(8, 2)
    return _plan_doc(plan), {"waypoints": route_waypoints(plan)}


@pytest.mark.parametrize(
    "label", ["two_rooms", "five_rooms", "corridor", "grid_2x2_variant", "rows8/2"]
)
def test_turned_plan_gives_the_unturned_outcome(label):
    doc, scenario = _case(label)
    plan = plan_from_dict(doc)
    want = [
        _outcome(run_pipeline(plan, SimConfig.from_dict({**scenario, "seed": seed})))
        for seed in SEEDS
    ]
    for angle in TURNS:
        turned_doc, waypoints = turned(doc, scenario["waypoints"], angle)
        turned_plan = plan_from_dict(turned_doc)
        assert build_a_graph(turned_plan).graph.total_cost() <= 1e-12
        c, s = math.cos(angle), math.sin(angle)
        for room in plan.rooms:
            cx, cy = plan.room_center(room.id)
            assert turned_plan.room_center(room.id) == pytest.approx(
                (c * cx - s * cy, s * cx + c * cy), abs=1e-9
            )
        for seed, outcome in zip(SEEDS, want):
            config = SimConfig.from_dict({**scenario, "waypoints": waypoints, "seed": seed})
            got = _outcome(run_pipeline(turned_plan, config))
            _assert_same_outcome(got, outcome, (label, angle, seed))


def _turn_wall(doc, wall_id, angle):
    """The document with one wall turned about its midpoint."""
    wall = next(w for w in doc["walls"] if w["id"] == wall_id)
    mid = (np.asarray(wall["start"]) + np.asarray(wall["end"])) / 2
    c, s = math.cos(angle), math.sin(angle)
    rot = np.array([[c, -s], [s, c]])
    wall["start"] = (mid + rot @ (np.asarray(wall["start"]) - mid)).tolist()
    wall["end"] = (mid + rot @ (np.asarray(wall["end"]) - mid)).tolist()
    return doc


def test_room_with_one_side_turned_is_refused():
    doc = _turn_wall(single_room_plan(), "w_e", 0.05)
    with pytest.raises(PlanError, match="room 'r1'"):
        plan_from_dict(doc)


def test_rhombus_room_is_refused():
    # the west and east walls leaned by the same shear: both pairs stay
    # opposed, but not perpendicular
    doc = single_room_plan()
    for w in doc["walls"]:
        if w["id"] in ("w_w", "w_e"):
            w["start"] = [w["start"][0] + 0.3 * w["start"][1], w["start"][1]]
            w["end"] = [w["end"][0] + 0.3 * w["end"][1], w["end"][1]]
    with pytest.raises(PlanError, match="room 'r1'"):
        plan_from_dict(doc)
