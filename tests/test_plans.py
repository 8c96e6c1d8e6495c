import json

import pytest

from conftest import _correspondence_ok, scenario_config
from planloc.a_graph import build_a_graph, load_plan
from planloc.plans import (
    FIXTURE_PLANS,
    PlanGenerationError,
    fixture_dir,
    fixture_plan,
    fixture_scenarios,
    generate_random_plan,
    route_waypoints,
    write_fixtures,
)
from planloc.matcher import MatchStatus
from planloc.runner import load_scenario, run_pipeline
from planloc.s_graph import PlanSimulator


def test_all_fixture_plans_validate():
    for name in FIXTURE_PLANS:
        plan = fixture_plan(name)
        assert build_a_graph(plan).graph.total_cost() <= 1e-9


def test_fixture_files_match_builders():
    # the committed fixture JSONs are exactly what the builders produce
    for name, builder in FIXTURE_PLANS.items():
        path = fixture_dir() / f"{name}.plan.json"
        assert path.exists(), f"missing committed fixture {path}"
        assert json.loads(path.read_text()) == builder()
    for name, scenario in fixture_scenarios().items():
        path = fixture_dir() / f"{name}.scenario.json"
        assert json.loads(path.read_text()) == scenario


def test_fixture_scenario_paths_resolve_and_run():
    for name in fixture_scenarios():
        plan, config, _ = load_scenario(fixture_dir() / f"{name}.scenario.json")
        # waypoints lie in free space: the simulator validates on construction
        PlanSimulator(plan, config)


FIXTURE_OUTCOMES = {
    "corridor": MatchStatus.MATCHED,
    "five_rooms": MatchStatus.MATCHED,
    "grid_2x2_variant": MatchStatus.MATCHED,
    "two_rooms": MatchStatus.MATCHED,
    "grid_2x2": MatchStatus.AMBIGUOUS,
    "single_room": MatchStatus.NO_MATCH,
}


def test_fixture_outcome_matrix():
    """Each bundled scenario at its own seed: its status, right room pairs, APE within 0.10 m."""
    assert set(FIXTURE_OUTCOMES) == set(fixture_scenarios())
    for name, status in FIXTURE_OUTCOMES.items():
        result = run_pipeline(fixture_plan(name), scenario_config(name))
        assert result.status == status, name
        if status == MatchStatus.MATCHED:
            assert result.merged.room_pairs, name
            assert _correspondence_ok(result.agraph, result.sgraph, result.merged), name
            assert result.report["ape"]["rmse"] <= 0.10, name


def test_write_fixtures_roundtrip(tmp_path):
    written = write_fixtures(tmp_path)
    assert len(written) == 2 * len(FIXTURE_PLANS)
    for p in written:
        if p.name.endswith(".plan.json"):
            load_plan(p)


def test_generate_random_plan_small():
    plan = generate_random_plan(2, seed=7)
    assert len(plan.rooms) == 2
    assert len(plan.doorways) == 1


@pytest.mark.parametrize("n", [3, 5, 9, 20])
def test_generate_random_plan_tree_property(n):
    plan = generate_random_plan(n, seed=1)
    assert len(plan.doorways) == n - 1
    rooms = {r.id for r in plan.rooms}
    # the doorways connect all rooms (chain layout)
    linked = set()
    for d in plan.doorways:
        linked.update(d.rooms)
    assert linked == rooms


def test_generate_random_plan_deterministic():
    assert generate_random_plan(6, 42) == generate_random_plan(6, 42)


def test_generate_random_plan_bounds():
    with pytest.raises(PlanGenerationError):
        generate_random_plan(1, 0)
    with pytest.raises(PlanGenerationError):
        generate_random_plan(21, 0)


def test_generated_plans_build_zero_cost_graphs():
    for seed in range(20):
        plan = generate_random_plan(2 + seed % 7, seed)
        assert build_a_graph(plan).graph.total_cost() <= 1e-9


def test_route_waypoints_visits_all_rooms():
    plan = generate_random_plan(4, 3)
    wps = route_waypoints(plan)
    assert len(wps) == 4 + 3  # centers interleaved with doorways
