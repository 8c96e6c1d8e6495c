import math
import time

import pytest
from hypothesis import settings

from planloc.geometry import wrap_angle
from planloc.plans import fixture_plan, fixture_scenarios
from planloc.runner import run_estimator, run_pipeline
from planloc.s_graph import SimConfig

settings.register_profile("deterministic", derandomize=True)
settings.load_profile("deterministic")


def scenario_config(name: str, **overrides) -> SimConfig:
    doc = dict(fixture_scenarios()[name])
    doc.update(overrides)
    return SimConfig.from_dict(doc)


def turned(doc: dict, waypoints, angle: float) -> tuple[dict, list]:
    """A plan document and a route turned about the origin by ``angle``."""
    c, s = math.cos(angle), math.sin(angle)

    def turn(pt):
        return [c * pt[0] - s * pt[1], s * pt[0] + c * pt[1]]

    walls = [{**w, "start": turn(w["start"]), "end": turn(w["end"])} for w in doc["walls"]]
    doorways = [{**d, "position": turn(d["position"])} for d in doc["doorways"]]
    return {**doc, "walls": walls, "doorways": doorways}, [turn(p) for p in waypoints]


def simulate_sgraph(name: str, **overrides):
    """Simulator + estimator only, for a bundled scenario: (plan, sim, sgraph)."""
    plan = fixture_plan(name)
    return (plan, *run_estimator(plan, scenario_config(name, **overrides)))


@pytest.fixture(scope="session")
def five_rooms_run():
    plan = fixture_plan("five_rooms")
    return run_pipeline(plan, scenario_config("five_rooms"))


def _correspondence_ok(agraph, sgraph, merged) -> bool:
    """Provenance oracle: each merged room pair links the true plan room."""
    for a_vid, s_vid in merged.room_pairs.items():
        room_id = agraph.room_of_variable(a_vid)
        plan_room = next(r for r in agraph.plan.rooms if r.id == room_id)
        want = set(plan_room.surfaces.values())
        got = {sgraph.truth_of_plane(p) for p in sgraph.rooms[s_vid].planes}
        if got != want:
            return False
    return True


@pytest.fixture(scope="session")
def monte_carlo_100():
    """100 seeded end-to-end runs of the asymmetric five-room scenario.

    Shared by the acceptance criteria and the statistical module tests so the
    runs are paid for once per session.
    """
    plan = fixture_plan("five_rooms")
    records = []
    for seed in range(100):
        t0 = time.perf_counter()
        result = run_pipeline(plan, scenario_config("five_rooms", seed=seed))
        elapsed = time.perf_counter() - t0
        merged = result.merged
        rec = {"seed": seed, "merged": merged is not None, "elapsed_s": elapsed}
        if merged is not None:
            t = merged.transform_estimate()
            true = result.sim.map_offset
            rec.update(
                t_err=math.hypot(t.x - true.x, t.y - true.y),
                r_err=abs(wrap_angle(t.theta - true.theta)),
                ape_rmse=result.report["ape"]["rmse"],
                map_rmse=result.report["map_rmse"]["rmse"],
            )
        records.append(rec)
    return records
