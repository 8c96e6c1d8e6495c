"""Benchmark workloads: each turns a seed into the plan and SimConfig the pipeline gets.

A bench run with ``--seed n`` uses the consecutive seeds ``n .. n+k-1`` of its
workload (``k = seeds_per_pass``). The seed drives the simulator's odometry and
plane noise; the plan of a workload is the same for every seed, so that run
time measures the pipeline at a stated input size instead of the size of
whichever plan a seed happened to draw.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from planloc.a_graph import FloorPlan, plan_from_dict
from planloc.plans import (
    fixture_plan,
    fixture_scenarios,
    generate_random_plan,
    route_waypoints,
    row_plan,
)
from planloc.s_graph import SimConfig

# The 16-room plan drawn by generate_random_plan(16, 0). The route visits its
# first 12 rooms: 106 keyframes, so that p90 has at least 10 keyframes beyond
# it, in 12 to 18 s a run on a 2-vCPU x86-64 machine, so that a 60-s bench run
# times its seed three times. The whole route (137 keyframes) takes 20 to 30 s.
ROWS16_PLAN_SEED = 0
ROWS16_ROUTE_ROOMS = 12


@dataclass(frozen=True)
class Workload:
    name: str
    seeds_per_pass: int
    make_plan: Callable[[], FloorPlan]
    make_config: Callable[[FloorPlan, int], SimConfig]
    # True when the plan is symmetric, so that any MATCHED outcome is a
    # confident wrong merge; AMBIGUOUS and NO_MATCH are the right answers.
    symmetric: bool = False

    def seeds(self, seed: int) -> list[int]:
        return list(range(seed, seed + self.seeds_per_pass))


def _route_config(plan: FloorPlan, seed: int) -> SimConfig:
    return SimConfig(waypoints=tuple(route_waypoints(plan)), seed=seed)


def _rows16_config(plan: FloorPlan, seed: int) -> SimConfig:
    # route_waypoints alternates room centres and doorways
    waypoints = route_waypoints(plan)[: 2 * ROWS16_ROUTE_ROOMS - 1]
    return SimConfig(waypoints=tuple(waypoints), seed=seed)


def _five_rooms_config(plan: FloorPlan, seed: int) -> SimConfig:
    return SimConfig.from_dict({**fixture_scenarios()["five_rooms"], "seed": seed})


WORKLOADS = {
    w.name: w
    for w in (
        # The acceptance scenario: merges after 7 of 41 keyframes, so most
        # updates run extend_matches on a small merged graph.
        Workload(
            "five_rooms",
            6,
            lambda: fixture_plan("five_rooms"),
            _five_rooms_config,
        ),
        # A long run on a large graph: the whole-graph re-solve per keyframe
        # dominates, and the matcher idles after an early merge.
        Workload(
            "rows16",
            1,
            lambda: generate_random_plan(16, ROWS16_PLAN_SEED),
            _rows16_config,
        ),
        # Eight identical rooms staggered 0.5 m, symmetric under a half turn:
        # the matcher runs on every keyframe, and the right outcome is
        # AMBIGUOUS or NO_MATCH.
        Workload(
            "sym_rows8",
            10,
            lambda: plan_from_dict(
                row_plan([3.0] * 8, [4.0] * 8, [0.5 + 0.5 * k for k in range(8)])
            ),
            _route_config,
            symmetric=True,
        ),
    )
}


def run_failed(workload: Workload, status: str, room_corr_acc: float | None) -> bool:
    """Whether a seeded run's outcome is wrong for its workload."""
    if workload.symmetric:
        return status == "matched"
    return status != "matched" or room_corr_acc != 1.0
