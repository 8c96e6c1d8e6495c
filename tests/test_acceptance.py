"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete. The statistical criteria share one session-scoped
100-seed Monte Carlo of the bundled asymmetric five-room scenario.
"""

import math

import numpy as np
import pytest

from conftest import _correspondence_ok, scenario_config
from planloc.a_graph import build_a_graph
from planloc.geometry import Pose2, wrap_angle
from planloc.matcher import MatcherConfig, MatchStatus, propose_room_pairs
from planloc.plans import (
    FIXTURE_PLANS,
    fixture_dir,
    fixture_plan,
    generate_random_plan,
    route_waypoints,
)
from planloc.runner import run_pipeline, run_scenario
from planloc.s_graph import PlanSimulator, SGraph, SimConfig

from test_factor_graph import _random_kind_graph
from test_matcher import brute_force_assignments, synthetic_views


def _report(criterion: str, passed: bool, detail: str) -> None:
    print(f"[{'PASS' if passed else 'FAIL'}] {criterion}: {detail}")
    assert passed, f"{criterion}: {detail}"


def test_criterion_1_end_to_end_localization(monte_carlo_100):
    merged = [r for r in monte_carlo_100 if r["merged"]]
    ape_p95 = float(np.percentile([r["ape_rmse"] for r in merged], 95))
    runtime_ok = all(r["elapsed_s"] <= 60.0 for r in monte_carlo_100)
    detail = (
        f"{len(merged)}/100 merged, unaligned APE rmse p95 = {ape_p95:.4f} m "
        f"(<= 0.10), max runtime {max(r['elapsed_s'] for r in monte_carlo_100):.1f} s"
    )
    _report(
        "criterion 1 (end-to-end localization)",
        len(merged) == 100 and ape_p95 <= 0.10 and runtime_ok,
        detail,
    )


@pytest.mark.parametrize(
    "offset",
    [(2.0, 1.0, math.radians(30)), (-3.0, 4.0, math.radians(135)), (0.0, 0.0, 0.0)],
    ids=["t(2,1)r30", "t(-3,4)r135", "identity"],
)
def test_criterion_2_transform_recovery(offset):
    plan = fixture_plan("five_rooms")
    config = scenario_config(
        "five_rooms",
        odom_noise=[0.0, 0.0],
        plane_noise=[0.0, 0.0],
        map_offset=list(offset),
    )
    merged = run_pipeline(plan, config).merged
    ok = merged is not None
    if ok:
        t = merged.transform_estimate()
        terr = math.hypot(t.x - offset[0], t.y - offset[1])
        rerr = abs(wrap_angle(t.theta - offset[2]))
        ok = terr < 1e-6 and rerr < 1e-6
        detail = f"offset {offset}: translation err {terr:.2e} m, rotation err {rerr:.2e} rad"
    else:
        detail = f"offset {offset}: no merge happened"
    _report("criterion 2 (transform recovery)", ok, detail)


def test_criterion_3_matching_correctness():
    ok_runs = 0
    for k in range(10):
        n = 3 + k % 4
        plan = generate_random_plan(n, seed=300 + k)
        config = SimConfig(waypoints=tuple(route_waypoints(plan)), seed=300 + k)
        r = run_pipeline(plan, config)
        if r.merged is not None and _correspondence_ok(r.agraph, r.sgraph, r.merged):
            ok_runs += 1
    _report(
        "criterion 3 (matching correctness)",
        ok_runs == 10,
        f"{ok_runs}/10 random plans matched with the ground-truth correspondence",
    )


def test_criterion_4_symmetry_detection():
    plan = fixture_plan("grid_2x2")
    config = scenario_config("grid_2x2")
    sym = run_pipeline(plan, config)
    decisive = sym.match_result
    sym_ok = (
        sym.merged is None
        and decisive.status == MatchStatus.AMBIGUOUS
        and len(decisive.cluster) >= 2
    )
    plan_v = fixture_plan("grid_2x2_variant")
    config_v = scenario_config("grid_2x2_variant")
    v = run_pipeline(plan_v, config_v)
    variant_ok = v.merged is not None and _correspondence_ok(v.agraph, v.sgraph, v.merged)
    detail = (
        f"symmetric: {decisive.status.value} with cluster {len(decisive.cluster)}; "
        f"variant: {'matched' if variant_ok else 'failed'}"
    )
    _report("criterion 4 (symmetry detection)", sym_ok and variant_ok, detail)


def test_criterion_5_matching_oracle_equivalence():
    cfg = MatcherConfig()
    rng = np.random.default_rng(500)
    mismatches = 0
    for trial in range(20):
        n = 2 + trial % 4  # plans with up to 5 rooms
        plan = generate_random_plan(max(n, 2), seed=500 + trial)
        pose = Pose2(*rng.uniform(-3, 3, 2), rng.uniform(-math.pi, math.pi))
        k = int(rng.integers(2, len(plan.rooms) + 1))
        subset = sorted(rng.choice(len(plan.rooms), size=k, replace=False).tolist())
        _, a_rooms, s_rooms = synthetic_views(plan, pose, subset=subset)
        got = {
            frozenset((p.a_node, p.s_node) for p in c.pairs)
            for c in propose_room_pairs(a_rooms, s_rooms, cfg)
        }
        want = brute_force_assignments(a_rooms, s_rooms, cfg)
        if got != want:
            mismatches += 1
    _report(
        "criterion 5 (matching oracle equivalence)",
        mismatches == 0,
        f"{20 - mismatches}/20 candidate sets equal the brute-force enumeration",
    )


def test_criterion_6_solver_correctness():
    offender_total = 0
    for seed in range(50):
        offender_total += len(_random_kind_graph(seed).check_jacobians(tolerance=1e-5))
    traces_ok = True
    for name in FIXTURE_PLANS:
        plan = fixture_plan(name)
        config = scenario_config(name)
        sim = PlanSimulator(plan, config)
        sg = SGraph(sim.initial_map_pose)
        for step in sim.steps():
            sg.add_step(step)
            trace = sg.last_report.cost_trace
            if any(b > a + 1e-9 for a, b in zip(trace, trace[1:])):
                traces_ok = False
    _report(
        "criterion 6 (solver correctness)",
        offender_total == 0 and traces_ok,
        f"jacobian offenders over 50 random points: {offender_total}; "
        f"LM cost non-increasing on all bundled scenarios: {traces_ok}",
    )


def test_criterion_7_a_graph_consistency():
    worst = 0.0
    for name in FIXTURE_PLANS:
        worst = max(worst, build_a_graph(fixture_plan(name)).graph.total_cost())
    for seed in range(100):
        plan = generate_random_plan(2 + seed % 19, seed)
        worst = max(worst, build_a_graph(plan).graph.total_cost())
    _report(
        "criterion 7 (plan graph consistency)",
        worst <= 1e-9,
        f"worst initial cost over bundled + 100 generated plans: {worst:.2e}",
    )


def test_criterion_8_map_quality(monte_carlo_100):
    merged = [r for r in monte_carlo_100 if r["merged"]]
    p95 = float(np.percentile([r["map_rmse"] for r in merged], 95))
    _report(
        "criterion 8 (map quality)",
        p95 <= 0.05,
        f"map rmse p95 over {len(merged)} merged runs = {p95:.4f} m (<= 0.05)",
    )


def test_criterion_9_determinism(tmp_path):
    scenario = fixture_dir() / "five_rooms.scenario.json"
    d1, d2 = tmp_path / "run1", tmp_path / "run2"
    run_scenario(scenario, d1)
    run_scenario(scenario, d2)
    differing = []
    for path in sorted(d1.iterdir()):
        if path.name == "timing.json":
            continue
        if (d2 / path.name).read_bytes() != path.read_bytes():
            differing.append(path.name)
    _report(
        "criterion 9 (determinism)",
        not differing,
        "byte-identical artifacts (timing excluded)"
        if not differing
        else f"differing files: {differing}",
    )
