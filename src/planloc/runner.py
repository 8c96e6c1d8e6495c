"""Scenario runner: simulate, estimate, match after every update, merge, evaluate.

One run produces a directory of artifacts:

=====================  ======================================================
file                   content
=====================  ======================================================
agraph.json            plan graph (factor-graph serialization)
graph.json             final robot / merged graph
match_result.json      the decisive match (the one merged, or the last seen)
match_history.json     per-step match status until the merge
trajectory.csv         k, estimated pose, ground-truth pose (plan frame when
                       merged, map frame otherwise)
planes_b.json          estimated wall surfaces in the plan frame
ape.json               unaligned absolute pose error (merged runs)
map_rmse.json          map quality (merged runs)
run_report.json        everything above summarized, the final cost and its
                       chi2 per factor kind; deterministic
timing.json            wall-clock phase timings (excluded from determinism)
=====================  ======================================================
"""

from __future__ import annotations

import csv
import json
import math
import time
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .a_graph import AGraph, FloorPlan, build_a_graph, load_plan, plan_from_dict
from .factor_graph import FactorGraph
from .geometry import Pose2, transform_phi_dist
from .matcher import MatchResult, MatchStatus, match, read_room_entries
from .merger import MergedState, extend_matches, localized_trajectory, merge
from .metrics import EstimatedSurface, compute_ape, compute_map_rmse
from .plans import fixture_dir, fixture_plan
from .s_graph import PlanSimulator, SGraph, SGraphConfig, SimConfig


class ScenarioError(ValueError):
    pass


@dataclass
class RunResult:
    status: MatchStatus
    report: dict
    sim: PlanSimulator
    sgraph: SGraph
    agraph: AGraph
    merged: MergedState | None
    match_result: MatchResult | None


def load_scenario(path) -> tuple[FloorPlan, SimConfig, dict]:
    path = Path(path)
    try:
        doc = json.loads(path.read_text())
    except OSError as exc:
        raise ScenarioError(f"cannot read scenario {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}") from exc
    if not isinstance(doc, dict):
        raise ScenarioError(f"{path}: scenario must be a JSON object")
    plan_ref = doc.get("plan")
    if not plan_ref or not isinstance(plan_ref, str):
        raise ScenarioError(f"{path}: scenario is missing the 'plan' reference, a string")
    if plan_ref.startswith("fixture:"):
        plan = fixture_plan(plan_ref.split(":", 1)[1])
    else:
        plan_path = Path(plan_ref)
        if not plan_path.is_absolute():
            candidates = [path.parent / plan_path, fixture_dir() / plan_path]
            plan_path = next((c for c in candidates if c.exists()), candidates[0])
        plan = load_plan(plan_path)
    return plan, SimConfig.from_dict(doc), doc


def _start(plan: FloorPlan, config: SimConfig) -> tuple[PlanSimulator, SGraph]:
    sim = PlanSimulator(plan, config)
    sgraph = SGraph(
        sim.initial_map_pose,
        SGraphConfig.for_noise(config.odom_noise, config.plane_noise),
    )
    return sim, sgraph


def run_estimator(plan: FloorPlan, config: SimConfig) -> tuple[PlanSimulator, SGraph]:
    """Simulate a scenario and estimate the robot graph alone, without the plan."""
    sim, sgraph = _start(plan, config)
    for step in sim.steps():
        sgraph.add_step(step)
    sgraph.final_optimize()
    return sim, sgraph


def run_pipeline(plan: FloorPlan, config: SimConfig) -> RunResult:
    """Execute the full loop on in-memory inputs.

    Matches after every update until the first unique match, merges it, then
    extends the merge to rooms observed later.
    """
    agraph = build_a_graph(plan)
    sim, sgraph = _start(plan, config)

    merged: MergedState | None = None
    decisive: MatchResult | None = None
    merged_at: int | None = None
    history: list[dict] = []
    for step in sim.steps():
        sgraph.add_step(step)
        if merged is None:
            # The robot's rooms in creation order, which is the order of their factors.
            rooms = ((vid, *rec.planes) for vid, rec in sgraph.rooms.items())
            result = match(agraph.rooms, read_room_entries(sgraph.graph, rooms))
            history.append({"step": step.index, "status": result.status.value})
            decisive = result
            if result.status == MatchStatus.MATCHED:
                merged = merge(agraph, sgraph, result)
                merged_at = step.index
        else:
            extend_matches(merged, sgraph)
    sgraph.final_optimize()

    status = MatchStatus.MATCHED if merged is not None else (
        decisive.status if decisive is not None else MatchStatus.NO_MATCH
    )

    report: dict = {
        "status": status.value,
        "merged_at_step": merged_at,
        "n_steps": sim.n_steps(),
        "n_keyframes": len(sgraph.keyframes),
        "n_planes": len(sgraph.planes),
        "n_rooms": len(sgraph.rooms),
        "n_two_wall_rooms": len(sgraph.gammas),
        "seed": config.seed,
        "match_history": history,
        "final_cost": sgraph.graph.total_cost(),
        "final_chi2_by_kind": chi2_by_kind(sgraph.graph),
    }
    if merged is not None:
        t = merged.transform_estimate()
        traj = localized_trajectory(merged, sgraph)
        ape = compute_ape(traj, sgraph.gt_plan)
        estimates = estimated_surfaces(merged, sgraph, agraph)
        map_rmse = compute_map_rmse(estimates, plan)
        report.update(
            {
                "transform": t.as_array().tolist(),
                "rooms_merged": len(merged.room_pairs),
                "planes_merged": len(merged.plane_pairs),
                "match_affinity": None if decisive is None or decisive.best is None
                else decisive.best.affinity,
                "ape": ape.to_json_dict(),
                "map_rmse": map_rmse.to_json_dict(),
            }
        )
    return RunResult(status, report, sim, sgraph, agraph, merged, decisive)


def chi2_by_kind(graph: FactorGraph) -> dict[str, float]:
    """Summed chi2 of the graph's factors per factor kind."""
    out: dict[str, float] = {}
    for fid, factor in sorted(graph.factors().items()):
        out[factor.kind.value] = out.get(factor.kind.value, 0.0) + graph.chi2(fid)
    return out


def estimated_surfaces(
    merged: MergedState, sgraph: SGraph, agraph: AGraph
) -> list[EstimatedSurface]:
    """Robot planes re-expressed in the plan frame, with merge associations."""
    t = merged.transform_estimate()
    assoc = {s_vid: agraph.surface_of_plane(a_vid) for a_vid, s_vid in merged.plane_pairs.items()}
    out = []
    for vid, rec in sgraph.planes.items():
        phi_b, d_b = transform_phi_dist(t, *merged.graph.value(vid))
        m_hat = np.array([-math.sin(phi_b), math.cos(phi_b)])
        shift = float(m_hat @ t.translation)
        extent = (rec.extent[0] + shift, rec.extent[1] + shift)
        out.append(EstimatedSurface(phi_b, d_b, extent, assoc.get(vid)))
    return out


def run_scenario(scenario_path, out_dir, seed: int | None = None) -> dict:
    """Run a scenario file end to end and write all artifacts to ``out_dir``."""
    t_start = time.perf_counter()
    plan, config, raw = load_scenario(scenario_path)
    if seed is not None:
        config = replace(config, seed=seed)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    t_sim = time.perf_counter()
    result = run_pipeline(plan, config)
    t_done = time.perf_counter()

    (out / "agraph.json").write_text(result.agraph.graph.to_json(indent=2) + "\n")
    (out / "plan.json").write_text(json.dumps(_plan_doc(plan), indent=2, sort_keys=True) + "\n")
    (out / "graph.json").write_text(result.sgraph.graph.to_json(indent=2) + "\n")
    if result.match_result is not None:
        (out / "match_result.json").write_text(
            result.match_result.to_json(indent=2) + "\n"
        )
    (out / "match_history.json").write_text(
        json.dumps(result.report["match_history"], indent=2, sort_keys=True) + "\n"
    )
    _write_trajectory(out / "trajectory.csv", result.sgraph, result.merged)
    if result.merged is not None:
        estimates = estimated_surfaces(result.merged, result.sgraph, result.agraph)
        (out / "planes_b.json").write_text(
            json.dumps(
                [
                    {
                        "phi": e.phi,
                        "d": e.d,
                        "extent": list(e.extent),
                        "surface": e.surface_id,
                    }
                    for e in estimates
                ],
                indent=2,
                sort_keys=True,
            )
            + "\n"
        )
        (out / "ape.json").write_text(
            json.dumps(result.report["ape"], indent=2, sort_keys=True) + "\n"
        )
        (out / "map_rmse.json").write_text(
            json.dumps(result.report["map_rmse"], indent=2, sort_keys=True) + "\n"
        )
    (out / "run_report.json").write_text(
        json.dumps(result.report, indent=2, sort_keys=True) + "\n"
    )
    (out / "timing.json").write_text(
        json.dumps(
            {
                "setup_s": t_sim - t_start,
                "pipeline_s": t_done - t_sim,
                "total_s": time.perf_counter() - t_start,
            },
            indent=2,
            sort_keys=True,
        )
        + "\n"
    )
    return result.report


def _plan_doc(plan: FloorPlan) -> dict:
    return {
        "walls": [
            {
                "id": w.id,
                "start": list(w.start),
                "end": list(w.end),
                "thickness": w.thickness,
            }
            for w in plan.walls
        ],
        "rooms": [{"id": r.id, "surfaces": dict(r.surfaces)} for r in plan.rooms],
        "doorways": [
            {"id": d.id, "position": list(d.position), "rooms": list(d.rooms)}
            for d in plan.doorways
        ],
    }


# The columns of trajectory.csv after the keyframe index k.
_POSE_COLUMNS = ("est_x", "est_y", "est_theta", "gt_x", "gt_y", "gt_theta")


def _write_trajectory(path: Path, sg: SGraph, merged: MergedState | None) -> None:
    """k, estimated and true pose per keyframe: plan frame when merged, map frame otherwise."""
    if merged is not None:
        est = localized_trajectory(merged, sg)
        gt = sg.gt_plan
    else:
        est = sg.keyframe_poses()
        gt = sg.gt_map
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["k", *_POSE_COLUMNS])
        for k, (e, g) in enumerate(zip(est, gt)):
            writer.writerow(
                [k, repr(e.x), repr(e.y), repr(e.theta), repr(g.x), repr(g.y), repr(g.theta)]
            )


def evaluate_run_dir(run_dir) -> dict:
    """Recompute the metrics of a finished run from its artifacts.

    A run_report.json without its status, a trajectory.csv without a pose
    column or with a row short of a pose cell, or a planes_b.json that is not a
    list of objects with a numeric plane, an extent of two numbers and a surface
    id or null, raises ScenarioError naming the file, the row and the field.
    """
    run_dir = Path(run_dir)
    report_path, trajectory_path = run_dir / "run_report.json", run_dir / "trajectory.csv"
    report = json.loads(report_path.read_text())
    _require(report, ("status",), str(report_path))
    out: dict = {"status": report["status"]}
    with open(trajectory_path, newline="") as fh:
        reader = csv.DictReader(fh)
        rows = list(reader)
    for column in _POSE_COLUMNS:
        if column not in (reader.fieldnames or ()):
            raise ScenarioError(f"{trajectory_path}: missing column {column!r}")
    for k, row in enumerate(rows):
        _require(row, _POSE_COLUMNS, f"{trajectory_path}: row {k}")
    est = [Pose2(float(r["est_x"]), float(r["est_y"]), float(r["est_theta"])) for r in rows]
    gt = [Pose2(float(r["gt_x"]), float(r["gt_y"]), float(r["gt_theta"])) for r in rows]
    out["ape"] = compute_ape(est, gt).to_json_dict()
    planes_path = run_dir / "planes_b.json"
    if planes_path.exists():
        plan = _plan_of_report(run_dir)
        docs = json.loads(planes_path.read_text())
        if not isinstance(docs, list):
            raise ScenarioError(f"{planes_path}: not a list of planes")
        estimates = [_estimated_surface(d, f"{planes_path}: entry {k}") for k, d in enumerate(docs)]
        out["map_rmse"] = compute_map_rmse(estimates, plan).to_json_dict()
    return out


def _require(record: object, fields, where: str) -> None:
    """Raise ScenarioError at ``where`` for the first of ``fields`` that ``record`` leaves out."""
    if not isinstance(record, dict):
        raise ScenarioError(f"{where}: not an object")
    for name in fields:
        if record.get(name) is None:
            raise ScenarioError(f"{where}: missing field {name!r}")


def _estimated_surface(doc: object, where: str) -> EstimatedSurface:
    """A planes_b.json entry, checked field by field; ScenarioError at ``where`` names the field."""
    _require(doc, ("phi", "d", "extent"), where)

    def number(value) -> bool:
        return isinstance(value, (int, float)) and not isinstance(value, bool)

    for name in ("phi", "d"):
        if not number(doc[name]):
            raise ScenarioError(f"{where}: field {name!r} must be a number, got {doc[name]!r}")
    extent = doc["extent"]
    if not (isinstance(extent, list) and len(extent) == 2 and all(map(number, extent))):
        raise ScenarioError(f"{where}: field 'extent' must be two numbers, got {extent!r}")
    surface = doc.get("surface")
    if not (surface is None or isinstance(surface, str)):
        raise ScenarioError(f"{where}: field 'surface' must be a string or null, got {surface!r}")
    return EstimatedSurface(doc["phi"], doc["d"], tuple(extent), surface)


def _plan_of_report(run_dir: Path) -> FloorPlan:
    plan_path = run_dir / "plan.json"
    if not plan_path.exists():
        raise ScenarioError(f"{run_dir}: plan.json missing; cannot recompute the map metric")
    return plan_from_dict(json.loads(plan_path.read_text()))
