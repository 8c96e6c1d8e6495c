import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import planloc
from planloc.cli import main
from planloc.plans import fixture_dir


def fixture(name: str) -> str:
    return str(fixture_dir() / name)


def test_build_agraph(tmp_path, capsys):
    out = tmp_path / "agraph.json"
    rc = main(["build-agraph", fixture("two_rooms.plan.json"), "-o", str(out)])
    assert rc == 0
    doc = json.loads(out.read_text())
    assert {"variables", "factors"} <= set(doc)


def test_gen_plan(tmp_path):
    out = tmp_path / "plan.json"
    assert main(["gen-plan", "4", "9", "-o", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert len(doc["rooms"]) == 4


def test_simulate_and_match(tmp_path):
    agraph = tmp_path / "agraph.json"
    assert main(["build-agraph", fixture("two_rooms.plan.json"), "-o", str(agraph)]) == 0
    simdir = tmp_path / "sim"
    assert main(["simulate", fixture("two_rooms.scenario.json"), "-o", str(simdir)]) == 0
    assert (simdir / "sgraph.json").exists()
    assert (simdir / "trajectory.csv").exists()
    match_out = tmp_path / "match.json"
    rc = main(["match", str(agraph), str(simdir / "sgraph.json"), "-o", str(match_out)])
    assert rc == 0  # matched
    doc = json.loads(match_out.read_text())
    assert doc["status"] == "matched"


def test_simulate_and_match_corridor(tmp_path):
    # the corridor estimator removes two-wall rooms; its graph must read back
    agraph = tmp_path / "agraph.json"
    assert main(["build-agraph", fixture("corridor.plan.json"), "-o", str(agraph)]) == 0
    simdir = tmp_path / "sim"
    assert main(["simulate", fixture("corridor.scenario.json"), "-o", str(simdir)]) == 0
    assert main(["match", str(agraph), str(simdir / "sgraph.json")]) == 0  # matched


def test_run_and_eval(tmp_path, capsys):
    rundir = tmp_path / "run"
    rc = main(["run", fixture("two_rooms.scenario.json"), "-o", str(rundir)])
    assert rc == 0
    report = json.loads((rundir / "run_report.json").read_text())
    assert report["status"] == "matched"
    assert (rundir / "ape.json").exists()
    by_kind = report["final_chi2_by_kind"]
    assert {"odometry", "pose_plane", "plane_to_plane", "room_to_room"} <= set(by_kind)
    assert sum(by_kind.values()) == pytest.approx(report["final_cost"], rel=1e-12)
    capsys.readouterr()
    assert main(["eval", str(rundir)]) == 0
    out = capsys.readouterr().out
    recomputed = json.loads(out)
    assert recomputed["ape"]["rmse"] == pytest.approx(report["ape"]["rmse"], rel=1e-12)


def test_run_is_byte_identical_across_hash_seeds(tmp_path):
    # Two interpreters with different string-hash seeds and one BLAS thread
    # must write the same artifacts; only timing.json holds wall-clock times.
    src = str(Path(planloc.__file__).parents[1])
    outputs = []
    for hash_seed in ("0", "1"):
        out = tmp_path / hash_seed
        env = {
            **os.environ,
            "PYTHONHASHSEED": hash_seed,
            "OPENBLAS_NUM_THREADS": "1",
            "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])),
        }
        subprocess.run(
            [sys.executable, "-m", "planloc.cli", "run", fixture("two_rooms.scenario.json"),
             "-o", str(out)],
            env=env,
            check=True,
            capture_output=True,
        )
        files = (p for p in out.rglob("*") if p.is_file() and p.name != "timing.json")
        outputs.append({p.relative_to(out): p.read_bytes() for p in files})
    assert len(outputs[0]) > 5
    assert outputs[0] == outputs[1]


def test_run_exit_code_reflects_ambiguity(tmp_path):
    rc = main(["run", fixture("grid_2x2.scenario.json"), "-o", str(tmp_path / "amb")])
    assert rc == 2


def test_run_exit_code_no_match(tmp_path):
    rc = main(["run", fixture("single_room.scenario.json"), "-o", str(tmp_path / "nm")])
    assert rc == 3


def test_seed_override_changes_stream(tmp_path):
    d1, d2, d3 = (tmp_path / n for n in ("a", "b", "c"))
    main(["run", fixture("two_rooms.scenario.json"), "-o", str(d1)])
    main(["run", fixture("two_rooms.scenario.json"), "-o", str(d2), "--seed", "99"])
    main(["run", fixture("two_rooms.scenario.json"), "-o", str(d3)])
    g1 = (d1 / "graph.json").read_text()
    g2 = (d2 / "graph.json").read_text()
    g3 = (d3 / "graph.json").read_text()
    assert g1 != g2
    assert g1 == g3


def test_error_paths_exit_one(tmp_path, capsys):
    assert main(["build-agraph", str(tmp_path / "missing.json"), "-o", str(tmp_path / "x")]) == 1
    err = capsys.readouterr().err
    assert "error:" in err
    scenario = tmp_path / "no_waypoints.scenario.json"
    scenario.write_text(json.dumps({"plan": "fixture:two_rooms", "seed": 0}))
    assert main(["run", str(scenario), "-o", str(tmp_path / "run")]) == 1
    assert "error:" in capsys.readouterr().err
    negative_range = tmp_path / "negative_range.scenario.json"
    doc = json.loads(Path(fixture("two_rooms.scenario.json")).read_text())
    negative_range.write_text(json.dumps({**doc, "plan": "fixture:two_rooms", "sensor_range": -6.0}))
    assert main(["run", str(negative_range), "-o", str(tmp_path / "run_neg")]) == 1
    err = capsys.readouterr().err
    assert "error:" in err and "sensor_range" in err
    for field, bad in (("odom_noise", [0.01]), ("plane_noise", [0.02, 0.05, 0.1])):
        bad_noise = tmp_path / f"bad_{field}.scenario.json"
        bad_noise.write_text(json.dumps({**doc, "plan": "fixture:two_rooms", field: bad}))
        assert main(["run", str(bad_noise), "-o", str(tmp_path / f"run_{field}")]) == 1
        err = capsys.readouterr().err
        assert "error:" in err and field in err
    # fields of the wrong type, and a document that is not an object
    scenario_doc = {**doc, "plan": "fixture:two_rooms"}
    for i, bad in enumerate((
        {**scenario_doc, "waypoints": 5},
        {**scenario_doc, "seed": None},
        {**scenario_doc, "plane_noise": 5},
        {**scenario_doc, "keyframe_spacing": None},
        {**scenario_doc, "keyframe_spacing": float("inf")},
        {**scenario_doc, "waypoints": [[float("nan"), 1.0], *scenario_doc["waypoints"][1:]]},
        {**scenario_doc, "plan": 5},
        {**scenario_doc, "plan": "fixture:no_such_plan"},
        [scenario_doc],
    )):
        scenario.write_text(json.dumps(bad))
        assert main(["run", str(scenario), "-o", str(tmp_path / f"run_bad_{i}")]) == 1
        assert "error:" in capsys.readouterr().err
    plan_doc = json.loads(Path(fixture("two_rooms.plan.json")).read_text())
    walls, rooms = plan_doc["walls"], plan_doc["rooms"]
    plan = tmp_path / "bad.plan.json"
    for bad in (
        {**plan_doc, "walls": 5},
        {**plan_doc, "walls": [[1, 2]]},
        {**plan_doc, "rooms": [{**rooms[0], "surfaces": 5}, *rooms[1:]]},
        {**plan_doc, "walls": [{**walls[0], "thickness": None}, *walls[1:]]},
        # non-finite numbers, which Python's json reads and writes
        {**plan_doc, "walls": [{**walls[0], "thickness": float("nan")}, *walls[1:]]},
        {**plan_doc, "walls": [{**walls[0], "start": [float("nan"), 0.0]}, *walls[1:]]},
        {**plan_doc, "walls": [{**walls[0], "end": [0.0, float("inf")]}, *walls[1:]]},
        {**plan_doc, "doorways": [{**plan_doc["doorways"][0], "position": [float("-inf"), 0.0]}]},
    ):
        plan.write_text(json.dumps(bad))
        assert main(["build-agraph", str(plan), "-o", str(tmp_path / "bad_agraph.json")]) == 1
        assert "error:" in capsys.readouterr().err
    # run directories missing the run's status or the trajectory's pose columns
    run_dir = tmp_path / "bad_run"
    run_dir.mkdir()
    for report, trajectory, field in (
        ({}, "k,est_x,est_y,est_theta,gt_x,gt_y,gt_theta\n", "status"),
        ({"status": "matched"}, "k,gt_x,gt_y,gt_theta\n0,0,0,0\n", "est_x"),
    ):
        (run_dir / "run_report.json").write_text(json.dumps(report))
        (run_dir / "trajectory.csv").write_text(trajectory)
        assert main(["eval", str(run_dir)]) == 1
        err = capsys.readouterr().err
        assert "error:" in err and field in err
    graph = tmp_path / "no_variables.json"
    graph.write_text(json.dumps({"factors": []}))
    assert main(["match", str(graph), str(graph)]) == 1
    assert "error:" in capsys.readouterr().err
    # documents that are not graphs, and kinds this version does not have
    wall = {"kind": "wall", "index": 0, "value": [0, 0], "fixed": False}
    for bad in (
        [],
        {"variables": [1], "factors": []},
        {"variables": [], "factors": ["x"]},
        {"variables": {}, "factors": []},
        {"variables": [wall], "factors": []},
        {"variables": [{**wall, "kind": "floor"}], "factors": []},
        {"variables": [{**wall, "kind": "room", "index": "x"}], "factors": []},
        # graph files of versions that solved two-wall rooms
        {"variables": [{**wall, "kind": "two_wall_room"}], "factors": []},
        {
            "variables": [
                {**wall, "kind": "room"},
                {**wall, "kind": "plane", "value": [0, 1]},
                {**wall, "kind": "plane", "index": 1, "value": [3.14, 1]},
            ],
            "factors": [{
                "id": 0,
                "kind": "room_to_walls",
                "variables": [["room", 0], ["plane", 0], ["plane", 1]],
                "measurement": None,
                "information": [[25, 0], [0, 25]],
            }],
        },
    ):
        graph.write_text(json.dumps(bad))
        assert main(["match", str(graph), str(graph)]) == 1
        assert "error:" in capsys.readouterr().err


def test_write_fixtures_cli(tmp_path):
    assert main(["write-fixtures", "-o", str(tmp_path)]) == 0
    assert (tmp_path / "five_rooms.plan.json").exists()


def test_simulate_and_run_write_the_same_trajectory(tmp_path):
    # single_room never matches, so both commands write map-frame poses
    scenario = fixture("single_room.scenario.json")
    assert main(["simulate", scenario, "-o", str(tmp_path / "sim")]) == 0
    assert main(["run", scenario, "-o", str(tmp_path / "run")]) == 3  # no_match
    sim = (tmp_path / "sim" / "trajectory.csv").read_bytes()
    assert sim == (tmp_path / "run" / "trajectory.csv").read_bytes()
