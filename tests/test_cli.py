import json

import pytest

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
    graph = tmp_path / "no_variables.json"
    graph.write_text(json.dumps({"factors": []}))
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
