"""Command-line interface.

Exit codes of ``run``: 0 when the match succeeded, 2 when the final match was
ambiguous, 3 when no match was found. All other commands exit 0 on success
and 1 on errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path

from .a_graph import build_a_graph, load_plan
from .matcher import match, room_entries
from .factor_graph import FactorGraph
from .plans import generate_random_plan, write_fixtures
from .runner import _write_trajectory, evaluate_run_dir, load_scenario, run_estimator, run_scenario

STATUS_EXIT = {"matched": 0, "ambiguous": 2, "no_match": 3}


def _cmd_build_agraph(args) -> int:
    plan = load_plan(args.plan)
    agraph = build_a_graph(plan)
    out = Path(args.output)
    out.write_text(agraph.graph.to_json(indent=2) + "\n")
    print(f"wrote {out} ({len(plan.walls)} walls, {len(plan.rooms)} rooms)")
    return 0


def _cmd_simulate(args) -> int:
    plan, config, _ = load_scenario(args.scenario)
    if args.seed is not None:
        config = replace(config, seed=args.seed)
    _, sgraph = run_estimator(plan, config)
    out = Path(args.output)
    out.mkdir(parents=True, exist_ok=True)
    (out / "sgraph.json").write_text(sgraph.graph.to_json(indent=2) + "\n")
    _write_trajectory(out / "trajectory.csv", sgraph, None)
    print(
        f"simulated {len(sgraph.keyframes)} keyframes, {len(sgraph.planes)} planes, "
        f"{len(sgraph.rooms)} rooms -> {out}"
    )
    return 0


def _cmd_match(args) -> int:
    a_graph = FactorGraph.from_json(Path(args.agraph).read_text())
    s_graph = FactorGraph.from_json(Path(args.sgraph).read_text())
    result = match(room_entries(a_graph), room_entries(s_graph))
    text = result.to_json(indent=2)
    if args.output:
        Path(args.output).write_text(text + "\n")
    print(text)
    return STATUS_EXIT[result.status.value]


def _cmd_run(args) -> int:
    report = run_scenario(args.scenario, args.output, seed=args.seed)
    print(json.dumps({k: v for k, v in report.items() if k != "match_history"},
                     indent=2, sort_keys=True))
    return STATUS_EXIT[report["status"]]


def _cmd_eval(args) -> int:
    print(json.dumps(evaluate_run_dir(args.run_dir), indent=2, sort_keys=True))
    return 0


def _cmd_gen_plan(args) -> int:
    plan = generate_random_plan(args.n_rooms, args.seed)
    from .runner import _plan_doc

    out = Path(args.output)
    out.write_text(json.dumps(_plan_doc(plan), indent=2, sort_keys=True) + "\n")
    print(f"wrote {out} ({len(plan.rooms)} rooms, {len(plan.doorways)} doorways)")
    return 0


def _cmd_write_fixtures(args) -> int:
    written = write_fixtures(args.output)
    print(f"wrote {len(written)} fixture files to {args.output}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="planloc",
        description="Global robot localization against architectural floor plans.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build-agraph", help="build the plan graph from a floor-plan file")
    p.add_argument("plan")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=_cmd_build_agraph)

    p = sub.add_parser("simulate", help="simulate a scenario and estimate the robot graph")
    p.add_argument("scenario")
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("match", help="match a plan graph against a robot graph")
    p.add_argument("agraph")
    p.add_argument("sgraph")
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=_cmd_match)

    p = sub.add_parser("run", help="full pipeline: simulate, match, merge, evaluate")
    p.add_argument("scenario")
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("eval", help="recompute metrics from a run directory")
    p.add_argument("run_dir")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("gen-plan", help="generate a random floor plan")
    p.add_argument("n_rooms", type=int)
    p.add_argument("seed", type=int)
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=_cmd_gen_plan)

    p = sub.add_parser("write-fixtures", help="write the bundled plan/scenario fixtures")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=_cmd_write_fixtures)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
