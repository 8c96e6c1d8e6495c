"""Benchmark of the planloc pipeline on one workload per invocation.

    python3 bench/run.py --workload five_rooms --seed 0 --seconds 20 --trace 0

Run from the root of a source checkout; the program is imported from its
``src/`` directory. Each run calls ``planloc.runner.run_pipeline`` on inputs
generated from the seed and checks its outputs. It prints one JSON report
line with every metric and the environment, then, as the last line, the
result: ``{"correct", "attempted", "failed", "metrics"}``, whose metrics are
the ``end_to_end`` ones of BENCHMARK.json with ``--trace 0`` and the
``per_layer`` ones with ``--trace 1``. The exit code is 0 when every check
passed, 1 when a check failed and 2 when the benchmark could not run.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("five_rooms", "rows16", "sym_rows8")
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# Extra set-ups made before each untraced pipeline run, so that each seed's
# set-up is timed several times in every pass.
SETUPS_PER_RUN = 4
# Every seed runs untraced at least this often (traced: once untraced and
# once traced), so that its timings are a least over repeats; see _least.
MIN_PASSES = 2

# Units the name alone does not give; see _unit for the rest.
UNITS = {
    "step_ms_p50": "ms",
    "step_ms_p90": "ms",
    "peak_rss_mb": "MB",
    "ape_rmse_m": "m",
    "map_rmse_m": "m",
    "room_corr_acc": "ratio",
    "plane_corr_acc": "ratio",
}


def _unit(name: str) -> str:
    if name in UNITS:
        return UNITS[name]
    if name.endswith(("_s", ".s")):
        return "s"
    return "ratio" if name.endswith("_frac") else "count"


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def _load_program():
    """Import planloc from this checkout's sources, with BLAS pinned to one thread.

    One thread keeps the LM's linear solves steady on a small machine; the
    variables must be set before numpy is first imported.
    """
    if not (SRC / "planloc" / "__init__.py").is_file():
        raise RuntimeError(f"no planloc sources under {SRC}")
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    import planloc

    if Path(planloc.__file__).resolve().parent != SRC / "planloc":
        raise RuntimeError(f"imported planloc from {planloc.__file__}, not from {SRC}")


def _environment() -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    commit = None
    if (ROOT / ".git").exists():
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30, check=False,
        )
        commit = out.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((SRC / "planloc").rglob("*")):
        if path.is_file() and path.suffix in (".py", ".json"):
            digest.update(path.relative_to(SRC).as_posix().encode())
            digest.update(path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {var: os.environ[var] for var in BLAS_THREAD_VARS},
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "commit": commit,
        "src_sha256": digest.hexdigest(),
    }


def _time_setup(workload, seed: int) -> float:
    """Plan generation to the estimator's construction, as run_pipeline does it."""
    from planloc.a_graph import build_a_graph
    from planloc.s_graph import PlanSimulator, SGraph, SGraphConfig

    start = time.perf_counter()
    plan = workload.make_plan()
    config = workload.make_config(plan, seed)
    build_a_graph(plan)
    sim = PlanSimulator(plan, config)
    SGraph(sim.initial_map_pose, SGraphConfig.for_noise(config.odom_noise, config.plane_noise))
    return time.perf_counter() - start


def _run_once(workload, seed: int, clock, tracer=None) -> dict:
    """One seeded run_pipeline call: its timings, outcome, accuracy and checks."""
    from oracle import correspondence, spurious_rooms
    from planloc.runner import run_pipeline
    from workloads import run_failed

    start = time.perf_counter()
    with tracer.span("plans.generate") if tracer else contextlib.nullcontext():
        plan = workload.make_plan()
    config = workload.make_config(plan, seed)
    called = time.perf_counter()
    result = run_pipeline(plan, config)
    run_s = time.perf_counter() - called

    report = result.report
    out = {
        "seed": seed,
        "status": report["status"],
        "run_s": run_s,
        "setup_s": clock.loop_entered - start,
        "updates": list(clock.updates),
        "errors": [],
    }
    deterministic = {
        "report": report,
        "spurious_rooms": spurious_rooms(result.agraph, result.sgraph),
    }
    if result.merged is not None:
        k = report["merged_at_step"]
        out["localize_s"] = clock.done_at[k] - called
        deterministic.update(correspondence(result.agraph, result.sgraph, result.merged))
        deterministic.update(
            localize_kf=k + 1,
            ape_rmse_m=report["ape"]["rmse"],
            map_rmse_m=report["map_rmse"]["rmse"],
        )
    out["deterministic"] = deterministic
    out["outcome_failed"] = run_failed(
        workload, report["status"], deterministic.get("room_corr_acc")
    )
    out["fingerprint"] = json.dumps(deterministic, sort_keys=True)

    n = report["n_keyframes"]
    if not n == report["n_steps"] == len(clock.updates):
        out["errors"].append(
            f"seed {seed}: {n} keyframes, {report['n_steps']} steps, {len(clock.updates)} updates"
        )
    values = [report["final_cost"], *(v for k, v in deterministic.items() if k.endswith("_m"))]
    if not all(math.isfinite(v) for v in values):
        out["errors"].append(f"seed {seed}: non-finite cost or error in {deterministic}")
    if (report["status"] == "matched") != (result.merged is not None):
        out["errors"].append(f"seed {seed}: status {report['status']} disagrees with the merge")
    if tracer is not None:
        layers = tracer.layer_metrics()
        layers.update(
            {
                "s_graph.rooms": len(result.sgraph.rooms),
                "s_graph.two_wall_rooms": len(result.sgraph.gammas),
                "s_graph.spurious_rooms": deterministic["spurious_rooms"],
                "fg.factors_final": len(result.sgraph.graph.factors()),
            }
        )
        if result.merged is not None:
            layers["merger.room_pairs"] = len(result.merged.room_pairs)
            layers["merger.plane_pairs"] = len(result.merged.plane_pairs)
        out["layers"] = layers
        out["fired"] = set(tracer.fired)
    return out


def _median_of(runs: list[dict], key: str):
    values = [r[key] for r in runs if key in r]
    return statistics.median(values) if values else None


def _measure(workload, seed: int, seconds: float, traced: bool):
    """Passes over the workload's seeds until the time is up.

    Each pass runs every seed once, so a seed's repeats are spread over the
    whole run. ``MIN_PASSES`` passes always run; a further pass starts only
    when it is expected to end within ``seconds`` of the start. With
    ``traced``, passes alternate between untraced and traced, starting
    untraced.
    """
    from spans import StepClock, Tracer

    seeds = workload.seeds(seed)
    deadline = time.perf_counter() + seconds
    _time_setup(workload, seeds[0])  # warm-up: first calls pay for lazy imports
    runs: list[dict] = []
    crashed: list[str] = []
    pass_s = 0.0
    n_pass = 0
    while n_pass < MIN_PASSES or time.perf_counter() + pass_s <= deadline:
        trace_pass = traced and n_pass % 2 == 1
        pass_start = time.perf_counter()
        for s in seeds:
            setups = [] if trace_pass else [_time_setup(workload, s) for _ in range(SETUPS_PER_RUN)]
            clock = StepClock()
            tracer = Tracer() if trace_pass else None
            with contextlib.ExitStack() as stack:
                if tracer is not None:
                    tracer.install(stack)
                clock.install(stack)
                try:
                    run = _run_once(workload, s, clock, tracer)
                except Exception:  # a crashed run is a failed operation; keep measuring
                    crashed.append(f"seed {s}:\n{traceback.format_exc()}")
                    continue
            run["traced"] = trace_pass
            run["setups"] = setups + [run["setup_s"]]
            runs.append(run)
        pass_s = max(pass_s, time.perf_counter() - pass_start)
        n_pass += 1
    return runs, crashed


def _least(runs: list[dict]) -> list[dict]:
    """Per seed, the least of each timing over the seed's repeats.

    A seed does the same work in every repeat (the fingerprint check holds it
    to that), so time above the least was added from outside the program: on
    a shared host, other tenants slow the machine by up to 1.6x for seconds
    to minutes at a time. A keyframe's update is its least over the repeats.
    """
    by_seed: dict[int, list[dict]] = {}
    for r in runs:
        by_seed.setdefault(r["seed"], []).append(r)
    least = []
    for rs in by_seed.values():
        out = {
            "run_s": min(r["run_s"] for r in rs),
            "setup_s": min(x for r in rs for x in r["setups"]),
            "updates": [min(u) for u in zip(*(r["updates"] for r in rs))],
        }
        if "localize_s" in rs[0]:
            out["localize_s"] = min(r["localize_s"] for r in rs)
        least.append(out)
    return least


def _summarize(runs) -> tuple[dict, list[str]]:
    """All metrics of the bench run, and the errors its checks found."""
    from spans import coverage_errors

    errors = [e for r in runs for e in r["errors"]]
    first = {}
    for r in runs:
        kept = first.setdefault(r["seed"], r)
        if kept["fingerprint"] != r["fingerprint"]:
            errors.append(f"seed {r['seed']}: deterministic outputs differ between repeats")

    plain = _least([r for r in runs if not r["traced"]])
    traced = [r for r in runs if r["traced"]]
    updates_ms = sorted(u * 1e3 for r in plain for u in r["updates"])
    merged = [r["deterministic"] for r in first.values() if r["status"] == "matched"]
    metrics = {
        "setup_s": _median_of(plain, "setup_s"),
        "run_s": _median_of(plain, "run_s"),
        "step_ms_p50": statistics.median(updates_ms),
        "step_ms_p90": statistics.quantiles(updates_ms, n=10)[8],
        "localize_s": _median_of(plain, "localize_s"),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "failed_runs_frac": sum(r["outcome_failed"] for r in first.values()) / len(first),
    }
    for key in ("localize_kf", "ape_rmse_m", "map_rmse_m", "room_corr_acc", "plane_corr_acc"):
        metrics[key] = _median_of(merged, key)
    if traced:
        for key in sorted({k for r in traced for k in r["layers"]}):
            metrics[key] = statistics.median(r["layers"][key] for r in traced if key in r["layers"])
        traced_run_s = _median_of(_least(traced), "run_s")
        metrics["trace.overhead_frac"] = traced_run_s / metrics["run_s"] - 1.0
        errors += coverage_errors([(r["fired"], r["status"] == "matched") for r in traced])
    metrics = {k: {"value": v, "unit": _unit(k)} for k, v in metrics.items() if v is not None}
    return metrics, errors


def main(argv=None) -> int:
    args = _parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    selected = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    try:
        _load_program()
    except (ImportError, RuntimeError) as exc:
        print(f"bench: cannot load the program: {exc}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    runs, crashed = _measure(workload, args.seed, args.seconds, bool(args.trace))
    if not runs:
        print("bench: every run crashed\n" + "\n".join(crashed), file=sys.stderr)
        return 2
    metrics, errors = _summarize(runs)
    missing = [name for name in selected if name not in metrics]
    if missing:
        errors.append(f"metrics not measured on {args.workload}: {missing}")
    errors += [
        f"{name} is measured in {metrics[name]['unit']}, BENCHMARK.json says {unit}"
        for name, unit in selected.items()
        if name in metrics and metrics[name]["unit"] != unit
    ]
    report = {
        "workload": args.workload,
        "seeds": workload.seeds(args.seed),
        "trace": args.trace,
        "environment": _environment(),
        "samples": {
            "runs": len(runs),
            "traced_runs": sum(r["traced"] for r in runs),
            "setups": sum(len(r["setups"]) for r in runs if not r["traced"]),
            "keyframe_updates": sum(len(r["updates"]) for r in runs if not r["traced"]),
            # keyframes behind step_ms_p50/p90: one least update each
            "keyframes": sum(len(r["updates"]) for r in _least([r for r in runs if not r["traced"]])),
        },
        "runs": [
            {k: r[k] for k in ("seed", "status", "outcome_failed", "traced", "run_s")}
            for r in runs
        ],
        "metrics": metrics,
        "errors": errors,
        "crashed": crashed,
    }
    print(json.dumps(report, sort_keys=True))
    for line in errors:
        print(f"bench: check failed: {line}", file=sys.stderr)
    if missing:
        return 1
    result = {
        "correct": not errors,
        "attempted": len(runs) + len(crashed),
        "failed": len(crashed),
        "metrics": {name: metrics[name] for name in selected},
    }
    print(json.dumps(result))
    return 0 if not errors else 1


if __name__ == "__main__":
    sys.exit(main())
