"""Timing hooks installed from outside the program, on its public names only.

``StepClock`` times the pipeline loop once per keyframe and is installed on
every run; it costs two clock reads per keyframe. ``Tracer`` is installed on
traced runs only: it wraps the public calls into each layer, records nested
spans (so a span's self time excludes its child spans) and counts work where
it happens. Both patch names on their owners and restore them on exit; a name
that no longer exists raises ``AttributeError`` at install time, so the
benchmark fails loudly instead of reporting zeros.
"""

from __future__ import annotations

import contextlib
import functools
import time
from collections import Counter, defaultdict

import planloc.matcher
import planloc.runner
from planloc.factor_graph import FactorGraph
from planloc.s_graph import PlanSimulator, SGraph


def _patch(stack: contextlib.ExitStack, owner, attr: str, make) -> None:
    original = getattr(owner, attr)
    setattr(owner, attr, make(original))
    stack.callback(setattr, owner, attr, original)


class StepClock:
    """Per-keyframe update latency of ``run_pipeline``, read at ``PlanSimulator.steps``.

    The loop body between two yields of ``steps()`` is one online update:
    ``add_step`` plus that keyframe's ``match`` (and ``merge``) or
    ``extend_matches``. Simulating the next keyframe is not part of it.
    """

    def __init__(self):
        self.loop_entered: float | None = None
        self.updates: list[float] = []  # seconds per keyframe update
        self.done_at: list[float] = []  # clock reading when each update ended

    def install(self, stack: contextlib.ExitStack) -> None:
        def make(steps):
            @functools.wraps(steps)
            def timed_steps(sim):
                self.loop_entered = time.perf_counter()
                for step in steps(sim):
                    start = time.perf_counter()
                    yield step
                    end = time.perf_counter()
                    self.updates.append(end - start)
                    self.done_at.append(end)

            return timed_steps

        _patch(stack, PlanSimulator, "steps", make)


# Public names the tracer wraps, as (owner, attribute). ``runner`` imports
# the pipeline stages by name, so those are wrapped on ``planloc.runner``;
# the matcher stages are looked up on ``planloc.matcher`` at call time.
WRAPPED = (
    (PlanSimulator, "steps"),
    (SGraph, "associate_planes"),
    (SGraph, "detect_rooms"),
    (SGraph, "final_optimize"),
    (FactorGraph, "optimize"),
    (FactorGraph, "total_cost"),
    (FactorGraph, "chi2"),
    (FactorGraph, "residual_and_jacobians"),
    (FactorGraph, "evaluate_residual"),
    (planloc.matcher, "propose_room_pairs"),
    (planloc.matcher, "propose_wall_pairs"),
    (planloc.matcher, "combine_bottom_up"),
    (planloc.matcher, "score_candidate"),
    (planloc.runner, "build_a_graph"),
    (planloc.runner, "match"),
    (planloc.runner, "merge"),
    (planloc.runner, "extend_matches"),
    (planloc.runner, "compute_ape"),
    (planloc.runner, "compute_map_rmse"),
)


def public_name(owner, attr: str) -> str:
    return f"{getattr(owner, '__name__', owner)}.{attr}"


# Names that run only after a merge; they must stay silent on unmerged runs.
MERGED_ONLY = {
    public_name(planloc.runner, attr)
    for attr in ("merge", "extend_matches", "compute_ape", "compute_map_rmse")
}


class Tracer:
    """Spans and counters of one pipeline run."""

    def __init__(self):
        self._open: list[list] = []  # [span name, seconds spent in child spans]
        self.total: defaultdict[str, float] = defaultdict(float)
        self.self_time: defaultdict[str, float] = defaultdict(float)
        self.calls: Counter[str] = Counter()
        self.counts: Counter[str] = Counter()
        self.fired: set[str] = set()

    def parent(self) -> str | None:
        return self._open[-1][0] if self._open else None

    @contextlib.contextmanager
    def span(self, name: str):
        frame = [name, 0.0]
        self._open.append(frame)
        start = time.perf_counter()
        try:
            yield
        finally:
            elapsed = time.perf_counter() - start
            self._open.pop()
            self.total[name] += elapsed
            self.self_time[name] += elapsed - frame[1]
            self.calls[name] += 1
            if self._open:
                self._open[-1][1] += elapsed

    def install(self, stack: contextlib.ExitStack) -> None:
        hooks = {
            "steps": self._steps,
            "associate_planes": self._associate_planes,
            "optimize": self._optimize,
            "total_cost": self._total_cost,
            "chi2": self._chi2,
            "residual_and_jacobians": self._factor_eval,
            "evaluate_residual": self._factor_eval,
            "propose_room_pairs": self._room_cands,
            "propose_wall_pairs": self._wall_pairs,
            "combine_bottom_up": self._combined,
            "score_candidate": self._scored,
        }
        spans = {
            "detect_rooms": "s_graph.detect_rooms",
            "final_optimize": "fg.final_optimize",
            "build_a_graph": "a_graph.build",
            "match": "matcher.match",
            "merge": "merger.merge",
            "extend_matches": "merger.extend",
            "compute_ape": "metrics",
            "compute_map_rmse": "metrics",
        }
        for owner, attr in WRAPPED:
            name = public_name(owner, attr)
            hook = hooks.get(attr) or functools.partial(self._timed, spans[attr])
            _patch(stack, owner, attr, functools.partial(self._wrap, name, hook))

    def _wrap(self, name: str, hook, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.fired.add(name)
            return hook(fn, *args, **kwargs)

        return wrapper

    # -- hooks: each calls the original and records its span or counts ------

    def _timed(self, span_name, fn, *args, **kwargs):
        with self.span(span_name):
            return fn(*args, **kwargs)

    def _steps(self, fn, sim):
        steps = fn(sim)
        while True:
            with self.span("sim.observe"):
                step = next(steps, None)
            if step is None:
                return
            self.counts["sim.observations"] += len(step.observations)
            yield step

    def _associate_planes(self, fn, sgraph, keyframe, observations):
        known = len(sgraph.planes)
        with self.span("s_graph.associate"):
            out = fn(sgraph, keyframe, observations)
        self.counts["s_graph.assoc_obs"] += len(out)
        self.counts["s_graph.assoc_new"] += len(sgraph.planes) - known
        return out

    def _optimize(self, fn, graph, *args, **kwargs):
        free_dim = sum(len(graph.value(v)) for v in graph.variables() if not graph.is_fixed(v))
        self.counts["fg.free_dim_max"] = max(self.counts["fg.free_dim_max"], free_dim)
        cost_calls = self.counts["fg.cost_calls_in_optimize"]
        with self.span("fg.optimize"):
            report = fn(graph, *args, **kwargs)
        cost_calls = self.counts["fg.cost_calls_in_optimize"] - cost_calls
        # optimize evaluates the cost once before iterating and once after;
        # every other evaluation scores one LM trial step.
        self.counts["fg.trial_steps"] += max(cost_calls - 2, 0)
        self.counts["fg.accepted_steps"] += len(report.cost_trace) - 1
        self.counts["fg.lm_iters"] += report.iterations
        return report

    def _total_cost(self, fn, graph):
        if self.parent() == "fg.optimize":
            self.counts["fg.cost_calls_in_optimize"] += 1
        with self.span("fg.total_cost"):
            return fn(graph)

    def _chi2(self, fn, graph, fid):
        if self.parent() == "fg.total_cost":
            return fn(graph, fid)
        with self.span("fg.chi2_report"):
            return fn(graph, fid)

    def _factor_eval(self, fn, graph, factor):
        self.counts["fg.factor_evals"] += 1
        return fn(graph, factor)

    def _room_cands(self, fn, *args, **kwargs):
        out = fn(*args, **kwargs)
        self.counts["matcher.room_cands"] += len(out)
        return out

    def _wall_pairs(self, fn, *args, **kwargs):
        if self.parent() == "matcher.match":
            self.counts["matcher.wall_expansions"] += 1
        return fn(*args, **kwargs)

    def _combined(self, fn, *args, **kwargs):
        out = fn(*args, **kwargs)
        self.counts["matcher.combined"] += len(out)
        return out

    def _scored(self, fn, *args, **kwargs):
        out = fn(*args, **kwargs)
        self.counts["matcher.scored"] += out is not None
        return out

    # -- results ------------------------------------------------------------

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer metrics of the traced run; merge-only ones when a merge ran."""
        c = self.counts
        out = {
            "plans.generate_s": self.total["plans.generate"],
            "a_graph.build_s": self.total["a_graph.build"],
            "sim.observe_s": self.total["sim.observe"],
            "sim.observations": c["sim.observations"],
            "s_graph.associate_s": self.total["s_graph.associate"],
            "s_graph.assoc_new_frac": c["s_graph.assoc_new"] / c["s_graph.assoc_obs"],
            "s_graph.detect_rooms_s": self.total["s_graph.detect_rooms"],
            "fg.optimize_s": self.self_time["fg.optimize"],
            "fg.optimize_calls": self.calls["fg.optimize"],
            "fg.lm_iters": c["fg.lm_iters"],
            "fg.trial_steps": c["fg.trial_steps"],
            "fg.accept_frac": c["fg.accepted_steps"] / c["fg.trial_steps"],
            "fg.total_cost_s": self.total["fg.total_cost"],
            "fg.total_cost_calls": self.calls["fg.total_cost"],
            "fg.chi2_report_s": self.total["fg.chi2_report"],
            "fg.factor_evals": c["fg.factor_evals"],
            "fg.free_dim_max": c["fg.free_dim_max"],
            "fg.final_optimize_s": self.total["fg.final_optimize"],
            "matcher.match_s": self.total["matcher.match"],
            "matcher.calls": self.calls["matcher.match"],
            "matcher.room_cands": c["matcher.room_cands"],
            "matcher.wall_expansions": c["matcher.wall_expansions"],
            "matcher.combined": c["matcher.combined"],
            "matcher.scored": c["matcher.scored"],
        }
        if c["matcher.room_cands"]:
            out["matcher.scored_frac"] = c["matcher.scored"] / c["matcher.room_cands"]
        if self.calls["merger.merge"]:
            out.update(
                {
                    "merger.merge_s": self.self_time["merger.merge"],
                    "merger.extend_s": self.total["merger.extend"],
                    "merger.extend_calls": self.calls["merger.extend"],
                    "metrics.s": self.total["metrics"],
                }
            )
        return out


def coverage_errors(runs: list[tuple[set[str], bool]]) -> list[str]:
    """Check which wrapped names fired, given (fired names, merged) per traced run.

    Every wrapped name must fire in some run, except the merge-only names
    when no run merged; a run that did not merge must not reach them.
    """
    fired = set().union(*(names for names, _ in runs))
    expected = {public_name(owner, attr) for owner, attr in WRAPPED}
    if not any(merged for _, merged in runs):
        expected -= MERGED_ONLY
    errors = [f"traced runs never reached {name}" for name in sorted(expected - fired)]
    for k, (names, merged) in enumerate(runs):
        if not merged and names & MERGED_ONLY:
            errors.append(
                f"traced run {k} did not merge but reached {sorted(names & MERGED_ONLY)}"
            )
    return errors
