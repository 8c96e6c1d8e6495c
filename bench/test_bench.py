"""Checks of the benchmark's own oracle and tracing.

    PYTHONPATH=src python3 -m pytest bench
"""

import contextlib
import dataclasses

import pytest

import planloc.runner
from oracle import correspondence, spurious_rooms
from planloc.factor_graph import FactorGraph
from planloc.plans import fixture_plan, fixture_scenarios
from planloc.runner import run_pipeline
from planloc.s_graph import SimConfig
from spans import MERGED_ONLY, StepClock, Tracer, coverage_errors


def _two_rooms():
    config = SimConfig.from_dict(fixture_scenarios()["two_rooms"])
    return run_pipeline(fixture_plan("two_rooms"), config)


@pytest.fixture(scope="module")
def two_rooms():
    result = _two_rooms()
    assert result.merged is not None
    return result


def test_two_rooms_pairs_all_correct(two_rooms):
    acc = correspondence(two_rooms.agraph, two_rooms.sgraph, two_rooms.merged)
    assert acc == {"room_pairs": 2, "plane_pairs": 8, "room_corr_acc": 1.0, "plane_corr_acc": 1.0}
    assert spurious_rooms(two_rooms.agraph, two_rooms.sgraph) == 0


def _swapped(pairs: dict) -> dict:
    keys = list(pairs)
    values = list(pairs.values())
    values[0], values[1] = values[1], values[0]
    return dict(zip(keys, values))


def test_swapped_room_pairing_scores_below_one(two_rooms):
    merged = dataclasses.replace(two_rooms.merged, room_pairs=_swapped(two_rooms.merged.room_pairs))
    acc = correspondence(two_rooms.agraph, two_rooms.sgraph, merged)
    assert acc["room_corr_acc"] < 1.0
    assert acc["plane_corr_acc"] == 1.0


def test_swapped_plane_pairing_scores_below_one(two_rooms):
    merged = dataclasses.replace(
        two_rooms.merged, plane_pairs=_swapped(two_rooms.merged.plane_pairs)
    )
    acc = correspondence(two_rooms.agraph, two_rooms.sgraph, merged)
    assert acc["plane_corr_acc"] < 1.0
    assert acc["room_corr_acc"] == 1.0


def test_traced_run_covers_every_wrapped_name_and_restores_them():
    original = FactorGraph.optimize, planloc.runner.match
    tracer, clock = Tracer(), StepClock()
    with contextlib.ExitStack() as stack:
        tracer.install(stack)
        clock.install(stack)
        result = _two_rooms()
    assert (FactorGraph.optimize, planloc.runner.match) == original
    assert coverage_errors([(tracer.fired, True)]) == []
    assert len(clock.updates) == result.report["n_keyframes"]
    layers = tracer.layer_metrics()
    assert layers["matcher.calls"] == result.report["merged_at_step"] + 1
    assert layers["merger.extend_calls"] == result.report["n_keyframes"] - layers["matcher.calls"]
    assert 0.0 < layers["fg.accept_frac"] <= 1.0


def test_coverage_flags_silent_names_and_merges_on_unmerged_runs():
    assert "traced runs never reached FactorGraph.optimize" in coverage_errors([(set(), False)])
    merge_name = sorted(MERGED_ONLY)[0]
    errors = coverage_errors([({merge_name}, False)])
    assert any("did not merge but reached" in e for e in errors)
    # Without any merge, the merge-only names are not expected to fire.
    assert not any(name in e for e in coverage_errors([(set(), False)]) for name in MERGED_ONLY)
