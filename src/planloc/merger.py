"""Merge a matched plan graph and robot graph into one globally anchored graph.

Merging consumes the live robot graph: plan variables are copied in (fixed,
since the plan is authoritative), a map-to-plan transform variable is added,
and every matched room / wall-surface pair contributes an alignment factor
through that transform. After optimization the transform carries the global
localization, and the robot's whole state is expressible in the plan frame.

After the first merge, rooms and surfaces observed later can be matched
directly under the established transform and receive the same factors.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .a_graph import AGraph
from .factor_graph import Factor, FactorGraph, FactorKind, SolveReport, VariableId, VarKind
from .geometry import Pose2
from .matcher import (
    DIST_TOL,
    MatchPair,
    MatchResult,
    MatchStatus,
    WallPairingError,
    _dims_compatible,
    propose_wall_pairs,
    room_entries,
)
from .s_graph import SGraph


class MergeError(RuntimeError):
    """Merging refused or failed."""


@dataclass
class MergedState:
    """The combined graph plus provenance of what was merged."""

    graph: FactorGraph
    transform: VariableId
    a_var_map: dict[VariableId, VariableId]  # plan-graph id -> merged-graph id
    room_pairs: dict[VariableId, VariableId]  # merged plan room -> robot room
    plane_pairs: dict[VariableId, VariableId]  # merged plan plane -> robot plane
    merge_factor_ids: list[int] = field(default_factory=list)
    report: SolveReport | None = None

    def transform_estimate(self) -> Pose2:
        return Pose2.from_array(self.graph.value(self.transform))


def merge(a: AGraph, s: SGraph, m: MatchResult) -> MergedState:
    """Union both graphs, add alignment factors for the match, and optimize.

    Refuses anything but a uniquely matched result: an ambiguous match must
    not silently pick one branch.
    """
    if m.status != MatchStatus.MATCHED or m.best is None:
        raise MergeError(
            f"refusing to merge a result with status {m.status.value!r}; "
            "only a unique successful match may be merged"
        )
    graph = s.graph

    a_var_map: dict[VariableId, VariableId] = {}
    for vid in a.graph.variables():
        a_var_map[vid] = graph.add_variable(vid.kind, a.graph.value(vid), fixed=True)
    for _, factor in sorted(a.graph.factors().items()):
        graph.add_factor(
            Factor(
                factor.kind,
                tuple(a_var_map[v] for v in factor.variables),
                factor.measurement,
                factor.information,
            )
        )

    # The alignment starts at identity when created, then takes the match's
    # closed-form hint right before optimization.
    transform = graph.add_variable(VarKind.TRANSFORM, Pose2.identity().as_array())

    state = MergedState(graph, transform, a_var_map, {}, {})
    _add_match_factors(state, m.best.room_pairs, m.best.wall_pairs)

    graph.set_value(transform, m.best.transform_hint.as_array())
    state.report = graph.optimize()
    s.last_report = state.report
    return state


def _add_match_factors(state: MergedState, room_pairs, wall_pairs) -> None:
    graph = state.graph
    for pair in room_pairs:
        a_vid = state.a_var_map[pair.a_node]
        if a_vid in state.room_pairs:
            continue
        state.room_pairs[a_vid] = pair.s_node
        state.merge_factor_ids.append(
            graph.add_factor(
                Factor(
                    FactorKind.ROOM_TO_ROOM,
                    (a_vid, pair.s_node, state.transform),
                )
            )
        )
    for pair in wall_pairs:
        a_vid = state.a_var_map[pair.a_node]
        if a_vid in state.plane_pairs:
            continue
        state.plane_pairs[a_vid] = pair.s_node
        state.merge_factor_ids.append(
            graph.add_factor(
                Factor(
                    FactorKind.PLANE_TO_PLANE,
                    (a_vid, pair.s_node, state.transform),
                )
            )
        )


def extend_matches(state: MergedState, a: AGraph, s: SGraph) -> int:
    """Match newly observed rooms against the plan under the known transform.

    Each still-unmatched robot room is paired with the plan room whose center
    lands closest under the current transform, gated by the same dimension
    and distance thresholds as the matcher; its wall surfaces follow by side
    role. Returns the number of new room pairs added.
    """
    graph = state.graph
    t = state.transform_estimate()

    matched_s_rooms = set(state.room_pairs.values())
    matched_a_rooms = set(state.room_pairs)
    a_rooms = {r.vid: r for r in room_entries(a.graph)}
    s_rooms = {r.vid: r for r in room_entries(graph) if r.vid in s.rooms}

    added = 0
    for s_vid in sorted(s_rooms, key=lambda v: v.index):
        if s_vid in matched_s_rooms:
            continue
        s_room = s_rooms[s_vid]
        mapped = t.transform_point(s_room.center)
        best: tuple[float, VariableId] | None = None
        for a_vid, a_room in a_rooms.items():
            if state.a_var_map[a_vid] in matched_a_rooms:
                continue
            if not _dims_compatible(a_room, s_room):
                continue
            dist = float(np.linalg.norm(mapped - np.asarray(a_room.center)))
            if dist > DIST_TOL:
                continue
            if best is None or (dist, a_vid.index) < (best[0], best[1].index):
                best = (dist, a_vid)
        if best is None:
            continue
        a_vid = best[1]
        room_pair = MatchPair(a_vid, s_vid, "room")
        try:
            wall_pairs = propose_wall_pairs(room_pair, a_rooms, s_rooms, t)
        except WallPairingError:
            continue
        _add_match_factors(state, [room_pair], wall_pairs)
        matched_s_rooms.add(s_vid)
        matched_a_rooms.add(state.a_var_map[a_vid])
        added += 1
    return added


def localized_trajectory(state: MergedState, s: SGraph) -> list[Pose2]:
    """Keyframe poses re-expressed in the plan frame via the estimated transform."""
    t = state.transform_estimate()
    return [
        t.compose(Pose2.from_array(state.graph.value(k))) for k in s.keyframes
    ]
