"""Merge a matched plan graph and robot graph into one globally anchored graph.

Merging consumes the live robot graph. The plan is prior knowledge, so it
enters as measurements, not variables: a map-to-plan transform variable is
added, and every matched room / wall-surface pair contributes one factor that
moves the robot node through that transform and measures the plan room's
center or the plan surface's (phi, d). After optimization the transform
carries the global localization, and the robot's whole state is expressible
in the plan frame.

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
    PlanRooms,
    RoomsByVid,
    WallPairingError,
    _dims_gate,
    _room_dims,
    propose_wall_pairs,
    read_room_entries,
)
from .s_graph import SGraph


class MergeError(RuntimeError):
    """Merging refused or failed."""


@dataclass
class MergedState:
    """The combined graph plus provenance of what was merged."""

    graph: FactorGraph
    transform: VariableId
    a_var_map: dict[VariableId, VariableId]  # the identity over the plan graph's ids
    room_pairs: dict[VariableId, VariableId]  # plan room -> robot room
    plane_pairs: dict[VariableId, VariableId]  # plan plane -> robot plane
    plan: PlanRooms  # the plan's rooms; the plan is constant
    merge_factor_ids: list[int] = field(default_factory=list)
    report: SolveReport | None = None

    @property
    def plan_rooms(self) -> RoomsByVid:
        """Plan-graph room -> its entry."""
        return self.plan.by_vid

    def transform_estimate(self) -> Pose2:
        return Pose2.from_array(self.graph.value(self.transform))


def merge(a: AGraph, s: SGraph, m: MatchResult) -> MergedState:
    """Add the transform and one alignment factor per matched pair to the robot graph, and optimize.

    Refuses anything but a uniquely matched result: an ambiguous match must
    not silently pick one branch.
    """
    if m.status != MatchStatus.MATCHED or m.best is None:
        raise MergeError(
            f"refusing to merge a result with status {m.status.value!r}; "
            "only a unique successful match may be merged"
        )
    graph = s.graph

    # The alignment starts at identity when created, then takes the match's
    # closed-form hint right before optimization.
    transform = graph.add_variable(VarKind.TRANSFORM, Pose2.identity().as_array())

    a_var_map = {vid: vid for vid in a.graph.variables()}
    state = MergedState(graph, transform, a_var_map, {}, {}, a.rooms)
    _add_match_factors(state, m.best.room_pairs, m.best.wall_pairs)

    graph.set_value(transform, m.best.transform_hint.as_array())
    state.report = graph.optimize()
    s.last_report = state.report
    return state


def _add_match_factors(state: MergedState, room_pairs, wall_pairs) -> None:
    """One factor per new pair, tying the robot node through the transform to the plan value."""
    graph = state.graph
    plan_planes = state.plan_rooms.plane_values
    for pair in room_pairs:
        if pair.a_node in state.room_pairs:
            continue
        state.room_pairs[pair.a_node] = pair.s_node
        state.merge_factor_ids.append(
            graph.add_factor(
                Factor(
                    FactorKind.ROOM_TO_ROOM,
                    (pair.s_node, state.transform),
                    state.plan_rooms[pair.a_node].center,
                )
            )
        )
    for pair in wall_pairs:
        if pair.a_node in state.plane_pairs:
            continue
        state.plane_pairs[pair.a_node] = pair.s_node
        state.merge_factor_ids.append(
            graph.add_factor(
                Factor(
                    FactorKind.PLANE_TO_PLANE,
                    (pair.s_node, state.transform),
                    plan_planes[pair.a_node],
                )
            )
        )


def extend_matches(state: MergedState, s: SGraph) -> int:
    """Match newly observed rooms against the plan under the known transform.

    Each still-unmatched robot room is paired with the plan room whose center
    lands closest under the current transform, gated by the same dimension
    and distance thresholds as the matcher; its wall surfaces follow by side
    role. Returns the number of new room pairs added.
    """
    t = state.transform_estimate()
    matched_s_rooms = set(state.room_pairs.values())
    a_rooms = state.plan_rooms
    s_list = sorted(
        read_room_entries(
            state.graph,
            ((vid, *rec.planes) for vid, rec in s.rooms.items() if vid not in matched_s_rooms),
        ),
        key=lambda r: r.vid.index,
    )
    if not s_list:
        return 0
    s_rooms = {r.vid: r for r in s_list}
    # All robot rooms meet all plan rooms in one (S, A) pass; the rooms are
    # then taken in index order, each closing the plan room it is paired with.
    plan = state.plan
    a_vids = [room.vid for room in plan]
    a_index = np.array([vid.index for vid in a_vids])
    open_a = np.array([vid not in state.room_pairs for vid in a_vids], dtype=bool)
    mapped = np.array([t.transform_point(r.center) for r in s_list])
    dist = _distances(mapped[:, None], plan.centers)
    gate = ~(dist > DIST_TOL) & _dims_gate(plan.dims, _room_dims(s_list))

    added = 0
    for i in np.flatnonzero(gate.any(axis=1)).tolist():
        ok = gate[i] & open_a
        if not ok.any():
            continue
        # nearest first, ties to the lowest plan room index
        k = np.flatnonzero(ok)[np.lexsort((a_index[ok], dist[i][ok]))[0]]
        room_pair = MatchPair(a_vids[k], s_list[i].vid, "room")
        try:
            wall_pairs = propose_wall_pairs(room_pair, a_rooms, s_rooms, t)
        except WallPairingError:
            continue
        _add_match_factors(state, [room_pair], wall_pairs)
        open_a[k] = False
        added += 1
    return added


def _distances(point: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """``np.linalg.norm(p - c)`` for each row c of centers and each point p, bit for bit:
    a stacked 1x2 by 2x1 product runs norm's dot routine, where a row sum may round
    differently. ``point`` is one point (2,), or points (S, 1, 2) for an (S, A) result."""
    diff = point - centers
    return np.sqrt((diff[..., None, :] @ diff[..., :, None])[..., 0, 0])


def localized_trajectory(state: MergedState, s: SGraph) -> list[Pose2]:
    """Keyframe poses re-expressed in the plan frame via the estimated transform."""
    t = state.transform_estimate()
    return [
        t.compose(Pose2.from_array(state.graph.value(k))) for k in s.keyframes
    ]
