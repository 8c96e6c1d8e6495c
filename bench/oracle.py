"""Correspondence oracle built only from public accessors.

The simulator tags every plane observation with the plan surface it came
from; ``SGraph.truth_of_plane`` returns the surface a robot plane saw most
often. A merged room pair is correct when the truth surfaces of the robot
room's four planes are exactly the plan room's four surfaces; a merged plane
pair is correct when the robot plane's truth surface is the plan plane's
surface.
"""

from __future__ import annotations


def _plan_rooms(agraph) -> dict[frozenset, str]:
    return {frozenset(room.surfaces.values()): room.id for room in agraph.plan.rooms}


def _robot_room_truth(sgraph, room_vid) -> frozenset:
    return frozenset(sgraph.truth_of_plane(p) for p in sgraph.rooms[room_vid].planes)


def correspondence(agraph, sgraph, merged) -> dict:
    """Share of correct room and plane pairs of a merge, with the pair counts."""
    plan_var = {merged_vid: a_vid for a_vid, merged_vid in merged.a_var_map.items()}
    rooms_ok = [
        _robot_room_truth(sgraph, s_vid)
        == frozenset(agraph.plan.room(agraph.room_of_variable(plan_var[a_vid])).surfaces.values())
        for a_vid, s_vid in merged.room_pairs.items()
    ]
    planes_ok = [
        sgraph.truth_of_plane(s_vid) == agraph.surface_of_plane(plan_var[a_vid])
        for a_vid, s_vid in merged.plane_pairs.items()
    ]
    return {
        "room_pairs": len(rooms_ok),
        "plane_pairs": len(planes_ok),
        "room_corr_acc": sum(rooms_ok) / len(rooms_ok) if rooms_ok else None,
        "plane_corr_acc": sum(planes_ok) / len(planes_ok) if planes_ok else None,
    }


def spurious_rooms(agraph, sgraph) -> int:
    """Robot four-wall rooms whose truth surfaces form no plan room."""
    plan_rooms = _plan_rooms(agraph)
    return sum(_robot_room_truth(sgraph, vid) not in plan_rooms for vid in sgraph.rooms)
