"""Hierarchical matching between a plan graph and an online robot graph.

Top-down, room-level correspondence candidates are proposed by geometric
affinity (room dimensions, pairwise center distances), expanded downward to
their wall surfaces, re-combined bottom-up into all-level candidates, scored
globally under a closed-form alignment, and finally clustered to expose
symmetric (ambiguous) solutions.

All stages are pure functions of two read-only graph snapshots, so a match
can run concurrently with graph updates on a copy.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property

import numpy as np

from .factor_graph import FactorGraph, FactorKind, VariableId, VarKind, plane_to_plane
from .geometry import GeometryError, Pose2, axis_of_normal, estimate_transform_closed_form

# Up to this many observed rooms the room-level search keeps every partial
# assignment; beyond it, only the BEAM_WIDTH best by room-dimension mismatch.
EXHAUSTIVE_MAX_ROOMS = 8
BEAM_WIDTH = 50

DIM_TOL = 0.3  # per-axis room dimension gate [m]
DIST_TOL = 0.5  # pairwise center-distance consistency [m]
ROOM_AFFINITY_MIN = 0.5  # drop room-level candidates below this
ACCEPT_AFFINITY = 0.6  # best candidate must reach this to match
CLUSTER_REL_WIDTH = 0.10  # relative width of the winning cluster
RHO_SCALE = 0.25  # [m], room-center residual scale in the affinity
PI_SCALE = 0.1  # mixed rad/m wall residual scale in the affinity


class MatchError(ValueError):
    """Structural problem in the matching inputs."""


class RoomStructureError(MatchError):
    """A room is not connected to the expected number of wall surfaces."""


class WallPairingError(MatchError):
    """A room pair's wall surfaces cannot be put in one-to-one correspondence."""


class MatchStatus(Enum):
    MATCHED = "matched"
    AMBIGUOUS = "ambiguous"
    NO_MATCH = "no_match"


@dataclass(frozen=True)
class PlaneEntry:
    vid: VariableId
    phi: float
    d: float

    # Computed once per entry: a match reads each entry's geometry for every
    # candidate that contains it. Callers must not write to the arrays.
    @cached_property
    def normal(self) -> np.ndarray:
        return np.array([math.cos(self.phi), math.sin(self.phi)])

    @cached_property
    def foot(self) -> np.ndarray:
        return self.d * self.normal


@dataclass(frozen=True)
class RoomEntry:
    vid: VariableId
    center: tuple[float, float]
    planes: tuple[PlaneEntry, PlaneEntry, PlaneEntry, PlaneEntry]

    @cached_property
    def dims(self) -> tuple[float, float]:
        """Sorted (small, large) gap of the two opposed plane pairs."""
        return tuple(sorted((_pair_gap(self.planes[0], self.planes[1]),
                             _pair_gap(self.planes[2], self.planes[3]))))


def _pair_gap(a: PlaneEntry, b: PlaneEntry) -> float:
    n = a.normal
    return abs(float((a.foot - b.foot) @ n))


def room_entry(graph: FactorGraph, room: VariableId, planes) -> RoomEntry:
    """View of one four-wall room, its four planes in factor order, at the graph's values."""
    plane_entries = []
    for vid in planes:
        phi, d = graph.value(vid)
        plane_entries.append(PlaneEntry(vid, float(phi), float(d)))
    cx, cy = graph.value(room)
    return RoomEntry(room, (float(cx), float(cy)), tuple(plane_entries))


def room_entries(graph: FactorGraph) -> list[RoomEntry]:
    """Four-wall room views (center, plane pairs) read off a graph snapshot."""
    return [
        room_entry(graph, factor.variables[0], factor.variables[1:])
        for _, factor in graph.factors_of(FactorKind.ROOM_TO_WALLS)
        if factor.variables[0].kind == VarKind.ROOM and len(factor.variables) == 5
    ]


@dataclass(frozen=True)
class MatchPair:
    a_node: VariableId
    s_node: VariableId
    level: str  # "room" | "wall_surface"

    def key(self):
        return (self.level, self.a_node.kind.value, self.a_node.index,
                self.s_node.kind.value, self.s_node.index)


@dataclass
class MatchCandidate:
    pairs: tuple[MatchPair, ...]
    affinity: float
    transform_hint: Pose2

    @property
    def room_pairs(self) -> tuple[MatchPair, ...]:
        return tuple(p for p in self.pairs if p.level == "room")

    @property
    def wall_pairs(self) -> tuple[MatchPair, ...]:
        return tuple(p for p in self.pairs if p.level == "wall_surface")

    def sort_key(self):
        return (-self.affinity, tuple(p.key() for p in self.pairs))


@dataclass
class MatchResult:
    status: MatchStatus
    best: MatchCandidate | None
    cluster: list[MatchCandidate] = field(default_factory=list)

    def to_json_dict(self) -> dict:
        def cand(c: MatchCandidate) -> dict:
            return {
                "affinity": c.affinity,
                "transform_hint": c.transform_hint.as_array().tolist(),
                "pairs": [
                    {
                        "level": p.level,
                        "a": p.a_node.key(),
                        "s": p.s_node.key(),
                    }
                    for p in c.pairs
                ],
            }

        return {
            "status": self.status.value,
            "best": None if self.best is None else cand(self.best),
            "cluster": [cand(c) for c in self.cluster],
        }

    def to_json(self, indent: int | None = None) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True, indent=indent)


def _dims_compatible(a: RoomEntry, s: RoomEntry) -> bool:
    da, ds = a.dims, s.dims
    return abs(da[0] - ds[0]) <= DIM_TOL and abs(da[1] - ds[1]) <= DIM_TOL


def _center_fit(pts) -> tuple[Pose2, float] | None:
    """Closed-form alignment of (S-room, A-room) center pairs and its RMS residual.

    None when the alignment is degenerate.
    """
    try:
        hint = estimate_transform_closed_form(pts)
    except GeometryError:
        return None
    s_pts, a_pts = np.array(pts, dtype=float).transpose(1, 0, 2)
    rho = s_pts @ hint.rotation().T + hint.translation - a_pts
    return hint, math.sqrt(float(np.mean(np.sum(rho**2, axis=1))))


def _room_level_candidate(assignment: list[tuple[RoomEntry, RoomEntry]]) -> MatchCandidate | None:
    fit = _center_fit([(s.center, a.center) for a, s in assignment])
    if fit is None:
        return None
    hint, e_rho = fit
    affinity = math.exp(-e_rho / RHO_SCALE)
    pairs = tuple(
        MatchPair(a.vid, s.vid, "room")
        for a, s in sorted(assignment, key=lambda t: t[1].vid.index)
    )
    return MatchCandidate(pairs, affinity, hint)


def propose_room_pairs(a_rooms: list[RoomEntry], s_rooms: list[RoomEntry]) -> list[MatchCandidate]:
    """Room-level candidates: injective S->A assignments passing the geometric gates.

    The search assigns one observed room per level (in index order) to a
    dimension-compatible, still unused plan room whose center distances to
    the plan rooms chosen so far match the observed ones. Up to
    ``EXHAUSTIVE_MAX_ROOMS`` observed rooms every partial assignment is kept,
    so the result is the full enumeration; beyond it each level keeps the
    ``BEAM_WIDTH`` partials of least summed dimension mismatch. Candidates
    below the room-level affinity floor are dropped; output is sorted best
    first.
    """
    if len(s_rooms) < 2 or not a_rooms:
        return []
    s_rooms = sorted(s_rooms, key=lambda r: r.vid.index)
    bounded = len(s_rooms) > EXHAUSTIVE_MAX_ROOMS
    a_dist = [[math.dist(a.center, b.center) for b in a_rooms] for a in a_rooms]
    # partials[j][k] is the index into a_rooms of the plan room given to s_rooms[k]
    partials: list[tuple[int, ...]] = [()]
    for level, s in enumerate(s_rooms):
        s_dist = [math.dist(ps.center, s.center) for ps in s_rooms[:level]]
        compat = [i for i, a in enumerate(a_rooms) if _dims_compatible(a, s)]
        grown = [
            partial + (i,)
            for partial in partials
            for i in compat
            if i not in partial
            and all(
                abs(a_dist[pi][i] - ds) <= DIST_TOL
                for pi, ds in zip(partial, s_dist)
            )
        ]
        if bounded:
            grown.sort(
                key=lambda p: sum(
                    math.dist(a_rooms[i].dims, s_rooms[k].dims) for k, i in enumerate(p)
                )
            )
            grown = grown[:BEAM_WIDTH]
        partials = grown

    candidates = []
    for partial in partials:
        assignment = [(a_rooms[i], s) for i, s in zip(partial, s_rooms)]
        cand = _room_level_candidate(assignment)
        if cand is not None and cand.affinity >= ROOM_AFFINITY_MIN:
            candidates.append(cand)
    candidates.sort(key=MatchCandidate.sort_key)
    return candidates


def _side_roles(
    room: RoomEntry, to_plan: Pose2 | None
) -> dict[tuple[str, int], PlaneEntry]:
    """Map each of the room's four planes to a (axis, side-sign) role.

    Roles are evaluated in the plan frame: the optional transform maps the
    room's geometry there first, which keeps the pairing meaningful under an
    arbitrary map-to-plan rotation.
    """
    if len(room.planes) != 4:
        raise RoomStructureError(f"room {room.vid} has {len(room.planes)} planes, need 4")
    if to_plan is None:
        rot = np.eye(2)
        center = np.asarray(room.center)
    else:
        rot = to_plan.rotation()
        center = to_plan.transform_point(room.center)
    roles: dict[tuple[str, int], PlaneEntry] = {}
    for plane in room.planes:
        n = rot @ plane.normal
        foot = rot @ plane.foot + (
            np.zeros(2) if to_plan is None else to_plan.translation
        )
        axis = axis_of_normal(n[0], n[1])
        comp = 0 if axis.value == "x" else 1
        side = 1 if foot[comp] - center[comp] >= 0 else -1
        role = (axis.value, side)
        if role in roles:
            raise WallPairingError(
                f"room {room.vid}: two planes land on the same side role {role}"
            )
        roles[role] = plane
    if len(roles) != 4:
        raise WallPairingError(f"room {room.vid}: could not assign four distinct side roles")
    return roles


def propose_wall_pairs(
    room_pair: MatchPair,
    a_rooms_by_vid: dict[VariableId, RoomEntry],
    s_rooms_by_vid: dict[VariableId, RoomEntry],
    hint: Pose2 | None = None,
) -> list[MatchPair]:
    """Match a room pair's four wall surfaces by side role; exactly 4 or raise."""
    a_room = a_rooms_by_vid[room_pair.a_node]
    s_room = s_rooms_by_vid[room_pair.s_node]
    a_roles = _side_roles(a_room, None)
    s_roles = _side_roles(s_room, hint)
    if set(a_roles) != set(s_roles):
        raise WallPairingError(
            f"rooms {a_room.vid} / {s_room.vid}: side roles do not line up"
        )
    return [
        MatchPair(a_roles[role].vid, s_roles[role].vid, "wall_surface")
        for role in sorted(a_roles)
    ]


def combine_bottom_up(
    expanded: list[tuple[MatchCandidate, list[MatchPair]]]
) -> list[MatchCandidate]:
    """Merge room candidates with their wall pairs into all-level candidates.

    Candidates whose wall-pair union is not injective in both directions
    (a shared surface mapped to two different counterparts) are discarded.
    """
    out = []
    for cand, wall_pairs in expanded:
        a_map: dict[VariableId, VariableId] = {}
        s_map: dict[VariableId, VariableId] = {}
        unique: dict[tuple, MatchPair] = {}
        ok = True
        for pair in wall_pairs:
            if a_map.get(pair.a_node, pair.s_node) != pair.s_node:
                ok = False
                break
            if s_map.get(pair.s_node, pair.a_node) != pair.a_node:
                ok = False
                break
            a_map[pair.a_node] = pair.s_node
            s_map[pair.s_node] = pair.a_node
            unique.setdefault(pair.key(), pair)
        if not ok:
            continue
        pairs = cand.room_pairs + tuple(
            unique[k] for k in sorted(unique)
        )
        out.append(MatchCandidate(pairs, cand.affinity, cand.transform_hint))
    return out


def score_candidate(
    cand: MatchCandidate,
    a_rooms_by_vid: dict[VariableId, RoomEntry],
    s_rooms_by_vid: dict[VariableId, RoomEntry],
) -> MatchCandidate | None:
    """Global affinity of an all-level candidate under its re-estimated alignment.

    Returns None when the alignment is degenerate (candidate unusable).
    """
    room_pairs = cand.room_pairs
    if len(room_pairs) < 2:
        raise MatchError("scoring needs at least 2 room pairs")
    fit = _center_fit(
        [(s_rooms_by_vid[p.s_node].center, a_rooms_by_vid[p.a_node].center) for p in room_pairs]
    )
    if fit is None:
        return None
    hint, e_rho = fit

    # every wall pair's residual under the hint, as the merge's
    # plane-to-plane factor will weigh it
    a_planes = {pl.vid: pl for room in a_rooms_by_vid.values() for pl in room.planes}
    s_planes = {pl.vid: pl for room in s_rooms_by_vid.values() for pl in room.planes}
    pairs = [(a_planes[p.a_node], s_planes[p.s_node]) for p in cand.wall_pairs]
    planes = np.array([(a.phi, a.d, s.phi, s.d) for a, s in pairs]).reshape(-1, 4)
    m = len(planes)
    e_pi = 0.0
    if m:
        t_vals = np.full((m, 3), hint.as_array())
        r, _ = plane_to_plane(None, [planes[:, :2], planes[:, 2:], t_vals], np.zeros((m, 0)))
        e_pi = math.sqrt(float(np.mean(r**2)))
    affinity = math.exp(-(e_rho / RHO_SCALE + e_pi / PI_SCALE))
    return MatchCandidate(cand.pairs, affinity, hint)


def cluster_and_decide(scored: list[MatchCandidate]) -> MatchResult:
    """1-D affinity clustering: unique winner, symmetric cluster, or no match."""
    ranked = sorted(scored, key=MatchCandidate.sort_key)
    if not ranked or ranked[0].affinity < ACCEPT_AFFINITY:
        return MatchResult(MatchStatus.NO_MATCH, None, [])
    top = ranked[0].affinity
    cluster = [c for c in ranked if c.affinity >= top * (1.0 - CLUSTER_REL_WIDTH)]
    if len(cluster) == 1:
        return MatchResult(MatchStatus.MATCHED, cluster[0], cluster)
    return MatchResult(MatchStatus.AMBIGUOUS, cluster[0], cluster)


def match(a_graph: FactorGraph, s_graph: FactorGraph) -> MatchResult:
    """Full pipeline: propose -> expand -> combine -> score -> cluster."""
    return match_entries(room_entries(a_graph), room_entries(s_graph))


def match_entries(a_rooms: list[RoomEntry], s_rooms: list[RoomEntry]) -> MatchResult:
    if len(s_rooms) < 2:
        return MatchResult(MatchStatus.NO_MATCH, None, [])
    a_by_vid = {r.vid: r for r in a_rooms}
    s_by_vid = {r.vid: r for r in s_rooms}
    room_cands = propose_room_pairs(a_rooms, s_rooms)
    expanded: list[tuple[MatchCandidate, list[MatchPair]]] = []
    for cand in room_cands:
        wall_pairs: list[MatchPair] = []
        try:
            for pair in cand.room_pairs:
                wall_pairs.extend(
                    propose_wall_pairs(pair, a_by_vid, s_by_vid, cand.transform_hint)
                )
        except WallPairingError:
            continue
        expanded.append((cand, wall_pairs))
    combined = combine_bottom_up(expanded)
    scored = []
    for cand in combined:
        rescored = score_candidate(cand, a_by_vid, s_by_vid)
        if rescored is not None:
            scored.append(rescored)
    return cluster_and_decide(scored)
