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
from itertools import groupby

import numpy as np

from .factor_graph import FactorGraph, FactorKind, VariableId, plane_to_plane_residual
from .geometry import GeometryError, Pose2, axis_of_normal, fit_rigid_transforms

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

    @cached_property
    def side_roles(self) -> dict[tuple[str, int], PlaneEntry]:
        """Side roles of the four planes in the room's own frame; see ``_side_roles``."""
        return _side_roles(self, None)


def _pair_gap(a: PlaneEntry, b: PlaneEntry) -> float:
    n = a.normal
    return abs(float((a.foot - b.foot) @ n))


def read_room_entries(graph: FactorGraph, rooms) -> list[RoomEntry]:
    """Room views of (room, plane, plane, plane, plane) variables at the graph's values.

    Rooms and planes are both 2-vectors, so all values come in one gather.
    """
    rooms = list(rooms)
    values = iter(graph.values([vid for vids in rooms for vid in vids]).tolist())
    out = []
    for room, *planes in rooms:
        cx, cy = next(values)
        out.append(
            RoomEntry(room, (cx, cy), tuple(PlaneEntry(vid, *next(values)) for vid in planes))
        )
    return out


def room_entries(graph: FactorGraph) -> list[RoomEntry]:
    """Four-wall room views (center, plane pairs) read off a graph snapshot."""
    return read_room_entries(
        graph, (factor.variables for _, factor in graph.factors_of(FactorKind.ROOM_TO_WALLS))
    )


@dataclass(frozen=True)
class MatchPair:
    a_node: VariableId
    s_node: VariableId
    level: str  # "room" | "wall_surface"

    def key(self):
        # a member's stored _value_ reads like an attribute; Enum.value is a
        # descriptor call, and keys are built for every wall pair
        return (self.level, self.a_node.kind._value_, self.a_node.index,
                self.s_node.kind._value_, self.s_node.index)


@dataclass
class MatchCandidate:
    pairs: tuple[MatchPair, ...]
    affinity: float
    transform_hint: Pose2
    # RMS room-center residual under transform_hint, kept from the room-level
    # fit so that scoring does not fit the same room pairs again
    e_rho: float = 0.0

    @property
    def room_pairs(self) -> tuple[MatchPair, ...]:
        return tuple(p for p in self.pairs if p.level == "room")

    @property
    def wall_pairs(self) -> tuple[MatchPair, ...]:
        return tuple(p for p in self.pairs if p.level == "wall_surface")


def _ranked(cands: list[MatchCandidate]) -> list[MatchCandidate]:
    """Best affinity first; candidates of exactly equal affinity in pair-key order.

    The same order as sorting on (-affinity, pair keys), without building the
    keys of candidates that do not tie.
    """
    out: list[MatchCandidate] = []
    for _, tied in groupby(sorted(cands, key=lambda c: -c.affinity), key=lambda c: c.affinity):
        tied = list(tied)
        if len(tied) > 1:
            tied.sort(key=lambda c: tuple(p.key() for p in c.pairs))
        out += tied
    return out


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


def _dims_compatible(a_dims: np.ndarray, s: RoomEntry) -> np.ndarray:
    """Which plan rooms, given by their (n, 2) dims, pass the per-axis dimension gate for s."""
    return np.all(np.abs(a_dims - s.dims) <= DIM_TOL, axis=1)


def propose_room_pairs(a_rooms: list[RoomEntry], s_rooms: list[RoomEntry]) -> list[MatchCandidate]:
    """Room-level candidates: injective S->A assignments passing the geometric gates.

    The search assigns one observed room per level (in index order) to a
    dimension-compatible, still unused plan room whose center distances to
    the plan rooms chosen so far match the observed ones. Up to
    ``EXHAUSTIVE_MAX_ROOMS`` observed rooms every partial assignment is kept,
    so the result is the full enumeration; beyond it each level keeps the
    ``BEAM_WIDTH`` partials of least summed dimension mismatch. Each level
    grows all partials at once, and one batched fit aligns all full
    assignments. Candidates below the room-level affinity floor are dropped;
    output is sorted best first.
    """
    if len(s_rooms) < 2 or not a_rooms:
        return []
    s_rooms = sorted(s_rooms, key=lambda r: r.vid.index)
    bounded = len(s_rooms) > EXHAUSTIVE_MAX_ROOMS
    plan_index = np.arange(len(a_rooms))
    a_dims = np.array([a.dims for a in a_rooms])
    a_dist = np.array([[math.dist(a.center, b.center) for b in a_rooms] for a in a_rooms])
    # partials[j, k] is the index into a_rooms of the plan room given to
    # s_rooms[k]; np.nonzero walks the (partial, plan room) masks in the
    # order of a loop over partials, then plan rooms
    partials = np.zeros((1, 0), dtype=np.intp)
    mismatch = np.zeros(1)  # summed dimension mismatch of each partial
    for level, s in enumerate(s_rooms):
        grow = np.tile(_dims_compatible(a_dims, s), (len(partials), 1))
        for k, ps in enumerate(s_rooms[:level]):
            grow &= plan_index != partials[:, k, None]
            grow &= np.abs(a_dist[partials[:, k]] - math.dist(ps.center, s.center)) <= DIST_TOL
        rows, cols = np.nonzero(grow)
        partials = np.column_stack([partials[rows], cols])
        if bounded:
            step = np.array([math.dist(a.dims, s.dims) for a in a_rooms])
            mismatch = mismatch[rows] + step[cols]
            keep = np.argsort(mismatch, kind="stable")[:BEAM_WIDTH]
            partials, mismatch = partials[keep], mismatch[keep]
    if not len(partials):
        return []
    a_centers = np.array([a.center for a in a_rooms])
    try:
        hints, e_rhos = fit_rigid_transforms([s.center for s in s_rooms], a_centers[partials])
    except GeometryError:  # the observed centers coincide: no assignment aligns
        return []
    candidates = []
    for partial, hint, e_rho in zip(partials.tolist(), hints, e_rhos.tolist()):
        affinity = math.exp(-e_rho / RHO_SCALE)
        if affinity >= ROOM_AFFINITY_MIN:
            pairs = tuple(
                MatchPair(a_rooms[i].vid, s.vid, "room") for i, s in zip(partial, s_rooms)
            )
            candidates.append(MatchCandidate(pairs, affinity, hint, e_rho))
    return _ranked(candidates)


def _side_roles(
    room: RoomEntry, to_plan: Pose2 | None
) -> dict[tuple[str, int], PlaneEntry]:
    """Map each of the room's four planes to a (axis, side-sign) role.

    Roles are evaluated in the plan frame: the optional transform maps the
    room's geometry there first, which keeps the pairing meaningful under an
    arbitrary map-to-plan rotation. The axis is that of the turned normal,
    and the side is the sign of the turned foot-minus-center offset along it.
    """
    if len(room.planes) != 4:
        raise RoomStructureError(f"room {room.vid} has {len(room.planes)} planes, need 4")
    c, s = (1.0, 0.0) if to_plan is None else (math.cos(to_plan.theta), math.sin(to_plan.theta))
    cx, cy = room.center
    roles: dict[tuple[str, int], PlaneEntry] = {}
    for plane in room.planes:
        nx, ny = math.cos(plane.phi), math.sin(plane.phi)
        ox, oy = plane.d * nx - cx, plane.d * ny - cy
        axis = axis_of_normal(c * nx - s * ny, s * nx + c * ny).value
        offset = c * ox - s * oy if axis == "x" else s * ox + c * oy
        role = (axis, 1 if offset >= 0 else -1)
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
    a_roles = a_room.side_roles
    s_roles = s_room.side_roles if hint is None else _side_roles(s_room, hint)
    if a_roles.keys() != s_roles.keys():
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
        out.append(MatchCandidate(pairs, cand.affinity, cand.transform_hint, cand.e_rho))
    return out


def score_candidate(
    cand: MatchCandidate,
    a_rooms_by_vid: dict[VariableId, RoomEntry],
    s_rooms_by_vid: dict[VariableId, RoomEntry],
) -> MatchCandidate:
    """Global affinity of an all-level candidate under its room-level alignment.

    The candidate carries the closed-form fit of its room pairs (hint and
    center residual), so scoring adds the wall-pair residual under it.
    """
    room_pairs = cand.room_pairs
    if len(room_pairs) < 2:
        raise MatchError("scoring needs at least 2 room pairs")
    hint = cand.transform_hint

    # every wall pair's residual under the hint, as the merge's
    # plane-to-plane factor will weigh it
    a_planes = {pl.vid: pl for p in room_pairs for pl in a_rooms_by_vid[p.a_node].planes}
    s_planes = {pl.vid: pl for p in room_pairs for pl in s_rooms_by_vid[p.s_node].planes}
    planes = np.array(
        [
            (a.phi, a.d, s.phi, s.d)
            for a, s in ((a_planes[p.a_node], s_planes[p.s_node]) for p in cand.wall_pairs)
        ]
    ).reshape(-1, 4)
    m = len(planes)
    e_pi = 0.0
    if m:
        t_vals = np.full((m, 3), hint.as_array())
        r, _ = plane_to_plane_residual([planes[:, :2], planes[:, 2:], t_vals])
        e_pi = math.sqrt(float(np.mean(r**2)))
    affinity = math.exp(-(cand.e_rho / RHO_SCALE + e_pi / PI_SCALE))
    return MatchCandidate(cand.pairs, affinity, hint, cand.e_rho)


def cluster_and_decide(scored: list[MatchCandidate]) -> MatchResult:
    """1-D affinity clustering: unique winner, symmetric cluster, or no match."""
    ranked = _ranked(scored)
    if not ranked or ranked[0].affinity < ACCEPT_AFFINITY:
        return MatchResult(MatchStatus.NO_MATCH, None, [])
    top = ranked[0].affinity
    cluster = [c for c in ranked if c.affinity >= top * (1.0 - CLUSTER_REL_WIDTH)]
    if len(cluster) == 1:
        return MatchResult(MatchStatus.MATCHED, cluster[0], cluster)
    return MatchResult(MatchStatus.AMBIGUOUS, cluster[0], cluster)


def match(a_rooms: list[RoomEntry], s_rooms: list[RoomEntry]) -> MatchResult:
    """Full pipeline: propose -> expand -> combine -> score -> cluster.

    Takes room entries, so that a caller reads the constant plan side once
    (``AGraph.rooms``) and the robot side once per snapshot (``room_entries``).
    """
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
    return cluster_and_decide([score_candidate(c, a_by_vid, s_by_vid) for c in combined])
