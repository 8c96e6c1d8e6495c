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
from itertools import chain, groupby
from typing import NamedTuple

import numpy as np

from .factor_graph import FactorGraph, FactorKind, VariableId, plane_to_plane_residual
from .geometry import GeometryError, Pose2, fit_rigid_transforms

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

    # Cached once per entry; callers must not write to the arrays. A match
    # reads the room-level cache, ``RoomEntry.frame``, instead.
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

    # Computed once per entry: a match reads each entry's geometry for every
    # candidate that contains it.
    @cached_property
    def frame(self) -> tuple[tuple[float, float, float, float], ...]:
        """(nx, ny, ox, oy) of each plane: its unit normal and its foot minus the room center."""
        if len(self.planes) != 4:
            raise RoomStructureError(f"room {self.vid} has {len(self.planes)} planes, need 4")
        cx, cy = self.center
        out = []
        for plane in self.planes:
            nx, ny = math.cos(plane.phi), math.sin(plane.phi)
            out.append((nx, ny, plane.d * nx - cx, plane.d * ny - cy))
        return tuple(out)

    @cached_property
    def dims(self) -> tuple[float, float]:
        """Sorted (small, large) gap of the two opposed plane pairs; see ``_room_dims``."""
        return tuple(_room_dims([self])[0].tolist())

    @cached_property
    def outward(self) -> tuple[float, ...]:
        """Each plane's normal angle turned to point out of the room: phi, or phi + pi."""
        return tuple(
            plane.phi + (math.pi if nx * ox + ny * oy < 0 else 0.0)
            for plane, (nx, ny, ox, oy) in zip(self.planes, self.frame)
        )

    @cached_property
    def side_roles(self) -> tuple[PlaneEntry, ...]:
        """The four planes in side-role order, from the room's own plane 0; see ``_side_roles``."""
        return _side_roles(self, self.outward[0], 0.0)


def _room_dims(rooms) -> np.ndarray:
    """(R, 2) sorted (small, large) dims of each room, in one pass.

    Planes 0, 1 and planes 2, 3 are the opposed pairs, and a pair's gap is
    |(foot_a - foot_b) . n_a| with n_a the first plane's normal. The dot is a
    stacked 1x2 by 2x1 product, which runs the dot routine of a 1-D ``@``, so a
    room's dims do not depend on the rooms it is batched with.
    """
    n = np.array([[plane[:2] for plane in r.frame] for r in rooms]).reshape(-1, 4, 2)
    foot = np.array([[plane.d for plane in r.planes] for r in rooms]).reshape(-1, 4, 1) * n
    diff = foot[:, 0::2] - foot[:, 1::2]
    gap = (diff[..., None, :] @ n[:, 0::2, :, None])[..., 0, 0]
    return np.sort(np.abs(gap), axis=1)


class RoomsByVid(dict):
    """Room entries by variable id, with their planes' (phi, d) by variable id, read once."""

    @cached_property
    def plane_values(self) -> dict[VariableId, tuple[float, float]]:
        return {pl.vid: (pl.phi, pl.d) for room in self.values() for pl in room.planes}


class PlanRooms(list):
    """The plan's room entries, with the arrays a match reads of them, each built on first read.

    The plan is constant for a run, so ``AGraph.rooms`` is one of these and a
    run builds each array once; the entries must not change after a read. A
    plain list of entries is wrapped anew by each call that takes one.
    """

    @cached_property
    def by_vid(self) -> RoomsByVid:
        return RoomsByVid((room.vid, room) for room in self)

    @cached_property
    def dims(self) -> np.ndarray:
        """(A, 2) sorted dims of each room."""
        return np.array([room.dims for room in self]).reshape(-1, 2)

    @cached_property
    def centers(self) -> np.ndarray:
        """(A, 2) room centers."""
        return np.array([room.center for room in self]).reshape(-1, 2)

    @cached_property
    def center_dist(self) -> np.ndarray:
        """(A, A) distances between the room centers."""
        return np.array([[math.dist(a.center, b.center) for b in self] for a in self])


def _plan_rooms(rooms: list[RoomEntry]) -> PlanRooms:
    return rooms if isinstance(rooms, PlanRooms) else PlanRooms(rooms)


def _rooms_by_vid(rooms: dict[VariableId, RoomEntry]) -> RoomsByVid:
    return rooms if isinstance(rooms, RoomsByVid) else RoomsByVid(rooms)


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


class MatchPair(NamedTuple):
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


def _dims_gate(a_dims: np.ndarray, s_dims: np.ndarray) -> np.ndarray:
    """(S, A) mask: which plan rooms, by their (A, 2) dims, pass the per-axis
    dimension gate for each robot room, by its row of the (S, 2) dims."""
    return np.all(np.abs(a_dims - s_dims[:, None]) <= DIM_TOL, axis=2)


def propose_room_pairs(a_rooms: list[RoomEntry], s_rooms: list[RoomEntry]) -> list[MatchCandidate]:
    """Room-level candidates: injective S->A assignments passing the geometric gates.

    The search assigns one observed room per level (in index order) to a
    dimension-compatible, still unused plan room whose center distances to
    the plan rooms chosen so far match the observed ones. Up to
    ``EXHAUSTIVE_MAX_ROOMS`` observed rooms every partial assignment is kept,
    so the result is the full enumeration; beyond it each level keeps the
    ``BEAM_WIDTH`` partials of least summed dimension mismatch. Each level
    grows all partials at once with one mask, and one batched fit aligns all
    full assignments. Candidates below the room-level affinity floor are
    dropped; output is sorted best first.
    """
    if len(s_rooms) < 2 or not a_rooms:
        return []
    plan = _plan_rooms(a_rooms)
    s_rooms = sorted(s_rooms, key=lambda r: r.vid.index)
    bounded = len(s_rooms) > EXHAUSTIVE_MAX_ROOMS
    plan_index = np.arange(len(plan))
    s_dims = _room_dims(s_rooms)
    dims_ok = _dims_gate(plan.dims, s_dims)
    a_dist = plan.center_dist
    # partials[j, k] is the index into a_rooms of the plan room given to
    # s_rooms[k]; np.nonzero walks the (partial, plan room) masks in the
    # order of a loop over partials, then plan rooms
    partials = np.zeros((1, 0), dtype=np.intp)
    mismatch = np.zeros(1)  # summed dimension mismatch of each partial
    for level, s in enumerate(s_rooms):
        s_dist = np.array([math.dist(ps.center, s.center) for ps in s_rooms[:level]])
        # axis 1 runs over the earlier levels: the plan room is unused, and its
        # center distances to their plan rooms match the observed ones
        grow = dims_ok[level] & (
            (np.abs(a_dist[partials] - s_dist[:, None]) <= DIST_TOL)
            & (partials[:, :, None] != plan_index)
        ).all(axis=1)
        rows, cols = grow.nonzero()
        partials = np.column_stack([partials[rows], cols])
        if bounded:
            s_dim = s_dims[level].tolist()
            step = np.array([math.dist(a.dims, s_dim) for a in a_rooms])
            mismatch = mismatch[rows] + step[cols]
            keep = np.argsort(mismatch, kind="stable")[:BEAM_WIDTH]
            partials, mismatch = partials[keep], mismatch[keep]
    if not len(partials):
        return []
    try:
        hints, e_rhos = fit_rigid_transforms([s.center for s in s_rooms], plan.centers[partials])
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


# The slot of each quarter turn counterclockwise from a plan room's plane 0
# (its px side): wall pairs are listed mx, px, my, py of the plan room.
_SLOT_OF_QUARTER = (1, 3, 0, 2)


def _side_roles(room: RoomEntry, ref: float, theta: float) -> tuple[PlaneEntry, ...]:
    """The room's four planes in side-role order.

    A plane's role is the nearest quarter turn from the outward angle ``ref``
    of the plan room's plane 0 to the plane's own outward angle, turned by
    ``theta`` into the plan frame. Two planes on one role raise
    ``WallPairingError``.
    """
    slots: list[PlaneEntry | None] = [None] * 4
    for plane, out in zip(room.planes, room.outward):
        q = round((out + theta - ref) / (math.pi / 2)) % 4
        k = _SLOT_OF_QUARTER[q]
        if slots[k] is not None:
            raise WallPairingError(
                f"room {room.vid}: two planes face {q} quarter turns from the plan room's side px"
            )
        slots[k] = plane
    return tuple(slots)


def propose_wall_pairs(
    room_pair: MatchPair,
    a_rooms_by_vid: dict[VariableId, RoomEntry],
    s_rooms_by_vid: dict[VariableId, RoomEntry],
    hint: Pose2 | None = None,
) -> list[MatchPair]:
    """Match a room pair's four wall surfaces by side role; exactly 4 or raise."""
    a_room = a_rooms_by_vid[room_pair.a_node]
    s_room = s_rooms_by_vid[room_pair.s_node]
    theta = 0.0 if hint is None else hint.theta
    s_planes = _side_roles(s_room, a_room.outward[0], theta)
    return [MatchPair(a.vid, s.vid, "wall_surface") for a, s in zip(a_room.side_roles, s_planes)]


def combine_bottom_up(
    expanded: list[tuple[MatchCandidate, list[MatchPair]]]
) -> list[MatchCandidate]:
    """Merge room candidates with their wall pairs into all-level candidates.

    Candidates whose wall-pair union is not injective in both directions
    (a shared surface mapped to two different counterparts) are discarded.
    """
    out = []
    for cand, wall_pairs in expanded:
        by_a: dict[VariableId, MatchPair] = {}
        s_to_a: dict[VariableId, VariableId] = {}
        for pair in wall_pairs:
            a, s, _ = pair
            if by_a.setdefault(a, pair).s_node != s or s_to_a.setdefault(s, a) != a:
                break
        else:
            # The map is consistent, so the pairs are unique by plan plane; all
            # are plane to plane, so plan-plane index order is pair-key order.
            walls = sorted(by_a.values(), key=lambda p: p.a_node.index)
            out.append(
                MatchCandidate(
                    cand.room_pairs + tuple(walls), cand.affinity, cand.transform_hint, cand.e_rho
                )
            )
    return out


def wall_residual_rms(
    cands: list[MatchCandidate],
    a_rooms_by_vid: dict[VariableId, RoomEntry],
    s_rooms_by_vid: dict[VariableId, RoomEntry],
) -> list[float]:
    """RMS wall-pair residual of each candidate under its hint, in one residual pass.

    Every wall pair is weighed as the merge's plane-to-plane factor will
    weigh it. The rows of one candidate are contiguous, and the candidates of
    one wall count are reduced together, one row each, by ``np.mean``'s own
    steps (a sum along the row, then a division), so each RMS equals
    ``np.mean`` over that candidate's rows alone, bit for bit. A candidate
    without wall pairs has RMS 0.
    """
    a_planes = _rooms_by_vid(a_rooms_by_vid).plane_values
    s_planes = _rooms_by_vid(s_rooms_by_vid).plane_values
    rows_of = []  # per candidate: (plan phi, d, robot phi, d, hint x, y, theta) per wall pair
    by_count: dict[int, list[int]] = {}
    for k, cand in enumerate(cands):
        h = cand.transform_hint
        hint = (h.x, h.y, h.theta)
        rows = [
            a_planes[a] + s_planes[s] + hint
            for a, s, level in cand.pairs
            if level == "wall_surface"
        ]
        rows_of.append(rows)
        by_count.setdefault(len(rows), []).append(k)
    n_rows = sum(map(len, rows_of))
    out = [0.0] * len(cands)
    if not n_rows:
        return out
    grouped = chain.from_iterable(rows_of[k] for ks in by_count.values() for k in ks)
    table = np.fromiter(chain.from_iterable(grouped), float, 7 * n_rows).reshape(-1, 7)
    r, _ = plane_to_plane_residual([table[:, :2], table[:, 2:4], table[:, 4:]])
    sq = r**2
    lo = 0
    for m, ks in by_count.items():
        hi = lo + m * len(ks)
        if m:
            sums = np.add.reduce(sq[lo:hi].reshape(len(ks), 2 * m), axis=1)
            for k, mean in zip(ks, (sums / (2 * m)).tolist()):
                out[k] = math.sqrt(mean)
        lo = hi
    return out


def score_candidate(cand: MatchCandidate, e_pi: float) -> MatchCandidate:
    """Global affinity of an all-level candidate under its room-level alignment.

    The candidate carries the closed-form fit of its room pairs (hint and
    center residual); ``e_pi`` is the RMS residual of its wall pairs under
    that hint, from ``wall_residual_rms``.
    """
    if len(cand.room_pairs) < 2:
        raise MatchError("scoring needs at least 2 room pairs")
    affinity = math.exp(-(cand.e_rho / RHO_SCALE + e_pi / PI_SCALE))
    return MatchCandidate(cand.pairs, affinity, cand.transform_hint, cand.e_rho)


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
    (``AGraph.rooms``, whose arrays are then built once) and the robot side
    once per snapshot (``read_room_entries``).
    """
    if len(s_rooms) < 2:
        return MatchResult(MatchStatus.NO_MATCH, None, [])
    plan = _plan_rooms(a_rooms)
    a_by_vid = plan.by_vid
    s_by_vid = RoomsByVid((r.vid, r) for r in s_rooms)
    room_cands = propose_room_pairs(plan, s_rooms)
    expanded: list[tuple[MatchCandidate, list[MatchPair]]] = []
    for cand in room_cands:
        hint = cand.transform_hint
        try:
            wall_pairs = [
                wall
                for pair in cand.room_pairs
                for wall in propose_wall_pairs(pair, a_by_vid, s_by_vid, hint)
            ]
        except WallPairingError:
            continue
        expanded.append((cand, wall_pairs))
    combined = combine_bottom_up(expanded)
    e_pis = wall_residual_rms(combined, a_by_vid, s_by_vid)
    return cluster_and_decide([score_candidate(c, e_pi) for c, e_pi in zip(combined, e_pis)])
