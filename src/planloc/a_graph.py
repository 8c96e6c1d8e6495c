"""Floor-plan ingestion and construction of the architectural graph (A-Graph).

A floor plan describes wall slabs (centerline segment plus thickness),
rectangular rooms referencing four wall surfaces, and doorways connecting
room pairs, at any heading. Each wall slab contributes two parallel wall
surfaces; surfaces are identified as ``"<wall_id>:+"`` / ``"<wall_id>:-"`` for
the face on the left / right of the wall direction.

The resulting A-Graph is a factor graph over the wall-surface planes and
room centers of the plan frame "B": each room is tied to its four surfaces,
and a prior on the first room anchors the graph. Walls and doorways stay in
the plan (the simulator cuts the doorway openings) but are not graph nodes.
A valid plan always produces a graph whose total cost is zero at the initial
values.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from .factor_graph import Factor, FactorGraph, FactorKind, VariableId, VarKind
from .geometry import PERP
from .matcher import PlanRooms, room_entries

ROOM_SIDES = ("px", "mx", "py", "my")

# Largest miss [unit-vector norm] of a room face normal from its side's
# direction in the room's own frame. Turning a plan rounds its coordinates,
# which moves a face normal by ~1e-15; a larger miss is a drawn angle, and the
# room center and the matcher's room dims hold only for right angles.
RIGHT_ANGLE_TOL = 1e-9


class PlanError(ValueError):
    """Floor-plan file failed to parse or validate."""


@dataclass(frozen=True)
class PlanWall:
    id: str
    start: tuple[float, float]
    end: tuple[float, float]
    thickness: float

    @property
    def length(self) -> float:
        return math.hypot(self.end[0] - self.start[0], self.end[1] - self.start[1])

    def direction(self) -> np.ndarray:
        d = np.array([self.end[0] - self.start[0], self.end[1] - self.start[1]])
        return d / np.linalg.norm(d)


@dataclass(frozen=True)
class PlanRoom:
    id: str
    surfaces: dict[str, str]  # side ("px","mx","py","my") -> surface id


@dataclass(frozen=True)
class PlanDoorway:
    id: str
    position: tuple[float, float]
    rooms: tuple[str, str]


@dataclass(frozen=True)
class WallSurface:
    """One face of a wall slab, with both graph and simulation geometry."""

    id: str
    wall_id: str
    # canonical closest-point form in frame B: unit normal pointing away
    # from the origin, so dist >= 0 and dist * normal is the plane's foot
    normal: tuple[float, float]
    dist: float
    face_normal: tuple[float, float]  # outward from the slab material
    seg_start: tuple[float, float]
    seg_end: tuple[float, float]


@dataclass(frozen=True)
class FloorPlan:
    walls: tuple[PlanWall, ...]
    rooms: tuple[PlanRoom, ...]
    doorways: tuple[PlanDoorway, ...]

    def wall(self, wall_id: str) -> PlanWall:
        for w in self.walls:
            if w.id == wall_id:
                return w
        raise PlanError(f"unknown wall id {wall_id!r}")

    def room(self, room_id: str) -> PlanRoom:
        for r in self.rooms:
            if r.id == room_id:
                return r
        raise PlanError(f"unknown room id {room_id!r}")

    # Built on first use; the plan is immutable, so the surfaces never change.
    # Callers must not modify the dict.
    @cached_property
    def surfaces(self) -> dict[str, WallSurface]:
        """All wall surfaces of the plan, keyed by surface id."""
        return {surf.id: surf for wall in self.walls for surf in _surfaces_of_wall(wall)}

    def room_center(self, room_id: str) -> tuple[float, float]:
        """A room's center: half the sum of its four surfaces' feet, the ``room_to_walls`` rule."""
        x = y = 0.0
        for sid in self.room(room_id).surfaces.values():
            surf = self.surfaces[sid]
            x += 0.5 * surf.dist * surf.normal[0]
            y += 0.5 * surf.dist * surf.normal[1]
        return (x, y)


def _surfaces_of_wall(wall: PlanWall) -> list[WallSurface]:
    if wall.length <= 0:
        raise PlanError(f"wall {wall.id!r} has zero length")
    if wall.thickness <= 0:
        raise PlanError(f"wall {wall.id!r} has non-positive thickness")
    u = wall.direction()
    nu = PERP @ u  # left of the wall direction
    start = np.asarray(wall.start, float)
    end = np.asarray(wall.end, float)
    out = []
    for sign, tag in ((1.0, "+"), (-1.0, "-")):
        face_n = sign * nu
        offset = (wall.thickness / 2.0) * face_n
        s0 = start + offset
        s1 = end + offset
        # face_n is a unit vector; flip it to point away from the origin
        d_signed = float(face_n @ s0)
        n, dist = (face_n, d_signed) if d_signed >= 0 else (-face_n, -d_signed)
        out.append(
            WallSurface(
                id=f"{wall.id}:{tag}",
                wall_id=wall.id,
                normal=(float(n[0]), float(n[1])),
                dist=dist,
                face_normal=(float(face_n[0]), float(face_n[1])),
                seg_start=(float(s0[0]), float(s0[1])),
                seg_end=(float(s1[0]), float(s1[1])),
            )
        )
    return out


def _parse_number(obj, where: str) -> float:
    """A finite float: Python's json reads NaN and Infinity, which no plan can hold."""
    value = float(obj)
    if not math.isfinite(value):
        raise PlanError(f"{where}: expected a finite number, got {obj!r}")
    return value


def _parse_point(obj, where: str) -> tuple[float, float]:
    if not isinstance(obj, (list, tuple)) or len(obj) != 2:
        raise PlanError(f"{where}: expected [x, y], got {obj!r}")
    return (_parse_number(obj[0], where), _parse_number(obj[1], where))


def _wall_of(w: dict, where: str) -> PlanWall:
    return PlanWall(
        id=str(w["id"]),
        start=_parse_point(w["start"], f"{where} start"),
        end=_parse_point(w["end"], f"{where} end"),
        thickness=_parse_number(w["thickness"], f"{where} thickness"),
    )


def _room_of(r: dict, where: str) -> PlanRoom:
    surfaces = {side: str(r["surfaces"][side]) for side in ROOM_SIDES}
    return PlanRoom(id=str(r["id"]), surfaces=surfaces)


def _doorway_of(d: dict, where: str) -> PlanDoorway:
    room_ids = [str(x) for x in d["rooms"]]
    if len(room_ids) != 2:
        raise PlanError(f"{where}: doorway must reference exactly 2 rooms")
    position = _parse_point(d["position"], f"{where} position")
    return PlanDoorway(id=str(d["id"]), position=position, rooms=(room_ids[0], room_ids[1]))


def _parsed(doc: dict, key: str, parse) -> list:
    """Each object of the list ``doc[key]`` (empty when absent) through ``parse``.

    A field that is not a list of objects, or an entry ``parse`` cannot read,
    raises PlanError naming the entry.
    """
    entries = doc.get(key, [])
    if not isinstance(entries, list):
        raise PlanError(f"plan field {key!r} must be a list, got {entries!r}")
    out = []
    for i, entry in enumerate(entries):
        where = f"{key}[{i}]"
        if not isinstance(entry, dict):
            raise PlanError(f"{where}: expected an object, got {entry!r}")
        try:
            out.append(parse(entry, where))
        except PlanError:
            raise
        except KeyError as exc:
            raise PlanError(f"{where}: missing field {exc.args[0]!r}") from None
        except (TypeError, ValueError) as exc:  # e.g. a null number or a non-object field
            raise PlanError(f"{where}: malformed entry: {exc}") from None
    return out


def plan_from_dict(doc: dict) -> FloorPlan:
    """Build and validate a FloorPlan from parsed JSON."""
    if not isinstance(doc, dict):
        raise PlanError("plan document must be a JSON object")
    plan = FloorPlan(
        tuple(_parsed(doc, "walls", _wall_of)),
        tuple(_parsed(doc, "rooms", _room_of)),
        tuple(_parsed(doc, "doorways", _doorway_of)),
    )
    validate_plan(plan)
    return plan


def load_plan(path) -> FloorPlan:
    """Load and validate a floor-plan JSON file."""
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise PlanError(f"cannot read plan file {path}: {exc}") from exc
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise PlanError(f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}") from exc
    return plan_from_dict(doc)


def validate_plan(plan: FloorPlan) -> None:
    seen_walls = set()
    for wall in plan.walls:
        if wall.id in seen_walls:
            raise PlanError(f"duplicate wall id {wall.id!r}")
        seen_walls.add(wall.id)
        if wall.length <= 0:
            raise PlanError(f"wall {wall.id!r} has zero length")
        if wall.thickness <= 0:
            raise PlanError(f"wall {wall.id!r} has non-positive thickness")
    surfaces = plan.surfaces

    seen_rooms = set()
    for room in plan.rooms:
        if room.id in seen_rooms:
            raise PlanError(f"duplicate room id {room.id!r}")
        seen_rooms.add(room.id)
        for side in ROOM_SIDES:
            sid = room.surfaces[side]
            if sid not in surfaces:
                raise PlanError(f"room {room.id!r} references missing surface {sid!r}")
        # The room's own frame: x out through side px, y a quarter turn
        # counterclockwise; each face normal points into the room along it.
        fx, fy = surfaces[room.surfaces["px"]].face_normal
        wants = ((fx, fy), (-fx, -fy), (-fy, fx), (fy, -fx))
        cx, cy = plan.room_center(room.id)
        for side, (wx, wy) in zip(ROOM_SIDES, wants):
            surf = surfaces[room.surfaces[side]]
            nx, ny = surf.face_normal
            if math.hypot(nx - wx, ny - wy) > RIGHT_ANGLE_TOL:
                raise PlanError(
                    f"room {room.id!r} side {side}: surface {surf.id!r} is not at a right "
                    "angle to side px (sides px, py, mx, my run counterclockwise)"
                )
            (x0, y0), (x1, y1) = surf.seg_start, surf.seg_end
            if nx * (cx - (x0 + x1) / 2.0) + ny * (cy - (y0 + y1) / 2.0) <= 0:
                raise PlanError(
                    f"room {room.id!r}: surface {surf.id!r} does not face the room interior"
                )

    seen_doorways = set()
    for doorway in plan.doorways:
        if doorway.id in seen_doorways:
            raise PlanError(f"duplicate doorway id {doorway.id!r}")
        seen_doorways.add(doorway.id)
        r1, r2 = doorway.rooms
        if r1 == r2:
            raise PlanError(f"doorway {doorway.id!r} must connect two distinct rooms")
        if r1 not in seen_rooms or r2 not in seen_rooms:
            raise PlanError(f"doorway {doorway.id!r} references a missing room")
        wall = shared_wall(plan, r1, r2)
        if wall is None:
            raise PlanError(f"doorway {doorway.id!r}: rooms {r1!r} and {r2!r} share no wall")
        dist = _point_segment_distance(
            np.asarray(doorway.position), np.asarray(wall.start), np.asarray(wall.end)
        )
        if dist > 0.5:
            raise PlanError(
                f"doorway {doorway.id!r} lies {dist:.2f} m from the shared wall {wall.id!r}"
            )


def shared_wall(plan: FloorPlan, room1: str, room2: str) -> PlanWall | None:
    """The wall whose two faces are referenced by the two rooms, if any."""
    s1 = set(plan.room(room1).surfaces.values())
    s2 = set(plan.room(room2).surfaces.values())
    for wall in plan.walls:
        faces = {f"{wall.id}:+", f"{wall.id}:-"}
        if (faces & s1) and (faces & s2) and (faces & s1) != (faces & s2):
            return wall
    return None


def _point_segment_distance(p: np.ndarray, a: np.ndarray, b: np.ndarray) -> float:
    ab = b - a
    t = float(np.clip(((p - a) @ ab) / float(ab @ ab), 0.0, 1.0))
    return float(np.linalg.norm(p - (a + t * ab)))


@dataclass
class AGraph:
    """Optimizable graph of a floor plan: wall-surface planes and room centers."""

    plan: FloorPlan
    graph: FactorGraph
    plane_ids: dict[str, VariableId]  # surface id -> plane variable
    room_ids: dict[str, VariableId]

    @cached_property
    def rooms(self) -> PlanRooms:
        """The matcher's view of the plan's four-wall rooms; the plan is constant, so read once."""
        return PlanRooms(room_entries(self.graph))

    def surface_of_plane(self, vid: VariableId) -> str:
        for sid, pid in self.plane_ids.items():
            if pid == vid:
                return sid
        raise PlanError(f"no surface for plane variable {vid}")

    def room_of_variable(self, vid: VariableId) -> str:
        for rid, rv in self.room_ids.items():
            if rv == vid:
                return rid
        raise PlanError(f"no room for variable {vid}")


def build_a_graph(plan: FloorPlan) -> AGraph:
    """Construct the plan's factor graph with all variables at their analytic values."""
    validate_plan(plan)
    surfaces = plan.surfaces
    graph = FactorGraph()

    plane_ids: dict[str, VariableId] = {}
    for wall in plan.walls:
        for tag in ("+", "-"):
            sid = f"{wall.id}:{tag}"
            surf = surfaces[sid]
            plane_ids[sid] = graph.add_variable(
                VarKind.PLANE, [math.atan2(surf.normal[1], surf.normal[0]), surf.dist]
            )

    room_ids: dict[str, VariableId] = {}
    for room in plan.rooms:
        rid = graph.add_variable(VarKind.ROOM, plan.room_center(room.id))
        room_ids[room.id] = rid
        graph.add_factor(
            Factor(
                FactorKind.ROOM_TO_WALLS,
                (
                    rid,
                    plane_ids[room.surfaces["px"]],
                    plane_ids[room.surfaces["mx"]],
                    plane_ids[room.surfaces["py"]],
                    plane_ids[room.surfaces["my"]],
                ),
            )
        )

    if plan.rooms:
        first = room_ids[plan.rooms[0].id]
        graph.add_factor(Factor(FactorKind.PRIOR, (first,), graph.value(first)))

    cost = graph.total_cost()
    if not cost <= 1e-12:  # a NaN cost fails too
        raise PlanError(f"plan is internally inconsistent: initial graph cost {cost:.3e}")
    return AGraph(plan, graph, plane_ids, room_ids)
