"""Robot simulator and online situational graph (S-Graph) estimation.

The simulator drives a robot along a waypoint polyline through a floor plan,
emitting noisy odometry and noisy plane observations of the wall surfaces
that are in range, facing the robot, and not occluded (doorways punch
openings into their walls). The estimator ingests those measurements into a
factor graph over keyframes, wall-surface planes, rooms and a floor node,
re-optimizing after every update.

Observed planes keep the orientation seen by the sensor (normal pointing
from the robot into the wall material), so the two faces of one wall never
alias during data association even though they are only a slab apart.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .a_graph import FloorPlan, WallSurface, shared_wall
from .factor_graph import (
    Factor,
    FactorGraph,
    FactorKind,
    SolveReport,
    VariableId,
    VarKind,
)
from .geometry import PERP, Pose2, axis_of_normal, transform_phi_dist, wrap_angle

DEG = math.pi / 180.0

# Simulator noise defaults: sigma_xy [m/step], sigma_theta [rad/step],
# sigma_phi [rad], sigma_d [m].
DEFAULT_ODOM_NOISE = (0.01, 0.2 * DEG)
DEFAULT_PLANE_NOISE = (0.3 * DEG, 0.02)

# Estimator thresholds. An observation joins a known plane within these
# gates on angle [rad] and closest-point distance [m].
ASSOC_PHI_TOL = 0.15
ASSOC_D_TOL = 0.35
# Two planes bound a room from opposite sides when they are within
# OPPOSED_TOL [rad] of exactly opposed, their gap [m] lies in
# [ROOM_GAP_MIN, ROOM_GAP_MAX], their extents overlap by PAIR_OVERLAP_MIN [m]
# and no other plane lies more than EMPTY_MARGIN [m] inside the gap.
OPPOSED_TOL = 0.3
ROOM_GAP_MIN = 1.0
ROOM_GAP_MAX = 15.0
PAIR_OVERLAP_MIN = 0.5
EMPTY_MARGIN = 0.1
# Two such pairs form a four-wall room when |cos| of their normals is at most this.
PERP_DOT_MAX = 0.3
# A lone pair becomes a two-wall room once this many keyframes saw both planes.
GAMMA_MIN_OBSERVERS = 3
# Information of each room-to-floor factor [1/m^2].
FLOOR_INFORMATION = 1e-2
# LM iterations of the re-solve after each update.
UPDATE_ITERATIONS = 15


class SimulationError(RuntimeError):
    """The scenario cannot be simulated (bad path, bad config)."""


@dataclass(frozen=True)
class SimConfig:
    waypoints: tuple[tuple[float, float], ...]
    keyframe_spacing: float = 0.6
    odom_noise: tuple[float, float] = DEFAULT_ODOM_NOISE
    plane_noise: tuple[float, float] = DEFAULT_PLANE_NOISE
    sensor_range: float = 6.0
    seed: int = 0
    map_offset: Pose2 | None = None
    doorway_gap: float = 0.9

    def __post_init__(self):
        if len(self.waypoints) < 2:
            raise SimulationError("need at least 2 waypoints")
        if self.keyframe_spacing <= 0:
            raise SimulationError("keyframe_spacing must be positive")
        if min(*self.odom_noise, *self.plane_noise) < 0:
            raise SimulationError("noise sigmas must be >= 0")

    @staticmethod
    def from_dict(doc: dict) -> "SimConfig":
        if "waypoints" not in doc:
            raise SimulationError("scenario is missing the 'waypoints' field")
        offset = doc.get("map_offset")
        return SimConfig(
            waypoints=tuple((float(x), float(y)) for x, y in doc["waypoints"]),
            keyframe_spacing=float(doc.get("keyframe_spacing", 0.6)),
            odom_noise=tuple(doc.get("odom_noise", DEFAULT_ODOM_NOISE)),
            plane_noise=tuple(doc.get("plane_noise", DEFAULT_PLANE_NOISE)),
            sensor_range=float(doc.get("sensor_range", 6.0)),
            seed=int(doc.get("seed", 0)),
            map_offset=None if offset is None else Pose2.from_array(offset),
            doorway_gap=float(doc.get("doorway_gap", 0.9)),
        )


@dataclass(frozen=True)
class PlaneObservation:
    """Body-frame wall-surface observation in (phi, dist) closest-point form.

    ``extent`` is the visible span along the plane's in-plane direction,
    measured in body-frame coordinates. ``surface_id`` is the ground-truth
    provenance side channel used only by tests and reports, never by the
    estimator's geometry.
    """

    phi: float
    dist: float
    extent: tuple[float, float]
    surface_id: str


@dataclass(frozen=True)
class SimStep:
    index: int
    gt_plan: Pose2
    gt_map: Pose2
    odometry: Pose2 | None
    observations: tuple[PlaneObservation, ...]


def _segments_cross(p: np.ndarray, q: np.ndarray, a: np.ndarray, b: np.ndarray) -> bool:
    r = q - p
    e = b - a
    d1 = r[0] * (a[1] - p[1]) - r[1] * (a[0] - p[0])
    d2 = r[0] * (b[1] - p[1]) - r[1] * (b[0] - p[0])
    d3 = e[0] * (p[1] - a[1]) - e[1] * (p[0] - a[0])
    d4 = e[0] * (q[1] - a[1]) - e[1] * (q[0] - a[0])
    return d1 * d2 < 0 and d3 * d4 < 0


class PlanSimulator:
    """Deterministic waypoint-following robot with a synthetic plane sensor."""

    def __init__(self, plan: FloorPlan, config: SimConfig):
        self.plan = plan
        self.config = config
        self.surfaces: dict[str, WallSurface] = plan.surfaces
        self._rng = np.random.default_rng(config.seed)
        self._solid = self._solid_intervals()
        self._blockers, blocker_wall = self._blocking_segments()
        # Static sight geometry of each surface: its sample points and the
        # blocking segments of every other wall.
        self._samples = {sid: self._surface_samples(s) for sid, s in self.surfaces.items()}
        self._other_blockers = {
            w.id: self._blockers[np.array([owner != w.id for owner in blocker_wall], dtype=bool)]
            for w in plan.walls
        }
        self._gt_plan = self._sample_path()
        self._check_path_free()
        offset = config.map_offset or self._gt_plan[0]
        self.map_offset = offset
        self._map_from_plan = offset.inverse()

    # -- path ---------------------------------------------------------------

    def _sample_path(self) -> list[Pose2]:
        pts = [np.asarray(w, float) for w in self.config.waypoints]
        segs = []
        for a, b in zip(pts[:-1], pts[1:]):
            length = float(np.linalg.norm(b - a))
            if length < 1e-9:
                raise SimulationError("consecutive waypoints coincide")
            segs.append((a, b, length))
        total = sum(s[2] for s in segs)
        n_steps = int(total / self.config.keyframe_spacing) + 1
        poses = []
        for k in range(n_steps):
            arc = min(k * self.config.keyframe_spacing, total)
            acc = 0.0
            for a, b, length in segs:
                if arc <= acc + length + 1e-12:
                    t = (arc - acc) / length
                    pos = a + t * (b - a)
                    heading = math.atan2(b[1] - a[1], b[0] - a[0])
                    poses.append(Pose2(pos[0], pos[1], heading))
                    break
                acc += length
        return poses

    def _check_path_free(self):
        pts = [np.asarray(w, float) for w in self.config.waypoints]
        for a, b in zip(pts[:-1], pts[1:]):
            for blocker in self._blockers:
                if _segments_cross(a, b, blocker[0], blocker[1]):
                    raise SimulationError(
                        "waypoint path exits plan free space (crosses a wall)"
                    )

    # -- occlusion geometry ---------------------------------------------------

    def _solid_intervals(self) -> dict[str, list[tuple[float, float]]]:
        """Per wall: sub-intervals of the centerline that are material (not doorway)."""
        gaps: dict[str, list[tuple[float, float]]] = {w.id: [] for w in self.plan.walls}
        half = self.config.doorway_gap / 2.0
        for doorway in self.plan.doorways:
            wall = shared_wall(self.plan, *doorway.rooms)
            if wall is None:
                continue
            a = np.asarray(wall.start, float)
            u = wall.direction()
            t = float((np.asarray(doorway.position) - a) @ u)
            gaps[wall.id].append((t - half, t + half))
        out: dict[str, list[tuple[float, float]]] = {}
        for wall in self.plan.walls:
            intervals = [(0.0, wall.length)]
            for lo, hi in sorted(gaps[wall.id]):
                nxt = []
                for a0, a1 in intervals:
                    if hi <= a0 or lo >= a1:
                        nxt.append((a0, a1))
                        continue
                    if lo > a0:
                        nxt.append((a0, lo))
                    if hi < a1:
                        nxt.append((hi, a1))
                intervals = nxt
            out[wall.id] = [(a0, a1) for a0, a1 in intervals if a1 - a0 > 1e-6]
        return out

    def _blocking_segments(self) -> tuple[np.ndarray, list[str]]:
        # Both faces of each solid slab block line of sight; using faces
        # instead of centerlines also hides surface slivers that are embedded
        # inside another wall's material at corner junctions.
        segs = []
        owners = []
        for wall in self.plan.walls:
            a = np.asarray(wall.start, float)
            u = wall.direction()
            nu = PERP @ u
            for lo, hi in self._solid[wall.id]:
                for sign in (1.0, -1.0):
                    off = sign * (wall.thickness / 2.0) * nu
                    segs.append((a + lo * u + off, a + hi * u + off))
                    owners.append(wall.id)
        return np.asarray(segs), owners

    def _surface_samples(self, surface: WallSurface) -> np.ndarray:
        wall = self.plan.wall(surface.wall_id)
        a = np.asarray(wall.start, float)
        u = wall.direction()
        off = (wall.thickness / 2.0) * np.asarray(surface.face_normal)
        pts = []
        for lo, hi in self._solid[wall.id]:
            span = hi - lo
            n = max(2, int(span / 0.35) + 1)
            for t in np.linspace(lo + 0.02, hi - 0.02, n):
                pts.append(a + t * u + off)
        return np.asarray(pts)

    # -- sensing --------------------------------------------------------------

    def _visible_extent(self, surface: WallSurface, pose: Pose2) -> tuple[float, float] | None:
        """Body-frame in-plane extent of the visible part of a surface, if any."""
        p = pose.translation
        face_n = np.asarray(surface.face_normal)
        samples = self._samples[surface.id]
        if len(samples) == 0:
            return None
        rel = samples - p
        in_range = np.einsum("ij,ij->i", rel, rel) <= self.config.sensor_range**2
        facing = rel @ face_n < 0  # robot on the side the face points to
        cand = samples[in_range & facing]
        if len(cand) == 0:
            return None
        blockers = self._other_blockers[surface.wall_id]
        if len(blockers) > 0:
            r = cand - p  # (S, 2)
            ap = blockers[:, 0, :] - p  # (K, 2)
            bp = blockers[:, 1, :] - p
            d1 = r[:, None, 0] * ap[None, :, 1] - r[:, None, 1] * ap[None, :, 0]
            d2 = r[:, None, 0] * bp[None, :, 1] - r[:, None, 1] * bp[None, :, 0]
            e = blockers[:, 1, :] - blockers[:, 0, :]
            pa = p[None, :] - blockers[:, 0, :]
            d3 = e[:, 0] * pa[:, 1] - e[:, 1] * pa[:, 0]  # (K,)
            qa = cand[:, None, :] - blockers[None, :, 0, :]
            d4 = e[None, :, 0] * qa[:, :, 1] - e[None, :, 1] * qa[:, :, 0]
            blocked = (d1 * d2 < 0) & (d3[None, :] * d4 < 0)
            cand = cand[~blocked.any(axis=1)]
        if len(cand) == 0:
            return None
        n_raw = -face_n
        m_hat = PERP @ n_raw
        coords = (cand - p) @ m_hat
        return (float(coords.min()), float(coords.max()))

    def _observe(self, pose: Pose2) -> list[PlaneObservation]:
        obs = []
        sigma_phi, sigma_d = self.config.plane_noise
        for sid in sorted(self.surfaces):
            surface = self.surfaces[sid]
            extent = self._visible_extent(surface, pose)
            if extent is None:
                continue
            n_raw = -np.asarray(surface.face_normal)
            d_raw = float(n_raw @ np.asarray(surface.seg_start))
            phi_raw = math.atan2(n_raw[1], n_raw[0])
            phi_b = wrap_angle(phi_raw - pose.theta)
            d_b = d_raw - float(n_raw @ pose.translation)
            phi_b = wrap_angle(phi_b + sigma_phi * self._rng.standard_normal())
            d_b = d_b + sigma_d * self._rng.standard_normal()
            obs.append(PlaneObservation(phi_b, d_b, extent, sid))
        return obs

    # -- public API -------------------------------------------------------------

    @property
    def initial_map_pose(self) -> Pose2:
        """Robot start pose in the map frame (the estimator's initial fix)."""
        return self._map_from_plan.compose(self._gt_plan[0])

    def n_steps(self) -> int:
        return len(self._gt_plan)

    def steps(self):
        """Yield one SimStep per keyframe; deterministic for a given seed."""
        sigma_xy, sigma_theta = self.config.odom_noise
        prev: Pose2 | None = None
        for k, gt in enumerate(self._gt_plan):
            odometry = None
            if prev is not None:
                rel = gt.relative_to(prev)
                noise = self._rng.standard_normal(3)
                odometry = Pose2(
                    rel.x + sigma_xy * noise[0],
                    rel.y + sigma_xy * noise[1],
                    rel.theta + sigma_theta * noise[2],
                )
            observations = tuple(self._observe(gt))
            yield SimStep(
                index=k,
                gt_plan=gt,
                gt_map=self._map_from_plan.compose(gt),
                odometry=odometry,
                observations=observations,
            )
            prev = gt


# ---------------------------------------------------------------------------
# online estimation
# ---------------------------------------------------------------------------


@dataclass
class SGraphConfig:
    # Measurement information; None falls back to the library-wide defaults.
    odom_information: np.ndarray | None = None
    plane_information: np.ndarray | None = None

    @staticmethod
    def for_noise(
        odom_noise: tuple[float, float], plane_noise: tuple[float, float]
    ) -> "SGraphConfig":
        """Inverse-variance measurement weights for a known sensor noise model.

        Zero sigmas are floored so noiseless scenarios stay finite.
        """

        def inv_var(sigma: float, floor: float = 1e-4) -> float:
            return 1.0 / max(sigma, floor) ** 2

        return SGraphConfig(
            odom_information=np.diag(
                [inv_var(odom_noise[0]), inv_var(odom_noise[0]), inv_var(odom_noise[1])]
            ),
            plane_information=np.diag([inv_var(plane_noise[0]), inv_var(plane_noise[1])]),
        )


@dataclass
class PlaneRecord:
    vid: VariableId
    extent: tuple[float, float]
    observers: set[int] = field(default_factory=set)
    truth: dict[str, int] = field(default_factory=dict)

    def truth_surface(self) -> str:
        """Most frequently observed ground-truth surface id (provenance oracle)."""
        return max(sorted(self.truth), key=lambda k: self.truth[k])


@dataclass
class RoomRecord:
    vid: VariableId
    planes: tuple[VariableId, VariableId, VariableId, VariableId]
    factor_id: int


@dataclass
class GammaRecord:
    vid: VariableId
    planes: tuple[VariableId, VariableId]
    factor_id: int


class SGraph:
    """Incrementally estimated robot graph: keyframes, planes, rooms, floor."""

    def __init__(self, initial_pose: Pose2, config: SGraphConfig | None = None):
        self.config = config or SGraphConfig()
        self.graph = FactorGraph()
        self.keyframes: list[VariableId] = []
        self.planes: dict[VariableId, PlaneRecord] = {}
        self.rooms: dict[VariableId, RoomRecord] = {}
        self.gammas: dict[VariableId, GammaRecord] = {}
        self.floor: VariableId | None = None
        self._floor_factors: dict[VariableId, int] = {}
        self.gt_plan: list[Pose2] = []
        self.gt_map: list[Pose2] = []
        self._initial_pose = initial_pose
        self.last_report: SolveReport | None = None

    # -- update -----------------------------------------------------------

    def add_step(self, step: SimStep) -> SolveReport:
        kf = self._add_keyframe(step)
        self.gt_plan.append(step.gt_plan)
        self.gt_map.append(step.gt_map)
        for obs, vid in self.associate_planes(kf, step.observations):
            self.graph.add_factor(
                Factor(
                    FactorKind.POSE_PLANE,
                    (kf, vid),
                    (obs.phi, obs.dist),
                    self.config.plane_information,
                )
            )
        self.detect_rooms()
        self._update_floor()
        self.last_report = self.graph.optimize(UPDATE_ITERATIONS)
        return self.last_report

    def _add_keyframe(self, step: SimStep) -> VariableId:
        if not self.keyframes:
            kf = self.graph.add_variable(VarKind.KEYFRAME, self._initial_pose.as_array())
            self.graph.add_factor(
                Factor(FactorKind.PRIOR, (kf,), self._initial_pose.as_array())
            )
        else:
            if step.odometry is None:
                raise SimulationError("non-initial step without odometry")
            prev = Pose2.from_array(self.graph.value(self.keyframes[-1]))
            kf = self.graph.add_variable(
                VarKind.KEYFRAME, prev.compose(step.odometry).as_array()
            )
            self.graph.add_factor(
                Factor(
                    FactorKind.ODOMETRY,
                    (self.keyframes[-1], kf),
                    step.odometry.as_array(),
                    self.config.odom_information,
                )
            )
        self.keyframes.append(kf)
        return kf

    def associate_planes(
        self, keyframe: VariableId, observations
    ) -> list[tuple[PlaneObservation, VariableId]]:
        """Match observations against known planes or allocate new variables.

        An observation matches an existing plane when it lands on the same
        axis within the angular and distance gates; ties break to the
        smallest distance gap, then the lowest plane index. Matched or not,
        the plane's extent, observer and provenance records are updated.
        """
        pose = Pose2.from_array(self.graph.value(keyframe))
        step_index = self.keyframes.index(keyframe)
        out = []
        for obs in observations:
            vid = self._associate(pose, obs)
            self._update_record(vid, pose, obs, step_index)
            out.append((obs, vid))
        return out

    def _associate(self, pose: Pose2, obs: PlaneObservation) -> VariableId:
        phi_m, d_m = transform_phi_dist(pose, obs.phi, obs.dist)
        axis = axis_of_normal(math.cos(phi_m), math.sin(phi_m))
        best: tuple[float, int, VariableId] | None = None
        for vid, rec in self.planes.items():
            phi_p, d_p = self.graph.value(vid)
            if axis_of_normal(math.cos(phi_p), math.sin(phi_p)) != axis:
                continue
            if abs(wrap_angle(phi_m - phi_p)) >= ASSOC_PHI_TOL:
                continue
            dd = abs(d_m - d_p)
            if dd >= ASSOC_D_TOL:
                continue
            key = (dd, vid.index, vid)
            if best is None or key < best:
                best = key
        if best is not None:
            return best[2]
        return self.graph.add_variable(VarKind.PLANE, [phi_m, d_m])

    def _update_record(self, vid: VariableId, pose: Pose2, obs: PlaneObservation, step: int):
        phi_p, _ = self.graph.value(vid)
        m_hat = np.array([-math.sin(phi_p), math.cos(phi_p)])
        # extent was measured along the body-frame in-plane direction; shifting
        # by the keyframe translation lands it in map coordinates.
        shift = float(m_hat @ pose.translation)
        lo, hi = obs.extent[0] + shift, obs.extent[1] + shift
        rec = self.planes.get(vid)
        if rec is None:
            self.planes[vid] = rec = PlaneRecord(vid, (lo, hi))
        else:
            rec.extent = (min(rec.extent[0], lo), max(rec.extent[1], hi))
        rec.observers.add(step)
        rec.truth[obs.surface_id] = rec.truth.get(obs.surface_id, 0) + 1

    # -- room detection ------------------------------------------------------

    def _plane_geometry(self):
        out = []
        for vid in sorted(self.planes, key=lambda v: v.index):
            phi, d = self.graph.value(vid)
            n = np.array([math.cos(phi), math.sin(phi)])
            rec = self.planes[vid]
            out.append(
                {
                    "vid": vid,
                    "phi": phi,
                    "d": d,
                    "n": n,
                    "foot": d * n,
                    "m_hat": PERP @ n,
                    "extent": rec.extent,
                    "observers": rec.observers,
                }
            )
        return out

    @staticmethod
    def _extent_along(entry, direction: np.ndarray) -> tuple[float, float]:
        """An extent interval re-expressed along an arbitrary in-plane direction."""
        sign = 1.0 if float(entry["m_hat"] @ direction) >= 0 else -1.0
        lo, hi = entry["extent"]
        return (lo, hi) if sign > 0 else (-hi, -lo)

    def _qualifying_pairs(self, geo):
        pairs = []
        for i in range(len(geo)):
            for j in range(i + 1, len(geo)):
                gi, gj = geo[i], geo[j]
                if abs(wrap_angle(gi["phi"] - gj["phi"])) <= math.pi - OPPOSED_TOL:
                    continue
                n_hat = gi["n"]
                gap = float(gi["d"] - gj["d"] * (gi["n"] @ gj["n"]))
                if not (ROOM_GAP_MIN <= gap <= ROOM_GAP_MAX):
                    continue
                ei = gi["extent"]
                ej = self._extent_along(gj, gi["m_hat"])
                band = (max(ei[0], ej[0]), min(ei[1], ej[1]))
                if band[1] - band[0] < PAIR_OVERLAP_MIN:
                    continue
                u_i = float(gi["foot"] @ n_hat)
                u_j = float(gj["foot"] @ n_hat)
                lo, hi = min(u_i, u_j), max(u_i, u_j)
                if self._region_occupied(geo, gi, gj, n_hat, lo, hi, band):
                    continue
                pairs.append(
                    {
                        "planes": (gi, gj),
                        "n_hat": n_hat,
                        "interval": (lo, hi),
                        "band": band,
                        "gap": gap,
                    }
                )
        return pairs

    def _region_occupied(self, geo, gi, gj, n_hat, lo, hi, band) -> bool:
        """True when another same-orientation plane subdivides the pair's gap."""
        for gk in geo:
            if gk is gi or gk is gj:
                continue
            if abs(float(gk["n"] @ n_hat)) < 0.7:
                continue
            u_k = float(gk["foot"] @ n_hat)
            if not (lo + EMPTY_MARGIN < u_k < hi - EMPTY_MARGIN):
                continue
            ek = self._extent_along(gk, gi["m_hat"])
            if min(ek[1], band[1]) - max(ek[0], band[0]) > 0.3:
                return True
        return False

    def detect_rooms(self) -> list[VariableId]:
        """Create four-wall rooms and two-wall rooms from the current planes.

        Idempotent: re-running without new planes or pose changes adds nothing.
        """
        geo = self._plane_geometry()
        pairs = self._qualifying_pairs(geo)
        # Distinct rooms may legitimately share faces (a long wall bounding
        # several rooms), but sharing 3 of 4 planes means a near-duplicate.
        existing_sets = [set(rec.planes) for rec in self.rooms.values()]
        created: list[VariableId] = []

        quads = []
        for a in range(len(pairs)):
            for b in range(a + 1, len(pairs)):
                pa, pb = pairs[a], pairs[b]
                if abs(float(pa["n_hat"] @ pb["n_hat"])) > PERP_DOT_MAX:
                    continue
                if not self._cross_overlap(pa, pb) or not self._cross_overlap(pb, pa):
                    continue
                first, second = pa, pb
                ax_a = axis_of_normal(*pa["n_hat"])
                ax_b = axis_of_normal(*pb["n_hat"])
                if (ax_a.value, min(g["vid"].index for g in pa["planes"])) > (
                    ax_b.value,
                    min(g["vid"].index for g in pb["planes"]),
                ):
                    first, second = pb, pa
                plane_vids = tuple(
                    g["vid"]
                    for g in (
                        *sorted(first["planes"], key=lambda g: g["vid"].index),
                        *sorted(second["planes"], key=lambda g: g["vid"].index),
                    )
                )
                quads.append(plane_vids)
        for plane_vids in sorted(quads, key=lambda q: tuple(sorted(v.index for v in q))):
            vid_set = set(plane_vids)
            if any(len(vid_set & es) >= 3 for es in existing_sets):
                continue
            center = self._center_of(plane_vids)
            room = self.graph.add_variable(VarKind.ROOM, center)
            fid = self.graph.add_factor(
                Factor(FactorKind.ROOM_TO_WALLS, (room, *plane_vids))
            )
            self.rooms[room] = RoomRecord(room, plane_vids, fid)
            existing_sets.append(vid_set)
            created.append(room)
            for gvid, grec in list(self.gammas.items()):
                if set(grec.planes) <= vid_set:
                    self._remove_gamma(gvid)

        for pair in pairs:
            gi, gj = pair["planes"]
            vids = (gi["vid"], gj["vid"])
            if any(set(vids) <= es for es in existing_sets):
                continue
            if frozenset(vids) in {frozenset(r.planes) for r in self.gammas.values()}:
                continue
            if len(gi["observers"] & gj["observers"]) < GAMMA_MIN_OBSERVERS:
                continue
            center = self._center_of(vids)
            gamma = self.graph.add_variable(VarKind.TWO_WALL_ROOM, center)
            fid = self.graph.add_factor(Factor(FactorKind.ROOM_TO_WALLS, (gamma, *vids)))
            self.gammas[gamma] = GammaRecord(gamma, vids, fid)
            created.append(gamma)
        return created

    def _cross_overlap(self, pa, pb) -> bool:
        """Each plane of pair `pa` must span pair `pb`'s slab interval."""
        lo_b, hi_b = pb["interval"]
        for g in pa["planes"]:
            e = self._extent_along(g, pb["n_hat"])
            if min(e[1], hi_b) - max(e[0], lo_b) < PAIR_OVERLAP_MIN:
                return False
        return True

    def _center_of(self, plane_vids) -> np.ndarray:
        center = np.zeros(2)
        for vid in plane_vids:
            phi, d = self.graph.value(vid)
            center += 0.5 * d * np.array([math.cos(phi), math.sin(phi)])
        return center

    def _remove_gamma(self, gvid: VariableId):
        rec = self.gammas.pop(gvid)
        self.graph.remove_factor(rec.factor_id)
        fid = self._floor_factors.pop(gvid, None)
        if fid is not None:
            self.graph.remove_factor(fid)
        self.graph.remove_variable(gvid)

    def _update_floor(self):
        room_vids = list(self.rooms) + list(self.gammas)
        if not room_vids:
            return
        info = np.eye(2) * FLOOR_INFORMATION
        if self.floor is None:
            centroid = np.mean([self.graph.value(v) for v in room_vids], axis=0)
            self.floor = self.graph.add_variable(VarKind.FLOOR, centroid)
        for vid in room_vids:
            if vid in self._floor_factors:
                continue
            offset = self.graph.value(self.floor) - self.graph.value(vid)
            self._floor_factors[vid] = self.graph.add_factor(
                Factor(FactorKind.ROOM_TO_ROOM, (vid, self.floor), offset, info)
            )

    # -- access -------------------------------------------------------------

    def keyframe_poses(self) -> list[Pose2]:
        return [Pose2.from_array(self.graph.value(k)) for k in self.keyframes]

    def final_optimize(self) -> SolveReport:
        self.last_report = self.graph.optimize()
        return self.last_report

    def truth_of_plane(self, vid: VariableId) -> str:
        return self.planes[vid].truth_surface()
