"""Robot simulator and online situational graph (S-Graph) estimation.

The simulator drives a robot along a waypoint polyline through a floor plan,
emitting noisy odometry and noisy plane observations of the wall surfaces
that are in range, facing the robot, and not occluded (doorways punch
openings into their walls). The estimator ingests those measurements into a
factor graph over keyframes, wall-surface planes and four-wall rooms,
re-optimizing the neighbourhood of the latest keyframes after every update.
It also counts two-wall rooms (an opposed plane pair that no four-wall room
holds) but keeps them out of the graph: a center tied to its two planes by
its own factor alone would add nothing to their estimate.

Observed planes keep the orientation seen by the sensor (normal pointing
from the robot into the wall material), so the two faces of one wall never
alias during data association even though they are only a slab apart.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

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
from .geometry import PERP, Pose2, transform_phi_dist, wrap_angle, wrap_angles

DEG = math.pi / 180.0

# Simulator noise defaults: sigma_xy [m/step], sigma_theta [rad/step],
# sigma_phi [rad], sigma_d [m].
DEFAULT_ODOM_NOISE = (0.01, 0.2 * DEG)
DEFAULT_PLANE_NOISE = (0.3 * DEG, 0.02)

# Estimator thresholds. An observation joins a known plane within these
# gates on angle [rad] and closest-point distance [m]; the angle gate alone
# keeps faces a quarter turn apart, at any heading, from joining.
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
# LM iterations of the re-solve after each update: one step, as an incremental smoother takes.
UPDATE_ITERATIONS = 1
# Keyframes whose neighbourhood the re-solve after each update moves; the
# rest of the graph is held at its values (fixed-lag smoothing).
WINDOW_KEYFRAMES = 10


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
        if not all(math.isfinite(c) for point in self.waypoints for c in point):
            raise SimulationError("waypoints must be finite")
        if not 0 < self.keyframe_spacing < math.inf:
            raise SimulationError("keyframe_spacing must be positive and finite")
        for name in ("odom_noise", "plane_noise"):
            sigmas = getattr(self, name)
            if len(sigmas) != 2 or not all(
                isinstance(v, (int, float)) and math.isfinite(v) and v >= 0 for v in sigmas
            ):
                raise SimulationError(f"{name} must be two finite sigmas >= 0, got {list(sigmas)}")
        if not self.sensor_range > 0:
            raise SimulationError("sensor_range must be positive")
        if not self.doorway_gap >= 0:
            raise SimulationError("doorway_gap must be >= 0")

    @staticmethod
    def from_dict(doc: dict) -> "SimConfig":
        if "waypoints" not in doc:
            raise SimulationError("scenario is missing the 'waypoints' field")
        offset = doc.get("map_offset")
        try:
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
        except (TypeError, ValueError) as exc:  # e.g. a null number or a number for a list
            raise SimulationError(f"malformed scenario field: {exc}") from None


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


def _pairwise_dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``out[p, q] = a[p] @ b[q]`` over rows of two entries.

    Each entry is a stacked 1x2 by 2x1 product, which numpy computes with the
    same dot routine as ``a[p] @ b[q]``, so the two agree bit for bit;
    ``a @ b.T`` or an elementwise sum may differ in the last bit.
    """
    return (a[:, None, None, :] @ b[None, :, :, None])[:, :, 0, 0]


def _crossings(p, q, a, b) -> np.ndarray:
    """Whether segment p->q properly crosses segment a->b, broadcast over leading axes.

    Each of p, q, a, b has a last axis of 2. Touching or collinear segments do
    not cross (the tests are strict).
    """
    r = q - p
    e = b - a
    d1 = r[..., 0] * (a[..., 1] - p[..., 1]) - r[..., 1] * (a[..., 0] - p[..., 0])
    d2 = r[..., 0] * (b[..., 1] - p[..., 1]) - r[..., 1] * (b[..., 0] - p[..., 0])
    d3 = e[..., 0] * (p[..., 1] - a[..., 1]) - e[..., 1] * (p[..., 0] - a[..., 0])
    d4 = e[..., 0] * (q[..., 1] - a[..., 1]) - e[..., 1] * (q[..., 0] - a[..., 0])
    return (d1 * d2 < 0) & (d3 * d4 < 0)


class PlanSimulator:
    """Deterministic waypoint-following robot with a synthetic plane sensor.

    The sensor sees a wall surface through sample points spread along its
    solid parts. The samples of all surfaces sit in one array, so each
    keyframe tests them all in one numpy pass.
    """

    def __init__(self, plan: FloorPlan, config: SimConfig):
        self.plan = plan
        self.config = config
        self.surfaces: dict[str, WallSurface] = plan.surfaces
        self._rng = np.random.default_rng(config.seed)
        self._solid = self._solid_intervals()
        wall_index = {w.id: i for i, w in enumerate(plan.walls)}
        self._blocking_segments(wall_index)
        self._surface_samples(wall_index)
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
        pts = np.asarray(self.config.waypoints, float)[:, None, :]
        if _crossings(pts[:-1], pts[1:], self._blk_a, self._blk_b).any():
            raise SimulationError("waypoint path exits plan free space (crosses a wall)")

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

    def _blocking_segments(self, wall_index: dict[str, int]):
        """Endpoints ``_blk_a``/``_blk_b``, wall index and bounding box of every blocking face."""
        # Both faces of each solid slab block line of sight; using faces
        # instead of centerlines also hides surface slivers that are embedded
        # inside another wall's material at corner junctions.
        starts, ends, owners = [], [], []
        for wall in self.plan.walls:
            a = np.asarray(wall.start, float)
            u = wall.direction()
            nu = PERP @ u
            for lo, hi in self._solid[wall.id]:
                for sign in (1.0, -1.0):
                    off = sign * (wall.thickness / 2.0) * nu
                    starts.append(a + lo * u + off)
                    ends.append(a + hi * u + off)
                    owners.append(wall_index[wall.id])
        self._blk_a = np.reshape(starts, (-1, 2))
        self._blk_b = np.reshape(ends, (-1, 2))
        self._blk_wall = np.array(owners, dtype=np.intp)
        self._blk_lo = np.minimum(self._blk_a, self._blk_b)
        self._blk_hi = np.maximum(self._blk_a, self._blk_b)

    def _surface_samples(self, wall_index: dict[str, int]):
        """Sample points of every surface, and the per-surface constants of its observation.

        ``_sensed`` holds, in sorted surface-id order, each surface's id and
        the (n_raw, d_raw, phi_raw, m_hat) of its observation. ``_points``
        holds the samples of all surfaces, grouped by face normal and within
        a group by surface; ``_pt_surface`` and ``_pt_wall`` give each
        sample's surface (an index into ``_sensed``) and wall, and
        ``_facing`` lists each face normal with the sample range of its group.
        """
        sids = sorted(self.surfaces)
        self._sensed = []
        groups: dict[bytes, tuple[np.ndarray, list[int]]] = {}
        for i, sid in enumerate(sids):
            face_n = np.asarray(self.surfaces[sid].face_normal)
            n_raw = -face_n
            d_raw = float(n_raw @ np.asarray(self.surfaces[sid].seg_start))
            self._sensed.append((sid, n_raw, d_raw, math.atan2(n_raw[1], n_raw[0]), PERP @ n_raw))
            groups.setdefault(face_n.tobytes(), (face_n, []))[1].append(i)
        points, counts, surface_of, wall_of = [], [], [], []
        self._facing = []
        for face_n, group in groups.values():
            first = sum(counts)
            for i in group:
                wall = self.plan.wall(self.surfaces[sids[i]].wall_id)
                a = np.asarray(wall.start, float)
                u = wall.direction()
                off = (wall.thickness / 2.0) * face_n
                for lo, hi in self._solid[wall.id]:
                    t = np.linspace(lo + 0.02, hi - 0.02, max(2, int((hi - lo) / 0.35) + 1))
                    points.append(a + t[:, None] * u + off)
                    counts.append(len(t))
                    surface_of.append(i)
                    wall_of.append(wall_index[wall.id])
            self._facing.append((face_n, first, sum(counts)))
        self._points = np.concatenate(points) if points else np.empty((0, 2))
        self._pt_surface = np.repeat(np.array(surface_of, dtype=np.intp), counts)
        self._pt_wall = np.repeat(np.array(wall_of, dtype=np.intp), counts)

    # -- sensing --------------------------------------------------------------

    def _visible(self, p: np.ndarray) -> np.ndarray:
        """Indices, ascending, of the samples the sensor sees from position p."""
        rel = self._points - p
        keep = np.einsum("ij,ij->i", rel, rel) <= self.config.sensor_range**2
        # The robot is on the side the face points to. One product per face
        # normal gives each sample the bits of a product over its surface alone.
        for face_n, lo, hi in self._facing:
            keep[lo:hi] &= rel[lo:hi] @ face_n < 0
        cand = np.flatnonzero(keep)
        if len(cand) == 0:
            return cand
        # A face that crosses a sight line meets the box spanned by p and the
        # candidates; a face never hides the surfaces of its own wall.
        q = self._points[cand]
        lo = np.minimum(p, q.min(axis=0))
        hi = np.maximum(p, q.max(axis=0))
        near = np.flatnonzero(
            np.all(self._blk_lo <= hi, axis=1) & np.all(self._blk_hi >= lo, axis=1)
        )
        blocked = _crossings(p, q[:, None, :], self._blk_a[near], self._blk_b[near])
        blocked &= self._pt_wall[cand][:, None] != self._blk_wall[near]
        return cand[~blocked.any(axis=1)]

    def _observe(self, pose: Pose2) -> list[PlaneObservation]:
        p = pose.translation
        seen = self._visible(p)
        surface = self._pt_surface[seen]
        starts = np.flatnonzero(np.diff(surface, prepend=-1)).tolist()
        runs = sorted(zip(surface[starts].tolist(), starts, [*starts[1:], len(seen)]))
        obs = []
        sigma_phi, sigma_d = self.config.plane_noise
        for i, lo, hi in runs:  # in sorted surface-id order
            sid, n_raw, d_raw, phi_raw, m_hat = self._sensed[i]
            # Body-frame in-plane extent of the visible samples. One product per
            # surface: numpy rounds a stacked product differently from this one.
            coords = (self._points[seen[lo:hi]] - p) @ m_hat
            extent = (float(coords.min()), float(coords.max()))
            phi_b = wrap_angle(phi_raw - pose.theta)
            d_b = d_raw - float(n_raw @ p)
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
    last_seen: int = -1  # the latest step in observers
    truth: dict[str, int] = field(default_factory=dict)

    def truth_surface(self) -> str:
        """Most frequently observed ground-truth surface id (provenance oracle)."""
        return max(sorted(self.truth), key=lambda k: self.truth[k])


@dataclass
class RoomRecord:
    vid: VariableId
    planes: tuple[VariableId, VariableId, VariableId, VariableId]


class PlaneTable(NamedTuple):
    """The robot planes, one row each: (phi, d), normal, foot, in-plane direction, extent."""

    vids: list[VariableId]
    phi: np.ndarray
    d: np.ndarray
    n: np.ndarray
    foot: np.ndarray
    m_hat: np.ndarray
    extent: np.ndarray


class PlanePairs(NamedTuple):
    """Plane pairs, rows i < j of a PlaneTable: slab interval along n_i, band along m_i."""

    i: np.ndarray
    j: np.ndarray
    lo: np.ndarray
    hi: np.ndarray
    band_lo: np.ndarray
    band_hi: np.ndarray


class SGraph:
    """Incrementally estimated robot graph: keyframes, planes, rooms; two-wall rooms are counted."""

    def __init__(self, initial_pose: Pose2, config: SGraphConfig | None = None):
        self.config = config or SGraphConfig()
        self.graph = FactorGraph()
        self.keyframes: list[VariableId] = []
        self.planes: dict[VariableId, PlaneRecord] = {}
        self.rooms: dict[VariableId, RoomRecord] = {}
        # Two-wall rooms: opposed plane pairs, in plane index order, that no room holds.
        self.gammas: set[tuple[VariableId, VariableId]] = set()
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
        self.last_report = self.graph.optimize(UPDATE_ITERATIONS, window=self._window())
        return self.last_report

    def _window(self) -> set[VariableId] | None:
        """The variables the re-solve after an update moves; None solves them all.

        Once there are more than WINDOW_KEYFRAMES keyframes: the last
        WINDOW_KEYFRAMES of them, every variable added since the oldest of
        those, the planes they observe, the rooms on one of those planes,
        and the map-to-plan transform after a merge.
        """
        first = len(self.keyframes) - WINDOW_KEYFRAMES
        if first <= 0:
            return None
        variables = self.graph.variables()
        recent = variables[variables.index(self.keyframes[first]) :]
        window = set(recent)
        transform = VarKind.TRANSFORM  # read once: a member lookup on an Enum class is slow
        window.update(vid for vid in variables if vid.kind is transform)
        window.update(vid for vid, rec in self.planes.items() if rec.last_seen >= first)
        window.update(vid for vid, rec in self.rooms.items() if not window.isdisjoint(rec.planes))
        return window

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

        An observation matches an existing plane when it lands within the
        angular and distance gates; ties break to the smallest distance gap,
        then the lowest plane index. Matched or not, the plane's extent,
        observer and provenance records are updated.
        """
        pose = Pose2.from_array(self.graph.value(keyframe))
        step_index = self.keyframes.index(keyframe)
        # Plane values do not change during association; a plane created here
        # enters with the (phi, d) it was created from.
        vids = list(self.planes)
        known = dict(zip(vids, self.graph.values(vids).tolist()))
        out = []
        for obs in observations:
            vid = self._associate(pose, obs, known)
            self._update_record(vid, pose, obs, step_index, known[vid][0])
            out.append((obs, vid))
        return out

    def _associate(self, pose: Pose2, obs: PlaneObservation, known: dict) -> VariableId:
        """The known plane the observation joins, or a new plane added to ``known``."""
        phi_m, d_m = transform_phi_dist(pose, obs.phi, obs.dist)
        best: tuple[float, int, VariableId] | None = None
        for vid, (phi_p, d_p) in known.items():
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
        vid = self.graph.add_variable(VarKind.PLANE, [phi_m, d_m])
        known[vid] = (phi_m, d_m)
        return vid

    def _update_record(
        self, vid: VariableId, pose: Pose2, obs: PlaneObservation, step: int, phi_p: float
    ):
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
        rec.last_seen = max(rec.last_seen, step)
        rec.truth[obs.surface_id] = rec.truth.get(obs.surface_id, 0) + 1

    # -- room detection ------------------------------------------------------

    def _plane_table(self) -> PlaneTable:
        """The planes in index order, read in one gather."""
        vids = sorted(self.planes, key=lambda v: v.index)
        phi, d = self.graph.values(vids).reshape(-1, 2).T
        # math.cos and math.sin, as every other reader of a plane's normal uses.
        n = np.array([(math.cos(a), math.sin(a)) for a in phi.tolist()]).reshape(-1, 2)
        extent = np.array([self.planes[vid].extent for vid in vids]).reshape(-1, 2)
        return PlaneTable(vids, phi, d, n, d[:, None] * n, np.stack([-n[:, 1], n[:, 0]], 1), extent)

    @staticmethod
    def _qualifying_pairs(planes: PlaneTable) -> PlanePairs:
        """Opposed plane pairs that bound an empty slab, found in one pass over all pairs.

        A pair (i < j, in plane order) qualifies when its normals are opposed,
        its gap lies in [ROOM_GAP_MIN, ROOM_GAP_MAX], its extents overlap by
        PAIR_OVERLAP_MIN along the wall, and no third plane of the same
        orientation subdivides the slab over that band.
        """
        phi, d, n, extent = planes.phi, planes.d, planes.n, planes.extent
        # [a, b] entries: n_a . n_b, foot_a . n_b, and extent a along m_hat b,
        # flipped where the in-plane directions disagree: m_hat is n turned a
        # quarter, so m_a . m_b = n_a . n_b (read only where |n_a . n_b| >= 0.7).
        nn = _pairwise_dot(n, n)
        fn = _pairwise_dot(planes.foot, n)
        flip = nn < 0
        lo_along = np.where(flip, -extent[:, None, 1], extent[:, None, 0])
        hi_along = np.where(flip, -extent[:, None, 0], extent[:, None, 1])

        i, j = np.triu_indices(len(phi), 1)
        keep = np.abs(wrap_angles(phi[i] - phi[j])) > math.pi - OPPOSED_TOL
        i, j = i[keep], j[keep]
        gap = d[i] - d[j] * nn[i, j]
        keep = (ROOM_GAP_MIN <= gap) & (gap <= ROOM_GAP_MAX)
        i, j = i[keep], j[keep]
        band_lo = np.maximum(extent[i, 0], lo_along[j, i])
        band_hi = np.minimum(extent[i, 1], hi_along[j, i])
        keep = band_hi - band_lo >= PAIR_OVERLAP_MIN
        i, j, band_lo, band_hi = i[keep], j[keep], band_lo[keep], band_hi[keep]
        lo = np.minimum(fn[i, i], fn[j, i])
        hi = np.maximum(fn[i, i], fn[j, i])

        # [pair, k]: a third plane k of the same orientation, strictly inside
        # the slab and overlapping its band by more than 0.3 m, occupies it.
        k = np.arange(len(phi))
        u_k = fn[:, i].T
        occupied = (
            (k != i[:, None])
            & (k != j[:, None])
            & (np.abs(nn[:, i].T) >= 0.7)
            & (lo[:, None] + EMPTY_MARGIN < u_k)
            & (u_k < hi[:, None] - EMPTY_MARGIN)
            & (
                np.minimum(hi_along[:, i].T, band_hi[:, None])
                - np.maximum(lo_along[:, i].T, band_lo[:, None])
                > 0.3
            )
        ).any(axis=1)
        free = ~occupied
        return PlanePairs(i[free], j[free], lo[free], hi[free], band_lo[free], band_hi[free])

    @staticmethod
    def _quads(planes: PlaneTable, pairs: PlanePairs) -> list[tuple[VariableId, ...]]:
        """Four-wall rooms: two pairs with near-perpendicular normals, each spanning the other.

        A pair's normal is its first plane's. Each quad lists the planes of the
        pair whose (|nx| < |ny|, lowest plane index) is smaller, then the other
        pair's, each pair in index order; quads come sorted by their plane
        indices.
        """
        i, j, lo, hi = pairs.i, pairs.j, pairs.lo, pairs.hi
        n, extent = planes.n[i], planes.extent
        # [g, b]: m_hat of plane g against the normal of pair b, as a stacked
        # dot that keeps the bits of the 1-D one.
        m_n = _pairwise_dot(planes.m_hat, n)

        def spans(g):
            """[a, b]: plane g[a] spans pair b's slab by PAIR_OVERLAP_MIN, along b's normal."""
            flip = m_n[g] < 0
            e_lo = np.where(flip, -extent[g, 1][:, None], extent[g, 0][:, None])
            e_hi = np.where(flip, -extent[g, 0][:, None], extent[g, 1][:, None])
            return ~(np.minimum(e_hi, hi) - np.maximum(e_lo, lo) < PAIR_OVERLAP_MIN)

        cross = spans(i) & spans(j)
        mask = np.triu(~(np.abs(_pairwise_dot(n, n)) > PERP_DOT_MAX), 1) & cross & cross.T
        # A pair with |nx| >= |ny| orders first, then the lower first plane.
        key = list(zip((np.abs(n[:, 0]) < np.abs(n[:, 1])).tolist(), i.tolist()))
        quads, vids = [], planes.vids
        for a, b in zip(*(x.tolist() for x in np.nonzero(mask))):
            if key[a] > key[b]:
                a, b = b, a
            quads.append((vids[i[a]], vids[j[a]], vids[i[b]], vids[j[b]]))
        return sorted(quads, key=lambda q: tuple(sorted(v.index for v in q)))

    def detect_rooms(self) -> list[VariableId]:
        """Create four-wall rooms from the current planes, and record two-wall rooms.

        A room supersedes the two-wall rooms among its planes. Returns the new
        rooms. Idempotent: re-running without new planes or pose changes adds
        nothing.
        """
        planes = self._plane_table()
        pairs = self._qualifying_pairs(planes)
        # Distinct rooms may legitimately share faces (a long wall bounding
        # several rooms), but sharing 3 of 4 planes means a near-duplicate.
        existing_sets = [set(rec.planes) for rec in self.rooms.values()]
        created: list[VariableId] = []

        for plane_vids in self._quads(planes, pairs):
            vid_set = set(plane_vids)
            if any(len(vid_set & es) >= 3 for es in existing_sets):
                continue
            center = self._center_of(plane_vids)
            room = self.graph.add_variable(VarKind.ROOM, center)
            self.graph.add_factor(Factor(FactorKind.ROOM_TO_WALLS, (room, *plane_vids)))
            self.rooms[room] = RoomRecord(room, plane_vids)
            existing_sets.append(vid_set)
            created.append(room)
            self.gammas -= {pair for pair in self.gammas if set(pair) <= vid_set}

        for a, b in zip(pairs.i.tolist(), pairs.j.tolist()):
            vids = (planes.vids[a], planes.vids[b])
            if vids in self.gammas or any(set(vids) <= es for es in existing_sets):
                continue
            gi, gj = (self.planes[vid] for vid in vids)
            if len(gi.observers & gj.observers) >= GAMMA_MIN_OBSERVERS:
                self.gammas.add(vids)
        return created

    def _center_of(self, plane_vids) -> np.ndarray:
        center = np.zeros(2)
        for phi, d in self.graph.values(plane_vids).tolist():
            center += 0.5 * d * np.array([math.cos(phi), math.sin(phi)])
        return center

    # -- access -------------------------------------------------------------

    def keyframe_poses(self) -> list[Pose2]:
        return [Pose2.from_array(self.graph.value(k)) for k in self.keyframes]

    def final_optimize(self) -> SolveReport:
        self.last_report = self.graph.optimize()
        return self.last_report

    def truth_of_plane(self, vid: VariableId) -> str:
        return self.planes[vid].truth_surface()
