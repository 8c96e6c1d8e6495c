import math

import numpy as np
import pytest

from conftest import scenario_config, simulate_sgraph, turned
from planloc.a_graph import plan_from_dict
from planloc.factor_graph import FactorKind, VarKind
from planloc.geometry import PERP, Pose2, transform_phi_dist, wrap_angle
from planloc.metrics import compute_ape
from planloc.plans import (
    FIXTURE_PLANS,
    fixture_plan,
    fixture_scenarios,
    generate_random_plan,
    route_waypoints,
    row_plan,
)
from planloc.runner import run_estimator, run_pipeline
from planloc.s_graph import (
    EMPTY_MARGIN,
    OPPOSED_TOL,
    PAIR_OVERLAP_MIN,
    PERP_DOT_MAX,
    ROOM_GAP_MAX,
    ROOM_GAP_MIN,
    UPDATE_ITERATIONS,
    WINDOW_KEYFRAMES,
    PlaneObservation,
    PlanePairs,
    PlaneRecord,
    PlanSimulator,
    SGraph,
    SimConfig,
    SimulationError,
)


def test_sim_config_validation():
    with pytest.raises(SimulationError):
        SimConfig(waypoints=((0, 0),))
    with pytest.raises(SimulationError):
        SimConfig(waypoints=((0, 0), (1, 0)), keyframe_spacing=0.0)
    with pytest.raises(SimulationError):
        SimConfig(waypoints=((0, 0), (1, 0)), odom_noise=(-0.1, 0.0))
    for name in ("odom_noise", "plane_noise"):
        for bad in ((0.01,), (0.01, 0.02, 0.03), (), (0.01, math.nan), (math.inf, 0.0),
                    (0.01, -0.02), (0.01, "0.02")):
            with pytest.raises(SimulationError, match=name):
                SimConfig(waypoints=((0, 0), (1, 0)), **{name: bad})
    # zero noise is allowed
    assert SimConfig(waypoints=((0, 0), (1, 0)), odom_noise=(0, 0.0)).odom_noise == (0, 0.0)
    for bad in (0.0, -6.0, math.nan):
        with pytest.raises(SimulationError, match="sensor_range"):
            SimConfig(waypoints=((0, 0), (1, 0)), sensor_range=bad)
    for bad in (-0.1, math.nan):
        with pytest.raises(SimulationError, match="doorway_gap"):
            SimConfig(waypoints=((0, 0), (1, 0)), doorway_gap=bad)
    # a closed doorway is allowed
    assert SimConfig(waypoints=((0, 0), (1, 0)), doorway_gap=0.0).doorway_gap == 0.0


def test_path_through_wall_rejected():
    plan = fixture_plan("two_rooms")
    # a path from room a straight into room b missing the doorway
    cfg = SimConfig(waypoints=((1.5, 1.0), (8.0, 1.2)), seed=0)
    with pytest.raises(SimulationError, match="free space"):
        PlanSimulator(plan, cfg)


def test_zero_noise_odometry_matches_truth():
    plan = fixture_plan("single_room")
    cfg = SimConfig(
        waypoints=((1.5, 1.5), (4.5, 1.5)),
        odom_noise=(0.0, 0.0),
        plane_noise=(0.0, 0.0),
        seed=5,
    )
    sim = PlanSimulator(plan, cfg)
    steps = list(sim.steps())
    for prev, step in zip(steps, steps[1:]):
        true_rel = step.gt_plan.relative_to(prev.gt_plan)
        assert step.odometry.almost_equal(true_rel, tol=1e-12)


def test_zero_noise_observations_at_room_center():
    # from the exact center of the 5x4 room, the four surfaces appear at
    # analytically known body-frame azimuth/distance
    plan = fixture_plan("single_room")
    cfg = SimConfig(
        waypoints=((3.0, 2.5), (4.0, 2.5)),
        odom_noise=(0.0, 0.0),
        plane_noise=(0.0, 0.0),
        sensor_range=6.0,
        seed=1,
    )
    sim = PlanSimulator(plan, cfg)
    first = next(sim.steps())
    got = {o.surface_id: (round(o.phi, 9), round(o.dist, 9)) for o in first.observations}
    assert got == {
        "w_e:+": (0.0, 2.5),
        "w_w:-": (round(math.pi, 9), 2.5),
        "w_n:-": (round(math.pi / 2, 9), 2.0),
        "w_s:+": (round(-math.pi / 2, 9), 2.0),
    }


def test_fixed_seed_streams_identical():
    plan = fixture_plan("two_rooms")
    cfg = scenario_config("two_rooms")
    a = [
        (s.index, s.odometry, s.observations)
        for s in PlanSimulator(plan, cfg).steps()
    ]
    b = [
        (s.index, s.odometry, s.observations)
        for s in PlanSimulator(plan, cfg).steps()
    ]
    assert a == b


def test_occlusion_blocks_other_rooms_walls():
    plan = fixture_plan("two_rooms")
    cfg = SimConfig(
        waypoints=((1.5, 1.6), (1.6, 1.6)),
        odom_noise=(0.0, 0.0),
        plane_noise=(0.0, 0.0),
        sensor_range=12.0,
        seed=0,
    )
    sim = PlanSimulator(plan, cfg)
    first = next(sim.steps())
    seen = {o.surface_id for o in first.observations}
    # room b's north inner face is fully hidden behind the shared wall and
    # room a's own north wall; the doorway gap is too low to expose it
    assert "b_n:-" not in seen
    assert {"a_w:-", "a_s:+", "a_n:-", "s_ab:+"} <= seen


def test_doorway_gap_lets_observations_through():
    plan = fixture_plan("two_rooms")
    # standing in front of the doorway, looking through it into room b
    cfg = SimConfig(
        waypoints=((3.2, 2.35), (3.3, 2.35)),
        odom_noise=(0.0, 0.0),
        plane_noise=(0.0, 0.0),
        sensor_range=7.0,
        seed=0,
    )
    sim = PlanSimulator(plan, cfg)
    first = next(sim.steps())
    seen = {o.surface_id for o in first.observations}
    assert "b_e:+" in seen  # visible through the doorway gap only


# -- reference sensor: one surface at a time, the oracle of the batched one ---


def _reference_segments_cross(p, q, a, b) -> bool:
    r = q - p
    e = b - a
    d1 = r[0] * (a[1] - p[1]) - r[1] * (a[0] - p[0])
    d2 = r[0] * (b[1] - p[1]) - r[1] * (b[0] - p[0])
    d3 = e[0] * (p[1] - a[1]) - e[1] * (p[0] - a[0])
    d4 = e[0] * (q[1] - a[1]) - e[1] * (q[0] - a[0])
    return d1 * d2 < 0 and d3 * d4 < 0


class _ReferenceSensor:
    """Visibility tested one surface at a time against the faces of every other wall."""

    def __init__(self, sim: PlanSimulator):
        self.sim = sim
        segs, owners = [], []
        for wall in sim.plan.walls:
            a = np.asarray(wall.start, float)
            u = wall.direction()
            nu = PERP @ u
            for lo, hi in sim._solid[wall.id]:
                for sign in (1.0, -1.0):
                    off = sign * (wall.thickness / 2.0) * nu
                    segs.append((a + lo * u + off, a + hi * u + off))
                    owners.append(wall.id)
        self.blockers = np.asarray(segs)
        self.samples = {}
        for sid, surface in sim.surfaces.items():
            wall = sim.plan.wall(surface.wall_id)
            a = np.asarray(wall.start, float)
            u = wall.direction()
            off = (wall.thickness / 2.0) * np.asarray(surface.face_normal)
            pts = []
            for lo, hi in sim._solid[wall.id]:
                n = max(2, int((hi - lo) / 0.35) + 1)
                for t in np.linspace(lo + 0.02, hi - 0.02, n):
                    pts.append(a + t * u + off)
            self.samples[sid] = np.asarray(pts)
        self.other_blockers = {
            w.id: self.blockers[np.array([o != w.id for o in owners], dtype=bool)]
            for w in sim.plan.walls
        }

    def path_crosses(self, waypoints) -> bool:
        pts = [np.asarray(w, float) for w in waypoints]
        return any(
            _reference_segments_cross(a, b, blk[0], blk[1])
            for a, b in zip(pts[:-1], pts[1:])
            for blk in self.blockers
        )

    def visible_extent(self, surface, pose):
        p = pose.translation
        face_n = np.asarray(surface.face_normal)
        samples = self.samples[surface.id]
        if len(samples) == 0:
            return None
        rel = samples - p
        in_range = np.einsum("ij,ij->i", rel, rel) <= self.sim.config.sensor_range**2
        facing = rel @ face_n < 0
        cand = samples[in_range & facing]
        if len(cand) == 0:
            return None
        blockers = self.other_blockers[surface.wall_id]
        if len(blockers) > 0:
            r = cand - p
            ap = blockers[:, 0, :] - p
            bp = blockers[:, 1, :] - p
            d1 = r[:, None, 0] * ap[None, :, 1] - r[:, None, 1] * ap[None, :, 0]
            d2 = r[:, None, 0] * bp[None, :, 1] - r[:, None, 1] * bp[None, :, 0]
            e = blockers[:, 1, :] - blockers[:, 0, :]
            pa = p[None, :] - blockers[:, 0, :]
            d3 = e[:, 0] * pa[:, 1] - e[:, 1] * pa[:, 0]
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

    def extents(self, pose):
        out = []
        for sid in sorted(self.sim.surfaces):
            extent = self.visible_extent(self.sim.surfaces[sid], pose)
            if extent is not None:
                out.append((sid, extent))
        return out

    def steps(self):
        """The stream of the per-surface simulator, from a fresh generator of the same seed."""
        sim = self.sim
        rng = np.random.default_rng(sim.config.seed)
        sigma_xy, sigma_theta = sim.config.odom_noise
        sigma_phi, sigma_d = sim.config.plane_noise
        out, prev = [], None
        for k, gt in enumerate(sim._gt_plan):
            odometry = None
            if prev is not None:
                rel = gt.relative_to(prev)
                noise = rng.standard_normal(3)
                odometry = Pose2(
                    rel.x + sigma_xy * noise[0],
                    rel.y + sigma_xy * noise[1],
                    rel.theta + sigma_theta * noise[2],
                )
            obs = []
            for sid, extent in self.extents(gt):
                surface = sim.surfaces[sid]
                n_raw = -np.asarray(surface.face_normal)
                d_raw = float(n_raw @ np.asarray(surface.seg_start))
                phi_raw = math.atan2(n_raw[1], n_raw[0])
                phi_b = wrap_angle(phi_raw - gt.theta)
                d_b = d_raw - float(n_raw @ gt.translation)
                phi_b = wrap_angle(phi_b + sigma_phi * rng.standard_normal())
                d_b = d_b + sigma_d * rng.standard_normal()
                obs.append(PlaneObservation(phi_b, d_b, extent, sid))
            out.append((k, odometry, tuple(obs)))
            prev = gt
        return out


def _rotated(name: str, angle: float):
    """A bundled plan and scenario turned about the origin, so no wall is axis-aligned."""
    doc, waypoints = turned(FIXTURE_PLANS[name](), fixture_scenarios()[name]["waypoints"], angle)
    return plan_from_dict(doc), scenario_config(name, waypoints=waypoints)


def _sensor_cases():
    for name in sorted(fixture_scenarios()):
        yield name, fixture_plan(name), scenario_config(name)
    for n in (8, 12, 16):
        for seed in (0, 1):
            plan = generate_random_plan(n, seed)
            yield f"rows{n}/{seed}", plan, SimConfig(tuple(route_waypoints(plan)), seed=seed)
    plan = plan_from_dict(row_plan([3.0] * 8, [4.0] * 8, [0.5 + 0.5 * k for k in range(8)]))
    yield "sym_rows8", plan, SimConfig(tuple(route_waypoints(plan)), seed=1000)
    # Off-axis walls: a dot product computed in another order than the
    # per-surface one differs in the last bit here, unlike on axis-aligned walls.
    for name, angle in (("two_rooms", 0.05), ("five_rooms", -0.04)):
        yield f"{name}@{angle}", *_rotated(name, angle)


def test_sensor_streams_match_per_surface_reference():
    for name, plan, config in _sensor_cases():
        sim = PlanSimulator(plan, config)
        got = [(s.index, s.odometry, s.observations) for s in sim.steps()]
        assert got == _ReferenceSensor(sim).steps(), name


def test_sensor_matches_reference_at_the_range_edge():
    # Poses from which one sample lies at exactly sensor_range.
    plan = fixture_plan("two_rooms")
    samples = _ReferenceSensor(PlanSimulator(plan, scenario_config("two_rooms"))).samples
    sids = sorted(samples)
    rng = np.random.default_rng(7)
    checked = on_edge = 0
    while checked < 60:
        sid = sids[rng.integers(len(sids))]
        q = samples[sid][rng.integers(len(samples[sid]))]
        # in front of the sample's face
        angle = math.atan2(*plan.surfaces[sid].face_normal[::-1]) + rng.uniform(-1.2, 1.2)
        p = q + rng.uniform(0.5, 5.0) * np.array([math.cos(angle), math.sin(angle)])
        pose = Pose2(p[0], p[1], rng.uniform(-3, 3))
        rel = (q - pose.translation)[None, :]
        d2 = float(np.einsum("ij,ij->i", rel, rel)[0])
        edge = math.sqrt(d2)
        edge = next((r for r in (edge, *np.nextafter(edge, [0.0, 99.0])) if r**2 == d2), None)
        if edge is None:
            continue
        refs = []
        for sensor_range in (float(edge), float(np.nextafter(edge, 0.0))):
            sim = PlanSimulator(plan, scenario_config("two_rooms", sensor_range=sensor_range))
            ref = _ReferenceSensor(sim)
            assert [(o.surface_id, o.extent) for o in sim._observe(pose)] == ref.extents(pose)
            refs.append(ref.extents(pose))
        checked += 1
        on_edge += refs[0] != refs[1]  # the sample at the edge is seen
    assert on_edge >= 10


def test_sensor_matches_reference_on_rays_through_face_endpoints():
    plan = fixture_plan("five_rooms")
    sim = PlanSimulator(plan, scenario_config("five_rooms", sensor_range=12.0))
    ref = _ReferenceSensor(sim)
    rng = np.random.default_rng(3)
    samples = np.concatenate(list(ref.samples.values()))
    grazed = 0
    for _ in range(300):
        # the robot stands on the line through a sample and a face endpoint
        q = samples[rng.integers(len(samples))]
        end = ref.blockers[rng.integers(len(ref.blockers)), rng.integers(2)]
        p = end + rng.choice([0.25, 0.5, 1.0, 2.0]) * (end - q)
        pose = Pose2(p[0], p[1], 0.0)
        got = [(o.surface_id, o.extent) for o in sim._observe(pose)]
        want = ref.extents(pose)
        assert got == want
        grazed += got != []
    assert grazed > 100


def test_sensor_matches_reference_on_off_axis_face_lines():
    # On the line of a face, whether the robot is in front of each sample is
    # decided by the rounding of one dot product per sample.
    plan, config = _rotated("two_rooms", 0.05)
    sim = PlanSimulator(plan, config)
    ref = _ReferenceSensor(sim)
    rng = np.random.default_rng(5)
    sids = sorted(ref.samples)
    for _ in range(200):
        pts = ref.samples[sids[rng.integers(len(sids))]]
        i, j = rng.choice(len(pts), 2, replace=False)
        p = pts[i] + rng.uniform(-3.0, 3.0) * (pts[j] - pts[i])
        pose = Pose2(p[0], p[1], 0.0)
        assert [(o.surface_id, o.extent) for o in sim._observe(pose)] == ref.extents(pose)


def test_path_check_matches_reference():
    raised = touching = 0
    for name in ("two_rooms", "five_rooms"):
        sim = PlanSimulator(fixture_plan(name), scenario_config(name))
        ref = _ReferenceSensor(sim)
        ends = ref.blockers.reshape(-1, 2)
        lo, hi = ends.min(axis=0), ends.max(axis=0)
        rng = np.random.default_rng(11)

        def steps(start, n):
            angle = rng.uniform(-math.pi, math.pi, n)
            step = rng.uniform(0.05, 3.0, n)[:, None] * np.stack([np.cos(angle), np.sin(angle)], 1)
            return np.cumsum(np.vstack([start, step]), axis=0)

        for i in range(300):
            kind = i % 3
            a, b = ref.blockers[rng.integers(len(ref.blockers))]
            if kind == 0:  # free polylines
                waypoints = steps(rng.uniform(lo, hi), rng.integers(1, 4))
            elif kind == 1:  # starts on a face or at a face endpoint
                waypoints = steps(a + rng.choice([0.0, 0.25, 0.5, 1.0]) * (b - a), 1)
            else:  # runs along a face, inside it or past its ends
                t = rng.choice([[0.1, 0.9], [0.0, 1.0], [-0.5, 1.5]])
                waypoints = a + np.asarray(t)[:, None] * (b - a)
            sim.config = SimConfig(waypoints=tuple(map(tuple, waypoints)))
            want = ref.path_crosses(waypoints)
            if want:
                with pytest.raises(SimulationError, match="free space"):
                    sim._check_path_free()
            else:
                sim._check_path_free()
            raised += want
            touching += kind > 0 and not want
    assert 100 < raised < 500
    assert touching > 100


def test_association_reuses_plane_and_allocates_new():
    plan, sim, sg = simulate_sgraph("single_room", odom_noise=[0.0, 0.0], plane_noise=[0.0, 0.0])
    # every surface observed many times, but only 4 plane variables exist
    assert len(sg.planes) == 4
    n_pose_plane = len(sg.graph.factors_of(FactorKind.POSE_PLANE))
    assert n_pose_plane > 4 * 3


def test_association_joins_a_plane_created_by_the_same_keyframe():
    from planloc.s_graph import SimStep

    sg = SGraph(Pose2.identity())
    sg.add_step(SimStep(0, Pose2.identity(), Pose2.identity(), None, ()))
    first = PlaneObservation(phi=0.0, dist=2.0, extent=(0.0, 1.0), surface_id="x")
    second = PlaneObservation(phi=0.01, dist=2.05, extent=(0.5, 1.5), surface_id="x")
    (_, a), (_, b) = sg.associate_planes(sg.keyframes[0], [first, second])
    assert a == b and list(sg.planes) == [a]
    assert sg.planes[a].extent == (0.0, 1.5)


def test_association_tie_break_smallest_distance():
    from planloc.s_graph import PlaneRecord, SimStep

    sg = SGraph(Pose2.identity())
    sg.add_step(SimStep(0, Pose2.identity(), Pose2.identity(), None, ()))
    p_far = sg.graph.add_variable(VarKind.PLANE, [0.0, 2.2])
    p_near = sg.graph.add_variable(VarKind.PLANE, [0.0, 2.1])
    sg.planes[p_far] = PlaneRecord(p_far, (0.0, 1.0))
    sg.planes[p_near] = PlaneRecord(p_near, (0.0, 1.0))
    obs = PlaneObservation(phi=0.0, dist=2.0, extent=(0.0, 1.0), surface_id="x")
    [(_, vid)] = sg.associate_planes(sg.keyframes[0], [obs])
    assert vid == p_near  # |delta d| 0.1 beats 0.2


def test_association_polarity_distinguishes_wall_faces():
    sg = SGraph(Pose2.identity())
    from planloc.s_graph import PlaneRecord, SimStep

    sg.add_step(SimStep(0, Pose2.identity(), Pose2.identity(), None, ()))
    # a stored face at x=2 seen from the -x side (normal +x)
    stored = sg.graph.add_variable(VarKind.PLANE, [0.0, 2.0])
    sg.planes[stored] = PlaneRecord(stored, (0.0, 1.0))
    # observing the *other* face of the same wall from x>2.2: raw normal -x
    obs = PlaneObservation(phi=math.pi, dist=-2.2, extent=(0.0, 1.0), surface_id="y")
    [(_, vid)] = sg.associate_planes(sg.keyframes[0], [obs])
    assert vid != stored


def test_zero_noise_full_traversal_matches_plan():
    plan, sim, sg = simulate_sgraph(
        "two_rooms", odom_noise=[0.0, 0.0], plane_noise=[0.0, 0.0]
    )
    surfaces = plan.surfaces
    offset = sim.map_offset
    for vid, rec in sg.planes.items():
        # map the estimate into the plan frame; compare up to polarity
        phi_b, d_b = transform_phi_dist(offset, *sg.graph.value(vid))
        truth = surfaces[rec.truth_surface()]
        if abs(wrap_angle(phi_b - math.atan2(truth.normal[1], truth.normal[0]))) > math.pi / 2:
            phi_b, d_b = phi_b + math.pi, -d_b
        assert (math.cos(phi_b), math.sin(phi_b)) == pytest.approx(truth.normal, abs=1e-6)
        assert d_b == pytest.approx(truth.dist, abs=1e-6)


def test_keyframe_chain_invariant():
    plan, sim, sg = simulate_sgraph("two_rooms")
    odos = sg.graph.factors_of(FactorKind.ODOMETRY)
    assert len(odos) == len(sg.keyframes) - 1
    for k, (fid, factor) in enumerate(odos):
        assert factor.variables[0] == sg.keyframes[k]
        assert factor.variables[1] == sg.keyframes[k + 1]
    # every plane has at least one pose-plane factor
    seen = {f.variables[1] for _, f in sg.graph.factors_of(FactorKind.POSE_PLANE)}
    assert set(sg.planes) <= seen


def test_rooms_detected_at_true_centers():
    plan, sim, sg = simulate_sgraph(
        "two_rooms", odom_noise=[0.0, 0.0], plane_noise=[0.0, 0.0]
    )
    assert len(sg.rooms) == 2
    offset = sim.map_offset
    expected = {
        "a": np.array([2.3, 2.1]),
        "b": np.array([6.8, 3.1]),
    }
    got = []
    for vid, rec in sg.rooms.items():
        center_b = offset.transform_point(sg.graph.value(vid))
        got.append(center_b)
    for center in expected.values():
        assert any(np.allclose(center, g, atol=1e-6) for g in got)


def test_detect_rooms_idempotent():
    plan, sim, sg = simulate_sgraph("two_rooms")
    assert sg.detect_rooms() == []
    n_factors = len(sg.graph.factors())
    assert sg.detect_rooms() == []
    assert len(sg.graph.factors()) == n_factors


def _geo(planes):
    """A PlaneTable as the per-plane dicts the loop references read."""
    return [
        {
            "vid": vid,
            "phi": float(planes.phi[k]),
            "d": float(planes.d[k]),
            "n": planes.n[k],
            "foot": planes.foot[k],
            "m_hat": PERP @ planes.n[k],
            "extent": tuple(planes.extent[k].tolist()),
        }
        for k, vid in enumerate(planes.vids)
    ]


def _extent_along(entry, direction):
    sign = 1.0 if float(entry["m_hat"] @ direction) >= 0 else -1.0
    lo, hi = entry["extent"]
    return (lo, hi) if sign > 0 else (-hi, -lo)


def _reference_pairs(geo):
    """The pair search as a loop over pairs and third planes; returns (pairs, occupied count)."""
    pairs, occupied = [], 0
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
            ej = _extent_along(gj, gi["m_hat"])
            band = (max(ei[0], ej[0]), min(ei[1], ej[1]))
            if band[1] - band[0] < PAIR_OVERLAP_MIN:
                continue
            u_i = float(gi["foot"] @ n_hat)
            u_j = float(gj["foot"] @ n_hat)
            lo, hi = min(u_i, u_j), max(u_i, u_j)
            blocked = False
            for gk in geo:
                if gk is gi or gk is gj or abs(float(gk["n"] @ n_hat)) < 0.7:
                    continue
                u_k = float(gk["foot"] @ n_hat)
                if not (lo + EMPTY_MARGIN < u_k < hi - EMPTY_MARGIN):
                    continue
                ek = _extent_along(gk, gi["m_hat"])
                if min(ek[1], band[1]) - max(ek[0], band[0]) > 0.3:
                    blocked = True
                    break
            if blocked:
                occupied += 1
                continue
            pairs.append({"planes": (gi, gj), "interval": (lo, hi), "band": band})
    return pairs, occupied


def _random_plane_set(rng) -> SGraph:
    """Axis-near walls whose gaps, feet and overlaps sit at or next to the search thresholds."""
    sg = SGraph(Pose2.identity())

    def add(phi, d, extent):
        vid = sg.graph.add_variable(VarKind.PLANE, [phi, d])
        sg.planes[vid] = PlaneRecord(vid, extent)

    exact = rng.random() < 0.5
    tiny = (0.0, 0.0, 1e-12, -1e-12, 1e-3, -1e-3)
    # Opposed pairs with these distances have gaps at the ROOM_GAP bounds.
    dists = (0.0, EMPTY_MARGIN, 0.5, ROOM_GAP_MIN - EMPTY_MARGIN, ROOM_GAP_MIN, 2.0, 7.5,
             ROOM_GAP_MAX - 1.0, ROOM_GAP_MAX)
    lengths = (PAIR_OVERLAP_MIN, 0.3, 1.0, 3.0)
    for _ in range(rng.integers(4, 13)):
        axis = rng.integers(2) * math.pi / 2
        facing = rng.choice([0.0, math.pi])
        phi = wrap_angle(axis + facing + (0.0 if exact else rng.normal(0, 0.03)))
        d = rng.choice(dists) + rng.choice(tiny) + (0.0 if exact else rng.normal(0, 0.01))
        length = float(rng.choice(lengths)) + rng.choice(tiny)
        lo = -length / 2 + float(rng.choice([0.0, 0.0, 0.25, -1.0]))
        add(phi, d, (lo, lo + length))
    # Third planes parallel to a pair's first plane, at or one ulp off the
    # EMPTY_MARGIN edge of the pair's slab.
    geo = _geo(sg._plane_table())
    for _ in range(rng.integers(0, 4)):
        gi, gj = (geo[k] for k in rng.choice(len(geo), 2, replace=False))
        u = sorted(float(g["foot"] @ gi["n"]) for g in (gi, gj))
        edge = rng.choice([u[0] + EMPTY_MARGIN, u[1] - EMPTY_MARGIN])
        edge = rng.choice([edge, np.nextafter(edge, np.inf), np.nextafter(edge, -np.inf)])
        add(gi["phi"], edge, gi["extent"])
    return sg


def test_pair_search_matches_loop_reference():
    found = occupied = 0
    for seed in range(200):
        sg = _random_plane_set(np.random.default_rng(seed))
        planes = sg._plane_table()
        geo = _geo(planes)
        want, blocked = _reference_pairs(geo)
        got = sg._qualifying_pairs(planes)
        assert list(zip(got.i.tolist(), got.j.tolist())) == [
            (geo.index(p["planes"][0]), geo.index(p["planes"][1])) for p in want
        ]
        assert list(zip(got.lo.tolist(), got.hi.tolist())) == [p["interval"] for p in want]
        assert list(zip(got.band_lo.tolist(), got.band_hi.tolist())) == [p["band"] for p in want]
        found += len(want)
        occupied += blocked
    # the inputs reach every branch of the search
    assert found > 100 and occupied > 20


def _quad_key(pair):
    """A pair with |nx| >= |ny| orders first, then the lower first plane."""
    nx, ny = pair["n_hat"]
    return (0 if abs(nx) >= abs(ny) else 1, min(g["vid"].index for g in pair["planes"]))


def _reference_quads(planes, plane_pairs):
    """The four-wall room search as a loop over pairs of pairs, each a dict with a normal."""
    geo = _geo(planes)
    pairs = [
        {"planes": (geo[a], geo[b]), "n_hat": geo[a]["n"], "interval": (lo, hi)}
        for a, b, lo, hi in zip(*(x.tolist() for x in plane_pairs[:4]))
    ]

    def spans(pa, pb):
        lo_b, hi_b = pb["interval"]
        for g in pa["planes"]:
            e = _extent_along(g, pb["n_hat"])
            if min(e[1], hi_b) - max(e[0], lo_b) < PAIR_OVERLAP_MIN:
                return False
        return True

    quads = []
    for a in range(len(pairs)):
        for b in range(a + 1, len(pairs)):
            pa, pb = pairs[a], pairs[b]
            if abs(float(pa["n_hat"] @ pb["n_hat"])) > PERP_DOT_MAX:
                continue
            if not spans(pa, pb) or not spans(pb, pa):
                continue
            first, second = pa, pb
            if _quad_key(pa) > _quad_key(pb):
                first, second = pb, pa
            quads.append(tuple(
                g["vid"]
                for g in (
                    *sorted(first["planes"], key=lambda g: g["vid"].index),
                    *sorted(second["planes"], key=lambda g: g["vid"].index),
                )
            ))
    return sorted(quads, key=lambda q: tuple(sorted(v.index for v in q)))


def test_quad_search_matches_loop_reference(monkeypatch):
    """On the plane tables of every update of the sensor cases, off-axis ones included."""
    checked = found = 0

    def detect_rooms(sg, _detect_rooms=SGraph.detect_rooms):
        nonlocal checked, found
        planes = sg._plane_table()
        pairs = sg._qualifying_pairs(planes)
        want = _reference_quads(planes, pairs)
        assert sg._quads(planes, pairs) == want
        checked += 1
        found += len(want)
        return _detect_rooms(sg)

    monkeypatch.setattr(SGraph, "detect_rooms", detect_rooms)
    for name, plan, config in _sensor_cases():
        run_estimator(plan, config)
    assert checked > 800 and found > 3000


def test_quad_search_matches_loop_reference_on_random_pairs():
    """Pairs drawn at random, so that quads of one plane's several pairs test their order."""
    found = 0
    for seed in range(300):
        rng = np.random.default_rng(seed)
        sg = SGraph(Pose2.identity())
        for _ in range(rng.integers(3, 10)):
            phi = wrap_angle(rng.integers(4) * math.pi / 2 + rng.normal(0, 0.4))
            lo = rng.uniform(-3, 1)
            vid = sg.graph.add_variable(VarKind.PLANE, [phi, rng.uniform(-5, 5)])
            sg.planes[vid] = PlaneRecord(vid, (lo, lo + rng.uniform(0.2, 4)))
        planes = sg._plane_table()
        i, j = np.triu_indices(len(planes.vids), 1)
        keep = np.sort(rng.choice(len(i), rng.integers(1, len(i) + 1), replace=False))
        lo = rng.uniform(-3, 1, len(keep))
        pairs = PlanePairs(i[keep], j[keep], lo, lo + rng.uniform(0.5, 4, len(keep)), lo, lo)
        want = _reference_quads(planes, pairs)
        assert sg._quads(planes, pairs) == want
        found += len(want)
    assert found > 400


def test_two_wall_room_in_partial_corridor():
    plan = fixture_plan("corridor")
    # drive only along the corridor middle: end walls stay out of range
    cfg = SimConfig(
        waypoints=((4.0, 1.5), (9.0, 1.5)),
        sensor_range=3.0,
        seed=2,
    )
    sim = PlanSimulator(plan, cfg)
    sg = SGraph(sim.initial_map_pose)
    for step in sim.steps():
        sg.add_step(step)
    assert len(sg.rooms) == 0
    assert len(sg.gammas) >= 1
    for pair in sg.gammas:
        truths = {sg.truth_of_plane(p) for p in pair}
        assert truths == {"c_n:-", "c_s:+"}
    # counted, not solved: the graph holds no variable or factor for a two-wall room
    assert len(sg.graph.variables()) == len(sg.keyframes) + len(sg.planes)


def test_gamma_superseded_by_full_room():
    plan, sim, sg = simulate_sgraph("corridor")
    # corridor fully traversed: its gamma must have been replaced by a room
    room_truths = [
        {sg.truth_of_plane(p) for p in rec.planes} for rec in sg.rooms.values()
    ]
    assert {"c_n:-", "c_s:+", "o_w:-", "o_e:+"} in room_truths
    for pair in sg.gammas:
        truths = {sg.truth_of_plane(p) for p in pair}
        assert truths != {"c_n:-", "c_s:+"}


def test_noisy_traversal_ape_bounded():
    worst = 0.0
    for seed in range(5):
        plan, sim, sg = simulate_sgraph("five_rooms", seed=seed)
        worst = max(worst, compute_ape(sg.keyframe_poses(), sg.gt_map).rmse)
    assert worst <= 0.15


def test_update_determinism_full_graph():
    _, _, sg1 = simulate_sgraph("five_rooms")
    _, _, sg2 = simulate_sgraph("five_rooms")
    assert sg1.graph.to_json() == sg2.graph.to_json()


# Largest number of state entries one keyframe's re-solve may move, however
# long the run. Measured peaks on 12-room routes are 78-90 (85 on the rows16
# bench route), against 420-470 free entries in the whole graph at the end.
WINDOW_COLUMNS_BOUND = 120


def test_update_solves_a_window_that_does_not_grow(monkeypatch):
    for seed in (0, 1):
        plan = generate_random_plan(12, seed)
        config = SimConfig(waypoints=tuple(route_waypoints(plan)), seed=seed)
        checked = []

        def add_step(sg, step, _add_step=SGraph.add_step):
            report = _add_step(sg, step)
            graph = sg.graph
            free = sum(len(graph.value(v)) for v in graph.variables() if not graph.is_fixed(v))
            if free > 300:
                checked.append(report.free_columns)
                window = sg._window()
                assert [v for v in sg.keyframes if v in window] == sg.keyframes[-WINDOW_KEYFRAMES:]
                recent = set(range(len(sg.keyframes) - WINDOW_KEYFRAMES, len(sg.keyframes)))
                for vid, rec in sg.planes.items():
                    assert (vid in window) == bool(rec.observers & recent)
                for vid, rec in sg.rooms.items():
                    assert (vid in window) == bool(window & set(rec.planes))
            return report

        monkeypatch.setattr(SGraph, "add_step", add_step)
        _, sg = run_estimator(plan, config)
        monkeypatch.undo()
        assert len(checked) >= 20
        assert max(checked) < WINDOW_COLUMNS_BOUND
        # The final batch solve still moves the whole graph.
        assert sg.last_report.free_columns > 300


def test_update_takes_one_lm_step_and_full_solves_converge(monkeypatch):
    """Each update's re-solve takes one LM step; the merge and the final solve converge."""
    reports, windowed = [], 0

    def add_step(sg, step, _add_step=SGraph.add_step):
        nonlocal windowed
        reports.append(_add_step(sg, step))
        windowed += len(sg.keyframes) > WINDOW_KEYFRAMES
        return reports[-1]

    monkeypatch.setattr(SGraph, "add_step", add_step)
    plan = generate_random_plan(12, 0)
    result = run_pipeline(plan, SimConfig(tuple(route_waypoints(plan)), seed=0))
    monkeypatch.undo()
    assert windowed > 50
    for report in reports:
        assert report.iterations <= UPDATE_ITERATIONS == 1
        trace = report.cost_trace
        assert all(b <= a for a, b in zip(trace, trace[1:]))
        # one accepted step, unless the step search found the cost already flat
        assert len(trace) == 2 or (len(trace) == 1 and report.converged)
    assert sum(len(report.cost_trace) == 2 for report in reports) > 0.9 * len(reports)
    assert result.merged is not None and result.merged.report.converged
    assert result.merged.report.iterations > 1
    assert result.sgraph.last_report.converged
