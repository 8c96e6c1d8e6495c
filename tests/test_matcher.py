import itertools
import math

import numpy as np
import pytest

from conftest import _correspondence_ok, simulate_sgraph
from planloc.a_graph import build_a_graph
from planloc.a_graph import plan_from_dict
from planloc.factor_graph import VariableId, VarKind, plane_to_plane, plane_to_plane_residual
from planloc.geometry import Pose2, estimate_transform_closed_form, rotation2, wrap_angle
from planloc.matcher import (
    ACCEPT_AFFINITY,
    BEAM_WIDTH,
    CLUSTER_REL_WIDTH,
    DIM_TOL,
    DIST_TOL,
    EXHAUSTIVE_MAX_ROOMS,
    PI_SCALE,
    RHO_SCALE,
    ROOM_AFFINITY_MIN,
    MatchCandidate,
    MatchPair,
    MatchResult,
    MatchStatus,
    PlanRooms,
    PlaneEntry,
    RoomEntry,
    RoomStructureError,
    WallPairingError,
    _room_dims,
    cluster_and_decide,
    combine_bottom_up,
    match,
    propose_room_pairs,
    propose_wall_pairs,
    room_entries,
    score_candidate,
    wall_residual_rms,
)
from planloc.plans import fixture_plan, generate_random_plan, row_plan


def transform_entry(
    entry: RoomEntry, pose: Pose2, index: int, plane_ids: dict | None = None
) -> RoomEntry:
    """A room entry with its whole geometry moved rigidly (S-graph stand-in).

    ``plane_ids`` maps original plane vids to relabeled ones, so a surface
    shared between rooms keeps a single identity, as real data association
    would produce.
    """
    plane_ids = plane_ids if plane_ids is not None else {}
    center = pose.transform_point(entry.center)
    planes = []
    for pl in entry.planes:
        phi = wrap_angle(pl.phi + pose.theta)
        d = pl.d + math.cos(phi) * pose.x + math.sin(phi) * pose.y
        if pl.vid not in plane_ids:
            plane_ids[pl.vid] = VariableId(VarKind.PLANE, len(plane_ids))
        planes.append(PlaneEntry(plane_ids[pl.vid], phi, d))
    return RoomEntry(
        VariableId(VarKind.ROOM, index), (float(center[0]), float(center[1])), tuple(planes)
    )


def synthetic_views(plan_name_or_plan, pose: Pose2, subset=None):
    plan = (
        fixture_plan(plan_name_or_plan)
        if isinstance(plan_name_or_plan, str)
        else plan_name_or_plan
    )
    ag = build_a_graph(plan)
    a_rooms = room_entries(ag.graph)
    chosen = a_rooms if subset is None else [a_rooms[i] for i in subset]
    inv = pose.inverse()
    plane_ids: dict = {}
    s_rooms = [transform_entry(r, inv, k, plane_ids) for k, r in enumerate(chosen)]
    return ag, a_rooms, s_rooms


def brute_force_assignments(a_rooms, s_rooms):
    """Independent oracle: every injective, gate-passing full assignment."""
    out = set()
    for combo in itertools.permutations(range(len(a_rooms)), len(s_rooms)):
        assignment = [(a_rooms[ai], s_rooms[si]) for si, ai in enumerate(combo)]
        if not all(
            abs(a.dims[0] - s.dims[0]) <= DIM_TOL
            and abs(a.dims[1] - s.dims[1]) <= DIM_TOL
            for a, s in assignment
        ):
            continue
        if not all(
            abs(math.dist(a1.center, a2.center) - math.dist(s1.center, s2.center))
            <= DIST_TOL
            for (a1, s1), (a2, s2) in itertools.combinations(assignment, 2)
        ):
            continue
        # room-level affinity floor, recomputed independently
        src = np.array([s.center for _, s in assignment])
        dst = np.array([a.center for a, _ in assignment])
        from planloc.geometry import estimate_transform_closed_form

        t = estimate_transform_closed_form(list(zip(src, dst)))
        res = [np.linalg.norm(t.transform_point(s) - d) for s, d in zip(src, dst)]
        e_rho = math.sqrt(float(np.mean(np.square(res))))
        if math.exp(-e_rho / RHO_SCALE) < ROOM_AFFINITY_MIN:
            continue
        out.add(frozenset((a.vid, s.vid) for a, s in assignment))
    return out


def test_propose_contains_truth_zero_noise():
    pose = Pose2(1.0, -2.0, 0.4)
    _, a_rooms, s_rooms = synthetic_views("two_rooms", pose)
    cands = propose_room_pairs(a_rooms, s_rooms)
    assert cands, "no candidates proposed"
    best = cands[0]
    assert best.affinity >= 0.99
    truth = {
        (a_rooms[k].vid, s_rooms[k].vid) for k in range(len(s_rooms))
    }
    assert {(p.a_node, p.s_node) for p in best.pairs} == truth


def test_propose_symmetric_grid_has_multiple_candidates():
    pose = Pose2(0.3, 0.1, 0.0)
    _, a_rooms, s_rooms = synthetic_views("grid_2x2", pose, subset=[0, 1])
    cands = propose_room_pairs(a_rooms, s_rooms)
    assert len(cands) >= 2


def test_propose_dimension_gate():
    # a 3x3 room cannot match any room of the five-room plan
    _, a_rooms, _ = synthetic_views("five_rooms", Pose2.identity())
    fake = [
        RoomEntry(
            VariableId(VarKind.ROOM, 0),
            (0.0, 0.0),
            (
                PlaneEntry(VariableId(VarKind.PLANE, 0), 0.0, 1.5),
                PlaneEntry(VariableId(VarKind.PLANE, 1), math.pi, 1.5),
                PlaneEntry(VariableId(VarKind.PLANE, 2), math.pi / 2, 1.5),
                PlaneEntry(VariableId(VarKind.PLANE, 3), -math.pi / 2, 1.5),
            ),
        ),
        RoomEntry(
            VariableId(VarKind.ROOM, 1),
            (5.0, 0.0),
            (
                PlaneEntry(VariableId(VarKind.PLANE, 4), 0.0, 6.5),
                PlaneEntry(VariableId(VarKind.PLANE, 5), math.pi, -3.5),
                PlaneEntry(VariableId(VarKind.PLANE, 6), math.pi / 2, 1.5),
                PlaneEntry(VariableId(VarKind.PLANE, 7), -math.pi / 2, 1.5),
            ),
        ),
    ]
    assert propose_room_pairs(a_rooms, fake) == []


def test_propose_equals_bruteforce_on_random_plans():
    rng = np.random.default_rng(21)
    for trial in range(20):
        n = 3 + trial % 3
        plan = generate_random_plan(n, 100 + trial)
        pose = Pose2(*rng.uniform(-3, 3, 2), rng.uniform(-math.pi, math.pi))
        k = int(rng.integers(2, n + 1))
        subset = sorted(rng.choice(n, size=k, replace=False).tolist())
        _, a_rooms, s_rooms = synthetic_views(plan, pose, subset=subset)
        got = {
            frozenset((p.a_node, p.s_node) for p in c.pairs)
            for c in propose_room_pairs(a_rooms, s_rooms)
        }
        want = brute_force_assignments(a_rooms, s_rooms)
        assert got == want


def test_propose_beam_search_beyond_enumeration_bound():
    # 10 observed rooms exceeds the exhaustive bound; the beam must still
    # surface the ground-truth assignment in an asymmetric plan
    plan = generate_random_plan(10, seed=77)
    pose = Pose2(1.0, -0.5, 0.7)
    _, a_rooms, s_rooms = synthetic_views(plan, pose)
    cands = propose_room_pairs(a_rooms, s_rooms)
    assert cands
    truth = {(a_rooms[k].vid, s_rooms[k].vid) for k in range(len(s_rooms))}
    assert any(
        {(p.a_node, p.s_node) for p in c.pairs} == truth for c in cands
    )


def test_wall_pairs_ground_truth():
    pose = Pose2(2.0, 1.0, math.radians(30))
    _, a_rooms, s_rooms = synthetic_views("two_rooms", pose)
    cands = propose_room_pairs(a_rooms, s_rooms)
    best = cands[0]
    a_by = {r.vid: r for r in a_rooms}
    s_by = {r.vid: r for r in s_rooms}
    for pair in best.room_pairs:
        wall_pairs = propose_wall_pairs(pair, a_by, s_by, best.transform_hint)
        assert len(wall_pairs) == 4
        # geometric consistency: mapped s-plane coincides with its a-plane
        for wp in wall_pairs:
            ap = next(p for p in a_by[pair.a_node].planes if p.vid == wp.a_node)
            sp = next(p for p in s_by[pair.s_node].planes if p.vid == wp.s_node)
            phi_t = wrap_angle(sp.phi + best.transform_hint.theta)
            d_t = sp.d + math.cos(phi_t) * best.transform_hint.x + math.sin(
                phi_t
            ) * best.transform_hint.y
            dphi = wrap_angle(phi_t - ap.phi)
            if abs(dphi) > math.pi / 2:
                dphi = wrap_angle(dphi - math.pi)
                d_t = -d_t
            assert abs(dphi) < 1e-6
            assert abs(d_t - ap.d) < 1e-6


def _wall_pairs_or_refusal(pair, a_by, s_by, hint):
    try:
        return propose_wall_pairs(pair, a_by, s_by, hint)
    except WallPairingError:
        return None


@pytest.mark.parametrize("theta", [0.3, math.pi / 4, math.pi / 2, -1.0])
def test_wall_pairs_do_not_depend_on_the_heading(theta):
    # Turning the plan rooms and the robot rooms together about their origins,
    # with each hint turned to match, leaves every room pair's wall pairs, their
    # order and every refusal as they were.
    rng = np.random.default_rng(31)
    turn = Pose2(0.0, 0.0, theta)

    def turn_all(rooms):
        return {
            r.vid: transform_entry(r, turn, r.vid.index, {p.vid: p.vid for p in r.planes})
            for r in rooms
        }

    paired = refused = 0
    for name in ("two_rooms", "five_rooms", "corridor", "grid_2x2_variant"):
        pose = Pose2(*rng.uniform(-3, 3, 2), rng.uniform(-math.pi, math.pi))
        a_rooms, s_rooms = _noisy_views(name, pose, None, rng)
        a_by, s_by = {r.vid: r for r in a_rooms}, {r.vid: r for r in s_rooms}
        a_turned, s_turned = turn_all(a_rooms), turn_all(s_rooms)
        # the matcher's hints, the same an eighth turn off (where the plane
        # noise splits a room's planes between roles), and hints at any angle,
        # each on every room pair
        hints = [c.transform_hint for c in propose_room_pairs(a_rooms, s_rooms)]
        hints += [Pose2(h.x, h.y, h.theta + math.pi / 4) for h in hints]
        hints += [Pose2(*rng.uniform(-3, 3, 2), t) for t in rng.uniform(-math.pi, math.pi, 20)]
        for hint in hints:
            hint_turned = turn.compose(hint).compose(turn.inverse())
            for a, s in itertools.product(a_by, s_by):
                pair = MatchPair(a, s, "room")
                want = _wall_pairs_or_refusal(pair, a_by, s_by, hint)
                assert _wall_pairs_or_refusal(pair, a_turned, s_turned, hint_turned) == want
                paired += want is not None
                refused += want is None
    assert paired > 1000 and refused > 20


def test_wall_pairs_structural_error_on_missing_plane():
    _, a_rooms, s_rooms = synthetic_views("two_rooms", Pose2.identity())
    broken = RoomEntry(s_rooms[0].vid, s_rooms[0].center, s_rooms[0].planes[:3])
    a_by = {r.vid: r for r in a_rooms}
    s_by = {broken.vid: broken}
    pair = MatchPair(a_rooms[0].vid, broken.vid, "room")
    with pytest.raises(RoomStructureError):
        propose_wall_pairs(pair, a_by, s_by, None)


def test_combine_bottom_up_dedupes_shared_surface():
    # the corridor's long wall face is shared by several rooms: its pair must
    # appear exactly once in the combined candidate
    pose = Pose2(0.5, 0.25, 0.0)
    _, a_rooms, s_rooms = synthetic_views("corridor", pose)
    cands = propose_room_pairs(a_rooms, s_rooms)
    best = cands[0]
    a_by = {r.vid: r for r in a_rooms}
    s_by = {r.vid: r for r in s_rooms}
    wall_pairs = []
    for pair in best.room_pairs:
        wall_pairs.extend(propose_wall_pairs(pair, a_by, s_by, best.transform_hint))
    combined = combine_bottom_up([(best, wall_pairs)])
    assert len(combined) == 1
    walls = combined[0].wall_pairs
    assert len({(p.a_node, p.s_node) for p in walls}) == len(walls)
    a_nodes = [p.a_node for p in walls]
    s_nodes = [p.s_node for p in walls]
    assert len(set(a_nodes)) == len(a_nodes)
    assert len(set(s_nodes)) == len(s_nodes)


def test_combine_bottom_up_rejects_inconsistent_mapping():
    _, a_rooms, s_rooms = synthetic_views("two_rooms", Pose2.identity())
    cands = propose_room_pairs(a_rooms, s_rooms)
    best = cands[0]
    s_plane = s_rooms[0].planes[0].vid
    bad_pairs = [
        MatchPair(a_rooms[0].planes[0].vid, s_plane, "wall_surface"),
        MatchPair(a_rooms[0].planes[1].vid, s_plane, "wall_surface"),
    ]
    assert combine_bottom_up([(best, bad_pairs)]) == []
    assert combine_bottom_up([]) == []


def test_score_ground_truth_zero_noise():
    pose = Pose2(2.0, 1.0, math.radians(30))
    _, a_rooms, s_rooms = synthetic_views("five_rooms", pose)
    result = match(a_rooms, s_rooms)
    assert result.status == MatchStatus.MATCHED
    assert result.best.affinity >= 0.999
    hint = result.best.transform_hint
    assert hint.almost_equal(pose, tol=1e-6)


def test_score_noisy_candidate_affinity():
    # the ground-truth candidate with 0.02 m noise on the wall-surface
    # distances; 100 seeds, 5th percentile of the resulting affinity
    affs = []
    for trial in range(100):
        rng = np.random.default_rng(1000 + trial)
        pose = Pose2(*rng.uniform(-2, 2, 2), rng.uniform(-math.pi, math.pi))
        _, a_rooms, s_rooms = synthetic_views("five_rooms", pose)
        noisy = []
        for r in s_rooms:
            planes = tuple(
                PlaneEntry(p.vid, p.phi, p.d + rng.normal(0, 0.02)) for p in r.planes
            )
            noisy.append(RoomEntry(r.vid, r.center, planes))
        result = match(a_rooms, noisy)
        assert result.status == MatchStatus.MATCHED
        affs.append(result.best.affinity)
    assert float(np.percentile(affs, 5)) >= 0.8


def _reference_affinity(cand, a_by, s_by):
    """Per-pair scalar form of score_candidate's affinity."""
    hint = estimate_transform_closed_form(
        [(s_by[p.s_node].center, a_by[p.a_node].center) for p in cand.room_pairs]
    )
    rho_sq = [
        float(np.sum((hint.transform_point(s_by[p.s_node].center) - a_by[p.a_node].center) ** 2))
        for p in cand.room_pairs
    ]
    a_planes = {pl.vid: pl for r in a_by.values() for pl in r.planes}
    s_planes = {pl.vid: pl for r in s_by.values() for pl in r.planes}
    comp_sq = []
    for pair in cand.wall_pairs:
        ap, sp = a_planes[pair.a_node], s_planes[pair.s_node]
        phi_t = wrap_angle(sp.phi + hint.theta)
        d_t = sp.d + math.cos(phi_t) * hint.x + math.sin(phi_t) * hint.y
        dphi = wrap_angle(phi_t - ap.phi)
        if abs(dphi) > math.pi / 2:
            dphi, d_t = wrap_angle(dphi - math.pi), -d_t
        comp_sq += [dphi**2, (d_t - ap.d) ** 2]
    e_rho = math.sqrt(sum(rho_sq) / len(rho_sq))
    e_pi = math.sqrt(sum(comp_sq) / len(comp_sq))
    return math.exp(-(e_rho / RHO_SCALE + e_pi / PI_SCALE))


def test_score_matches_scalar_reference():
    # noisy observed planes, every other one stored with the opposite polarity
    for trial in range(10):
        rng = np.random.default_rng(2000 + trial)
        pose = Pose2(*rng.uniform(-2, 2, 2), rng.uniform(-math.pi, math.pi))
        _, a_rooms, s_rooms = synthetic_views("five_rooms", pose)
        noise = {p.vid: rng.normal(0, [0.01, 0.02]) for r in s_rooms for p in r.planes}
        noisy = []
        for r in s_rooms:
            planes = []
            for p in r.planes:
                phi, d = p.phi + noise[p.vid][0], p.d + noise[p.vid][1]
                if p.vid.index % 2:
                    phi, d = wrap_angle(phi + math.pi), -d
                planes.append(PlaneEntry(p.vid, phi, d))
            noisy.append(RoomEntry(r.vid, r.center, tuple(planes)))
        result = match(a_rooms, noisy)
        a_by, s_by = {r.vid: r for r in a_rooms}, {r.vid: r for r in noisy}
        assert result.cluster
        for cand in result.cluster:
            want = _reference_affinity(cand, a_by, s_by)
            assert cand.affinity == pytest.approx(want, rel=1e-12)


def test_scorer_residual_is_the_kernel_residual():
    """score_candidate weighs wall pairs by the plane_to_plane factor's residual, bit for bit."""
    scored = 0
    for trial in range(10):
        rng = np.random.default_rng(3000 + trial)
        pose = Pose2(*rng.uniform(-2, 2, 2), rng.uniform(-math.pi, math.pi))
        _, a_rooms, s_rooms = synthetic_views("five_rooms", pose)
        # noisy observed planes, every other one stored with the opposite polarity
        noisy = []
        for r in s_rooms:
            planes = []
            for p in r.planes:
                phi, d = p.phi + rng.normal(0, 0.01), p.d + rng.normal(0, 0.02)
                if p.vid.index % 2:
                    phi, d = wrap_angle(phi + math.pi), -d
                planes.append(PlaneEntry(p.vid, phi, d))
            noisy.append(RoomEntry(r.vid, r.center, tuple(planes)))
        a_by, s_by = {r.vid: r for r in a_rooms}, {r.vid: r for r in noisy}
        a_planes = {pl.vid: pl for r in a_rooms for pl in r.planes}
        s_planes = {pl.vid: pl for r in noisy for pl in r.planes}
        for cand in match(a_rooms, noisy).cluster:
            planes = np.array([
                (a_planes[p.a_node].phi, a_planes[p.a_node].d, s_planes[p.s_node].phi,
                 s_planes[p.s_node].d)
                for p in cand.wall_pairs
            ])
            m = len(planes)
            t_vals = np.full((m, 3), cand.transform_hint.as_array())
            r, _ = plane_to_plane(None, [planes[:, 2:], t_vals], planes[:, :2])
            e_pi = math.sqrt(float(np.mean(r**2)))
            want = math.exp(-(cand.e_rho / RHO_SCALE + e_pi / PI_SCALE))
            (scored_pi,) = wall_residual_rms([cand], a_by, s_by)
            assert score_candidate(cand, scored_pi).affinity == want
            scored += 1
    assert scored >= 10


def test_wrong_assignment_scores_low():
    _, a_rooms, s_rooms = synthetic_views("five_rooms", Pose2.identity())
    a_by = {r.vid: r for r in a_rooms}
    s_by = {r.vid: r for r in s_rooms}
    worst = 0.0
    truth = {s_rooms[k].vid: a_rooms[k].vid for k in range(len(s_rooms))}
    for combo in itertools.permutations(range(len(a_rooms)), len(s_rooms)):
        assignment = {s_rooms[si].vid: a_rooms[ai].vid for si, ai in enumerate(combo)}
        if assignment == truth:
            continue
        room_pairs = tuple(
            MatchPair(a_vid, s_vid, "room") for s_vid, a_vid in assignment.items()
        )
        wall_pairs = []
        try:
            from planloc.geometry import GeometryError

            hint = estimate_transform_closed_form(
                [(s_by[s].center, a_by[a].center) for s, a in assignment.items()]
            )
            cand = MatchCandidate(room_pairs, 1.0, hint)
            for pair in room_pairs:
                wall_pairs.extend(propose_wall_pairs(pair, a_by, s_by, hint))
        except (WallPairingError, GeometryError):
            continue
        combined = combine_bottom_up([(cand, wall_pairs)])
        if not combined:
            continue
        (e_pi,) = wall_residual_rms(combined, a_by, s_by)
        scored = score_candidate(combined[0], e_pi)
        if scored is not None:
            worst = max(worst, scored.affinity)
    assert worst <= 0.5


def _pair_gap(a, b):
    """The gap of one opposed plane pair, one 1-D dot at a time."""
    return abs(float((a.foot - b.foot) @ a.normal))


def test_room_dims_pass_is_the_per_pair_gap_bit_for_bit():
    rng = np.random.default_rng(9)
    rooms = []
    for scale in (1e-3, 1.0, 40.0, 1e4):
        for k in range(50):
            planes = tuple(
                PlaneEntry(VariableId(VarKind.PLANE, 4 * k + q), phi, d)
                for q, (phi, d) in enumerate(
                    zip(rng.uniform(-4, 4, 4).tolist(), rng.normal(0, scale, 4).tolist())
                )
            )
            center = tuple(rng.normal(0, scale, 2).tolist())
            rooms.append(RoomEntry(VariableId(VarKind.ROOM, k), center, planes))
    got = _room_dims(rooms)
    for room, dims in zip(rooms, got.tolist()):
        want = sorted((_pair_gap(*room.planes[:2]), _pair_gap(*room.planes[2:])))
        assert dims == want
        assert room.dims == tuple(want)


def _combined(a_rooms, s_rooms, a_by, s_by):
    """The all-level candidates match scores, for the robot rooms given."""
    expanded = []
    for cand in propose_room_pairs(a_rooms, s_rooms):
        try:
            walls = [
                w for p in cand.room_pairs
                for w in propose_wall_pairs(p, a_by, s_by, cand.transform_hint)
            ]
        except WallPairingError:
            continue
        expanded.append((cand, walls))
    return combine_bottom_up(expanded)


def test_wall_residual_pass_is_the_per_candidate_kernel_mean_bit_for_bit():
    """One batch of candidates of unequal wall counts, some robot planes stored flipped."""
    rng = np.random.default_rng(17)
    counts, shared, flipped = set(), 0, 0
    for name in ("corridor", "five_rooms", "grid_2x2_variant"):
        pose = Pose2(*rng.uniform(-3, 3, 2), rng.uniform(-math.pi, math.pi))
        a_rooms, s_rooms = _noisy_views(name, pose, None, rng)
        a_by, s_by = {r.vid: r for r in a_rooms}, {r.vid: r for r in s_rooms}
        a_planes = {pl.vid: pl for r in a_rooms for pl in r.planes}
        s_planes = {pl.vid: pl for r in s_rooms for pl in r.planes}
        cands = [
            cand
            for k in range(2, len(s_rooms) + 1)
            for cand in _combined(a_rooms, s_rooms[:k], a_by, s_by)
        ]
        rng.shuffle(cands)
        cands.append(propose_room_pairs(a_rooms, s_rooms)[0])  # no wall pairs: RMS 0
        for cand, got in zip(cands, wall_residual_rms(cands, a_by, s_by)):
            walls = cand.wall_pairs
            if not walls:
                assert got == 0.0
                continue
            hint = cand.transform_hint
            a = np.array([(a_planes[p.a_node].phi, a_planes[p.a_node].d) for p in walls])
            sp = np.array([(s_planes[p.s_node].phi, s_planes[p.s_node].d) for p in walls])
            r, _ = plane_to_plane_residual([a, sp, np.full((len(walls), 3), hint.as_array())])
            assert got == math.sqrt(float(np.mean(r**2)))
            counts.add(len(walls))
            shared += len(walls) < 4 * len(cand.room_pairs)
            flipped += any(
                abs(wrap_angle(sp_phi + hint.theta - a_phi)) > math.pi / 2
                for a_phi, sp_phi in zip(a[:, 0], sp[:, 0])
            )
    assert len(counts) >= 3 and shared and flipped


def test_cluster_and_decide_rules():
    def cand(aff):
        return MatchCandidate((), aff, None)

    r = cluster_and_decide([cand(0.97), cand(0.41), cand(0.33)])
    assert r.status == MatchStatus.MATCHED and r.best.affinity == 0.97
    r = cluster_and_decide([cand(0.95), cand(0.94)])
    assert r.status == MatchStatus.AMBIGUOUS and len(r.cluster) == 2
    r = cluster_and_decide([cand(0.45)])
    assert r.status == MatchStatus.NO_MATCH and r.best is None
    assert cluster_and_decide([]).status == MatchStatus.NO_MATCH


def test_match_requires_two_rooms():
    _, a_rooms, s_rooms = synthetic_views("five_rooms", Pose2.identity(), subset=[0])
    assert match(a_rooms, s_rooms).status == MatchStatus.NO_MATCH


def test_match_rigid_invariance():
    base_pose = Pose2(1.0, 0.5, 0.3)
    _, a_rooms, s_rooms = synthetic_views("five_rooms", base_pose, subset=[0, 2, 3])
    base = match(a_rooms, s_rooms)
    rng = np.random.default_rng(3)
    for _ in range(5):
        extra = Pose2(*rng.uniform(-5, 5, 2), rng.uniform(-math.pi, math.pi))
        ids: dict = {}
        moved = [
            transform_entry(r, extra, k, ids) for k, r in enumerate(s_rooms)
        ]
        result = match(a_rooms, moved)
        assert result.status == base.status
        assert result.best.affinity == pytest.approx(base.best.affinity, abs=1e-9)


def test_match_deterministic():
    plan, sim, sg = simulate_sgraph("five_rooms")
    ag = build_a_graph(plan)
    r1 = match(ag.rooms, room_entries(sg.graph))
    r2 = match(ag.rooms, room_entries(sg.graph))
    assert r1.to_json() == r2.to_json()


def test_match_run_pipeline_truth(five_rooms_run):
    assert five_rooms_run.merged is not None
    assert _correspondence_ok(five_rooms_run.agraph, five_rooms_run.sgraph, five_rooms_run.merged)


# -- reference: the per-item matcher, kept as the oracle of the batched one ----
#
# One Python loop over partial assignments per level, one closed-form fit per
# candidate at the room level and again at scoring, side roles from numpy
# rotations (the quarter turn from the plan room's plane 0 to each outward
# normal), and a full sort on (-affinity, pair keys).


def _ref_center_fit(pts):
    """Per-candidate closed-form center fit and its RMS residual; None when degenerate."""
    src = np.asarray([p[0] for p in pts], dtype=float)
    dst = np.asarray([p[1] for p in pts], dtype=float)
    if np.max(np.abs(src - src[0])) < 1e-12:
        return None
    cs, cd = src.mean(axis=0), dst.mean(axis=0)
    h = (src - cs).T @ (dst - cd)
    theta = math.atan2(h[0, 1] - h[1, 0], h[0, 0] + h[1, 1])
    trans = cd - rotation2(theta) @ cs
    hint = Pose2(trans[0], trans[1], theta)
    rho = src @ hint.rotation().T + hint.translation - dst
    return hint, math.sqrt(float(np.mean(np.sum(rho**2, axis=1))))


def _ref_key(p):
    return (p.level, p.a_node.kind.value, p.a_node.index, p.s_node.kind.value, p.s_node.index)


def _ref_sort_key(c):
    return (-c.affinity, tuple(_ref_key(p) for p in c.pairs))


def _ref_dims_ok(a, s):
    return abs(a.dims[0] - s.dims[0]) <= DIM_TOL and abs(a.dims[1] - s.dims[1]) <= DIM_TOL


def _ref_propose(a_rooms, s_rooms):
    if len(s_rooms) < 2 or not a_rooms:
        return []
    s_rooms = sorted(s_rooms, key=lambda r: r.vid.index)
    bounded = len(s_rooms) > EXHAUSTIVE_MAX_ROOMS
    a_dist = [[math.dist(a.center, b.center) for b in a_rooms] for a in a_rooms]
    partials = [()]
    for level, s in enumerate(s_rooms):
        s_dist = [math.dist(ps.center, s.center) for ps in s_rooms[:level]]
        compat = [i for i, a in enumerate(a_rooms) if _ref_dims_ok(a, s)]
        grown = [
            partial + (i,)
            for partial in partials
            for i in compat
            if i not in partial
            and all(abs(a_dist[pi][i] - ds) <= DIST_TOL for pi, ds in zip(partial, s_dist))
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
        fit = _ref_center_fit([(s.center, a.center) for a, s in assignment])
        if fit is None:
            continue
        hint, e_rho = fit
        affinity = math.exp(-e_rho / RHO_SCALE)
        if affinity >= ROOM_AFFINITY_MIN:
            pairs = tuple(
                MatchPair(a.vid, s.vid, "room")
                for a, s in sorted(assignment, key=lambda t: t[1].vid.index)
            )
            candidates.append(MatchCandidate(pairs, affinity, hint))
    candidates.sort(key=_ref_sort_key)
    return candidates


def _ref_outward(room, plane):
    """The plane's unit normal, pointing from the room center out through the plane."""
    n = plane.normal
    return n if n @ (plane.foot - np.asarray(room.center)) >= 0 else -n


def _ref_side_roles(room, ref, rot):
    """Each plane by the quarter turn from ``ref`` to its outward normal turned by ``rot``."""
    roles = {}
    for plane in room.planes:
        n = rot @ _ref_outward(room, plane)
        role = round(math.atan2(ref[0] * n[1] - ref[1] * n[0], ref @ n) / (math.pi / 2)) % 4
        if role in roles:
            raise WallPairingError(role)
        roles[role] = plane
    return roles


def _ref_wall_pairs(a_room, s_room, hint):
    ref = _ref_outward(a_room, a_room.planes[0])
    a_roles = _ref_side_roles(a_room, ref, np.eye(2))
    s_roles = _ref_side_roles(s_room, ref, hint.rotation())
    if set(a_roles) != set(s_roles):
        raise WallPairingError("side roles do not line up")
    return [
        MatchPair(a_roles[role].vid, s_roles[role].vid, "wall_surface")
        for role in sorted(a_roles)
    ]


def reference_match(a_rooms, s_rooms):
    """The per-item matcher: (MatchResult, funnel counts)."""
    counts = dict(room_cands=0, wall_expansions=0, combined=0, scored=0)
    if len(s_rooms) < 2:
        return MatchResult(MatchStatus.NO_MATCH, None, []), counts
    a_by = {r.vid: r for r in a_rooms}
    s_by = {r.vid: r for r in s_rooms}
    room_cands = _ref_propose(a_rooms, s_rooms)
    counts["room_cands"] = len(room_cands)
    combined = []
    for cand in room_cands:
        wall_pairs = []
        try:
            for pair in cand.room_pairs:
                counts["wall_expansions"] += 1
                wall_pairs += _ref_wall_pairs(
                    a_by[pair.a_node], s_by[pair.s_node], cand.transform_hint
                )
        except WallPairingError:
            continue
        a_map, s_map, unique = {}, {}, {}
        if any(
            a_map.setdefault(p.a_node, p.s_node) != p.s_node
            or s_map.setdefault(p.s_node, p.a_node) != p.a_node
            for p in wall_pairs
        ):
            continue
        for p in wall_pairs:
            unique.setdefault(_ref_key(p), p)
        pairs = cand.room_pairs + tuple(unique[k] for k in sorted(unique))
        combined.append(MatchCandidate(pairs, cand.affinity, cand.transform_hint))
    counts["combined"] = len(combined)
    scored = []
    for cand in combined:
        room_pairs = cand.room_pairs
        fit = _ref_center_fit([(s_by[p.s_node].center, a_by[p.a_node].center) for p in room_pairs])
        if fit is None:
            continue
        hint, e_rho = fit
        a_planes = {pl.vid: pl for room in a_by.values() for pl in room.planes}
        s_planes = {pl.vid: pl for room in s_by.values() for pl in room.planes}
        planes = np.array(
            [
                (a_planes[p.a_node].phi, a_planes[p.a_node].d,
                 s_planes[p.s_node].phi, s_planes[p.s_node].d)
                for p in cand.wall_pairs
            ]
        ).reshape(-1, 4)
        m = len(planes)
        t_vals = np.full((m, 3), hint.as_array())
        r, _ = plane_to_plane(None, [planes[:, 2:], t_vals], planes[:, :2])
        e_pi = math.sqrt(float(np.mean(r**2)))
        affinity = math.exp(-(e_rho / RHO_SCALE + e_pi / PI_SCALE))
        scored.append(MatchCandidate(cand.pairs, affinity, hint))
    counts["scored"] = len(scored)
    ranked = sorted(scored, key=_ref_sort_key)
    if not ranked or ranked[0].affinity < ACCEPT_AFFINITY:
        return MatchResult(MatchStatus.NO_MATCH, None, []), counts
    cluster = [c for c in ranked if c.affinity >= ranked[0].affinity * (1.0 - CLUSTER_REL_WIDTH)]
    status = MatchStatus.MATCHED if len(cluster) == 1 else MatchStatus.AMBIGUOUS
    return MatchResult(status, cluster[0], cluster), counts


@pytest.fixture
def funnel(monkeypatch):
    """Counts of the matcher's stages, taken where the bench's tracer takes them."""
    import planloc.matcher as matcher

    counts = dict(room_cands=0, wall_expansions=0, combined=0, scored=0)
    tallies = {
        "propose_room_pairs": ("room_cands", len),
        "combine_bottom_up": ("combined", len),
        "score_candidate": ("scored", lambda out: out is not None),
    }
    for name, (key, tally) in tallies.items():

        def wrapper(*args, fn=getattr(matcher, name), key=key, tally=tally):
            out = fn(*args)
            counts[key] += tally(out)
            return out

        monkeypatch.setattr(matcher, name, wrapper)

    # counted on entry, as the bench counts it: a call that raises
    # WallPairingError is an expansion too
    def expansion(*args, fn=matcher.propose_wall_pairs):
        counts["wall_expansions"] += 1
        return fn(*args)

    monkeypatch.setattr(matcher, "propose_wall_pairs", expansion)
    return counts


def _noisy_views(plan, pose, subset, rng, flip=True):
    """Synthetic robot rooms with center and plane noise, some planes stored flipped."""
    _, a_rooms, s_rooms = synthetic_views(plan, pose, subset=subset)
    return a_rooms, _with_noise(s_rooms, rng, flip)


def _with_noise(s_rooms, rng, flip=True):
    noise = {}
    noisy = []
    for r in s_rooms:
        planes = []
        for p in r.planes:
            if p.vid not in noise:
                noise[p.vid] = (*rng.normal(0, [0.01, 0.03]).tolist(), flip and rng.random() < 0.3)
            dphi, dd, flipped = noise[p.vid]
            phi, d = p.phi + dphi, p.d + dd
            if flipped:
                phi, d = wrap_angle(phi + math.pi), -d
            planes.append(PlaneEntry(p.vid, phi, d))
        center = tuple(float(v) for v in np.asarray(r.center) + rng.normal(0, 0.05, 2))
        noisy.append(RoomEntry(r.vid, center, tuple(planes)))
    rng.shuffle(noisy)  # the matcher must not depend on the input order
    return noisy


def _assert_matches_reference(a_rooms, s_rooms, funnel):
    want, want_counts = reference_match(a_rooms, s_rooms)
    assert [
        (c.pairs, c.affinity, c.transform_hint) for c in propose_room_pairs(a_rooms, s_rooms)
    ] == [(c.pairs, c.affinity, c.transform_hint) for c in _ref_propose(a_rooms, s_rooms)]
    for key in funnel:
        funnel[key] = 0
    got = match(a_rooms, s_rooms)
    assert got.to_json() == want.to_json()
    assert funnel == want_counts
    return want_counts


def test_match_makes_one_residual_call(funnel, monkeypatch):
    """All of a match's wall pairs go through one residual call, and the funnel is unchanged."""
    import planloc.matcher as matcher

    rows = []

    def counted(vals, _residual=matcher.plane_to_plane_residual):
        rows.append(len(vals[0]))
        return _residual(vals)

    monkeypatch.setattr(matcher, "plane_to_plane_residual", counted)
    rng = np.random.default_rng(23)
    plan = _sym_rows8()
    several = 0
    for subset in ([0, 1], [2, 3, 4], [0, 1, 2, 3, 4, 5], [5, 6, 7]):
        pose = Pose2(*rng.uniform(-3, 3, 2), rng.uniform(-math.pi, math.pi))
        a_rooms, s_rooms = _noisy_views(plan, pose, subset, rng)
        rows.clear()
        counts = _assert_matches_reference(a_rooms, s_rooms, funnel)
        assert len(rows) == (1 if counts["combined"] else 0)
        several += counts["combined"] > 1
    assert several
    # no candidate passes the gates: no residual call
    _, a_rooms, _ = synthetic_views("five_rooms", Pose2.identity())
    rows.clear()
    assert match(a_rooms, _room_lattice(2, 9.0, 20.0, rng)).status == MatchStatus.NO_MATCH
    assert rows == []


def test_plan_rooms_match_like_a_plain_list_and_build_their_arrays_once(funnel):
    """A run's plan rooms (``AGraph.rooms``) keep the arrays a match reads across matches."""
    rng = np.random.default_rng(31)
    for plan, subsets in ((_sym_rows8(), ([0, 1, 2], [3, 4, 5, 6])), ("five_rooms", ([0, 2, 4],))):
        plan_rooms = build_a_graph(fixture_plan(plan) if isinstance(plan, str) else plan).rooms
        assert isinstance(plan_rooms, PlanRooms)
        arrays = None
        for subset in subsets:
            pose = Pose2(*rng.uniform(-3, 3, 2), rng.uniform(-math.pi, math.pi))
            a_rooms, s_rooms = _noisy_views(plan, pose, subset, rng)
            assert a_rooms == plan_rooms
            want = _assert_matches_reference(a_rooms, s_rooms, funnel)
            assert _assert_matches_reference(plan_rooms, s_rooms, funnel) == want
            read = (plan_rooms.dims, plan_rooms.centers, plan_rooms.center_dist,
                    plan_rooms.by_vid, plan_rooms.by_vid.plane_values)
            assert arrays is None or all(a is b for a, b in zip(arrays, read))
            arrays = read


def _sym_rows8():
    return plan_from_dict(row_plan([3.0] * 8, [4.0] * 8, [0.5 + 0.5 * k for k in range(8)]))


def test_match_equals_reference_on_symmetric_rows(funnel):
    plan = _sym_rows8()
    rng = np.random.default_rng(40)
    totals = dict.fromkeys(funnel, 0)
    for first in range(7):
        for last in range(first + 2, 9):
            pose = Pose2(*rng.uniform(-3, 3, 2), rng.uniform(-math.pi, math.pi))
            a_rooms, s_rooms = _noisy_views(plan, pose, list(range(first, last)), rng)
            for key, n in _assert_matches_reference(a_rooms, s_rooms, funnel).items():
                totals[key] += n
    assert totals["room_cands"] > 100 and totals["scored"] > 100


def test_match_equals_reference_on_random_plans(funnel):
    beam = 0
    for n in (8, 12, 16):
        for seed in (0, 1):
            plan = generate_random_plan(n, seed)
            rng = np.random.default_rng(100 * n + seed)
            for trial in range(6):
                k = int(rng.integers(2, n + 1)) if trial else min(n, 10)
                subset = sorted(rng.choice(n, size=k, replace=False).tolist())
                beam += k > EXHAUSTIVE_MAX_ROOMS
                pose = Pose2(*rng.uniform(-3, 3, 2), rng.uniform(-math.pi, math.pi))
                a_rooms, s_rooms = _noisy_views(plan, pose, subset, rng)
                _assert_matches_reference(a_rooms, s_rooms, funnel)
    assert beam >= 4


def _room_lattice(n, size, pitch, rng):
    """n x n plan rooms of near-equal size, one per lattice site, each with its own planes."""
    rooms = []
    for cy in np.arange(n) * pitch:
        for cx in np.arange(n) * pitch:
            w, h = size + rng.uniform(-0.1, 0.1, 2)
            k = len(rooms)
            faces = ((0.0, cx + w / 2), (math.pi, w / 2 - cx),
                     (math.pi / 2, cy + h / 2), (-math.pi / 2, h / 2 - cy))
            rooms.append(RoomEntry(
                VariableId(VarKind.ROOM, k),
                (float(cx), float(cy)),
                tuple(PlaneEntry(VariableId(VarKind.PLANE, 4 * k + q), phi, float(d))
                      for q, (phi, d) in enumerate(faces)),
            ))
    return rooms


def test_match_equals_reference_when_the_beam_truncates(funnel):
    # ten robot rooms on a 5 x 5 lattice: 80 partial assignments reach the
    # second level, more than BEAM_WIDTH, so the beam's order decides which
    # survive; the sizes differ by up to 0.2 m, so that order is not trivial
    rng = np.random.default_rng(12)
    a_rooms = _room_lattice(5, 3.0, 3.2, rng)
    for subset in ([0, 1, 2, 5, 6, 7, 10, 11, 12, 15], [6, 7, 8, 11, 12, 13, 16, 17, 18, 3],
                   [0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 14]):
        assert len(subset) > EXHAUSTIVE_MAX_ROOMS
        pose = Pose2(*rng.uniform(-3, 3, 2), rng.uniform(-math.pi, math.pi))
        ids: dict = {}
        s_rooms = [
            transform_entry(a_rooms[i], pose.inverse(), k, ids) for k, i in enumerate(subset)
        ]
        _assert_matches_reference(a_rooms, _with_noise(s_rooms, rng), funnel)


def test_match_equals_reference_on_turned_fixtures(funnel):
    rng = np.random.default_rng(7)
    for name in ("two_rooms", "five_rooms", "corridor", "grid_2x2", "grid_2x2_variant"):
        for _ in range(4):
            pose = Pose2(*rng.uniform(-5, 5, 2), rng.uniform(-math.pi, math.pi))
            a_rooms, s_rooms = _noisy_views(name, pose, None, rng)
            _assert_matches_reference(a_rooms, s_rooms, funnel)


def test_match_equals_reference_with_duplicate_robot_rooms(funnel):
    # a spurious second detection of one room: two robot rooms closer than
    # DIST_TOL, which only the used-room rule keeps from sharing a plan room
    rng = np.random.default_rng(11)
    for name in ("five_rooms", "grid_2x2"):
        pose = Pose2(1.0, -0.5, 0.3)
        a_rooms, s_rooms = _noisy_views(name, pose, None, rng, flip=False)
        dup = s_rooms[0]
        twin = RoomEntry(
            VariableId(VarKind.ROOM, 100),
            (dup.center[0] + 0.1, dup.center[1] - 0.1),
            tuple(
                PlaneEntry(VariableId(VarKind.PLANE, 100 + k), p.phi, p.d + 0.02)
                for k, p in enumerate(dup.planes)
            ),
        )
        _assert_matches_reference(a_rooms, [*s_rooms, twin], funnel)


def test_match_equals_reference_on_exact_ties(funnel):
    # grid_2x2's rooms are equal, so exact views tie in affinity and the
    # pair keys alone decide the order
    rng = np.random.default_rng(5)
    tied_rooms = tied_cluster = 0
    for subset, pose in (
        ([0, 2], Pose2.identity()),
        ([0, 2], Pose2(1.0, 2.0, 0.0)),
        ([0, 1], Pose2(0.0, 0.0, math.pi / 2)),
    ):
        _, a_rooms, s_rooms = synthetic_views("grid_2x2", pose, subset=subset)
        _assert_matches_reference(a_rooms, s_rooms, funnel)
        room_affinities = [c.affinity for c in propose_room_pairs(a_rooms, s_rooms)]
        tied_rooms += len(set(room_affinities)) < len(room_affinities)
        result = match(a_rooms, s_rooms)
        affinities = [c.affinity for c in result.cluster]
        tied_cluster += len(set(affinities)) < len(affinities)
        shuffled = list(result.cluster)
        rng.shuffle(shuffled)
        assert [c.pairs for c in cluster_and_decide(shuffled).cluster] == [
            c.pairs for c in sorted(shuffled, key=_ref_sort_key)
        ]
    assert tied_rooms and tied_cluster
