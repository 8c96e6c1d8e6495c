import itertools
import math

import numpy as np
import pytest

from conftest import _correspondence_ok, simulate_sgraph
from planloc.a_graph import build_a_graph
from planloc.factor_graph import VariableId, VarKind
from planloc.geometry import Pose2, estimate_transform_closed_form, wrap_angle
from planloc.matcher import (
    DIM_TOL,
    DIST_TOL,
    PI_SCALE,
    RHO_SCALE,
    ROOM_AFFINITY_MIN,
    MatchCandidate,
    MatchPair,
    MatchStatus,
    PlaneEntry,
    RoomEntry,
    RoomStructureError,
    WallPairingError,
    cluster_and_decide,
    combine_bottom_up,
    match,
    match_entries,
    propose_room_pairs,
    propose_wall_pairs,
    room_entries,
    score_candidate,
)
from planloc.plans import fixture_plan, generate_random_plan


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
    result = match_entries(a_rooms, s_rooms)
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
        result = match_entries(a_rooms, noisy)
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
        result = match_entries(a_rooms, noisy)
        a_by, s_by = {r.vid: r for r in a_rooms}, {r.vid: r for r in noisy}
        assert result.cluster
        for cand in result.cluster:
            want = _reference_affinity(cand, a_by, s_by)
            assert cand.affinity == pytest.approx(want, rel=1e-12)


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
        cand = MatchCandidate(room_pairs, 1.0, None)
        wall_pairs = []
        try:
            from planloc.geometry import GeometryError

            hint = estimate_transform_closed_form(
                [(s_by[s].center, a_by[a].center) for s, a in assignment.items()]
            )
            for pair in room_pairs:
                wall_pairs.extend(propose_wall_pairs(pair, a_by, s_by, hint))
        except (WallPairingError, GeometryError):
            continue
        combined = combine_bottom_up([(cand, wall_pairs)])
        if not combined:
            continue
        scored = score_candidate(combined[0], a_by, s_by)
        if scored is not None:
            worst = max(worst, scored.affinity)
    assert worst <= 0.5


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
    assert match_entries(a_rooms, s_rooms).status == MatchStatus.NO_MATCH


def test_match_rigid_invariance():
    base_pose = Pose2(1.0, 0.5, 0.3)
    _, a_rooms, s_rooms = synthetic_views("five_rooms", base_pose, subset=[0, 2, 3])
    base = match_entries(a_rooms, s_rooms)
    rng = np.random.default_rng(3)
    for _ in range(5):
        extra = Pose2(*rng.uniform(-5, 5, 2), rng.uniform(-math.pi, math.pi))
        ids: dict = {}
        moved = [
            transform_entry(r, extra, k, ids) for k, r in enumerate(s_rooms)
        ]
        result = match_entries(a_rooms, moved)
        assert result.status == base.status
        assert result.best.affinity == pytest.approx(base.best.affinity, abs=1e-9)


def test_match_deterministic():
    plan, sim, sg = simulate_sgraph("five_rooms")
    ag = build_a_graph(plan)
    r1 = match(ag.graph, sg.graph)
    r2 = match(ag.graph, sg.graph)
    assert r1.to_json() == r2.to_json()


def test_match_run_pipeline_truth(five_rooms_run):
    assert five_rooms_run.merged is not None
    assert _correspondence_ok(five_rooms_run.agraph, five_rooms_run.sgraph, five_rooms_run.merged)
