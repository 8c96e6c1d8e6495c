import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from planloc.geometry import (
    GeometryError,
    Pose2,
    estimate_transform_closed_form,
    fit_rigid_transforms,
    transform_phi_dist,
    wrap_angle,
    wrap_angles,
)

finite_angle = st.floats(-50.0, 50.0, allow_nan=False)
coord = st.floats(-20.0, 20.0, allow_nan=False)


def test_wrap_angle_range():
    for theta in np.linspace(-20, 20, 999):
        w = wrap_angle(theta)
        assert -math.pi < w <= math.pi
        assert abs(wrap_angle(w - theta)) < 1e-12


def test_wrap_angle_boundary():
    assert wrap_angle(math.pi) == pytest.approx(math.pi)
    assert wrap_angle(-math.pi) == pytest.approx(math.pi)
    assert wrap_angle(3 * math.pi) == pytest.approx(math.pi)


def test_wrap_angles_equals_wrap_angle_bit_for_bit():
    rng = np.random.default_rng(0)
    edges = [k * math.pi for k in range(-7, 8)] + [math.tau * k for k in (-3, 3)]
    theta = np.concatenate([rng.uniform(-40, 40, 5000), rng.normal(0, 1, 5000), edges])
    theta = np.concatenate([theta, np.nextafter(theta, np.inf), np.nextafter(theta, -np.inf)])
    scalar = np.array([wrap_angle(float(t)) for t in theta])
    assert np.array_equal(wrap_angles(theta).view(np.uint64), scalar.view(np.uint64))


def test_compose_identity():
    p = Pose2(0.7, -1.2, 0.3)
    assert Pose2.identity().compose(p).almost_equal(p)
    assert p.compose(Pose2.identity()).almost_equal(p)


def test_compose_quarter_turn():
    # a 90-degree-rotated frame maps +x onto +y
    assert Pose2(1, 0, math.pi / 2).compose(Pose2(1, 0, 0)).almost_equal(
        Pose2(1, 1, math.pi / 2)
    )


def test_compose_inverse_roundtrip():
    p = Pose2(0.3, -0.2, 0.1)
    assert p.compose(p.inverse()).almost_equal(Pose2.identity())
    assert p.inverse().compose(p).almost_equal(Pose2.identity())


@given(coord, coord, finite_angle, coord, coord, finite_angle)
def test_compose_associative(x1, y1, t1, x2, y2, t2):
    a, b = Pose2(x1, y1, t1), Pose2(x2, y2, t2)
    c = Pose2(1.0, 2.0, -0.5)
    assert a.compose(b).compose(c).almost_equal(a.compose(b.compose(c)), tol=1e-7)


def _same_plane(a, b, tol=1e-9) -> bool:
    """Two (phi, d) planes describe one line, up to a polarity flip."""
    (phi_a, d_a), (phi_b, d_b) = a, b
    if abs(wrap_angle(phi_a - phi_b)) > math.pi / 2:
        phi_b, d_b = phi_b + math.pi, -d_b
    return abs(wrap_angle(phi_a - phi_b)) <= tol and abs(d_a - d_b) <= tol


def _refit_plane_from_points(points):
    """Independent oracle: fit the (phi, d) line through transformed points."""
    p0, p1 = np.asarray(points[0]), np.asarray(points[1])
    direction = (p1 - p0) / np.linalg.norm(p1 - p0)
    normal = np.array([-direction[1], direction[0]])
    return math.atan2(normal[1], normal[0]), float(normal @ p0)


@pytest.mark.parametrize(
    "pose,plane,expected",
    [
        (Pose2(0, 0, 0), (0.0, 2.0), (0.0, 2.0)),
        (Pose2(1, 0, 0), (0.0, 2.0), (0.0, 3.0)),
        (Pose2(0, 0, math.pi / 2), (0.0, 2.0), (math.pi / 2, 2.0)),
    ],
)
def test_transform_plane_cases(pose, plane, expected):
    got = transform_phi_dist(pose, *plane)
    assert got == pytest.approx(expected, abs=1e-9)
    # point-set oracle: transporting sampled plane points gives the same plane
    phi, d = plane
    normal = np.array([math.cos(phi), math.sin(phi)])
    tangent = np.array([-normal[1], normal[0]])
    pts = [pose.transform_point(d * normal + c * tangent) for c in (-1.0, 2.0)]
    assert _same_plane(got, _refit_plane_from_points(pts))


@given(coord, coord, finite_angle, st.floats(0.01, math.tau), st.floats(-10.0, 10.0))
@settings(max_examples=200)
def test_transform_plane_roundtrip(x, y, theta, phi, d):
    t = Pose2(x, y, theta)
    back = transform_phi_dist(t.inverse(), *transform_phi_dist(t, phi, d))
    # the orientation is kept, so the round trip returns the input itself
    assert abs(wrap_angle(back[0] - phi)) <= 1e-9
    assert back[1] == pytest.approx(d, abs=1e-9)


def test_estimate_transform_identity_on_aligned():
    pts = [np.array([0.0, 0.0]), np.array([1.0, 2.0]), np.array([-2.0, 0.5])]
    t = estimate_transform_closed_form([(p, p) for p in pts])
    assert t.almost_equal(Pose2.identity(), tol=1e-12)


def test_estimate_transform_exact_recovery():
    true = Pose2(1.0, 2.0, math.radians(30))
    src = [np.array([0.0, 0.0]), np.array([3.0, 1.0]), np.array([-1.0, 2.0])]
    dst = [true.transform_point(p) for p in src]
    t = estimate_transform_closed_form(list(zip(src, dst)))
    assert abs(t.x - true.x) < 1e-9
    assert abs(t.y - true.y) < 1e-9
    assert abs(wrap_angle(t.theta - true.theta)) < 1e-9


def _grid_search_transform(pairs, center, span=0.2, steps=21):
    """Brute-force oracle: best (x, y, theta) on a dense local grid."""
    best = None
    for x in np.linspace(center.x - span, center.x + span, steps):
        for y in np.linspace(center.y - span, center.y + span, steps):
            for theta in np.linspace(center.theta - 0.1, center.theta + 0.1, steps):
                pose = Pose2(x, y, theta)
                cost = sum(
                    float(np.sum((pose.transform_point(s) - d) ** 2)) for s, d in pairs
                )
                if best is None or cost < best[0]:
                    best = (cost, pose)
    return best


def test_estimate_transform_noisy_beats_grid_oracle():
    rng = np.random.default_rng(4)
    true = Pose2(0.4, -1.1, 0.35)
    sigma = 0.01
    src = rng.uniform(-4, 4, size=(10, 2))
    pairs = [
        (s, true.transform_point(s) + rng.normal(0, sigma, 2)) for s in src
    ]
    t = estimate_transform_closed_form(pairs)
    residuals = [np.linalg.norm(t.transform_point(s) - d) for s, d in pairs]
    rms = float(np.sqrt(np.mean(np.square(residuals))))
    assert rms <= 3 * sigma
    oracle_cost, _ = _grid_search_transform(pairs, t)
    closed_cost = sum(
        float(np.sum((t.transform_point(s) - d) ** 2)) for s, d in pairs
    )
    assert closed_cost <= oracle_cost + 1e-12


def test_estimate_transform_degenerate_inputs():
    with pytest.raises(GeometryError):
        estimate_transform_closed_form([(np.zeros(2), np.zeros(2))])
    same = np.array([1.0, 1.0])
    with pytest.raises(GeometryError):
        estimate_transform_closed_form([(same, same), (same, same + 1)])


def _svd_transform(pairs) -> Pose2:
    """Reference: the rigid fit from the SVD of the cross-covariance (Umeyama, no scale)."""
    src = np.asarray([p[0] for p in pairs], dtype=float)
    dst = np.asarray([p[1] for p in pairs], dtype=float)
    cs, cd = src.mean(axis=0), dst.mean(axis=0)
    u, _, vt = np.linalg.svd((src - cs).T @ (dst - cd))
    det = np.linalg.det(vt.T @ u.T)
    rot = vt.T @ np.diag([1.0, float(np.sign(det)) or 1.0]) @ u.T
    trans = cd - rot @ cs
    return Pose2(trans[0], trans[1], math.atan2(rot[1, 0], rot[0, 0]))


def test_estimate_transform_matches_svd_reference():
    rng = np.random.default_rng(21)
    for _ in range(500):
        n = int(rng.integers(2, 9))
        src = rng.uniform(-10, 10, size=(n, 2))
        true = Pose2(*rng.uniform(-10, 10, 2), rng.uniform(-math.pi, math.pi))
        sigma = rng.choice([0.0, 0.01, 1.0])
        dst = [true.transform_point(p) + rng.normal(0, sigma, 2) for p in src]
        pairs = list(zip(src, dst))
        got, ref = estimate_transform_closed_form(pairs), _svd_transform(pairs)
        assert abs(got.x - ref.x) <= 1e-12 and abs(got.y - ref.y) <= 1e-12
        assert abs(wrap_angle(got.theta - ref.theta)) <= 1e-12


def test_batched_fit_equals_single_stack_fits_bit_for_bit():
    rng = np.random.default_rng(31)
    stacks = 0
    for trial in range(200):
        c, n = int(rng.integers(1, 13)), int(rng.integers(2, 10))
        shared = trial % 2 == 0  # one source for every stack, as the matcher fits
        src = rng.uniform(-10, 10, (n, 2) if shared else (c, n, 2))
        sigma = rng.choice([0.0, 0.01, 1.0])
        dst = np.empty((c, n, 2))
        for k in range(c):
            true = Pose2(*rng.uniform(-10, 10, 2), rng.uniform(-math.pi, math.pi))
            for i, p in enumerate(src if shared else src[k]):
                dst[k, i] = true.transform_point(p) + rng.normal(0, sigma, 2)
        poses, rms = fit_rigid_transforms(src, dst)
        assert len(poses) == c and rms.shape == (c,)
        for k in range(c):
            one = src if shared else src[k]
            (pose,), (one_rms,) = fit_rigid_transforms(one, dst[k][None])
            assert poses[k] == pose == estimate_transform_closed_form(list(zip(one, dst[k])))
            assert rms[k] == one_rms
        stacks += c
    assert stacks >= 1000, stacks


def test_batched_fit_rejects_coincident_sources():
    rng = np.random.default_rng(2)
    src = rng.uniform(-5, 5, (4, 3, 2))
    src[2] = src[2, 0]
    with pytest.raises(GeometryError, match="coincident"):
        fit_rigid_transforms(src, rng.uniform(-5, 5, (4, 3, 2)))
    with pytest.raises(GeometryError, match="coincident"):
        fit_rigid_transforms(np.ones((3, 2)), rng.uniform(-5, 5, (4, 3, 2)))
    with pytest.raises(GeometryError, match="at least 2"):
        fit_rigid_transforms(np.ones((1, 2)), np.ones((4, 1, 2)))
