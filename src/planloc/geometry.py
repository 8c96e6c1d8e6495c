"""Planar geometric kernel: poses, planes in closest-point form, rigid alignment.

The whole stack works in a flat single-storey world. Robot poses are SE(2),
wall surfaces are vertical planes reduced to oriented lines in closest-point
form (phi, d), and the two reference frames ("M" for the online map, "B" for
the plan) are related by a rigid 2D transform, a :class:`Pose2`. All angles
are radians, all distances meters.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# 90-degree rotation, used for perpendiculars and rotation derivatives.
PERP = np.array([[0.0, -1.0], [1.0, 0.0]])


class GeometryError(ValueError):
    """Invalid geometric input (too few or coincident points, bad shapes)."""


def wrap_angle(theta: float) -> float:
    """Wrap an angle into (-pi, pi]."""
    wrapped = math.remainder(theta, math.tau)
    if wrapped <= -math.pi:
        wrapped += math.tau
    return wrapped


def wrap_angles(theta: np.ndarray) -> np.ndarray:
    """Elementwise ``wrap_angle``; every step is exact, so the two agree bit for bit."""
    r = np.fmod(theta, math.tau)
    r = np.where(r > math.pi, r - math.tau, r)
    return np.where(r <= -math.pi, r + math.tau, r)


def rotation2(theta: float) -> np.ndarray:
    """2x2 rotation matrix."""
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, -s], [s, c]])


@dataclass(frozen=True)
class Pose2:
    """Rigid 2D pose (x, y, heading). The heading is stored wrapped to (-pi, pi]."""

    x: float
    y: float
    theta: float

    def __post_init__(self):
        object.__setattr__(self, "x", float(self.x))
        object.__setattr__(self, "y", float(self.y))
        object.__setattr__(self, "theta", wrap_angle(float(self.theta)))

    @staticmethod
    def identity() -> "Pose2":
        return Pose2(0.0, 0.0, 0.0)

    @staticmethod
    def from_array(a) -> "Pose2":
        a = np.asarray(a, dtype=float)
        if a.shape != (3,):
            raise GeometryError(f"pose array must have shape (3,), got {a.shape}")
        return Pose2(a[0], a[1], a[2])

    def as_array(self) -> np.ndarray:
        return np.array([self.x, self.y, self.theta])

    @property
    def translation(self) -> np.ndarray:
        return np.array([self.x, self.y])

    def rotation(self) -> np.ndarray:
        return rotation2(self.theta)

    def compose(self, other: "Pose2") -> "Pose2":
        """Rigid composition self * other."""
        c, s = math.cos(self.theta), math.sin(self.theta)
        return Pose2(
            self.x + c * other.x - s * other.y,
            self.y + s * other.x + c * other.y,
            self.theta + other.theta,
        )

    def inverse(self) -> "Pose2":
        c, s = math.cos(self.theta), math.sin(self.theta)
        return Pose2(
            -(c * self.x + s * self.y),
            -(-s * self.x + c * self.y),
            -self.theta,
        )

    def relative_to(self, other: "Pose2") -> "Pose2":
        """Pose of self expressed in the frame of `other` (other^-1 * self)."""
        return other.inverse().compose(self)

    def transform_point(self, p) -> np.ndarray:
        p = np.asarray(p, dtype=float)
        return self.rotation() @ p + self.translation

    def almost_equal(self, other: "Pose2", tol: float = 1e-9) -> bool:
        return (
            abs(self.x - other.x) <= tol
            and abs(self.y - other.y) <= tol
            and abs(wrap_angle(self.theta - other.theta)) <= tol
        )


def transform_phi_dist(pose: Pose2, phi: float, dist: float) -> tuple[float, float]:
    """Map a (phi, dist) plane through a pose.

    The orientation of the input is kept, so a negative output distance is
    possible.
    """
    phi_t = wrap_angle(phi + pose.theta)
    d_t = dist + math.cos(phi_t) * pose.x + math.sin(phi_t) * pose.y
    return phi_t, d_t


def fit_rigid_transforms(src, dst) -> tuple[list[Pose2], np.ndarray]:
    """Least-squares rigid 2D transforms (no scale) of C stacks of point pairs at once.

    ``dst`` is (C, n, 2); ``src`` is (C, n, 2), or (n, 2) when every stack
    shares its source points. Stack c solves
    min_T sum_i ||dst[c, i] - T(src[c, i])||^2: in 2D the optimal angle is
    atan2 of the summed cross and dot products of the centered pairs, and the
    translation carries the rotated source centroid onto the target one.
    Returns the C transforms and the RMS residual of each. The angle, its
    cosine and its sine are ``math`` calls per stack, since numpy's
    elementwise forms can differ from them in the last bit; the array steps
    round as they do for a single stack, so a stack's fit does not depend on
    the stacks it is batched with.
    """
    src = np.asarray(src, dtype=float)
    dst = np.asarray(dst, dtype=float)
    if dst.ndim != 3 or dst.shape[2] != 2 or src.shape not in (dst.shape, dst.shape[1:]):
        raise GeometryError("pairs must be (source, target) 2D points")
    if dst.shape[1] < 2:
        raise GeometryError("need at least 2 point pairs to estimate a rigid transform")
    spread = np.max(np.abs(src - src[..., :1, :]), axis=(-2, -1))
    if np.any(spread < 1e-12):
        raise GeometryError("source points are coincident; transform is underdetermined")
    cs = src.mean(axis=-2)
    cd = dst.mean(axis=-2)
    # h[c, i, j] = sum of a_i * b_j over the centered pairs of stack c
    h = np.swapaxes(src - cs[..., None, :], -1, -2) @ (dst - cd[:, None, :])
    thetas = list(map(math.atan2, (h[:, 0, 1] - h[:, 1, 0]).tolist(),
                      (h[:, 0, 0] + h[:, 1, 1]).tolist()))
    trans = cd - (_rotations(thetas) @ cs[..., None])[..., 0]
    poses = [Pose2(x, y, theta) for (x, y), theta in zip(trans.tolist(), thetas)]
    # the residual is taken under the poses as stored, heading wrapped
    rot = _rotations([pose.theta for pose in poses])
    rho = src @ np.swapaxes(rot, -1, -2) + trans[:, None, :] - dst
    return poses, np.sqrt(np.mean(np.sum(rho**2, axis=-1), axis=-1))


def _rotations(thetas: list[float]) -> np.ndarray:
    """(C, 2, 2) stack of rotation2(theta), one per angle."""
    rot = np.empty((len(thetas), 2, 2))
    rot[:, 0, 0] = rot[:, 1, 1] = list(map(math.cos, thetas))
    rot[:, 1, 0] = list(map(math.sin, thetas))
    rot[:, 0, 1] = -rot[:, 1, 0]
    return rot


def estimate_transform_closed_form(pairs) -> Pose2:
    """Least-squares rigid 2D transform from (source, target) point pairs.

    One stack of :func:`fit_rigid_transforms`.
    """
    pairs = list(pairs)
    if len(pairs) < 2:
        raise GeometryError("need at least 2 point pairs to estimate a rigid transform")
    src = np.asarray([p[0] for p in pairs], dtype=float)
    dst = np.asarray([p[1] for p in pairs], dtype=float)
    return fit_rigid_transforms(src, dst[None])[0][0]
