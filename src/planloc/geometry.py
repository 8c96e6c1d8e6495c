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
from enum import Enum

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


class Axis(Enum):
    """Dominant direction of a plane normal."""

    X = "x"
    Y = "y"


def axis_of_normal(nx: float, ny: float) -> Axis:
    """X when |nx| >= |ny| (ties go to X), Y otherwise."""
    return Axis.X if abs(nx) >= abs(ny) else Axis.Y


def transform_phi_dist(pose: Pose2, phi: float, dist: float) -> tuple[float, float]:
    """Map a (phi, dist) plane through a pose.

    The orientation of the input is kept, so a negative output distance is
    possible.
    """
    phi_t = wrap_angle(phi + pose.theta)
    d_t = dist + math.cos(phi_t) * pose.x + math.sin(phi_t) * pose.y
    return phi_t, d_t


def estimate_transform_closed_form(pairs) -> Pose2:
    """Least-squares rigid 2D transform (no scale) from (source, target) point pairs.

    Solves min_T sum ||target_i - T(source_i)||^2. In 2D the optimal angle is
    atan2 of the summed cross and dot products of the centered pairs, and the
    translation carries the rotated source centroid onto the target one.
    """
    pairs = list(pairs)
    if len(pairs) < 2:
        raise GeometryError("need at least 2 point pairs to estimate a rigid transform")
    src = np.asarray([p[0] for p in pairs], dtype=float)
    dst = np.asarray([p[1] for p in pairs], dtype=float)
    if src.shape != dst.shape or src.shape[1] != 2:
        raise GeometryError("pairs must be (source, target) 2D points")
    spread = np.max(np.abs(src - src[0]))
    if spread < 1e-12:
        raise GeometryError("source points are coincident; transform is underdetermined")
    cs = src.mean(axis=0)
    cd = dst.mean(axis=0)
    h = (src - cs).T @ (dst - cd)  # h[i, j] = sum of a_i * b_j over the centered pairs
    theta = math.atan2(h[0, 1] - h[1, 0], h[0, 0] + h[1, 1])
    trans = cd - rotation2(theta) @ cs
    return Pose2(trans[0], trans[1], theta)
