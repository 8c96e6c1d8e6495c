"""Nonlinear least-squares over typed variables and factors.

Every graph layer in the system (plan graph, online robot graph, merged
graph) is an instance of the same engine: typed variables holding small
dense state blocks, factors contributing weighted residuals, and a dense
Levenberg-Marquardt loop over the free variables. Factors are evaluated in
groups of one kind and variable-kind signature, by one batched numpy kernel
per factor kind.

Variable parameterizations:

=============  ====  =======================================
kind           dim   meaning
=============  ====  =======================================
keyframe       3     robot pose (x, y, theta)
plane          2     wall surface (phi, d); d may be signed
wall           2     wall center point
room           2     four-wall room center
two_wall_room  2     two-wall room center
doorway        2     doorway position
floor          2     floor center
transform      3     map->plan alignment (x, y, theta)
=============  ====  =======================================
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, NamedTuple

import numpy as np

from .geometry import wrap_angle

# Levenberg-Marquardt schedule: the starting damping, its factor after a
# rejected and after an accepted trial step, and the two stopping tests
# (relative cost decrease, largest gradient entry).
INITIAL_LAMBDA = 1e-4
LAMBDA_UP = 10.0
LAMBDA_DOWN = 0.5
REL_TOL = 1e-9
ABS_TOL = 1e-10

# check_jacobians: central-difference step and the largest relative
# disagreement (absolute below magnitude 1) an analytic entry may show.
JACOBIAN_STEP = 1e-6
JACOBIAN_TOL = 1e-5


class GraphError(ValueError):
    """Malformed graph input: bad dimensions, unknown variables, bad payloads."""


class GaugeFreedomError(GraphError):
    """The graph has no prior factor and no fixed variable, so the optimum is not unique."""


class VarKind(Enum):
    KEYFRAME = "keyframe"
    PLANE = "plane"
    WALL = "wall"
    ROOM = "room"
    TWO_WALL_ROOM = "two_wall_room"
    DOORWAY = "doorway"
    FLOOR = "floor"
    TRANSFORM = "transform"


VAR_DIM = {
    VarKind.KEYFRAME: 3,
    VarKind.PLANE: 2,
    VarKind.WALL: 2,
    VarKind.ROOM: 2,
    VarKind.TWO_WALL_ROOM: 2,
    VarKind.DOORWAY: 2,
    VarKind.FLOOR: 2,
    VarKind.TRANSFORM: 3,
}

# Slots that hold angles and must be re-wrapped after additive updates.
ANGLE_SLOTS = {
    VarKind.KEYFRAME: (2,),
    VarKind.TRANSFORM: (2,),
    VarKind.PLANE: (0,),
}

POINT_KINDS = (VarKind.ROOM, VarKind.TWO_WALL_ROOM, VarKind.FLOOR, VarKind.WALL, VarKind.DOORWAY)


class VariableId(NamedTuple):
    kind: VarKind
    index: int

    def key(self) -> list:
        return [self.kind.value, self.index]


class FactorKind(Enum):
    ODOMETRY = "odometry"
    POSE_PLANE = "pose_plane"
    ROOM_TO_WALLS = "room_to_walls"
    WALL_CENTER = "wall_center"
    DOORWAY_TO_ROOMS = "doorway_to_rooms"
    ROOM_TO_ROOM = "room_to_room"
    PLANE_TO_PLANE = "plane_to_plane"
    PRIOR = "prior"


# Diagonal information defaults, overridable per factor.
DEFAULT_INFORMATION = {
    FactorKind.ODOMETRY: (100.0, 100.0, 400.0),
    FactorKind.POSE_PLANE: (400.0, 2500.0),
    FactorKind.ROOM_TO_WALLS: (25.0, 25.0),
    FactorKind.WALL_CENTER: (25.0, 25.0),
    FactorKind.DOORWAY_TO_ROOMS: (25.0, 25.0),
    FactorKind.ROOM_TO_ROOM: (100.0, 100.0),
    FactorKind.PLANE_TO_PLANE: (100.0, 100.0),
}

PRIOR_INFORMATION_SCALE = 1e6


def _as_info(kind: FactorKind, information, dim: int) -> np.ndarray:
    if information is None:
        diag = DEFAULT_INFORMATION.get(kind)
        if diag is None:
            diag = (PRIOR_INFORMATION_SCALE,) * dim
        return np.diag(diag).astype(float)
    info = np.asarray(information, dtype=float)
    if info.shape != (dim, dim):
        raise GraphError(f"information for {kind.value} must be {dim}x{dim}, got {info.shape}")
    if not np.allclose(info, info.T, atol=1e-12):
        raise GraphError("information matrix must be symmetric")
    try:
        np.linalg.cholesky(info)
    except np.linalg.LinAlgError as exc:
        raise GraphError("information matrix must be positive definite") from exc
    return info


@dataclass
class Factor:
    """A residual term: kind, ordered variables, measurement, information.

    The measurement is stored as a float array of the shape the kind's spec
    declares for these variables (see ``_FACTOR_SPECS``).
    """

    kind: FactorKind
    variables: tuple[VariableId, ...]
    measurement: np.ndarray | None = None
    information: np.ndarray | None = None

    def __post_init__(self):
        self.variables = tuple(self.variables)
        spec = _FACTOR_SPECS[self.kind]
        kinds = _kinds(self)
        if not spec.arity_check(kinds):
            raise GraphError(
                f"{self.kind.value} factor requires {spec.arity_doc}, got "
                f"{[k.value for k in kinds]}"
            )
        shape = spec.shape(kinds)
        if self.measurement is None and spec.zero_default:
            self.measurement = np.zeros(shape)
        try:
            measurement = np.array(self.measurement, dtype=float)
        except (TypeError, ValueError):
            measurement = None
        if measurement is None or measurement.shape != shape:
            raise GraphError(
                f"{self.kind.value} factor measurement must have shape {shape}, "
                f"got {self.measurement!r}"
            )
        self.measurement = measurement
        self.information = _as_info(self.kind, self.information, spec.dim(kinds))


@dataclass
class SolveReport:
    converged: bool
    iterations: int
    initial_cost: float
    final_cost: float
    cost_trace: list[float] = field(default_factory=list)
    message: str = ""


# ---------------------------------------------------------------------------
# residuals and analytic Jacobians, one batched kernel per factor kind
# ---------------------------------------------------------------------------
#
# A kernel takes the variable-kind signature of its factors, the stacked
# values of each variable slot (``vals[s]`` has shape (m, dim_s)) and the
# stacked measurements (m, p), and returns the residuals r (m, k) and one
# Jacobian (m, k, dim_s) per slot. Angular residual components are wrapped
# into (-pi, pi].


def _wrap(theta: np.ndarray) -> np.ndarray:
    """Elementwise ``wrap_angle``; every step is exact, so the two agree bit for bit."""
    r = np.fmod(theta, math.tau)
    r = np.where(r > math.pi, r - math.tau, r)
    return np.where(r <= -math.pi, r + math.tau, r)


def _eye(m: int, dim: int) -> np.ndarray:
    return np.tile(np.eye(dim), (m, 1, 1))


def _stack(m: int, rows) -> np.ndarray:
    """(m, rows, cols) array from rows of per-factor values, arrays of shape (m,) or constants."""
    out = np.empty((m, len(rows), len(rows[0])))
    for i, row in enumerate(rows):
        for j, value in enumerate(row):
            out[:, i, j] = value
    return out


def _align_polarity(phi, d, phi_ref):
    """Flip predicted planes whose normal disagrees with the reference by more than 90 deg.

    A prediction and its measurement describe the same geometric plane up to
    an orientation flip; they are compared in whichever polarity agrees in
    angle. Returns (phi, d, sign) with sign -1 where the plane was flipped.
    """
    sign = np.where(np.abs(_wrap(phi - phi_ref)) > math.pi / 2, -1.0, 1.0)
    return np.where(sign < 0, phi + math.pi, phi), sign * d, sign


def _odometry(kinds, vals, meas):
    x1, y1, t1 = vals[0].T
    x2, y2, t2 = vals[1].T
    zx, zy, zt = meas.T
    m = len(meas)
    ca, sa = np.cos(t1 - t2), np.sin(t1 - t2)
    cb, sb = np.cos(-t2), np.sin(-t2)
    qx, qy = x2 - x1, y2 - y1
    # a z and b q with a = R(t1 - t2), b = R(-t2), q = p2 - p1
    azx, azy = ca * zx - sa * zy, sa * zx + ca * zy
    bqx, bqy = cb * qx - sb * qy, sb * qx + cb * qy
    r = np.stack([azx - bqx, azy - bqy, _wrap(zt - (t2 - t1))], axis=-1)
    j1 = _stack(m, [[cb, -sb, -azy], [sb, cb, azx], [0.0, 0.0, 1.0]])
    j2 = _stack(m, [[-cb, sb, azy - bqy], [-sb, -cb, bqx - azx], [0.0, 0.0, -1.0]])
    return r, [j1, j2]


def _pose_plane(kinds, vals, meas):
    x, y, t = vals[0].T
    phi, d = vals[1].T
    phi_z, d_z = meas.T
    m = len(meas)
    c, s = np.cos(phi), np.sin(phi)
    phi_b, d_b, sign = _align_polarity(phi - t, d - (x * c + y * s), phi_z)
    r = np.stack([_wrap(phi_b - phi_z), d_b - d_z], axis=-1)
    jk = _stack(m, [[0.0, 0.0, -1.0], [-sign * c, -sign * s, 0.0]])
    jp = _stack(m, [[1.0, 0.0], [sign * (x * s - y * c), sign]])
    return r, [jk, jp]


def _room_to_walls(kinds, vals, meas):
    # With one opposed pair per axis, the mean of all perpendicular feet is
    # the pair-wise midpoint sum, i.e. the room center.
    m = len(meas)
    k = len(vals) - 1
    mid = np.zeros((m, 2))
    jacs = [_eye(m, 2)]
    for plane in vals[1:]:
        phi, d = plane.T
        c, s = np.cos(phi), np.sin(phi)
        mid += (d / k)[:, None] * np.stack([c, s], axis=-1)
        jacs.append(-(k / 2.0) * _stack(m, [[(d / k) * -s, c / k], [(d / k) * c, s / k]]))
    return vals[0] - mid * (k / 2.0), jacs


def _wall_center(kinds, vals, meas):
    """Wall center from two surface planes and the wall start point.

    The center is the midpoint of the two perpendicular feet, corrected along
    the wall direction by the projection of the start point.
    """
    wall, p1, p2 = vals
    s = meas
    m = len(meas)
    phi1, d1 = p1.T
    phi2, d2 = p2.T
    c1, s1 = np.cos(phi1), np.sin(phi1)
    c2, s2 = np.cos(phi2), np.sin(phi2)
    n1 = np.stack([c1, s1], axis=-1)
    w = 0.5 * (d1[:, None] * n1 + d2[:, None] * np.stack([c2, s2], axis=-1))
    nw = np.linalg.norm(w, axis=-1)
    degenerate = nw < 1e-9
    nw = np.where(degenerate, 1.0, nw)
    what = np.where(degenerate[:, None], n1, w / nw[:, None])
    s_what = np.einsum("mi,mi->m", s, what)
    omega = w + s - s_what[:, None] * what

    # d omega / d what, and d what / d w
    eye = np.eye(2)
    dm = what[:, :, None] * s[:, None, :] + s_what[:, None, None] * eye
    proj = (eye - what[:, :, None] * what[:, None, :]) / nw[:, None, None]
    df_dw = np.where(degenerate[:, None, None], eye, eye - dm @ proj)
    j1 = df_dw @ _stack(m, [[0.5 * d1 * -s1, 0.5 * c1], [0.5 * d1 * c1, 0.5 * s1]])
    j2 = df_dw @ _stack(m, [[0.5 * d2 * -s2, 0.5 * c2], [0.5 * d2 * c2, 0.5 * s2]])
    # In the degenerate branch what = n1 depends on phi1 directly.
    perp_n1 = np.stack([-s1, c1], axis=-1)
    j1[degenerate, :, 0] -= np.einsum("mij,mj->mi", dm[degenerate], perp_n1[degenerate])
    return wall - omega, [_eye(m, 2), -j1, -j2]


def _doorway_to_rooms(kinds, vals, meas):
    m = len(meas)
    r = (vals[1] + meas[:, :2]) - (vals[2] + meas[:, 2:])
    return r, [np.zeros((m, 2, 2)), _eye(m, 2), -_eye(m, 2)]


def _room_to_room(kinds, vals, meas):
    target, source = vals[0], vals[1]
    m = len(meas)
    if len(vals) == 2:
        return source - target - meas, [-_eye(m, 2), _eye(m, 2)]
    tx, ty, tth = vals[2].T
    c, s = np.cos(tth), np.sin(tth)
    rx = c * source[:, 0] - s * source[:, 1]
    ry = s * source[:, 0] + c * source[:, 1]
    r = np.stack([rx + tx, ry + ty], axis=-1) - target - meas
    rot = _stack(m, [[c, -s], [s, c]])
    jt = _stack(m, [[1.0, 0.0, -ry], [0.0, 1.0, rx]])
    return r, [-_eye(m, 2), rot, jt]


def plane_to_plane(kinds, vals, meas):
    """Plan plane (slot 0) against a map plane (slot 1) moved by an optional transform.

    Also the matcher's wall-pair residual, so that matching scores a pair
    exactly as the merged graph will weigh it.
    """
    phi_b, d_b = vals[0].T
    phi_m, d_m = vals[1].T
    m = len(meas)
    has_t = len(vals) == 3
    tx, ty, tth = vals[2].T if has_t else np.zeros((3, m))
    phi_p = phi_m + tth
    cp, sp = np.cos(phi_p), np.sin(phi_p)
    dperp = -sp * tx + cp * ty  # d d_p / d phi_p
    phi_p, d_p, sign = _align_polarity(phi_p, d_m + cp * tx + sp * ty, phi_b)
    r = np.stack([_wrap(phi_p - phi_b), d_p - d_b], axis=-1)
    jacs = [-_eye(m, 2), _stack(m, [[1.0, 0.0], [sign * dperp, sign]])]
    if has_t:
        jacs.append(_stack(m, [[0.0, 0.0, 1.0], [sign * cp, sign * sp, sign * dperp]]))
    return r, jacs


def _prior(kinds, vals, meas):
    r = vals[0] - meas
    for slot in ANGLE_SLOTS.get(kinds[0], ()):
        r[:, slot] = _wrap(r[:, slot])
    return r, [_eye(len(meas), r.shape[1])]


# Angle rows of each residual, needed when differencing residuals numerically.
RESIDUAL_ANGLE_ROWS: dict[FactorKind, tuple[int, ...]] = {
    FactorKind.ODOMETRY: (2,),
    FactorKind.POSE_PLANE: (0,),
    FactorKind.PLANE_TO_PLANE: (0,),
}


@dataclass(frozen=True)
class _FactorSpec:
    arity_check: Callable[[list[VarKind]], bool]
    arity_doc: str
    dim: Callable[[list[VarKind]], int]  # residual dimension
    shape: Callable[[list[VarKind]], tuple[int, ...]]  # measurement shape; (0,) for none
    key: str | None  # JSON key of the measurement; None when the kind takes none
    kernel: Callable[
        [tuple[VarKind, ...], list[np.ndarray], np.ndarray], tuple[np.ndarray, list[np.ndarray]]
    ]
    zero_default: bool = False  # a missing measurement means zeros


def _kinds(factor: Factor) -> list[VarKind]:
    return [v.kind for v in factor.variables]


_FACTOR_SPECS: dict[FactorKind, _FactorSpec] = {
    FactorKind.ODOMETRY: _FactorSpec(
        lambda k: k == [VarKind.KEYFRAME, VarKind.KEYFRAME],
        "two keyframes",
        lambda k: 3,
        lambda k: (3,),
        "rel",
        _odometry,
    ),
    FactorKind.POSE_PLANE: _FactorSpec(
        lambda k: k == [VarKind.KEYFRAME, VarKind.PLANE],
        "a keyframe and a plane",
        lambda k: 2,
        lambda k: (2,),
        "plane",
        _pose_plane,
    ),
    FactorKind.ROOM_TO_WALLS: _FactorSpec(
        lambda k: (
            k == [VarKind.ROOM] + [VarKind.PLANE] * 4
            or k == [VarKind.TWO_WALL_ROOM] + [VarKind.PLANE] * 2
        ),
        "a room plus 4 planes, or a two-wall room plus 2 planes",
        lambda k: 2,
        lambda k: (0,),
        None,
        _room_to_walls,
        zero_default=True,
    ),
    FactorKind.WALL_CENTER: _FactorSpec(
        lambda k: k == [VarKind.WALL, VarKind.PLANE, VarKind.PLANE],
        "a wall and two planes",
        lambda k: 2,
        lambda k: (2,),
        "start",
        _wall_center,
    ),
    FactorKind.DOORWAY_TO_ROOMS: _FactorSpec(
        lambda k: k == [VarKind.DOORWAY, VarKind.ROOM, VarKind.ROOM],
        "a doorway and two rooms",
        lambda k: 2,
        lambda k: (2, 2),
        "offsets",
        _doorway_to_rooms,
    ),
    FactorKind.ROOM_TO_ROOM: _FactorSpec(
        lambda k: (
            len(k) in (2, 3)
            and all(v in POINT_KINDS for v in k[:2])
            and (len(k) == 2 or k[2] == VarKind.TRANSFORM)
        ),
        "two point variables plus an optional transform",
        lambda k: 2,
        lambda k: (2,),
        "offset",
        _room_to_room,
        zero_default=True,
    ),
    FactorKind.PLANE_TO_PLANE: _FactorSpec(
        lambda k: (
            len(k) in (2, 3)
            and k[:2] == [VarKind.PLANE, VarKind.PLANE]
            and (len(k) == 2 or k[2] == VarKind.TRANSFORM)
        ),
        "two planes plus an optional transform",
        lambda k: 2,
        lambda k: (0,),
        None,
        plane_to_plane,
        zero_default=True,
    ),
    FactorKind.PRIOR: _FactorSpec(
        lambda k: len(k) == 1,
        "one variable",
        lambda k: VAR_DIM[k[0]],
        lambda k: (VAR_DIM[k[0]],),
        "value",
        _prior,
    ),
}


@dataclass
class _Group:
    """Factors of one kind and variable-kind signature, stacked in factor-id order."""

    kind: FactorKind
    signature: tuple[VarKind, ...]
    slots: list[np.ndarray]  # per variable slot, (m, dim) positions in the flat state
    measurements: np.ndarray  # (m, p)
    information: np.ndarray  # (m, k, k)
    b_take: np.ndarray  # entries of the (m, D) gradient blocks that land on free columns
    h_take: np.ndarray  # entries of the (m, D, D) Hessian blocks that land on free columns


@dataclass
class _Structure:
    """Everything evaluation needs from a graph except the variable values.

    The flat state is the values of all variables concatenated in insertion order.
    """

    offsets: dict[VariableId, int]  # first free column of each free variable, in order
    n: int  # number of free columns
    groups: list[_Group]
    b_dst: np.ndarray  # free column of each b_take entry, groups concatenated
    h_dst: np.ndarray  # row * n + column of each h_take entry, groups concatenated


def _whitened(information: np.ndarray, r: np.ndarray) -> tuple[np.ndarray, float]:
    """Information-weighted residuals W r and the summed chi2 r' W r of a group."""
    wr = np.einsum("mkl,ml->mk", information, r)
    return wr, float(np.einsum("mk,mk->", r, wr))


class FactorGraph:
    """Typed variables plus residual factors, solvable by Levenberg-Marquardt."""

    def __init__(self):
        self._values: dict[VariableId, np.ndarray] = {}
        self._fixed: set[VariableId] = set()
        self._order: list[VariableId] = []
        self._counters: dict[VarKind, int] = {}
        self._factors: dict[int, Factor] = {}
        self._next_factor_id = 0
        # Built on first evaluation; every structural edit drops it.
        self._cache: _Structure | None = None

    # -- variables ---------------------------------------------------------

    def add_variable(self, kind: VarKind, value, *, fixed: bool = False) -> VariableId:
        value = np.asarray(value, dtype=float).copy()
        if value.shape != (VAR_DIM[kind],):
            raise GraphError(
                f"{kind.value} variable needs dimension {VAR_DIM[kind]}, got shape {value.shape}"
            )
        index = self._counters.get(kind, 0)
        self._counters[kind] = index + 1
        vid = VariableId(kind, index)
        self._values[vid] = value
        self._order.append(vid)
        if fixed:
            self._fixed.add(vid)
        self._cache = None
        return vid

    def value(self, vid: VariableId) -> np.ndarray:
        try:
            return self._values[vid].copy()
        except KeyError:
            raise GraphError(f"unknown variable {vid}") from None

    def set_value(self, vid: VariableId, value) -> None:
        value = np.asarray(value, dtype=float).copy()
        if vid not in self._values:
            raise GraphError(f"unknown variable {vid}")
        if value.shape != self._values[vid].shape:
            raise GraphError(f"value shape mismatch for {vid}")
        self._values[vid] = value

    def fix(self, vid: VariableId, fixed: bool = True) -> None:
        if vid not in self._values:
            raise GraphError(f"unknown variable {vid}")
        if fixed:
            self._fixed.add(vid)
        else:
            self._fixed.discard(vid)
        self._cache = None

    def is_fixed(self, vid: VariableId) -> bool:
        return vid in self._fixed

    def variables(self) -> list[VariableId]:
        return list(self._order)

    def variables_of(self, kind: VarKind) -> list[VariableId]:
        return [v for v in self._order if v.kind == kind]

    def remove_variable(self, vid: VariableId) -> None:
        if any(vid in f.variables for f in self._factors.values()):
            raise GraphError(f"variable {vid} still referenced by factors")
        self._values.pop(vid, None)
        self._fixed.discard(vid)
        self._order.remove(vid)
        self._cache = None

    # -- factors -----------------------------------------------------------

    def add_factor(self, factor: Factor) -> int:
        for vid in factor.variables:
            if vid not in self._values:
                raise GraphError(f"factor references unknown variable {vid}")
        fid = self._next_factor_id
        self._next_factor_id += 1
        self._factors[fid] = factor
        self._cache = None
        return fid

    def factor(self, fid: int) -> Factor:
        try:
            return self._factors[fid]
        except KeyError:
            raise GraphError(f"unknown factor id {fid}") from None

    def factors(self) -> dict[int, Factor]:
        return dict(self._factors)

    def factors_of(self, kind: FactorKind) -> list[tuple[int, Factor]]:
        return [(fid, f) for fid, f in sorted(self._factors.items()) if f.kind == kind]

    def remove_factor(self, fid: int) -> None:
        if fid not in self._factors:
            raise GraphError(f"unknown factor id {fid}")
        del self._factors[fid]
        self._cache = None

    # -- evaluation --------------------------------------------------------

    def _gather(self, factor: Factor) -> list[np.ndarray]:
        vals = []
        for vid in factor.variables:
            if vid not in self._values:
                raise GraphError(f"factor references unknown variable {vid}")
            vals.append(self._values[vid])
        return vals

    def residual_and_jacobians(self, factor: Factor) -> tuple[np.ndarray, list[np.ndarray]]:
        """The factor's kind kernel run on a batch of one."""
        spec = _FACTOR_SPECS[factor.kind]
        vals = [value[None] for value in self._gather(factor)]
        r, jacs = spec.kernel(tuple(_kinds(factor)), vals, factor.measurement.reshape(1, -1))
        return r[0], [jac[0] for jac in jacs]

    def evaluate_residual(self, factor: Factor) -> np.ndarray:
        return self.residual_and_jacobians(factor)[0]

    def chi2(self, fid: int) -> float:
        f = self.factor(fid)
        r = self.evaluate_residual(f)
        return float(r @ f.information @ r)

    def total_cost(self) -> float:
        cost = 0.0
        for group, r, _ in self._group_residuals(self._structure()):
            cost += _whitened(group.information, r)[1]
        return cost

    def _structure(self) -> _Structure:
        if self._cache is None:
            self._cache = self._build_structure()
        return self._cache

    def _build_structure(self) -> _Structure:
        # Flat-state position and first free column (-1 when fixed) of every
        # variable, indexed by kind and then by variable index.
        position = {kind: np.zeros(count, dtype=np.intp) for kind, count in self._counters.items()}
        column = {kind: np.full(count, -1, dtype=np.intp) for kind, count in self._counters.items()}
        offsets: dict[VariableId, int] = {}
        flat = n = 0
        for vid in self._order:
            position[vid.kind][vid.index] = flat
            flat += VAR_DIM[vid.kind]
            if vid not in self._fixed:
                column[vid.kind][vid.index] = offsets[vid] = n
                n += VAR_DIM[vid.kind]

        members: dict[tuple, list[Factor]] = {}
        for fid in sorted(self._factors):
            f = self._factors[fid]
            members.setdefault((f.kind, tuple(_kinds(f))), []).append(f)

        groups = []
        b_dst = [np.zeros(0, dtype=np.intp)]
        h_dst = [np.zeros(0, dtype=np.intp)]
        for (kind, signature), factors in members.items():
            index = np.array([[vid.index for vid in f.variables] for f in factors])
            slots, cols = [], []
            for s, vkind in enumerate(signature):
                span = np.arange(VAR_DIM[vkind])
                slots.append(position[vkind][index[:, s], None] + span)
                first = column[vkind][index[:, s], None]
                cols.append(np.where(first >= 0, first + span, -1))
            col = np.concatenate(cols, axis=1)
            on_free = col >= 0
            pair = on_free[:, :, None] & on_free[:, None, :]
            b_dst.append(col[on_free])
            h_dst.append((col[:, :, None] * n + col[:, None, :])[pair])
            groups.append(
                _Group(
                    kind,
                    signature,
                    slots,
                    np.array([f.measurement for f in factors]).reshape(len(factors), -1),
                    np.array([f.information for f in factors]),
                    np.flatnonzero(on_free),
                    np.flatnonzero(pair),
                )
            )
        return _Structure(offsets, n, groups, np.concatenate(b_dst), np.concatenate(h_dst))

    def _group_residuals(self, structure: _Structure):
        """Yield (group, r, Jacobians) of every factor group at the current values."""
        if not structure.groups:
            return
        state = np.concatenate([self._values[vid] for vid in self._order])
        for group in structure.groups:
            vals = [state[idx] for idx in group.slots]
            r, jacs = _FACTOR_SPECS[group.kind].kernel(group.signature, vals, group.measurements)
            yield group, r, jacs

    # -- optimization ------------------------------------------------------

    def _linearize(self) -> tuple[np.ndarray, np.ndarray, float]:
        """Gauss-Newton system H, b over the free columns, and the cost, at the current values."""
        structure = self._structure()
        n = structure.n
        cost = 0.0
        b_parts = [np.zeros(0)]
        h_parts = [np.zeros(0)]
        for group, r, jacs in self._group_residuals(structure):
            wr, chi2 = _whitened(group.information, r)
            cost += chi2
            if group.b_take.size == 0:
                continue
            jac = np.concatenate(jacs, axis=2)
            b_parts.append(np.einsum("mkd,mk->md", jac, wr).ravel()[group.b_take])
            hess = jac.transpose(0, 2, 1) @ (group.information @ jac)
            h_parts.append(hess.ravel()[group.h_take])
        # bincount sums the entries that share a column, e.g. a variable that
        # appears twice in one factor.
        b = np.bincount(structure.b_dst, np.concatenate(b_parts), minlength=n)
        h = np.bincount(structure.h_dst, np.concatenate(h_parts), minlength=n * n)
        return h.reshape(n, n), b, cost

    def _apply_step(self, offsets, delta) -> dict[VariableId, np.ndarray]:
        backup = {}
        for vid, off in offsets.items():
            dim = VAR_DIM[vid.kind]
            backup[vid] = self._values[vid].copy()
            newval = self._values[vid] + delta[off : off + dim]
            for slot in ANGLE_SLOTS.get(vid.kind, ()):
                newval[slot] = wrap_angle(newval[slot])
            self._values[vid] = newval
        return backup

    def optimize(self, max_iterations: int = 100) -> SolveReport:
        if not self._factors:
            raise GraphError("cannot optimize a graph without factors")
        anchored = bool(self._fixed) or any(
            f.kind == FactorKind.PRIOR for f in self._factors.values()
        )
        if not anchored:
            raise GaugeFreedomError(
                "graph has no prior factor and no fixed variable; anchor it first"
            )

        structure = self._structure()
        n = structure.n
        initial_cost = self.total_cost()
        trace = [initial_cost]
        if n == 0:
            return SolveReport(True, 0, initial_cost, initial_cost, trace, "no free variables")

        diagonal = np.diag_indices(n)
        lam = INITIAL_LAMBDA
        cost = initial_cost
        converged = False
        message = "max iterations reached"
        iterations = 0
        for iterations in range(1, max_iterations + 1):
            h, b, cost = self._linearize()
            if float(np.max(np.abs(b), initial=0.0)) <= ABS_TOL:
                converged = True
                message = "gradient below tolerance"
                iterations -= 1
                break
            stepped = False
            # Damp H in place: the next iteration builds a new H anyway.
            undamped = h.diagonal().copy()
            while lam < 1e12:
                h[diagonal] = undamped + lam
                try:
                    delta = np.linalg.solve(h, -b)
                except np.linalg.LinAlgError:
                    lam *= LAMBDA_UP
                    continue
                backup = self._apply_step(structure.offsets, delta)
                new_cost = self.total_cost()
                if new_cost <= cost:
                    lam = max(lam * LAMBDA_DOWN, 1e-12)
                    stepped = True
                    break
                self._values.update(backup)
                lam *= LAMBDA_UP
            if not stepped:
                converged = False
                message = "step search failed: lambda escalation exhausted"
                break
            trace.append(new_cost)
            rel = (cost - new_cost) / max(cost, 1e-300)
            cost = new_cost
            if rel <= REL_TOL:
                converged = True
                message = "relative cost decrease below tolerance"
                break

        return SolveReport(
            converged=converged,
            iterations=iterations,
            initial_cost=initial_cost,
            final_cost=self.total_cost(),
            cost_trace=trace,
            message=message,
        )

    # -- verification ------------------------------------------------------

    def check_jacobians(self) -> list[int]:
        """Compare analytic Jacobians against central finite differences.

        Returns the ids of factors whose worst entry disagrees beyond
        ``JACOBIAN_TOL`` (relative, clamped to absolute below magnitude 1).
        """
        offenders = []
        for fid in sorted(self._factors):
            factor = self._factors[fid]
            _, jacs = self.residual_and_jacobians(factor)
            angle_rows = RESIDUAL_ANGLE_ROWS.get(factor.kind, ())
            # A variable repeated within one factor contributes the sum of its
            # per-slot blocks to the numeric derivative.
            analytic: dict[VariableId, np.ndarray] = {}
            for vid, jac in zip(factor.variables, jacs):
                analytic[vid] = analytic.get(vid, 0.0) + jac
            worst = 0.0
            for vid, jac in analytic.items():
                base = self._values[vid]
                num = np.zeros_like(jac)
                for col in range(len(base)):
                    saved = base[col]
                    base[col] = saved + JACOBIAN_STEP
                    r_plus = self.evaluate_residual(factor)
                    base[col] = saved - JACOBIAN_STEP
                    r_minus = self.evaluate_residual(factor)
                    base[col] = saved
                    diff = r_plus - r_minus
                    for row in angle_rows:
                        diff[row] = wrap_angle(diff[row])
                    num[:, col] = diff / (2.0 * JACOBIAN_STEP)
                denom = np.maximum(1.0, np.maximum(np.abs(jac), np.abs(num)))
                worst = max(worst, float(np.max(np.abs(jac - num) / denom)))
            if worst > JACOBIAN_TOL:
                offenders.append(fid)
        return offenders

    # -- serialization -----------------------------------------------------

    def to_json_dict(self) -> dict:
        variables = [
            {
                "kind": vid.kind.value,
                "index": vid.index,
                "value": self._values[vid].tolist(),
                "fixed": vid in self._fixed,
            }
            for vid in self._order
        ]
        factors = []
        for fid in sorted(self._factors):
            f = self._factors[fid]
            key = _FACTOR_SPECS[f.kind].key
            factors.append(
                {
                    "id": fid,
                    "kind": f.kind.value,
                    "variables": [vid.key() for vid in f.variables],
                    "measurement": None if key is None else {key: f.measurement.tolist()},
                    "information": f.information.tolist(),
                }
            )
        return {"variables": variables, "factors": factors}

    def to_json(self, indent: int | None = None) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True, indent=indent)

    @classmethod
    def from_json_dict(cls, doc: dict) -> "FactorGraph":
        """Rebuild a graph with its stored ids; removals may have left gaps in them.

        Each counter ends past the largest stored id of its kind, so ids the
        rebuilt graph hands out later never collide with stored ones.
        """
        graph = cls()
        try:
            for var in doc["variables"]:
                kind, index = VarKind(var["kind"]), int(var["index"])
                if index < 0 or VariableId(kind, index) in graph._values:
                    raise GraphError(f"duplicate or negative variable index: {var}")
                top = max(graph._counters.get(kind, 0), index + 1)
                graph._counters[kind] = index
                graph.add_variable(kind, var["value"], fixed=bool(var.get("fixed")))
                graph._counters[kind] = top
            for fac in sorted(doc["factors"], key=lambda f: f["id"]):
                kind, fid = FactorKind(fac["kind"]), int(fac["id"])
                if fid < 0 or fid in graph._factors:
                    raise GraphError(f"duplicate or negative factor id {fid}")
                variables = tuple(VariableId(VarKind(k), i) for k, i in fac["variables"])
                key = _FACTOR_SPECS[kind].key
                measurement = None if key is None else (fac.get("measurement") or {}).get(key)
                graph._next_factor_id = fid
                information = np.asarray(fac["information"])
                graph.add_factor(Factor(kind, variables, measurement, information))
                graph._next_factor_id = fid + 1
        except KeyError as exc:
            raise GraphError(f"graph JSON is missing field {exc.args[0]!r}") from None
        return graph

    @classmethod
    def from_json(cls, text: str) -> "FactorGraph":
        return cls.from_json_dict(json.loads(text))

