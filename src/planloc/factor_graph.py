"""Nonlinear least-squares over typed variables and factors.

Every graph layer in the system (plan graph, online robot graph, merged
graph) is an instance of the same engine: typed variables holding small
dense state blocks, factors contributing weighted residuals, and a dense
Levenberg-Marquardt loop over the free variables. Factors are evaluated in
groups of one kind and variable-kind signature, by one batched numpy kernel
per factor kind.

Variable parameterizations:

=========  ===  =======================================
kind       dim  meaning
=========  ===  =======================================
keyframe   3    robot pose (x, y, theta)
plane      2    wall surface (phi, d); d may be signed
room       2    four-wall room center
transform  3    map->plan alignment (x, y, theta)
=========  ===  =======================================

Each factor kind is one row of data (``_FACTOR_SPECS``): its variable kinds,
its default information, the JSON key of its measurement and its kernel.

A plan value enters a graph it is not a variable of as a measurement: the
merge factors ``room_to_room`` and ``plane_to_plane`` measure a plan room
center and a plan plane (phi, d).
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, NamedTuple

import numpy as np

from .geometry import wrap_angle, wrap_angles

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
    ROOM = "room"
    TRANSFORM = "transform"

    # Members are singletons, so identity hashing is exact; Enum's default
    # hashes the member name in Python on every VariableId lookup.
    __hash__ = object.__hash__


VAR_DIM = {
    VarKind.KEYFRAME: 3,
    VarKind.PLANE: 2,
    VarKind.ROOM: 2,
    VarKind.TRANSFORM: 3,
}

# Slots that hold angles and must be re-wrapped after additive updates.
ANGLE_SLOTS = {
    VarKind.KEYFRAME: (2,),
    VarKind.TRANSFORM: (2,),
    VarKind.PLANE: (0,),
}


class VariableId(NamedTuple):
    kind: VarKind
    index: int

    def key(self) -> list:
        return [self.kind.value, self.index]


class FactorKind(Enum):
    ODOMETRY = "odometry"
    POSE_PLANE = "pose_plane"
    ROOM_TO_WALLS = "room_to_walls"
    ROOM_TO_ROOM = "room_to_room"
    PLANE_TO_PLANE = "plane_to_plane"
    PRIOR = "prior"


PRIOR_INFORMATION_SCALE = 1e6


def _as_info(kind: FactorKind, information, weights: tuple[float, ...]) -> np.ndarray:
    """The factor's information matrix, by default diagonal with the kind's weights."""
    if information is None:
        return np.diag(weights).astype(float)
    dim = len(weights)
    info = np.asarray(information, dtype=float)
    if info.shape != (dim, dim):
        raise GraphError(f"information for {kind.value} must be {dim}x{dim}, got {info.shape}")
    _check_information(info.shape, info.tobytes())
    return info


# Factors of one kind mostly share a few information matrices (the estimator's
# configured weights, the kind defaults), so each distinct matrix is checked
# once. A raise is not cached: an invalid matrix is checked, and fails, again.
@functools.lru_cache(maxsize=256)
def _check_information(shape: tuple[int, int], data: bytes) -> None:
    info = np.frombuffer(data).reshape(shape)
    if not np.allclose(info, info.T, atol=1e-12):
        raise GraphError("information matrix must be symmetric")
    try:
        np.linalg.cholesky(info)
    except np.linalg.LinAlgError as exc:
        raise GraphError("information matrix must be positive definite") from exc


@dataclass
class Factor:
    """A residual term: kind, ordered variables, measurement, information.

    The measurement is stored as a float array with one entry per residual
    row, or none when the kind takes no measurement (see ``_FACTOR_SPECS``).
    """

    kind: FactorKind
    variables: tuple[VariableId, ...]
    measurement: np.ndarray | None = None
    information: np.ndarray | None = None

    def __post_init__(self):
        self.variables = tuple(self.variables)
        spec = _FACTOR_SPECS[self.kind]
        kinds = tuple(v.kind for v in self.variables)
        weights = _weights(spec, kinds)
        if weights is None:
            wanted = [k.value if k else "any" for k in spec.signature]
            raise GraphError(
                f"{self.kind.value} factor requires variables {wanted}, "
                f"got {[k.value for k in kinds]}"
            )
        shape = (len(weights),) if spec.key else (0,)
        if self.measurement is None and spec.key is None:
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
        self.information = _as_info(self.kind, self.information, weights)


@dataclass
class SolveReport:
    """Outcome of one ``FactorGraph.optimize`` call.

    The costs are summed chi2 over the factors the solve evaluated: the whole
    graph, or for a windowed solve the factors touching the window.
    """

    converged: bool
    iterations: int
    initial_cost: float
    final_cost: float
    cost_trace: list[float] = field(default_factory=list)
    message: str = ""
    free_columns: int = 0  # state entries the solve could move


# ---------------------------------------------------------------------------
# residuals and analytic Jacobians, one batched kernel per factor kind
# ---------------------------------------------------------------------------
#
# A kernel takes the variable-kind signature of its factors, the stacked
# values of each variable slot (``vals[s]`` has shape (m, dim_s)) and the
# stacked measurements (m, p), and returns the residuals r (m, k) and one
# Jacobian (m, k, dim_s) per slot. Angular residual components are wrapped
# into (-pi, pi].


def _eye(m: int, dim: int) -> np.ndarray:
    return np.eye(dim)[None].repeat(m, axis=0)


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
    sign = np.where(np.abs(wrap_angles(phi - phi_ref)) > math.pi / 2, -1.0, 1.0)
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
    r = np.stack([azx - bqx, azy - bqy, wrap_angles(zt - (t2 - t1))], axis=-1)
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
    r = np.stack([wrap_angles(phi_b - phi_z), d_b - d_z], axis=-1)
    jk = _stack(m, [[0.0, 0.0, -1.0], [-sign * c, -sign * s, 0.0]])
    jp = _stack(m, [[1.0, 0.0], [sign * (x * s - y * c), sign]])
    return r, [jk, jp]


def _room_to_walls(kinds, vals, meas):
    # A room on four planes, one opposed pair per axis: the mean of the four
    # perpendicular feet is half the pair-wise midpoint sum, so twice that
    # mean is the room center.
    m = len(meas)
    planes = np.stack(vals[1:])  # (4, m, 2)
    c, s = np.cos(planes[..., 0]), np.sin(planes[..., 0])
    d4 = planes[..., 1] / 4
    feet = d4[..., None] * np.stack([c, s], axis=-1)
    mid = np.zeros((m, 2))
    for foot in feet:
        mid += foot
    jac = np.empty((4, m, 2, 2))
    jac[..., 0, 0] = d4 * -s
    jac[..., 0, 1] = c / 4
    jac[..., 1, 0] = d4 * c
    jac[..., 1, 1] = s / 4
    return vals[0] - mid * 2.0, [_eye(m, 2), *(-2.0 * jac)]


def _room_to_room(kinds, vals, meas):
    """A map room (slot 0) moved by the transform (slot 1), against a plan room center."""
    source = vals[0]
    m = len(meas)
    tx, ty, tth = vals[1].T
    c, s = np.cos(tth), np.sin(tth)
    rx = c * source[:, 0] - s * source[:, 1]
    ry = s * source[:, 0] + c * source[:, 1]
    r = np.stack([rx + tx, ry + ty], axis=-1) - meas
    rot = _stack(m, [[c, -s], [s, c]])
    jt = _stack(m, [[1.0, 0.0, -ry], [0.0, 1.0, rx]])
    return r, [rot, jt]


def plane_to_plane_residual(vals):
    """Residual of ``plane_to_plane``, and the (sign, cos, sin, d d_p / d phi_p) its Jacobians use.

    ``vals`` stacks the plan planes (m, 2), the map planes (m, 2) and the
    transforms (m, 3). Also the matcher's wall-pair residual, so that matching scores a pair
    exactly as the merged graph will weigh it.
    """
    phi_b, d_b = vals[0].T
    phi_m, d_m = vals[1].T
    tx, ty, tth = vals[2].T
    phi_p = phi_m + tth
    cp, sp = np.cos(phi_p), np.sin(phi_p)
    dperp = -sp * tx + cp * ty
    phi_p, d_p, sign = _align_polarity(phi_p, d_m + cp * tx + sp * ty, phi_b)
    r = np.stack([wrap_angles(phi_p - phi_b), d_p - d_b], axis=-1)
    return r, (sign, cp, sp, dperp)


def plane_to_plane(kinds, vals, meas):
    """A map plane (slot 0) moved by the transform (slot 1), against a plan plane (phi, d)."""
    m = len(meas)
    r, (sign, cp, sp, dperp) = plane_to_plane_residual([meas, *vals])
    return r, [
        _stack(m, [[1.0, 0.0], [sign * dperp, sign]]),
        _stack(m, [[0.0, 0.0, 1.0], [sign * cp, sign * sp, sign * dperp]]),
    ]


def _prior(kinds, vals, meas):
    r = vals[0] - meas
    for slot in ANGLE_SLOTS.get(kinds[0], ()):
        r[:, slot] = wrap_angles(r[:, slot])
    return r, [_eye(len(meas), r.shape[1])]


@dataclass(frozen=True)
class _FactorSpec:
    """A factor kind: the variable kinds it takes, its default diagonal information,
    the JSON key of its measurement (None: it takes none), its kernel, and the
    angle rows of its residual, needed when differencing residuals numerically.

    A ``None`` in the signature takes a variable of any kind, and its one
    weight then stands for each entry of that variable.
    """

    signature: tuple[VarKind | None, ...]
    weights: tuple[float, ...]
    key: str | None
    kernel: Callable[
        [tuple[VarKind, ...], list[np.ndarray], np.ndarray], tuple[np.ndarray, list[np.ndarray]]
    ]
    angle_rows: tuple[int, ...] = ()


_FACTOR_SPECS: dict[FactorKind, _FactorSpec] = {
    FactorKind.ODOMETRY: _FactorSpec(
        (VarKind.KEYFRAME, VarKind.KEYFRAME), (100.0, 100.0, 400.0), "rel", _odometry, (2,)
    ),
    FactorKind.POSE_PLANE: _FactorSpec(
        (VarKind.KEYFRAME, VarKind.PLANE), (400.0, 2500.0), "plane", _pose_plane, (0,)
    ),
    FactorKind.ROOM_TO_WALLS: _FactorSpec(
        (VarKind.ROOM, *(VarKind.PLANE,) * 4), (25.0, 25.0), None, _room_to_walls
    ),
    FactorKind.ROOM_TO_ROOM: _FactorSpec(
        (VarKind.ROOM, VarKind.TRANSFORM), (100.0, 100.0), "center", _room_to_room
    ),
    FactorKind.PLANE_TO_PLANE: _FactorSpec(
        (VarKind.PLANE, VarKind.TRANSFORM), (100.0, 100.0), "plane", plane_to_plane, (0,)
    ),
    FactorKind.PRIOR: _FactorSpec((None,), (PRIOR_INFORMATION_SCALE,), "value", _prior),
}


def _weights(spec: _FactorSpec, kinds: tuple[VarKind, ...]) -> tuple[float, ...] | None:
    """Default diagonal information of a factor on these variable kinds; None if they do not fit."""
    if spec.signature == (None,) and len(kinds) == 1:
        return spec.weights * VAR_DIM[kinds[0]]
    return spec.weights if kinds == spec.signature else None


@dataclass
class _Group:
    """Factors of one kind and variable-kind signature, stacked in factor-id order."""

    kind: FactorKind
    signature: tuple[VarKind, ...]
    slots: list[np.ndarray]  # per variable slot, (m, dim) positions in the flat state
    measurements: np.ndarray  # (m, p)
    information: np.ndarray  # (m, k, k)
    # A solve's groups only (see _Structure.window): the entries of the (m, D) gradient and
    # (m, D, D) Hessian blocks on free columns.
    b_take: np.ndarray | None = None
    h_take: np.ndarray | None = None


def _empty_index() -> np.ndarray:
    return np.zeros(0, dtype=np.intp)


class _Structure:
    """Everything evaluation needs from a graph's factors except the variable values.

    Built by appending factors in id order. A graph only grows, so its
    structure catches up by position, and an extended structure equals one
    rebuilt from scratch, entry for entry. A solve works on a ``window`` of
    it, which adds the columns the solve moves and the scatter targets.
    """

    def __init__(self):
        self.size = 0  # the graph's factors held: ids 0 .. size - 1
        self.groups: list[_Group] = []
        self._group_of: dict[tuple, int] = {}  # (kind, signature) -> index in groups
        # A window's only: the flat-state entry of each free column, the free
        # entries that hold angles, and the scatter targets, groups concatenated
        # in group order: the free column of each b_take entry, and
        # row * n + column of each h_take entry.
        self.free = self.angles = self.b_dst = self.h_dst = _empty_index()

    def extend(self, offset, factors: list[Factor]) -> None:
        """Append the graph's next factors, in id order."""
        members: dict[tuple, list[Factor]] = {}
        for f in factors:
            members.setdefault((f.kind, tuple(v.kind for v in f.variables)), []).append(f)
        for key, new in members.items():
            k = self._group_of.get(key)
            if k is None:
                k = self._group_of[key] = len(self.groups)
                self.groups.append(self._new_group(*key, new[0]))
            self._append(self.groups[k], new, offset)
        self.size += len(factors)

    @staticmethod
    def _new_group(kind: FactorKind, signature: tuple[VarKind, ...], factor: Factor) -> _Group:
        """An empty group shaped like ``factor``."""
        return _Group(
            kind,
            signature,
            [np.zeros((0, VAR_DIM[v]), dtype=np.intp) for v in signature],
            np.zeros((0, factor.measurement.size)),
            np.zeros((0, *factor.information.shape)),
        )

    @staticmethod
    def _append(group: _Group, factors: list[Factor], offset) -> None:
        """Stack factors onto a group."""
        slots = [
            np.array([offset[f.variables[s]] for f in factors])[:, None] + np.arange(VAR_DIM[vkind])
            for s, vkind in enumerate(group.signature)
        ]
        group.slots = [np.concatenate(parts) for parts in zip(group.slots, slots)]
        group.measurements = np.concatenate(
            [group.measurements, np.array([f.measurement for f in factors]).reshape(len(factors), -1)]
        )
        group.information = np.concatenate(
            [group.information, np.array([f.information for f in factors])]
        )

    def window(self, inside: np.ndarray, free: np.ndarray, angles: np.ndarray) -> "_Structure":
        """The structure of a solve that moves the flat-state entries ``free``.

        ``inside`` marks the entries of the window's variables, fixed ones
        included, and each group keeps, in order, its factors with a slot on a
        marked entry. ``free`` (ascending) are the solve's columns in order, and
        ``angles`` those of them that hold angles. A window of every variable is
        the whole-graph solve: every group, every factor and every free column.
        """
        out = _Structure()
        out.free, out.angles = free, angles
        n = free.size
        column = np.full(inside.size, -1, dtype=np.intp)
        column[free] = np.arange(n)
        b_parts, h_parts = [_empty_index()], [_empty_index()]
        for group in self.groups:
            rows = np.zeros(len(group.measurements), dtype=bool)
            for slot in group.slots:
                rows |= inside[slot[:, 0]]
            if not rows.any():
                continue
            slots = [slot[rows] for slot in group.slots]
            b_take, h_take, b_dst, h_dst = _scatter_targets(column, n, slots)
            out.groups.append(
                _Group(
                    group.kind,
                    group.signature,
                    slots,
                    group.measurements[rows],
                    group.information[rows],
                    b_take,
                    h_take,
                )
            )
            b_parts.append(b_dst)
            h_parts.append(h_dst)
        out.b_dst = np.concatenate(b_parts)
        out.h_dst = np.concatenate(h_parts)
        return out


def _scatter_targets(column: np.ndarray, n: int, slots: list[np.ndarray]):
    """Where the gradient and Hessian blocks of stacked factors land among n free columns.

    ``slots`` are the factors' flat-state positions per variable slot and
    ``column`` maps flat-state entries to free columns (-1 when fixed). Returns
    the entries of the (m, D) and (m, D, D) blocks that land on free columns
    and their targets: the free column of each b entry and row * n + column
    of each h entry.
    """
    col = np.concatenate([column[slot] for slot in slots], axis=1)
    on_free = col >= 0
    pair = on_free[:, :, None] & on_free[:, None, :]
    return (
        np.flatnonzero(on_free),
        np.flatnonzero(pair),
        col[on_free],
        (col[:, :, None] * n + col[:, None, :])[pair],
    )


def _whitened(information: np.ndarray, r: np.ndarray) -> tuple[np.ndarray, float]:
    """Information-weighted residuals W r and the summed chi2 r' W r of a group."""
    wr = np.einsum("mkl,ml->mk", information, r)
    return wr, float(np.einsum("mk,mk->", r, wr))


def _objects(doc: dict, key: str) -> list[dict]:
    """The list ``doc[key]`` of a graph document, checked to hold only JSON objects."""
    entries = doc[key]
    if not isinstance(entries, list):
        raise GraphError(f"graph JSON field {key!r} must be a list")
    for i, entry in enumerate(entries):
        if not isinstance(entry, dict):
            raise GraphError(f"graph JSON {key}[{i}] must be an object, got {entry!r}")
    return entries


class FactorGraph:
    """Typed variables plus residual factors, solvable by Levenberg-Marquardt.

    All values live in one flat float array, each variable at a fixed offset
    in insertion order. A graph only grows: a factor's id is its position in
    the factor list.
    """

    def __init__(self):
        self._state = np.zeros(0)
        self._offset: dict[VariableId, int] = {}  # in insertion order
        self._fixed: set[VariableId] = set()
        self._counters: dict[VarKind, int] = {}
        self._factors: list[Factor] = []
        # Extended with the factors added since it was last read.
        self._cache = _Structure()
        # The structure of a windowed optimize while one runs; cost and
        # linearization then cover only its factors.
        self._window: _Structure | None = None
        # Per-group (whitened residuals, Jacobians) and the cost of the current
        # state, kept from its last evaluation; every write drops them.
        self._evaluated: tuple[list, float] | None = None

    # -- variables ---------------------------------------------------------

    def add_variable(self, kind: VarKind, value, *, fixed: bool = False) -> VariableId:
        value = np.asarray(value, dtype=float)
        if value.shape != (VAR_DIM[kind],):
            raise GraphError(
                f"{kind.value} variable needs dimension {VAR_DIM[kind]}, got shape {value.shape}"
            )
        index = self._counters.get(kind, 0)
        self._counters[kind] = index + 1
        vid = VariableId(kind, index)
        self._offset[vid] = self._state.size
        self._state = np.concatenate([self._state, value])
        if fixed:
            self._fixed.add(vid)
        self._evaluated = None
        return vid

    def _slice(self, vid: VariableId) -> slice:
        try:
            first = self._offset[vid]
        except KeyError:
            raise GraphError(f"unknown variable {vid}") from None
        return slice(first, first + VAR_DIM[vid.kind])

    def value(self, vid: VariableId) -> np.ndarray:
        return self._state[self._slice(vid)].copy()

    def values(self, vids) -> np.ndarray:
        """Values of variables of one dimension, one row each, read in one gather."""
        vids = list(vids)
        dims = {VAR_DIM[vid.kind] for vid in vids}
        if len(dims) > 1:
            raise GraphError(f"values() needs variables of one dimension, got dimensions {dims}")
        try:
            first = np.array([self._offset[vid] for vid in vids], dtype=np.intp)
        except KeyError as exc:
            raise GraphError(f"unknown variable {exc.args[0]}") from None
        return self._state[first[:, None] + np.arange(dims.pop() if dims else 0)]

    def set_value(self, vid: VariableId, value) -> None:
        where = self._slice(vid)
        value = np.asarray(value, dtype=float)
        if value.shape != (VAR_DIM[vid.kind],):
            raise GraphError(f"value shape mismatch for {vid}")
        self._state[where] = value
        self._evaluated = None

    def is_fixed(self, vid: VariableId) -> bool:
        return vid in self._fixed

    def variables(self) -> list[VariableId]:
        return list(self._offset)

    def variables_of(self, kind: VarKind) -> list[VariableId]:
        return [v for v in self._offset if v.kind == kind]

    # -- factors -----------------------------------------------------------

    def add_factor(self, factor: Factor) -> int:
        for vid in factor.variables:
            if vid not in self._offset:
                raise GraphError(f"factor references unknown variable {vid}")
        self._factors.append(factor)
        self._evaluated = None
        return len(self._factors) - 1

    def factor(self, fid: int) -> Factor:
        # A bare list index would read -1 as the last factor.
        if not 0 <= fid < len(self._factors):
            raise GraphError(f"unknown factor id {fid}")
        return self._factors[fid]

    def factors(self) -> dict[int, Factor]:
        return dict(enumerate(self._factors))

    def factors_of(self, kind: FactorKind) -> list[tuple[int, Factor]]:
        return [(fid, f) for fid, f in enumerate(self._factors) if f.kind == kind]

    # -- evaluation --------------------------------------------------------

    def _gather(self, factor: Factor) -> list[np.ndarray]:
        return [self._state[self._slice(vid)] for vid in factor.variables]

    def residual_and_jacobians(self, factor: Factor) -> tuple[np.ndarray, list[np.ndarray]]:
        """The factor's kind kernel run on a batch of one."""
        spec = _FACTOR_SPECS[factor.kind]
        vals = [value[None] for value in self._gather(factor)]
        kinds = tuple(v.kind for v in factor.variables)
        r, jacs = spec.kernel(kinds, vals, factor.measurement.reshape(1, -1))
        return r[0], [jac[0] for jac in jacs]

    def evaluate_residual(self, factor: Factor) -> np.ndarray:
        return self.residual_and_jacobians(factor)[0]

    def chi2(self, fid: int) -> float:
        f = self.factor(fid)
        r = self.evaluate_residual(f)
        return float(r @ f.information @ r)

    def total_cost(self) -> float:
        """Summed chi2 of every factor; inside a windowed optimize, of the window's factors."""
        return self._evaluate()[1]

    def _structure(self) -> _Structure:
        """The graph's structure, caught up with the factors added since it was last read."""
        structure = self._cache
        if structure.size < len(self._factors):
            structure.extend(self._offset, self._factors[structure.size :])
        return structure

    def _scored(self) -> _Structure:
        """The structure that cost covers: a running solve's window, else the graph's."""
        return self._structure() if self._window is None else self._window

    def _cut(self, vids) -> _Structure:
        """The window of a solve over the variables ``vids``: it moves their free entries.

        The columns of H and b follow the state, whatever the order of ``vids``.
        """
        entries, angles = [], []
        try:
            for vid in vids:
                first = self._offset[vid]
                entries += range(first, first + VAR_DIM[vid.kind])
                for slot in ANGLE_SLOTS.get(vid.kind, ()):
                    angles.append(first + slot)
        except KeyError:
            raise GraphError(f"unknown variable {vid}") from None
        # Marks drop repeated variables and put the entries in state order.
        inside = np.zeros(self._state.size, dtype=bool)
        inside[entries] = True
        moved = inside.copy()
        for vid in self._fixed:
            moved[self._slice(vid)] = False
        angle = np.zeros_like(inside)
        angle[angles] = True
        angle &= moved
        return self._structure().window(inside, np.flatnonzero(moved), np.flatnonzero(angle))

    def _evaluate(self) -> tuple[list, float]:
        """Run every group's kernel once per state: (whitened residuals, Jacobians) and cost."""
        if self._evaluated is None:
            cost = 0.0
            parts = []
            for group in self._scored().groups:
                vals = [self._state[idx] for idx in group.slots]
                r, jacs = _FACTOR_SPECS[group.kind].kernel(
                    group.signature, vals, group.measurements
                )
                wr, chi2 = _whitened(group.information, r)
                cost += chi2
                parts.append((wr, jacs))
            self._evaluated = (parts, cost)
        return self._evaluated

    # -- optimization ------------------------------------------------------

    def _linearize(self) -> tuple[np.ndarray, np.ndarray, float]:
        """Gauss-Newton system H, b over the free columns, and the cost, at the current values.

        Outside a solve, over the whole graph's window, which the graph's evaluation fits.
        """
        structure = self._cut(self._offset) if self._window is None else self._window
        parts, cost = self._evaluate()
        n = structure.free.size
        b_parts = [np.zeros(0)]
        h_parts = [np.zeros(0)]
        for group, part in zip(structure.groups, parts):
            if group.b_take.size == 0:
                continue
            wr, jacs = part
            jac = np.concatenate(jacs, axis=2)
            b_parts.append(np.einsum("mkd,mk->md", jac, wr).ravel()[group.b_take])
            hess = jac.transpose(0, 2, 1) @ (group.information @ jac)
            h_parts.append(hess.ravel()[group.h_take])
        # bincount sums the entries that share a column, e.g. a variable that
        # appears twice in one factor.
        b = np.bincount(structure.b_dst, np.concatenate(b_parts), minlength=n)
        h = np.bincount(structure.h_dst, np.concatenate(h_parts), minlength=n * n)
        return h.reshape(n, n), b, cost

    def optimize(self, max_iterations: int = 100, window=None) -> SolveReport:
        """Levenberg-Marquardt over the free variables, or over those in ``window``.

        A window (variable ids) restricts the solve: only its free variables
        move, every other variable is held at its value, and only the factors
        with a variable in the window are evaluated. The report's costs, and
        ``total_cost`` while the solve runs, are then the summed chi2 of those
        factors, not of the whole graph.
        """
        if not self._factors:
            raise GraphError("cannot optimize a graph without factors")
        anchored = bool(self._fixed) or any(f.kind == FactorKind.PRIOR for f in self._factors)
        if not anchored:
            raise GaugeFreedomError(
                "graph has no prior factor and no fixed variable; anchor it first"
            )

        # The whole graph's window holds the graph's groups and factors in
        # order, so an evaluation of either one serves the other.
        whole = window is None
        self._window = self._cut(self._offset if whole else window)
        if not whole:
            self._evaluated = None
        try:
            return self._solve(max_iterations)
        finally:
            self._window = None
            if not whole:
                self._evaluated = None

    def _solve(self, max_iterations: int) -> SolveReport:
        """The LM loop over the free columns of the running solve's window.

        A trial step that raises the cost is undone and retried with more damping, unless
        the rise is within REL_TOL of the cost: the cost is then at rounding level.
        """
        structure = self._window
        n = structure.free.size
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
            stepped = flat = False
            # Damp H in place: the next iteration builds a new H anyway.
            undamped = h.diagonal().copy()
            while lam < 1e12:
                h[diagonal] = undamped + lam
                try:
                    delta = np.linalg.solve(h, -b)
                except np.linalg.LinAlgError:
                    lam *= LAMBDA_UP
                    continue
                backup = self._state.copy(), self._evaluated
                self._state[structure.free] += delta
                self._state[structure.angles] = wrap_angles(self._state[structure.angles])
                self._evaluated = None
                new_cost = self.total_cost()
                if new_cost <= cost:
                    lam = max(lam * LAMBDA_DOWN, 1e-12)
                    stepped = True
                    break
                self._state, self._evaluated = backup
                flat = new_cost - cost <= REL_TOL * cost
                if flat:
                    break
                lam *= LAMBDA_UP
            if flat:
                converged = True
                message = "trial step cost within tolerance of the current cost"
                break
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
            # The state the loop last scored, so this evaluates nothing.
            final_cost=self.total_cost(),
            cost_trace=trace,
            message=message,
            free_columns=n,
        )

    # -- verification ------------------------------------------------------

    def check_jacobians(self) -> list[int]:
        """Compare analytic Jacobians against central finite differences.

        Returns the ids of factors whose worst entry disagrees beyond
        ``JACOBIAN_TOL`` (relative, clamped to absolute below magnitude 1).
        """
        offenders = []
        for fid, factor in enumerate(self._factors):
            _, jacs = self.residual_and_jacobians(factor)
            angle_rows = _FACTOR_SPECS[factor.kind].angle_rows
            # A variable repeated within one factor contributes the sum of its
            # per-slot blocks to the numeric derivative.
            analytic: dict[VariableId, np.ndarray] = {}
            for vid, jac in zip(factor.variables, jacs):
                analytic[vid] = analytic.get(vid, 0.0) + jac
            worst = 0.0
            for vid, jac in analytic.items():
                # Each entry is restored exactly, so a kept evaluation stays valid.
                base = self._state[self._slice(vid)]
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
                "value": self.value(vid).tolist(),
                "fixed": vid in self._fixed,
            }
            for vid in self._offset
        ]
        factors = []
        for fid, f in enumerate(self._factors):
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
        """Rebuild a graph from the document ``to_json_dict`` writes.

        Each kind's variable indices, and the factor ids, must run 0, 1, 2, ...
        in the order listed. A document that is not such a graph, such as one
        naming a kind this version does not have, raises GraphError.
        """
        if not isinstance(doc, dict):
            raise GraphError("graph JSON must be an object")
        graph = cls()
        try:
            for var in _objects(doc, "variables"):
                kind, index = VarKind(var["kind"]), int(var["index"])
                if index != graph._counters.get(kind, 0):
                    raise GraphError(f"variable index out of sequence: {var}")
                graph.add_variable(kind, var["value"], fixed=bool(var.get("fixed")))
            for fac in _objects(doc, "factors"):
                kind, fid = FactorKind(fac["kind"]), int(fac["id"])
                if fid != len(graph._factors):
                    raise GraphError(f"factor id {fid} out of sequence")
                variables = tuple(VariableId(VarKind(k), i) for k, i in fac["variables"])
                key = _FACTOR_SPECS[kind].key
                measurement = None if key is None else (fac.get("measurement") or {}).get(key)
                information = np.asarray(fac["information"])
                graph.add_factor(Factor(kind, variables, measurement, information))
        except GraphError:
            raise
        except KeyError as exc:
            raise GraphError(f"graph JSON is missing field {exc.args[0]!r}") from None
        except (TypeError, ValueError) as exc:  # e.g. an unknown kind or a non-numeric index
            raise GraphError(f"malformed graph JSON: {exc}") from None
        return graph

    @classmethod
    def from_json(cls, text: str) -> "FactorGraph":
        return cls.from_json_dict(json.loads(text))

