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
# stacked measurements (m, p). It returns the residuals r (m, k) and a
# zero-argument function that builds one Jacobian (m, k, dim_s) per slot, so
# that scoring a state builds no Jacobian. Angular residual components are
# wrapped into (-pi, pi].


def _eye(m: int, dim: int) -> np.ndarray:
    return np.eye(dim)[None].repeat(m, axis=0)


def _stack(m: int, rows) -> np.ndarray:
    """(m, rows, cols) array from rows of per-factor values, arrays of shape (m,) or constants."""
    out = np.empty((m, len(rows), len(rows[0])))
    for i, row in enumerate(rows):
        for j, value in enumerate(row):
            out[:, i, j] = value
    return out


def _columns(*columns: np.ndarray) -> np.ndarray:
    """(m, k) array from k arrays of shape (m,): residuals, one row of ``_stack``."""
    return _stack(len(columns[0]), [columns])[:, 0]


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
    r = _columns(azx - bqx, azy - bqy, wrap_angles(zt - (t2 - t1)))
    return r, lambda: [
        _stack(m, [[cb, -sb, -azy], [sb, cb, azx], [0.0, 0.0, 1.0]]),
        _stack(m, [[-cb, sb, azy - bqy], [-sb, -cb, bqx - azx], [0.0, 0.0, -1.0]]),
    ]


def _pose_plane(kinds, vals, meas):
    x, y, t = vals[0].T
    phi, d = vals[1].T
    phi_z, d_z = meas.T
    m = len(meas)
    c, s = np.cos(phi), np.sin(phi)
    phi_b, d_b, sign = _align_polarity(phi - t, d - (x * c + y * s), phi_z)
    r = _columns(wrap_angles(phi_b - phi_z), d_b - d_z)
    return r, lambda: [
        _stack(m, [[0.0, 0.0, -1.0], [-sign * c, -sign * s, 0.0]]),
        _stack(m, [[1.0, 0.0], [sign * (x * s - y * c), sign]]),
    ]


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

    def jacobians():
        jac = np.empty((4, m, 2, 2))
        jac[..., 0, 0] = d4 * -s
        jac[..., 0, 1] = c / 4
        jac[..., 1, 0] = d4 * c
        jac[..., 1, 1] = s / 4
        return [_eye(m, 2), *(-2.0 * jac)]

    return vals[0] - mid * 2.0, jacobians


def _room_to_room(kinds, vals, meas):
    """A map room (slot 0) moved by the transform (slot 1), against a plan room center."""
    source = vals[0]
    m = len(meas)
    tx, ty, tth = vals[1].T
    c, s = np.cos(tth), np.sin(tth)
    rx = c * source[:, 0] - s * source[:, 1]
    ry = s * source[:, 0] + c * source[:, 1]
    r = _columns(rx + tx - meas[:, 0], ry + ty - meas[:, 1])
    return r, lambda: [
        _stack(m, [[c, -s], [s, c]]),
        _stack(m, [[1.0, 0.0, -ry], [0.0, 1.0, rx]]),
    ]


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
    r = _columns(wrap_angles(phi_p - phi_b), d_p - d_b)
    return r, (sign, cp, sp, dperp)


def plane_to_plane(kinds, vals, meas):
    """A map plane (slot 0) moved by the transform (slot 1), against a plan plane (phi, d)."""
    m = len(meas)
    r, (sign, cp, sp, dperp) = plane_to_plane_residual([meas, *vals])
    return r, lambda: [
        _stack(m, [[1.0, 0.0], [sign * dperp, sign]]),
        _stack(m, [[0.0, 0.0, 1.0], [sign * cp, sign * sp, sign * dperp]]),
    ]


def _prior(kinds, vals, meas):
    r = vals[0] - meas
    for slot in ANGLE_SLOTS.get(kinds[0], ()):
        r[:, slot] = wrap_angles(r[:, slot])
    return r, lambda: [_eye(len(meas), r.shape[1])]


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
        [tuple[VarKind, ...], list[np.ndarray], np.ndarray],
        tuple[np.ndarray, Callable[[], list[np.ndarray]]],
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
    """Factors of one kind and variable-kind signature, stacked in factor-id order.

    ``rows`` are their positions among the graph's factors of this kind and
    signature: all of them in the graph's structure, those touching the
    window in a window's. A kept evaluation of the group is keyed by them.
    """

    kind: FactorKind
    signature: tuple[VarKind, ...]
    rows: np.ndarray  # (m,)
    entries: np.ndarray  # (m, D) flat-state positions, the variable slots side by side
    measurements: np.ndarray  # (m, p)
    information: np.ndarray  # (m, k, k)


@functools.lru_cache(maxsize=None)
def _slots(signature: tuple[VarKind, ...]) -> tuple[slice, ...]:
    """The columns of each variable slot among a group's entries."""
    ends = np.cumsum([VAR_DIM[v] for v in signature]).tolist()
    return tuple(slice(end - VAR_DIM[v], end) for v, end in zip(signature, ends))


@functools.lru_cache(maxsize=None)
def _entry_steps(signature: tuple[VarKind, ...]) -> tuple[np.ndarray, np.ndarray]:
    """Each entry column's slot, and its step from the slot's first entry (read-only)."""
    dims = [VAR_DIM[v] for v in signature]
    slot = np.repeat(np.arange(len(dims)), dims)
    step = np.concatenate([np.arange(d) for d in dims])
    slot.flags.writeable = step.flags.writeable = False
    return slot, step


class _Structure:
    """Everything evaluation needs from a graph's factors except the variable values.

    Built by appending factors in id order. A graph only grows, so its
    structure catches up by position: each group's arrays are views of
    buffers that double when full, and an append writes only the new rows.
    An extended structure equals one rebuilt from scratch, entry for entry. A
    solve works on a ``window`` of it, which adds the columns the solve moves
    and the scatter targets.
    """

    def __init__(self):
        self.size = 0  # the graph's factors held: ids 0 .. size - 1
        self.groups: list[_Group] = []
        self._group_of: dict[tuple, int] = {}  # (kind, signature) -> index in groups
        # Per group: the buffers that its rows, entries, measurements,
        # information and heads view, and its heads: each slot's first entry.
        # A window holds whole variables, so it marks a factor by its heads.
        self._buffers: list[list[np.ndarray]] = []
        self._heads: list[np.ndarray] = []
        # A window's only: the flat-state entry of each free column, the free
        # entries that hold angles, and the scatter targets of the groups'
        # entries, concatenated in group order: the column of each entry and
        # row * (n + 1) + column of each entry pair, where a held entry's
        # column is the dropped column n.
        self.free = self.angles = self.b_dst = self.h_dst = np.zeros(0, dtype=np.intp)

    def extend(self, offset, factors: list[Factor]) -> None:
        """Append the graph's next factors, in id order."""
        members: dict[tuple, list[Factor]] = {}
        for f in factors:
            members.setdefault((f.kind, tuple(v.kind for v in f.variables)), []).append(f)
        for key, new in members.items():
            k = self._group_of.get(key)
            if k is None:
                k = self._group_of[key] = len(self.groups)
                self._new_group(*key, new[0])
            self._append(k, new, offset)
        self.size += len(factors)

    def _new_group(self, kind: FactorKind, signature: tuple[VarKind, ...], factor: Factor) -> None:
        """An empty group shaped like ``factor``."""
        buffers = [
            np.zeros(0, dtype=np.intp),
            np.zeros((0, sum(VAR_DIM[v] for v in signature)), dtype=np.intp),
            np.zeros((0, factor.measurement.size)),
            np.zeros((0, *factor.information.shape)),
            np.zeros((0, len(signature)), dtype=np.intp),
        ]
        self.groups.append(_Group(kind, signature, *buffers[:4]))
        self._buffers.append(buffers)
        self._heads.append(buffers[4])

    def _append(self, k: int, factors: list[Factor], offset) -> None:
        """Write factors into the rows after the group's last, doubling its buffers when full."""
        group, buffers = self.groups[k], self._buffers[k]
        start = group.rows.size
        end = start + len(factors)
        if end > len(buffers[0]):
            capacity = max(2 * len(buffers[0]), end)
            buffers[0] = np.arange(capacity)
            for i, buffer in enumerate(buffers[1:], 1):
                grown = np.empty((capacity, *buffer.shape[1:]), dtype=buffer.dtype)
                grown[:start] = buffer[:start]
                buffers[i] = grown
        _, entries, measurements, information, heads = buffers
        new = slice(start, end)
        heads[new] = [[offset[v] for v in f.variables] for f in factors]
        slot, step = _entry_steps(group.signature)
        entries[new] = heads[new][:, slot] + step
        measurements[new] = [f.measurement for f in factors]
        information[new] = [f.information for f in factors]
        group.rows, group.entries, group.measurements, group.information, self._heads[k] = (
            buffer[:end] for buffer in buffers
        )

    def window(self, inside: np.ndarray, free: np.ndarray, angles: np.ndarray) -> "_Structure":
        """The structure of a solve that moves the flat-state entries ``free``.

        ``inside`` marks the entries of the window's variables, fixed ones
        included, and each group keeps, in order, its factors with an entry
        marked. ``free`` (ascending) are the solve's columns in order, and
        ``angles`` those of them that hold angles. A window of every variable is
        the whole-graph solve: every group, every factor and every free column.
        """
        out = _Structure()
        out.free, out.angles = free, angles
        n = free.size
        column = np.full(inside.size, n, dtype=np.intp)
        column[free] = np.arange(n)
        b_parts, h_parts = [out.b_dst], [out.h_dst]  # empty: np.concatenate needs one array
        for group, heads in zip(self.groups, self._heads):
            rows = np.flatnonzero(inside[heads].any(axis=1))
            if not rows.size:
                continue
            entries = group.entries[rows]
            out.groups.append(
                _Group(
                    group.kind,
                    group.signature,
                    rows,
                    entries,
                    group.measurements[rows],
                    group.information[rows],
                )
            )
            col = column[entries]
            b_parts.append(col.ravel())
            h_parts.append((col[:, :, None] * (n + 1) + col[:, None, :]).ravel())
        out.b_dst = np.concatenate(b_parts)
        out.h_dst = np.concatenate(h_parts)
        return out


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
        # Per state entry, read through _marks, which catches them up with
        # the variables added since.
        self._owner = np.zeros(0, dtype=np.intp)
        self._angle = np.zeros(0, dtype=bool)
        self._unmarked: list[VariableId] = []
        self._fixed: set[VariableId] = set()
        self._counters: dict[VarKind, int] = {}
        self._factors: list[Factor] = []
        # Extended with the factors added since it was last read.
        self._cache = _Structure()
        # The structure of a windowed optimize while one runs; cost and
        # linearization then cover only its factors.
        self._window: _Structure | None = None
        # Per group, by (kind, signature): the rows it last evaluated, their
        # whitened residuals, Jacobian builder and cost, at the current
        # values. A write to a value drops them all; a new variable or factor
        # changes no value, so it keeps them.
        self._evaluations: dict[tuple, tuple[bytes, np.ndarray, Callable, float]] = {}

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
        self._unmarked.append(vid)
        if fixed:
            self._fixed.add(vid)
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
        self._evaluations = {}

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

    def residual_and_jacobians(self, factor: Factor) -> tuple[np.ndarray, list[np.ndarray]]:
        """The factor's kind kernel run on a batch of one."""
        spec = _FACTOR_SPECS[factor.kind]
        vals = [self._state[self._slice(vid)][None] for vid in factor.variables]
        kinds = tuple(v.kind for v in factor.variables)
        r, jacobians = spec.kernel(kinds, vals, factor.measurement.reshape(1, -1))
        return r[0], [jac[0] for jac in jacobians()]

    def evaluate_residual(self, factor: Factor) -> np.ndarray:
        return self.residual_and_jacobians(factor)[0]

    def chi2(self, fid: int) -> float:
        f = self.factor(fid)
        r = self.evaluate_residual(f)
        return float(r @ f.information @ r)

    def total_cost(self) -> float:
        """Summed chi2 of every factor; inside a windowed optimize, of the window's factors."""
        return self._evaluate(self._scored())[1]

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
        offset = self._offset
        try:
            firsts = [offset[vid] for vid in vids]
        except KeyError as exc:
            raise GraphError(f"unknown variable {exc.args[0]}") from None
        # Marks drop repeated variables and put the entries in state order.
        owner, angle = self._marks()
        chosen = np.zeros(self._state.size, dtype=bool)
        chosen[firsts] = True
        inside = chosen[owner]
        moved = inside.copy()
        for vid in self._fixed:
            moved[self._slice(vid)] = False
        return self._structure().window(inside, np.flatnonzero(moved), np.flatnonzero(moved & angle))

    def _marks(self) -> tuple[np.ndarray, np.ndarray]:
        """Per state entry: its variable's first entry, and whether it holds an angle.

        Caught up with the variables added since they were last read, as the
        structure is with the factors.
        """
        if self._unmarked:
            owner, angle = [], []
            for vid in self._unmarked:
                dim, slots = VAR_DIM[vid.kind], ANGLE_SLOTS.get(vid.kind, ())
                owner += [self._offset[vid]] * dim
                angle += [slot in slots for slot in range(dim)]
            self._owner = np.concatenate([self._owner, owner])
            self._angle = np.concatenate([self._angle, angle])
            self._unmarked = []
        return self._owner, self._angle

    def _evaluate(self, structure: _Structure) -> tuple[list, float]:
        """Each group's (whitened residuals, Jacobian builder) at the current values, and the cost.

        A group runs its kernel unless its rows were evaluated at these values
        already. The cost sums the groups' costs in group order either way.
        """
        kept = self._evaluations
        parts = []
        cost = 0.0
        for group in structure.groups:
            key = (group.kind, group.signature)
            rows = group.rows.tobytes()  # every rows array is intp, so equal bytes are equal rows
            entry = kept.get(key)
            if entry is None or entry[0] != rows:
                values = self._state[group.entries]
                r, jacobians = _FACTOR_SPECS[group.kind].kernel(
                    group.signature,
                    [values[:, slot] for slot in _slots(group.signature)],
                    group.measurements,
                )
                wr = np.einsum("mkl,ml->mk", group.information, r)
                entry = kept[key] = (rows, wr, jacobians, float(np.einsum("mk,mk->", r, wr)))
            parts.append(entry[1:3])
            cost += entry[3]
        return parts, cost

    # -- optimization ------------------------------------------------------

    def _linearize(self) -> tuple[np.ndarray, np.ndarray, float]:
        """Gauss-Newton system H, b over the free columns, and the cost, at the current values.

        Outside a solve, over the whole graph's window.
        """
        structure = self._cut(self._offset) if self._window is None else self._window
        parts, cost = self._evaluate(structure)
        n = structure.free.size
        b_parts = [np.zeros(0)]
        h_parts = [np.zeros(0)]
        for group, (wr, jacobians) in zip(structure.groups, parts):
            jac = np.concatenate(jacobians(), axis=2)
            b_parts.append(np.einsum("mkd,mk->md", jac, wr).ravel())
            h_parts.append((jac.transpose(0, 2, 1) @ (group.information @ jac)).ravel())
        # bincount sums the entries that share a column in input order, e.g. a
        # variable that appears twice in one factor. Held entries land in the
        # dropped column n.
        b = np.bincount(structure.b_dst, np.concatenate(b_parts), minlength=n + 1)
        h = np.bincount(structure.h_dst, np.concatenate(h_parts), minlength=(n + 1) ** 2)
        return h.reshape(n + 1, n + 1)[:n, :n], b[:n], cost

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

        self._window = self._cut(self._offset if window is None else window)
        try:
            return self._solve(max_iterations)
        finally:
            self._window = None

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
                backup = self._state.copy(), self._evaluations
                self._state[structure.free] += delta
                self._state[structure.angles] = wrap_angles(self._state[structure.angles])
                self._evaluations = {}
                new_cost = self.total_cost()
                if new_cost <= cost:
                    lam = max(lam * LAMBDA_DOWN, 1e-12)
                    stepped = True
                    break
                self._state, self._evaluations = backup
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

