"""Bundled floor plans and scenarios, plus a random row-layout plan generator.

Fixture geometry is chosen so that distinct same-orientation wall faces are
never closer than the online plane-association threshold (0.35 m): faces that
coincide geometrically are modeled as one shared surface, everything else is
separated. Room dimensions are quantized to decimeters and kept pairwise
distinct so the matcher's dimension gate has honest separations; the
``grid_2x2`` fixture uses exactly equal rooms to force an ambiguous match.
"""

from __future__ import annotations

import json
from importlib import resources
from pathlib import Path

import numpy as np

from .a_graph import FloorPlan, PlanError, plan_from_dict

from .s_graph import DEFAULT_ODOM_NOISE, DEFAULT_PLANE_NOISE

THICKNESS = 0.2


class PlanGenerationError(RuntimeError):
    """Random plan generation could not satisfy the layout constraints."""


def _vwall(wid: str, x: float, y0: float, y1: float, th: float = THICKNESS) -> dict:
    # "+" face is on the smaller-x side, "-" on the larger-x side.
    return {"id": wid, "start": [x, y0], "end": [x, y1], "thickness": th}


def _hwall(wid: str, y: float, x0: float, x1: float, th: float = THICKNESS) -> dict:
    # "+" face is on the larger-y side, "-" on the smaller-y side.
    return {"id": wid, "start": [x0, y], "end": [x1, y], "thickness": th}


def _room(rid: str, px: str, mx: str, py: str, my: str) -> dict:
    return {"id": rid, "surfaces": {"px": px, "mx": mx, "py": py, "my": my}}


def _doorway(did: str, x: float, y: float, r1: str, r2: str) -> dict:
    return {"id": did, "position": [x, y], "rooms": [r1, r2]}


def single_room_plan() -> dict:
    return {
        "walls": [
            _vwall("w_w", 0.4, 0.3, 4.7),
            _vwall("w_e", 5.6, 0.3, 4.7),
            _hwall("w_s", 0.4, 0.3, 5.7),
            _hwall("w_n", 4.6, 0.3, 5.7),
        ],
        "rooms": [_room("r1", "w_e:+", "w_w:-", "w_n:-", "w_s:+")],
        "doorways": [],
    }


def two_rooms_plan() -> dict:
    return {
        "walls": [
            _vwall("a_w", 0.4, 0.3, 3.9),
            _hwall("a_s", 0.4, 0.3, 4.3),
            _hwall("a_n", 3.8, 0.3, 4.3),
            _vwall("s_ab", 4.2, 0.3, 5.4),
            _vwall("b_e", 9.4, 0.8, 5.4),
            _hwall("b_s", 0.9, 4.1, 9.5),
            _hwall("b_n", 5.3, 4.1, 9.5),
        ],
        "rooms": [
            _room("a", "s_ab:+", "a_w:-", "a_n:-", "a_s:+"),
            _room("b", "b_e:+", "s_ab:-", "b_n:-", "b_s:+"),
        ],
        "doorways": [_doorway("d_ab", 4.2, 2.35, "a", "b")],
    }


def five_rooms_plan() -> dict:
    """Asymmetric row of five rooms with staggered baselines and distinct sizes."""
    widths = [3.0, 4.2, 2.6, 5.0, 3.6]
    heights = [4.0, 3.0, 4.8, 3.4, 5.6]
    y0s = [0.5, 1.0, 1.5, 2.0, 2.5]
    return row_plan(widths, heights, y0s)


def row_plan(widths, heights, y0s, x_start: float = 0.5, th: float = THICKNESS) -> dict:
    """A row of rooms sharing vertical boundary walls, chained by doorways."""
    n = len(widths)
    if not (len(heights) == len(y0s) == n and n >= 1):
        raise PlanGenerationError("widths, heights, y0s must have equal length >= 1")
    x0s = []
    x = x_start
    for w in widths:
        x0s.append(x)
        x += w + th
    x1s = [x0 + w for x0, w in zip(x0s, widths)]
    y1s = [y0 + h for y0, h in zip(y0s, heights)]

    walls = [_vwall("v0", x0s[0] - th / 2, min(y0s[0], y0s[0]) - th, y1s[0] + th)]
    for k in range(n - 1):
        lo = min(y0s[k], y0s[k + 1]) - th
        hi = max(y1s[k], y1s[k + 1]) + th
        walls.append(_vwall(f"v{k + 1}", x1s[k] + th / 2, lo, hi))
    walls.append(_vwall(f"v{n}", x1s[-1] + th / 2, y0s[-1] - th, y1s[-1] + th))
    for k in range(n):
        walls.append(_hwall(f"s{k}", y0s[k] - th / 2, x0s[k] - th, x1s[k] + th))
        walls.append(_hwall(f"n{k}", y1s[k] + th / 2, x0s[k] - th, x1s[k] + th))

    rooms = [
        _room(f"r{k}", f"v{k + 1}:+", f"v{k}:-", f"n{k}:-", f"s{k}:+") for k in range(n)
    ]
    doorways = []
    for k in range(n - 1):
        lo = max(y0s[k], y0s[k + 1])
        hi = min(y1s[k], y1s[k + 1])
        if hi - lo < 1.2:
            raise PlanGenerationError(
                f"rooms {k} and {k + 1} overlap too little ({hi - lo:.2f} m) for a doorway"
            )
        doorways.append(
            _doorway(f"d{k}", x1s[k] + th / 2, round((lo + hi) / 2.0, 3), f"r{k}", f"r{k + 1}")
        )
    return {"walls": walls, "rooms": rooms, "doorways": doorways}


def grid_2x2_plan() -> dict:
    """Four identical square rooms: fully symmetric under 90-degree rotation."""
    return {
        "walls": [
            _vwall("o_w", 0.4, 0.3, 8.9),
            _vwall("o_e", 8.8, 0.3, 8.9),
            _hwall("o_s", 0.4, 0.3, 8.9),
            _hwall("o_n", 8.8, 0.3, 8.9),
            _vwall("i_v", 4.6, 0.3, 8.9),
            _hwall("i_h", 4.6, 0.3, 8.9),
        ],
        "rooms": [
            _room("sw", "i_v:+", "o_w:-", "i_h:-", "o_s:+"),
            _room("se", "o_e:+", "i_v:-", "i_h:-", "o_s:+"),
            _room("nw", "i_v:+", "o_w:-", "o_n:-", "i_h:+"),
            _room("ne", "o_e:+", "i_v:-", "o_n:-", "i_h:+"),
        ],
        "doorways": [
            _doorway("d_sw_se", 4.6, 2.5, "sw", "se"),
            _doorway("d_sw_nw", 2.5, 4.6, "sw", "nw"),
            _doorway("d_nw_ne", 4.6, 6.7, "nw", "ne"),
        ],
    }


def grid_2x2_variant_plan() -> dict:
    """2x2 grid with a widened SE room that breaks the symmetry."""
    return {
        "walls": [
            _vwall("o_w", 0.4, 0.3, 8.9),
            _hwall("o_s", 0.4, 0.3, 9.9),
            _hwall("i_h", 4.6, 0.3, 9.9),
            _hwall("o_n", 8.8, 0.3, 8.9),
            _vwall("i_v", 4.6, 0.3, 8.9),
            _vwall("e_ne", 8.8, 4.5, 8.9),
            _vwall("e_se", 9.8, 0.3, 4.7),
        ],
        "rooms": [
            _room("sw", "i_v:+", "o_w:-", "i_h:-", "o_s:+"),
            _room("se", "e_se:+", "i_v:-", "i_h:-", "o_s:+"),
            _room("nw", "i_v:+", "o_w:-", "o_n:-", "i_h:+"),
            _room("ne", "e_ne:+", "i_v:-", "o_n:-", "i_h:+"),
        ],
        "doorways": [
            _doorway("d_sw_se", 4.6, 2.5, "sw", "se"),
            _doorway("d_nw_ne", 4.6, 6.7, "nw", "ne"),
            _doorway("d_ne_se", 6.7, 4.6, "ne", "se"),
        ],
    }


def corridor_plan() -> dict:
    """A long corridor with three rooms hanging off its north side."""
    return {
        "walls": [
            _vwall("o_w", 0.4, 0.3, 6.4),
            _vwall("o_e", 12.6, 0.3, 7.7),
            _hwall("c_s", 0.4, 0.3, 12.7),
            _hwall("c_n", 2.6, 0.3, 12.7),
            _vwall("s12", 4.2, 2.5, 7.1),
            _vwall("s23", 7.4, 2.5, 7.7),
            _hwall("n1", 6.3, 0.3, 4.3),
            _hwall("n2", 7.0, 4.1, 7.5),
            _hwall("n3", 7.6, 7.3, 12.7),
        ],
        "rooms": [
            _room("cor", "o_e:+", "o_w:-", "c_n:-", "c_s:+"),
            _room("r1", "s12:+", "o_w:-", "n1:-", "c_n:+"),
            _room("r2", "s23:+", "s12:-", "n2:-", "c_n:+"),
            _room("r3", "o_e:+", "s23:-", "n3:-", "c_n:+"),
        ],
        "doorways": [
            _doorway("d1", 2.0, 2.6, "cor", "r1"),
            _doorway("d2", 5.8, 2.6, "cor", "r2"),
            _doorway("d3", 10.0, 2.6, "cor", "r3"),
        ],
    }


def _base_scenario(plan_name: str, waypoints, seed: int, **overrides) -> dict:
    scenario = {
        "plan": f"{plan_name}.plan.json",
        "waypoints": [[round(float(x), 3), round(float(y), 3)] for x, y in waypoints],
        "keyframe_spacing": 0.6,
        "odom_noise": list(DEFAULT_ODOM_NOISE),
        "plane_noise": list(DEFAULT_PLANE_NOISE),
        "sensor_range": 6.0,
        "seed": seed,
        "map_offset": None,
    }
    scenario.update(overrides)
    return scenario


FIXTURE_PLANS = {
    "single_room": single_room_plan,
    "two_rooms": two_rooms_plan,
    "five_rooms": five_rooms_plan,
    "grid_2x2": grid_2x2_plan,
    "grid_2x2_variant": grid_2x2_variant_plan,
    "corridor": corridor_plan,
}


def fixture_scenarios() -> dict[str, dict]:
    return {
        "single_room": _base_scenario(
            "single_room",
            [(1.5, 1.5), (4.5, 1.5), (4.5, 3.5), (1.5, 3.5)],
            seed=3,
        ),
        "two_rooms": _base_scenario(
            "two_rooms",
            [(1.5, 1.6), (3.2, 2.35), (4.2, 2.35), (6.5, 2.6), (8.2, 4.2)],
            seed=5,
        ),
        "five_rooms": _base_scenario(
            "five_rooms",
            [
                (2.0, 2.5), (2.0, 1.2), (3.6, 2.5), (5.8, 2.5), (5.8, 1.6),
                (8.0, 2.75), (9.4, 3.9), (9.4, 5.2), (10.8, 3.7), (13.4, 3.7),
                (13.4, 4.6), (16.0, 3.95), (17.9, 5.3), (17.9, 7.0),
            ],
            seed=7,
        ),
        "grid_2x2": _base_scenario(
            "grid_2x2",
            [(2.5, 6.6), (2.5, 7.6), (2.2, 6.2), (4.6, 6.7), (6.6, 6.6), (7.6, 6.8)],
            seed=9,
            sensor_range=5.0,
        ),
        "grid_2x2_variant": _base_scenario(
            "grid_2x2_variant",
            [
                (2.5, 6.6), (2.5, 7.6), (2.2, 6.2), (4.6, 6.7), (6.6, 6.6),
                (6.7, 4.6), (7.2, 2.5), (8.6, 2.5),
            ],
            seed=9,
            sensor_range=5.0,
        ),
        "corridor": _base_scenario(
            "corridor",
            [
                (1.2, 1.5), (11.5, 1.5), (5.8, 1.5), (5.8, 2.6), (5.8, 4.8),
                (5.0, 5.8), (5.8, 2.6), (2.0, 1.5), (2.0, 2.6), (2.3, 4.4),
            ],
            seed=13,
            sensor_range=5.0,
        ),
    }


def fixture_plan(name: str) -> FloorPlan:
    try:
        builder = FIXTURE_PLANS[name]
    except KeyError:
        raise PlanError(f"unknown fixture plan {name!r}; have {sorted(FIXTURE_PLANS)}") from None
    return plan_from_dict(builder())


def fixture_dir() -> Path:
    return Path(str(resources.files("planloc") / "fixtures"))


def write_fixtures(out_dir) -> list[Path]:
    """Write all bundled plan and scenario JSON files to a directory."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written = []
    for name, builder in FIXTURE_PLANS.items():
        plan_doc = builder()
        plan_from_dict(plan_doc)  # refuse to write an invalid fixture
        path = out / f"{name}.plan.json"
        path.write_text(json.dumps(plan_doc, indent=2, sort_keys=True) + "\n")
        written.append(path)
    for name, scenario in fixture_scenarios().items():
        path = out / f"{name}.scenario.json"
        path.write_text(json.dumps(scenario, indent=2, sort_keys=True) + "\n")
        written.append(path)
    return written


def generate_random_plan(n_rooms: int, seed: int) -> FloorPlan:
    """Deterministic random row plan: decimeter-sized rooms chained by doorways."""
    if not 2 <= n_rooms <= 20:
        raise PlanGenerationError("n_rooms must be in [2, 20]")
    rng = np.random.default_rng(seed)
    # Coarser quantization keeps small plans cleanly separable for matching;
    # large plans fall back to the full decimeter grid.
    sep = 0.4 if n_rooms <= 12 else 0.1
    pool = [round(v, 1) for v in np.arange(2.0, 8.0 + 1e-9, sep)]
    y0s = [0.5 + 0.5 * k for k in range(n_rooms)]
    for _ in range(200):
        widths = rng.choice(pool, size=n_rooms, replace=False).tolist()
        # Pick ceilings greedily: distinct heights whose absolute levels stay
        # at least 0.45 m apart, so same-facing surfaces never alias online.
        remaining = list(pool)
        rng.shuffle(remaining)
        heights: list[float] = []
        norths: list[float] = []
        for y0 in y0s:
            pick = next(
                (
                    h
                    for h in remaining
                    if all(abs(y0 + h - n) >= 0.45 for n in norths)
                ),
                None,
            )
            if pick is None:
                break
            remaining.remove(pick)
            heights.append(pick)
            norths.append(y0 + pick)
        if len(heights) == n_rooms:
            return plan_from_dict(row_plan(widths, heights, y0s))
    raise PlanGenerationError(
        f"could not stagger {n_rooms} room ceilings after bounded retries (seed {seed})"
    )


def route_waypoints(plan: FloorPlan) -> list[tuple[float, float]]:
    """Waypoints visiting each room in file order through connecting doorways."""
    points: list[tuple[float, float]] = []
    rooms = [r.id for r in plan.rooms]
    for k, rid in enumerate(rooms):
        points.append(plan.room_center(rid))
        if k + 1 < len(rooms):
            nxt = rooms[k + 1]
            door = next(
                (d for d in plan.doorways if set(d.rooms) == {rid, nxt}),
                None,
            )
            if door is None:
                raise PlanError(f"no doorway between consecutive rooms {rid!r} and {nxt!r}")
            points.append(door.position)
    return points
