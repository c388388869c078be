"""Seeded scenario generator for the benchmark workloads.

Every input reaches the program as a scenario file written with
``ubimap.world.serialize_scenario``; the same seed always yields the same
file bytes. Three generated inputs exist:

- ``room``: a 120x30-cell room (0.25 m cells) with three partial interior
  walls, 20 wall cameras, 30 tagged robots, 40 obstacles, 240 landmarks.
- ``lattice``: the room's floor plan with a lattice candidate pool (every
  6 cells x 8 yaws, sites on wall cells dropped) and nothing else.
- ``ring``: a square room about 40 m across (0.5 m cells) ringed by 100
  inward-facing cameras, 25 per wall, with 800 landmarks in the wall band.

The seed moves entities and wall lengths, never the sizes, so that the
amount of work stays nearly the same from seed to seed.

Run ``PYTHONPATH=src python3 perfbench/gen.py room 5 out.scenario`` to write one
input.
"""

from __future__ import annotations

import dataclasses
import math
import random
import sys
from pathlib import Path

from ubimap import coverage
from ubimap.geom import Point3
from ubimap.world import (
    CameraSpec,
    CellIndex,
    GridWorld,
    Landmark,
    Obstacle,
    Robot,
    Scenario,
    SimParams,
    parse_scenario,
    serialize_scenario,
)

ROOM_COLS, ROOM_ROWS, ROOM_CELL = 120, 30, 0.25
ROOM_WALL_COLS = (30, 60, 90)
RING_CELLS, RING_CELL = 80, 0.5
RING_PER_WALL = 25

# One mounting for every camera: 2.5 m up, 90 x 110 degree field of view.
# The ground footprint is 5 m wide and 3.57 m deep.
MOUNT = dict(height=2.5, hfov=math.radians(90.0), vfov=math.radians(110.0), max_range=10.0)


def _room_walls(rng: random.Random) -> frozenset[CellIndex]:
    """Three partial walls across the room's depth, alternately attached to
    the south and north sides, so every bay stays connected."""
    walls = set()
    for k, col in enumerate(ROOM_WALL_COLS):
        length = rng.randint(17, 21)
        rows = range(length) if k % 2 == 0 else range(ROOM_ROWS - length, ROOM_ROWS)
        walls.update(CellIndex(col, row) for row in rows)
    return frozenset(walls)


def room(seed: int) -> Scenario:
    rng = random.Random(f"room/{seed}")
    walls = _room_walls(rng)
    width_m, depth_m = ROOM_COLS * ROOM_CELL, ROOM_ROWS * ROOM_CELL
    cameras = []
    # Ten cameras on each long wall facing into the room, staggered so the
    # two rows overlap in the middle band for calibration.
    for k in range(10):
        cameras.append(CameraSpec(id=k + 1, x=1.25 + 3.0 * k, y=0.1, yaw=0.0, **MOUNT))
        cameras.append(CameraSpec(id=k + 11, x=2.75 + 3.0 * k, y=depth_m - 0.1, yaw=math.pi, **MOUNT))

    free = [CellIndex(c, r) for r in range(ROOM_ROWS) for c in range(ROOM_COLS) if CellIndex(c, r) not in walls]
    picked = rng.sample(free, 30 + 40)
    robots = tuple(
        Robot(id=i + 1, x=(cell.col + 0.5) * ROOM_CELL, y=(cell.row + 0.5) * ROOM_CELL, theta=0.0, tag=101 + i)
        for i, cell in enumerate(picked[:30])
    )
    obstacles = tuple(Obstacle(id=i + 1, cell=cell) for i, cell in enumerate(picked[30:]))
    landmarks = tuple(
        Landmark(
            id=i + 1,
            position=Point3(
                round(rng.uniform(0.2, width_m - 0.2), 3),
                round(rng.uniform(0.2, depth_m - 0.2), 3),
                round(rng.uniform(0.1, 1.5), 3),
            ),
        )
        for i in range(240)
    )
    world = GridWorld(
        cell_size=ROOM_CELL, width=ROOM_COLS, height=ROOM_ROWS, walls=walls,
        obstacles=obstacles, robots=robots, landmarks=landmarks,
    )
    params = SimParams(seed=seed, noise_sigma=0.01, net_latency_ms=20.0, net_loss=0.02)
    return Scenario(world=world, cameras=tuple(sorted(cameras, key=lambda c: c.id)), params=params)


def lattice(seed: int) -> Scenario:
    """The room's floor plan (same seed, same walls) with 712 to 736
    candidate cameras, by seed, and no robots, obstacles or landmarks."""
    walls = _room_walls(random.Random(f"room/{seed}"))
    world = GridWorld(cell_size=ROOM_CELL, width=ROOM_COLS, height=ROOM_ROWS, walls=walls)
    pool = coverage.lattice_candidates(world, spacing_cells=6, **MOUNT)
    candidates = tuple(cam for cam in pool if world.cell_of(cam.x, cam.y) not in walls)
    return Scenario(world=world, cameras=candidates, params=SimParams(seed=seed))


def ring(seed: int) -> Scenario:
    rng = random.Random(f"ring/{seed}")
    side = RING_CELLS * RING_CELL
    spacing = side / RING_PER_WALL
    cameras = []
    # Walk the four walls counter-clockwise; each camera stands 0.25 m off
    # its wall and faces the room's interior.
    for wall in range(4):
        for k in range(RING_PER_WALL):
            along = spacing * (k + 0.5)
            x, y, yaw = {
                0: (along, 0.25, 0.0),
                1: (side - 0.25, along, math.pi / 2),
                2: (side - along, side - 0.25, math.pi),
                3: (0.25, side - along, 3 * math.pi / 2),
            }[wall]
            cameras.append(CameraSpec(id=wall * RING_PER_WALL + k + 1, x=x, y=y, yaw=yaw, **MOUNT))

    landmarks = []
    for i in range(800):
        along = rng.uniform(0.0, 4 * side)
        depth = rng.uniform(0.5, 4.5)
        wall, offset = divmod(along, side)
        x, y = {
            0: (offset, depth),
            1: (side - depth, offset),
            2: (side - offset, side - depth),
            3: (depth, side - offset),
        }[int(wall)]
        landmarks.append(Landmark(id=i + 1, position=Point3(round(x, 3), round(y, 3), round(rng.uniform(0.1, 1.5), 3))))
    world = GridWorld(cell_size=RING_CELL, width=RING_CELLS, height=RING_CELLS, landmarks=tuple(landmarks))
    return Scenario(world=world, cameras=tuple(cameras), params=SimParams(seed=seed, noise_sigma=0.01))


def demo(seed: int, bundled: Path) -> Scenario:
    """The bundled demo room with its sim seed replaced by the run seed."""
    scenario = parse_scenario(bundled.read_text(encoding="ascii"))
    return dataclasses.replace(scenario, params=dataclasses.replace(scenario.params, seed=seed))


GENERATORS = {"room": room, "lattice": lattice, "ring": ring}


def write(scenario: Scenario, path: Path) -> None:
    path.write_bytes(serialize_scenario(scenario).encode("ascii"))


if __name__ == "__main__":
    if len(sys.argv) != 4 or sys.argv[1] not in GENERATORS:
        sys.exit(f"usage: gen.py {{{','.join(GENERATORS)}}} SEED OUT")
    write(GENERATORS[sys.argv[1]](int(sys.argv[2])), Path(sys.argv[3]))
