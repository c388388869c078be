"""Ground-truth simulated environment: grid, walls, robots, cameras, landmarks.

Frame conventions:
    - World coordinates are meters, x to the right, y up (when drawn).
    - Cell (col, row) covers [col*cs, (col+1)*cs) x [row*cs, (row+1)*cs);
      its center is ((col+0.5)*cs, (row+0.5)*cs).
    - Camera yaw 0 points along +y; positive yaw rotates counter-clockwise.
      A camera's ground footprint is the rectangle x in [-w/2, w/2],
      y in [0, d] in its local ground frame, rotated by yaw about the
      camera's ground point.

Scenario documents are line-oriented ASCII: ``section <name>`` opens a block,
``end`` closes it, ``key = value`` pairs inside, ``#`` starts a comment.
Sections: world, walls, camera, robot, obstacle, landmark, sim. Each
``row <r> <c0>..<c1>`` line of the walls section sets one run of the grid's
wall mask, the one form in which walls are held from the parser on.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from enum import IntEnum
from functools import cached_property
from typing import Iterator, NamedTuple, Sequence

import numpy as np

from .geom import Point3


class ScenarioError(ValueError):
    """Base class for scenario document problems."""


class ScenarioSyntaxError(ScenarioError):
    def __init__(self, line_no: int, message: str) -> None:
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


class ScenarioSemanticError(ScenarioError):
    pass


# The largest grid a map message carries: its header holds width and height
# as u16 fields, and its payload one byte per cell after that 8-byte header.
MAX_GRID_SIDE, MAX_GRID_CELLS = 2**16 - 1, 2**24 - 8
# The largest seed, id or tag: the noise generator (sensim) keys and counts
# on 64-bit words, so a larger value would alias a smaller one.
MAX_WORD = 2**64 - 1


class CellIndex(NamedTuple):
    col: int
    row: int


class CellState(IntEnum):
    UNEXPLORED = 0
    EXPLORED = 1
    WALL = 2
    OBSTACLE = 3
    ROBOT = 4


@dataclass(frozen=True)
class CameraSpec:
    """A fixed depth camera: ground position, mounting height, yaw and FOV."""

    id: int
    x: float
    y: float
    height: float
    yaw: float
    hfov: float
    vfov: float
    max_range: float

    def __post_init__(self) -> None:
        # Each check is written so that NaN fails it; an infinite max_range passes.
        if not self.height > 0:
            raise ValueError(f"camera {self.id}: height must be > 0")
        if not 0 < self.hfov < math.pi:
            raise ValueError(f"camera {self.id}: hfov must be in (0, pi)")
        if not 0 < self.vfov < math.pi:
            raise ValueError(f"camera {self.id}: vfov must be in (0, pi)")
        if not self.max_range > 0:
            raise ValueError(f"camera {self.id}: max_range must be > 0")
        if not all(map(math.isfinite, (self.x, self.y, self.yaw))):
            raise ValueError(f"camera {self.id}: x, y and yaw must be finite")


class GroundFootprint(NamedTuple):
    """The ground rectangle a camera covers: width across, depth forward."""

    x: float
    y: float
    yaw: float
    depth: float
    width: float

    def contains(self, px, py):
        """Whether a point, or each of arrays of points, lies in the footprint."""
        lx, ly = self.to_local(px, py)
        return (-self.width / 2 <= lx) & (lx <= self.width / 2) & (0 <= ly) & (ly <= self.depth)

    def corners(self) -> list[tuple[float, float]]:
        """The rectangle's corners in world coordinates; an unbounded side's come out inf or NaN."""
        c, s, half = math.cos(self.yaw), math.sin(self.yaw), self.width / 2
        return [(self.x + c * lx - s * ly, self.y + s * lx + c * ly) for lx in (-half, half) for ly in (0.0, self.depth)]

    def to_local(self, px, py):
        """World point(s) -> footprint-local ground frame (x lateral, y forward)."""
        dx, dy = px - self.x, py - self.y
        c, s = math.cos(self.yaw), math.sin(self.yaw)
        return c * dx + s * dy, -s * dx + c * dy


class Robot(NamedTuple):
    id: int
    x: float
    y: float
    theta: float
    tag: int


class Obstacle(NamedTuple):
    id: int
    cell: CellIndex


class Landmark(NamedTuple):
    id: int
    position: Point3


@dataclass(frozen=True)
class SimParams:
    seed: int = 0
    noise_sigma: float = 0.0
    net_latency_ms: float = 0.0
    net_loss: float = 0.0

    def __post_init__(self) -> None:
        if not 0 <= self.seed <= MAX_WORD:
            raise ValueError("seed must be in 0..2**64 - 1")
        if not self.noise_sigma >= 0:  # so that NaN fails
            raise ValueError("noise_sigma must be >= 0")
        if not self.net_latency_ms >= 0:
            raise ValueError("net_latency_ms must be >= 0")
        if not 0.0 <= self.net_loss <= 1.0:
            raise ValueError("net_loss must be in [0, 1]")


@dataclass(frozen=True)
class GridWorld:
    """Immutable ground truth: dimensions, walls, the entities on the grid
    and, built from them at first use, each cell's state (``cell_states``).
    Walls, given as cells or a mask, are held as one read-only (height,
    width) bool mask, True on wall cells, and compared by value."""

    cell_size: float
    width: int
    height: int
    walls: np.ndarray = frozenset()
    obstacles: tuple[Obstacle, ...] = ()
    robots: tuple[Robot, ...] = ()
    landmarks: tuple[Landmark, ...] = ()

    def __post_init__(self) -> None:
        if self.cell_size <= 0 or self.width <= 0 or self.height <= 0:
            raise ValueError("cell_size, width and height must be positive")
        walls = self.walls
        if not isinstance(walls, np.ndarray):  # wall cells
            cells = [*walls]
            if not all(map(self.in_bounds, cells)):
                raise ValueError("wall cells must lie on the grid")
            walls = np.zeros((self.height, self.width), dtype=bool)
            walls[[cell.row for cell in cells], [cell.col for cell in cells]] = True
        elif walls.shape != (self.height, self.width) or walls.dtype != bool:
            raise ValueError("walls must be a (height, width) bool mask")
        elif walls.flags.writeable:
            walls = walls.copy()
        walls.setflags(write=False)
        object.__setattr__(self, "walls", walls)
        for ob in self.obstacles:
            if not self.in_bounds(ob.cell):
                raise ScenarioSemanticError(f"obstacle {ob.id} out of bounds")
            if walls[ob.cell.row, ob.cell.col]:
                raise ScenarioSemanticError(f"obstacle {ob.id} placed on a wall cell")
        for robot in self.robots:
            if not self.point_in_bounds(robot.x, robot.y):
                raise ScenarioSemanticError(f"robot {robot.id} out of bounds")
            cell = self.cell_of(robot.x, robot.y)
            if walls[cell.row, cell.col]:
                raise ScenarioSemanticError(f"robot {robot.id} placed on a wall cell")
        for lm in self.landmarks:
            if not self.point_in_bounds(lm.position.x, lm.position.y) or lm.position.z < 0:
                raise ScenarioSemanticError(f"landmark {lm.id} outside world bounds")

    def __eq__(self, other: object) -> bool:
        key = lambda w: (w.cell_size, w.width, w.height, w.obstacles, w.robots, w.landmarks)
        return isinstance(other, GridWorld) and key(self) == key(other) and np.array_equal(self.walls, other.walls)

    # -- queries ----------------------------------------------------------

    def in_bounds(self, cell: CellIndex) -> bool:
        return 0 <= cell.col < self.width and 0 <= cell.row < self.height

    def point_in_bounds(self, x: float, y: float) -> bool:
        return 0 <= x <= self.width * self.cell_size and 0 <= y <= self.height * self.cell_size

    def cell_of(self, x: float, y: float) -> CellIndex:
        col = min(int(x // self.cell_size), self.width - 1)
        row = min(int(y // self.cell_size), self.height - 1)
        return CellIndex(max(col, 0), max(row, 0))

    def cell_center(self, cell: CellIndex) -> tuple[float, float]:
        return (cell.col + 0.5) * self.cell_size, (cell.row + 0.5) * self.cell_size

    def free_cells(self) -> Iterator[CellIndex]:
        """The cells that are not walls, row by row."""
        rows, cols = np.nonzero(~self.walls)
        return map(CellIndex, cols.tolist(), rows.tolist())

    @cached_property
    def cell_states(self) -> np.ndarray:
        """Read-only (height, width) uint8 ground-truth ``CellState``s: a wall
        beats an obstacle, which beats a robot; every other cell is explored."""
        cells = np.full((self.height, self.width), CellState.EXPLORED, dtype=np.uint8)
        for robot in self.robots:
            cell = self.cell_of(robot.x, robot.y)
            cells[cell.row, cell.col] = CellState.ROBOT
        for ob in self.obstacles:
            cells[ob.cell.row, ob.cell.col] = CellState.OBSTACLE
        cells[self.walls] = CellState.WALL
        cells.setflags(write=False)
        return cells

    @cached_property
    def sight_grid(self) -> np.ndarray:
        """Read-only flat codes of the wall mask padded by a ring of outside
        cells, which line_of_sight walks: one lookup of a flat index tells a
        free cell (0), a wall and a cell off the grid apart."""
        grid = np.full((self.height + 2, self.width + 2), _OUTSIDE, dtype=np.int8)
        grid[1:-1, 1:-1] = self.walls
        grid = grid.ravel()
        grid.setflags(write=False)
        return grid

    @cached_property
    def wall_tiles(self) -> np.ndarray:
        """Read-only int32 summed-area table (Crow 1984) of the wall tiles,
        the ``WALL_TILE`` x ``WALL_TILE``-cell squares holding a wall cell:
        entry (i, j) counts them among the first i rows and j columns of
        tiles, so four lookups count a box's. One entry per tile, not per
        cell, keeps it a sixteenth of a whole-cell table."""
        rows = np.logical_or.reduceat(self.walls, np.arange(0, self.height, WALL_TILE), axis=0)
        walled = np.logical_or.reduceat(rows, np.arange(0, self.width, WALL_TILE), axis=1)
        tiles = np.zeros((walled.shape[0] + 1, walled.shape[1] + 1), dtype=np.int32)
        tiles[1:, 1:] = walled.cumsum(axis=0).cumsum(axis=1)
        tiles.setflags(write=False)
        return tiles

    def centre_span(self, lo: float, hi: float, axis: int) -> tuple[slice, np.ndarray]:
        """The cells along axis 0 (columns, x) or 1 (rows, y) whose centres
        may lie in [lo, hi], widened by one cell each way, and their centres.
        A NaN or infinite bound reaches the grid's edge."""
        cells = (self.width, self.height)[axis]
        first, last = lo / self.cell_size - 1.5, hi / self.cell_size + 0.5
        start = int(min(first, cells)) if first > 0 else 0
        stop = int(max(last, -1.0)) + 1 if last < cells else cells
        return slice(start, stop), (np.arange(start, max(start, stop)) + 0.5) * self.cell_size


@dataclass(frozen=True)
class Scenario:
    world: GridWorld
    cameras: tuple[CameraSpec, ...]
    params: SimParams = field(default_factory=SimParams)


def ground_footprint(cam: CameraSpec) -> GroundFootprint:
    """Project the camera's field of view onto the ground plane.

    Depth is the projected range h*tan(vfov/2), clamped by the sensor's
    max range; width is 2*h*tan(hfov/2).
    """
    depth = min(cam.height * math.tan(cam.vfov / 2.0), cam.max_range)
    width = 2.0 * cam.height * math.tan(cam.hfov / 2.0)
    return GroundFootprint(x=cam.x, y=cam.y, yaw=cam.yaw, depth=depth, width=width)


def covered_cells(cameras: CameraSpec | Sequence[CameraSpec], world: GridWorld) -> set[CellIndex] | np.ndarray:
    """Cells whose centers fall in a camera's footprint and are not wall-occluded.

    ``cameras`` is one camera or a sequence of them: one camera gives its
    cells as a ``set[CellIndex]``, a sequence a ``(k, height, width)`` bool
    array of their masks in camera order. The cameras at one ground point
    are tested over the box of cells around their footprints only, and all
    sight lines are walked in one lockstep call, so memory follows the
    footprints, not the grid, but for that array.
    Occlusion is a 2D ray cast at ground level against the static walls;
    obstacles and robots are transient and do not occlude.
    """
    single = isinstance(cameras, CameraSpec)
    cameras = [cameras] if single else list(cameras)
    sites: dict[tuple[float, float], list[int]] = {}
    for k, cam in enumerate(cameras):
        if not world.point_in_bounds(cam.x, cam.y):
            raise ValueError(f"camera {cam.id} ground point outside world bounds")
        sites.setdefault((cam.x, cam.y), []).append(k)
    inside: dict[int, np.ndarray] = {}  # each camera's footprint over its point's box
    boxes, origins, targets = [], [np.empty((0, 2))], [np.empty((0, 2))]
    for (x, y), members in sites.items():
        footprints = [ground_footprint(cameras[k]) for k in members]
        corners = np.array([corner for fp in footprints for corner in fp.corners()]).T
        (cols, xs), (rows, ys) = (world.centre_span(float(v.min()), float(v.max()), axis) for axis, v in enumerate(corners))
        inside.update((k, fp.contains(xs[None, :], ys[:, None])) for k, fp in zip(members, footprints))
        r, c = np.nonzero(np.logical_or.reduce([inside[k] for k in members]))  # the cells its sight lines reach
        boxes.append((rows, cols, r, c))
        targets.append(np.column_stack([xs[c], ys[r]]))
        origins.append(np.broadcast_to((x, y), targets[-1].shape))
    visible = line_of_sight(world, np.concatenate(origins), np.concatenate(targets))
    for members, (_, _, r, c) in zip(sites.values(), boxes):
        blocked, visible = ~visible[: len(r)], visible[len(r) :]
        for k in members:
            inside[k][r[blocked], c[blocked]] = False
    if single:
        (rows, cols, *_), (r, c) = boxes[0], np.nonzero(inside[0])
        return {CellIndex(col, row) for row, col in zip((r + rows.start).tolist(), (c + cols.start).tolist())}
    masks = np.zeros((len(cameras), world.height, world.width), dtype=bool)
    for members, (rows, cols, *_) in zip(sites.values(), boxes):
        for k in members:
            masks[k, rows, cols] = inside[k]
    return masks


# Cell codes of the padded grid that line_of_sight walks; free cells are 0.
_WALL, _OUTSIDE = 1, 2
# The most segments line_of_sight walks at once, so a call's walk state stays bounded.
SEGMENT_BLOCK = 4096
# The side, in cells, of the square tiles GridWorld.wall_tiles counts walls
# by: a power of two, so a shift finds a cell's tile.
WALL_TILE_BITS = 2
WALL_TILE = 1 << WALL_TILE_BITS


# Infinities and NaNs (no crossing along an axis) follow IEEE rules, as the
# Python floats of a one-segment walk do.
@np.errstate(divide="ignore", over="ignore", invalid="ignore")
def line_of_sight(
    world: GridWorld, a: tuple[float, float] | np.ndarray, b: tuple[float, float] | np.ndarray
) -> bool | np.ndarray:
    """True iff the open segment a->b crosses no wall cell.

    ``a`` and ``b`` are points ``(x, y)`` or ``(n, 2)`` arrays of points,
    broadcast against each other; two single points give a ``bool``, any
    array an ``(n,)`` bool array, one entry per segment.

    The cells containing the endpoints never block (a camera mounted over a
    wall cell can still see out of it, and a target is visible from within
    its own cell). A segment is settled first by counting the wall tiles of
    the tile-aligned box its two end cells span, four lookups in
    ``GridWorld.wall_tiles``: with none, it is visible. The others are
    traversed by a supercover DDA (Amanatides & Woo 1987) run in lockstep
    over blocks of at most ``SEGMENT_BLOCK`` segments: every cell a segment
    passes through up to its end is visited, and an exact corner crossing
    past the start visits both side cells, so blocking is conservative.
    """
    single = np.ndim(a) == 1 and np.ndim(b) == 1
    a, b = np.broadcast_arrays(np.asarray(a, dtype=float).reshape(-1, 2), np.asarray(b, dtype=float).reshape(-1, 2))
    limit = (world.width * world.cell_size, world.height * world.cell_size)
    if not ((a >= 0) & (a <= limit) & (b >= 0) & (b <= limit)).all():
        raise ValueError("line_of_sight endpoints must be inside world bounds")
    visible = np.ones(len(a), dtype=bool)
    for lo in range(0, len(a), SEGMENT_BLOCK):
        _walk(world, a[lo : lo + SEGMENT_BLOCK], b[lo : lo + SEGMENT_BLOCK], visible[lo : lo + SEGMENT_BLOCK])
    return bool(visible[0]) if single else visible


def _walk(world: GridWorld, a: np.ndarray, b: np.ndarray, visible: np.ndarray) -> None:
    """Clear ``visible`` for the blocked segments of one block, walked on ``world.sight_grid``
    where ``world.wall_tiles`` counts a wall tile in their box."""
    cs, width, height, grid = world.cell_size, world.width, world.height, world.sight_grid
    stride = width + 2
    # Cells as in GridWorld.cell_of, and their flat indices in the padded grid.
    start, end = (np.minimum(p // cs, (width - 1, height - 1)).astype(np.int64) for p in (a, b))
    # A walk visits only cells of the box its end cells span, so a segment
    # within one cell, or whose box's tiles hold no wall, is visible.
    (c0, r0), (c1, r1) = np.minimum(start, end).T >> WALL_TILE_BITS, (np.maximum(start, end).T >> WALL_TILE_BITS) + 1
    tiles = world.wall_tiles
    walled = tiles[r1, c1] - tiles[r0, c1] - tiles[r1, c0] + tiles[r0, c0] > 0
    del c0, r0, c1, r1  # freed before the walk state is allocated
    first, last = ((cells[:, 1] + 1) * stride + cells[:, 0] + 1 for cells in (start, end))
    live = np.flatnonzero((first != last) & walled)
    # One row per state variable, so dropping finished segments is one
    # indexing per dtype. The walk moves monotonically away from its start
    # cell, so only the end cell needs excluding. Columns come in multiples
    # of 64; a padding column sits arrived on the outside corner cell.
    size = len(live) + -len(live) % 64
    ints, floats = np.zeros((5, size), dtype=np.int64), np.full((4, size), np.inf)
    ints[:3, : len(live)] = live, first[live], last[live]
    # Per axis: the step, and the parametric distance along each segment to
    # its next grid line and between grid lines.
    for axis, scale in ((0, 1), (1, stride)):
        origin = a[live, axis] / cs
        delta = b[live, axis] / cs - origin
        ints[3 + axis, : len(live)] = np.where(delta > 0, scale, -scale)
        floats[axis, : len(live)] = np.where(delta != 0, (start[live, axis] + (delta > 0) - origin) / delta, np.inf)
        floats[2 + axis, : len(live)] = np.abs(1.0 / delta)
    del start, end, first, last, walled, origin, delta  # the walk needs only ints and floats

    for _ in range(2 * (width + height) + 4):
        if not ints.shape[1]:
            break
        live, cell, last, step_x, step_y = ints
        t_max_x, t_max_y, t_delta_x, t_delta_y = floats
        # A walk ends at its first crossing at or past the end: one ending on a corner may not enter its end cell.
        ended = np.minimum(t_max_x, t_max_y) >= 1.0 - 1e-12
        last[ended], step_x[ended], step_y[ended] = cell[ended], 0, 0
        corner = np.abs(t_max_x - t_max_y) < 1e-12
        along_x = corner | (t_max_x < t_max_y)
        along_y = corner | ~along_x
        blocked = np.zeros(len(cell), dtype=bool)
        if corner.any():
            # Exact corner crossing: both side cells, then the diagonal. At the start (t = 0)
            # the side cells touch the segment only at its start point, so they never block.
            at = np.flatnonzero(corner & (t_max_x > 1e-12))
            for side in (cell[at] + step_x[at], cell[at] + step_y[at]):
                blocked[at] |= (grid[side] == _WALL) & (side != last[at])
        cell += step_x * along_x + step_y * along_y
        np.copyto(t_max_x, t_max_x + t_delta_x, where=along_x)
        np.copyto(t_max_y, t_max_y + t_delta_y, where=along_y)
        code = grid[cell]
        arrived = cell == last
        blocked |= (code == _WALL) & ~arrived
        done = blocked | arrived | (code == _OUTSIDE)
        if done.any():
            visible[live[blocked]] = False
            # A finished segment stays put, arrived, until 64 columns can go at once, so few
            # array sizes recur: numpy keeps freed buffers under 1 KiB for reuse by exact size.
            last[done], step_x[done], step_y[done] = cell[done], 0, 0
            drop = np.flatnonzero(done)[: np.count_nonzero(done) // 64 * 64]
            if len(drop):
                ints, floats = np.delete(ints, drop, axis=1), np.delete(floats, drop, axis=1)


# -- scenario document ----------------------------------------------------

# Each section's keys, in the order their values are read, and each value's
# kind: a finite real, an integer, or a word (an integer in 0..MAX_WORD).
_REAL, _INT, _WORD = "real", "integer", "word"
_FIELDS = {
    "world": {"cell_size": _REAL, "width": _INT, "height": _INT},
    "camera": {"id": _WORD, **dict.fromkeys(("x", "y", "h", "yaw_deg", "hfov_deg", "vfov_deg", "range"), _REAL)},
    "robot": {"id": _WORD, "x": _REAL, "y": _REAL, "tag": _WORD},
    "obstacle": {"x": _REAL, "y": _REAL, "id": _WORD},
    "landmark": {"id": _WORD, "x": _REAL, "y": _REAL, "z": _REAL},
    "sim": {"seed": _INT, "noise_sigma": _REAL, "net_latency_ms": _REAL, "net_loss": _REAL},
}
_SECTION_KEYS = {section: set(fields) for section, fields in _FIELDS.items()}
# A line of an ASCII document and its end, as str.splitlines splits them.
_LINE = re.compile(r"([^\n\r\v\f\x1c-\x1e]*)(?:\r\n|[\n\r\v\f\x1c-\x1e]|\Z)")


def parse_scenario(document: str) -> Scenario:
    """Parse a scenario document into a world, camera list and sim parameters.

    Raises ScenarioSyntaxError (with line number) for grammar problems and
    ScenarioSemanticError for inconsistent content (robot on a wall, camera
    outside bounds, duplicate ids, ...). The document is read one line at a
    time, and camera, robot and landmark sections are converted as each
    one's ``end`` is read, so one section's text is held at a time; obstacle
    sections, which need the world's grid, wait for the scan's end. Grammar
    errors anywhere come first, then the first conversion error of each
    kind: cameras, robots, obstacles, landmarks in turn.
    """
    try:
        document.encode("ascii")
    except UnicodeEncodeError as exc:
        raise ScenarioSyntaxError(0, f"document must be ASCII: {exc}") from None

    world_kv: dict[str, float] | None = None
    wall_rows: list[tuple[int, int, int, int]] = []  # (line_no, row, c0, c1)
    converters = {"camera": _convert_camera, "robot": _convert_robot, "landmark": _convert_landmark}
    converted: dict[str, list] = {name: [] for name in converters}
    errors: dict[str, ScenarioError] = {}  # the first conversion error of each kind
    obstacle_kvs: list[tuple[int, dict[str, str]]] = []
    sim_kv: tuple[int, dict[str, str]] | None = None  # (line_no, key-values)

    section: str | None = None
    section_line = 0
    current: dict[str, str] = {}

    lines = (m[1] for m in _LINE.finditer(document) if m.start() < len(document))
    for line_no, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("section"):
            parts = line.split()
            if len(parts) != 2:
                raise ScenarioSyntaxError(line_no, "expected 'section <name>'")
            if section is not None:
                raise ScenarioSyntaxError(line_no, f"section '{section}' not closed before new section")
            name = parts[1]
            if name not in _SECTION_KEYS and name != "walls":
                raise ScenarioSyntaxError(line_no, f"unknown section '{name}'")
            if name == "world" and world_kv is not None:
                raise ScenarioSyntaxError(line_no, "duplicate 'world' section")
            if name == "sim" and sim_kv is not None:
                raise ScenarioSyntaxError(line_no, "duplicate 'sim' section")
            section = name
            section_line = line_no
            current = {}
        elif line == "end":
            if section is None:
                raise ScenarioSyntaxError(line_no, "'end' outside any section")
            if section == "world":
                world_kv = _convert_world(section_line, current)
            elif section == "sim":
                sim_kv = (section_line, current)
            elif section == "obstacle":  # converted once the world's grid is known
                obstacle_kvs.append((section_line, current))
            elif section in converters and section not in errors:
                try:
                    converted[section].append(converters[section](section_line, current))
                except ScenarioError as exc:
                    errors[section] = exc
            section = None
        elif section == "walls":
            parts = line.split()
            if len(parts) != 3 or parts[0] != "row":
                raise ScenarioSyntaxError(line_no, "expected 'row <r> <colstart>..<colend>'")
            try:
                row = int(parts[1])
                c0_str, c1_str = parts[2].split("..", 1)
                c0, c1 = int(c0_str), int(c1_str)
            except ValueError:
                raise ScenarioSyntaxError(line_no, "expected 'row <r> <colstart>..<colend>'") from None
            if c1 < c0:
                raise ScenarioSyntaxError(line_no, "wall column range is reversed")
            wall_rows.append((line_no, row, c0, c1))
        elif section is not None:
            if "=" not in line:
                raise ScenarioSyntaxError(line_no, "expected 'key = value'")
            key, _, value = (part.strip() for part in line.partition("="))
            if key not in _SECTION_KEYS[section]:
                raise ScenarioSyntaxError(line_no, f"unknown key '{key}' in section '{section}'")
            if key in current:
                raise ScenarioSyntaxError(line_no, f"duplicate key '{key}'")
            if not value:
                raise ScenarioSyntaxError(line_no, f"missing value for '{key}'")
            current[key] = value
        else:
            raise ScenarioSyntaxError(line_no, f"unexpected content outside a section: '{line}'")

    if section is not None:
        raise ScenarioSyntaxError(line_no, f"section '{section}' not closed")
    if world_kv is None:
        raise ScenarioSyntaxError(0, "missing required 'world' section")

    cell_size = world_kv["cell_size"]
    width, height = int(world_kv["width"]), int(world_kv["height"])

    walls = np.zeros((height, width), dtype=bool)
    for line_no, row, c0, c1 in wall_rows:
        if not (0 <= row < height and 0 <= c0 and c1 < width):
            raise ScenarioSemanticError(f"line {line_no}: wall row {row} cols {c0}..{c1} out of bounds")
        walls[row, c0 : c1 + 1] = True
    walls.setflags(write=False)

    for kind in ("camera", "robot"):
        if kind in errors:
            raise errors[kind]
    obstacles = tuple(_convert_obstacle(ln, kv, cell_size, width, height) for ln, kv in obstacle_kvs)
    if "landmark" in errors:
        raise errors["landmark"]
    cameras, robots, landmarks = (tuple(converted[kind]) for kind in ("camera", "robot", "landmark"))

    for kind, items in (("camera", cameras), ("robot", robots), ("obstacle", obstacles), ("landmark", landmarks)):
        ids = [item.id for item in items]
        if len(ids) != len(set(ids)):
            raise ScenarioSemanticError(f"duplicate {kind} ids")
    tags = [r.tag for r in robots]
    if len(tags) != len(set(tags)):
        raise ScenarioSemanticError("duplicate robot tags")

    world = GridWorld(cell_size, width, height, walls, obstacles=obstacles, robots=robots, landmarks=landmarks)
    for cam in cameras:
        if not world.point_in_bounds(cam.x, cam.y):
            raise ScenarioSemanticError(f"camera {cam.id} outside world bounds")

    params = _convert_sim(*sim_kv) if sim_kv is not None else SimParams()
    return Scenario(world=world, cameras=cameras, params=params)


def serialize_scenario(scenario: Scenario) -> str:
    """Render a scenario back to document text; parse(serialize(s)) == s."""
    w, p = scenario.world, scenario.params
    lines = _section("world", cell_size=w.cell_size, width=w.width, height=w.height)
    if w.walls.any():
        # Runs of wall cells, from the rising and falling edges of each row padded with free cells.
        rows, edges = np.nonzero(np.diff(np.pad(w.walls, ((0, 0), (1, 1))).astype(np.int8), axis=1))
        runs = zip(rows[::2].tolist(), edges[::2].tolist(), edges[1::2].tolist())
        lines += ["section walls", *(f"  row {row} {start}..{stop - 1}" for row, start, stop in runs), "end"]
    for cam in scenario.cameras:
        degrees = dict(yaw_deg=math.degrees(cam.yaw), hfov_deg=math.degrees(cam.hfov), vfov_deg=math.degrees(cam.vfov))
        lines += _section("camera", id=cam.id, x=cam.x, y=cam.y, h=cam.height, **degrees, range=cam.max_range)
    for robot in w.robots:
        lines += _section("robot", id=robot.id, x=robot.x, y=robot.y, tag=robot.tag)
    for ob in w.obstacles:
        lines += _section("obstacle", id=ob.id, x=(ob.cell.col + 0.5) * w.cell_size, y=(ob.cell.row + 0.5) * w.cell_size)
    for lm in w.landmarks:
        lines += _section("landmark", id=lm.id, x=lm.position.x, y=lm.position.y, z=lm.position.z)
    lines += _section("sim", seed=p.seed, noise_sigma=p.noise_sigma, net_latency_ms=p.net_latency_ms, net_loss=p.net_loss)
    return "\n".join(lines) + "\n"


def _section(name: str, **fields) -> list[str]:
    """One section's lines; floats by repr, which reads back to the same bits."""
    return [f"section {name}", *(f"  {k} = {repr(v) if isinstance(v, float) else v}" for k, v in fields.items()), "end"]


def _checked(line_no: int, build, *values):
    """build(*values), its own range checks failing at the section's line."""
    try:
        return build(*values)
    except ValueError as exc:
        raise ScenarioSyntaxError(line_no, str(exc)) from None


def _values(line_no: int, section: str, kv: dict[str, str], default: str | None = None) -> Iterator:
    """The section's values in its ``_FIELDS`` order, each read as its kind;
    a key left out fails first, unless it takes ``default``."""
    fields = _FIELDS[section]
    if default is None and len(kv) < len(fields):  # the scan let in only the section's keys
        missing = ", ".join(sorted(fields.keys() - kv.keys()))
        raise ScenarioSyntaxError(line_no, f"section '{section}' missing keys: {missing}")
    for key, kind in fields.items():
        value = kv.get(key, default)
        try:
            number = float(value) if kind is _REAL else int(value)
        except ValueError:
            noun = "a number" if kind is _REAL else "an integer"
            raise ScenarioSyntaxError(line_no, f"'{key}' must be {noun}, got '{value}'") from None
        if kind is _REAL:
            if not math.isfinite(number):
                raise ScenarioSyntaxError(line_no, f"'{key}' must be finite, got '{value}'")
        elif kind is _WORD and not 0 <= number <= MAX_WORD:
            bound = ">= 0" if number < 0 else "<= 2**64 - 1"
            raise ScenarioSyntaxError(line_no, f"'{key}' must be {bound}, got {number}")
        yield number


def _convert_world(line_no: int, kv: dict[str, str]) -> dict[str, float]:
    sizes = dict(zip(_FIELDS["world"], _values(line_no, "world", kv)))
    for key, size in sizes.items():
        if size <= 0:
            raise ScenarioSyntaxError(line_no, f"'{key}' must be > 0, got '{kv[key]}'")
        if key != "cell_size" and size > MAX_GRID_SIDE:
            raise ScenarioSyntaxError(line_no, f"'{key}' must be <= {MAX_GRID_SIDE}, got {size}")
    if sizes["width"] * sizes["height"] > MAX_GRID_CELLS:
        raise ScenarioSyntaxError(line_no, f"a {kv['width']}x{kv['height']} grid has over {MAX_GRID_CELLS} cells")
    return sizes


def _convert_camera(line_no: int, kv: dict[str, str]) -> CameraSpec:
    cam_id, x, y, h, *degrees, max_range = _values(line_no, "camera", kv)
    return _checked(line_no, CameraSpec, cam_id, x, y, h, *map(math.radians, degrees), max_range)


def _convert_robot(line_no: int, kv: dict[str, str]) -> Robot:
    values = _values(line_no, "robot", kv)
    robot_id = next(values)
    if not 1 <= robot_id < 2**16:
        # Robots are addressed on the network by id; address 0 is the map server.
        raise ScenarioSyntaxError(line_no, f"robot 'id' must be in 1..65535, got {robot_id}")
    x, y, tag = values
    return Robot(id=robot_id, x=x, y=y, theta=0.0, tag=tag)


def _convert_obstacle(line_no: int, kv: dict[str, str], cell_size: float, width: int, height: int) -> Obstacle:
    values = _values(line_no, "obstacle", kv)
    x, y = next(values), next(values)
    col, row = x // cell_size, y // cell_size
    if not (0 <= col < width and 0 <= row < height):
        raise ScenarioSyntaxError(line_no, f"obstacle at ({x!r}, {y!r}) lies off the {width}x{height} grid")
    return Obstacle(id=next(values), cell=CellIndex(int(col), int(row)))


def _convert_landmark(line_no: int, kv: dict[str, str]) -> Landmark:
    lm_id, x, y, z = _values(line_no, "landmark", kv)
    return Landmark(id=lm_id, position=Point3(x, y, z))


def _convert_sim(line_no: int, kv: dict[str, str]) -> SimParams:
    return _checked(line_no, SimParams, *_values(line_no, "sim", kv, default="0"))
