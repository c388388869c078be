"""Central map server logic: evidence fusion into the shared occupancy map,
robot-map merging, and the robot localization filters.

Map cell states and their wire byte values: Unexplored=0, Explored=1,
Wall=2, Obstacle=3, Robot=4. GridMap is the server's fused map only; a
robot's fragment, a client's copy and a rendered ground truth are plain
(height, width) uint8 arrays of these states.

Fusion rules (per frame):
    - A cell leaves Unexplored only when some camera first observes it.
    - The known structural walls, one (height, width) bool mask, become
      Wall on first observation and never change afterwards.
    - Within a frame: a tag-localized robot beats occupied evidence, which
      beats free evidence (occupied-wins on camera conflicts).
    - An Obstacle cell decays back to Explored once it has been seen free
      for 2 s straight; unobserved cells keep their last state.

The EKF estimates robot pose against the current fused map; the map itself
is owned by the camera network, not the filter.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import algebra
from .geom import RigidTransform
from .sensim import ObstacleEvidence, TagDetection
from .world import CellIndex, CellState

OBSTACLE_CLEAR_SECONDS = 2.0
# A covariance is accepted when its smallest eigenvalue is at least -PSD_TOL.
PSD_TOL = 1e-12


class DimensionMismatchError(ValueError):
    pass


class GridMap:
    """The server's fused occupancy map. Single-writer: one fusion step at
    a time.

    walls is the static structure the map server is configured with, a
    (height, width) bool mask held as given (none by default); tag_registry
    maps visual tag ids to robot ids. cells holds the (height, width) state
    bytes; every fusion rule reads and writes it as whole-grid arrays.
    """

    def __init__(
        self,
        width: int,
        height: int,
        cell_size: float,
        walls: np.ndarray | None = None,
        tag_registry: dict[int, int] | None = None,
    ) -> None:
        if width <= 0 or height <= 0 or cell_size <= 0:
            raise ValueError("GridMap dimensions must be positive")
        self.walls = np.zeros((height, width), dtype=bool) if walls is None else walls
        if self.walls.shape != (height, width) or self.walls.dtype != bool:
            raise DimensionMismatchError(f"wall mask {self.walls.dtype} {self.walls.shape} vs map bool {(height, width)}")
        self.width, self.height, self.cell_size = width, height, cell_size
        self.tag_registry = dict(tag_registry or {})
        self.cells = np.zeros((height, width), dtype=np.uint8)
        self.robot_poses: dict[int, tuple[float, float, float]] = {}
        self.revision = 0
        self.faults: list[str] = []
        self._last_occupied = np.full((height, width), -np.inf)
        self._robot_cells: dict[int, CellIndex] = {}

    # -- access -----------------------------------------------------------

    def state(self, cell: CellIndex) -> CellState:
        return CellState(int(self.cells[cell.row, cell.col]))

    def cell_of(self, x: float, y: float) -> CellIndex:
        col = min(max(int(x // self.cell_size), 0), self.width - 1)
        row = min(max(int(y // self.cell_size), 0), self.height - 1)
        return CellIndex(col, row)


def _camera_ground_frame(pose: RigidTransform) -> tuple[float, float, float]:
    """Ground-plane origin and yaw of a camera from its 3D pose.

    The optical axis is the rotation's third column; its horizontal
    projection gives the facing direction, from which the footprint frame's
    yaw follows (yaw 0 faces +y).
    """
    z_axis = pose.rotation[:, 2]
    fx, fy = float(z_axis[0]), float(z_axis[1])
    norm = math.hypot(fx, fy)
    if norm < 1e-12:
        raise ValueError("camera looks straight down; ground yaw is undefined")
    yaw = math.atan2(-fx / norm, fy / norm)
    return float(pose.translation[0]), float(pose.translation[1]), yaw


def tag_world_position(det: TagDetection, camera_pose: RigidTransform) -> tuple[float, float]:
    """Map a detection from the camera's ground frame into world coordinates."""
    ox, oy, yaw = _camera_ground_frame(camera_pose)
    lx, ly = det.ground_position
    c, s = math.cos(yaw), math.sin(yaw)
    return ox + c * lx - s * ly, oy + s * lx + c * ly


def fuse_frame(
    grid_map: GridMap,
    evidence: list[ObstacleEvidence],
    tags: list[TagDetection],
    camera_poses: dict[int, RigidTransform],
    t: float,
) -> GridMap:
    """Fuse one frame of all cameras' evidence into the map.

    The masks of the calibrated cameras are ORed together; evidence from a
    camera without a calibrated pose is rejected and logged as one fault,
    and a mask of another shape than the map's raises
    DimensionMismatchError. Each cell's final state is computed before the
    map is written, and the revision increments exactly when some cell
    changed, so re-applying an identical frame is a no-op.
    """
    observed = np.zeros(grid_map.cells.shape, dtype=bool)
    occupied = np.zeros_like(observed)
    if any(ev.observed.shape != observed.shape or ev.occupied.shape != observed.shape for ev in evidence):
        raise DimensionMismatchError(f"evidence masks must have the map's shape {observed.shape}")
    for ev in evidence:
        if ev.camera_id not in camera_poses:
            grid_map.faults.append(f"t={t}: evidence from unknown camera {ev.camera_id}")
        else:
            observed |= ev.observed
            occupied |= ev.occupied
    grid_map._last_occupied[occupied] = t

    detections: dict[int, list[TagDetection]] = {}
    for det in tags:
        if det.camera_id not in camera_poses:
            grid_map.faults.append(f"t={t}: tag from unknown camera {det.camera_id}")
            continue
        robot_id = grid_map.tag_registry.get(det.tag_id, det.tag_id)
        detections.setdefault(robot_id, []).append(det)

    robot_cells: dict[int, CellIndex] = {}
    for robot_id in sorted(detections):
        dets = sorted(detections[robot_id], key=lambda d: d.camera_id)
        positions = np.array([tag_world_position(d, camera_poses[d.camera_id]) for d in dets])
        mean = positions.mean(axis=0)
        spread = float(np.sqrt(np.mean(np.sum((positions - mean) ** 2, axis=1))))
        grid_map.robot_poses[robot_id] = (float(mean[0]), float(mean[1]), spread)
        robot_cells[robot_id] = grid_map.cell_of(float(mean[0]), float(mean[1]))

    cells = grid_map.cells
    new = cells.copy()
    new[occupied] = CellState.OBSTACLE
    # Seen free: an obstacle decays only after the clear window elapses.
    decayed = t - grid_map._last_occupied > OBSTACLE_CLEAR_SECONDS
    new[observed & ~occupied & ((cells != CellState.OBSTACLE) | decayed)] = CellState.EXPLORED
    new[observed & grid_map.walls] = CellState.WALL
    new[cells == CellState.WALL] = CellState.WALL  # walls never change

    # Robots: clear stale cells for robots that moved, then place new ones.
    for robot_id, cell in robot_cells.items():
        old = grid_map._robot_cells.get(robot_id)
        if old is not None and old != cell and new[old.row, old.col] == CellState.ROBOT:
            new[old.row, old.col] = CellState.EXPLORED
    for robot_id, cell in robot_cells.items():
        if new[cell.row, cell.col] != CellState.WALL:
            new[cell.row, cell.col] = CellState.ROBOT
        grid_map._robot_cells[robot_id] = cell

    if (new != cells).any():
        grid_map.cells = new
        grid_map.revision += 1
    return grid_map


def merge_robot_map(
    global_map: GridMap,
    cells: np.ndarray,
    weight_fixed: int = 2,
    weight_robot: int = 1,
) -> GridMap:
    """Merge a robot-contributed (height, width) array of cell states into
    the global map by weighted vote.

    Blind spots (cells the global map has never observed) adopt the robot's
    state outright; elsewhere the higher weight wins, with the global map
    keeping ties. Local Unexplored cells carry no information. Walls in the
    global map are permanent regardless of weights. An array of another
    shape than the map's raises DimensionMismatchError.
    """
    g, l = global_map.cells, cells
    if l.shape != g.shape:
        raise DimensionMismatchError(f"global map shape {g.shape} vs local {l.shape}")
    adopt = (l != CellState.UNEXPLORED) & (g != CellState.WALL) & (
        (g == CellState.UNEXPLORED) | (weight_robot > weight_fixed)
    )
    merged = np.where(adopt, l, g)
    if (merged != g).any():
        global_map.cells = merged
        global_map.revision += 1
    return global_map


# -- localization filters ----------------------------------------------------


@dataclass(frozen=True)
class GaussianBelief:
    """Robot pose belief: mean (x, y, theta) and 3x3 covariance, symmetric
    within 1e-12 and with no eigenvalue below -``PSD_TOL``: every principal
    minor of covariance + PSD_TOL I is non-negative (Sylvester's criterion)."""

    mean: np.ndarray
    covariance: np.ndarray

    def __post_init__(self) -> None:
        mean = np.asarray(self.mean, dtype=float).reshape(3)
        cov = np.asarray(self.covariance, dtype=float).reshape(3, 3)
        c = cov.tolist()
        if not all(map(math.isfinite, mean.tolist() + c[0] + c[1] + c[2])):
            raise ValueError("belief entries must be finite")
        pairs = ((0, 1), (0, 2), (1, 2))
        if max(abs(c[a][b] - c[b][a]) for a, b in pairs) > 1e-12:
            raise ValueError("covariance must be symmetric")
        s = [[x + PSD_TOL if a == b else x for b, x in enumerate(row)] for a, row in enumerate(c)]
        minors = [s[0][0], s[1][1], s[2][2], algebra.det3(s)] + [s[a][a] * s[b][b] - s[a][b] * s[b][a] for a, b in pairs]
        if min(minors) < 0.0:
            raise ValueError(f"covariance must be PSD, smallest principal minor of cov + {PSD_TOL} I {min(minors):.3e}")
        mean.setflags(write=False)
        cov.setflags(write=False)
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "covariance", cov)


@dataclass(frozen=True)
class MotionModel:
    """State transition x' = f(x, u) with additive Gaussian noise Q; the
    Jacobian is df/dx at (x, u)."""

    f: Callable[[np.ndarray, np.ndarray], np.ndarray]
    q: np.ndarray
    jacobian: Callable[[np.ndarray, np.ndarray], np.ndarray]


@dataclass(frozen=True)
class ObservationModel:
    """Measurement z = h(x) with additive Gaussian noise R; the Jacobian is
    dh/dx at x."""

    h: Callable[[np.ndarray], np.ndarray]
    r: np.ndarray
    jacobian: Callable[[np.ndarray], np.ndarray]


def odometry_motion_model(q: np.ndarray) -> MotionModel:
    """World-frame additive odometry: f(x, u) = x + u, Jacobian = identity."""
    return MotionModel(
        f=lambda x, u: np.asarray(x, dtype=float) + np.asarray(u, dtype=float),
        q=np.asarray(q, dtype=float),
        jacobian=lambda x, u: np.eye(3),
    )


def position_observation_model(r: np.ndarray) -> ObservationModel:
    """Direct (x, y) position measurement, as produced by tag detections."""
    return ObservationModel(
        h=lambda x: np.asarray(x, dtype=float)[:2],
        r=np.asarray(r, dtype=float),
        jacobian=lambda x: np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]),
    )


def _sum(a: list[list[float]], b: list[list[float]]) -> list[list[float]]:
    return [[x + y for x, y in zip(row_a, row_b)] for row_a, row_b in zip(a, b)]


def _symmetrized(cov: list[list[float]]) -> np.ndarray:
    """(cov + cov^T) / 2 as an array."""
    return np.array([[0.5 * (x + y) for x, y in zip(row, col)] for row, col in zip(cov, zip(*cov))])


def ekf_predict(belief: GaussianBelief, u, mm: MotionModel) -> GaussianBelief:
    """The belief moved by the control u: covariance F P F^T + Q."""
    u = np.asarray(u, dtype=float).reshape(3)
    mean = np.asarray(mm.f(belief.mean, u), dtype=float).reshape(3)
    jac = np.asarray(mm.jacobian(belief.mean, u), dtype=float).tolist()
    spread = algebra.product(algebra.product(jac, belief.covariance.tolist()), algebra.transpose(jac))
    cov = _sum(spread, np.asarray(mm.q, dtype=float).tolist())
    return GaussianBelief(mean=mean, covariance=_symmetrized(cov))


def ekf_update(belief: GaussianBelief, z, om: ObservationModel) -> GaussianBelief:
    """The belief after a measurement z of one or two dimensions; the
    innovation covariance is inverted in closed form."""
    z = np.atleast_1d(np.asarray(z, dtype=float))
    jac = np.atleast_2d(np.asarray(om.jacobian(belief.mean), dtype=float)).tolist()
    r = np.atleast_2d(np.asarray(om.r, dtype=float)).tolist()
    innovation = (z - np.atleast_1d(om.h(belief.mean))).tolist()
    if len(innovation) > 2:
        raise DimensionMismatchError(f"ekf_update takes 1 or 2 measured dimensions, got {len(innovation)}")
    p = belief.covariance.tolist()
    jac_t = algebra.transpose(jac)
    s = _sum(algebra.product(algebra.product(jac, p), jac_t), r)
    gain = algebra.product(algebra.product(p, jac_t), algebra.inverse2(s))
    mean = [m + d for m, d in zip(belief.mean.tolist(), algebra.transform(gain, innovation))]
    # Joseph form keeps the covariance symmetric PSD even with roundoff.
    kh = algebra.product(gain, jac)
    identity_kh = [[(1.0 if a == b else 0.0) - x for b, x in enumerate(row)] for a, row in enumerate(kh)]
    spread = algebra.product(algebra.product(identity_kh, p), algebra.transpose(identity_kh))
    cov = _sum(spread, algebra.product(algebra.product(gain, r), algebra.transpose(gain)))
    return GaussianBelief(mean=np.array(mean), covariance=_symmetrized(cov))
