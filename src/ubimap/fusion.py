"""Central map server logic: evidence fusion into the shared occupancy map,
robot-map merging, and the robot localization filters.

Map cell states and their wire byte values: Unexplored=0, Explored=1,
Wall=2, Obstacle=3, Robot=4. GridMap is the server's fused map only; a
robot's fragment, a client's copy and a rendered ground truth are plain
(height, width) uint8 arrays of these states.

Fusion rules (per frame):
    - A cell leaves Unexplored only when some camera first observes it.
    - Known structural walls become Wall on first observation and never
      change afterwards.
    - Within a frame: a tag-localized robot beats occupied evidence, which
      beats free evidence (occupied-wins on camera conflicts).
    - An Obstacle cell decays back to Explored once it has been seen free
      for 2 s straight; unobserved cells keep their last state.

The filters estimate robot pose against the current fused map; the map
itself is owned by the camera network, not the filter. The discrete grid
filter is the brute-force oracle for the EKF on linear-Gaussian cases.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import IntEnum
from typing import Callable

import numpy as np

from .geom import RigidTransform
from .sensim import ObstacleEvidence, TagDetection
from .world import CellIndex, cell_mask

OBSTACLE_CLEAR_SECONDS = 2.0


class DimensionMismatchError(ValueError):
    pass


class DegenerateLikelihoodError(ValueError):
    """The measurement is incompatible with every grid state."""


class CellState(IntEnum):
    UNEXPLORED = 0
    EXPLORED = 1
    WALL = 2
    OBSTACLE = 3
    ROBOT = 4


class GridMap:
    """The server's fused occupancy map. Single-writer: one fusion step at
    a time.

    known_walls is the static structure the map server is configured with
    (cells off the grid are ignored); tag_registry maps visual tag ids to
    robot ids. cells holds the (height, width) state bytes; every fusion
    rule reads and writes it as whole-grid arrays.
    """

    def __init__(
        self,
        width: int,
        height: int,
        cell_size: float,
        known_walls: frozenset[CellIndex] = frozenset(),
        tag_registry: dict[int, int] | None = None,
    ) -> None:
        if width <= 0 or height <= 0 or cell_size <= 0:
            raise ValueError("GridMap dimensions must be positive")
        self.width = width
        self.height = height
        self.cell_size = cell_size
        self.known_walls = known_walls
        self.tag_registry = dict(tag_registry or {})
        self.cells = np.zeros((height, width), dtype=np.uint8)
        self.robot_poses: dict[int, tuple[float, float, float]] = {}
        self.revision = 0
        self.faults: list[str] = []
        self._wall_mask = cell_mask(width, height, known_walls)
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
    new[observed & grid_map._wall_mask] = CellState.WALL
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
    """Robot pose belief: mean (x, y, theta) and 3x3 covariance."""

    mean: np.ndarray
    covariance: np.ndarray

    def __post_init__(self) -> None:
        mean = np.asarray(self.mean, dtype=float).reshape(3)
        cov = np.asarray(self.covariance, dtype=float).reshape(3, 3)
        if not (np.all(np.isfinite(mean)) and np.all(np.isfinite(cov))):
            raise ValueError("belief entries must be finite")
        if float(np.max(np.abs(cov - cov.T))) > 1e-12:
            raise ValueError("covariance must be symmetric")
        eigenvalues = np.linalg.eigvalsh(cov)
        if float(eigenvalues.min()) < -1e-12:
            raise ValueError(f"covariance must be PSD, min eigenvalue {eigenvalues.min():.3e}")
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


def ekf_predict(belief: GaussianBelief, u, mm: MotionModel) -> GaussianBelief:
    u = np.asarray(u, dtype=float).reshape(3)
    mean = np.asarray(mm.f(belief.mean, u), dtype=float).reshape(3)
    jac = np.asarray(mm.jacobian(belief.mean, u), dtype=float)
    cov = jac @ belief.covariance @ jac.T + np.asarray(mm.q, dtype=float)
    cov = 0.5 * (cov + cov.T)
    return GaussianBelief(mean=mean, covariance=cov)


def ekf_update(belief: GaussianBelief, z, om: ObservationModel) -> GaussianBelief:
    z = np.atleast_1d(np.asarray(z, dtype=float))
    jac = np.asarray(om.jacobian(belief.mean), dtype=float)
    r = np.asarray(om.r, dtype=float)
    innovation = z - np.atleast_1d(om.h(belief.mean))
    s = jac @ belief.covariance @ jac.T + r
    gain = belief.covariance @ jac.T @ np.linalg.inv(s)
    mean = belief.mean + gain @ innovation
    # Joseph form keeps the covariance symmetric PSD even with roundoff.
    identity_kh = np.eye(3) - gain @ jac
    cov = identity_kh @ belief.covariance @ identity_kh.T + gain @ r @ gain.T
    cov = 0.5 * (cov + cov.T)
    return GaussianBelief(mean=mean, covariance=cov)


# -- discrete Bayes filter (the EKF's brute-force oracle) ---------------------


@dataclass
class GridBelief:
    """Pose probabilities over map cells x heading bins.

    probs has shape (rows, cols, headings) and sums to one; eta is the
    normalizer applied by the most recent step.
    """

    probs: np.ndarray
    cell_size: float
    eta: float = 1.0

    def __post_init__(self) -> None:
        self.probs = np.asarray(self.probs, dtype=float)
        if self.probs.ndim != 3:
            raise ValueError("probs must have shape (rows, cols, headings)")
        total = float(self.probs.sum())
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"probabilities must sum to 1, got {total}")

    @staticmethod
    def uniform(rows: int, cols: int, headings: int, cell_size: float) -> "GridBelief":
        probs = np.full((rows, cols, headings), 1.0 / (rows * cols * headings))
        return GridBelief(probs=probs, cell_size=cell_size)

    @staticmethod
    def delta(rows: int, cols: int, headings: int, cell_size: float, at: tuple[int, int, int]) -> "GridBelief":
        probs = np.zeros((rows, cols, headings))
        row, col, heading = at
        probs[row, col, heading] = 1.0
        return GridBelief(probs=probs, cell_size=cell_size)

    def state_vector(self, row: int, col: int, heading: int) -> np.ndarray:
        headings = self.probs.shape[2]
        return np.array(
            [
                (col + 0.5) * self.cell_size,
                (row + 0.5) * self.cell_size,
                2.0 * math.pi * heading / headings,
            ]
        )


def _axis_kernel(centers: np.ndarray, mean: float, variance: float, wrap: float | None = None) -> np.ndarray:
    """Normalized 1D motion kernel over grid centers; a delta when noiseless."""
    if variance < 1e-15:
        diff = np.abs(centers - mean)
        if wrap is not None:
            diff = np.minimum(diff, wrap - diff)
        kernel = np.zeros(len(centers))
        kernel[int(np.argmin(diff))] = 1.0
        return kernel
    diff = centers - mean
    if wrap is not None:
        diff = (diff + wrap / 2.0) % wrap - wrap / 2.0
    kernel = np.exp(-0.5 * diff**2 / variance)
    total = kernel.sum()
    if total <= 0:
        # The motion lands far off-grid; keep mass at the nearest state.
        return _axis_kernel(centers, mean, 0.0, wrap)
    return kernel / total


def bayes_grid_step(
    gb: GridBelief,
    u,
    z,
    mm: MotionModel,
    om: ObservationModel | None,
    grid_map: GridMap | None = None,
) -> GridBelief:
    """One predict/update cycle of the discrete Bayes filter.

    The prior is pushed through the motion kernel N(f(state, u), diag(Q)),
    multiplied by the measurement likelihood (skipped when z or the model is
    None), masked by the map's wall cells, and renormalized. Raises
    DegenerateLikelihoodError when no state remains possible.
    """
    rows, cols, headings = gb.probs.shape
    u = np.asarray(u, dtype=float).reshape(3)
    q = np.diag(np.asarray(mm.q, dtype=float))
    x_centers = (np.arange(cols) + 0.5) * gb.cell_size
    y_centers = (np.arange(rows) + 0.5) * gb.cell_size
    theta_centers = 2.0 * math.pi * np.arange(headings) / headings

    predicted = np.zeros_like(gb.probs)
    for row in range(rows):
        for col in range(cols):
            for heading in range(headings):
                p = gb.probs[row, col, heading]
                if p == 0.0:
                    continue
                mean = np.asarray(mm.f(gb.state_vector(row, col, heading), u), dtype=float)
                kx = _axis_kernel(x_centers, mean[0], q[0])
                ky = _axis_kernel(y_centers, mean[1], q[1])
                kt = _axis_kernel(theta_centers, mean[2] % (2 * math.pi), q[2], wrap=2 * math.pi)
                predicted += p * (ky[:, None, None] * kx[None, :, None] * kt[None, None, :])

    if z is not None and om is not None:
        z = np.atleast_1d(np.asarray(z, dtype=float))
        r_inv = np.linalg.inv(np.atleast_2d(np.asarray(om.r, dtype=float)))
        for row in range(rows):
            for col in range(cols):
                for heading in range(headings):
                    if predicted[row, col, heading] == 0.0:
                        continue
                    diff = z - np.atleast_1d(om.h(gb.state_vector(row, col, heading)))
                    predicted[row, col, heading] *= math.exp(-0.5 * float(diff @ r_inv @ diff))

    if grid_map is not None:
        predicted[grid_map.cells == CellState.WALL] = 0.0

    total = float(predicted.sum())
    if not math.isfinite(total) or total <= 0.0:
        raise DegenerateLikelihoodError("measurement is incompatible with every grid state")
    return GridBelief(probs=predicted / total, cell_size=gb.cell_size, eta=1.0 / total)
