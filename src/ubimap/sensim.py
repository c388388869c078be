"""Synthetic observations standing in for real RGB-D sensing.

Three streams per camera, all deterministic given (world, params, seed):
landmark points expressed in the camera's optical frame (one camera x
landmark table for all cameras), robot tag detections in the camera's
ground frame, and whole-grid obstacle evidence.

Camera 3D pose convention: the optical frame follows the usual computer
vision axes (z forward along the optical axis, x right, y down). The camera
sits at (x, y, h) and is pitched down so the optical axis hits the ground at
half the footprint depth, which centers the view on the footprint.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from . import geom
from .geom import RigidTransform
from .world import CameraSpec, GridWorld, cell_mask, covered_cells, ground_footprint, line_of_sight


@dataclass(frozen=True)
class TagDetection:
    camera_id: int
    tag_id: int
    ground_position: tuple[float, float]  # camera ground frame: x lateral, y forward
    timestamp: float


@dataclass(frozen=True)
class ObstacleEvidence:
    """One camera's occupancy evidence over the whole grid: ``observed`` marks
    the cells it sees and ``occupied`` those of them it sees occupied, both
    (height, width) bool masks."""

    camera_id: int
    observed: np.ndarray
    occupied: np.ndarray
    timestamp: float


def camera_world_pose(cam: CameraSpec) -> RigidTransform:
    """Optical-frame -> world transform for a mounted camera."""
    fp = ground_footprint(cam)
    forward2d = np.array([-math.sin(cam.yaw), math.cos(cam.yaw)])
    pitch = math.atan2(cam.height, fp.depth / 2.0)  # down from horizontal
    z_axis = np.array(
        [forward2d[0] * math.cos(pitch), forward2d[1] * math.cos(pitch), -math.sin(pitch)]
    )
    x_axis = np.array([forward2d[1], -forward2d[0], 0.0])
    y_axis = np.cross(z_axis, x_axis)
    rotation = np.column_stack([x_axis, y_axis, z_axis])
    return RigidTransform(rotation, (cam.x, cam.y, cam.height))


def _in_frustum(cam: CameraSpec, p_cam: np.ndarray) -> np.ndarray:
    """Which of the (n, 3) optical-frame points the camera sees, ignoring walls.

    The range test rounds as ``np.linalg.norm`` does per point, and the
    angle tests use ``math.atan2``, so every decision matches a per-point
    evaluation exactly.
    """
    dist = np.sqrt((p_cam[:, None, :] @ p_cam[:, :, None])[:, 0, 0])
    near = np.flatnonzero((p_cam[:, 2] > 0) & ~(dist > cam.max_range))
    out = np.zeros(len(p_cam), dtype=bool)
    out[near] = [
        abs(math.atan2(px, pz)) <= cam.hfov / 2.0 and abs(math.atan2(py, pz)) <= cam.vfov / 2.0
        for px, py, pz in p_cam[near].tolist()
    ]
    return out


def observe_landmarks(
    cameras: Sequence[CameraSpec], world: GridWorld, sigma: float, seed: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Landmarks visible to each camera, expressed in its optical frame.

    Returns ``(landmark_ids, seen, points)``: the (m,) landmark ids in
    ascending order, a (k, m) bool mask of the landmarks each camera sees,
    cameras in the order given, and the seen optical-frame points as one
    (n, 3) array in the mask's row-major order, n = ``seen.sum()``. Noise is
    isotropic Gaussian with the given sigma; the generator is seeded per
    (seed, camera, landmark), so a stream is reproducible regardless of
    which other cameras or landmarks are evaluated.
    """
    if sigma < 0:
        raise ValueError("sigma must be >= 0")
    landmarks = sorted(world.landmarks, key=lambda lm: lm.id)
    positions = np.array([lm.position.as_array() for lm in landmarks]).reshape(-1, 3)
    seen = np.zeros((len(cameras), len(landmarks)), dtype=bool)
    in_view_points = [np.empty((0, 3))]
    for k, cam in enumerate(cameras):
        cam_from_world = geom.invert(camera_world_pose(cam))
        # A stack of 3x3 @ 3x1 products rounds exactly as one matvec per point.
        p_cam = (cam_from_world.rotation @ positions[:, :, None])[:, :, 0] + cam_from_world.translation
        seen[k] = _in_frustum(cam, p_cam)
        in_view_points.append(p_cam[seen[k]])
    rows, cols = np.nonzero(seen)
    sights = np.array([(cam.x, cam.y) for cam in cameras]).reshape(-1, 2)
    visible = line_of_sight(world, sights[rows], positions[cols, :2])
    seen[rows[~visible], cols[~visible]] = False
    points = np.concatenate(in_view_points)[visible]
    if sigma > 0:
        noise = [
            np.random.default_rng((seed, cameras[k].id, landmarks[i].id)).normal(0.0, sigma, size=3)
            for k, i in zip(rows[visible].tolist(), cols[visible].tolist())
        ]
        points = points + np.reshape(noise, (-1, 3))
    return np.array([lm.id for lm in landmarks], dtype=np.int64), seen, points


def observe_tags(
    cameras: Sequence[CameraSpec],
    world: GridWorld,
    sigma: float,
    seed: int,
    t: float,
    footprints: Sequence[np.ndarray] | None = None,
) -> list[TagDetection]:
    """One detection per camera and robot whose cell the camera covers, in
    camera order, then tag order.

    The measured position is the robot's true ground position in the
    camera's ground frame plus planar Gaussian noise, seeded per
    (seed, millisecond tick, camera, tag). Pass footprints, one covered-cell
    mask per camera, to reuse them across ticks.
    """
    if sigma < 0:
        raise ValueError("sigma must be >= 0")
    if footprints is None:
        footprints = covered_cells(cameras, world)
    robots = sorted(world.robots, key=lambda r: r.tag)
    cols, rows = np.array([world.cell_of(r.x, r.y) for r in robots], dtype=np.int64).reshape(-1, 2).T
    tick_ms = int(round(t * 1000.0))
    out: list[TagDetection] = []
    for cam, footprint in zip(cameras, footprints):
        fp = ground_footprint(cam)
        for robot in itertools.compress(robots, footprint[rows, cols].tolist()):
            local = np.array(fp.to_local(robot.x, robot.y))
            if sigma > 0:
                rng = np.random.default_rng((seed, tick_ms, cam.id, robot.tag))
                local = local + rng.normal(0.0, sigma, size=2)
            out.append(
                TagDetection(
                    camera_id=cam.id,
                    tag_id=robot.tag,
                    ground_position=(float(local[0]), float(local[1])),
                    timestamp=t,
                )
            )
    return out


def observe_obstacles(
    cameras: Sequence[CameraSpec],
    world: GridWorld,
    t: float = 0.0,
    footprints: Sequence[np.ndarray] | None = None,
) -> list[ObstacleEvidence]:
    """Each camera's occupancy evidence over its visible footprint, in camera order.

    A cell is reported occupied when an obstacle or a robot currently sits
    in it, free otherwise. The simulated detector is exact (ground truth);
    uncertainty enters the system through the localization streams instead.
    Pass footprints, one covered-cell mask per camera, to reuse them across
    ticks; the evidence shares them as its ``observed`` masks.
    """
    if footprints is None:
        footprints = covered_cells(cameras, world)
    cells = [ob.cell for ob in world.obstacles] + [world.cell_of(r.x, r.y) for r in world.robots]
    occupied = cell_mask(world.width, world.height, cells)
    return [ObstacleEvidence(cam.id, seen, seen & occupied, t) for cam, seen in zip(cameras, footprints)]
