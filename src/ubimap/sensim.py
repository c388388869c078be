"""Synthetic observations standing in for real RGB-D sensing.

Three streams per camera, all deterministic given (world, params, seed):
landmark points expressed in the camera's optical frame (one camera x
landmark table for all cameras), robot tag detections in the camera's
ground frame, and whole-grid obstacle evidence.

Camera 3D pose convention: the optical frame follows the usual computer
vision axes (z forward along the optical axis, x right, y down). The camera
sits at (x, y, h) and is pitched down so the optical axis hits the ground at
half the footprint depth, which centers the view on the footprint.

Noise model: landmark points and tag positions get independent N(0, sigma^2)
noise per coordinate. The draws come from the counter-based generator
Philox4x64-10 (Salmon et al., "Parallel Random Numbers: As Easy as 1, 2, 3",
SC 2011), written in numpy uint64 arithmetic (``philox4x64``). The key is
(seed, stream), with ``LANDMARK_STREAM`` or ``TAG_STREAM``; the counter is
the observation's ids, (camera, landmark, 0, 0) for a landmark and
(millisecond tick, camera, tag, 0) for a tag detection. One block of four
64-bit words gives four uniforms in (0, 1], ``((w >> 11) + 1) * 2**-53``,
and Box-Muller turns each pair into two Gaussians. A draw therefore depends
only on its own ids, whatever else is observed, and one call draws all of
an observation batch's noise. The logarithms and trigonometric functions are
``math``'s, element by element, since numpy's SIMD versions may round
differently from one CPU to another. This replaced one
``np.random.default_rng((seed, ...))`` per observation: each cost about
20 us to build, importing ``numpy.random`` loaded ``hashlib`` and OpenSSL
(about 5 MB of resident memory), and NumPy promises no stability of its
``Generator`` streams across versions.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Sequence
from typing import NamedTuple

import numpy as np

from . import algebra, geom
from .geom import RigidTransform
from .world import CameraSpec, CellState, GridWorld, covered_cells, ground_footprint, line_of_sight


class TagDetection(NamedTuple):
    camera_id: int
    tag_id: int
    ground_position: tuple[float, float]  # camera ground frame: x lateral, y forward
    timestamp: float


class ObstacleEvidence(NamedTuple):
    """One camera's occupancy evidence over the whole grid: ``observed`` marks
    the cells it sees and ``occupied`` those of them it sees occupied, both
    (height, width) bool masks."""

    camera_id: int
    observed: np.ndarray
    occupied: np.ndarray
    timestamp: float


def camera_world_poses(cameras: Sequence[CameraSpec]) -> RigidTransform:
    """Optical-frame -> world transforms of mounted cameras, one stack in
    the order given."""
    pitch = [math.atan2(cam.height, ground_footprint(cam).depth / 2.0) for cam in cameras]  # down from horizontal
    cos_pitch = np.array([math.cos(a) for a in pitch])
    forward = (np.array([-math.sin(cam.yaw) for cam in cameras]), np.array([math.cos(cam.yaw) for cam in cameras]))
    z_axis = [forward[0] * cos_pitch, forward[1] * cos_pitch, -np.array([math.sin(a) for a in pitch])]
    x_axis = [forward[1], -forward[0], np.zeros(len(cameras))]
    y_axis = algebra.cross(z_axis, x_axis)
    rotation = algebra.to_array([list(row) for row in zip(x_axis, y_axis, z_axis)])  # the axes are its columns
    translation = np.array([(cam.x, cam.y, cam.height) for cam in cameras], dtype=float).reshape(-1, 3)
    return RigidTransform(rotation, translation)


def camera_world_pose(cam: CameraSpec) -> RigidTransform:
    """Optical-frame -> world transform for one mounted camera."""
    return geom.unstack(camera_world_poses([cam]))[0]


def _in_frustum(cam: CameraSpec, p_cam: np.ndarray) -> np.ndarray:
    """Which of the (n, 3) optical-frame points the camera sees, ignoring walls.

    The range is sqrt(x^2 + y^2 + z^2) written out, and the angle tests use
    ``math.atan2``, so every decision matches a per-point evaluation exactly.
    """
    x, y, z = p_cam.T
    with np.errstate(over="ignore"):  # an infinite range fails max_range
        dist = np.sqrt(x * x + y * y + z * z)
    near = np.flatnonzero((p_cam[:, 2] > 0) & ~(dist > cam.max_range))
    out = np.zeros(len(p_cam), dtype=bool)
    out[near] = [
        abs(math.atan2(px, pz)) <= cam.hfov / 2.0 and abs(math.atan2(py, pz)) <= cam.vfov / 2.0
        for px, py, pz in p_cam[near].tolist()
    ]
    return out


# Philox4x64-10: round multipliers, split in 32-bit halves for the high words
# of the 64 x 64-bit products, and the per-round key increments (Weyl).
_MULTIPLIERS = np.array([[0xD2E7470EE14C6C93], [0xCA5A826395121157]], dtype=np.uint64)
_MULT_LO = _MULTIPLIERS & 0xFFFFFFFF
_MULT_HI = _MULTIPLIERS >> 32
_ROUNDS = 10
_KEY_BUMPS = np.array(
    [[[r * 0x9E3779B97F4A7C15 % 2**64], [r * 0xBB67AE8584CAA73B % 2**64]] for r in range(_ROUNDS)], dtype=np.uint64
)
_TAU = 2.0 * math.pi
# Second key words: one noise stream per observation kind.
LANDMARK_STREAM = 1
TAG_STREAM = 2


def philox4x64(counter, key: tuple[int, int]) -> np.ndarray:
    """Philox4x64-10 blocks: ``counter`` is (4, n) 64-bit words, one column
    per block, ``key`` two 64-bit words; returns the (4, n) uint64 output.

    Each round's two multiplications run as one (2, n) operation; the high
    word of each 128-bit product is assembled from 32-bit halves. Values
    outside [0, 2**64) raise ``OverflowError``.
    """
    words = np.asarray(counter, dtype=np.uint64).reshape(4, -1)
    keys = np.array(key, dtype=np.uint64).reshape(2, 1) + _KEY_BUMPS
    mult, other = words[0::2], words[1::2]  # lanes (0, 2) are multiplied, (1, 3) xored in
    for round_key in keys:
        lo32, hi32 = mult & 0xFFFFFFFF, mult >> 32
        lo_hi = lo32 * _MULT_HI
        cross = ((lo32 * _MULT_LO) >> 32) + (lo_hi & 0xFFFFFFFF) + hi32 * _MULT_LO
        high = hi32 * _MULT_HI + (lo_hi >> 32) + (cross >> 32)
        mult, other = high[::-1] ^ other ^ round_key, (mult * _MULTIPLIERS)[::-1]
    return np.stack([mult[0], other[0], mult[1], other[1]])


def _gaussian_noise(seed: int, stream: int, counter, sigma: float, size: int) -> np.ndarray:
    """(n, size) N(0, sigma^2) draws, size <= 4: row k holds the first
    ``size`` Box-Muller Gaussians of the Philox block at ``counter[:, k]``;
    infinities, with no warning, where sigma is too large for them."""
    uniform = ((philox4x64(counter, (seed, stream)) >> 11) + 1) * 2.0**-53  # in (0, 1]
    columns = []
    for pair in range(0, size, 2):
        radius = np.sqrt(-2.0 * np.array([math.log(u) for u in uniform[pair].tolist()]))
        angle = (_TAU * uniform[pair + 1]).tolist()
        columns.append(radius * [math.cos(a) for a in angle])
        if pair + 1 < size:
            columns.append(radius * [math.sin(a) for a in angle])
    with np.errstate(over="ignore"):
        return sigma * np.stack(columns, axis=1)


def observe_landmarks(
    cameras: Sequence[CameraSpec], world: GridWorld, sigma: float, seed: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Landmarks visible to each camera, expressed in its optical frame.

    Returns ``(landmark_ids, seen, points)``: the (m,) uint64 landmark ids
    in ascending order, a (k, m) bool mask of the landmarks each camera sees,
    cameras in the order given, and the seen optical-frame points as one
    (n, 3) array in the mask's row-major order, n = ``seen.sum()``. Noise is
    isotropic Gaussian with the given sigma, drawn at the Philox counter
    (camera id, landmark id, 0, 0) under the key (seed, ``LANDMARK_STREAM``),
    so a draw is reproducible regardless of which other cameras or
    landmarks are evaluated.
    """
    if sigma < 0:
        raise ValueError("sigma must be >= 0")
    landmarks = sorted(world.landmarks, key=lambda lm: lm.id)
    positions = np.array([lm.position.as_array() for lm in landmarks]).reshape(-1, 3)
    seen = np.zeros((len(cameras), len(landmarks)), dtype=bool)
    in_view_points = [np.empty((0, 3))]
    cam_from_world = geom.invert(camera_world_poses(cameras))
    for k, cam in enumerate(cameras):
        rotation, translation = algebra.entries(cam_from_world.rotation[k]), cam_from_world.translation[k].tolist()
        p_cam = np.stack(algebra.affine(rotation, translation, list(positions.T)), axis=-1)
        seen[k] = _in_frustum(cam, p_cam)
        in_view_points.append(p_cam[seen[k]])
    rows, cols = np.nonzero(seen)
    sights = np.array([(cam.x, cam.y) for cam in cameras]).reshape(-1, 2)
    visible = line_of_sight(world, sights[rows], positions[cols, :2])
    seen[rows[~visible], cols[~visible]] = False
    points = np.concatenate(in_view_points)[visible]
    ids = np.array([lm.id for lm in landmarks], dtype=np.uint64)
    if sigma > 0:
        camera_ids = np.array([cam.id for cam in cameras], dtype=np.uint64)
        counter = np.zeros((4, len(points)), dtype=np.uint64)
        counter[0], counter[1] = camera_ids[rows[visible]], ids[cols[visible]]
        points = points + _gaussian_noise(seed, LANDMARK_STREAM, counter, sigma, 3)
    return ids, seen, points


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
    camera's ground frame plus planar Gaussian noise, drawn at the Philox
    counter (millisecond tick, camera id, tag, 0) under the key (seed,
    ``TAG_STREAM``), all of a call's detections in one draw. Pass
    footprints, one covered-cell mask per camera, to reuse them across ticks.
    """
    if sigma < 0:
        raise ValueError("sigma must be >= 0")
    if footprints is None:
        footprints = covered_cells(cameras, world)
    robots = sorted(world.robots, key=lambda r: r.tag)
    cols, rows = np.array([world.cell_of(r.x, r.y) for r in robots], dtype=np.int64).reshape(-1, 2).T
    hits, local = [], []
    for cam, footprint in zip(cameras, footprints):
        fp = ground_footprint(cam)
        for robot in itertools.compress(robots, footprint[rows, cols].tolist()):
            hits.append((cam, robot))
            local.append(fp.to_local(robot.x, robot.y))
    if sigma > 0 and hits:
        tick_ms = int(round(t * 1000.0))
        counter = [[tick_ms] * len(hits), [cam.id for cam, _ in hits], [robot.tag for _, robot in hits], [0] * len(hits)]
        local = (np.array(local) + _gaussian_noise(seed, TAG_STREAM, counter, sigma, 2)).tolist()
    return [
        TagDetection(camera_id=cam.id, tag_id=robot.tag, ground_position=(float(x), float(y)), timestamp=t)
        for (cam, robot), (x, y) in zip(hits, local)
    ]


def observe_obstacles(
    cameras: Sequence[CameraSpec],
    world: GridWorld,
    t: float = 0.0,
    footprints: Sequence[np.ndarray] | None = None,
) -> list[ObstacleEvidence]:
    """Each camera's occupancy evidence over its visible footprint, in camera order.

    A cell is reported occupied when an obstacle or a robot sits in it, as
    ``world.cell_states`` tells, free otherwise. The simulated detector is
    exact (ground truth); uncertainty enters through the localization
    streams. Pass footprints, one covered-cell mask per camera, to reuse
    them across ticks; the evidence shares them as its ``observed`` masks.
    """
    if footprints is None:
        footprints = covered_cells(cameras, world)
    occupied = world.cell_states >= CellState.OBSTACLE
    return [ObstacleEvidence(cam.id, seen, seen & occupied, t) for cam, seen in zip(cameras, footprints)]
