"""Pipeline stages the CLI runs whole: a scenario's calibration, from the
cameras' simulated landmark captures to pose stacks and their errors, and
the images it writes. Rendering loads neither ``calib`` nor ``sensim``."""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

import ubimap

from .world import Scenario

# Map palette, one row per cell state: unexplored dark gray, explored light
# gray, wall black, obstacles red, robots green.
PALETTE = np.array([(96, 96, 96), (200, 200, 200), (0, 0, 0), (220, 0, 0), (0, 200, 0)], dtype=np.uint8)


def _ppm(image: np.ndarray) -> bytes:
    """Binary portable-pixmap of an (height, width, 3) uint8 image, row 0 first."""
    height, width = image.shape[:2]
    return f"P6\n{width} {height}\n255\n".encode("ascii") + image.tobytes()


def render_map(cells: np.ndarray) -> bytes:
    """Binary portable-pixmap of a (height, width) array of cell states,
    row 0 first, 3 bytes per cell."""
    return _ppm(PALETTE[cells])


def coverage_heatmap(problem: ubimap.coverage.CoverageProblem, plan: ubimap.coverage.PlacementPlan) -> bytes:
    """Cells shaded by coverage multiplicity relative to the most covered one; walls black."""
    level = (255 * plan.counts // max(1, plan.counts.max())).astype(np.uint8)
    image = np.stack([level, level, np.full_like(level, 64)], axis=-1)
    image[problem.world.walls] = 0
    return _ppm(image)


class CalibrationResult(NamedTuple):
    """The camera graph, the accepted LM costs and three pose stacks in
    ``graph.nodes`` order, in the frame of the reference camera (the lowest
    id, ``graph.nodes[0]``): as propagated, as refined, and the truth."""

    graph: ubimap.calib.TransformGraph
    initial: ubimap.geom.RigidTransform
    refined: ubimap.geom.RigidTransform
    cost_trace: list[float]
    true_poses: ubimap.geom.RigidTransform

    def pose_errors(self) -> tuple[list[float], list[float]]:
        """Each camera's refined pose against the truth, cameras in
        ``graph.nodes`` order: the rotation angles and the translation
        distances."""
        pairs = zip(self.refined.translation.tolist(), self.true_poses.translation.tolist())
        return ubimap.geom.rotation_distance(self.refined, self.true_poses), [math.dist(p, q) for p, q in pairs]

    def loop_errors(self) -> tuple[list[float], ...]:
        """Each edge's loop-closure error in edge order, under the propagated poses, then under the refined ones."""
        stacks = (self.initial, self.refined)
        return tuple(ubimap.calib.loop_closure_error(self.graph, p.rotation, p.translation).tolist() for p in stacks)


def _shared_landmark_pairs(camera_ids: list[int], seen: np.ndarray, points: np.ndarray) -> ubimap.calib.Correspondences:
    """The camera pairs, in camera order, that see at least 3 landmarks in
    common, with each pair's shared observations in landmark id order, from
    ``observe_landmarks``' seen mask and points for cameras ``camera_ids``.
    The shared landmarks come from ANDed bit-packed mask rows, each
    camera's row against every later one's counted by popcount, and each
    observation's row in ``points`` from a search among the mask's flat
    indices: the packed rows, an eighth of the mask, are the only (cameras x
    landmarks) temporary."""
    packed = np.packbits(seen, axis=1)
    shared = np.zeros((len(seen), len(seen)), dtype=np.intp)
    for i in range(len(seen) - 1):
        shared[i, i + 1 :] = np.bitwise_count(packed[i] & packed[i + 1 :]).sum(axis=1)
    a, b = np.nonzero(shared >= 3)
    pair, landmark = np.nonzero(np.unpackbits(packed[a] & packed[b], axis=1, count=seen.shape[1]))
    observed = np.flatnonzero(seen)  # points' rows, as flat (camera, landmark) indices
    ids = np.array(camera_ids, dtype=np.uint64)
    return ubimap.calib.Correspondences(
        np.stack([ids[a], ids[b]], axis=1),
        np.bincount(pair, minlength=len(a)),
        points[np.searchsorted(observed, a[pair] * seen.shape[1] + landmark)],
        points[np.searchsorted(observed, b[pair] * seen.shape[1] + landmark)],
    )


def calibrate_scenario(scenario: Scenario, sigma: float, seed: int) -> CalibrationResult:
    """Full calibration: simulated landmark captures, pairwise ICP edges,
    propagation from the lowest camera id, then global refinement."""
    cams = sorted(scenario.cameras, key=lambda c: c.id)
    if not cams:
        raise ValueError("scenario has no cameras to calibrate")
    # The landmark rows live only in this statement: the graph keeps each pair's moments.
    graph = ubimap.calib.build_graph(
        _shared_landmark_pairs([c.id for c in cams], *ubimap.sensim.observe_landmarks(cams, scenario.world, sigma, seed)[1:]),
        cams[0].id, nodes=tuple(c.id for c in cams),
    )
    initial = ubimap.calib.propagate(graph)  # raises DisconnectedGraphError
    refined, trace = ubimap.calib.refine(graph, initial)

    world_poses = ubimap.sensim.camera_world_poses(cams)  # graph.nodes order, the reference first
    ref_inverse = ubimap.geom.invert(ubimap.geom.RigidTransform(world_poses.rotation[0], world_poses.translation[0]))
    return CalibrationResult(graph, initial, refined, trace, ubimap.geom.compose(ref_inverse, world_poses))
