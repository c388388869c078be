"""Reference implementations the tests compare the package against.

- ``is_close``: two rigid transforms equal within Frobenius tolerances;
  ``skew``, the cross-product matrix of a 3-vector; ``rot_x``, ``rot_z``,
  ``point_from_array`` and ``footprint_to_world``, small constructors and
  the inverse of ``GroundFootprint.to_local``.
- ``cost_gradient``: the calibration cost's gradient from its normal
  equations; ``stack_pairs``: the calibration's correspondence table from
  per-pair lists; ``build_plan``: the placement plan of a given selection.
- ``kabsch``: least-squares rigid alignment by LAPACK's SVD (Kabsch 1976),
  the reference for ``calib``'s batched Horn fit.
- The discrete Bayes grid filter (``GridBelief``, ``bayes_grid_step``): the
  EKF's brute-force oracle on linear-Gaussian cases.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ubimap import calib, coverage, world
from ubimap.fusion import CellState, GridMap, MotionModel, ObservationModel
from ubimap.geom import Point3, RigidTransform


def is_close(a: RigidTransform, b: RigidTransform, rot_tol: float = 1e-9, tra_tol: float = 1e-9) -> bool:
    # Frobenius norm on the rotation difference: a tolerance on it bounds
    # every entry, which an angle does not.
    return (
        float(np.linalg.norm(a.rotation - b.rotation)) <= rot_tol
        and float(np.linalg.norm(a.translation - b.translation)) <= tra_tol
    )


def skew(v) -> np.ndarray:
    """Cross-product matrix: skew(v) @ w == cross(v, w)."""
    x, y, z = np.asarray(v, dtype=float)
    return np.array([[0.0, -z, y], [z, 0.0, -x], [-y, x, 0.0]])


def rot_x(angle: float) -> RigidTransform:
    c, s = math.cos(angle), math.sin(angle)
    return RigidTransform([[1, 0, 0], [0, c, -s], [0, s, c]], np.zeros(3))


def rot_z(angle: float) -> RigidTransform:
    c, s = math.cos(angle), math.sin(angle)
    return RigidTransform([[c, -s, 0], [s, c, 0], [0, 0, 1]], np.zeros(3))


def point_from_array(a) -> Point3:
    a = np.asarray(a, dtype=float).reshape(3)
    return Point3(float(a[0]), float(a[1]), float(a[2]))


def footprint_to_world(fp: world.GroundFootprint, lx: float, ly: float) -> tuple[float, float]:
    """The world point of footprint-local (lx, ly): ``to_local`` inverted."""
    c, s = math.cos(fp.yaw), math.sin(fp.yaw)
    return fp.x + c * lx - s * ly, fp.y + s * lx + c * ly


def cost_gradient(graph: calib.TransformGraph, rotations: np.ndarray, translations: np.ndarray) -> np.ndarray:
    """Analytic gradient of the total cost w.r.t. the free pose parameters
    (all cameras except the reference, in ``graph.nodes`` order)."""
    return 2.0 * calib._normal_equations(graph, rotations, translations)[1]


def stack_pairs(pairwise) -> calib.Correspondences:
    """The correspondence table of per-pair ``(camera_i, camera_j, points_i,
    points_j)`` lists, pairs and rows in the order given."""
    return calib.Correspondences(
        np.array([(i, j) for i, j, _, _ in pairwise], dtype=np.uint64).reshape(-1, 2),
        np.array([len(p) for _, _, p, _ in pairwise], dtype=np.intp),
        np.concatenate([np.empty((0, 3))] + [np.reshape(p, (-1, 3)) for _, _, p, _ in pairwise]),
        np.concatenate([np.empty((0, 3))] + [np.reshape(p, (-1, 3)) for _, _, _, p in pairwise]),
    )


def build_plan(problem: coverage.CoverageProblem, selected_ids: tuple[int, ...]) -> coverage.PlacementPlan:
    """Assemble a PlacementPlan for an explicit selection of candidate ids."""
    by_id = {cam.id: cam for cam in problem.candidates}
    return coverage._plan(problem, selected_ids, world.covered_cells([by_id[cid] for cid in selected_ids], problem.world))


def kabsch(src: np.ndarray, dst: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Rotation and translation minimizing sum_k |R src_k + t - dst_k|^2,
    from the SVD of the cross-covariance with the reflection corrected."""
    src_c, dst_c = src - src.mean(axis=0), dst - dst.mean(axis=0)
    u, _, vt = np.linalg.svd(src_c.T @ dst_c)
    d = np.sign(np.linalg.det(vt.T @ u.T))
    rotation = vt.T @ np.diag([1.0, 1.0, d]) @ u.T
    return rotation, dst.mean(axis=0) - rotation @ src.mean(axis=0)


# -- discrete Bayes filter ------------------------------------------------------


class DegenerateLikelihoodError(ValueError):
    """The measurement is incompatible with every grid state."""



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
