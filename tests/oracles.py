"""Reference implementations the tests compare the package against.

- ``is_close``: two rigid transforms equal within Frobenius tolerances;
  ``skew``, the cross-product matrix of a 3-vector; ``rot_x``, ``rot_z``,
  ``point_from_array`` and ``footprint_to_world``, small constructors and
  the inverse of ``GroundFootprint.to_local``; ``cell_mask``, a grid mask
  from a list of cells.
- ``normal_equations``: the calibration's normal equations at a pose set;
  ``cost_gradient``: the cost's gradient from them; ``refine_per_call``:
  the refinement loop forming the relative poses in every cost and
  normal-equation call; ``stack_pairs``: the calibration's correspondence table from
  per-pair lists; ``graph_edges``: a calibration graph's edge stacks one
  edge at a time; ``build_plan``: the placement plan of a given selection;
  ``target_cells`` and ``violations``: a problem's targets and a plan's
  violated cells, listed cell by cell.
- ``band_solve_summed``: the banded Cholesky solve with its trailing update
  summed from a (6, rows, width) product, the form ``algebra.band_solve``'s
  one buffer replaces.
- ``row_graph_cost`` and ``row_normal_equations``: the calibration cost and
  its normal equations from every landmark row of the pair table, one
  residual per row, the form the graph's per-edge moments replace.
- ``kabsch``: least-squares rigid alignment by LAPACK's SVD (Kabsch 1976),
  the reference for ``calib``'s batched Horn fit.
- The discrete Bayes grid filter (``GridBelief``, ``bayes_grid_step``): the
  EKF's brute-force oracle on linear-Gaussian cases.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import as_strided

from ubimap import algebra, calib, coverage, world
from ubimap.algebra import cross, inner
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


def normal_equations(graph: calib.TransformGraph, rotations: np.ndarray, translations: np.ndarray) -> tuple:
    """``calib._normal_equations`` at the poses, their relative poses formed
    for this call, with J^T r put in ``graph.nodes`` order."""
    band, jtr = calib._normal_equations(graph, rotations, calib._relative_poses(graph, rotations, translations))
    return band, jtr.reshape(-1, 6)[np.argsort(graph.table.order)].reshape(-1)


def cost_gradient(graph: calib.TransformGraph, rotations: np.ndarray, translations: np.ndarray) -> np.ndarray:
    """Analytic gradient of the total cost w.r.t. the free pose parameters
    (all cameras except the reference, in ``graph.nodes`` order)."""
    return 2.0 * normal_equations(graph, rotations, translations)[1]


def refine_per_call(graph: calib.TransformGraph, initial: RigidTransform) -> tuple[RigidTransform, list[float]]:
    """``calib.refine``'s Levenberg-Marquardt loop with every cost
    evaluation and every normal-equation build forming the poses' relative
    poses afresh: twice per accepted pose set, and again for a band rebuilt
    after a rejected step."""
    rotations, translations = initial.rotation, initial.translation
    cost = calib.graph_cost(graph, rotations, translations)
    trace = [cost]
    if len(graph.nodes) == 1 or not len(graph.residuals):
        return initial, trace
    order = graph.table.order
    position = np.argsort(order)
    damping = 1e-3
    for _ in range(calib.REFINE_ITERATIONS):
        band, jtr = normal_equations(graph, rotations, translations)
        if float(np.max(np.abs(2.0 * jtr))) < calib.GRADIENT_TOL:
            break
        stepped = False
        rhs = -jtr.reshape(-1, 6)[order].reshape(-1)
        while damping < 1e12:
            if band is None:
                band = normal_equations(graph, rotations, translations)[0]
            try:
                step = algebra.band_solve(band, damping, rhs)
            except np.linalg.LinAlgError:
                damping *= 10.0
                continue
            finally:
                band = None
            if float(np.sum(step * (damping * step + rhs))) <= calib.RELATIVE_COST_TOL * cost:
                break
            candidate = calib._apply_step(graph, rotations, translations, step.reshape(-1, 6)[position].reshape(-1))
            new_cost = calib.graph_cost(graph, *candidate)
            if new_cost < cost:
                rotations, translations = candidate
                relative_drop = (cost - new_cost) / max(cost, 1e-300)
                cost = new_cost
                trace.append(cost)
                damping = max(damping / 10.0, 1e-12)
                stepped = True
                break
            damping *= 10.0
        if not stepped or relative_drop < calib.RELATIVE_COST_TOL:
            break
    return RigidTransform(rotations, translations), trace


def band_solve_summed(band: np.ndarray, damping: float, rhs: np.ndarray) -> np.ndarray:
    """``algebra.band_solve`` with each slice of the trailing update summed
    from its (6, rows, width) product by ``.sum(axis=0)``."""
    size, width = band.shape
    band[:, 0] += damping
    item = band.itemsize
    dense = as_strided(band, shape=(size, size), strides=(item, item * (width - 1)))
    padded = np.zeros((6, 2 * width))
    shifted = as_strided(padded, shape=(6, width, width), strides=(2 * width * item, item, item))
    inverses, x = [], rhs.copy()
    for s in range(0, size, 6):
        n = min(width, size - s) - 6
        inverse = np.array(algebra.inverse_cholesky(dense[s : s + 6, s : s + 6].tolist()), dtype=float)
        inverses.append(inverse)
        x[s : s + 6] = (inverse * x[s : s + 6]).sum(axis=1)
        panel = dense[s + 6 : s + 6 + n, s : s + 6].T
        panel[...] = padded[:, :n] = (inverse[:, :, None] * panel).sum(axis=1)
        padded[:, n:] = 0.0
        x[s + 6 : s + 6 + n] -= (panel * x[s : s + 6, None]).sum(axis=0)
        for c in range(0, n, algebra.UPDATE_ROWS):
            e = min(c + algebra.UPDATE_ROWS, n)
            band[s + 6 + c : s + 6 + e, : n - c] -= (shifted[:, c:e, : n - c] * panel[:, c:e, None]).sum(axis=0)
    for s in range(size - 6, -1, -6):
        n = min(width, size - s) - 6
        rest = x[s : s + 6] - (dense[s + 6 : s + 6 + n, s : s + 6].T * x[s + 6 : s + 6 + n]).sum(axis=1)
        x[s : s + 6] = (inverses.pop() * rest[:, None]).sum(axis=0)
    return x


@dataclass(frozen=True)
class Edge:
    camera_i: int
    camera_j: int
    transform: RigidTransform  # pose of camera j in camera i's frame
    residual: float


def graph_edges(graph: calib.TransformGraph) -> list[Edge]:
    """The graph's edges one at a time, in edge order."""
    return [
        Edge(i, j, RigidTransform(rotation, translation), residual)
        for (i, j), rotation, translation, residual in zip(
            graph.cameras.tolist(), graph.rotations, graph.translations, graph.residuals.tolist()
        )
    ]


def stack_pairs(pairwise) -> calib.Correspondences:
    """The correspondence table of per-pair ``(camera_i, camera_j, points_i,
    points_j)`` lists, pairs and rows in the order given."""
    return calib.Correspondences(
        np.array([(i, j) for i, j, _, _ in pairwise], dtype=np.uint64).reshape(-1, 2),
        np.array([len(p) for _, _, p, _ in pairwise], dtype=np.intp),
        np.concatenate([np.empty((0, 3))] + [np.reshape(p, (-1, 3)) for _, _, p, _ in pairwise]),
        np.concatenate([np.empty((0, 3))] + [np.reshape(p, (-1, 3)) for _, _, _, p in pairwise]),
    )


def _row_residuals(graph: calib.TransformGraph, pairs: calib.Correspondences, rotations, translations):
    """Each row's p_j, q = E p_j + t and r = q - p_i as (3, m) entries, the
    rows' (E, 3, 3) relative rotations and each edge's first row; ``pairs``
    holds the graph's edges' rows, edge after edge."""
    rotation, translation = calib._relative_poses(graph, rotations, translations)
    counts = pairs.counts
    e_rows = [[np.repeat(rotation[:, a, b], counts) for b in range(3)] for a in range(3)]
    p_j = list(pairs.points_j.T)
    moved = algebra.affine(e_rows, [np.repeat(x, counts) for x in translation.T], p_j)
    return p_j, moved, [q - p for q, p in zip(moved, pairs.points_i.T)], e_rows, rotation, np.cumsum(counts) - counts


def row_graph_cost(graph: calib.TransformGraph, pairs: calib.Correspondences, rotations, translations) -> float:
    """The total cost from the rows: per edge a reduceat segment, then edge
    after edge."""
    if not len(graph.residuals):
        return 0.0
    _, _, residual, _, _, offsets = _row_residuals(graph, pairs, rotations, translations)
    return float(np.cumsum(np.add.reduceat(inner(residual, residual), offsets))[-1])


def row_normal_equations(graph: calib.TransformGraph, pairs: calib.Correspondences, rotations, translations):
    """``calib._normal_equations``' band and J^T r from the rows: per
    landmark, F = E skew(p) (row a is E's row a x p), F^T F,
    skew(q)^T skew(q), -F^T skew(q), -F^T r and r x q summed per edge; the
    R_i^T blocks from sums of p, q and r; the 6x6 blocks added into the band
    in edge order."""
    p_j, moved, residual, e_rows, rotation, offsets = _row_residuals(graph, pairs, rotations, translations)

    def per_edge(values):
        return np.add.reduceat(values, offsets)

    f_columns = algebra.transpose([cross(row, p_j) for row in e_rows])
    sum_p, sum_q, sum_r = ([per_edge(x) for x in v] for v in (p_j, moved, residual))
    ftf = [[per_edge(inner(f_columns[a], f_columns[b])) if b >= a else None for b in range(3)] for a in range(3)]
    square = inner(moved, moved)  # skew(q)^T skew(q) = |q|^2 I - q q^T
    sts = [
        [per_edge((square if a == b else 0.0) - moved[a] * moved[b]) if b >= a else None for b in range(3)] for a in range(3)
    ]
    fts = [[per_edge(x) for x in cross(moved, column)] for column in f_columns]
    grad_j = [per_edge(-inner(column, residual)) for column in f_columns]
    grad_i = [per_edge(x) for x in cross(residual, moved)]

    table = graph.table
    r = algebra.entries(rotations[table.slot_i])
    g = [cross(row, sum_p) for row in algebra.entries(rotation)]  # E skew(sum p), the sum of F
    h = algebra.product(r, g)  # R_i E skew(sum p)
    k = [cross(row, sum_q) for row in r]  # R_i skew(sum q)
    n = pairs.counts.astype(float)
    m = [[n * x for x in row] for row in algebra.product(r, algebra.transpose(r))]  # n R_i R_i^T
    minus_h, minus_k, minus_m = ([[-x for x in row] for row in a] for a in (h, k, m))
    blocks = {
        (0, 0): [algebra.symmetric(ftf), algebra.transpose(minus_h), minus_h, m],
        (1, 1): [algebra.symmetric(sts), algebra.transpose(minus_k), minus_k, m],
        (0, 1): [fts, algebra.transpose(h), k, minus_m],
    }
    products = np.empty((len(n), 2, 2, 6, 6))
    for (a, b), (top_left, top_right, bottom_left, bottom_right) in blocks.items():
        block = [x + y for x, y in zip(top_left, top_right)] + [x + y for x, y in zip(bottom_left, bottom_right)]
        products[:, a, b] = algebra.to_array(block)
    products[:, 1, 0] = np.swapaxes(products[:, 0, 1], 1, 2)
    r_sum = algebra.transform(r, sum_r)
    gradients = np.stack([np.stack(grad_j + r_sum, -1), np.stack(grad_i + [-x for x in r_sum], -1)], axis=1)

    free = len(graph.nodes) - 1
    width = 6 * (table.bandwidth + 1)
    band = np.zeros((6 * free, width))
    jtr = np.zeros(6 * free)
    placed = np.argsort(table.order)
    position = np.full(len(graph.nodes), -1)
    position[np.flatnonzero(np.asarray(graph.nodes) != graph.reference)] = placed
    sides = np.stack([position[table.slot_j], position[table.slot_i]], axis=1)
    rows, cols = np.repeat(sides, 2, axis=1).reshape(-1), np.tile(sides, 2).reshape(-1)
    kept = (cols >= 0) & (rows >= cols)
    p, q = np.indices((6, 6))
    row, col = 6 * rows[kept, None, None] + p, 6 * cols[kept, None, None] + q  # each entry's place in J^T J
    stored = row >= col
    np.add.at(band.reshape(-1), (col * (width - 1) + row)[stored], products.reshape(-1, 6, 6)[kept][stored])
    kept = sides.reshape(-1) >= 0
    np.add.at(jtr.reshape(free, 6), sides.reshape(-1)[kept], gradients.reshape(-1, 6)[kept])
    return band, jtr.reshape(free, 6)[placed].reshape(-1)


def all_cells(grid: world.GridWorld) -> list[world.CellIndex]:
    """Every cell of the grid, row by row, as the scalar references walk it."""
    return [world.CellIndex(col, row) for row in range(grid.height) for col in range(grid.width)]


def cell_mask(width: int, height: int, cells) -> np.ndarray:
    """(height, width) bool array, True on those of the cells that lie on the grid."""
    mask = np.zeros((height, width), dtype=bool)
    cols, rows = np.array([*cells], dtype=np.int64).reshape(-1, 2).T
    on_grid = (0 <= cols) & (cols < width) & (0 <= rows) & (rows < height)
    mask[rows[on_grid], cols[on_grid]] = True
    return mask


def target_cells(problem: coverage.CoverageProblem) -> frozenset[world.CellIndex]:
    """A problem's target cells, its world's free cells, as a set."""
    rows, cols = np.nonzero(~problem.world.walls)
    return frozenset(map(world.CellIndex, cols.tolist(), rows.tolist()))


def violations(plan: coverage.PlacementPlan) -> tuple[tuple[world.CellIndex, int], ...]:
    """A plan's violated cells with their counts, listed from its violated
    mask in (col, row) order."""
    cols, rows = np.nonzero(plan.violated.T)
    return tuple((world.CellIndex(col, row), int(plan.counts[row, col])) for col, row in zip(cols.tolist(), rows.tolist()))


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
