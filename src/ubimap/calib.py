"""Multi-camera extrinsic calibration from shared landmarks.

Pipeline: pairwise rigid alignment (closed-form least squares inside an ICP
loop), a transformation graph over the cameras, propagation of poses from a
reference camera, and a damped least-squares refinement of the total
matching cost. Inside the cost, the loop-closure check and the refinement,
poses are stacked arrays in ``graph.nodes`` order, (N, 3, 3) rotations and
(N, 3) translations, and edges run in batches of one landmark count (see
``CorrespondenceTable``); ``RigidTransform`` appears only at the boundary
(``stack_poses`` on the way in, ``refine``'s returned dict on the way out).
The refinement sums J^T J and J^T r from per-camera 6-column Jacobian blocks
into band storage and solves by a banded Cholesky in elementwise numpy, no
LAPACK: memory is O(N b) for N cameras and a bandwidth of b cameras.

Frame conventions (used consistently everywhere in this module):
    - An edge (i, j) stores the pose of camera j expressed in camera i's
      frame: it maps j-local points into i-local coordinates. Propagating
      from the reference is then a plain composition along graph paths.
    - A "global pose" G_k maps camera-k-local points into the reference
      camera's frame; the reference camera's pose is the identity.
    - The matching cost for an edge is sum_k || E_ij q_j^k - q_i^k ||^2
      where q_i^k, q_j^k are the two cameras' observations of landmark k,
      and E_ij = inverse(G_i) composed with G_j during refinement.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, replace
from functools import cached_property
from itertools import groupby

import numpy as np
from numpy.lib.stride_tricks import as_strided

from . import geom
from .geom import RigidTransform

COLLINEAR_TOL = 1e-9
# Batching of the cost and the normal equations (see CorrespondenceTable):
# landmarks per batch, and edges per window of batches.
BATCH_ROWS = 128
WINDOW_EDGES = 64
# Rows per slice of the banded Cholesky's trailing update. Each slice is as
# wide as its first row's entries, so thinner slices multiply fewer zeros but
# take more numpy calls.
UPDATE_ROWS = 30


class DegenerateGeometryError(ValueError):
    """Alignment is ambiguous: fewer than 3 points, or all collinear."""


class DisconnectedGraphError(ValueError):
    def __init__(self, unreachable: list[int]) -> None:
        super().__init__(f"cameras unreachable from the reference: {sorted(unreachable)}")
        self.unreachable = tuple(sorted(unreachable))


@dataclass(frozen=True)
class CorrespondenceSet:
    """Paired landmark observations from two cameras.

    points_i[k] and points_j[k] are the same physical landmark seen in
    camera i's and camera j's frames; landmark_ids carries the labels when
    the landmarks are identifiable.
    """

    camera_i: int
    camera_j: int
    points_i: np.ndarray  # (n, 3)
    points_j: np.ndarray  # (n, 3)
    landmark_ids: tuple[int, ...] | None = None

    def __post_init__(self) -> None:
        pi = np.asarray(self.points_i, dtype=float)
        pj = np.asarray(self.points_j, dtype=float)
        if pi.ndim != 2 or pi.shape[1] != 3 or pi.shape != pj.shape:
            raise ValueError("points_i and points_j must both be (n, 3)")
        if not (np.isfinite(pi).all() and np.isfinite(pj).all()):
            raise ValueError("correspondence points must be finite")
        if self.landmark_ids is not None and len(self.landmark_ids) != len(pi):
            raise ValueError("landmark_ids length must match the point count")
        pi.setflags(write=False)
        pj.setflags(write=False)
        object.__setattr__(self, "points_i", pi)
        object.__setattr__(self, "points_j", pj)

    def __len__(self) -> int:
        return len(self.points_i)


@dataclass(frozen=True)
class IcpOptions:
    max_iterations: int = 50
    convergence_threshold: float = 1e-9  # change in RMS residual, meters
    use_known_ids: bool = True

    def __post_init__(self) -> None:
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        if self.convergence_threshold <= 0:
            raise ValueError("convergence_threshold must be > 0")


@dataclass(frozen=True)
class GraphEdge:
    camera_i: int
    camera_j: int
    transform: RigidTransform  # pose of camera j in camera i's frame
    correspondences: CorrespondenceSet
    residual: float  # RMS matching error, meters


@dataclass(frozen=True)
class CorrespondenceTable:
    """Where the graph's correspondences meet the pose stacks, built once per
    graph (``TransformGraph.table``). Slots index ``graph.nodes``, the order
    of every pose stack.

    A batch lists edges with one landmark count n, at most ``BATCH_ROWS``
    landmarks in all (or one edge). A product batched over a batch's
    (B, n, 3) points makes, edge by edge, the BLAS call that a loop over the
    edges would make, so it rounds the same, and its temporaries stay
    bounded. Batches are cut from windows of ``WINDOW_EDGES`` consecutive
    edges and come window by window, so the normal equations can add one
    window's block products, in edge order, before the next window runs.
    The points stay in the edges' correspondence sets, which already hold
    them; ``_batch_points`` stacks a batch's when it runs.
    """

    slot_i: np.ndarray  # (E,) slot of each edge's camera i
    slot_j: np.ndarray  # (E,) slot of each edge's camera j
    batches: tuple[np.ndarray, ...]  # ascending edge indices
    order: np.ndarray  # (N - 1,) free camera (index among the free slots) at each band position
    bandwidth: int  # the normal equations' bandwidth in that order, in 6x6 blocks


@dataclass(frozen=True)
class TransformGraph:
    nodes: tuple[int, ...]
    edges: tuple[GraphEdge, ...]
    reference: int
    failures: tuple[tuple[int, int, str], ...] = ()

    def __post_init__(self) -> None:
        if self.reference not in self.nodes:
            raise ValueError(f"reference camera {self.reference} is not a graph node")
        nodes, seen = set(self.nodes), set()
        for edge in self.edges:
            for camera in (edge.camera_i, edge.camera_j):
                if camera not in nodes:
                    raise ValueError(f"edge camera {camera} is not a graph node")
            key = frozenset((edge.camera_i, edge.camera_j))
            if key in seen:
                raise ValueError(f"duplicate edge between cameras {sorted(key)}")
            seen.add(key)

    @cached_property
    def table(self) -> CorrespondenceTable:
        """The correspondence table, built at first use and kept."""
        slot = {node: k for k, node in enumerate(self.nodes)}
        counts = np.array([len(edge.correspondences) for edge in self.edges], dtype=np.intp)
        batches = []
        for start in range(0, len(counts), WINDOW_EDGES):
            window = np.arange(start, min(start + WINDOW_EDGES, len(counts)))
            for n in sorted(set(counts[window].tolist())):
                same = window[counts[window] == n]
                size = max(1, BATCH_ROWS // max(n, 1))
                batches.extend(np.split(same, range(size, len(same), size)))
        slot_i = np.array([slot[edge.camera_i] for edge in self.edges], dtype=np.intp)
        slot_j = np.array([slot[edge.camera_j] for edge in self.edges], dtype=np.intp)
        ref = slot[self.reference]
        pairs = np.stack([slot_i, slot_j], axis=1).reshape(-1, 2)
        pairs = pairs[(pairs != ref).all(axis=1)]
        order, bandwidth = _band_order(len(self.nodes) - 1, pairs - (pairs > ref))  # indices among free slots
        return CorrespondenceTable(slot_i, slot_j, tuple(batches), order, bandwidth)


def best_rigid_transform(c: CorrespondenceSet) -> tuple[RigidTransform, float]:
    """Closed-form least-squares rigid alignment of the i-side onto the j-side.

    Returns the transform minimizing sum_k ||T p_i^k - p_j^k||^2 via the
    centroid / cross-covariance / SVD construction, with the reflection
    corrected so the rotation is proper, plus the RMS residual.
    """
    return _rigid_fit(c.points_i, c.points_j)


def _rigid_fit(src: np.ndarray, dst: np.ndarray) -> tuple[RigidTransform, float]:
    """``best_rigid_transform`` on finite (n, 3) arrays paired row by row."""
    if len(src) < 3:
        raise DegenerateGeometryError(f"need >= 3 correspondences, got {len(src)}")
    centroid_src = src.mean(axis=0)
    centroid_dst = dst.mean(axis=0)
    src_c = src - centroid_src
    dst_c = dst - centroid_dst
    spread = np.linalg.svd(src_c, compute_uv=False)
    if spread[1] <= COLLINEAR_TOL * max(spread[0], 1.0):
        raise DegenerateGeometryError("correspondence points are collinear; rotation is ambiguous")
    cross = src_c.T @ dst_c
    u, _, vt = np.linalg.svd(cross)
    d = np.sign(np.linalg.det(vt.T @ u.T))
    rotation = vt.T @ np.diag([1.0, 1.0, d]) @ u.T
    translation = centroid_dst - rotation @ centroid_src
    transform = RigidTransform(geom.nearest_rotation(rotation), translation)
    residuals = transform.transform_points(src) - dst
    rms = float(np.sqrt(np.mean(np.sum(residuals**2, axis=1))))
    return transform, rms


@dataclass(frozen=True)
class IcpResult:
    transform: RigidTransform
    rms_residual: float
    iterations: int


def icp(
    source: np.ndarray,
    target: np.ndarray,
    opts: IcpOptions,
    source_ids: tuple[int, ...] | None = None,
    target_ids: tuple[int, ...] | None = None,
) -> IcpResult:
    """Iterative closest point: align the source set onto the target set.

    Alternates correspondence matching (by landmark id when available and
    enabled, nearest neighbor otherwise, ties toward the lowest target
    index) with the closed-form alignment, until the RMS change drops below
    the threshold or the iteration cap is hit. Hitting the cap is not an
    error; the caller gets the last iterate. Pairs matched by id never
    change, so then the first alignment is final; when both sets carry the
    same ids (distinct labels), row k already pairs with row k and the sets
    are aligned as given.
    """
    src = np.asarray(source, dtype=float).reshape(-1, 3)
    dst = np.asarray(target, dtype=float).reshape(-1, 3)
    if len(src) < 3 or len(dst) < 3:
        raise DegenerateGeometryError("both point sets need >= 3 points")
    if opts.use_known_ids and source_ids is not None and source_ids == target_ids:
        transform, rms = _rigid_fit(src, dst)
        return IcpResult(transform=transform, rms_residual=rms, iterations=1)

    by_id = None
    if opts.use_known_ids and source_ids is not None and target_ids is not None:
        dst_index = {lid: k for k, lid in enumerate(target_ids)}
        by_id = [(s, dst_index[lid]) for s, lid in enumerate(source_ids) if lid in dst_index]
        if len(by_id) < 3:
            raise DegenerateGeometryError("fewer than 3 landmark ids are shared")

    def match(transformed: np.ndarray) -> list[tuple[int, int]]:
        dists = np.linalg.norm(transformed[:, None, :] - dst[None, :, :], axis=2)
        return [(s, int(np.argmin(dists[s]))) for s in range(len(src))]

    pairs = by_id if by_id is not None else match(src)
    # Only nearest-neighbour matching iterates, so only it needs the start RMS.
    prev_rms = _pair_rms(src, dst, pairs) if by_id is None else None
    iterations = 0
    for _ in range(opts.max_iterations):
        iterations += 1
        cset = CorrespondenceSet(
            camera_i=-1,
            camera_j=-1,
            points_i=src[[s for s, _ in pairs]],
            points_j=dst[[d for _, d in pairs]],
        )
        transform, rms = best_rigid_transform(cset)
        if by_id is not None or abs(prev_rms - rms) < opts.convergence_threshold:
            break
        prev_rms = rms
        pairs = match(transform.transform_points(src))
    return IcpResult(transform=transform, rms_residual=rms, iterations=iterations)


def _pair_rms(src, dst, pairs) -> float:
    """RMS distance between the paired points before any alignment."""
    diff = src[[s for s, _ in pairs]] - dst[[d for _, d in pairs]]
    return float(np.sqrt(np.mean(np.sum(diff**2, axis=1))))


def build_graph(
    pairwise: list[tuple[int, int, CorrespondenceSet]],
    opts: IcpOptions,
    reference: int,
    nodes: tuple[int, ...] = (),
) -> TransformGraph:
    """Estimate one edge per camera pair; failed estimations are reported,
    not raised, so one bad overlap zone cannot sink the whole calibration.
    Extra nodes let cameras without any usable pair still appear in the
    graph (and therefore surface as unreachable during propagation)."""
    nodes = {reference, *nodes}
    edges: list[GraphEdge] = []
    failures: list[tuple[int, int, str]] = []
    for cam_i, cam_j, cset in pairwise:
        nodes.update((cam_i, cam_j))
        try:
            # The edge holds the pose of camera j in camera i's frame, which
            # is the transform taking j-local observations to i-local ones.
            result = icp(
                cset.points_j,
                cset.points_i,
                opts,
                source_ids=cset.landmark_ids,
                target_ids=cset.landmark_ids,
            )
        except DegenerateGeometryError as exc:
            failures.append((cam_i, cam_j, str(exc)))
            continue
        edges.append(
            GraphEdge(
                camera_i=cam_i,
                camera_j=cam_j,
                transform=result.transform,
                correspondences=replace(cset, landmark_ids=None),  # only icp reads the ids
                residual=result.rms_residual,
            )
        )
    return TransformGraph(
        nodes=tuple(sorted(nodes)),
        edges=tuple(edges),
        reference=reference,
        failures=tuple(failures),
    )


def propagate(graph: TransformGraph) -> dict[int, RigidTransform]:
    """Breadth-first spanning tree from the reference; each camera's global
    pose is the composition of edge transforms along its tree path."""
    adjacency: dict[int, list[tuple[int, RigidTransform]]] = {node: [] for node in graph.nodes}
    for edge in graph.edges:
        adjacency[edge.camera_i].append((edge.camera_j, edge.transform))
        adjacency[edge.camera_j].append((edge.camera_i, geom.invert(edge.transform)))

    poses: dict[int, RigidTransform] = {graph.reference: geom.identity()}
    queue = deque([graph.reference])
    while queue:
        node = queue.popleft()
        for neighbor, pose_in_node in sorted(adjacency[node], key=lambda item: item[0]):
            if neighbor in poses:
                continue
            poses[neighbor] = geom.compose(poses[node], pose_in_node)
            queue.append(neighbor)
    missing = [node for node in graph.nodes if node not in poses]
    if missing:
        raise DisconnectedGraphError(missing)
    return poses


def stack_poses(graph: TransformGraph, poses: dict[int, RigidTransform]) -> tuple[np.ndarray, np.ndarray]:
    """The poses as (N, 3, 3) rotations and (N, 3) translations in
    ``graph.nodes`` order; every node needs a pose, and only nodes have one."""
    for node in graph.nodes:
        if node not in poses:
            raise ValueError(f"poses missing camera {node}")
    extra = sorted(set(poses) - set(graph.nodes))
    if extra:
        raise ValueError(f"poses hold cameras that are not graph nodes: {extra}")
    rotations = np.stack([poses[node].rotation for node in graph.nodes])
    translations = np.stack([poses[node].translation for node in graph.nodes])
    return rotations, translations


def _relative_poses(graph: TransformGraph, rotations: np.ndarray, translations: np.ndarray):
    """Each edge's E_ij = inverse(G_i) composed with G_j, as stacked
    rotations and translations, rounded as ``geom.compose`` and
    ``geom.invert`` round one edge (drifted rotations re-orthonormalized)."""
    table = graph.table
    r_i_t = np.swapaxes(rotations[table.slot_i], 1, 2)
    rotation = r_i_t @ rotations[table.slot_j]
    translation = (r_i_t @ translations[table.slot_j, :, None])[..., 0] - (
        r_i_t @ translations[table.slot_i, :, None]
    )[..., 0]
    drifted = geom.orthonormality_error(rotation) > geom.DRIFT_TOL
    if drifted.any():
        rotation[drifted] = geom.nearest_rotation(rotation[drifted])
    return rotation, translation


def _batch_points(graph: TransformGraph, edges: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """A batch's correspondences stacked as (B, n, 3) p_i and p_j."""
    sets = [graph.edges[e].correspondences for e in edges.tolist()]
    shape = (len(sets), len(sets[0]), 3)
    return (
        np.concatenate([c.points_i for c in sets]).reshape(shape),
        np.concatenate([c.points_j for c in sets]).reshape(shape),
    )


def graph_cost(graph: TransformGraph, rotations: np.ndarray, translations: np.ndarray) -> float:
    """Total matching cost: sum over edges and landmarks of the squared
    distance between the two observations brought into camera i's frame,
    summed edge after edge in edge order."""
    if not graph.edges:
        return 0.0
    rotation, translation = _relative_poses(graph, rotations, translations)
    per_edge = np.empty(len(graph.edges))
    for edges in graph.table.batches:
        p_i, p_j = _batch_points(graph, edges)
        moved = p_j @ np.swapaxes(rotation[edges], 1, 2) + translation[edges, None, :]
        per_edge[edges] = np.sum((moved - p_i) ** 2, axis=(1, 2))
    return float(np.cumsum(per_edge)[-1])


def loop_closure_error(
    graph: TransformGraph, rotations: np.ndarray, translations: np.ndarray
) -> dict[tuple[int, int], float]:
    """Per-edge discrepancy between the stored transform and the one the
    current poses imply: rotation angle plus translation distance. Nonzero
    values on non-tree edges are loop error."""
    if not graph.edges:
        return {}
    rotation, translation = _relative_poses(graph, rotations, translations)
    stored = np.stack([edge.transform.rotation for edge in graph.edges])
    angles = geom._rotation_angles(np.swapaxes(rotation, 1, 2) @ stored)
    offset = translation - np.stack([edge.transform.translation for edge in graph.edges])
    distance = np.sqrt(np.vecdot(offset, offset))
    return {
        (edge.camera_i, edge.camera_j): angle + dist
        for edge, angle, dist in zip(graph.edges, angles, distance.tolist())
    }


def _free_slots(graph: TransformGraph) -> np.ndarray:
    """Slots of the cameras whose poses are parameters: all but the reference."""
    return np.flatnonzero(np.asarray(graph.nodes) != graph.reference)


def _normal_equations(
    graph: TransformGraph, rotations: np.ndarray, translations: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """J^T J and J^T r of the stacked residuals w.r.t. the free pose
    parameters (per free camera: axis-angle rotation increment, then
    translation, both applied as R <- R Exp(delta), t <- t + delta). J^T r is
    in ``graph.nodes`` order; J^T J comes as the lower band ``band[c, d]`` =
    entry (c + d, c), cameras in ``graph.table.order``.

    The 6x6 block products are formed one batch of edges at a time
    (``_block_products``) and added into the camera pairs' slots after each
    window of ``WINDOW_EDGES`` consecutive edges, in edge order, the order
    in which a slot shared by several edges sums them; entries above the
    diagonal mirror stored ones. A side pinned as the reference adds nothing.
    """
    table = graph.table
    free = len(graph.nodes) - 1
    width = 6 * (table.bandwidth + 1)
    band = np.zeros((6 * free, width))
    jtr = np.zeros(6 * free)
    placed = np.argsort(table.order)  # each free camera's band position
    # Each edge's band position per side, j then i; the pinned reference has none (-1).
    position = np.full(len(graph.nodes), -1)
    position[_free_slots(graph)] = placed
    sides = np.stack([position[table.slot_j], position[table.slot_i]], axis=1)
    p, q = np.indices((6, 6))
    products = np.empty((min(WINDOW_EDGES, len(graph.edges)), 2, 2, 6, 6))
    gradients = np.empty((len(products), 2, 6))
    for start, window in groupby(table.batches, key=lambda edges: edges[0] - edges[0] % WINDOW_EDGES):
        for edges in window:
            products[edges - start], gradients[edges - start] = _block_products(graph, rotations, translations, edges)
        pairs = sides[start : start + WINDOW_EDGES]
        rows, cols = np.repeat(pairs, 2, axis=1).reshape(-1), np.tile(pairs, 2).reshape(-1)
        kept = (cols >= 0) & (rows >= cols)
        row, col = 6 * rows[kept, None, None] + p, 6 * cols[kept, None, None] + q  # each entry's place in J^T J
        stored = row >= col
        np.add.at(band, (col[stored], (row - col)[stored]), products[: len(pairs)].reshape(-1, 6, 6)[kept][stored])
        kept = pairs.reshape(-1) >= 0
        np.add.at(jtr.reshape(free, 6), pairs.reshape(-1)[kept], gradients[: len(pairs)].reshape(-1, 6)[kept])
    return band, jtr.reshape(free, 6)[placed].reshape(-1)


def _block_products(
    graph: TransformGraph, rotations: np.ndarray, translations: np.ndarray, edges: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """For one batch of edges: J_a^T J_b, (B, 2, 2, 6, 6), and J_a^T r,
    (B, 2, 6), over sides a, b = camera j, camera i. An edge's (3n, 6)
    Jacobian block for one camera holds all its landmarks."""
    table = graph.table
    p_i, p_j = _batch_points(graph, edges)
    b, n = p_j.shape[:2]
    r_i = rotations[table.slot_i[edges]]
    r_j = rotations[table.slot_j[edges]]
    r_i_t = np.swapaxes(r_i, 1, 2)[:, None]
    # Landmarks seen by camera j, brought into camera i's frame.
    moved = p_j @ np.swapaxes(r_j, 1, 2) + translations[table.slot_j[edges], None, :]
    in_i = (moved - translations[table.slot_i[edges], None, :]) @ r_i
    jacobians = np.empty((b, 2, n, 3, 6))
    jacobians[:, 0, ..., :3] = -(r_i_t @ r_j[:, None]) @ geom.skew(p_j)
    jacobians[:, 0, ..., 3:] = r_i_t
    jacobians[:, 1, ..., :3] = geom.skew(in_i)
    jacobians[:, 1, ..., 3:] = -r_i_t
    jacobians = jacobians.reshape(b, 2, 3 * n, 6)
    jac_t = np.swapaxes(jacobians, 2, 3)
    residuals = (in_i - p_i).reshape(b, 1, 3 * n, 1)
    return jac_t[:, :, None] @ jacobians[:, None], (jac_t @ residuals)[..., 0]


def _band_order(free: int, pairs: np.ndarray) -> tuple[np.ndarray, int]:
    """A block reverse Cuthill-McKee order of ``free`` cameras joined by the
    (E, 2) ``pairs`` (Cuthill & McKee 1969; George & Liu 1981), and its
    bandwidth max |position a - position b| over the pairs: breadth first
    from the least connected unvisited camera, neighbours by degree, then by
    index, the visits reversed; the natural order if that is narrower."""
    neighbours = [set() for _ in range(free)]
    for a, b in pairs.tolist():
        neighbours[a].add(b)
        neighbours[b].add(a)
    rank = {v: (len(neighbours[v]), v) for v in range(free)}
    visits, placed, head = [], set(), 0
    for start in sorted(range(free), key=rank.get):
        if start in placed:
            continue
        placed.add(start)
        visits.append(start)
        while head < len(visits):
            fresh = sorted(neighbours[visits[head]] - placed, key=rank.get)
            placed.update(fresh)
            visits.extend(fresh)
            head += 1
    orders = (np.array(visits[::-1], dtype=np.intp), np.arange(free))
    widths = [int(np.max(np.abs(np.diff(np.argsort(order)[pairs], axis=1)), initial=0)) for order in orders]
    return min(zip(orders, widths), key=lambda pair: pair[1])


def _inverse_cholesky(a: list[list[float]]) -> list[list[float]]:
    """inverse(L), L the lower Cholesky factor of the 6x6 matrix whose lower
    triangle ``a`` holds, in Python floats; a pivot that is not positive
    raises ``np.linalg.LinAlgError``."""
    low = []
    for i, a_i in enumerate(a):
        row = []
        for j, low_j in enumerate(low):
            total = a_i[j]
            for x, y in zip(row, low_j):
                total -= x * y
            row.append(total / low_j[j])
        total = a_i[i]
        for x in row:
            total -= x * x
        if not total > 0.0:
            raise np.linalg.LinAlgError("normal equations are not positive definite")
        low.append(row + [math.sqrt(total)])
    inverse = [[0.0] * 6 for _ in range(6)]
    for j, row in enumerate(low):
        for i in range(j):
            total = 0.0
            for m in range(i, j):
                total -= row[m] * inverse[m][i]
            inverse[j][i] = total / row[j]
        inverse[j][j] = 1.0 / row[j]
    return inverse


def _band_solve(band: np.ndarray, damping: float, rhs: np.ndarray) -> np.ndarray:
    """Solve (A + damping I) x = rhs for the A whose lower band ``band`` holds
    (see ``_normal_equations``) by a block Cholesky, right-looking by 6-column
    blocks in elementwise numpy, the forward substitution riding along. A
    must be banded by whole 6x6 blocks: entries of a column below its band's
    last block are not read. The factor overwrites ``band``."""
    size, width = band.shape
    band[:, 0] += damping
    item = band.itemsize
    dense = as_strided(band, shape=(size, size), strides=(item, item * (width - 1)))  # in-band (r, c) only
    padded = np.zeros((6, 2 * width))
    shifted = as_strided(padded, shape=(6, width, width), strides=(2 * width * item, item, item))  # padded[k, c + d]
    inverses, x = [], rhs.copy()
    for s in range(0, size, 6):
        n = min(width, size - s) - 6
        inverse = np.array(_inverse_cholesky(dense[s : s + 6, s : s + 6].tolist()), dtype=float)
        inverses.append(inverse)
        x[s : s + 6] = (inverse * x[s : s + 6]).sum(axis=1)
        panel = dense[s + 6 : s + 6 + n, s : s + 6].T  # becomes the 6 columns of L below the block
        panel[...] = padded[:, :n] = (inverse[:, :, None] * panel).sum(axis=1)
        padded[:, n:] = 0.0
        x[s + 6 : s + 6 + n] -= (panel * x[s : s + 6, None]).sum(axis=0)
        # Band entry (s + 6 + c, d) of the trailing window loses sum_k panel[k, c + d] panel[k, c]
        # where c + d < n: slices of rows c, each as wide as its first row's entries.
        for c in range(0, n, UPDATE_ROWS):
            e = min(c + UPDATE_ROWS, n)
            band[s + 6 + c : s + 6 + e, : n - c] -= (shifted[:, c:e, : n - c] * panel[:, c:e, None]).sum(axis=0)
    for s in range(size - 6, -1, -6):
        n = min(width, size - s) - 6
        rest = x[s : s + 6] - (dense[s + 6 : s + 6 + n, s : s + 6].T * x[s + 6 : s + 6 + n]).sum(axis=1)
        x[s : s + 6] = (inverses.pop() * rest[:, None]).sum(axis=0)
    return x


def cost_gradient(graph: TransformGraph, rotations: np.ndarray, translations: np.ndarray) -> np.ndarray:
    """Analytic gradient of the total cost w.r.t. the free pose parameters
    (all cameras except the reference, in ``graph.nodes`` order)."""
    return 2.0 * _normal_equations(graph, rotations, translations)[1]


def refine(
    graph: TransformGraph,
    initial: dict[int, RigidTransform],
    max_iterations: int = 50,
    gradient_tol: float = 1e-10,
    relative_cost_tol: float = 1e-12,
) -> tuple[dict[int, RigidTransform], list[float]]:
    """Levenberg-Marquardt refinement of the global poses.

    ``initial`` needs a pose for every graph node and none for any other
    camera (``ValueError`` otherwise). It is stacked once into (N, 3, 3)
    rotations and (N, 3) translations in ``graph.nodes`` order; the returned
    dict, in ``initial``'s key order, is the only other place poses are
    ``RigidTransform``s. The reference pose is pinned to fix the gauge.
    Accepted steps strictly decrease the cost; the damping factor shrinks
    tenfold on success and grows tenfold on rejection. Each step solves
    (J^T J + damping I) delta = -J^T r, with J^T J and J^T r accumulated
    edge by edge, never the full Jacobian. Refinement stops when the
    gradient is below ``gradient_tol``, when an accepted step lowers the
    cost by less than ``relative_cost_tol`` of it, or, before a candidate
    is evaluated, when the step's predicted decrease is at most that share
    of the cost. J^T J is held in band storage (``_normal_equations``) and
    factored in place, damped, with no BLAS or LAPACK call
    (``_band_solve``), so one band is alive and a retry rebuilds it. Returns
    the refined poses and the trace of accepted costs (starting with the
    initial cost).
    """
    rotations, translations = stack_poses(graph, initial)
    cost = graph_cost(graph, rotations, translations)
    trace = [cost]
    if len(graph.nodes) == 1 or not graph.edges:
        return dict(initial), trace

    order = graph.table.order
    position = np.argsort(order)
    damping = 1e-3
    for _ in range(max_iterations):
        band, jtr = _normal_equations(graph, rotations, translations)
        if float(np.max(np.abs(2.0 * jtr))) < gradient_tol:
            break
        stepped = False
        rhs = -jtr.reshape(-1, 6)[order].reshape(-1)
        while damping < 1e12:
            if band is None:
                band = _normal_equations(graph, rotations, translations)[0]
            try:
                step = _band_solve(band, damping, rhs)
            except np.linalg.LinAlgError:
                damping *= 10.0
                continue
            finally:
                band = None  # factored in place
            # The damped model predicts the drop damping |delta|^2 - delta . J^T r;
            # once that is within the cost's rounding, no step can show a real one.
            if float(np.sum(step * (damping * step + rhs))) <= relative_cost_tol * cost:
                break
            delta = step.reshape(-1, 6)[position].reshape(-1)
            candidate = _apply_step(graph, rotations, translations, delta)
            new_cost = graph_cost(graph, *candidate)
            if new_cost < cost:
                rotations, translations = candidate
                relative_drop = (cost - new_cost) / max(cost, 1e-300)
                cost = new_cost
                trace.append(cost)
                damping = max(damping / 10.0, 1e-12)
                stepped = True
                break
            damping *= 10.0
        if not stepped or relative_drop < relative_cost_tol:
            break
    slot = {node: k for k, node in enumerate(graph.nodes)}
    return {node: RigidTransform(rotations[slot[node]], translations[slot[node]]) for node in initial}, trace


def _apply_step(
    graph: TransformGraph, rotations: np.ndarray, translations: np.ndarray, delta: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The poses moved by one parameter step (see ``_normal_equations``),
    checked as one stack with ``geom.check_rigid``."""
    free = _free_slots(graph)
    step = delta.reshape(-1, 6)
    rotations = rotations.copy()
    translations = translations.copy()
    rotations[free] = geom.nearest_rotation(rotations[free] @ geom.rotation_from_axis_angle(step[:, :3]))
    translations[free] += step[:, 3:]
    geom.check_rigid(rotations, translations)
    return rotations, translations
