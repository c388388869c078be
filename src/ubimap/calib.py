"""Multi-camera extrinsic calibration from shared landmarks.

Pipeline: pairwise rigid alignment (closed-form least squares inside an ICP
loop), a transformation graph over the cameras, propagation of poses from a
reference camera, and a damped least-squares refinement of the total
matching cost, with no BLAS or LAPACK call (see ``algebra``). The
landmarks the camera pairs share come as one flat table
(``Correspondences``): ``build_graph`` aligns every pair in one batched
call and the graph keeps the table's rows, which the cost and the
refinement read in place, in windows of edges (see
``CorrespondenceTable``). Inside the cost, the loop-closure check and the
refinement, poses are stacked arrays in ``graph.nodes`` order, (N, 3, 3)
rotations and (N, 3) translations; ``RigidTransform`` appears only at the
boundary (``stack_poses`` on the way in, ``refine``'s returned dict on the
way out). The refinement sums J^T J and J^T r from per-camera 6-column
Jacobian blocks into band storage and solves by a banded Cholesky: memory
is O(N b) for N cameras and a bandwidth of b cameras.

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

from collections import deque
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import algebra, geom
from .algebra import cross, inner
from .geom import RigidTransform

# A point set is collinear when its scatter's second eigenvalue (a squared
# singular value of the centred points) is at most this share of the first,
# that is sigma_2 <= 1e-7 sigma_1. Exactly collinear points leave a rounding
# residue of at most about 3e-16 (3,000 random lines of 3 to 300 points).
COLLINEAR_TOL = 1e-14
# Landmark rows per window of edges (see CorrespondenceTable).
WINDOW_ROWS = 448


class DegenerateGeometryError(ValueError):
    """Alignment is ambiguous: fewer than 3 points, or all collinear."""


class DisconnectedGraphError(ValueError):
    def __init__(self, unreachable: list[int]) -> None:
        super().__init__(f"cameras unreachable from the reference: {sorted(unreachable)}")
        self.unreachable = tuple(sorted(unreachable))


@dataclass(frozen=True)
class Correspondences:
    """Every camera pair's shared landmark observations, as one table.

    Pair k is cameras ``cameras[k]`` = (camera i, camera j) and owns the
    next ``counts[k]`` rows of ``points_i`` and ``points_j``, after pair
    k - 1's: row r of both is one physical landmark seen in camera i's and
    camera j's frames. Checked once here: the shapes, counts summing to the
    row count, finite points. The arrays are read-only.
    """

    cameras: np.ndarray  # (E, 2) camera ids
    counts: np.ndarray  # (E,)
    points_i: np.ndarray  # (m, 3)
    points_j: np.ndarray  # (m, 3)

    def __post_init__(self) -> None:
        cameras = np.asarray(self.cameras, dtype=np.uint64)
        counts = np.asarray(self.counts, dtype=np.intp)
        pi = np.asarray(self.points_i, dtype=float)
        pj = np.asarray(self.points_j, dtype=float)
        if cameras.ndim != 2 or cameras.shape[1] != 2 or counts.shape != (len(cameras),):
            raise ValueError("cameras must be (E, 2) and counts (E,)")
        if pi.ndim != 2 or pi.shape[1] != 3 or pi.shape != pj.shape:
            raise ValueError("points_i and points_j must both be (m, 3)")
        if (counts < 0).any() or counts.sum() != len(pi):
            raise ValueError("counts must be >= 0 and sum to the point count")
        if not (np.isfinite(pi).all() and np.isfinite(pj).all()):
            raise ValueError("correspondence points must be finite")
        for name, value in (("cameras", cameras), ("counts", counts), ("points_i", pi), ("points_j", pj)):
            value.setflags(write=False)
            object.__setattr__(self, name, value)


@dataclass(frozen=True)
class IcpOptions:
    max_iterations: int = 50
    convergence_threshold: float = 1e-9  # change in RMS residual, meters

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
    residual: float  # RMS matching error, meters


@dataclass(frozen=True)
class CorrespondenceTable:
    """Where the graph's correspondences meet the pose stacks, built once per
    graph (``TransformGraph.table``). Slots index ``graph.nodes``, the order
    of every pose stack.

    A window (``_windows``) is a run of consecutive edges. Each per-landmark
    product runs over the window's rows of ``graph.correspondences``, viewed
    in place (``_window_points``), and ``np.add.reduceat`` sums it per edge,
    a segment's sum not depending on its neighbours. Windows bound the
    temporaries.
    """

    slot_i: np.ndarray  # (E,) slot of each edge's camera i
    slot_j: np.ndarray  # (E,) slot of each edge's camera j
    windows: tuple[tuple[int, int], ...]  # (first edge, end edge) of each window, in edge order
    order: np.ndarray  # (N - 1,) free camera (index among the free slots) at each band position
    bandwidth: int  # the normal equations' bandwidth in that order, in 6x6 blocks


@dataclass(frozen=True)
class TransformGraph:
    """The cameras, one edge per aligned pair, and the edges'
    correspondences: the table's pair k is edge k."""

    nodes: tuple[int, ...]
    edges: tuple[GraphEdge, ...]
    reference: int
    correspondences: Correspondences
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
        if self.correspondences.cameras.tolist() != [[edge.camera_i, edge.camera_j] for edge in self.edges]:
            raise ValueError("the correspondences' camera pairs must be the edges'")

    @cached_property
    def table(self) -> CorrespondenceTable:
        """The correspondence table, built at first use and kept."""
        slot = {node: k for k, node in enumerate(self.nodes)}
        slot_i = np.array([slot[edge.camera_i] for edge in self.edges], dtype=np.intp)
        slot_j = np.array([slot[edge.camera_j] for edge in self.edges], dtype=np.intp)
        ref = slot[self.reference]
        pairs = np.stack([slot_i, slot_j], axis=1).reshape(-1, 2)
        pairs = pairs[(pairs != ref).all(axis=1)]
        order, bandwidth = algebra.band_order(len(self.nodes) - 1, pairs - (pairs > ref))  # indices among free slots
        return CorrespondenceTable(slot_i, slot_j, _windows(self.correspondences.counts), order, bandwidth)


def best_rigid_transform(points_i: np.ndarray, points_j: np.ndarray) -> tuple[RigidTransform, float]:
    """Closed-form least-squares rigid alignment of paired (n, 3) points:
    the transform minimizing sum_k ||T p_i^k - p_j^k||^2 (see
    ``_rigid_fits``) and the RMS residual."""
    result = _rigid_fits(points_i, points_j, [len(points_i)])[0]
    if isinstance(result, DegenerateGeometryError):
        raise result
    return result


def _windows(counts: np.ndarray) -> tuple[tuple[int, int], ...]:
    """(first, end) of each run of consecutive sets whose first row falls in
    one run of ``WINDOW_ROWS`` rows, for sets of ``counts`` rows."""
    starts = np.flatnonzero(np.diff((np.cumsum(counts) - counts) // WINDOW_ROWS, prepend=-1)).tolist()
    return tuple(zip(starts, starts[1:] + [len(counts)]))


def _rigid_fits(src: np.ndarray, dst: np.ndarray, sizes) -> list[tuple[RigidTransform, float] | DegenerateGeometryError]:
    """``best_rigid_transform`` of each set held one after another in paired
    (n, 3) rows, ``sizes[k]`` rows each, by Horn's method on all sets at
    once; the per-set sums (``np.add.reduceat``) and residuals run over
    windows of sets (``_windows``), which bound the temporaries. Returns per
    set (transform, RMS) or the error."""
    sizes = np.asarray(sizes, dtype=np.intp)
    out: list = [DegenerateGeometryError(f"need >= 3 correspondences, got {n}") if n < 3 else None for n in sizes.tolist()]
    fitted = np.flatnonzero(sizes >= 3)
    if not len(fitted):
        return out
    counts = sizes[fitted]
    if len(fitted) < len(sizes):
        kept = np.repeat(sizes >= 3, sizes)
        src, dst = src[kept], dst[kept]
    first = np.cumsum(counts) - counts
    windows = [(a, b, first[a : b] - first[a], slice(first[a], first[b - 1] + counts[b - 1])) for a, b in _windows(counts)]
    # Per set: the centroids of src and dst, src's scatter (upper triangle), then sum of centred dst x src^T.
    sums = np.empty((21, len(counts)))
    for a, b, offsets, rows in windows:
        centroids, centred = [], []
        for points in (src[rows].T, dst[rows].T):
            centroids += [np.add.reduceat(x, offsets) / counts[a:b] for x in points]
            centred.append([x - np.repeat(c, counts[a:b]) for x, c in zip(points, centroids[-3:])])
        s_c, d_c = centred
        factors = [(s_c[i], s_c[j]) for i in range(3) for j in range(i, 3)] + [(x, y) for x in d_c for y in s_c]
        sums[:, a:b] = centroids + [np.add.reduceat(x * y, offsets) for x, y in factors]
    # The scatter's trace and sum of principal 2x2 minors bound its eigenvalues:
    # l1 <= trace and minors <= 3 l1 l2, so minors > 30 tol trace^2 gives l2 > 10 tol l1
    # and only the other sets need Jacobi.
    s00, s01, s02, s11, s12, s22 = sums[6:12]
    trace = s00 + s11 + s22
    minors = (s00 * s11 - s01 * s01) + (s00 * s22 - s02 * s02) + (s11 * s22 - s12 * s12)
    collinear = np.zeros(len(counts), dtype=bool)
    unsure = np.flatnonzero(minors <= 30.0 * COLLINEAR_TOL * trace * trace)
    if len(unsure):
        upper = iter(sums[6:12, unsure])
        scatter = [[next(upper) if j >= i else None for j in range(3)] for i in range(3)]
        spread = np.sort(np.stack(algebra.jacobi_eigen(scatter)[0]), axis=0)
        collinear[unsure] = spread[1] <= COLLINEAR_TOL * spread[2]
    rotation = algebra.horn_rotation([list(sums[12:15]), list(sums[15:18]), list(sums[18:21])])
    translation = [c - d for c, d in zip(sums[3:6], algebra.transform(rotation, list(sums[0:3])))]
    rms = np.empty(len(counts))
    for a, b, offsets, rows in windows:
        rotation_rows = [[np.repeat(x[a:b], counts[a:b]) for x in row] for row in rotation]
        moved = algebra.affine(rotation_rows, [np.repeat(x[a:b], counts[a:b]) for x in translation], list(src[rows].T))
        residual = [m - d for m, d in zip(moved, dst[rows].T)]
        rms[a:b] = np.sqrt(np.add.reduceat(inner(residual, residual), offsets) / counts[a:b])
    rotations, translations = algebra.to_array(rotation), np.stack(translation, axis=-1)
    for k, e in enumerate(fitted.tolist()):
        if collinear[k]:
            out[e] = DegenerateGeometryError("correspondence points are collinear; rotation is ambiguous")
        else:
            out[e] = (RigidTransform(rotations[k], translations[k]), rms[k].item())
    return out


@dataclass(frozen=True)
class IcpResult:
    transform: RigidTransform
    rms_residual: float
    iterations: int


def icp(
    source: np.ndarray,
    target: np.ndarray,
    opts: IcpOptions = IcpOptions(),
    source_ids: tuple[int, ...] | None = None,
    target_ids: tuple[int, ...] | None = None,
    sizes=None,
) -> IcpResult | list[IcpResult | DegenerateGeometryError]:
    """Iterative closest point: align the source set onto the target set.

    Alternates correspondence matching (by landmark id when both id tuples
    are given, nearest neighbor otherwise, ties toward the lowest target
    index) with the closed-form alignment, until the RMS change drops below
    the threshold or the iteration cap is hit. Hitting the cap is not an
    error; the caller gets the last iterate. Pairs matched by id never
    change, so then the first alignment is final.

    With ``sizes``, source and target hold many sets one after another,
    ``sizes[k]`` rows each, paired row by row (ids are not read), aligned in
    one pass; the result lists per set its ``IcpResult`` or its error.
    """
    src = np.asarray(source, dtype=float).reshape(-1, 3)
    dst = np.asarray(target, dtype=float).reshape(-1, 3)
    if sizes is not None:
        if len(src) != len(dst) or np.sum(sizes) != len(src):
            raise ValueError("source and target need sum(sizes) rows each")
        fits = _rigid_fits(src, dst, sizes)
        return [fit if isinstance(fit, DegenerateGeometryError) else IcpResult(*fit, iterations=1) for fit in fits]
    if len(src) < 3 or len(dst) < 3:
        raise DegenerateGeometryError("both point sets need >= 3 points")
    if not (np.isfinite(src).all() and np.isfinite(dst).all()):
        raise ValueError("icp points must be finite")

    by_id = None
    if source_ids is not None and target_ids is not None:
        dst_index = {lid: k for k, lid in enumerate(target_ids)}
        by_id = [(s, dst_index[lid]) for s, lid in enumerate(source_ids) if lid in dst_index]
        if len(by_id) < 3:
            raise DegenerateGeometryError("fewer than 3 landmark ids are shared")

    def match(transformed: np.ndarray) -> list[tuple[int, int]]:
        offsets = [transformed[:, None, a] - dst[None, :, a] for a in range(3)]
        nearest = np.argmin(inner(offsets, offsets), axis=1)
        return list(enumerate(nearest.tolist()))

    pairs = by_id if by_id is not None else match(src)
    # Only nearest-neighbour matching iterates, so only it needs the start RMS.
    prev_rms = _pair_rms(src, dst, pairs) if by_id is None else None
    iterations = 0
    for _ in range(opts.max_iterations):
        iterations += 1
        transform, rms = best_rigid_transform(src[[s for s, _ in pairs]], dst[[d for _, d in pairs]])
        if by_id is not None or abs(prev_rms - rms) < opts.convergence_threshold:
            break
        prev_rms = rms
        pairs = match(transform.transform_points(src))
    return IcpResult(transform=transform, rms_residual=rms, iterations=iterations)


def _pair_rms(src, dst, pairs) -> float:
    """RMS distance between the paired points before any alignment."""
    diff = src[[s for s, _ in pairs]] - dst[[d for _, d in pairs]]
    return float(np.sqrt(np.mean(np.sum(diff**2, axis=1))))


def build_graph(pairs: Correspondences, reference: int, nodes: tuple[int, ...] = ()) -> TransformGraph:
    """Estimate one edge per camera pair, all pairs in one ``icp`` call.
    Failed estimations are reported, not raised, so one bad overlap zone
    cannot sink the whole calibration, and their rows leave the graph's
    correspondences. Extra nodes let cameras without any usable pair still
    appear in the graph (and therefore surface as unreachable during
    propagation)."""
    # The edge holds the pose of camera j in camera i's frame, which is the
    # transform taking j-local observations to i-local ones.
    results = icp(pairs.points_j, pairs.points_i, sizes=pairs.counts)
    cameras = pairs.cameras.tolist()
    edges: list[GraphEdge] = []
    failures: list[tuple[int, int, str]] = []
    for (cam_i, cam_j), result in zip(cameras, results):
        if isinstance(result, DegenerateGeometryError):
            failures.append((cam_i, cam_j, str(result)))
        else:
            edges.append(GraphEdge(cam_i, cam_j, result.transform, result.rms_residual))
    if failures:
        kept = np.array([not isinstance(result, DegenerateGeometryError) for result in results], dtype=bool)
        rows = np.repeat(kept, pairs.counts)
        pairs = Correspondences(pairs.cameras[kept], pairs.counts[kept], pairs.points_i[rows], pairs.points_j[rows])
    nodes = {reference, *nodes, *(camera for pair in cameras for camera in pair)}
    return TransformGraph(tuple(sorted(nodes)), tuple(edges), reference, pairs, tuple(failures))


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
    r_i_t = algebra.transpose(algebra.entries(rotations[table.slot_i]))
    rotation = algebra.to_array(algebra.product(r_i_t, algebra.entries(rotations[table.slot_j])))
    to_j = algebra.transform(r_i_t, list(translations[table.slot_j].T))
    to_i = algebra.transform(r_i_t, list(translations[table.slot_i].T))
    translation = np.stack([a - b for a, b in zip(to_j, to_i)], axis=-1)
    return geom.reorthonormalized(rotation), translation


def _window_points(graph: TransformGraph, start: int, end: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Edges start..end-1's rows of ``graph.correspondences``: p_i and p_j
    as (3, m) views, and the (edges,) row offset of each edge."""
    pairs = graph.correspondences
    counts = pairs.counts[start:end]
    first = int(pairs.counts[:start].sum())
    rows = slice(first, first + int(counts.sum()))
    return pairs.points_i[rows].T, pairs.points_j[rows].T, np.cumsum(counts) - counts


def _edge_rows(rotation: np.ndarray, translation: np.ndarray, counts: np.ndarray) -> tuple[list[list], list]:
    """Relative poses (E, t) as 3x3 and 3 entries, each edge's repeated over
    its landmark rows."""
    return (
        [[np.repeat(rotation[:, a, b], counts) for b in range(3)] for a in range(3)],
        [np.repeat(x, counts) for x in translation.T],
    )


def graph_cost(graph: TransformGraph, rotations: np.ndarray, translations: np.ndarray) -> float:
    """Total matching cost: sum over edges and landmarks of the squared
    distance between the two observations brought into camera i's frame,
    summed edge after edge in edge order."""
    if not graph.edges:
        return 0.0
    rotation, translation = _relative_poses(graph, rotations, translations)
    counts = graph.correspondences.counts
    per_edge = np.empty(len(graph.edges))
    for start, end in graph.table.windows:
        p_i, p_j, offsets = _window_points(graph, start, end)
        moved = algebra.affine(*_edge_rows(rotation[start:end], translation[start:end], counts[start:end]), list(p_j))
        residual = [q - p for q, p in zip(moved, p_i)]
        per_edge[start:end] = np.add.reduceat(inner(residual, residual), offsets)
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
    stored = algebra.entries(np.stack([edge.transform.rotation for edge in graph.edges]))
    angles = geom._rotation_angles(algebra.to_array(algebra.product(algebra.transpose(algebra.entries(rotation)), stored)))
    offset = list((translation - np.stack([edge.transform.translation for edge in graph.edges])).T)
    distance = np.sqrt(inner(offset, offset))
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

    The 6x6 block products of each window of edges (``_window_products``)
    are added into the camera pairs' slots in edge order, the order in which
    a slot shared by several edges sums them; entries above the diagonal
    mirror stored ones. A side pinned as the reference adds nothing.
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
    rotation, translation = _relative_poses(graph, rotations, translations)
    for start, end in table.windows:
        products, gradients = _window_products(graph, rotation, translation, rotations[table.slot_i[start:end]], start, end)
        pairs = sides[start:end]
        rows, cols = np.repeat(pairs, 2, axis=1).reshape(-1), np.tile(pairs, 2).reshape(-1)
        kept = (cols >= 0) & (rows >= cols)
        row, col = 6 * rows[kept, None, None] + p, 6 * cols[kept, None, None] + q  # each entry's place in J^T J
        stored = row >= col
        place = (col * (width - 1) + row)[stored]  # band[col, row - col], flattened
        np.add.at(band.reshape(-1), place, products.reshape(-1, 6, 6)[kept][stored])
        kept = pairs.reshape(-1) >= 0
        np.add.at(jtr.reshape(free, 6), pairs.reshape(-1)[kept], gradients.reshape(-1, 6)[kept])
    return band, jtr.reshape(free, 6)[placed].reshape(-1)


def _window_products(
    graph: TransformGraph, rotation: np.ndarray, translation: np.ndarray, r_i: np.ndarray, start: int, end: int
) -> tuple[np.ndarray, np.ndarray]:
    """J_a^T J_b, (edges, 2, 2, 6, 6), and J_a^T r, (edges, 2, 6), of edges
    start..end-1 over sides a, b = camera j, camera i, given the relative
    poses (E, t) and camera i's rotations R_i. A landmark p of camera j lands
    at q = E p + t with residual r = q - p_i; its rows of J are [-F, R_i^T]
    for camera j, F = E skew(p) (row a is E's row a x p), and [skew(q),
    -R_i^T] for camera i. F^T F, skew(q)^T skew(q), -F^T skew(q), -F^T r and
    r x q are summed per landmark; the R_i^T blocks take sums of p, q, r."""
    p_i, p_j, offsets = _window_points(graph, start, end)
    counts = graph.correspondences.counts[start:end]

    def per_edge(values):
        return np.add.reduceat(values, offsets)

    # Each per-landmark temporary is dropped once used, to keep a window's few.
    e_rows, t_rows = _edge_rows(rotation[start:end], translation[start:end], counts)
    moved = algebra.affine(e_rows, t_rows, list(p_j))
    residual = [m - p for m, p in zip(moved, p_i)]
    del t_rows, p_i
    f_rows = []
    while e_rows:
        f_rows.append(cross(e_rows.pop(0), list(p_j)))
    sum_p, sum_q, sum_r = ([per_edge(x) for x in v] for v in (p_j, moved, residual))
    del p_j
    f_columns = algebra.transpose(f_rows)
    del f_rows
    ftf = [[per_edge(inner(f_columns[a], f_columns[b])) if b >= a else None for b in range(3)] for a in range(3)]
    square = inner(moved, moved)  # skew(q)^T skew(q) = |q|^2 I - q q^T
    sts = [
        [per_edge((square if a == b else 0.0) - moved[a] * moved[b]) if b >= a else None for b in range(3)] for a in range(3)
    ]
    fts = [[per_edge(x) for x in cross(moved, column)] for column in f_columns]
    grad_j = [per_edge(-inner(column, residual)) for column in f_columns]
    grad_i = [per_edge(x) for x in cross(residual, moved)]

    r = algebra.entries(r_i)
    g = [cross(row, sum_p) for row in algebra.entries(rotation[start:end])]  # E skew(sum p), the sum of F
    h = algebra.product(r, g)  # R_i E skew(sum p)
    k = [cross(row, sum_q) for row in r]  # R_i skew(sum q)
    n = counts.astype(float)
    m = [[n * x for x in row] for row in algebra.product(r, algebra.transpose(r))]  # n R_i R_i^T
    minus_h, minus_k, minus_m = ([[-x for x in row] for row in a] for a in (h, k, m))
    blocks = {
        (0, 0): [algebra.symmetric(ftf), algebra.transpose(minus_h), minus_h, m],
        (1, 1): [algebra.symmetric(sts), algebra.transpose(minus_k), minus_k, m],
        (0, 1): [fts, algebra.transpose(h), k, minus_m],
    }
    products = np.empty((end - start, 2, 2, 6, 6))
    for (a, b), (top_left, top_right, bottom_left, bottom_right) in blocks.items():
        block = [x + y for x, y in zip(top_left, top_right)] + [x + y for x, y in zip(bottom_left, bottom_right)]
        products[:, a, b] = algebra.to_array(block)
    products[:, 1, 0] = np.swapaxes(products[:, 0, 1], 1, 2)
    r_sum = algebra.transform(r, sum_r)
    return products, np.stack([np.stack(grad_j + r_sum, -1), np.stack(grad_i + [-x for x in r_sum], -1)], axis=1)


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
    factored in place, damped (``algebra.band_solve``), so one band is alive
    and a retry rebuilds it. Returns the refined poses and the trace of
    accepted costs (starting with the initial cost).
    """
    rotations, translations = stack_poses(graph, initial)
    cost = graph_cost(graph, rotations, translations)
    if not np.isfinite(cost):
        raise ValueError(f"the initial calibration cost is {cost!r}, not finite")
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
                step = algebra.band_solve(band, damping, rhs)
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
    checked as one stack with ``geom.check_rigid``. A rotation is
    re-orthonormalized as ``geom.compose`` does it, when its drift exceeds
    ``geom.DRIFT_TOL``."""
    free = _free_slots(graph)
    step = delta.reshape(-1, 6)
    rotations = rotations.copy()
    translations = translations.copy()
    turned = algebra.product(algebra.entries(rotations[free]), algebra.entries(geom.rotation_from_axis_angle(step[:, :3])))
    rotations[free] = geom.reorthonormalized(algebra.to_array(turned))
    translations[free] += step[:, 3:]
    geom.check_rigid(rotations, translations)
    return rotations, translations
