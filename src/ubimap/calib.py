"""Multi-camera extrinsic calibration from shared landmarks, with no BLAS or
LAPACK call (see ``algebra``).

``build_graph`` aligns every camera pair of one flat table of shared
landmarks (``Correspondences``) in one batched ICP call, a pair whose fit
is degenerate or overflows becoming a failed edge; the same pass reduces
each pair's rows to moments about its fit (``TransformGraph``), of which
the cost, J^T J and J^T r are closed forms (``moments``; Pulli 1999;
Williams & Bennamoun 2001, CVIU 81(1)): no row outlives ``build_graph``.
``propagate`` gives the poses from a reference camera as stacks in
``graph.nodes`` order, (N, 3, 3) rotations and (N, 3) translations, as the
cost, the loop-closure check and ``refine``, a damped least-squares
refinement, take them. ``refine`` adds 6x6 blocks of J^T J, ``EDGE_BLOCK``
edges at a time, into band storage and solves by a banded Cholesky: memory
is O(N b + E) for N cameras, a bandwidth of b cameras and E edges.

Frame conventions (used consistently everywhere in this module):
    - An edge (i, j) stores the pose of camera j in camera i's frame: it
      maps j-local points into i-local coordinates, so propagating from the
      reference is a plain composition along graph paths.
    - A "global pose" G_k maps camera-k-local points into the reference
      camera's frame; the reference camera's pose is the identity.
    - An edge's matching cost is sum_k || E_ij q_j^k - q_i^k ||^2, q_i^k and
      q_j^k the two cameras' observations of landmark k, and E_ij =
      inverse(G_i) composed with G_j during refinement.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np
from numpy.lib.stride_tricks import as_strided

from . import algebra, geom
from .algebra import _positions, inner
from .geom import RigidTransform
from .moments import _edge_products, _edge_terms, _relative_poses

# A point set is collinear when its scatter's second eigenvalue (a squared
# singular value of the centred points) is at most this share of the first,
# that is sigma_2 <= 1e-7 sigma_1. Exactly collinear points leave a rounding
# residue of at most about 3e-16 (3,000 random lines of 3 to 300 points).
COLLINEAR_TOL = 1e-14
# Landmark rows per window of the pair fits (``_rigid_fits``) and edges per
# block of the cost and the normal equations: each bounds one pass's temporaries.
WINDOW_ROWS = 448
EDGE_BLOCK = 64
# The stops of refine (see its docstring).
REFINE_ITERATIONS = 50
GRADIENT_TOL = 1e-10
RELATIVE_COST_TOL = 1e-12


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


class IcpOptions(NamedTuple):
    """The options of ``icp``: none, as a closed-form fit takes none."""


class CorrespondenceTable(NamedTuple):
    """Where the graph's edges meet the pose stacks, built once per graph
    (``TransformGraph.table``). Slots index ``graph.nodes``, the order of
    every pose stack. The cost and the normal equations read each edge's
    moments (``TransformGraph``) through these slots, never a landmark row."""

    slot_i: np.ndarray  # (E,) slot of each edge's camera i
    slot_j: np.ndarray  # (E,) slot of each edge's camera j
    free: np.ndarray  # (N - 1,) slots of the cameras whose poses are parameters: all but the reference
    order: np.ndarray  # (N - 1,) free camera (index among the free slots) at each band position
    bandwidth: int  # the normal equations' bandwidth in that order, in 6x6 blocks
    sides: np.ndarray  # (E, 2) band position of each edge's camera j, then i; -1 for the pinned reference


@dataclass(frozen=True)
class TransformGraph:
    """The cameras and one edge per aligned pair, as read-only stacks. Edge
    k joins cameras (i, j) = ``cameras[k]`` by the fit (E*, t*) =
    ``rotations[k]``, ``translations[k]`` (the pose of camera j in camera
    i's frame) to the pair's ``counts[k]`` landmarks, with RMS error
    ``residuals[k]``, in meters. Of the landmarks, with p their camera-j
    points and s = E* p + t* - p_i the fit's residuals, only ``means[k]``,
    (mean p, mean s), and ``scatters[k]``, the centred scatter of (p, s)."""

    nodes: tuple[int, ...]
    reference: int
    cameras: np.ndarray  # (E, 2) camera ids
    counts: np.ndarray  # (E,)
    rotations: np.ndarray  # (E, 3, 3)
    translations: np.ndarray  # (E, 3)
    residuals: np.ndarray  # (E,)
    means: np.ndarray  # (E, 6)
    scatters: np.ndarray  # (E, 6, 6)
    failures: tuple[tuple[int, int, str], ...] = ()

    def __post_init__(self) -> None:
        if self.reference not in self.nodes:
            raise ValueError(f"reference camera {self.reference} is not a graph node")
        edges = len(self.cameras)
        shapes = {"cameras": (2,), "counts": (), "rotations": (3, 3), "translations": (3,), "residuals": ()}
        for name, shape in {**shapes, "means": (6,), "scatters": (6, 6)}.items():
            value = np.asarray(getattr(self, name), dtype={"cameras": np.uint64, "counts": np.intp}.get(name, float))
            if value.shape != (edges, *shape):
                raise ValueError(f"{name} must be {(edges, *shape)}, one per edge, got {value.shape}")
            value.setflags(write=False)
            object.__setattr__(self, name, value)
        nodes, seen = set(self.nodes), set()
        for pair in self.cameras.tolist():
            for camera in pair:
                if camera not in nodes:
                    raise ValueError(f"edge camera {camera} is not a graph node")
            key = frozenset(pair)
            if key in seen:
                raise ValueError(f"duplicate edge between cameras {sorted(key)}")
            seen.add(key)

    @cached_property
    def table(self) -> CorrespondenceTable:
        """The correspondence table, built at first use and kept."""
        slot = {node: k for k, node in enumerate(self.nodes)}
        pairs = np.array([[slot[i], slot[j]] for i, j in self.cameras.tolist()], dtype=np.intp).reshape(-1, 2)
        ref = slot[self.reference]
        free = np.flatnonzero(np.arange(len(self.nodes)) != ref)
        tied = pairs[(pairs != ref).all(axis=1)]
        order, bandwidth = algebra.band_order(len(free), tied - (tied > ref))  # indices among free slots
        position = np.insert(_positions(order), ref, -1)  # of each slot; -1 for the reference
        return CorrespondenceTable(*pairs.T.copy(), free, order, bandwidth, position[pairs[:, ::-1]])


def best_rigid_transform(points_i: np.ndarray, points_j: np.ndarray) -> tuple[RigidTransform, float]:
    """Closed-form least-squares rigid alignment of paired (n, 3) points:
    the transform minimizing sum_k ||T p_i^k - p_j^k||^2 (see
    ``_rigid_fits``, whose error it raises) and the RMS residual."""
    rotations, translations, rms, errors, _, _ = _rigid_fits(points_i, points_j, [len(points_i)])
    if errors[0] is not None:
        raise errors[0]
    return RigidTransform(rotations[0], translations[0]), rms[0].item()


def _windows(counts: np.ndarray) -> tuple[tuple[int, int], ...]:
    """(first, end) of each run of consecutive sets whose first row falls in
    one run of ``WINDOW_ROWS`` rows, for sets of ``counts`` rows."""
    starts = np.flatnonzero(np.diff((np.cumsum(counts) - counts) // WINDOW_ROWS, prepend=-1)).tolist()
    return tuple(zip(starts, starts[1:] + [len(counts)]))


def _rigid_fits(src: np.ndarray, dst: np.ndarray, sizes) -> tuple:
    """``best_rigid_transform`` of each set held one after another in paired
    (n, 3) rows, ``sizes[k]`` rows each, by Horn's method on all sets at
    once; the per-set sums (``np.add.reduceat``) and residuals run over
    windows of sets (``_windows``), which bound the temporaries. Returns
    (E, 3, 3) rotations, (E, 3) translations and (E,) RMS residuals, checked
    by one ``geom.check_rigid``, per set None or the error that failed it
    (fewer than 3 rows or collinear points, ``DegenerateGeometryError``; an
    overflow, ``ValueError``), and the moments of (src, residual) the graph
    keeps, (E, 6) means and (E, 6, 6) centred scatters. A failed set holds
    the identity and NaN residual and moments."""
    sizes = np.asarray(sizes, dtype=np.intp)
    errors: list = [DegenerateGeometryError(f"need >= 3 correspondences, got {n}") if n < 3 else None for n in sizes.tolist()]
    rotations = np.tile(np.eye(3), (len(sizes), 1, 1))
    translations = np.zeros((len(sizes), 3))
    residuals = np.full(len(sizes), np.nan)
    means, scatters = np.full((len(sizes), 6), np.nan), np.full((len(sizes), 6, 6), np.nan)
    fitted = np.flatnonzero(sizes >= 3)
    if not len(fitted):
        return rotations, translations, residuals, errors, means, scatters
    counts = sizes[fitted]
    if len(fitted) < len(sizes):
        kept = np.repeat(sizes >= 3, sizes)
        src, dst = src[kept], dst[kept]
    first = np.cumsum(counts) - counts
    windows = [(a, b, first[a : b] - first[a], slice(first[a], first[b - 1] + counts[b - 1])) for a, b in _windows(counts)]
    # Points too large for their products overflow to inf or nan; such a set fails below.
    with np.errstate(over="ignore", invalid="ignore"):
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
        finite = np.isfinite(sums).all(axis=0)
        # The scatter's trace and sum of principal 2x2 minors bound its eigenvalues:
        # l1 <= trace and minors <= 3 l1 l2, so minors > 30 tol trace^2 gives l2 > 10 tol l1
        # and only the other sets need Jacobi.
        s00, s01, s02, s11, s12, s22 = sums[6:12]
        trace = s00 + s11 + s22
        minors = (s00 * s11 - s01 * s01) + (s00 * s22 - s02 * s02) + (s11 * s22 - s12 * s12)
        collinear = np.zeros(len(counts), dtype=bool)
        unsure = np.flatnonzero(finite & (minors <= 30.0 * COLLINEAR_TOL * trace * trace))
        if len(unsure):
            upper = iter(sums[6:12, unsure])
            scatter = [[next(upper) if j >= i else None for j in range(3)] for i in range(3)]
            a, b, c = algebra.jacobi_eigen(scatter)[0]  # the middle and top by compare-exchange
            high = np.maximum(a, b)
            collinear[unsure] = np.maximum(np.minimum(a, b), np.minimum(high, c)) <= COLLINEAR_TOL * np.maximum(high, c)
        rotation = algebra.horn_rotation([list(sums[12:15]), list(sums[15:18]), list(sums[18:21])])
        translation = [c - d for c, d in zip(sums[3:6], algebra.transform(rotation, list(sums[0:3])))]
        rms = np.empty(len(counts))
        moments = np.empty((24, len(counts)))  # per set: mean residual, the centred scatter of (src, residual) (upper)
        for a, b, offsets, rows in windows:
            n = counts[a:b]
            rotation_rows = [[np.repeat(x[a:b], n) for x in row] for row in rotation]
            moved = algebra.affine(rotation_rows, [np.repeat(x[a:b], n) for x in translation], list(src[rows].T))
            residual = [m - d for m, d in zip(moved, dst[rows].T)]
            rms[a:b] = np.sqrt(np.add.reduceat(inner(residual, residual), offsets) / n)
            mean = [np.add.reduceat(x, offsets) / n for x in residual]
            centred = [x - np.repeat(c, n) for x, c in zip([*src[rows].T, *residual], [*sums[0:3, a:b], *mean])]
            moments[:, a:b] = mean + [np.add.reduceat(centred[i] * centred[j], offsets) for i in range(6) for j in range(i, 6)]
    finite &= np.isfinite(rms) & np.isfinite(moments).all(axis=0)
    for k, e in enumerate(fitted.tolist()):
        if not finite[k]:
            errors[e] = ValueError("the alignment overflowed: its sums or residual are not finite")
        elif collinear[k]:
            errors[e] = DegenerateGeometryError("correspondence points are collinear; rotation is ambiguous")
    good = finite & ~collinear
    rotations[fitted[good]] = algebra.to_array(rotation)[good]
    translations[fitted[good]] = np.stack(translation, axis=-1)[good]
    residuals[fitted[good]] = rms[good]
    means[fitted[good]] = np.concatenate([sums[0:3], moments[0:3]]).T[good]
    for (i, j), value in zip([(i, j) for i in range(6) for j in range(i, 6)], moments[3:]):
        scatters[fitted[good], i, j] = scatters[fitted[good], j, i] = value[good]
    geom.check_rigid(rotations, translations)
    return rotations, translations, residuals, errors, means, scatters


class IcpResult(NamedTuple):
    transform: RigidTransform
    rms_residual: float


def icp(
    source: np.ndarray,
    target: np.ndarray,
    opts: IcpOptions = IcpOptions(),
    source_ids: tuple[int, ...] | None = None,
    target_ids: tuple[int, ...] | None = None,
    sizes=None,
) -> IcpResult | tuple:
    """Closed-form fit of the source points onto the target points, rows
    paired by landmark id or by row; no nearest-neighbour matching. With both
    id tuples, the rows of the ids both sides have are fitted by
    ``best_rigid_transform``: fewer than 3 raise ``DegenerateGeometryError``,
    non-finite points or an id tuple not one id per point ``ValueError``. With ``sizes``, source and target hold
    sets of ``sizes[k]`` rows one after another, paired row by row and fitted
    in one pass, and the result is ``_rigid_fits``' stacks, per-set errors and
    moments. A call with neither raises ``ValueError``."""
    src = np.asarray(source, dtype=float).reshape(-1, 3)
    dst = np.asarray(target, dtype=float).reshape(-1, 3)
    if sizes is not None:
        if len(src) != len(dst) or np.sum(sizes) != len(src):
            raise ValueError("source and target need sum(sizes) rows each")
        return _rigid_fits(src, dst, sizes)
    if source_ids is None or target_ids is None:
        raise ValueError("icp pairs rows by landmark id or by row: give both id tuples or sizes")
    if len(source_ids) != len(src) or len(target_ids) != len(dst):
        raise ValueError("icp needs one landmark id per point on each side")
    if not (np.isfinite(src).all() and np.isfinite(dst).all()):
        raise ValueError("icp points must be finite")
    dst_index = {lid: k for k, lid in enumerate(target_ids)}
    pairs = [(s, dst_index[lid]) for s, lid in enumerate(source_ids) if lid in dst_index]
    if len(pairs) < 3:
        raise DegenerateGeometryError("fewer than 3 landmark ids are shared")
    transform, rms = best_rigid_transform(src[[s for s, _ in pairs]], dst[[d for _, d in pairs]])
    return IcpResult(transform, rms)


def build_graph(pairs: Correspondences, reference: int, nodes: tuple[int, ...] = ()) -> TransformGraph:
    """Estimate one edge per camera pair, and the moments the graph keeps of
    its rows, all pairs in one ``icp`` call. Failed estimations are reported,
    not raised, so one bad overlap zone cannot sink the whole calibration,
    and leave no edge. Extra nodes let cameras without any usable pair still
    appear in the graph (and therefore surface as unreachable)."""
    # The edge holds the pose of camera j in camera i's frame, which is the
    # transform taking j-local observations to i-local ones.
    rotations, translations, residuals, errors, means, scatters = icp(pairs.points_j, pairs.points_i, sizes=pairs.counts)
    cameras = pairs.cameras.tolist()
    failures = tuple((cam_i, cam_j, str(error)) for (cam_i, cam_j), error in zip(cameras, errors) if error is not None)
    edges = (pairs.cameras, pairs.counts, rotations, translations, residuals, means, scatters)
    if failures:
        kept = np.array([error is None for error in errors], dtype=bool)
        edges = (x[kept] for x in edges)
    nodes = {reference, *nodes, *(camera for pair in cameras for camera in pair)}
    return TransformGraph(tuple(sorted(nodes)), reference, *edges, failures)


def propagate(graph: TransformGraph) -> RigidTransform:
    """Breadth-first spanning tree from the reference; each camera's global
    pose is its parent's composed with the edge between them, inverted when
    the tree walks the edge from camera j to camera i. The walk goes one
    level at a time, with one stacked ``geom.compose`` per level; a level's
    parents come in the order they were reached and each parent's new
    neighbours by id, as in a walk one camera at a time. Returns the poses
    as one stack in ``graph.nodes`` order."""
    edges = RigidTransform(graph.rotations, graph.translations)
    inverse = geom.invert(edges)
    step_rotations = np.concatenate([edges.rotation, inverse.rotation])  # edge k, then edge k backward at E + k
    step_translations = np.concatenate([edges.translation, inverse.translation])
    adjacency: dict[int, list[tuple[int, int]]] = {node: [] for node in graph.nodes}
    for k, (cam_i, cam_j) in enumerate(graph.cameras.tolist()):
        adjacency[cam_i].append((cam_j, k))
        adjacency[cam_j].append((cam_i, len(graph.residuals) + k))

    slot = {node: k for k, node in enumerate(graph.nodes)}
    rotations, translations = np.empty((len(slot), 3, 3)), np.empty((len(slot), 3))
    origin = geom.identity()  # the reference's pose
    rotations[slot[graph.reference]], translations[slot[graph.reference]] = origin.rotation, origin.translation
    level, reached = [graph.reference], {graph.reference}
    while level:
        tree: dict[int, tuple[int, int]] = {}  # each camera the level reaches: (parent's slot, step)
        for node in level:
            for neighbor, step in sorted(adjacency[node]):
                if neighbor not in reached and neighbor not in tree:
                    tree[neighbor] = (slot[node], step)
        if not tree:
            break
        parents, steps = (list(column) for column in zip(*tree.values()))
        parent = RigidTransform(rotations[parents], translations[parents])
        composed = geom.compose(parent, RigidTransform(step_rotations[steps], step_translations[steps]))
        children = [slot[node] for node in tree]
        rotations[children], translations[children] = composed.rotation, composed.translation
        reached.update(tree)
        level = list(tree)
    missing = [node for node in graph.nodes if node not in reached]
    if missing:
        raise DisconnectedGraphError(missing)
    return RigidTransform(rotations, translations)


def graph_cost(graph: TransformGraph, rotations: np.ndarray, translations: np.ndarray, relative=None) -> float:
    """Total matching cost at the poses (``relative``: their ``_relative_poses``
    if the caller has them): sum over edges and landmarks of the squared
    distance between the two observations brought into camera i's frame, edge
    after edge in edge order, each edge's sum n |c|^2 + tr(D S_pp D^T) + 2 tr(D S_ps) + tr(S_ss) of its moments."""
    relative = _relative_poses(graph, rotations, translations) if relative is None else relative
    per_edge = np.zeros(len(graph.residuals))
    for start in range(0, len(per_edge), EDGE_BLOCK):
        edges = slice(start, start + EDGE_BLOCK)
        _, _, d, n, _, c, s_pp, s_ps, s_ss = _edge_terms(graph, relative, edges)
        axes = zip(algebra.product(d, s_pp), d, algebra.transpose(s_ps), s_ss)
        spread = [inner(x, y) + 2.0 * inner(y, z) + w[a] for a, (x, y, z, w) in enumerate(axes)]
        per_edge[edges] = n * inner(c, c) + (spread[0] + spread[1] + spread[2])
    return float(np.cumsum(per_edge)[-1]) if len(per_edge) else 0.0


def loop_closure_error(graph: TransformGraph, rotations: np.ndarray, translations: np.ndarray) -> np.ndarray:
    """Per edge, in edge order, the discrepancy between the stored transform
    and the one the current poses imply: rotation angle plus translation
    distance. Nonzero values on non-tree edges are loop error."""
    rotation, translation = _relative_poses(graph, rotations, translations)
    stored = algebra.entries(graph.rotations)
    angles = geom._rotation_angles(algebra.to_array(algebra.product(algebra.transpose(algebra.entries(rotation)), stored)))
    offset = list((translation - graph.translations).T)
    return np.array(angles) + np.sqrt(inner(offset, offset))


def _normal_equations(graph: TransformGraph, rotations: np.ndarray, relative: tuple) -> tuple[np.ndarray, np.ndarray]:
    """J^T J and J^T r, at poses of ``rotations`` and ``relative`` poses, of
    the stacked residuals w.r.t. the free pose parameters (per free camera:
    axis-angle rotation increment, then translation, both applied as R <- R
    Exp(delta), t <- t + delta), cameras in ``graph.table.order``: J^T J as
    the lower band ``band[c, d]`` = entry (c + d, c), J^T r as a vector.

    Each edge's 6x6 block products (``moments._edge_products``) are added
    into its cameras' slots in edge order, in which a slot shared by several
    edges sums them; a side pinned as the reference adds nothing.
    """
    table = graph.table
    free = len(table.free)
    width = 6 * (table.bandwidth + 1)
    band, jtr = np.zeros((6 * free, width)), np.zeros(6 * free)
    # blocks[c, d, p, q] = band[6 c + q, 6 d + p - q]: entry (p, q) of the 6x6 block (c + d, c). Above a
    # diagonal block's diagonal it aliases other entries, so that triangle adds zeros.
    blocks = as_strided(band, (free, table.bandwidth + 1, 6, 6), [band.itemsize * x for x in (6 * width, 6, 1, width - 1)])
    for start in range(0, len(graph.residuals), EDGE_BLOCK):
        edges = slice(start, start + EDGE_BLOCK)
        products, gradients = _edge_products(graph, rotations, relative, edges)
        pairs = table.sides[edges]
        rows, cols = np.repeat(pairs, 2, axis=1).reshape(-1), np.tile(pairs, 2).reshape(-1)
        kept = (cols >= 0) & (rows >= cols)
        rows, cols, products = rows[kept], cols[kept], products.reshape(-1, 6, 6)[kept]
        products[(rows == cols)[:, None, None] & np.triu(np.ones((6, 6), dtype=bool), 1)] = 0.0
        np.add.at(blocks, (cols, rows - cols), products)
        kept = pairs.reshape(-1) >= 0
        np.add.at(jtr.reshape(free, 6), pairs.reshape(-1)[kept], gradients.reshape(-1, 6)[kept])
        del products, gradients  # before the next block's
    return band, jtr


def refine(graph: TransformGraph, initial: RigidTransform) -> tuple[RigidTransform, list[float]]:
    """Levenberg-Marquardt refinement of the global poses.

    ``initial`` is a stack of one pose per graph node in ``graph.nodes``
    order (``ValueError`` otherwise), as ``propagate`` returns it, and so
    are the refined poses. The reference pose is pinned to fix the gauge.
    Each step solves (J^T J + damping I) delta = -J^T r, J^T J held as a
    band (``_normal_equations``) and factored in place, damped
    (``algebra.band_solve``), so one band is alive and a retry rebuilds it.
    An accepted step strictly lowers the cost; the damping shrinks tenfold
    on one and grows tenfold on a rejection. A pose set's relative poses
    (``_relative_poses``) are formed once, for its cost and, if accepted,
    its normal equations. Refinement stops after ``REFINE_ITERATIONS``
    steps, when the gradient is below ``GRADIENT_TOL``, when an accepted
    step lowers the cost by less than ``RELATIVE_COST_TOL`` of it, or,
    before a candidate is evaluated, when the step's predicted decrease is
    at most that share of the cost. Returns the refined poses and the trace
    of accepted costs, the initial cost first.
    """
    if initial.rotation.shape != (len(graph.nodes), 3, 3):
        raise ValueError(f"initial poses must be a stack of {len(graph.nodes)}, one per graph node")
    rotations, translations = initial.rotation, initial.translation
    relative = _relative_poses(graph, rotations, translations)
    cost = graph_cost(graph, rotations, translations, relative)
    if not np.isfinite(cost):
        raise ValueError(f"the initial calibration cost is {cost!r}, not finite")
    trace = [cost]
    if len(graph.nodes) == 1 or not len(graph.residuals):
        return initial, trace

    position = _positions(graph.table.order)
    damping = 1e-3
    for _ in range(REFINE_ITERATIONS):
        band, jtr = _normal_equations(graph, rotations, relative)
        if float(np.max(np.abs(2.0 * jtr))) < GRADIENT_TOL:
            break
        relative_drop = 0.0  # until a step is accepted
        rhs = -jtr
        while damping < 1e12:
            if band is None:
                band = _normal_equations(graph, rotations, relative)[0]
            try:
                step = algebra.band_solve(band, damping, rhs)
            except np.linalg.LinAlgError:
                damping *= 10.0
                continue
            finally:
                band = None  # factored in place
            # The damped model predicts the drop damping |delta|^2 - delta . J^T r;
            # once that is within the cost's rounding, no step can show a real one.
            if float(np.sum(step * (damping * step + rhs))) <= RELATIVE_COST_TOL * cost:
                break
            candidate = _apply_step(graph, rotations, translations, step.reshape(-1, 6)[position].reshape(-1))
            moved = _relative_poses(graph, *candidate)
            new_cost = graph_cost(graph, *candidate, moved)
            if new_cost < cost:
                (rotations, translations), relative = candidate, moved
                relative_drop = (cost - new_cost) / max(cost, 1e-300)
                cost = new_cost
                trace.append(cost)
                damping = max(damping / 10.0, 1e-12)
                break
            damping *= 10.0
        if relative_drop < RELATIVE_COST_TOL:
            break
    return RigidTransform(rotations, translations), trace


def _apply_step(
    graph: TransformGraph, rotations: np.ndarray, translations: np.ndarray, delta: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The poses moved by one parameter step (see ``_normal_equations``),
    checked as one stack with ``geom.check_rigid``. A rotation is
    re-orthonormalized as ``geom.compose`` does it, when its drift exceeds
    ``geom.DRIFT_TOL``."""
    free = graph.table.free
    step = delta.reshape(-1, 6)
    rotations, translations = rotations.copy(), translations.copy()
    turned = algebra.product(algebra.entries(rotations[free]), algebra.entries(geom.rotation_from_axis_angle(step[:, :3])))
    rotations[free] = geom.reorthonormalized(algebra.to_array(turned))
    translations[free] += step[:, 3:]
    geom.check_rigid(rotations, translations)
    return rotations, translations
