"""Multi-camera extrinsic calibration from shared landmarks.

Pipeline: pairwise rigid alignment (closed-form least squares inside an ICP
loop), a transformation graph over the cameras, propagation of poses from a
reference camera, and a damped least-squares refinement of the total
matching cost. The refinement solves blockwise normal equations: J^T J and
J^T r are summed edge by edge from per-camera 6-column Jacobian blocks, so
memory is O((6N)^2) for N cameras, independent of the landmark count.

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

import numpy as np

from . import geom
from .geom import RigidTransform

COLLINEAR_TOL = 1e-9


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
        if not (np.all(np.isfinite(pi)) and np.all(np.isfinite(pj))):
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
class TransformGraph:
    nodes: tuple[int, ...]
    edges: tuple[GraphEdge, ...]
    reference: int
    failures: tuple[tuple[int, int, str], ...] = ()

    def __post_init__(self) -> None:
        if self.reference not in self.nodes:
            raise ValueError(f"reference camera {self.reference} is not a graph node")
        seen = set()
        for edge in self.edges:
            key = frozenset((edge.camera_i, edge.camera_j))
            if key in seen:
                raise ValueError(f"duplicate edge between cameras {sorted(key)}")
            seen.add(key)


def best_rigid_transform(c: CorrespondenceSet) -> tuple[RigidTransform, float]:
    """Closed-form least-squares rigid alignment of the i-side onto the j-side.

    Returns the transform minimizing sum_k ||T p_i^k - p_j^k||^2 via the
    centroid / cross-covariance / SVD construction, with the reflection
    corrected so the rotation is proper, plus the RMS residual.
    """
    src, dst = c.points_i, c.points_j
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
    change, so then the first alignment is final.
    """
    src = np.asarray(source, dtype=float).reshape(-1, 3)
    dst = np.asarray(target, dtype=float).reshape(-1, 3)
    if len(src) < 3 or len(dst) < 3:
        raise DegenerateGeometryError("both point sets need >= 3 points")

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
                correspondences=cset,
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


def graph_cost(graph: TransformGraph, poses: dict[int, RigidTransform]) -> float:
    """Total matching cost: sum over edges and landmarks of the squared
    distance between the two observations brought into camera i's frame."""
    cost = 0.0
    for edge in graph.edges:
        e_ij = geom.compose(geom.invert(poses[edge.camera_i]), poses[edge.camera_j])
        diff = e_ij.transform_points(edge.correspondences.points_j) - edge.correspondences.points_i
        cost += float(np.sum(diff**2))
    return cost


def loop_closure_error(graph: TransformGraph, poses: dict[int, RigidTransform]) -> dict[tuple[int, int], float]:
    """Per-edge discrepancy between the stored transform and the one the
    current poses imply; nonzero values on non-tree edges are loop error."""
    out = {}
    for edge in graph.edges:
        implied = geom.compose(geom.invert(poses[edge.camera_i]), poses[edge.camera_j])
        rot_err = geom.rotation_distance(implied, edge.transform)
        tra_err = float(np.linalg.norm(implied.translation - edge.transform.translation))
        out[(edge.camera_i, edge.camera_j)] = rot_err + tra_err
    return out


def _normal_equations(
    graph: TransformGraph,
    poses: dict[int, RigidTransform],
    index: dict[int, int],
) -> tuple[np.ndarray, np.ndarray]:
    """J^T J and J^T r of the stacked residuals w.r.t. the free pose
    parameters (per camera: axis-angle rotation increment, then translation,
    both applied as R <- R Exp(delta), t <- t + delta).

    Accumulated one edge at a time: the edge's (3n, 6) Jacobian block for
    each free camera it touches is formed from all its landmarks at once,
    and the block products are added into the camera pair's 6x6 slots.
    """
    jtj = np.zeros((6 * len(index), 6 * len(index)))
    jtr = np.zeros(6 * len(index))
    for edge in graph.edges:
        g_i, g_j = poses[edge.camera_i], poses[edge.camera_j]
        p_i, p_j = edge.correspondences.points_i, edge.correspondences.points_j
        r_i_t = np.broadcast_to(g_i.rotation.T, (len(p_j), 3, 3))
        # Landmarks seen by camera j, brought into camera i's frame.
        in_i = (p_j @ g_j.rotation.T + g_j.translation - g_i.translation) @ g_i.rotation
        residuals = (in_i - p_i).reshape(-1)
        blocks = []  # (parameter slot, Jacobian block); the pinned reference has none
        if edge.camera_j in index:
            jac_j = np.concatenate([-(g_i.rotation.T @ g_j.rotation) @ geom.skew(p_j), r_i_t], axis=2)
            blocks.append((6 * index[edge.camera_j], jac_j.reshape(-1, 6)))
        if edge.camera_i in index:
            jac_i = np.concatenate([geom.skew(in_i), -r_i_t], axis=2)
            blocks.append((6 * index[edge.camera_i], jac_i.reshape(-1, 6)))
        for a, jac_a in blocks:
            jtr[a : a + 6] += jac_a.T @ residuals
            for b, jac_b in blocks:
                jtj[a : a + 6, b : b + 6] += jac_a.T @ jac_b
    return jtj, jtr


def cost_gradient(graph: TransformGraph, poses: dict[int, RigidTransform]) -> np.ndarray:
    """Analytic gradient of the total cost w.r.t. the free pose parameters
    (all cameras except the reference, ordered by id)."""
    index = {node: i for i, node in enumerate(n for n in sorted(poses) if n != graph.reference)}
    return 2.0 * _normal_equations(graph, poses, index)[1]


def refine(
    graph: TransformGraph,
    initial: dict[int, RigidTransform],
    max_iterations: int = 50,
    gradient_tol: float = 1e-10,
    relative_cost_tol: float = 1e-12,
) -> tuple[dict[int, RigidTransform], list[float]]:
    """Levenberg-Marquardt refinement of the global poses.

    The reference pose is pinned to fix the gauge. Accepted steps strictly
    decrease the cost; the damping factor shrinks tenfold on success and
    grows tenfold on rejection. Each step solves (J^T J + damping I) delta
    = -J^T r, with J^T J and J^T r accumulated edge by edge; only these
    (6N)^2 and 6N arrays are held, never the full Jacobian. Returns the
    refined poses and the trace of accepted costs (starting with the initial
    cost).
    """
    for node in graph.nodes:
        if node not in initial:
            raise ValueError(f"initial poses missing camera {node}")
    poses = dict(initial)
    free = [n for n in sorted(poses) if n != graph.reference]
    index = {node: i for i, node in enumerate(free)}

    cost = graph_cost(graph, poses)
    trace = [cost]
    if not free or not graph.edges:
        return poses, trace

    damping = 1e-3
    for _ in range(max_iterations):
        hessian, jtr = _normal_equations(graph, poses, index)
        if float(np.max(np.abs(2.0 * jtr))) < gradient_tol:
            break
        stepped = False
        curvature = hessian.diagonal().copy()
        while damping < 1e12:
            # The damped system is formed in place: nothing else reads hessian.
            np.fill_diagonal(hessian, curvature + damping)
            try:
                delta = np.linalg.solve(hessian, -jtr)
            except np.linalg.LinAlgError:
                damping *= 10.0
                continue
            candidate = _apply_step(poses, index, delta)
            new_cost = graph_cost(graph, candidate)
            if new_cost < cost:
                poses = candidate
                relative_drop = (cost - new_cost) / max(cost, 1e-300)
                cost = new_cost
                trace.append(cost)
                damping = max(damping / 10.0, 1e-12)
                stepped = True
                if relative_drop < relative_cost_tol:
                    return poses, trace
                break
            damping *= 10.0
        if not stepped:
            break
    return poses, trace


def _apply_step(
    poses: dict[int, RigidTransform], index: dict[int, int], delta: np.ndarray
) -> dict[int, RigidTransform]:
    out = dict(poses)
    for node, i in index.items():
        d_rot = delta[6 * i : 6 * i + 3]
        d_tra = delta[6 * i + 3 : 6 * i + 6]
        old = poses[node]
        rotation = geom.nearest_rotation(old.rotation @ geom.rotation_from_axis_angle(d_rot))
        out[node] = RigidTransform(rotation, old.translation + d_tra)
    return out
