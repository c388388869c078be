import math
import tracemalloc

import numpy as np
import pytest

from ubimap import calib, geom
from ubimap.calib import (
    CorrespondenceSet,
    DegenerateGeometryError,
    DisconnectedGraphError,
    IcpOptions,
    best_rigid_transform,
    build_graph,
    cost_gradient,
    graph_cost,
    icp,
    propagate,
    refine,
)
from ubimap.geom import RigidTransform


def random_transform(rng, max_angle=math.pi, max_shift=3.0):
    axis = rng.normal(size=3)
    axis /= np.linalg.norm(axis)
    angle = rng.uniform(-max_angle, max_angle)
    rot = geom.rotation_from_axis_angle(axis * angle)
    return RigidTransform(rot, rng.uniform(-max_shift, max_shift, size=3))


def correspondences_from_transform(t, points, noise=0.0, rng=None, ids=True):
    """points are in the i frame; the j side is t applied to them (plus noise),
    so best_rigid_transform should recover t."""
    pts_i = np.asarray(points, dtype=float)
    pts_j = t.transform_points(pts_i)
    if noise > 0:
        pts_i = pts_i + rng.normal(0, noise, pts_i.shape)
        pts_j = pts_j + rng.normal(0, noise, pts_j.shape)
    return CorrespondenceSet(
        camera_i=0,
        camera_j=1,
        points_i=pts_i,
        points_j=pts_j,
        landmark_ids=tuple(range(len(pts_i))) if ids else None,
    )


BASE_POINTS = np.array(
    [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]
)


# -- closed-form alignment --------------------------------------------------


def test_best_rigid_identity_on_identical_sets():
    cset = correspondences_from_transform(geom.identity(), BASE_POINTS)
    transform, rms = best_rigid_transform(cset)
    assert transform.is_close(geom.identity(), 1e-12, 1e-12)
    assert rms < 1e-14


def test_best_rigid_recovers_known_transform():
    true = geom.compose(geom.translation(1, 0, 0), geom.rot_z(math.pi / 2))
    cset = correspondences_from_transform(true, BASE_POINTS)
    transform, rms = best_rigid_transform(cset)
    assert transform.is_close(true, 1e-9, 1e-9)
    assert rms < 1e-12


def test_best_rigid_rejects_collinear_points():
    line = np.array([[0.0, 0, 0], [1.0, 0, 0], [2.0, 0, 0]])
    cset = CorrespondenceSet(camera_i=0, camera_j=1, points_i=line, points_j=line)
    with pytest.raises(DegenerateGeometryError):
        best_rigid_transform(cset)


def test_best_rigid_rejects_too_few_points():
    two = BASE_POINTS[:2]
    cset = CorrespondenceSet(camera_i=0, camera_j=1, points_i=two, points_j=two)
    with pytest.raises(DegenerateGeometryError):
        best_rigid_transform(cset)


def test_best_rigid_exact_on_noise_free_randomized():
    rng = np.random.default_rng(31)
    for _ in range(50):
        true = random_transform(rng)
        pts = rng.uniform(-2, 2, size=(rng.integers(4, 12), 3))
        transform, rms = best_rigid_transform(correspondences_from_transform(true, pts))
        assert rms < 1e-10
        assert geom.rotation_distance(transform, true) < 1e-7
        assert np.linalg.norm(transform.translation - true.translation) < 1e-9


def test_best_rigid_never_returns_reflection():
    # Nearly planar points push the SVD toward the reflection branch.
    rng = np.random.default_rng(5)
    pts = rng.uniform(-1, 1, size=(6, 3))
    pts[:, 2] *= 1e-6
    true = random_transform(rng)
    transform, _ = best_rigid_transform(correspondences_from_transform(true, pts))
    assert np.linalg.det(transform.rotation) == pytest.approx(1.0, abs=1e-9)


# -- ICP ---------------------------------------------------------------------


def test_icp_identity_in_one_iteration():
    pts = BASE_POINTS + 0.0
    result = icp(pts, pts, IcpOptions(use_known_ids=False))
    assert result.iterations == 1
    assert result.rms_residual < 1e-14
    assert result.transform.is_close(geom.identity(), 1e-12, 1e-12)


def test_icp_recovers_modest_transform_with_nn_matching():
    rng = np.random.default_rng(8)
    src = rng.uniform(-2, 2, size=(12, 3))
    true = geom.compose(geom.translation(0.3, -0.2, 0.1), geom.rot_z(math.radians(20)))
    dst = true.transform_points(src)
    result = icp(src, dst, IcpOptions(max_iterations=100, use_known_ids=False))
    assert geom.rotation_distance(result.transform, true) < 1e-6
    assert np.linalg.norm(result.transform.translation - true.translation) < 1e-6


def test_icp_with_known_ids_handles_large_rotations():
    rng = np.random.default_rng(9)
    src = rng.uniform(-2, 2, size=(10, 3))
    true = random_transform(rng)
    dst = true.transform_points(src)
    ids = tuple(range(10))
    result = icp(src, dst, IcpOptions(), source_ids=ids, target_ids=ids)
    assert geom.rotation_distance(result.transform, true) < 1e-7
    assert result.rms_residual < 1e-10


def test_icp_shuffled_ids_still_match():
    rng = np.random.default_rng(10)
    src = rng.uniform(-2, 2, size=(8, 3))
    true = random_transform(rng)
    perm = rng.permutation(8)
    dst = true.transform_points(src)[perm]
    result = icp(
        src,
        dst,
        IcpOptions(),
        source_ids=tuple(range(8)),
        target_ids=tuple(int(i) for i in perm),
    )
    assert geom.rotation_distance(result.transform, true) < 1e-7


def test_icp_with_known_ids_aligns_once(monkeypatch):
    # Pairs matched by id never change, so a second alignment would repeat the first.
    rng = np.random.default_rng(12)
    src = rng.uniform(-2, 2, size=(9, 3))
    perm = rng.permutation(9)
    dst = (random_transform(rng).transform_points(src) + rng.normal(0, 0.01, size=(9, 3)))[perm]
    calls = []
    monkeypatch.setattr(calib, "best_rigid_transform", lambda cset: calls.append(cset) or best_rigid_transform(cset))
    result = icp(src, dst, IcpOptions(), source_ids=tuple(range(9)), target_ids=tuple(int(i) for i in perm))
    assert result.iterations == 1 and len(calls) == 1
    order = np.argsort(perm)
    expected, rms = best_rigid_transform(CorrespondenceSet(camera_i=-1, camera_j=-1, points_i=src, points_j=dst[order]))
    assert result.rms_residual == rms
    assert np.array_equal(result.transform.rotation, expected.rotation)
    assert np.array_equal(result.transform.translation, expected.translation)


def test_icp_noisy_residual_bounded():
    rng = np.random.default_rng(11)
    sigma = 0.01
    hits = 0
    for _ in range(20):
        src = rng.uniform(-2, 2, size=(10, 3))
        true = random_transform(rng)
        dst = true.transform_points(src) + rng.normal(0, sigma, size=(10, 3))
        ids = tuple(range(10))
        result = icp(src, dst, IcpOptions(), source_ids=ids, target_ids=ids)
        if result.rms_residual <= 3 * sigma:
            hits += 1
    assert hits >= 19


def test_icp_residual_non_increasing():
    rng = np.random.default_rng(12)
    src = rng.uniform(-2, 2, size=(15, 3))
    true = geom.compose(geom.translation(0.4, 0.1, -0.2), geom.rot_z(0.5))
    dst = true.transform_points(src)

    # Instrumented re-run: replay ICP manually and watch the residual.
    opts = IcpOptions(max_iterations=50, use_known_ids=False)
    transform = geom.identity()
    last = None
    for _ in range(opts.max_iterations):
        moved = transform.transform_points(src)
        dists = np.linalg.norm(moved[:, None, :] - dst[None, :, :], axis=2)
        pairs = [(s, int(np.argmin(dists[s]))) for s in range(len(src))]
        cset = CorrespondenceSet(
            camera_i=0, camera_j=1,
            points_i=src[[s for s, _ in pairs]],
            points_j=dst[[d for _, d in pairs]],
        )
        transform, rms = best_rigid_transform(cset)
        if last is not None:
            assert rms <= last + 1e-12
        last = rms


def test_icp_hits_iteration_cap_without_error():
    rng = np.random.default_rng(13)
    src = rng.uniform(-2, 2, size=(10, 3))
    dst = rng.uniform(-2, 2, size=(10, 3))  # unrelated clouds
    result = icp(src, dst, IcpOptions(max_iterations=3, use_known_ids=False))
    assert result.iterations <= 3


# -- graph construction and propagation --------------------------------------


def synthetic_rig(n_cameras, rng, noise=0.0, cycle=False, landmarks_per_zone=6):
    """True global poses plus pairwise correspondence sets from shared
    landmarks observed in each camera's local frame."""
    true_poses = {0: geom.identity()}
    for k in range(1, n_cameras):
        true_poses[k] = random_transform(rng, max_angle=1.2, max_shift=2.0)
    pairs = [(k, k + 1) for k in range(n_cameras - 1)]
    if cycle:
        pairs.append((n_cameras - 1, 0))
    pairwise = []
    lm_id = 0
    for cam_i, cam_j in pairs:
        world_pts = rng.uniform(-1.5, 1.5, size=(landmarks_per_zone, 3))
        inv_i, inv_j = geom.invert(true_poses[cam_i]), geom.invert(true_poses[cam_j])
        pts_i = inv_i.transform_points(world_pts)
        pts_j = inv_j.transform_points(world_pts)
        if noise > 0:
            pts_i = pts_i + rng.normal(0, noise, pts_i.shape)
            pts_j = pts_j + rng.normal(0, noise, pts_j.shape)
        ids = tuple(range(lm_id, lm_id + landmarks_per_zone))
        lm_id += landmarks_per_zone
        pairwise.append(
            (cam_i, cam_j, CorrespondenceSet(cam_i, cam_j, pts_i, pts_j, landmark_ids=ids))
        )
    return true_poses, pairwise


def test_build_graph_single_pair():
    rng = np.random.default_rng(20)
    _, pairwise = synthetic_rig(2, rng)
    graph = build_graph(pairwise, IcpOptions(), reference=0)
    assert graph.nodes == (0, 1)
    assert len(graph.edges) == 1
    assert graph.failures == ()


def test_build_graph_chain_and_cycle_shapes():
    rng = np.random.default_rng(21)
    _, chain = synthetic_rig(4, rng)
    graph = build_graph(chain, IcpOptions(), reference=0)
    assert len(graph.edges) == 3
    _, ring = synthetic_rig(4, rng, cycle=True)
    graph = build_graph(ring, IcpOptions(), reference=0)
    assert len(graph.edges) == 4


def test_build_graph_reports_degenerate_pairs():
    line = np.array([[0.0, 0, 0], [1.0, 0, 0], [2.0, 0, 0]])
    bad = CorrespondenceSet(0, 1, line, line, landmark_ids=(0, 1, 2))
    graph = build_graph([(0, 1, bad)], IcpOptions(), reference=0)
    assert graph.edges == ()
    assert len(graph.failures) == 1
    assert graph.failures[0][:2] == (0, 1)


def test_propagate_reference_only():
    graph = build_graph([], IcpOptions(), reference=7)
    poses = propagate(graph)
    assert set(poses) == {7}
    assert poses[7].is_close(geom.identity(), 1e-15, 1e-15)


def test_propagate_translation_chain():
    edges = [
        (0, 1, correspondences_from_transform(geom.translation(-1, 0, 0), BASE_POINTS)),
        (1, 2, correspondences_from_transform(geom.translation(0, -1, 0), BASE_POINTS)),
    ]
    # correspondences_from_transform builds points_j = T(points_i); the edge
    # estimator aligns j onto i, i.e. recovers T^-1 as the edge transform.
    pairwise = [
        (i, j, CorrespondenceSet(i, j, c.points_i, c.points_j, c.landmark_ids))
        for (i, j, c) in edges
    ]
    graph = build_graph(pairwise, IcpOptions(), reference=0)
    poses = propagate(graph)
    assert np.allclose(poses[1].translation, [1, 0, 0], atol=1e-9)
    assert np.allclose(poses[2].translation, [1, 1, 0], atol=1e-9)


def test_propagate_matches_truth_on_noise_free_chain():
    rng = np.random.default_rng(22)
    true_poses, pairwise = synthetic_rig(4, rng)
    graph = build_graph(pairwise, IcpOptions(), reference=0)
    poses = propagate(graph)
    for cam, pose in poses.items():
        assert geom.rotation_distance(pose, true_poses[cam]) < 1e-9
        assert np.linalg.norm(pose.translation - true_poses[cam].translation) < 1e-9


def test_propagate_raises_on_disconnected_graph():
    rng = np.random.default_rng(23)
    _, pairwise = synthetic_rig(2, rng)
    graph = build_graph(pairwise, IcpOptions(), reference=0)
    disconnected = calib.TransformGraph(
        nodes=graph.nodes + (9,), edges=graph.edges, reference=0
    )
    with pytest.raises(DisconnectedGraphError) as err:
        propagate(disconnected)
    assert err.value.unreachable == (9,)


def test_tree_edges_reproduced_exactly():
    rng = np.random.default_rng(24)
    _, pairwise = synthetic_rig(5, rng)
    graph = build_graph(pairwise, IcpOptions(), reference=0)
    poses = propagate(graph)
    for edge in graph.edges:  # a chain: every edge is a tree edge
        implied = geom.compose(geom.invert(poses[edge.camera_i]), poses[edge.camera_j])
        assert implied.is_close(edge.transform, 1e-9, 1e-9)


# -- global refinement --------------------------------------------------------


def test_refine_noise_free_chain_stays_exact():
    rng = np.random.default_rng(25)
    _, pairwise = synthetic_rig(4, rng)
    graph = build_graph(pairwise, IcpOptions(), reference=0)
    poses = propagate(graph)
    refined, trace = refine(graph, poses)
    assert trace[-1] < 1e-10
    assert trace[-1] <= trace[0] + 1e-18


def test_refine_reduces_cost_on_noisy_cycle():
    rng = np.random.default_rng(26)
    _, pairwise = synthetic_rig(4, rng, noise=0.005, cycle=True)
    graph = build_graph(pairwise, IcpOptions(), reference=0)
    initial = propagate(graph)
    refined, trace = refine(graph, initial)
    assert trace[-1] <= trace[0]
    assert all(b < a + 1e-15 for a, b in zip(trace, trace[1:]))


def test_refine_reduces_loop_closure_error():
    rng = np.random.default_rng(27)
    _, pairwise = synthetic_rig(4, rng, noise=0.01, cycle=True)
    graph = build_graph(pairwise, IcpOptions(), reference=0)
    initial = propagate(graph)
    before = calib.loop_closure_error(graph, initial)
    closing = max(before, key=lambda k: before[k])
    refined, _ = refine(graph, initial)
    after = calib.loop_closure_error(graph, refined)
    assert after[closing] < before[closing]


def test_refine_fixed_point_on_optimal_input():
    rng = np.random.default_rng(28)
    _, pairwise = synthetic_rig(4, rng, noise=0.004, cycle=True)
    graph = build_graph(pairwise, IcpOptions(), reference=0)
    first, trace1 = refine(graph, propagate(graph))
    second, trace2 = refine(graph, first)
    assert abs(trace2[-1] - trace1[-1]) < 1e-12 * max(1.0, trace1[-1])
    for cam in first:
        assert second[cam].is_close(first[cam], 1e-9, 1e-9)


def test_refine_keeps_reference_fixed():
    rng = np.random.default_rng(29)
    _, pairwise = synthetic_rig(3, rng, noise=0.01, cycle=True)
    graph = build_graph(pairwise, IcpOptions(), reference=0)
    refined, _ = refine(graph, propagate(graph))
    assert refined[0].is_close(geom.identity(), 1e-15, 1e-15)


def test_gauge_invariance_of_cost():
    rng = np.random.default_rng(30)
    _, pairwise = synthetic_rig(4, rng, noise=0.01, cycle=True)
    graph = build_graph(pairwise, IcpOptions(), reference=0)
    poses = propagate(graph)
    base = graph_cost(graph, poses)
    common = random_transform(rng)
    shifted = {cam: geom.compose(common, pose) for cam, pose in poses.items()}
    assert graph_cost(graph, shifted) == pytest.approx(base, rel=1e-9)


def test_gradient_matches_central_differences():
    rng = np.random.default_rng(31)
    for _ in range(5):
        _, pairwise = synthetic_rig(3, rng, noise=0.02, cycle=True, landmarks_per_zone=5)
        graph = build_graph(pairwise, IcpOptions(), reference=0)
        poses = propagate(graph)
        grad = cost_gradient(graph, poses)
        free = [n for n in sorted(poses) if n != graph.reference]
        index = {node: i for i, node in enumerate(free)}
        h = 1e-6
        fd = np.zeros_like(grad)
        for p in range(6 * len(free)):
            delta = np.zeros(6 * len(free))
            delta[p] = h
            up = graph_cost(graph, calib._apply_step(poses, index, delta))
            delta[p] = -h
            down = graph_cost(graph, calib._apply_step(poses, index, delta))
            fd[p] = (up - down) / (2 * h)
        # Zero-gradient components carry only FD roundoff; compare vector-wise.
        assert np.max(np.abs(grad - fd)) / max(np.max(np.abs(fd)), 1e-8) < 1e-5


# -- blockwise normal equations against the dense Jacobian -------------------


def dense_residuals_and_jacobian(graph, poses, index):
    """Reference: the stacked residual vector and the full Jacobian w.r.t.
    the free pose parameters, filled one landmark at a time."""
    rows = sum(3 * len(edge.correspondences) for edge in graph.edges)
    residuals = np.zeros(rows)
    jacobian = np.zeros((rows, 6 * len(index)))
    row = 0
    for edge in graph.edges:
        g_i, g_j = poses[edge.camera_i], poses[edge.camera_j]
        r_i, t_i = g_i.rotation, g_i.translation
        r_j, t_j = g_j.rotation, g_j.translation
        for k in range(len(edge.correspondences)):
            p_j = edge.correspondences.points_j[k]
            p_i = edge.correspondences.points_i[k]
            s = r_j @ p_j + t_j - t_i
            residuals[row : row + 3] = r_i.T @ s - p_i
            if edge.camera_j in index:
                col = 6 * index[edge.camera_j]
                jacobian[row : row + 3, col : col + 3] = -(r_i.T @ r_j) @ geom.skew(p_j)
                jacobian[row : row + 3, col + 3 : col + 6] = r_i.T
            if edge.camera_i in index:
                col = 6 * index[edge.camera_i]
                jacobian[row : row + 3, col : col + 3] = geom.skew(r_i.T @ s)
                jacobian[row : row + 3, col + 3 : col + 6] = -r_i.T
            row += 3
    return residuals, jacobian


@pytest.mark.parametrize("n_cameras, cycle", [(4, True), (2, False)])
def test_normal_equations_match_dense_jacobian(n_cameras, cycle):
    rng = np.random.default_rng(32)
    _, pairwise = synthetic_rig(n_cameras, rng, noise=0.01, cycle=cycle)
    graph = build_graph(pairwise, IcpOptions(), reference=0)
    if cycle:
        # The pinned reference sits on both sides of an edge.
        assert any(e.camera_i == 0 for e in graph.edges)
        assert any(e.camera_j == 0 for e in graph.edges)
    free = [n for n in graph.nodes if n != graph.reference]
    index = {node: i for i, node in enumerate(free)}
    # Step off the propagated poses so no gradient component is ~0.
    poses = calib._apply_step(propagate(graph), index, rng.normal(0, 0.05, 6 * len(free)))
    jtj, jtr = calib._normal_equations(graph, poses, index)
    residuals, jacobian = dense_residuals_and_jacobian(graph, poses, index)
    for blockwise, dense in ((jtj, jacobian.T @ jacobian), (jtr, jacobian.T @ residuals)):
        np.testing.assert_allclose(blockwise, dense, rtol=1e-12, atol=1e-12 * np.max(np.abs(dense)))
    assert np.array_equal(cost_gradient(graph, poses), 2.0 * jtr)


def test_refine_memory_stays_below_one_dense_jacobian():
    rng = np.random.default_rng(33)
    _, pairwise = synthetic_rig(40, rng, noise=0.01, cycle=True, landmarks_per_zone=24)
    graph = build_graph(pairwise, IcpOptions(), reference=0)
    initial = propagate(graph)
    rows = sum(3 * len(edge.correspondences) for edge in graph.edges)
    dense_bytes = rows * 6 * (len(graph.nodes) - 1) * 8
    tracemalloc.start()
    try:
        _, trace = refine(graph, initial)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert trace[-1] < trace[0]
    assert peak < dense_bytes, (peak, dense_bytes)
