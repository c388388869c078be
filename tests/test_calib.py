import dataclasses
import importlib.util
import math
import pickle
import tracemalloc
from collections import deque
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from ubimap import algebra, calib, cli, geom, pipeline
from ubimap.calib import (
    DegenerateGeometryError,
    DisconnectedGraphError,
    IcpOptions,
    best_rigid_transform,
    build_graph,
    graph_cost,
    icp,
    propagate,
    refine,
)
from ubimap.geom import RigidTransform

from oracles import (
    band_solve_summed,
    cost_gradient,
    graph_edges,
    is_close,
    kabsch,
    normal_equations,
    refine_per_call,
    rot_z,
    row_graph_cost,
    row_normal_equations,
    skew,
    stack_pairs,
)


def pose_dict(graph, poses):
    """A pose stack in ``graph.nodes`` order as the per-camera oracles take
    it: camera id -> pose."""
    return dict(zip(graph.nodes, geom.unstack(poses)))


def pose_arrays(graph, poses):
    """Camera id -> pose as (N, 3, 3) rotations and (N, 3) translations in
    ``graph.nodes`` order."""
    return np.stack([poses[n].rotation for n in graph.nodes]), np.stack([poses[n].translation for n in graph.nodes])


def random_transform(rng, max_angle=math.pi, max_shift=3.0):
    axis = rng.normal(size=3)
    axis /= np.linalg.norm(axis)
    angle = rng.uniform(-max_angle, max_angle)
    rot = geom.rotation_from_axis_angle(axis * angle)
    return RigidTransform(rot, rng.uniform(-max_shift, max_shift, size=3))


def correspondences_from_transform(t, points, noise=0.0, rng=None):
    """points are in the i frame; the j side is t applied to them (plus noise),
    so best_rigid_transform should recover t."""
    pts_i = np.asarray(points, dtype=float)
    pts_j = t.transform_points(pts_i)
    if noise > 0:
        pts_i = pts_i + rng.normal(0, noise, pts_i.shape)
        pts_j = pts_j + rng.normal(0, noise, pts_j.shape)
    return pts_i, pts_j


BASE_POINTS = np.array(
    [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]
)


# -- closed-form alignment --------------------------------------------------


def test_best_rigid_identity_on_identical_sets():
    cset = correspondences_from_transform(geom.identity(), BASE_POINTS)
    transform, rms = best_rigid_transform(*cset)
    assert is_close(transform, geom.identity(), 1e-12, 1e-12)
    assert rms < 1e-14


def test_best_rigid_recovers_known_transform():
    true = geom.compose(geom.translation(1, 0, 0), rot_z(math.pi / 2))
    cset = correspondences_from_transform(true, BASE_POINTS)
    transform, rms = best_rigid_transform(*cset)
    assert is_close(transform, true, 1e-9, 1e-9)
    assert rms < 1e-12


def test_best_rigid_rejects_collinear_points():
    line = np.array([[0.0, 0, 0], [1.0, 0, 0], [2.0, 0, 0]])
    with pytest.raises(DegenerateGeometryError):
        best_rigid_transform(line, line)


def test_best_rigid_rejects_too_few_points():
    two = BASE_POINTS[:2]
    with pytest.raises(DegenerateGeometryError):
        best_rigid_transform(two, two)


def test_best_rigid_exact_on_noise_free_randomized():
    rng = np.random.default_rng(31)
    for _ in range(50):
        true = random_transform(rng)
        pts = rng.uniform(-2, 2, size=(rng.integers(4, 12), 3))
        transform, rms = best_rigid_transform(*correspondences_from_transform(true, pts))
        assert rms < 1e-10
        assert geom.rotation_distance(transform, true) < 1e-7
        assert np.linalg.norm(transform.translation - true.translation) < 1e-9


def test_best_rigid_never_returns_reflection():
    # Nearly planar points push the SVD toward the reflection branch.
    rng = np.random.default_rng(5)
    pts = rng.uniform(-1, 1, size=(6, 3))
    pts[:, 2] *= 1e-6
    true = random_transform(rng)
    transform, _ = best_rigid_transform(*correspondences_from_transform(true, pts))
    assert np.linalg.det(transform.rotation) == pytest.approx(1.0, abs=1e-9)


def aligned_set(rng, kind):
    """A source point set and its target under a random rigid motion, with
    0.01 noise on half of them: ``random`` 4 to 20 points in a 4 m cube,
    ``half_turn`` such a set turned within 1e-6 rad of 180 degrees,
    ``planar`` 4 to 20 points on a tilted plane, ``minimal`` a 3-point
    triangle no thinner than 0.5 m."""
    n = 3 if kind == "minimal" else int(rng.integers(4, 21))
    src = rng.uniform(-2.0, 2.0, (n, 3))
    if kind == "planar":
        src = random_transform(rng).transform_points(src * [1.0, 1.0, 0.0])
    elif kind == "minimal":
        src = random_transform(rng).transform_points(
            [[0.0, 0.0, 0.0], [rng.uniform(0.5, 2.0), 0.0, 0.0], [rng.uniform(-2.0, 2.0), rng.uniform(0.5, 2.0), 0.0]]
        )
    motion = random_transform(rng)
    if kind == "half_turn":
        axis = rng.normal(size=3)
        axis *= (math.pi - rng.uniform(0.0, 1e-6)) / np.linalg.norm(axis)
        motion = RigidTransform(geom.rotation_from_axis_angle(axis), motion.translation)
    dst = motion.transform_points(src)
    if rng.integers(2):
        dst = dst + rng.normal(0.0, 0.01, dst.shape)
    return src, dst


@settings(max_examples=200, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.lists(st.sampled_from(["random", "half_turn", "planar", "minimal"]), min_size=1, max_size=8),
)
@example(1, ["half_turn"])
@example(2, ["minimal", "planar", "random", "half_turn", "minimal"])
def test_batched_horn_fit_matches_svd_kabsch(seed, kinds):
    rng = np.random.default_rng(seed)
    sets = [aligned_set(rng, kind) for kind in kinds]
    rotations, translations, residuals, errors, means, scatters = icp(
        np.concatenate([src for src, _ in sets]),
        np.concatenate([dst for _, dst in sets]),
        IcpOptions(),
        sizes=[len(src) for src, _ in sets],
    )
    assert errors == [None] * len(sets) and len(rotations) == len(translations) == len(residuals) == len(sets)
    fits = zip(sets, rotations, translations, residuals.tolist(), means, scatters)
    for (src, dst), fit_rotation, fit_translation, fit_rms, mean, scatter in fits:
        rotation, translation = kabsch(src, dst)
        np.testing.assert_allclose(fit_rotation, rotation, rtol=0, atol=1e-12)
        np.testing.assert_allclose(fit_translation, translation, rtol=0, atol=1e-12)
        # The moments the graph keeps: means and centred scatter of (src, the fit's residual).
        rows = np.hstack([src, src @ fit_rotation.T + fit_translation - dst])
        centred = rows - rows.mean(axis=0)
        np.testing.assert_allclose(mean, rows.mean(axis=0), rtol=0, atol=1e-13)
        np.testing.assert_allclose(scatter, centred.T @ centred, rtol=0, atol=1e-12)
        # One set alone gives the bits it gets among many.
        alone, rms = best_rigid_transform(src, dst)
        assert np.array_equal(alone.rotation, fit_rotation)
        assert np.array_equal(alone.translation, fit_translation) and rms == fit_rms


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(3, 12), st.sampled_from([0.0, 1e-12, 1e-9]))
def test_collinear_and_nearly_collinear_sets_are_degenerate(seed, n, jitter):
    # Points along a tilted line, off it by at most jitter times their spread
    # (the scatter's second eigenvalue then stays below COLLINEAR_TOL times the
    # first), are rejected alone and within a batch; a set of full rank
    # beside them still fits.
    rng = np.random.default_rng(seed)
    direction = rng.normal(size=3)
    line = rng.uniform(-5.0, 5.0, 3) + rng.uniform(-2.0, 2.0, (n, 1)) * direction / np.linalg.norm(direction)
    line = line + jitter * rng.uniform(-1.0, 1.0, line.shape)
    with pytest.raises(DegenerateGeometryError, match="collinear"):
        best_rigid_transform(line, line + 1.0)
    good = rng.uniform(-2.0, 2.0, (5, 3))
    errors = icp(np.concatenate([line, good]), np.concatenate([line, good]) + 1.0, IcpOptions(), sizes=[n, 5])[3]
    assert isinstance(errors[0], DegenerateGeometryError) and errors[1] is None


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(3, 12), st.floats(-17.0, -9.0))
@example(3, 6, -14.5)
@example(4, 6, -13.5)
def test_collinearity_is_read_from_the_scatter_eigenvalues(seed, n, log_ratio):
    # A thin tilted set whose scatter has l2 / l1 near 10**log_ratio: it is
    # rejected below COLLINEAR_TOL / 2 and fitted above 2 COLLINEAR_TOL,
    # on both sides of the closed-form test that spares most sets Jacobi.
    rng = np.random.default_rng(seed)
    local = np.zeros((n, 3))
    local[:, 0] = rng.uniform(-2.0, 2.0, n)
    local[:, 1] = 10.0 ** (log_ratio / 2) * rng.uniform(-2.0, 2.0, n)
    src = random_transform(rng).transform_points(local)
    centred = src - src.mean(axis=0)
    _, mid, high = np.linalg.eigvalsh(centred.T @ centred)
    ratio = mid / high
    if calib.COLLINEAR_TOL / 2 < ratio < 2 * calib.COLLINEAR_TOL:
        return
    error = icp(src, src + 1.0, IcpOptions(), sizes=[n])[3][0]
    assert isinstance(error, DegenerateGeometryError) == (ratio < calib.COLLINEAR_TOL)


# -- ICP ---------------------------------------------------------------------


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
    monkeypatch.setattr(calib, "best_rigid_transform", lambda *sets: calls.append(sets) or best_rigid_transform(*sets))
    result = icp(src, dst, IcpOptions(), source_ids=tuple(range(9)), target_ids=tuple(int(i) for i in perm))
    assert len(calls) == 1
    order = np.argsort(perm)
    expected, rms = best_rigid_transform(src, dst[order])
    assert result.rms_residual == rms
    assert np.array_equal(result.transform.rotation, expected.rotation)
    assert np.array_equal(result.transform.translation, expected.translation)


def test_icp_by_id_needs_three_shared_ids():
    rng = np.random.default_rng(14)
    src = rng.uniform(-2, 2, size=(5, 3))
    with pytest.raises(DegenerateGeometryError, match="fewer than 3"):
        icp(src, src + 1.0, IcpOptions(), (0, 1, 2, 3, 4), (3, 4, 5, 6, 7))
    with pytest.raises(DegenerateGeometryError, match="fewer than 3"):
        icp(src[:2], src[:2] + 1.0, IcpOptions(), (0, 1), (0, 1))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("side", [0, 1])
def test_icp_by_id_rejects_non_finite_points(bad, side):
    rng = np.random.default_rng(15)
    sets = [rng.uniform(-2, 2, size=(6, 3)) for _ in range(2)]
    sets[side][4, 1] = bad
    ids = tuple(range(6))
    with pytest.raises(ValueError, match="finite"):
        icp(*sets, IcpOptions(), ids, ids)


@pytest.mark.parametrize("ids", [(None, None), (tuple(range(6)), None), (None, tuple(range(6)))])
def test_icp_without_ids_or_sizes_is_an_error(ids):
    # No nearest-neighbour matching: rows are paired by id or by row, or not at all.
    src = np.random.default_rng(16).uniform(-2, 2, size=(6, 3))
    with pytest.raises(ValueError, match="id tuples or sizes"):
        icp(src, src + 1.0, IcpOptions(), *ids)


def test_icp_by_id_fits_only_the_shared_ids():
    # Source ids 0..9, target ids 4..15 shuffled: ids 4..9 are shared, the rest
    # of either side is skipped, and the fit is the shared rows' fit, bit for bit.
    rng = np.random.default_rng(17)
    src = rng.uniform(-2, 2, size=(10, 3))
    target_ids = tuple(int(i) for i in rng.permutation(np.arange(4, 16)))
    world = rng.uniform(-2, 2, size=(16, 3))
    world[:10] = random_transform(rng).transform_points(src) + rng.normal(0, 0.01, size=(10, 3))
    dst = world[list(target_ids)]
    result = icp(src, dst, IcpOptions(), tuple(range(10)), target_ids)
    shared = list(range(4, 10))
    expected, rms = best_rigid_transform(src[shared], dst[[target_ids.index(i) for i in shared]])
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
    true = geom.compose(geom.translation(0.4, 0.1, -0.2), rot_z(0.5))
    dst = true.transform_points(src)

    # Instrumented re-run: replay ICP manually and watch the residual.
    transform = geom.identity()
    last = None
    for _ in range(50):
        moved = transform.transform_points(src)
        dists = np.linalg.norm(moved[:, None, :] - dst[None, :, :], axis=2)
        pairs = [(s, int(np.argmin(dists[s]))) for s in range(len(src))]
        transform, rms = best_rigid_transform(src[[s for s, _ in pairs]], dst[[d for _, d in pairs]])
        if last is not None:
            assert rms <= last + 1e-12
        last = rms


# -- graph construction and propagation --------------------------------------


def synthetic_rig(n_cameras, rng, noise=0.0, cycle=False, landmarks_per_zone=6, chords=()):
    """True global poses plus the correspondence table of shared landmarks
    observed in each camera's local frame: a chain, closed into a cycle on
    request, plus the extra camera pairs in ``chords``.
    ``landmarks_per_zone`` is one count for every pair or a sequence of
    counts, one per pair."""
    true_poses = {0: geom.identity()}
    for k in range(1, n_cameras):
        true_poses[k] = random_transform(rng, max_angle=1.2, max_shift=2.0)
    pairs = [(k, k + 1) for k in range(n_cameras - 1)]
    if cycle:
        pairs.append((n_cameras - 1, 0))
    pairs.extend(chords)
    if isinstance(landmarks_per_zone, int):
        landmarks_per_zone = [landmarks_per_zone] * len(pairs)
    pairwise = []
    for (cam_i, cam_j), count in zip(pairs, landmarks_per_zone):
        world_pts = rng.uniform(-1.5, 1.5, size=(count, 3))
        inv_i, inv_j = geom.invert(true_poses[cam_i]), geom.invert(true_poses[cam_j])
        pts_i = inv_i.transform_points(world_pts)
        pts_j = inv_j.transform_points(world_pts)
        if noise > 0:
            pts_i = pts_i + rng.normal(0, noise, pts_i.shape)
            pts_j = pts_j + rng.normal(0, noise, pts_j.shape)
        pairwise.append((cam_i, cam_j, pts_i, pts_j))
    return true_poses, stack_pairs(pairwise)


def test_build_graph_single_pair():
    rng = np.random.default_rng(20)
    _, pairwise = synthetic_rig(2, rng)
    graph = build_graph(pairwise, reference=0)
    assert graph.nodes == (0, 1)
    assert len(graph_edges(graph)) == 1
    assert graph.failures == ()


def test_build_graph_chain_and_cycle_shapes():
    rng = np.random.default_rng(21)
    _, chain = synthetic_rig(4, rng)
    graph = build_graph(chain, reference=0)
    assert len(graph_edges(graph)) == 3
    _, ring = synthetic_rig(4, rng, cycle=True)
    graph = build_graph(ring, reference=0)
    assert len(graph_edges(graph)) == 4


def test_build_graph_reports_degenerate_pairs():
    line = np.array([[0.0, 0, 0], [1.0, 0, 0], [2.0, 0, 0]])
    graph = build_graph(stack_pairs([(0, 1, line, line)]), reference=0)
    assert graph_edges(graph) == []
    assert len(graph.failures) == 1
    assert graph.failures[0][:2] == (0, 1)


def test_propagate_reference_only():
    graph = build_graph(stack_pairs([]), reference=7)
    poses = propagate(graph)
    assert graph.nodes == (7,) and poses.rotation.shape == (1, 3, 3)
    assert is_close(geom.unstack(poses)[0], geom.identity(), 1e-15, 1e-15)


def test_propagate_translation_chain():
    edges = [
        (0, 1, *correspondences_from_transform(geom.translation(-1, 0, 0), BASE_POINTS)),
        (1, 2, *correspondences_from_transform(geom.translation(0, -1, 0), BASE_POINTS)),
    ]
    # correspondences_from_transform builds points_j = T(points_i); the edge
    # estimator aligns j onto i, i.e. recovers T^-1 as the edge transform.
    graph = build_graph(stack_pairs(edges), reference=0)
    poses = propagate(graph)
    assert graph.nodes == (0, 1, 2)
    assert np.allclose(poses.translation[1], [1, 0, 0], atol=1e-9)
    assert np.allclose(poses.translation[2], [1, 1, 0], atol=1e-9)


def test_propagate_matches_truth_on_noise_free_chain():
    rng = np.random.default_rng(22)
    true_poses, pairwise = synthetic_rig(4, rng)
    graph = build_graph(pairwise, reference=0)
    poses = propagate(graph)
    for cam, pose in pose_dict(graph, poses).items():
        assert geom.rotation_distance(pose, true_poses[cam]) < 1e-9
        assert np.linalg.norm(pose.translation - true_poses[cam].translation) < 1e-9


def test_propagate_raises_on_disconnected_graph():
    rng = np.random.default_rng(23)
    _, pairwise = synthetic_rig(2, rng)
    graph = build_graph(pairwise, reference=0)
    disconnected = dataclasses.replace(graph, nodes=graph.nodes + (9,))
    with pytest.raises(DisconnectedGraphError) as err:
        propagate(disconnected)
    assert err.value.unreachable == (9,)


def test_tree_edges_reproduced_exactly():
    rng = np.random.default_rng(24)
    _, pairwise = synthetic_rig(5, rng)
    graph = build_graph(pairwise, reference=0)
    poses = pose_dict(graph, propagate(graph))
    for edge in graph_edges(graph):  # a chain: every edge is a tree edge
        implied = geom.compose(geom.invert(poses[edge.camera_i]), poses[edge.camera_j])
        assert is_close(implied, edge.transform, 1e-9, 1e-9)


def oracle_propagate(graph):
    """Reference: the breadth-first walk one camera at a time, the queue's
    next camera taking its unreached neighbours by id, one compose each."""
    adjacency = {node: [] for node in graph.nodes}
    for edge in graph_edges(graph):
        adjacency[edge.camera_i].append((edge.camera_j, edge.transform))
        adjacency[edge.camera_j].append((edge.camera_i, geom.invert(edge.transform)))
    poses = {graph.reference: geom.identity()}
    queue = deque([graph.reference])
    while queue:
        node = queue.popleft()
        for neighbor, pose_in_node in sorted(adjacency[node], key=lambda item: item[0]):
            if neighbor not in poses:
                poses[neighbor] = geom.compose(poses[node], pose_in_node)
                queue.append(neighbor)
    return poses


@st.composite
def camera_graphs(draw):
    n_cameras = draw(st.integers(1, 9))
    pairs = draw(st.lists(st.tuples(st.integers(0, n_cameras - 1), st.integers(0, n_cameras - 1)), max_size=14))
    unique, seen = [], set()
    for i, j in pairs:  # either orientation, in any order
        if i != j and frozenset((i, j)) not in seen:
            seen.add(frozenset((i, j)))
            unique.append((i, j))
    return draw(st.integers(0, 2**32 - 1)), n_cameras, unique, draw(st.integers(0, n_cameras - 1))


@settings(max_examples=150, deadline=None)
@given(camera_graphs())
@example((5, 6, [(0, 3), (3, 1), (0, 4), (4, 1), (2, 1), (5, 2), (4, 5)], 0))  # 1 is a neighbour of both 3 and 4
def test_propagate_walks_the_tree_of_a_walk_one_camera_at_a_time(case):
    seed, n_cameras, pairs, reference = case
    rng = np.random.default_rng(seed)
    true_poses = [random_transform(rng, max_angle=1.2, max_shift=2.0) for _ in range(n_cameras)]
    pairwise = []
    for i, j in pairs:
        world_pts = rng.uniform(-1.5, 1.5, size=(int(rng.integers(3, 7)), 3))
        pts_i, pts_j = (geom.invert(true_poses[c]).transform_points(world_pts) for c in (i, j))
        pairwise.append((i, j, pts_i + rng.normal(0, 0.01, pts_i.shape), pts_j + rng.normal(0, 0.01, pts_j.shape)))
    graph = build_graph(stack_pairs(pairwise), reference=reference, nodes=tuple(range(n_cameras)))
    expected = oracle_propagate(graph)
    missing = [node for node in graph.nodes if node not in expected]
    if missing:
        with pytest.raises(DisconnectedGraphError) as err:
            propagate(graph)
        assert list(err.value.unreachable) == missing
        return
    poses = propagate(graph)
    assert poses.rotation.shape == (n_cameras, 3, 3)  # one stack in graph.nodes order
    for node, pose in pose_dict(graph, poses).items():
        assert np.array_equal(pose.rotation, expected[node].rotation)
        assert np.array_equal(pose.translation, expected[node].translation)


# -- global refinement --------------------------------------------------------


def test_refine_noise_free_chain_stays_exact():
    rng = np.random.default_rng(25)
    _, pairwise = synthetic_rig(4, rng)
    graph = build_graph(pairwise, reference=0)
    poses = propagate(graph)
    refined, trace = refine(graph, poses)
    assert trace[-1] < 1e-10
    assert trace[-1] <= trace[0] + 1e-18


def test_refine_reduces_cost_on_noisy_cycle():
    rng = np.random.default_rng(26)
    _, pairwise = synthetic_rig(4, rng, noise=0.005, cycle=True)
    graph = build_graph(pairwise, reference=0)
    initial = propagate(graph)
    refined, trace = refine(graph, initial)
    assert trace[-1] <= trace[0]
    assert all(b < a + 1e-15 for a, b in zip(trace, trace[1:]))


def test_refine_reduces_loop_closure_error():
    rng = np.random.default_rng(27)
    _, pairwise = synthetic_rig(4, rng, noise=0.01, cycle=True)
    graph = build_graph(pairwise, reference=0)
    initial = propagate(graph)
    before = calib.loop_closure_error(graph, initial.rotation, initial.translation)
    closing = int(np.argmax(before))
    refined, _ = refine(graph, initial)
    after = calib.loop_closure_error(graph, refined.rotation, refined.translation)
    assert after[closing] < before[closing]


def test_refine_fixed_point_on_optimal_input():
    rng = np.random.default_rng(28)
    _, pairwise = synthetic_rig(4, rng, noise=0.004, cycle=True)
    graph = build_graph(pairwise, reference=0)
    first, trace1 = refine(graph, propagate(graph))
    second, trace2 = refine(graph, first)
    assert abs(trace2[-1] - trace1[-1]) < 1e-12 * max(1.0, trace1[-1])
    for pose, first_pose in zip(geom.unstack(second), geom.unstack(first)):
        assert is_close(pose, first_pose, 1e-9, 1e-9)


def test_refine_keeps_reference_fixed():
    rng = np.random.default_rng(29)
    _, pairwise = synthetic_rig(3, rng, noise=0.01, cycle=True)
    graph = build_graph(pairwise, reference=0)
    refined, _ = refine(graph, propagate(graph))
    assert graph.nodes[0] == 0
    assert is_close(geom.unstack(refined)[0], geom.identity(), 1e-15, 1e-15)


def test_gauge_invariance_of_cost():
    rng = np.random.default_rng(30)
    _, pairwise = synthetic_rig(4, rng, noise=0.01, cycle=True)
    graph = build_graph(pairwise, reference=0)
    poses = propagate(graph)
    base = graph_cost(graph, poses.rotation, poses.translation)
    shifted = geom.compose(random_transform(rng), poses)
    assert graph_cost(graph, shifted.rotation, shifted.translation) == pytest.approx(base, rel=1e-9)


def test_gradient_matches_central_differences():
    rng = np.random.default_rng(31)
    for _ in range(5):
        _, pairwise = synthetic_rig(3, rng, noise=0.02, cycle=True, landmarks_per_zone=5)
        graph = build_graph(pairwise, reference=0)
        propagated = propagate(graph)
        poses = propagated.rotation, propagated.translation
        grad = cost_gradient(graph, *poses)
        free = [n for n in graph.nodes if n != graph.reference]
        h = 1e-6
        fd = np.zeros_like(grad)
        for p in range(6 * len(free)):
            delta = np.zeros(6 * len(free))
            delta[p] = h
            up = graph_cost(graph, *calib._apply_step(graph, *poses, delta))
            delta[p] = -h
            down = graph_cost(graph, *calib._apply_step(graph, *poses, delta))
            fd[p] = (up - down) / (2 * h)
        # Zero-gradient components carry only FD roundoff; compare vector-wise.
        assert np.max(np.abs(grad - fd)) / max(np.max(np.abs(fd)), 1e-8) < 1e-5


# -- per-edge oracles: the stacked expressions against one edge at a time -----


def edge_points(pairs):
    """Each pair's (points_i, points_j), split from the table."""
    bounds = np.cumsum(pairs.counts)[:-1]
    return list(zip(np.split(pairs.points_i, bounds), np.split(pairs.points_j, bounds)))


def oracle_graph_cost(graph, pairs, poses):
    """Reference: one edge at a time through RigidTransform, over the rows
    of ``pairs``, the table the graph was built from with no pair failed.
    Per-edge sums are reduceat segments, as in the row form: a segment's
    rounding differs from np.sum's but not from the segment's neighbours'."""
    cost = 0.0
    for edge, (points_i, points_j) in zip(graph_edges(graph), edge_points(pairs)):
        e_ij = geom.compose(geom.invert(poses[edge.camera_i]), poses[edge.camera_j])
        dx, dy, dz = (e_ij.transform_points(points_j) - points_i).T
        cost += float(np.add.reduceat(dx * dx + dy * dy + dz * dz, [0])[0])
    return cost


def oracle_loop_closure_error(graph, poses):
    out = []
    for edge in graph_edges(graph):
        implied = geom.compose(geom.invert(poses[edge.camera_i]), poses[edge.camera_j])
        rot_err = geom.rotation_distance(implied, edge.transform)
        dx, dy, dz = (implied.translation - edge.transform.translation).tolist()
        out.append(rot_err + math.sqrt(dx * dx + dy * dy + dz * dz))
    return out


def band_to_lower(band):
    """The lower triangular matrix whose band ``band`` holds: entry (c + d, c)
    is ``band[c, d]``, every entry below the band zero."""
    size, width = band.shape
    lower = np.zeros((size, size))
    for c in range(size):
        rows = min(width, size - c)
        lower[c : c + rows, c] = band[c, :rows]
    return lower


def band_to_symmetric(band):
    """The symmetric matrix whose lower band ``band`` holds."""
    lower = band_to_lower(band)
    return lower + np.tril(lower, -1).T


def lower_in_band_order(graph, dense):
    """The lower triangle of the J^T J ``dense`` given in ``graph.nodes``
    order, its cameras permuted to the band order ``graph.table.order``.
    Only the lower triangle, which is what the band stores: under some BLAS
    kernels J_a^T J_b and J_b^T J_a do not round as transposes, so the
    oracle's two triangles differ."""
    natural = (6 * graph.table.order[:, None] + np.arange(6)).reshape(-1)
    return np.tril(dense[np.ix_(natural, natural)])


def oracle_apply_step(poses, index, delta):
    """Reference: one camera at a time, with scalar Rodrigues in Python floats."""
    out = dict(poses)
    for node, i in index.items():
        d_rot = delta[6 * i : 6 * i + 3]
        x, y, z = d_rot.tolist()
        angle = math.sqrt(x * x + y * y + z * z)
        first, second = (1.0, 0.5) if angle < 1e-12 else (math.sin(angle), 1.0 - math.cos(angle))
        x, y, z = (d_rot / (1.0 if angle < 1e-12 else angle)).tolist()
        k = [[0.0, -z, y], [z, 0.0, -x], [-y, x, 0.0]]
        kk = algebra.product(k, k)
        rodrigues = [[(1.0 if a == b else 0.0) + first * k[a][b] + second * kk[a][b] for b in range(3)] for a in range(3)]
        turned = geom.compose(RigidTransform(poses[node].rotation, np.zeros(3)), RigidTransform(rodrigues, np.zeros(3)))
        out[node] = RigidTransform(turned.rotation, poses[node].translation + delta[6 * i + 3 : 6 * i + 6])
    return out


@st.composite
def stacked_cases(draw):
    n_cameras = draw(st.integers(2, 8))
    # A cycle puts the reference on both sides of an edge.
    cycle = n_cameras > 2 and draw(st.booleans())
    # Chords give cameras three or more edges, whose diagonal slots then
    # depend on the order their shares are added in.
    closing = (0, n_cameras - 1) if cycle else None
    skips = [(a, b) for a in range(n_cameras) for b in range(a + 2, n_cameras) if (a, b) != closing]
    chords = draw(st.lists(st.sampled_from(skips), unique=True)) if skips else []
    n_pairs = (n_cameras if cycle else n_cameras - 1) + len(chords)
    return {
        "seed": draw(st.integers(0, 2**32 - 1)),
        "n_cameras": n_cameras,
        "cycle": cycle,
        "chords": chords,
        "reference": draw(st.integers(0, n_cameras - 1)),
        "landmarks": draw(st.lists(st.integers(3, 9), min_size=n_pairs, max_size=n_pairs)),
        # Small blocks, so that several blocks run, most with several edges.
        "edge_block": draw(st.integers(1, 6)),
        "drift": draw(st.booleans()),
        "zero_step": draw(st.booleans()),
    }


BOTH_SIDES_DRIFTING = {
    "seed": 7, "n_cameras": 5, "cycle": True, "chords": [(0, 2), (1, 3), (2, 4)], "reference": 0,
    "landmarks": [4, 6, 4, 6, 4, 5, 4, 6], "edge_block": 3, "drift": True, "zero_step": False,
}


def stacked_case_poses(case):
    """The case's table, graph, free-camera index, poses (stepped off the
    propagated ones, drifted on request), their stacks and the generator."""
    rng = np.random.default_rng(case["seed"])
    _, pairwise = synthetic_rig(
        case["n_cameras"],
        rng,
        noise=0.01,
        cycle=case["cycle"],
        landmarks_per_zone=case["landmarks"],
        chords=case["chords"],
    )
    graph = build_graph(pairwise, reference=case["reference"])
    assert graph.failures == ()
    free = [node for node in graph.nodes if node != graph.reference]
    index = {node: i for i, node in enumerate(free)}
    poses = oracle_apply_step(pose_dict(graph, propagate(graph)), index, rng.normal(0, 0.05, 6 * len(free)))
    if case["drift"]:
        # Rotations 1e-11 off orthonormal pass RigidTransform's check, but
        # their relative rotations drift past DRIFT_TOL, so the branch that
        # re-orthonormalizes them runs.
        poses = {
            node: RigidTransform(pose.rotation + rng.normal(0, 1e-11, (3, 3)), pose.translation)
            for node, pose in poses.items()
        }
        relative = [poses[e.camera_i].rotation.T @ poses[e.camera_j].rotation for e in graph_edges(graph)]
        assert max(geom.orthonormality_error(np.stack(relative))) > geom.DRIFT_TOL
    return pairwise, graph, index, poses, pose_arrays(graph, poses), rng


@settings(max_examples=150, deadline=None)
@given(stacked_cases())
@example(BOTH_SIDES_DRIFTING)
@example({**BOTH_SIDES_DRIFTING, "reference": 2, "zero_step": True})
def test_stacked_calibration_equals_per_edge_oracles(case):
    pairwise, graph, index, poses, (rotations, translations), rng = stacked_case_poses(case)
    delta = rng.normal(0, 0.05, 6 * len(index))
    if case["zero_step"]:
        delta[np.arange(len(delta)) % 6 < 3] = 0.0  # Rodrigues' small-angle branch

    # The row form is the per-edge oracle's bit for bit; the moment form
    # rounds differently, so it equals both to rtol 1e-12.
    cost = oracle_graph_cost(graph, pairwise, poses)
    assert row_graph_cost(graph, pairwise, rotations, translations) == cost
    assert graph_cost(graph, rotations, translations) == pytest.approx(cost, rel=1e-12, abs=0.0)
    assert calib.loop_closure_error(graph, rotations, translations).tolist() == oracle_loop_closure_error(graph, poses)
    band, jtr = normal_equations(graph, rotations, translations)
    assert_matches_dense_jacobian(graph, pairwise, poses, index, band, jtr)
    for moments, rows in zip((band, jtr), row_normal_equations(graph, pairwise, rotations, translations)):
        np.testing.assert_allclose(moments, rows, rtol=1e-12, atol=1e-12 * np.max(np.abs(rows)))
    stepped = calib._apply_step(graph, rotations, translations, delta)
    expected = pose_arrays(graph, oracle_apply_step(poses, index, delta))
    assert np.array_equal(stepped[0], expected[0]) and np.array_equal(stepped[1], expected[1])


@settings(max_examples=100, deadline=None)
@given(stacked_cases())
@example(BOTH_SIDES_DRIFTING)
def test_a_stack_of_edges_gives_each_edge_its_own_bits(case):
    # The cost and the normal equations read blocks of EDGE_BLOCK edges; a
    # block of one edge alone gives the bits of that edge in any block.
    _, graph, _, _, poses, _ = stacked_case_poses(case)
    results = []
    for edge_block in (case["edge_block"], 1, calib.EDGE_BLOCK):
        with mock.patch.object(calib, "EDGE_BLOCK", edge_block):
            results.append((graph_cost(graph, *poses), *normal_equations(graph, *poses)))
    for cost, band, jtr in results[1:]:
        assert cost == results[0][0] and np.array_equal(band, results[0][1]) and np.array_equal(jtr, results[0][2])


def test_refine_rejects_poses_outside_the_graph():
    rng = np.random.default_rng(34)
    _, pairwise = synthetic_rig(3, rng, noise=0.01)
    graph = build_graph(pairwise, reference=0)
    initial = propagate(graph)
    # An extra camera would be a free parameter without Jacobian rows.
    extra = RigidTransform(np.concatenate([initial.rotation, np.eye(3)[None]]), np.concatenate([initial.translation, [[0.0] * 3]]))
    short = RigidTransform(initial.rotation[:2], initial.translation[:2])
    for poses in (extra, short, geom.identity()):
        with pytest.raises(ValueError, match="initial poses must be a stack of 3, one per graph node"):
            refine(graph, poses)


def test_refine_rejects_an_initial_cost_that_is_not_finite():
    # Poses whose squared residuals overflow, though every pair's fit held.
    rng = np.random.default_rng(38)
    _, pairwise = synthetic_rig(3, rng, noise=0.01)
    graph = build_graph(pairwise, reference=0)
    initial = propagate(graph)
    translations = initial.translation.copy()
    translations[graph.nodes.index(2)] = [1e200, 0.0, 0.0]
    far = RigidTransform(initial.rotation, translations)
    with np.errstate(over="ignore"), pytest.raises(ValueError, match="the initial calibration cost is inf, not finite"):
        refine(graph, far)


def test_graph_rejects_edges_between_cameras_outside_its_nodes():
    rng = np.random.default_rng(35)
    _, pairwise = synthetic_rig(3, rng)
    graph = build_graph(pairwise, reference=0)
    with pytest.raises(ValueError, match="edge camera 2 is not a graph node"):
        dataclasses.replace(graph, nodes=(0, 1))


# -- blockwise normal equations against the dense Jacobian -------------------


def dense_residuals_and_jacobian(graph, pairs, poses, index):
    """Reference: the stacked residual vector and the full Jacobian w.r.t.
    the free pose parameters, filled one landmark of ``pairs`` (the graph's
    table, no pair failed) at a time. A landmark p_j
    lands at q = E p_j + t, (E, t) = inverse(G_i) composed with G_j by
    ``geom``, so a drifted E is re-orthonormalized as in the cost; its rows
    are [-E skew(p_j), R_i^T] for camera j and [skew(q), -R_i^T] for i."""
    rows = 3 * len(pairs.points_i)
    residuals = np.zeros(rows)
    jacobian = np.zeros((rows, 6 * len(index)))
    row = 0
    for edge, (points_i, points_j) in zip(graph_edges(graph), edge_points(pairs)):
        r_i = poses[edge.camera_i].rotation
        relative = geom.compose(geom.invert(poses[edge.camera_i]), poses[edge.camera_j])
        for k in range(len(points_j)):
            p_j = points_j[k]
            q = relative.rotation @ p_j + relative.translation
            residuals[row : row + 3] = q - points_i[k]
            if edge.camera_j in index:
                col = 6 * index[edge.camera_j]
                jacobian[row : row + 3, col : col + 3] = -relative.rotation @ skew(p_j)
                jacobian[row : row + 3, col + 3 : col + 6] = r_i.T
            if edge.camera_i in index:
                col = 6 * index[edge.camera_i]
                jacobian[row : row + 3, col : col + 3] = skew(q)
                jacobian[row : row + 3, col + 3 : col + 6] = -r_i.T
            row += 3
    return residuals, jacobian


def assert_matches_dense_jacobian(graph, pairs, poses, index, band, jtr):
    """The band's lower triangle and J^T r equal the dense Jacobian's to rtol 1e-12."""
    residuals, jacobian = dense_residuals_and_jacobian(graph, pairs, poses, index)
    jtj = lower_in_band_order(graph, jacobian.T @ jacobian)
    for blockwise, dense in ((band_to_lower(band), jtj), (jtr, jacobian.T @ residuals)):
        np.testing.assert_allclose(blockwise, dense, rtol=1e-12, atol=1e-12 * np.max(np.abs(dense)))


@pytest.mark.parametrize("n_cameras, cycle", [(4, True), (2, False)])
def test_normal_equations_match_dense_jacobian(n_cameras, cycle):
    rng = np.random.default_rng(32)
    _, pairwise = synthetic_rig(n_cameras, rng, noise=0.01, cycle=cycle)
    graph = build_graph(pairwise, reference=0)
    if cycle:
        # The pinned reference sits on both sides of an edge.
        assert any(e.camera_i == 0 for e in graph_edges(graph))
        assert any(e.camera_j == 0 for e in graph_edges(graph))
    free = [n for n in graph.nodes if n != graph.reference]
    index = {node: i for i, node in enumerate(free)}
    # Step off the propagated poses so no gradient component is ~0.
    poses = oracle_apply_step(pose_dict(graph, propagate(graph)), index, rng.normal(0, 0.05, 6 * len(free)))
    band, jtr = normal_equations(graph, *pose_arrays(graph, poses))
    assert_matches_dense_jacobian(graph, pairwise, poses, index, band, jtr)
    assert np.array_equal(cost_gradient(graph, *pose_arrays(graph, poses)), 2.0 * jtr)


def test_refine_memory_stays_below_one_dense_jacobian():
    rng = np.random.default_rng(33)
    _, pairwise = synthetic_rig(40, rng, noise=0.01, cycle=True, landmarks_per_zone=24)
    graph = build_graph(pairwise, reference=0)
    initial = propagate(graph)
    rows = 3 * int(graph.counts.sum())
    dense_bytes = rows * 6 * (len(graph.nodes) - 1) * 8
    tracemalloc.start()
    try:
        _, trace = refine(graph, initial)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert trace[-1] < trace[0]
    assert peak < dense_bytes, (peak, dense_bytes)


def test_refine_holds_one_normal_equation_matrix():
    # A dense J^T J would be (6N)^2 for N free cameras. refine holds J^T J as
    # one band (two blocks wide on this ring), which _band_solve factors in
    # place and a retried damping rebuilds; the last system is dropped before
    # the next is built.
    rng = np.random.default_rng(33)
    _, pairwise = synthetic_rig(40, rng, noise=0.01, cycle=True, landmarks_per_zone=24)
    graph = build_graph(pairwise, reference=0)
    initial = propagate(graph)
    matrix_bytes = (6 * (len(graph.nodes) - 1)) ** 2 * 8
    tracemalloc.start()
    try:
        _, trace = refine(graph, initial)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(trace) > 2  # the system was rebuilt at least once
    assert peak < 1.5 * matrix_bytes, (peak, matrix_bytes)


@pytest.mark.parametrize(
    "cameras, counts, rows_i, rows_j, message",
    [
        ([[0, 1]], [3, 1], 4, 4, r"cameras must be \(E, 2\) and counts \(E,\)"),
        ([0, 1], [3], 3, 3, r"cameras must be \(E, 2\)"),
        ([[0, 1]], [3], 3, 4, r"must both be \(m, 3\)"),
        ([[0, 1]], [4], 3, 3, "sum to the point count"),
        ([[0, 1], [1, 2]], [5, -2], 3, 3, ">= 0"),
    ],
)
def test_correspondences_reject_an_inconsistent_table(cameras, counts, rows_i, rows_j, message):
    with pytest.raises(ValueError, match=message):
        calib.Correspondences(cameras, counts, np.zeros((rows_i, 3)), np.zeros((rows_j, 3)))


GRAPH_STACKS = ("cameras", "counts", "rotations", "translations", "residuals", "means", "scatters")


def test_correspondences_are_finite_read_only_and_match_the_graph_edges():
    points = BASE_POINTS.copy()
    points[2, 1] = np.inf
    with pytest.raises(ValueError, match="correspondence points must be finite"):
        calib.Correspondences([[0, 1]], [4], BASE_POINTS, points)
    table = stack_pairs([(0, 1, *correspondences_from_transform(geom.identity(), BASE_POINTS))])
    assert not any(a.flags.writeable for a in (table.cameras, table.counts, table.points_i, table.points_j))
    graph = build_graph(table, reference=0)
    assert not any(getattr(graph, name).flags.writeable for name in GRAPH_STACKS)
    # One transform, residual and set of moments per edge: a second edge has none.
    with pytest.raises(ValueError, match=r"rotations must be \(2, 3, 3\), one per edge"):
        dataclasses.replace(graph, cameras=[[0, 1], [1, 0]], counts=[4, 4])


def test_graph_keeps_the_moments_of_the_pairs_it_aligned():
    # A collinear pair between good ones is reported and leaves no edge: the
    # graph's stacks are then the good pairs' bit for bit.
    rng = np.random.default_rng(37)
    _, good = synthetic_rig(3, rng, noise=0.01)
    graph = build_graph(good, reference=0)
    assert graph.failures == ()
    line = np.array([[0.0, 0, 0], [1.0, 0, 0], [2.0, 0, 0], [3.0, 0, 0]])
    first, second = edge_points(good)
    mixed = build_graph(stack_pairs([(0, 1, *first), (0, 2, line, line + 1.0), (1, 2, *second)]), reference=0)
    assert [failure[:2] for failure in mixed.failures] == [(0, 2)]
    assert "collinear" in mixed.failures[0][2]
    assert [(edge.camera_i, edge.camera_j) for edge in graph_edges(mixed)] == [(0, 1), (1, 2)]
    for name in GRAPH_STACKS:
        kept, expected = getattr(mixed, name), getattr(graph, name)
        assert kept.dtype == expected.dtype and kept.tobytes() == expected.tobytes(), name
    poses = propagate(mixed)
    cost = graph_cost(mixed, poses.rotation, poses.translation)
    assert cost == graph_cost(graph, poses.rotation, poses.translation)
    assert cost == pytest.approx(oracle_graph_cost(graph, good, pose_dict(graph, poses)), rel=1e-12, abs=0.0)


def test_graph_holds_the_same_bytes_for_four_times_the_landmarks():
    # The graph keeps per-edge moments, not landmark rows, so its size
    # follows the edges: the table it was built from grows fourfold.
    sizes, tables = [], []
    for landmarks in (6, 24):
        _, pairwise = synthetic_rig(12, np.random.default_rng(39), noise=0.01, cycle=True, landmarks_per_zone=landmarks)
        graph = build_graph(pairwise, reference=0)
        assert graph.failures == () and len(graph.residuals) == 12
        sizes.append(len(pickle.dumps(graph)))
        tables.append(pairwise.points_i.nbytes + pairwise.points_j.nbytes)
    assert tables[1] == 4 * tables[0]
    assert sizes[1] == sizes[0], sizes


# -- the banded solve ---------------------------------------------------------


def random_band(rng, blocks, bandwidth):
    """A random symmetric positive definite matrix with ``bandwidth`` 6x6
    blocks below the diagonal, as a lower band: entries in [-1, 1] off the
    diagonal, and each diagonal entry its row's absolute sum plus one."""
    size, width = 6 * blocks, 6 * (bandwidth + 1)
    band = rng.uniform(-1.0, 1.0, (size, width))
    for c in range(size):
        band[c, width - c % 6 :] = 0.0  # rows below the last block of the band
        band[c, size - c :] = 0.0  # rows below the matrix
    band[:, 0] = 0.0
    band[:, 0] = np.abs(band_to_symmetric(band)).sum(axis=1) + 1.0
    return band


@settings(max_examples=100, deadline=None)
@given(
    st.integers(1, 7).flatmap(
        lambda blocks: st.tuples(
            st.just(blocks), st.integers(0, blocks - 1), st.integers(0, 2**32 - 1), st.sampled_from([0.0, 1e-3, 10.0])
        )
    )
)
@example((1, 0, 1, 0.0))  # a single block
@example((5, 0, 2, 1e-3))  # block diagonal
@example((5, 4, 3, 1e-3))  # as wide as the matrix
def test_band_solve_matches_dense_solve(system):
    blocks, bandwidth, seed, damping = system
    rng = np.random.default_rng(seed)
    band = random_band(rng, blocks, bandwidth)
    rhs = rng.normal(size=len(band))
    expected = np.linalg.solve(band_to_symmetric(band) + damping * np.eye(len(band)), rhs)
    np.testing.assert_allclose(
        algebra.band_solve(band, damping, rhs), expected, rtol=1e-10, atol=1e-12 * np.max(np.abs(expected))
    )


def test_band_solve_raises_on_a_matrix_that_is_not_positive_definite():
    # (I, 2I; 2I, I) has eigenvalues 3 and -1: the first pivot block is
    # positive definite, the second, I - 4I after elimination, is not.
    band = np.zeros((12, 12))
    band[:, 0] = 1.0
    band[:6, 6] = 2.0
    with pytest.raises(np.linalg.LinAlgError):
        algebra.band_solve(band.copy(), 0.0, np.ones(12))
    # Damped by 4 it is (5I, 2I; 2I, 5I): x = 1/7 solves it for all ones.
    np.testing.assert_allclose(algebra.band_solve(band, 4.0, np.ones(12)), np.full(12, 1 / 7), rtol=1e-15)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 16), st.integers(1, 8), st.integers(0, 2**32 - 1), st.booleans())
@example(16, 8, 5, True)  # trailing windows of up to 96 rows: four UPDATE_ROWS slices, then a retry
def test_band_solve_bit_equal_to_summed_product_update(bandwidth, extra, seed, indefinite):
    # With its last diagonal block negated the matrix is not positive
    # definite until damped past it: as refine does, each LinAlgError is
    # retried on a fresh band with ten times the damping.
    rng = np.random.default_rng(seed)
    band = random_band(rng, bandwidth + extra, bandwidth)
    if indefinite:
        band[-6:, 0] *= -1.0
    rhs = rng.normal(size=len(band))
    damping, retries = 1e-3, 0
    while True:
        ours, theirs = band.copy(), band.copy()
        try:
            x = algebra.band_solve(ours, damping, rhs)
            break
        except np.linalg.LinAlgError:
            with pytest.raises(np.linalg.LinAlgError):
                band_solve_summed(theirs, damping, rhs)
            damping, retries = 10.0 * damping, retries + 1
    assert x.tobytes() == band_solve_summed(theirs, damping, rhs).tobytes()
    assert ours.tobytes() == theirs.tobytes()  # the factors too
    assert (retries > 0) == indefinite


@settings(max_examples=200, deadline=None)
@given(
    st.integers(1, 14).flatmap(
        lambda free: st.tuples(
            st.just(free),
            st.lists(st.tuples(st.integers(0, free - 1), st.integers(0, free - 1)).filter(lambda ab: ab[0] != ab[1])),
        )
    )
)
@example((6, [(0, 5), (1, 4), (2, 3)]))  # three components
def test_band_order_is_a_permutation_no_wider_than_the_natural_order(case):
    free, edges = case
    pairs = np.array(edges, dtype=np.intp).reshape(-1, 2)
    order, bandwidth = algebra.band_order(free, pairs)
    assert sorted(order.tolist()) == list(range(free))
    position = np.argsort(order)
    assert bandwidth == max((abs(position[a] - position[b]) for a, b in edges), default=0)
    assert bandwidth <= max((abs(a - b) for a, b in edges), default=0)


def test_refine_makes_no_linalg_call(monkeypatch):
    # Every np.linalg function raises while refine runs.
    rng = np.random.default_rng(36)
    _, pairwise = synthetic_rig(6, rng, noise=0.01, cycle=True, chords=[(1, 4)])
    graph = build_graph(pairwise, reference=0)
    initial = propagate(graph)

    def refusing(name):
        def call(*args, **kwargs):
            raise AssertionError(f"refine called np.linalg.{name}")

        return call

    for name, function in vars(np.linalg).items():
        if callable(function) and not isinstance(function, type) and not name.startswith("_"):
            monkeypatch.setattr(np.linalg, name, refusing(name))
    _, trace = refine(graph, initial)
    assert len(trace) > 2 and trace[-1] < trace[0]


@pytest.fixture(scope="module")
def gen():
    """The benchmark's scenario generator, ``perfbench/gen.py``."""
    spec = importlib.util.spec_from_file_location("perfbench_gen", Path(__file__).parent.parent / "perfbench" / "gen.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def benchmark_ring(gen):
    """The calibrate workload's 100-camera ring, seed 1."""
    scenario = gen.ring(1)
    graph = pipeline.calibrate_scenario(scenario, scenario.params.noise_sigma, scenario.params.seed).graph
    return graph, calib.propagate(graph)


def test_calibrate_peak_memory_on_the_benchmark_ring(gen, tmp_path):
    # The graph keeps its 506 edges as stacks of moments, and
    # calibration.csv streams row by row from arrays. With a RigidTransform
    # per edge and the report built as a row list, a StringIO and bytes, the
    # peak was 2.26 MB; with the 10,245 landmark rows kept for refine, 1.87
    # MB; now 1.47 MB.
    path = tmp_path / "ring.scenario"
    gen.write(gen.ring(1), path)
    argv = ["calibrate", str(path), "--out", str(tmp_path / "out")]
    assert cli.main(argv) == cli.EXIT_OK  # first-call allocations stay out of the measured run
    tracemalloc.start()
    try:
        code = cli.main(argv)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == cli.EXIT_OK
    assert peak < 1.54 * 2**20, peak


def test_refine_peak_memory_on_the_benchmark_ring(benchmark_ring):
    # The reverse Cuthill-McKee order brings the 99 free cameras from a
    # bandwidth of 98 to 15: the band takes 0.46 MB, a dense J^T J 2.8 MB.
    # The peak is 0.82 MB; reading landmark rows in windows, it was 0.98 MB.
    graph, initial = benchmark_ring
    assert graph.table.bandwidth == 15
    tracemalloc.start()
    try:
        _, trace = refine(graph, initial)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert trace[-1] < trace[0]
    assert peak < 0.86 * 2**20, peak


@pytest.mark.parametrize("seed", [None, 1, 6])
def test_calibration_edges_come_in_camera_pair_order(gen, seed):
    # calibration.csv writes its per-edge rows in edge order, which is this order.
    if seed is None:
        scenario = cli._load_scenario(str(Path(__file__).resolve().parent.parent / "scenarios" / "demo_room.scenario"))
    else:
        scenario = gen.ring(seed)
    pairs = pipeline.calibrate_scenario(scenario, scenario.params.noise_sigma, scenario.params.seed).graph.cameras.tolist()
    assert len(pairs) > 1
    assert all(i < j for i, j in pairs)
    assert all(a < b for a, b in zip(pairs, pairs[1:]))


# LM rejects steps on seed 6 only, of seeds 1 to 10.
RING_COST_EVALUATIONS = {1: 6, 6: 16}


@pytest.mark.parametrize("seed", sorted(RING_COST_EVALUATIONS))
def test_ring_cost_evaluations_pinned(gen, seed):
    scenario = gen.ring(seed)
    with mock.patch.object(calib, "graph_cost", wraps=calib.graph_cost) as cost:
        pipeline.calibrate_scenario(scenario, scenario.params.noise_sigma, scenario.params.seed)
    assert cost.call_count == RING_COST_EVALUATIONS[seed]


@pytest.mark.parametrize("name, seed", [("ring", 1), ("ring", 6), ("room", 1)])
def test_refine_forms_relative_poses_once_per_pose_set(gen, name, seed):
    # The loop that forms the relative poses in every cost and every
    # normal-equation call gives the same bits and the same cost
    # evaluations; on ring seed 6, rejected steps rebuild the band from the
    # accepted poses' kept relative poses.
    scenario = getattr(gen, name)(seed)
    graph = pipeline.calibrate_scenario(scenario, scenario.params.noise_sigma, scenario.params.seed).graph
    initial = propagate(graph)
    runs = []
    for loop in (refine, refine_per_call):
        with mock.patch.object(calib, "graph_cost", wraps=calib.graph_cost) as cost, mock.patch.object(
            calib, "_relative_poses", wraps=calib._relative_poses
        ) as relative:
            poses, trace = loop(graph, initial)
        runs.append((poses.rotation.tobytes() + poses.translation.tobytes(), trace, cost.call_count, relative.call_count))
    (ours, trace, costs, formed), (expected, expected_trace, expected_costs, expected_formed) = runs
    assert ours == expected and trace == expected_trace and costs == expected_costs
    assert formed == costs < expected_formed  # once per pose set
    if name == "ring":
        assert costs == RING_COST_EVALUATIONS[seed]
        assert (costs > len(trace)) == (seed == 6)  # rejected candidates
