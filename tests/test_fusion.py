import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ubimap import fusion, sensim, world
from ubimap.fusion import (
    CellState,
    DimensionMismatchError,
    GaussianBelief,
    GridMap,
    ekf_predict,
    ekf_update,
    fuse_frame,
    merge_robot_map,
    odometry_motion_model,
    position_observation_model,
    tag_world_position,
)
from ubimap.sensim import ObstacleEvidence, TagDetection
from ubimap.world import CameraSpec, CellIndex

from oracles import DegenerateLikelihoodError, GridBelief, bayes_grid_step, cell_mask


def make_camera(x, y, *, width=4.0, depth=4.0, yaw=0.0, cid=1, height=2.0):
    hfov = 2.0 * math.atan(width / (2.0 * height))
    vfov = 2.0 * math.atan(depth / height)
    return CameraSpec(id=cid, x=x, y=y, height=height, yaw=yaw, hfov=hfov, vfov=vfov, max_range=100.0)


def poses_for(*cams):
    return {cam.id: sensim.camera_world_pose(cam) for cam in cams}


def evidence(grid_map, cam_id, cells, occupied=(), t=0.0):
    """One camera's evidence: a mask pair of the map's shape."""
    observed, occupied = (cell_mask(grid_map.width, grid_map.height, c) for c in (cells, occupied))
    return [ObstacleEvidence(camera_id=cam_id, observed=observed, occupied=occupied, timestamp=t)]


# -- fuse_frame ---------------------------------------------------------------


def test_cell_state_is_the_world_enum():
    # The enum lives in world, so code that only reads cell states need not load fusion.
    assert fusion.CellState is world.CellState
    assert [(state.name, int(state)) for state in CellState] == [
        ("UNEXPLORED", 0), ("EXPLORED", 1), ("WALL", 2), ("OBSTACLE", 3), ("ROBOT", 4)
    ]


def test_fresh_map_all_unexplored():
    m = GridMap(4, 4, 1.0)
    assert all(m.state(CellIndex(c, r)) == CellState.UNEXPLORED for r in range(4) for c in range(4))
    assert m.revision == 0


def test_fuse_no_evidence_leaves_unexplored():
    m = GridMap(4, 4, 1.0)
    cam = make_camera(2.0, 0.0)
    fuse_frame(m, [], [], poses_for(cam), t=0.0)
    assert m.cells.tobytes() == bytes(16)
    assert m.revision == 0


def test_fuse_free_evidence_explores():
    m = GridMap(4, 4, 1.0)
    cam = make_camera(2.0, 0.0)
    fuse_frame(m, evidence(m, cam.id, [CellIndex(1, 1), CellIndex(2, 1)]), [], poses_for(cam), 0.0)
    assert m.state(CellIndex(1, 1)) == CellState.EXPLORED
    assert m.state(CellIndex(2, 1)) == CellState.EXPLORED
    assert m.state(CellIndex(0, 0)) == CellState.UNEXPLORED
    assert m.revision == 1


def test_fuse_occupied_wins_between_cameras():
    m = GridMap(4, 4, 1.0)
    cam_a = make_camera(2.0, 0.0, cid=1)
    cam_b = make_camera(2.0, 4.0, yaw=math.pi, cid=2)
    cell = CellIndex(2, 2)
    ev = evidence(m, 1, [cell]) + evidence(m, 2, [cell], occupied=[cell])
    fuse_frame(m, ev, [], poses_for(cam_a, cam_b), 0.0)
    assert m.state(cell) == CellState.OBSTACLE


def test_fuse_known_wall_becomes_wall_on_observation():
    wall = CellIndex(1, 2)
    m = GridMap(4, 4, 1.0, walls=cell_mask(4, 4, [wall]))
    cam = make_camera(2.0, 0.0)
    fuse_frame(m, evidence(m, cam.id, [wall]), [], poses_for(cam), 0.0)
    assert m.state(wall) == CellState.WALL
    # Occupied evidence later cannot change a wall.
    fuse_frame(m, evidence(m, cam.id, [wall], occupied=[wall], t=1.0), [], poses_for(cam), 1.0)
    assert m.state(wall) == CellState.WALL


def test_grid_map_rejects_a_wall_mask_of_another_shape():
    with pytest.raises(DimensionMismatchError):
        GridMap(4, 3, 1.0, walls=np.zeros((4, 3), dtype=bool))
    # A mask of another dtype would index by integers: with a uint8 mask whose
    # one wall is (col 4, row 3), fusion turned rows 0 and 1 into walls.
    walls = np.zeros((4, 5), dtype=np.uint8)
    walls[3, 4] = 1
    with pytest.raises(DimensionMismatchError):
        GridMap(5, 4, 1.0, walls=walls)


def test_fuse_unknown_camera_rejected_with_fault():
    m = GridMap(4, 4, 1.0)
    cam = make_camera(2.0, 0.0, cid=1)
    fuse_frame(m, evidence(m, 99, [CellIndex(1, 1)]), [], poses_for(cam), 0.0)
    assert m.state(CellIndex(1, 1)) == CellState.UNEXPLORED
    assert any("unknown camera 99" in fault for fault in m.faults)


@pytest.mark.parametrize("mask", ["observed", "occupied"])
def test_fuse_rejects_evidence_of_another_shape(mask):
    m = GridMap(4, 3, 1.0)
    cam = make_camera(2.0, 0.0)
    masks = {"observed": np.ones((3, 4), dtype=bool), "occupied": np.zeros((3, 4), dtype=bool)}
    masks[mask] = np.ones((3, 1), dtype=bool)  # would broadcast across the map
    with pytest.raises(DimensionMismatchError):
        fuse_frame(m, [ObstacleEvidence(cam.id, timestamp=0.0, **masks)], [], poses_for(cam), 0.0)
    assert m.cells.tobytes() == bytes(12)
    assert m.revision == 0


def test_fuse_idempotent_for_identical_frame():
    m = GridMap(4, 4, 1.0)
    cam = make_camera(2.0, 0.0)
    ev = evidence(m, cam.id, [CellIndex(1, 1), CellIndex(2, 2)], occupied=[CellIndex(2, 2)])
    fuse_frame(m, ev, [], poses_for(cam), 0.0)
    rev = m.revision
    fuse_frame(m, ev, [], poses_for(cam), 0.0)
    assert m.revision == rev


def test_fuse_tag_places_robot_and_pose():
    m = GridMap(8, 8, 1.0, tag_registry={7: 1})
    cam = make_camera(2.0, 1.0)
    robot_xy = (2.5, 2.5)
    from ubimap.world import GridWorld, Robot

    world = GridWorld(cell_size=1.0, width=8, height=8, robots=(Robot(1, *robot_xy, 0.0, 7),))
    dets = sensim.observe_tags([cam], world, sigma=0.0, seed=0, t=0.0)
    ev = evidence(m, cam.id, [CellIndex(2, 2)], occupied=[CellIndex(2, 2)])
    fuse_frame(m, ev, dets, poses_for(cam), 0.0)
    assert m.state(CellIndex(2, 2)) == CellState.ROBOT  # tag beats occupied
    x, y, spread = m.robot_poses[1]
    assert (x, y) == pytest.approx(robot_xy, abs=1e-9)
    assert spread == 0.0


def test_fuse_robot_cell_follows_movement():
    m = GridMap(8, 8, 1.0)
    cam = make_camera(4.0, 0.0, width=8.0, depth=8.0)
    poses = poses_for(cam)

    def detection(x, y, t):
        from ubimap.world import GridWorld, Robot

        world = GridWorld(cell_size=1.0, width=8, height=8, robots=(Robot(1, x, y, 0.0, 1),))
        return sensim.observe_tags([cam], world, 0.0, 0, t)

    fuse_frame(m, evidence(m, cam.id, [CellIndex(2, 2), CellIndex(3, 2)]), detection(2.5, 2.5, 0.0), poses, 0.0)
    assert m.state(CellIndex(2, 2)) == CellState.ROBOT
    fuse_frame(m, evidence(m, cam.id, [CellIndex(2, 2), CellIndex(3, 2)]), detection(3.5, 2.5, 0.1), poses, 0.1)
    assert m.state(CellIndex(3, 2)) == CellState.ROBOT
    assert m.state(CellIndex(2, 2)) == CellState.EXPLORED


def test_obstacle_decays_after_clear_window():
    m = GridMap(4, 4, 1.0)
    cam = make_camera(2.0, 0.0)
    cell = CellIndex(1, 1)
    fuse_frame(m, evidence(m, cam.id, [cell], occupied=[cell], t=0.0), [], poses_for(cam), 0.0)
    assert m.state(cell) == CellState.OBSTACLE
    # Seen free within the window: still an obstacle.
    fuse_frame(m, evidence(m, cam.id, [cell], t=1.0), [], poses_for(cam), 1.0)
    assert m.state(cell) == CellState.OBSTACLE
    # Seen free after the window: decays.
    fuse_frame(m, evidence(m, cam.id, [cell], t=2.5), [], poses_for(cam), 2.5)
    assert m.state(cell) == CellState.EXPLORED


def test_tag_world_position_round_trip():
    for yaw in (0.0, 0.7, 2.0, -1.3):
        cam = make_camera(3.0, 2.0, yaw=yaw)
        pose = sensim.camera_world_pose(cam)
        from ubimap.world import ground_footprint

        fp = ground_footprint(cam)
        target = (3.4, 3.1)
        det = TagDetection(camera_id=cam.id, tag_id=1, ground_position=fp.to_local(*target), timestamp=0.0)
        recovered = tag_world_position(det, pose)
        assert recovered == pytest.approx(target, abs=1e-9)


def test_unexplored_monotonicity_and_wall_permanence_fuzzed():
    rng = np.random.default_rng(404)
    walls = frozenset({CellIndex(1, 1), CellIndex(2, 3)})
    m = GridMap(5, 5, 1.0, walls=cell_mask(5, 5, walls))
    cam = make_camera(2.5, 0.0, cid=1)
    poses = poses_for(cam)
    left_unexplored: set[CellIndex] = set()
    for step in range(200):
        t = step * 0.1
        cells = [CellIndex(int(rng.integers(5)), int(rng.integers(5))) for _ in range(6)]
        occupied = [c for c in cells if rng.random() < 0.3]
        fuse_frame(m, evidence(m, 1, cells, occupied=occupied, t=t), [], poses, t)
        for r in range(5):
            for c in range(5):
                cell = CellIndex(c, r)
                state = m.state(cell)
                if state != CellState.UNEXPLORED:
                    left_unexplored.add(cell)
                else:
                    assert cell not in left_unexplored  # never re-enters Unexplored
                if cell in left_unexplored and cell in walls:
                    assert state == CellState.WALL  # walls never change


def test_fuse_idempotent_with_robot_in_view():
    m = GridMap(8, 8, 1.0, tag_registry={7: 1})
    cam = make_camera(2.0, 1.0)
    from ubimap.world import GridWorld, Robot

    world = GridWorld(cell_size=1.0, width=8, height=8, robots=(Robot(1, 2.5, 2.5, 0.0, 7),))
    dets = sensim.observe_tags([cam], world, sigma=0.0, seed=0, t=0.0)
    ev = evidence(m, cam.id, [CellIndex(2, 2), CellIndex(3, 2)], occupied=[CellIndex(2, 2)])
    fuse_frame(m, ev, dets, poses_for(cam), 0.0)
    assert m.state(CellIndex(2, 2)) == CellState.ROBOT
    rev = m.revision
    fuse_frame(m, ev, dets, poses_for(cam), 0.0)
    assert m.revision == rev


def reference_fuse_frame(grid_map, evidence, tags, camera_poses, t, last_occupied):
    """Reference fusion: the cell-by-cell rules, with the last-occupied
    times kept in the caller's dict. It leaves the revision alone, because
    its cell-by-cell writes also see transient changes (a robot's cell
    going OBSTACLE and back); only cells, poses and faults are compared."""
    observed = set()
    occupied = set()
    for ev in evidence:
        if ev.camera_id not in camera_poses:
            grid_map.faults.append(f"t={t}: evidence from unknown camera {ev.camera_id}")
            continue
        for row, col in zip(*(a.tolist() for a in np.nonzero(ev.observed))):
            cell = CellIndex(col, row)
            observed.add(cell)
            if ev.occupied[row, col]:
                occupied.add(cell)
                last_occupied[cell] = t

    detections = {}
    for det in tags:
        if det.camera_id not in camera_poses:
            grid_map.faults.append(f"t={t}: tag from unknown camera {det.camera_id}")
            continue
        robot_id = grid_map.tag_registry.get(det.tag_id, det.tag_id)
        detections.setdefault(robot_id, []).append(det)

    robot_cells = {}
    for robot_id in sorted(detections):
        dets = sorted(detections[robot_id], key=lambda d: d.camera_id)
        positions = np.array([tag_world_position(d, camera_poses[d.camera_id]) for d in dets])
        mean = positions.mean(axis=0)
        spread = float(np.sqrt(np.mean(np.sum((positions - mean) ** 2, axis=1))))
        grid_map.robot_poses[robot_id] = (float(mean[0]), float(mean[1]), spread)
        robot_cells[robot_id] = grid_map.cell_of(float(mean[0]), float(mean[1]))

    def put(cell, new_state):
        if grid_map.state(cell) != CellState.WALL:
            grid_map.cells[cell.row, cell.col] = int(new_state)

    for cell in sorted(observed):
        if grid_map.walls[cell.row, cell.col]:
            put(cell, CellState.WALL)
        elif cell in occupied:
            put(cell, CellState.OBSTACLE)
        elif grid_map.state(cell) != CellState.OBSTACLE or t - last_occupied.get(cell, -math.inf) > fusion.OBSTACLE_CLEAR_SECONDS:
            put(cell, CellState.EXPLORED)

    for robot_id, cell in robot_cells.items():
        old = grid_map._robot_cells.get(robot_id)
        if old is not None and old != cell and grid_map.state(old) == CellState.ROBOT:
            put(old, CellState.EXPLORED)
    for robot_id, cell in sorted(robot_cells.items()):
        put(cell, CellState.ROBOT)
        grid_map._robot_cells[robot_id] = cell
    return grid_map


@st.composite
def fusion_runs(draw):
    """A walled grid with a random starting map, plus a sequence of frames."""
    width, height = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    any_cell = st.builds(CellIndex, st.integers(-1, width), st.integers(-1, height))
    walls = frozenset(draw(st.lists(any_cell, max_size=8)))
    start = draw(st.lists(st.integers(0, 4), min_size=width * height, max_size=width * height))
    frames, t = [], 0.0
    for _ in range(draw(st.integers(1, 8))):
        t += draw(st.sampled_from([0.5, 1.0, 2.0, 2.5]))
        # Several cameras' evidence in any order, camera 9 uncalibrated:
        # each cell unseen (0), seen free (1) or seen occupied (2).
        looks = st.lists(st.integers(0, 2), min_size=width * height, max_size=width * height).map(
            lambda cells: np.array(cells).reshape(height, width)
        )
        camera_looks = draw(st.lists(st.tuples(st.sampled_from([1, 2, 9]), looks), min_size=1, max_size=4))
        ev = [ObstacleEvidence(cam_id, look > 0, look > 1, t) for cam_id, look in camera_looks]
        centre = st.builds(lambda col, row: (col + 0.5, row + 0.5), st.integers(-1, width), st.integers(-1, height))
        position = centre | st.tuples(st.floats(-1.0, width + 1.0), st.floats(-1.0, height + 1.0))
        tags = draw(st.lists(st.builds(TagDetection, st.sampled_from([1, 2, 9]), st.sampled_from([5, 6, 7]), position, st.just(t)), max_size=6))
        frames.append((ev, tags, t))
    return width, height, walls, start, frames


@settings(max_examples=300, deadline=None)
@given(fusion_runs())
def test_fuse_frame_matches_cell_by_cell_reference(run):
    width, height, walls, start, frames = run
    # Cameras 1 and 2 are calibrated (9 is not), and face +y from the origin,
    # so a tag's ground position is its world position.
    cam_a = make_camera(0.0, 0.0, cid=1)
    cam_b = make_camera(0.0, 0.0, cid=2)
    poses = poses_for(cam_a, cam_b)
    got = GridMap(width, height, 1.0, walls=cell_mask(width, height, walls), tag_registry={5: 1, 6: 2})
    ref = GridMap(width, height, 1.0, walls=cell_mask(width, height, walls), tag_registry={5: 1, 6: 2})
    got.cells[:] = ref.cells[:] = np.array(start, dtype=np.uint8).reshape(height, width)
    last_occupied = {}
    for ev, tags, t in frames:
        before, revision = got.cells.copy(), got.revision
        fuse_frame(got, ev, tags, poses, t)
        reference_fuse_frame(ref, ev, tags, poses, t, last_occupied)
        assert (got.cells == ref.cells).all()
        assert got.robot_poses == ref.robot_poses
        assert sorted(got.faults) == sorted(ref.faults)
        assert got.revision == revision + int((got.cells != before).any())


# -- merge_robot_map ----------------------------------------------------------


def test_merge_all_unexplored_local_is_noop():
    g = GridMap(3, 3, 1.0)
    g.cells[0, 0] = int(CellState.EXPLORED)
    g.revision = 1
    before = g.cells.copy()
    merge_robot_map(g, np.zeros((3, 3), dtype=np.uint8))
    assert (g.cells == before).all()
    assert g.revision == 1


def test_merge_blind_spot_adopts_robot_state():
    g = GridMap(3, 3, 1.0)
    local = np.zeros((3, 3), dtype=np.uint8)
    local[2, 2] = int(CellState.OBSTACLE)
    merge_robot_map(g, local)
    assert g.state(CellIndex(2, 2)) == CellState.OBSTACLE
    assert g.revision == 1


def test_merge_fixed_weight_beats_robot_in_covered_cell():
    g = GridMap(3, 3, 1.0)
    g.cells[1, 1] = int(CellState.EXPLORED)
    local = np.zeros((3, 3), dtype=np.uint8)
    local[1, 1] = int(CellState.OBSTACLE)
    merge_robot_map(g, local)
    assert g.state(CellIndex(1, 1)) == CellState.EXPLORED


def test_merge_dimension_mismatch_rejected():
    with pytest.raises(DimensionMismatchError):
        merge_robot_map(GridMap(3, 3, 1.0), np.zeros((3, 4), dtype=np.uint8))


def vote_oracle(g, l, weight_fixed, weight_robot):
    """Independent statement of the merge rule, enumerated pair by pair."""
    if l == CellState.UNEXPLORED:
        return g
    if g == CellState.WALL:
        return g
    if g == CellState.UNEXPLORED:
        return l
    if g == l:
        return g
    return l if weight_robot > weight_fixed else g


@pytest.mark.parametrize("weights", [(2, 1), (1, 1), (1, 2)])
def test_merge_matches_vote_table_for_all_25_pairs(weights):
    weight_fixed, weight_robot = weights
    states = list(CellState)
    g = GridMap(5, 5, 1.0)
    local = np.zeros((5, 5), dtype=np.uint8)
    for i, gs in enumerate(states):
        for j, ls in enumerate(states):
            g.cells[i, j] = int(gs)
            local[i, j] = int(ls)
    merge_robot_map(g, local, weight_fixed, weight_robot)
    for i, gs in enumerate(states):
        for j, ls in enumerate(states):
            expected = vote_oracle(gs, ls, weight_fixed, weight_robot)
            assert g.state(CellIndex(j, i)) == expected, (gs, ls)


# -- EKF ----------------------------------------------------------------------


def test_ekf_predict_noop_with_zero_input_and_noise():
    b = GaussianBelief(np.array([1.0, 2.0, 0.3]), np.diag([0.1, 0.2, 0.05]))
    mm = odometry_motion_model(np.zeros((3, 3)))
    out = ekf_predict(b, np.zeros(3), mm)
    assert np.allclose(out.mean, b.mean)
    assert np.allclose(out.covariance, b.covariance)


def test_ekf_predict_pure_translation():
    b = GaussianBelief(np.array([1.0, 2.0, 0.0]), np.diag([0.1, 0.2, 0.05]))
    mm = odometry_motion_model(np.zeros((3, 3)))
    out = ekf_predict(b, np.array([1.0, 0.0, 0.0]), mm)
    assert np.allclose(out.mean, [2.0, 2.0, 0.0])
    assert np.allclose(out.covariance, b.covariance)


def test_ekf_predict_trace_grows_by_process_noise():
    b = GaussianBelief(np.zeros(3), np.diag([0.3, 0.2, 0.1]))
    q = np.diag([0.01, 0.01, 0.01])
    out = ekf_predict(b, np.zeros(3), odometry_motion_model(q))
    assert np.trace(out.covariance) == pytest.approx(np.trace(b.covariance) + np.trace(q), abs=1e-12)


def test_ekf_update_huge_noise_is_noop():
    b = GaussianBelief(np.array([1.0, 2.0, 0.0]), np.diag([0.1, 0.1, 0.1]))
    om = position_observation_model(np.eye(2) * 1e12)
    out = ekf_update(b, b.mean[:2], om)
    assert np.allclose(out.mean, b.mean, atol=1e-9)
    assert np.allclose(out.covariance, b.covariance, atol=1e-9)


def test_ekf_update_tiny_noise_snaps_to_measurement():
    b = GaussianBelief(np.array([1.0, 2.0, 0.0]), np.diag([0.5, 0.5, 0.5]))
    om = position_observation_model(np.eye(2) * 1e-12)
    z = np.array([3.0, -1.0])
    out = ekf_update(b, z, om)
    assert np.allclose(out.mean[:2], z, atol=1e-6)


def test_ekf_update_matches_1d_conjugate_closed_form():
    rng = np.random.default_rng(55)
    for _ in range(50):
        mu0 = float(rng.uniform(-5, 5))
        var0 = float(rng.uniform(0.01, 2.0))
        varz = float(rng.uniform(0.01, 2.0))
        z = float(rng.uniform(-5, 5))
        b = GaussianBelief(np.array([mu0, 0.0, 0.0]), np.diag([var0, 1.0, 1.0]))
        om = fusion.ObservationModel(
            h=lambda x: np.array([x[0]]),
            r=np.array([[varz]]),
            jacobian=lambda x: np.array([[1.0, 0.0, 0.0]]),
        )
        out = ekf_update(b, np.array([z]), om)
        precision = 1.0 / var0 + 1.0 / varz
        expected_mean = (mu0 / var0 + z / varz) / precision
        expected_var = 1.0 / precision
        assert out.mean[0] == pytest.approx(expected_mean, abs=1e-12)
        assert out.covariance[0, 0] == pytest.approx(expected_var, abs=1e-12)


def test_ekf_update_rejects_measurements_of_three_dimensions():
    # The innovation covariance is inverted in closed form, for 1 or 2 dimensions.
    b = GaussianBelief(np.zeros(3), np.eye(3))
    om = fusion.ObservationModel(h=lambda x: np.asarray(x), r=np.eye(3), jacobian=lambda x: np.eye(3))
    with pytest.raises(DimensionMismatchError, match="1 or 2"):
        ekf_update(b, np.ones(3), om)


@settings(max_examples=300, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.floats(0.5, 2.0),
    st.floats(0.5, 2.0),
    st.one_of(st.floats(-1e-1, 1e-1), st.floats(-2e-12, 0.0)),
)
def test_psd_check_agrees_with_eigvalsh_outside_the_band(seed, first, second, smallest):
    # The closed-form principal minors of cov + PSD_TOL I decide. With the
    # other two eigenvalues in [0.5, 2], they agree with the eigenvalue test
    # (smallest eigenvalue >= -PSD_TOL) unless that eigenvalue is within
    # 1e-14 of -PSD_TOL; measured disagreements reach 1.7e-16.
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    cov = q @ np.diag([first, second, smallest]) @ q.T
    cov = 0.5 * (cov + cov.T)
    eigen_min = float(np.linalg.eigvalsh(cov).min())
    if abs(eigen_min + fusion.PSD_TOL) <= 1e-14:
        return
    if eigen_min > -fusion.PSD_TOL:
        GaussianBelief(np.zeros(3), cov)
    else:
        with pytest.raises(ValueError, match="PSD"):
            GaussianBelief(np.zeros(3), cov)


def test_ekf_covariance_symmetric_psd_over_random_cycles():
    rng = np.random.default_rng(56)
    b = GaussianBelief(np.zeros(3), np.eye(3))
    mm = odometry_motion_model(np.diag([0.01, 0.01, 0.005]))
    om = position_observation_model(np.diag([0.02, 0.02]))
    for _ in range(1000):
        b = ekf_predict(b, rng.normal(0, 0.5, size=3), mm)
        z = b.mean[:2] + rng.normal(0, 0.1, size=2)
        b = ekf_update(b, z, om)
        cov = b.covariance
        assert np.max(np.abs(cov - cov.T)) <= 1e-12
        assert np.linalg.eigvalsh(cov).min() >= -1e-12


# -- grid Bayes filter --------------------------------------------------------


def test_grid_uniform_prior_uninformative_likelihood_stays_uniform():
    gb = GridBelief.uniform(4, 4, 1, cell_size=1.0)
    mm = odometry_motion_model(np.zeros((3, 3)))
    out = bayes_grid_step(gb, np.zeros(3), None, mm, None)
    assert np.allclose(out.probs, gb.probs)


def test_grid_delta_prior_shifts_one_cell_east():
    gb = GridBelief.delta(1, 6, 1, cell_size=1.0, at=(0, 2, 0))
    mm = odometry_motion_model(np.zeros((3, 3)))
    out = bayes_grid_step(gb, np.array([1.0, 0.0, 0.0]), None, mm, None)
    expected = np.zeros((1, 6, 1))
    expected[0, 3, 0] = 1.0
    assert np.allclose(out.probs, expected)


def test_grid_mass_conserved_across_random_steps():
    rng = np.random.default_rng(57)
    gb = GridBelief.uniform(5, 5, 4, cell_size=0.5)
    mm = odometry_motion_model(np.diag([0.05, 0.05, 0.1]))
    om = position_observation_model(np.diag([0.2, 0.2]))
    for _ in range(10):
        u = rng.normal(0, 0.2, size=3)
        z = rng.uniform(0, 2.5, size=2)
        gb = bayes_grid_step(gb, u, z, mm, om)
        assert abs(gb.probs.sum() - 1.0) <= 1e-9


def test_grid_wall_cells_get_zero_probability():
    m = GridMap(3, 3, 1.0)
    m.cells[1, 1] = int(CellState.WALL)
    gb = GridBelief.uniform(3, 3, 1, cell_size=1.0)
    mm = odometry_motion_model(np.zeros((3, 3)))
    out = bayes_grid_step(gb, np.zeros(3), None, mm, None, grid_map=m)
    assert out.probs[1, 1, 0] == 0.0
    assert abs(out.probs.sum() - 1.0) <= 1e-12


def test_grid_degenerate_likelihood_raises():
    gb = GridBelief.delta(1, 4, 1, cell_size=1.0, at=(0, 0, 0))
    mm = odometry_motion_model(np.zeros((3, 3)))
    om = position_observation_model(np.diag([1e-12, 1e-12]))
    with pytest.raises(DegenerateLikelihoodError):
        bayes_grid_step(gb, np.zeros(3), np.array([1e6, 1e6]), mm, om)


def gaussian_cell_probs(centers, mean, var):
    probs = np.exp(-0.5 * (centers - mean) ** 2 / var)
    return probs / probs.sum()


def test_grid_filter_matches_ekf_on_linear_gaussian_case():
    # 1D world at 0.05 m resolution; the grid filter is the brute-force
    # oracle for one EKF predict+update cycle.
    cell = 0.05
    cols = 120
    centers = (np.arange(cols) + 0.5) * cell
    mu0, var0 = 3.0, 0.09
    probs = gaussian_cell_probs(centers, mu0, var0).reshape(1, cols, 1)
    gb = GridBelief(probs=probs, cell_size=cell)

    q = 0.02**2
    rz = 0.1**2
    u = np.array([0.2, 0.0, 0.0])
    z_val = 3.3

    mm = odometry_motion_model(np.diag([q, 0.0, 0.0]))
    om = fusion.ObservationModel(
        h=lambda x: np.array([x[0]]),
        r=np.array([[rz]]),
        jacobian=lambda x: np.array([[1.0, 0.0, 0.0]]),
    )
    gb = bayes_grid_step(gb, u, np.array([z_val]), mm, om)

    belief = GaussianBelief(np.array([mu0, 0.025, 0.0]), np.diag([var0, 1e-9, 1e-9]))
    belief = ekf_predict(belief, u, mm)
    belief = ekf_update(belief, np.array([z_val]), om)

    expected = gaussian_cell_probs(centers, belief.mean[0], belief.covariance[0, 0])
    tv = 0.5 * float(np.abs(gb.probs[0, :, 0] - expected).sum())
    assert tv < 0.01
