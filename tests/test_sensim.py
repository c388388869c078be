import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from ubimap import geom, sensim
from ubimap.geom import Point3
from ubimap.world import (
    CameraSpec,
    CellIndex,
    GridWorld,
    Landmark,
    Obstacle,
    Robot,
    covered_cells,
    ground_footprint,
    line_of_sight,
)

from oracles import footprint_to_world, point_from_array
from test_world import reference_line_of_sight


def make_camera(x, y, *, width, depth, yaw=0.0, cid=1, height=2.0, max_range=100.0):
    hfov = 2.0 * math.atan(width / (2.0 * height))
    vfov = 2.0 * math.atan(depth / height)
    return CameraSpec(id=cid, x=x, y=y, height=height, yaw=yaw, hfov=hfov, vfov=vfov, max_range=max_range)


def room_with_landmarks(landmarks, robots=(), walls=frozenset()):
    return GridWorld(
        cell_size=1.0,
        width=8,
        height=8,
        walls=walls,
        robots=tuple(robots),
        landmarks=tuple(landmarks),
    )


def test_camera_pose_axis_hits_footprint_center():
    cam = make_camera(4.0, 2.0, width=3.0, depth=4.0, yaw=0.3)
    pose = sensim.camera_world_pose(cam)
    fp = ground_footprint(cam)
    # March along the optical axis (local +z) until it reaches the ground.
    z_world = pose.rotation[:, 2]
    s = cam.height / -z_world[2]
    hit = pose.translation + s * z_world
    expected = footprint_to_world(fp, 0.0, fp.depth / 2.0)
    assert hit[2] == pytest.approx(0.0, abs=1e-12)
    assert hit[0] == pytest.approx(expected[0], abs=1e-12)
    assert hit[1] == pytest.approx(expected[1], abs=1e-12)


def test_noise_free_landmark_matches_ground_truth():
    lm = Landmark(id=1, position=Point3(4.0, 3.5, 0.4))
    cam = make_camera(4.0, 2.0, width=4.0, depth=4.0)
    world = room_with_landmarks([lm])
    ids, seen, points = sensim.observe_landmarks([cam], world, sigma=0.0, seed=0)
    assert ids.tolist() == [1] and seen.tolist() == [[True]] and points.shape == (1, 3)
    pose = sensim.camera_world_pose(cam)
    recovered = geom.apply(pose, point_from_array(points[0]))
    assert recovered.x == pytest.approx(lm.position.x, abs=1e-12)
    assert recovered.y == pytest.approx(lm.position.y, abs=1e-12)
    assert recovered.z == pytest.approx(lm.position.z, abs=1e-12)


def test_landmark_behind_wall_absent():
    wall = frozenset(CellIndex(c, 4) for c in range(8))
    near = Landmark(id=1, position=Point3(4.0, 3.5, 0.2))
    far = Landmark(id=2, position=Point3(4.0, 5.5, 0.2))
    cam = make_camera(4.0, 2.0, width=6.0, depth=6.0)
    world = room_with_landmarks([near, far], walls=wall)
    # Independent oracle: the far landmark has no line of sight.
    assert line_of_sight(world, (cam.x, cam.y), (near.position.x, near.position.y))
    assert not line_of_sight(world, (cam.x, cam.y), (far.position.x, far.position.y))
    ids, seen, points = sensim.observe_landmarks([cam], world, sigma=0.0, seed=0)
    assert ids[seen[0]].tolist() == [1]
    assert len(points) == 1


def test_landmark_observation_deterministic():
    lms = [Landmark(id=i, position=Point3(3.0 + 0.3 * i, 3.0, 0.3)) for i in range(5)]
    cam = make_camera(4.0, 2.0, width=6.0, depth=5.0)
    world = room_with_landmarks(lms)
    _, seen_a, a = sensim.observe_landmarks([cam], world, sigma=0.05, seed=9)
    _, seen_b, b = sensim.observe_landmarks([cam], world, sigma=0.05, seed=9)
    assert seen_a.any() and (seen_a == seen_b).all()
    assert a.tobytes() == b.tobytes()
    _, seen_c, c = sensim.observe_landmarks([cam], world, sigma=0.05, seed=10)
    assert (seen_c == seen_a).all() and not (a == c).any()


def test_landmark_outside_frustum_excluded():
    behind = Landmark(id=1, position=Point3(4.0, 1.0, 0.2))  # behind the camera
    cam = make_camera(4.0, 2.0, width=4.0, depth=4.0)
    world = room_with_landmarks([behind])
    ids, seen, points = sensim.observe_landmarks([cam], world, sigma=0.0, seed=0)
    assert ids.tolist() == [1] and seen.tolist() == [[False]] and points.shape == (0, 3)


def test_tags_empty_when_robot_outside_every_footprint():
    robot = Robot(id=1, x=7.5, y=7.5, theta=0.0, tag=3)
    cam = make_camera(2.0, 1.0, width=2.0, depth=2.0)
    world = room_with_landmarks([], robots=[robot])
    assert sensim.observe_tags([cam], world, sigma=0.0, seed=0, t=0.0) == []


def test_tag_noise_free_equals_true_relative_position():
    robot = Robot(id=1, x=2.5, y=2.5, theta=0.0, tag=3)
    cam = make_camera(2.0, 1.0, width=4.0, depth=4.0)
    world = room_with_landmarks([], robots=[robot])
    dets = sensim.observe_tags([cam], world, sigma=0.0, seed=0, t=0.5)
    assert len(dets) == 1
    fp = ground_footprint(cam)
    expected = fp.to_local(robot.x, robot.y)
    assert dets[0].ground_position == pytest.approx(expected, abs=1e-12)
    assert dets[0].timestamp == 0.5


def test_robot_in_overlap_detected_by_both_cameras():
    robot = Robot(id=1, x=3.5, y=2.5, theta=0.0, tag=9)
    cam_a = make_camera(3.5, 1.0, width=4.0, depth=4.0, cid=1)
    cam_b = make_camera(3.5, 4.0, width=4.0, depth=4.0, yaw=math.pi, cid=2)
    world = room_with_landmarks([], robots=[robot])
    # Footprint-membership oracle.
    cell = world.cell_of(robot.x, robot.y)
    assert cell in covered_cells(cam_a, world)
    assert cell in covered_cells(cam_b, world)
    dets = sensim.observe_tags([cam_a], world, 0.0, 0, 0.0) + sensim.observe_tags([cam_b], world, 0.0, 0, 0.0)
    assert [d.tag_id for d in dets] == [9, 9]
    assert {d.camera_id for d in dets} == {1, 2}


def test_tag_noise_deterministic_per_tick():
    robot = Robot(id=1, x=2.5, y=2.5, theta=0.0, tag=3)
    cam = make_camera(2.0, 1.0, width=4.0, depth=4.0)
    world = room_with_landmarks([], robots=[robot])
    a = sensim.observe_tags([cam], world, sigma=0.02, seed=4, t=0.1)
    b = sensim.observe_tags([cam], world, sigma=0.02, seed=4, t=0.1)
    c = sensim.observe_tags([cam], world, sigma=0.02, seed=4, t=0.2)
    assert a == b
    assert a[0].ground_position != c[0].ground_position


WORD = 2**64 - 1


def reference_philox(counter, key):
    """Reference Philox4x64-10 (Salmon et al., SC 2011): one block in Python
    integers, with the 128-bit products taken whole."""
    c0, c1, c2, c3 = counter
    k0, k1 = key
    for _ in range(10):
        p0, p1 = 0xD2E7470EE14C6C93 * c0, 0xCA5A826395121157 * c2
        c0, c1, c2, c3 = (p1 >> 64) ^ c1 ^ k0, p1 & WORD, (p0 >> 64) ^ c3 ^ k1, p0 & WORD
        k0, k1 = (k0 + 0x9E3779B97F4A7C15) & WORD, (k1 + 0xBB67AE8584CAA73B) & WORD
    return c0, c1, c2, c3


def reference_noise(seed, stream, counter, sigma, size):
    """Reference draw for one observation: the block's four uniforms in
    (0, 1], then Box-Muller on each pair, one value at a time."""
    u = [((w >> 11) + 1) * 2.0**-53 for w in reference_philox(counter, (seed, stream))]
    z = []
    for k in (0, 2):
        radius = math.sqrt(-2.0 * math.log(u[k]))
        angle = 2.0 * math.pi * u[k + 1]
        z += [radius * math.cos(angle), radius * math.sin(angle)]
    return np.array([sigma * value for value in z[:size]])


words = st.integers(0, WORD)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(words, words, words, words), min_size=1, max_size=5), words, words)
@example([(WORD, WORD, WORD, WORD), (0, 0, 0, 0)], WORD, WORD)
@example([(WORD, 0, WORD, 0)], 0, WORD)
def test_philox_matches_numpy_philox(counters, k0, k1):
    got = sensim.philox4x64(np.array(counters, dtype=np.uint64).T, (k0, k1))
    assert got.dtype == np.uint64 and got.shape == (4, len(counters))
    for column, counter in zip(got.T.tolist(), counters):
        # numpy's Philox steps its 256-bit little-endian counter before the first block.
        value = sum(word << (64 * i) for i, word in enumerate(counter))
        bit_generator = np.random.Philox(counter=(value - 1) % 2**256, key=k0 | k1 << 64)
        assert column == bit_generator.random_raw(4).tolist()
        assert tuple(column) == reference_philox(counter, (k0, k1))


def test_philox_rejects_words_outside_64_bits():
    with pytest.raises(OverflowError):
        sensim.philox4x64([[2**64], [0], [0], [0]], (0, 0))
    with pytest.raises(OverflowError):
        sensim.philox4x64([[0], [0], [0], [0]], (-1, 0))


def test_gaussian_noise_mean_and_spread():
    n, sigma = 100_000, 0.5
    counter = np.zeros((4, n), dtype=np.uint64)
    counter[0] = np.arange(n)
    draws = sensim._gaussian_noise(3, sensim.LANDMARK_STREAM, counter, sigma, 4)
    assert draws.shape == (n, 4)
    for column in draws.T:
        # Standard errors of the sample mean and of the sample standard deviation.
        assert abs(column.mean()) <= 4 * sigma / math.sqrt(n)
        assert abs(column.std() - sigma) <= 4 * sigma / math.sqrt(2 * n)


def test_gaussian_noise_matches_reference_per_observation():
    counters = [(0, 0, 0, 0), (WORD, 5, 7, 0), (1500, 2, 9, 0), (3, WORD, 0, WORD)]
    for size in (1, 2, 3, 4):
        draws = sensim._gaussian_noise(WORD, 2, np.array(counters, dtype=np.uint64).T, 0.02, size)
        want = np.array([reference_noise(WORD, 2, counter, 0.02, size) for counter in counters])
        assert draws.tobytes() == want.tobytes()


def reference_observe_tags(cam, world, sigma, seed, t):
    """Reference: one camera's tag detections, a covered-cell set lookup per robot."""
    footprint = covered_cells(cam, world)
    fp = ground_footprint(cam)
    tick_ms = int(round(t * 1000.0))
    out = []
    for robot in sorted(world.robots, key=lambda r: r.tag):
        if world.cell_of(robot.x, robot.y) not in footprint:
            continue
        local = np.array(fp.to_local(robot.x, robot.y))
        if sigma > 0:
            local = local + reference_noise(seed, sensim.TAG_STREAM, (tick_ms, cam.id, robot.tag, 0), sigma, 2)
        out.append(sensim.TagDetection(cam.id, robot.tag, (float(local[0]), float(local[1])), t))
    return out


@pytest.mark.parametrize("sigma", [0.0, 0.03])
@pytest.mark.parametrize("seed", range(12))
def test_observe_tags_matches_per_camera_reference(seed, sigma):
    rng = np.random.default_rng(seed)
    width, height = int(rng.integers(3, 14)), int(rng.integers(3, 14))
    cells = [CellIndex(col, row) for row in range(height) for col in range(width)]
    walls = frozenset(cells[i] for i in rng.choice(len(cells), size=len(cells) // 6, replace=False).tolist())
    free = [cell for cell in cells if cell not in walls]
    picks = [free[i] for i in rng.choice(len(free), size=min(8, len(free)), replace=False).tolist()]
    # Robots on cell corners, on vertical cell edges and anywhere in a cell,
    # with tags out of id order.
    spots = []
    for k, cell in enumerate(picks):
        dx, dy = float(rng.random()), float(rng.random())
        spots.append([(cell.col, cell.row), (cell.col, cell.row + dy), (cell.col + dx, cell.row + dy)][k % 3])
    tags = rng.permutation(len(spots)) + 10
    robots = tuple(
        Robot(id=i + 1, x=float(x), y=float(y), theta=0.0, tag=int(tag)) for i, ((x, y), tag) in enumerate(zip(spots, tags))
    )
    world = GridWorld(cell_size=1.0, width=width, height=height, walls=walls, robots=robots)
    cameras = [
        make_camera(
            float(rng.uniform(0, width)), float(rng.uniform(0, height)), width=float(rng.uniform(1, 8)),
            depth=float(rng.uniform(1, 8)), yaw=float(rng.uniform(-math.pi, math.pi)), cid=cid,
        )
        for cid in (4, 2, 7, 3)
    ]
    expected = [det for cam in cameras for det in reference_observe_tags(cam, world, sigma, 5, 0.3)]
    assert sensim.observe_tags(cameras, world, sigma, 5, 0.3) == expected
    footprints = covered_cells(cameras, world)
    assert sensim.observe_tags(cameras, world, sigma, 5, 0.3, footprints) == expected
    assert sensim.observe_tags([], world, sigma, 5, 0.3) == []


def cells_of(mask):
    """The True cells of a (height, width) mask, in sorted CellIndex order."""
    return [CellIndex(col, row) for col, row in zip(*(a.tolist() for a in np.nonzero(mask.T)))]


def test_obstacle_evidence_all_free_in_empty_footprint():
    cam = make_camera(2.0, 1.0, width=2.0, depth=2.0)
    world = room_with_landmarks([])
    evidence = sensim.observe_obstacles([cam], world)[0]
    assert evidence.observed.any()
    assert not evidence.occupied.any()
    assert set(cells_of(evidence.observed)) == covered_cells(cam, world)


def test_obstacle_in_footprint_reported_occupied():
    from ubimap.world import Obstacle

    ob = Obstacle(id=1, cell=CellIndex(2, 2))
    world = GridWorld(cell_size=1.0, width=8, height=8, obstacles=(ob,))
    cam = make_camera(2.0, 1.0, width=4.0, depth=4.0)
    evidence = sensim.observe_obstacles([cam], world)[0]
    assert evidence.observed[2, 2] and evidence.occupied[2, 2]
    assert evidence.occupied.sum() == 1


def test_obstacle_behind_wall_not_reported():
    from ubimap.world import Obstacle

    wall = frozenset(CellIndex(c, 3) for c in range(8))
    ob = Obstacle(id=1, cell=CellIndex(2, 5))
    world = GridWorld(cell_size=1.0, width=8, height=8, walls=wall, obstacles=(ob,))
    cam = make_camera(2.0, 0.5, width=6.0, depth=7.0)
    # Ray-cast oracle: the obstacle cell center is occluded.
    assert not line_of_sight(world, (cam.x, cam.y), world.cell_center(ob.cell))
    cells = cells_of(sensim.observe_obstacles([cam], world)[0].observed)
    assert ob.cell not in cells


def test_visibility_soundness_randomized():
    rng = np.random.default_rng(123)
    walls = frozenset({CellIndex(3, r) for r in range(2, 6)})
    lms = [
        Landmark(id=i, position=Point3(float(rng.uniform(0.2, 7.8)), float(rng.uniform(0.2, 7.8)), float(rng.uniform(0.1, 1.0))))
        for i in range(20)
    ]
    world = GridWorld(cell_size=1.0, width=8, height=8, walls=walls, landmarks=tuple(lms))
    for yaw in (0.0, 1.2, 2.8, 4.4):
        cam = make_camera(4.2, 3.4, width=6.0, depth=6.0, yaw=yaw)
        ids, seen, _ = sensim.observe_landmarks([cam], world, sigma=0.0, seed=1)
        for landmark_id in ids[seen[0]].tolist():
            lm = next(l for l in lms if l.id == landmark_id)
            assert line_of_sight(world, (cam.x, cam.y), (lm.position.x, lm.position.y))


def reference_observe_landmarks(cam, world, sigma, seed):
    """Reference: one camera, each landmark tested on its own; returns
    ``{landmark id: optical-frame point}`` in landmark id order."""
    cam_from_world = geom.invert(sensim.camera_world_pose(cam))
    out = {}
    for lm in sorted(world.landmarks, key=lambda lm: lm.id):
        p_cam = geom.apply(cam_from_world, lm.position).as_array()
        px, py, pz = p_cam.tolist()
        if pz <= 0 or math.sqrt(px * px + py * py + pz * pz) > cam.max_range:
            continue
        if abs(math.atan2(px, pz)) > cam.hfov / 2.0 or abs(math.atan2(py, pz)) > cam.vfov / 2.0:
            continue
        if not reference_line_of_sight(world, (cam.x, cam.y), (lm.position.x, lm.position.y)):
            continue
        if sigma > 0:
            p_cam = p_cam + reference_noise(seed, sensim.LANDMARK_STREAM, (cam.id, lm.id, 0, 0), sigma, 3)
        out[lm.id] = p_cam
    return out


@pytest.mark.parametrize("sigma", [0.0, 0.05])
def test_observe_landmarks_matches_per_camera_reference_bit_for_bit(sigma):
    rng = np.random.default_rng(31)
    walls = frozenset({CellIndex(c, 9) for c in range(4, 16)} | {CellIndex(10, r) for r in range(0, 6)})
    lms = [
        Landmark(id=int(i), position=Point3(float(rng.uniform(0, 10)), float(rng.uniform(0, 10)), float(rng.uniform(0, 2))))
        for i in rng.permutation(300)
    ]
    world = GridWorld(cell_size=0.5, width=20, height=20, walls=walls, landmarks=tuple(lms))
    cameras = [
        make_camera(
            float(rng.uniform(0, 10)), float(rng.uniform(0, 10)), width=float(rng.uniform(1, 8)),
            depth=float(rng.uniform(1, 8)), yaw=float(rng.uniform(-math.pi, math.pi)), cid=cid,
            height=float(rng.uniform(0.5, 3)), max_range=float(rng.uniform(2, 12)),
        )
        for cid in (7, 3, 12, 5, 1, 9)
    ]
    ids, seen, points = sensim.observe_landmarks(cameras, world, sigma=sigma, seed=4)
    assert ids.tolist() == list(range(300))
    assert seen.shape == (len(cameras), 300) and points.shape == (seen.sum(), 3)
    assert seen.sum() > 50
    expected = [reference_observe_landmarks(cam, world, sigma, 4) for cam in cameras]
    assert seen.tolist() == [[lid in ref for lid in range(300)] for ref in expected]
    # Row-major order of the mask: camera by camera, landmarks ascending.
    want = np.array([p for ref in expected for p in ref.values()])
    assert points.tobytes() == want.tobytes()


def test_observe_landmarks_without_cameras_or_landmarks():
    cam = make_camera(4.0, 2.0, width=4.0, depth=4.0)
    lm = Landmark(id=1, position=Point3(4.0, 3.5, 0.4))
    for cameras, landmarks in (([], []), ([], [lm]), ([cam], [])):
        ids, seen, points = sensim.observe_landmarks(cameras, room_with_landmarks(landmarks), sigma=0.1, seed=0)
        assert ids.shape == (len(landmarks),) and seen.shape == (len(cameras), len(landmarks))
        assert points.shape == (0, 3)


def noisy_scene():
    """Six cameras over a 10 m room with 80 landmarks and 12 tagged robots."""
    rng = np.random.default_rng(47)
    landmarks = tuple(
        Landmark(id=int(i), position=Point3(float(rng.uniform(0, 10)), float(rng.uniform(0, 10)), float(rng.uniform(0, 2))))
        for i in rng.permutation(80)
    )
    cells = rng.choice(400, size=12, replace=False)
    robots = tuple(
        Robot(id=k + 1, x=float(c % 20) * 0.5 + 0.25, y=float(c // 20) * 0.5 + 0.25, theta=0.0, tag=int(3 * k + 2))
        for k, c in enumerate(cells.tolist())
    )
    world = GridWorld(cell_size=0.5, width=20, height=20, landmarks=landmarks, robots=robots)
    cameras = [
        make_camera(
            float(rng.uniform(2, 8)), float(rng.uniform(2, 8)), width=float(rng.uniform(4, 9)),
            depth=float(rng.uniform(4, 9)), yaw=float(rng.uniform(-math.pi, math.pi)), cid=cid,
            height=2.5, max_range=12.0,
        )
        for cid in (7, 3, 12, 5, 1, 9)
    ]
    return world, cameras


NOISY_SCENE = noisy_scene()


def landmark_draws(cameras, world):
    ids, seen, points = sensim.observe_landmarks(cameras, world, sigma=0.05, seed=WORD)
    pairs = [(cam.id, lid) for cam, row in zip(cameras, seen) for lid in ids[row].tolist()]
    return dict(zip(pairs, (point.tobytes() for point in points)))


def tag_draws(cameras, world):
    return {(d.camera_id, d.tag_id): d.ground_position for d in sensim.observe_tags(cameras, world, 0.05, 11, 2.5)}


@settings(max_examples=40, deadline=None)
@given(
    st.permutations(range(6)).flatmap(lambda order: st.integers(1, 6).map(lambda k: order[:k])),
    st.sets(st.integers(0, 79), min_size=1),
    st.sets(st.integers(0, 11), min_size=1),
)
def test_noise_of_a_subset_equals_rows_of_the_full_call(camera_picks, landmark_picks, robot_picks):
    world, cameras = NOISY_SCENE
    cams = [cameras[k] for k in camera_picks]
    some_landmarks = tuple(lm for lm in world.landmarks if lm.id in landmark_picks)
    some_robots = tuple(r for k, r in enumerate(world.robots) if k in robot_picks)
    full = landmark_draws(cameras, world)
    part = landmark_draws(cams, dataclasses.replace(world, landmarks=some_landmarks))
    assert part == {(c, l): p for (c, l), p in full.items() if c in {cam.id for cam in cams} and l in landmark_picks}
    full = tag_draws(cameras, world)
    part = tag_draws(cams, dataclasses.replace(world, robots=some_robots))
    tags = {r.tag for r in some_robots}
    assert part == {(c, tag): p for (c, tag), p in full.items() if c in {cam.id for cam in cams} and tag in tags}


def test_noisy_scene_draws_landmarks_and_tags():
    world, cameras = NOISY_SCENE
    assert len(landmark_draws(cameras, world)) > 60
    assert len(tag_draws(cameras, world)) > 6


def reference_observe_obstacles(cam, world):
    """Reference: one camera's evidence as (cell, occupied) pairs, one per
    covered cell in sorted order."""
    occupied_cells = {ob.cell for ob in world.obstacles}
    occupied_cells |= {world.cell_of(r.x, r.y) for r in world.robots}
    return [(cell, cell in occupied_cells) for cell in sorted(covered_cells(cam, world))]


@pytest.mark.parametrize("seed", range(40))
def test_observe_obstacles_matches_per_cell_reference(seed):
    rng = np.random.default_rng(seed)
    width, height = int(rng.integers(3, 14)), int(rng.integers(3, 14))
    cells = [CellIndex(col, row) for row in range(height) for col in range(width)]
    walls = frozenset(cells[i] for i in rng.choice(len(cells), size=len(cells) // 6, replace=False).tolist())
    free = [cell for cell in cells if cell not in walls]
    picks = [free[i] for i in rng.choice(len(free), size=5, replace=False).tolist()]
    obstacles = tuple(Obstacle(id=i, cell=cell) for i, cell in enumerate(picks[:3]))
    # Robots on an obstacle's centre, on a cell corner (an obstacle's too),
    # on a vertical cell edge, and anywhere in a cell.
    spots = [
        (picks[0].col + 0.5, picks[0].row + 0.5),
        (float(picks[1].col), float(picks[1].row)),
        (float(picks[3].col), picks[3].row + float(rng.random())),
        (picks[4].col + float(rng.random()), picks[4].row + float(rng.random())),
    ]
    robots = tuple(Robot(id=i + 1, x=x, y=y, theta=0.0, tag=i + 1) for i, (x, y) in enumerate(spots))
    world = GridWorld(cell_size=1.0, width=width, height=height, walls=walls, obstacles=obstacles, robots=robots)
    cameras = [
        make_camera(
            float(rng.uniform(0, width)), float(rng.uniform(0, height)), width=float(rng.uniform(1, 8)),
            depth=float(rng.uniform(1, 8)), yaw=float(rng.uniform(-math.pi, math.pi)), cid=cid,
        )
        for cid in (4, 2, 7)
    ]
    got = sensim.observe_obstacles(cameras, world, t=1.5)
    assert [ev.camera_id for ev in got] == [cam.id for cam in cameras]
    for cam, ev in zip(cameras, got):
        expected = reference_observe_obstacles(cam, world)
        assert ev.timestamp == 1.5
        assert ev.observed.shape == ev.occupied.shape == (height, width)
        assert list(zip(*np.nonzero(ev.observed.T))) == [cell for cell, _ in expected]
        assert [bool(ev.occupied[cell.row, cell.col]) for cell, _ in expected] == [flag for _, flag in expected]
        assert not (ev.occupied & ~ev.observed).any()
