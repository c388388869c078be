"""Acceptance suite: one test per release criterion, each printing a
PASS line with the measured margin (run with -s to see them live)."""

import itertools
import math
import time
from pathlib import Path

import mpmath
import numpy as np

from ubimap import calib, cli, coverage, fusion, geom, netsim, sensim, world as worldmod
from ubimap.calib import IcpOptions
from ubimap.fusion import CellState, GaussianBelief, GridMap
from ubimap.geom import RigidTransform
from ubimap.netsim import ClientState, MapServer, Message, MessageKind, NetworkParams, SimulatedNetwork
from ubimap.world import CameraSpec, CellIndex, GridWorld

from oracles import GridBelief, bayes_grid_step, cell_mask, cost_gradient, is_close, stack_pairs, target_cells
from test_cli import simulate_in_memory

DEMO_ROOM = Path(__file__).resolve().parent.parent / "scenarios" / "demo_room.scenario"


def ok(criterion: int, detail: str) -> None:
    print(f"PASS criterion {criterion}: {detail}")


def random_rotation(rng, max_angle=math.pi):
    axis = rng.normal(size=3)
    axis /= np.linalg.norm(axis)
    return geom.rotation_from_axis_angle(axis * rng.uniform(-max_angle, max_angle))


# -- 1. footprint math ---------------------------------------------------------


def test_criterion_1_footprint_math():
    start = time.perf_counter()
    mpmath.mp.dps = 50
    rng = np.random.default_rng(101)
    worst = 0.0
    for i in range(20):
        cam = CameraSpec(
            id=i,
            x=0.0,
            y=0.0,
            height=float(rng.uniform(0.5, 4.0)),
            yaw=float(rng.uniform(0, 2 * math.pi)),
            hfov=float(rng.uniform(0.2, 2.8)),
            vfov=float(rng.uniform(0.2, 2.8)),
            max_range=float(rng.uniform(1.0, 20.0)),
        )
        fp = worldmod.ground_footprint(cam)
        h = mpmath.mpf(cam.height)
        depth_hp = min(h * mpmath.tan(mpmath.mpf(cam.vfov) / 2), mpmath.mpf(cam.max_range))
        width_hp = 2 * h * mpmath.tan(mpmath.mpf(cam.hfov) / 2)
        depth_err = abs(fp.depth - float(depth_hp)) / float(depth_hp)
        width_err = abs(fp.width - float(width_hp)) / float(width_hp)
        worst = max(worst, depth_err, width_err)
        assert depth_err < 1e-12 and width_err < 1e-12, (cam, depth_err, width_err)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    ok(1, f"20 footprints within {worst:.2e} relative of 50-digit evaluation in {elapsed:.3f}s")


# -- 2. coverage optimality ------------------------------------------------------


def oracle_cell_sets(cameras, world):
    """From-scratch per-camera coverage: rotated-rectangle membership over
    every cell center (instances are wall-free, so no occlusion term)."""
    out = {}
    for cam in cameras:
        depth = min(cam.height * math.tan(cam.vfov / 2), cam.max_range)
        width = 2 * cam.height * math.tan(cam.hfov / 2)
        cells = set()
        for row in range(world.height):
            for col in range(world.width):
                cx = (col + 0.5) * world.cell_size - cam.x
                cy = (row + 0.5) * world.cell_size - cam.y
                c, s = math.cos(cam.yaw), math.sin(cam.yaw)
                lx, ly = c * cx + s * cy, -s * cx + c * cy
                if -width / 2 <= lx <= width / 2 and 0 <= ly <= depth:
                    cells.add(CellIndex(col, row))
        out[cam.id] = frozenset(cells)
    return out


def oracle_enumerate(cover, target, budget, k):
    """Independent optimal-subset search with the documented tie-breaks."""
    ids = sorted(cover)
    best = ((), -1)
    for size in range(min(budget, len(ids)) + 1):
        for combo in itertools.combinations(ids, size):
            mult = {}
            for cid in combo:
                for cell in cover[cid] & target:
                    mult[cell] = mult.get(cell, 0) + 1
            if any(n > k for n in mult.values()):
                continue
            obj = len(mult)
            if obj > best[1] or (obj == best[1] and (len(combo), combo) < (len(best[0]), best[0])):
                best = (combo, obj)
    return best


def test_criterion_2_coverage_optimality():
    start = time.perf_counter()
    rng = np.random.default_rng(202)
    bound = 1.0 - 1.0 / math.e
    for trial in range(50):
        width, height = int(rng.integers(4, 9)), int(rng.integers(4, 9))
        world = GridWorld(cell_size=1.0, width=width, height=height)
        n = int(rng.integers(4, 13))
        cams = []
        for cid in range(1, n + 1):
            span = float(rng.uniform(1.5, max(width, height)))
            depth = float(rng.uniform(1.5, max(width, height)))
            cams.append(
                CameraSpec(
                    id=cid,
                    x=float(rng.uniform(0.2, width - 0.2)),
                    y=float(rng.uniform(0.2, height - 0.2)),
                    height=2.0,
                    yaw=float(rng.uniform(0, 2 * math.pi)),
                    hfov=2 * math.atan(span / 4.0),
                    vfov=2 * math.atan(depth / 2.0),
                    max_range=50.0,
                )
            )
        budget = int(rng.integers(1, 5))
        k = int(rng.choice([2, 3, n]))
        problem = coverage.CoverageProblem(
            world=world, candidates=tuple(cams), budget=budget, max_overlap=k
        )
        exact = coverage.plan_exhaustive(problem)
        greedy = coverage.plan_greedy(problem)

        cover = oracle_cell_sets(cams, world)
        expected_ids, expected_obj = oracle_enumerate(cover, target_cells(problem), budget, k)
        assert tuple(expected_ids) == exact.selected, trial
        assert expected_obj == coverage.objective(exact, problem), trial
        assert coverage.objective(greedy, problem) >= bound * expected_obj - 1e-9, trial
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    ok(2, f"50 instances: exhaustive == oracle, greedy >= (1-1/e)*opt, in {elapsed:.2f}s")


# -- 3. rigid alignment ----------------------------------------------------------


def test_criterion_3_rigid_alignment():
    rng = np.random.default_rng(303)
    for _ in range(100):
        true = RigidTransform(random_rotation(rng), rng.uniform(-3, 3, size=3))
        pts = rng.uniform(-2, 2, size=(int(rng.integers(4, 12)), 3))
        ids = tuple(range(len(pts)))
        result = calib.icp(pts, true.transform_points(pts), IcpOptions(), ids, ids)
        assert geom.rotation_distance(result.transform, true) < 1e-6
        assert np.linalg.norm(result.transform.translation - true.translation) < 1e-6

    sigma = 0.01
    hits = 0
    for _ in range(100):
        true = RigidTransform(random_rotation(rng), rng.uniform(-3, 3, size=3))
        pts = rng.uniform(-2, 2, size=(10, 3))
        noisy_src = pts + rng.normal(0, sigma, pts.shape)
        noisy_dst = true.transform_points(pts) + rng.normal(0, sigma, pts.shape)
        ids = tuple(range(10))
        result = calib.icp(noisy_src, noisy_dst, IcpOptions(), ids, ids)
        if result.rms_residual <= 3 * sigma:
            hits += 1
    assert hits >= 95
    ok(3, f"100 exact recoveries < 1e-6; noisy rms <= 3 sigma in {hits}/100 trials")


# -- 4. graph propagation and refinement ------------------------------------------


def cycle_rig(rng, n_cameras=4, noise=0.0, landmarks=6):
    true_poses = {0: geom.identity()}
    for k in range(1, n_cameras):
        true_poses[k] = RigidTransform(random_rotation(rng, 1.2), rng.uniform(-2, 2, size=3))
    pairs = [(k, (k + 1) % n_cameras) for k in range(n_cameras)]
    pairwise = []
    for cam_i, cam_j in pairs:
        world_pts = rng.uniform(-1.5, 1.5, size=(landmarks, 3))
        pts_i = geom.invert(true_poses[cam_i]).transform_points(world_pts)
        pts_j = geom.invert(true_poses[cam_j]).transform_points(world_pts)
        if noise > 0:
            pts_i = pts_i + rng.normal(0, noise, pts_i.shape)
            pts_j = pts_j + rng.normal(0, noise, pts_j.shape)
        pairwise.append((cam_i, cam_j, pts_i, pts_j))
    return true_poses, stack_pairs(pairwise)


def test_criterion_4_graph_propagation_and_refinement():
    rng = np.random.default_rng(404)
    true_poses, pairwise = cycle_rig(rng, noise=0.0)
    graph = calib.build_graph(pairwise, reference=0)
    poses = calib.propagate(graph)
    for cam, pose in zip(graph.nodes, geom.unstack(poses)):
        assert is_close(pose, true_poses[cam], 1e-9, 1e-9)
    refined, trace = calib.refine(graph, poses)
    assert trace[-1] < 1e-10
    assert all(b <= a + 1e-18 for a, b in zip(trace, trace[1:]))

    noisy_rng = np.random.default_rng(405)
    _, noisy_pairwise = cycle_rig(noisy_rng, noise=0.01)
    noisy_graph = calib.build_graph(noisy_pairwise, reference=0)
    noisy_initial = calib.propagate(noisy_graph)
    _, noisy_trace = calib.refine(noisy_graph, noisy_initial)
    assert noisy_trace[-1] <= noisy_trace[0]
    assert all(b < a for a, b in zip(noisy_trace, noisy_trace[1:]))

    grad_rng = np.random.default_rng(406)
    worst = 0.0
    for _ in range(20):
        n = int(grad_rng.integers(3, 5))
        _, pw = cycle_rig(grad_rng, n_cameras=n, noise=0.02, landmarks=5)
        graph = calib.build_graph(pw, reference=0)
        propagated = calib.propagate(graph)
        poses = propagated.rotation, propagated.translation
        grad = cost_gradient(graph, *poses)
        free = [node for node in graph.nodes if node != 0]
        h = 1e-6
        fd = np.zeros_like(grad)
        for p in range(6 * len(free)):
            delta = np.zeros(6 * len(free))
            delta[p] = h
            up = calib.graph_cost(graph, *calib._apply_step(graph, *poses, delta))
            delta[p] = -h
            down = calib.graph_cost(graph, *calib._apply_step(graph, *poses, delta))
            fd[p] = (up - down) / (2 * h)
        # Vector-relative: components with a true zero gradient only carry
        # finite-difference roundoff, so compare against the gradient scale.
        rel = float(np.max(np.abs(grad - fd))) / max(float(np.max(np.abs(fd))), 1e-8)
        worst = max(worst, rel)
        assert rel < 1e-5
    ok(4, f"cycle propagation exact, refine cost {trace[-1]:.2e}, gradient FD error {worst:.2e}")


# -- 5. filter correctness ---------------------------------------------------------


def test_criterion_5_filter_correctness():
    rng = np.random.default_rng(505)
    belief = GaussianBelief(np.zeros(3), np.eye(3))
    mm = fusion.odometry_motion_model(np.diag([0.01, 0.01, 0.004]))
    om = fusion.position_observation_model(np.diag([0.02, 0.02]))
    for _ in range(1000):
        belief = fusion.ekf_predict(belief, rng.normal(0, 0.4, size=3), mm)
        belief = fusion.ekf_update(belief, belief.mean[:2] + rng.normal(0, 0.1, size=2), om)
        assert np.max(np.abs(belief.covariance - belief.covariance.T)) <= 1e-12
        assert np.linalg.eigvalsh(belief.covariance).min() >= -1e-12

    for _ in range(50):
        mu0, var0 = float(rng.uniform(-4, 4)), float(rng.uniform(0.02, 1.5))
        varz, z = float(rng.uniform(0.02, 1.5)), float(rng.uniform(-4, 4))
        b = GaussianBelief(np.array([mu0, 0.0, 0.0]), np.diag([var0, 1.0, 1.0]))
        scalar_om = fusion.ObservationModel(
            h=lambda x: np.array([x[0]]),
            r=np.array([[varz]]),
            jacobian=lambda x: np.array([[1.0, 0.0, 0.0]]),
        )
        out = fusion.ekf_update(b, np.array([z]), scalar_om)
        precision = 1.0 / var0 + 1.0 / varz
        assert abs(out.mean[0] - (mu0 / var0 + z / varz) / precision) < 1e-12
        assert abs(out.covariance[0, 0] - 1.0 / precision) < 1e-12

    cell = 0.05
    cols = 140
    centers = (np.arange(cols) + 0.5) * cell
    mu0, var0 = 3.5, 0.08
    prior = np.exp(-0.5 * (centers - mu0) ** 2 / var0)
    gb = GridBelief(probs=(prior / prior.sum()).reshape(1, cols, 1), cell_size=cell)
    q, rz = 0.03**2, 0.12**2
    u = np.array([0.25, 0.0, 0.0])
    z = np.array([3.9])
    mm1d = fusion.odometry_motion_model(np.diag([q, 0.0, 0.0]))
    om1d = fusion.ObservationModel(
        h=lambda x: np.array([x[0]]), r=np.array([[rz]]), jacobian=lambda x: np.array([[1.0, 0.0, 0.0]])
    )
    gb = bayes_grid_step(gb, u, z, mm1d, om1d)
    ekf = GaussianBelief(np.array([mu0, 0.025, 0.0]), np.diag([var0, 1e-9, 1e-9]))
    ekf = fusion.ekf_predict(ekf, u, mm1d)
    ekf = fusion.ekf_update(ekf, z, om1d)
    expected = np.exp(-0.5 * (centers - ekf.mean[0]) ** 2 / ekf.covariance[0, 0])
    expected /= expected.sum()
    tv = 0.5 * float(np.abs(gb.probs[0, :, 0] - expected).sum())
    assert tv < 0.01
    ok(5, f"1000 PSD EKF steps, conjugate match < 1e-12, grid-vs-EKF TV {tv:.4f}")


# -- 6. map semantics ---------------------------------------------------------------


def test_criterion_6_map_semantics():
    rng = np.random.default_rng(606)
    walls = frozenset({CellIndex(2, 2), CellIndex(3, 4), CellIndex(0, 1)})
    grid_map = GridMap(6, 6, 1.0, walls=cell_mask(6, 6, walls))
    cam = CameraSpec(id=1, x=3.0, y=0.0, height=2.0, yaw=0.0, hfov=1.2, vfov=1.2, max_range=50.0)
    poses = {1: sensim.camera_world_pose(cam)}
    ever_observed: set[CellIndex] = set()
    for step in range(400):
        t = step * 0.05
        cells = [CellIndex(int(rng.integers(6)), int(rng.integers(6))) for _ in range(5)]
        occupied = {c for c in cells if rng.random() < 0.35}
        ev = [
            sensim.ObstacleEvidence(
                camera_id=1, observed=cell_mask(6, 6, cells), occupied=cell_mask(6, 6, occupied),
                timestamp=t,
            )
        ]
        before = {c: grid_map.state(c) for c in walls}
        fusion.fuse_frame(grid_map, ev, [], poses, t)
        ever_observed |= set(cells)
        for row in range(6):
            for col in range(6):
                cell = CellIndex(col, row)
                state = grid_map.state(cell)
                if cell not in ever_observed:
                    assert state == CellState.UNEXPLORED  # leaves only on observation
                else:
                    assert state != CellState.UNEXPLORED  # and never returns
        for cell, old in before.items():
            if old == CellState.WALL:
                assert grid_map.state(cell) == CellState.WALL  # wall permanence
        for cell in occupied:
            if cell not in walls:
                assert grid_map.state(cell) == CellState.OBSTACLE  # occupied wins

    # Exhaustive 25-entry vote table.
    states = list(CellState)
    for weight_fixed, weight_robot in ((2, 1), (1, 2), (3, 3)):
        g = GridMap(5, 5, 1.0)
        local = np.zeros((5, 5), dtype=np.uint8)
        for i, gs in enumerate(states):
            for j, ls in enumerate(states):
                g.cells[i, j] = int(gs)
                local[i, j] = int(ls)
        fusion.merge_robot_map(g, local, weight_fixed, weight_robot)
        for i, gs in enumerate(states):
            for j, ls in enumerate(states):
                if ls == CellState.UNEXPLORED:
                    expected = gs
                elif gs == CellState.WALL:
                    expected = gs
                elif gs == CellState.UNEXPLORED:
                    expected = ls
                elif gs == ls:
                    expected = gs
                else:
                    expected = ls if weight_robot > weight_fixed else gs
                assert g.state(CellIndex(j, i)) == expected, (weight_fixed, weight_robot, gs, ls)
    ok(6, "fuzzed invariants hold over 400 frames; 25-entry vote table reproduced")


# -- 7. protocol --------------------------------------------------------------------


def test_criterion_7_protocol():
    rng = np.random.default_rng(707)
    kinds = list(MessageKind)
    for _ in range(10_000):
        msg = Message(
            kind=kinds[int(rng.integers(len(kinds)))],
            seq=int(rng.integers(0, 2**32)),
            sender_id=int(rng.integers(0, 2**16)),
            payload=bytes(rng.integers(0, 256, size=int(rng.integers(0, 64)), dtype=np.uint8)),
        )
        assert netsim.decode(netsim.encode(msg)) == msg

    hello = Message(kind=MessageKind.HELLO, seq=0, sender_id=1)
    assert netsim.encode(hello) == bytes.fromhex("5542534d010100000000010000000000")
    assert len(netsim.encode(hello)) == 16
    wall_cells = np.array([[CellState.WALL]], dtype=np.uint8)
    assert netsim.encode_map_payload(7, wall_cells).hex() == "070000000100010002"

    # loss = 0: every client converges to the server's broadcast revision.
    source = GridMap(4, 4, 0.5)
    server = MapServer(source)
    net = SimulatedNetwork(NetworkParams(latency_ms=40, jitter_ms=35, loss_probability=0.0, seed=3))
    clients = {cid: ClientState(cid) for cid in (1, 2, 3)}
    for step in range(25):
        source.cells[int(rng.integers(4)), int(rng.integers(4))] = int(rng.integers(5))
        source.revision += 1
        for cid in clients:
            net.send(server.map_update_message(), dest=cid, now=step * 0.05)
    for delivery in net.drain():
        netsim.client_apply(clients[delivery.dest], delivery.message)
    for client in clients.values():
        assert client.revision == source.revision
        assert (client.cells == source.cells).all()

    # lossy + jittery: stale sequence numbers are never applied.
    for seed in (1, 2, 3, 4, 5):
        net = SimulatedNetwork(NetworkParams(latency_ms=60, jitter_ms=55, loss_probability=0.35, seed=seed))
        source = GridMap(3, 3, 1.0)
        server = MapServer(source)
        client = ClientState(1)
        for step in range(60):
            source.revision += 1
            net.send(server.map_update_message(), dest=1, now=step * 0.02)
        for delivery in net.drain():
            last_seq, applied = client.last_applied_seq, client.applied_count
            netsim.client_apply(client, delivery.message)
            if client.applied_count > applied:
                assert client.last_applied_seq == delivery.message.seq > last_seq
            else:
                assert client.last_applied_seq == last_seq
    ok(7, "10k round-trips, golden frames, lossless convergence, no stale applies")


# -- 8. end to end ------------------------------------------------------------------


def test_criterion_8_end_to_end_demo_room():
    scenario = worldmod.parse_scenario(DEMO_ROOM.read_text(encoding="ascii"))
    world = scenario.world
    blind_cell = world.obstacles[1].cell
    covered = set()
    for cam in scenario.cameras:
        covered |= worldmod.covered_cells(cam, world)
    assert blind_cell not in covered, "scenario must keep OB2 in a blind spot"

    # Phase A: onboard sensing disabled, so uploads carry nothing; the
    # fixed cameras alone must leave the blind-spot obstacle unknown.
    parser = cli.build_parser()
    args_no_upload = parser.parse_args(
        ["simulate", str(DEMO_ROOM), "--duration", "2.0", "--sense-radius", "0"]
    )
    _, phase_a_map, _, _ = simulate_in_memory(scenario, args_no_upload)
    assert phase_a_map.state(blind_cell) == CellState.UNEXPLORED

    # Phase B: the real run, timed.
    start = time.perf_counter()
    args = parser.parse_args(["simulate", str(DEMO_ROOM), "--duration", "2.0"])
    summary, server_map, capture, localization = simulate_in_memory(scenario, args)
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0

    assert server_map.state(blind_cell) == CellState.OBSTACLE
    assert any(netsim.decode(frame).kind == MessageKind.SENSOR_UPLOAD for frame in capture)
    assert summary["uploads_merged"] > 0

    assert summary["map_accuracy"] >= 0.99
    finals = {}
    for _, _, rid, err in localization:
        finals[rid] = err
    assert set(finals) == {r.id for r in world.robots}
    assert all(err < world.cell_size for err in finals.values())
    ok(
        8,
        f"{elapsed:.2f}s run: accuracy {summary['map_accuracy']:.3f}, all robots within "
        f"{max(finals.values()):.2e} m, blind-spot obstacle arrives only via upload",
    )


# -- 9. determinism -----------------------------------------------------------------


def test_criterion_9_determinism(tmp_path):
    outputs = {}
    for label in ("first", "second"):
        base = tmp_path / label
        assert (
            cli.main(
                [
                    "simulate", str(DEMO_ROOM),
                    "--duration", "1.0", "--noise-sigma", "0.01",
                    "--loss", "0.15", "--jitter-ms", "25", "--latency-ms", "20",
                    "--seed", "99", "--out", str(base / "sim"),
                ]
            )
            == 0
        )
        assert cli.main(["plan", str(DEMO_ROOM), "--seed", "99", "--heatmap", "--out", str(base / "plan")]) == 0
        assert (
            cli.main(
                ["calibrate", str(DEMO_ROOM), "--noise-sigma", "0.01", "--seed", "99", "--out", str(base / "cal")]
            )
            == 0
        )
        outputs[label] = {
            str(p.relative_to(base)): p.read_bytes() for p in sorted(base.rglob("*")) if p.is_file()
        }
    assert outputs["first"].keys() == outputs["second"].keys()
    for name in outputs["first"]:
        assert outputs["first"][name] == outputs["second"][name], name
    ok(9, f"{len(outputs['first'])} report/image files byte-identical across reruns")
