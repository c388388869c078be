"""Scenario runner: plan, calibrate, simulate, render.

Exit codes: 0 ok, 1 scenario or argument error, 2 constraint violations
under --strict, 3 calibration failure (disconnected camera graph), 4
runtime error. All outputs (CSV reports, portable-pixmap images, hex capture
dumps) are byte-deterministic given the scenario, seed and flags.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import importlib
import math
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import BinaryIO, TextIO

import numpy as np

import ubimap

from . import world as worldmod
from .world import GridWorld, Scenario, ScenarioError, line_of_sight

EXIT_OK = 0
EXIT_PARSE = 1
EXIT_CONSTRAINT = 2
EXIT_CALIBRATION = 3
EXIT_RUNTIME = 4

# Map palette, one row per cell state: unexplored dark gray, explored light
# gray, wall black, obstacles red, robots green.
PALETTE = np.array([(96, 96, 96), (200, 200, 200), (0, 0, 0), (220, 0, 0), (0, 200, 0)], dtype=np.uint8)


def _ppm(image: np.ndarray) -> bytes:
    """Binary portable-pixmap of an (height, width, 3) uint8 image, row 0 first."""
    height, width = image.shape[:2]
    return f"P6\n{width} {height}\n255\n".encode("ascii") + image.tobytes()


def render_map(cells: np.ndarray) -> bytes:
    """Binary portable-pixmap of a (height, width) array of cell states,
    row 0 first, 3 bytes per cell."""
    return _ppm(PALETTE[cells])


@dataclass
class RunReport:
    """Everything a simulation run reports; fractions live in [0, 1] and
    every error is non-negative."""

    map_accuracy: float = 1.0
    coverage_ratio: float = 0.0
    calibration_errors: dict[int, tuple[float, float]] = field(default_factory=dict)
    cost_initial: float = 0.0
    cost_final: float = 0.0
    messages_sent: int = 0
    messages_delivered: int = 0
    messages_dropped: int = 0
    stale_updates: int = 0
    uploads_merged: int = 0
    client_revisions: dict[int, int] = field(default_factory=dict)
    server_revision: int = 0

    def validate(self) -> None:
        if not 0.0 <= self.map_accuracy <= 1.0:
            raise ValueError("map_accuracy must be in [0, 1]")
        if not 0.0 <= self.coverage_ratio <= 1.0:
            raise ValueError("coverage_ratio must be in [0, 1]")
        for rot, tra in self.calibration_errors.values():
            if rot < 0 or tra < 0:
                raise ValueError("calibration errors must be >= 0")


def _open_csv(path: Path) -> TextIO:
    return open(path, "w", encoding="ascii", newline="")


def _write_csv(path: Path, header: list[str], rows) -> None:
    """Writes the header, then the rows as they come."""
    with _open_csv(path) as out:
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _truth_cells(world: GridWorld) -> np.ndarray:
    """Ground-truth (height, width) cell states: a wall beats an obstacle,
    which beats a robot; every other cell is explored."""
    cells = np.full((world.height, world.width), worldmod.CellState.EXPLORED, dtype=np.uint8)
    for robot in world.robots:
        cell = world.cell_of(robot.x, robot.y)
        cells[cell.row, cell.col] = worldmod.CellState.ROBOT
    for ob in world.obstacles:
        cells[ob.cell.row, ob.cell.col] = worldmod.CellState.OBSTACLE
    cells[world.wall_mask] = worldmod.CellState.WALL
    return cells


# -- calibration pipeline ------------------------------------------------------


@dataclass
class CalibrationResult:
    reference: int
    graph: ubimap.calib.TransformGraph
    initial: dict[int, ubimap.geom.RigidTransform]
    refined: dict[int, ubimap.geom.RigidTransform]
    cost_trace: list[float]
    true_poses: ubimap.geom.RigidTransform  # one stack, in graph.nodes order

    def _refined_stack(self) -> ubimap.geom.RigidTransform:
        return ubimap.geom.RigidTransform(*ubimap.calib.stack_poses(self.graph, self.refined))

    def pose_errors(self) -> tuple[list[float], list[float]]:
        """Each camera's refined pose against the truth, cameras in
        ``graph.nodes`` order: the rotation angles and the translation
        distances."""
        refined = self._refined_stack()
        distances = [math.dist(p, q) for p, q in zip(refined.translation.tolist(), self.true_poses.translation.tolist())]
        return ubimap.geom.rotation_distance(refined, self.true_poses), distances

    def estimated_world_poses(
        self, reference_world_pose: ubimap.geom.RigidTransform
    ) -> dict[int, ubimap.geom.RigidTransform]:
        """Anchor the calibrated rig to the world through the surveyed
        reference camera, in ``refined``'s order."""
        world = ubimap.geom.compose(reference_world_pose, self._refined_stack())
        by_camera = dict(zip(self.graph.nodes, ubimap.geom.unstack(world)))
        return {cam_id: by_camera[cam_id] for cam_id in self.refined}


def _shared_landmark_pairs(camera_ids: list[int], seen: np.ndarray, points: np.ndarray) -> ubimap.calib.Correspondences:
    """The camera pairs, in camera order, that see at least 3 landmarks in
    common, with each pair's shared observations in landmark id order, from
    ``observe_landmarks``' seen mask and points for cameras ``camera_ids``.
    The shared landmarks come from ANDed bit-packed mask rows, and each
    observation's row in ``points`` from a search among the mask's flat
    indices: the int64 copy that counts the pairs is the only (cameras x
    landmarks) integer temporary, and it is freed first."""
    seen_counts = seen.astype(np.int64)
    a, b = np.nonzero(np.triu(seen_counts @ seen_counts.T, 1) >= 3)
    del seen_counts
    packed = np.packbits(seen, axis=1)
    pair, landmark = np.nonzero(np.unpackbits(packed[a] & packed[b], axis=1, count=seen.shape[1]))
    observed = np.flatnonzero(seen)  # points' rows, as flat (camera, landmark) indices
    ids = np.array(camera_ids, dtype=np.uint64)
    return ubimap.calib.Correspondences(
        np.stack([ids[a], ids[b]], axis=1),
        np.bincount(pair, minlength=len(a)),
        points[np.searchsorted(observed, a[pair] * seen.shape[1] + landmark)],
        points[np.searchsorted(observed, b[pair] * seen.shape[1] + landmark)],
    )


def calibrate_scenario(scenario: Scenario, sigma: float, seed: int) -> CalibrationResult:
    """Full calibration: simulated landmark captures, pairwise ICP edges,
    propagation from the lowest camera id, then global refinement."""
    cams = sorted(scenario.cameras, key=lambda c: c.id)
    if not cams:
        raise ValueError("scenario has no cameras to calibrate")
    reference = cams[0].id
    # From observe_landmarks' (ids, seen, points) only the pair table outlives this statement.
    pairs = _shared_landmark_pairs(
        [c.id for c in cams], *ubimap.sensim.observe_landmarks(cams, scenario.world, sigma, seed)[1:]
    )
    graph = ubimap.calib.build_graph(pairs, reference, nodes=tuple(c.id for c in cams))
    initial = ubimap.calib.propagate(graph)  # raises DisconnectedGraphError
    refined, trace = ubimap.calib.refine(graph, initial)

    world_poses = ubimap.sensim.camera_world_poses(cams)  # graph.nodes order, the reference first
    ref_inverse = ubimap.geom.invert(ubimap.geom.RigidTransform(world_poses.rotation[0], world_poses.translation[0]))
    return CalibrationResult(
        reference=reference,
        graph=graph,
        initial=initial,
        refined=refined,
        cost_trace=trace,
        true_poses=ubimap.geom.compose(ref_inverse, world_poses),
    )


# -- subcommands -----------------------------------------------------------------


def _load_scenario(path: str) -> Scenario:
    return worldmod.parse_scenario(Path(path).read_text(encoding="ascii"))


def cmd_plan(scenario: Scenario, args) -> int:
    # The default --max-overlap is the camera count, known only now; an
    # explicit one was range-checked with the other flags.
    max_overlap = args.max_overlap if args.max_overlap is not None else len(scenario.cameras)
    if max_overlap < max(args.min_overlap, 1):
        print(
            f"argument error: --min-overlap {args.min_overlap} exceeds the default --max-overlap, "
            f"the camera count {max_overlap}",
            file=sys.stderr,
        )
        return EXIT_PARSE

    problem = ubimap.coverage.CoverageProblem(
        world=scenario.world,
        candidates=scenario.cameras,
        min_overlap=args.min_overlap,
        max_overlap=max_overlap,
        budget=args.budget if args.budget is not None else len(scenario.cameras),
    )
    try:
        plan = ubimap.coverage.plan_exhaustive(problem) if args.exact else ubimap.coverage.plan_greedy(problem)
    except ubimap.coverage.ProblemTooLargeError as exc:  # --exact on more candidates than it enumerates
        print(f"argument error: {exc}", file=sys.stderr)
        return EXIT_PARSE

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    histogram = np.bincount(plan.counts[problem.target_mask()])
    rows = [
        ["selected", " ".join(str(i) for i in plan.selected)],
        ["cameras_selected", len(plan.selected)],
        ["coverage_ratio", repr(plan.coverage_ratio)],
        ["objective", ubimap.coverage.objective(plan, problem)],
        ["violations", len(plan.violations)],
    ]
    rows += [[f"multiplicity_{count}", cells] for count, cells in enumerate(histogram.tolist()) if cells]
    _write_csv(out_dir / "plan.csv", ["key", "value"], rows)
    _write_csv(
        out_dir / "plan_violations.csv",
        ["col", "row", "multiplicity"],
        [[cell.col, cell.row, count] for cell, count in plan.violations],
    )
    if args.heatmap:
        (out_dir / "plan_coverage.ppm").write_bytes(_coverage_heatmap(problem, plan))
    print(f"selected {len(plan.selected)} cameras, coverage {plan.coverage_ratio:.4f}, {len(plan.violations)} violations")
    if args.strict and plan.violations:
        return EXIT_CONSTRAINT
    return EXIT_OK


def _coverage_heatmap(problem: ubimap.coverage.CoverageProblem, plan: ubimap.coverage.PlacementPlan) -> bytes:
    """Cells shaded by coverage multiplicity relative to the most covered one; walls black."""
    world = problem.world
    level = (255 * plan.counts // max(1, plan.counts.max())).astype(np.uint8)
    image = np.stack([level, level, np.full_like(level, 64)], axis=-1)
    image[world.wall_mask] = 0
    return _ppm(image)


def cmd_calibrate(scenario: Scenario, args) -> int:
    """Streams calibration.csv row by row from the loop and pose errors,
    computed before the file or --out is made: a failed calibration leaves
    neither."""
    seed = args.seed if args.seed is not None else scenario.params.seed
    sigma = args.noise_sigma if args.noise_sigma is not None else scenario.params.noise_sigma
    result = calibrate_scenario(scenario, sigma, seed)
    graph = result.graph
    loop_initial, loop_refined = (
        ubimap.calib.loop_closure_error(graph, *ubimap.calib.stack_poses(graph, poses)).tolist()
        for poses in (result.initial, result.refined)
    )
    rotation_errors, translation_errors = result.pose_errors()
    pairs = graph.correspondences.cameras.tolist()
    by_pair = sorted(range(len(pairs)), key=pairs.__getitem__)  # the loop errors' row order

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    with _open_csv(out_dir / "calibration.csv") as report:
        rows = csv.writer(report, lineterminator="\n")
        rows.writerow(["record", "key", "value"])
        rows.writerow(["cost_initial", "", repr(result.cost_trace[0])])
        rows.writerow(["cost_final", "", repr(result.cost_trace[-1])])
        rows.writerows(["edge_residual", f"{i}-{j}", repr(err)] for (i, j), err in zip(pairs, graph.residuals.tolist()))
        for record, errors in (("loop_error_initial", loop_initial), ("loop_error_refined", loop_refined)):
            rows.writerows([record, f"{pairs[k][0]}-{pairs[k][1]}", repr(errors[k])] for k in by_pair)
        for cam_id, rot_err, tra_err in zip(graph.nodes, rotation_errors, translation_errors):
            rows.writerow(["pose_rotation_error_rad", str(cam_id), repr(rot_err)])
            rows.writerow(["pose_translation_error_m", str(cam_id), repr(tra_err)])
        rows.writerows(["edge_failure", f"{i}-{j}", reason] for i, j, reason in graph.failures)
    worst = max(rotation_errors, default=0.0)
    print(
        f"calibrated {len(result.refined)} cameras, cost {result.cost_trace[0]:.3e} -> "
        f"{result.cost_trace[-1]:.3e}, worst rotation error {worst:.3e} rad"
    )
    return EXIT_OK


def _robot_local_map(world: GridWorld, robot, sense_radius: float) -> np.ndarray:
    """What the robot's own onboard sensing contributes, as (height, width)
    cell states: every cell within sensing range and line of sight, labeled
    from ground truth (other robots read as obstacles to an onboard
    detector); every other cell is unexplored."""
    fragment = np.zeros((world.height, world.width), dtype=np.uint8)
    if sense_radius <= 0:
        return fragment
    own = world.cell_of(robot.x, robot.y)
    xs, ys = (centers.ravel() for centers in world.cell_centers)
    in_range = np.flatnonzero(
        [not math.dist(center, (robot.x, robot.y)) > sense_radius for center in zip(xs.tolist(), ys.tolist())]
    )
    seen = in_range[line_of_sight(world, (robot.x, robot.y), np.column_stack([xs[in_range], ys[in_range]]))]
    labels = _truth_cells(world)
    labels[labels == worldmod.CellState.ROBOT] = worldmod.CellState.OBSTACLE
    fragment.flat[seen] = labels.flat[seen]
    fragment[own.row, own.col] = worldmod.CellState.EXPLORED
    return fragment


def cmd_simulate(scenario: Scenario, args) -> int:
    """Streams capture.hex, localization.csv and, with --dump-observations,
    observations.csv while the run goes on, then writes final_map.ppm and
    summary.csv. A run that raises leaves none of them, nor a directory it made."""
    out_dir = Path(args.out)
    made = [d for d in (out_dir, *out_dir.parents) if not d.exists()]  # deepest first
    out_dir.mkdir(parents=True, exist_ok=True)
    written = ["capture.hex", "localization.csv", "final_map.ppm", "summary.csv"]
    if args.dump_observations:
        written.append("observations.csv")
    try:
        with (
            open(out_dir / "capture.hex", "wb") as capture,
            _open_csv(out_dir / "localization.csv") as localization,
            _open_csv(out_dir / "observations.csv") if args.dump_observations else contextlib.nullcontext() as observations,
        ):
            outputs = run_simulation(scenario, args, capture, localization, observations)
        (out_dir / "final_map.ppm").write_bytes(render_map(outputs.server_map.cells))
        report = outputs.report
        rows = [
            ["coverage_ratio", repr(report.coverage_ratio)],
            ["map_accuracy", repr(report.map_accuracy)],
            ["cost_initial", repr(report.cost_initial)],
            ["cost_final", repr(report.cost_final)],
            ["messages_sent", report.messages_sent],
            ["messages_delivered", report.messages_delivered],
            ["messages_dropped", report.messages_dropped],
            ["stale_updates", report.stale_updates],
            ["uploads_merged", report.uploads_merged],
            ["server_revision", report.server_revision],
        ]
        for cam_id, (rot_err, tra_err) in sorted(report.calibration_errors.items()):
            rows.append([f"calibration_rotation_error_{cam_id}", repr(rot_err)])
            rows.append([f"calibration_translation_error_{cam_id}", repr(tra_err)])
        for robot_id, revision in sorted(report.client_revisions.items()):
            rows.append([f"client_revision_{robot_id}", revision])
        _write_csv(out_dir / "summary.csv", ["key", "value"], rows)
    except BaseException:  # an interrupted run leaves no partial files either
        for name in written:
            (out_dir / name).unlink(missing_ok=True)
        for directory in made:
            directory.rmdir()
        raise
    print(
        f"simulated {args.duration}s: map accuracy {report.map_accuracy:.4f}, "
        f"{report.messages_sent} msgs sent, server revision {report.server_revision}"
    )
    return EXIT_OK


@dataclass
class SimulationOutputs:
    report: RunReport
    server_map: ubimap.fusion.GridMap


def run_simulation(
    scenario: Scenario, args, capture: BinaryIO, localization: TextIO, observations: TextIO | None = None
) -> SimulationOutputs:
    """Run the pipeline, streaming as it goes: one hex line per frame sent
    to `capture`, localization.csv (each localized robot's error on each
    tick) to `localization` and, when given, observations.csv (every
    obstacle cell and tag each camera sees on each tick) to `observations`.
    Nothing of these is kept, so memory does not grow with the run."""
    world = scenario.world
    params = scenario.params
    seed = args.seed if args.seed is not None else params.seed
    sigma = args.noise_sigma if args.noise_sigma is not None else params.noise_sigma
    loss = args.loss if args.loss is not None else params.net_loss
    latency_ms = args.latency_ms if args.latency_ms is not None else params.net_latency_ms

    cameras = sorted(scenario.cameras, key=lambda c: c.id)
    if args.plan_budget is not None:
        problem = ubimap.coverage.CoverageProblem(
            world=world, candidates=tuple(cameras), budget=args.plan_budget,
            max_overlap=len(cameras),
        )
        selected = set(ubimap.coverage.plan_greedy(problem).selected)
        cameras = [cam for cam in cameras if cam.id in selected]

    calibration = calibrate_scenario(Scenario(world, tuple(cameras), params), sigma, seed)
    reference_cam = next(cam for cam in cameras if cam.id == calibration.reference)
    camera_poses = calibration.estimated_world_poses(ubimap.sensim.camera_world_pose(reference_cam))

    footprints = worldmod.covered_cells(cameras, world)
    covered = footprints.any(axis=0)
    free_count = int((~world.wall_mask).sum())
    coverage_ratio = int((covered & ~world.wall_mask).sum()) / free_count if free_count else 1.0

    server_map = ubimap.fusion.GridMap(
        world.width,
        world.height,
        world.cell_size,
        known_walls=world.walls,
        tag_registry={r.tag: r.id for r in world.robots},
    )
    # Address 0 is the map server; robots are addressed by their own id.
    if any(not 1 <= r.id < 2**16 for r in world.robots):
        raise ValueError("robot ids must be in 1..65535 to address them on the network")
    server = ubimap.netsim.MapServer(server_map, sender_id=0)
    net = ubimap.netsim.SimulatedNetwork(
        ubimap.netsim.NetworkParams(latency_ms=latency_ms, jitter_ms=args.jitter_ms, loss_probability=loss, seed=seed)
    )
    clients = {r.id: ubimap.netsim.ClientState(r.id) for r in world.robots}
    robots = sorted(world.robots, key=lambda r: r.id)

    beliefs: dict[int, ubimap.fusion.GaussianBelief] = {}
    mm = ubimap.fusion.odometry_motion_model(np.diag([1e-8, 1e-8, 1e-8]))
    meas_var = max(sigma, 1e-4) ** 2
    om = ubimap.fusion.position_observation_model(np.diag([meas_var, meas_var]))

    upload_seqs = {r.id: 0 for r in robots}
    local_maps: dict[int, np.ndarray] = {}  # robots and walls never move: one onboard map per robot
    localization_rows = csv.writer(localization, lineterminator="\n")
    localization_rows.writerow(["tick", "t", "robot_id", "error_m"])
    observation_rows = None
    if observations is not None:
        observation_rows = csv.writer(observations, lineterminator="\n")
        observation_rows.writerow(["tick", "t", "kind", "camera_id", "a", "b", "c"])
    report = RunReport(
        coverage_ratio=coverage_ratio,
        calibration_errors=dict(zip(calibration.graph.nodes, zip(*calibration.pose_errors()))),
        cost_initial=calibration.cost_trace[0],
        cost_final=calibration.cost_trace[-1],
    )

    def send(msg: ubimap.netsim.Message, dest: int, now: float) -> None:
        capture.write(f"{ubimap.netsim.encode(msg).hex()}\n".encode("ascii"))
        net.send(msg, dest, now)

    def handle_deliveries(deliveries) -> None:
        for delivery in deliveries:
            msg = delivery.message
            if delivery.dest == 0:
                ack = server.ingest(msg)
                if ack is not None:
                    send(ack, msg.sender_id, delivery.time)
            else:
                ubimap.netsim.client_apply(clients[delivery.dest], msg)

    dt = args.dt
    ticks = int(round(args.duration / dt))
    broadcast_every = max(1, int(round(args.broadcast_ms / 1000.0 / dt)))
    upload_every = max(1, int(round(args.upload_ms / 1000.0 / dt)))

    for tick in range(ticks):
        t = tick * dt
        evidence = ubimap.sensim.observe_obstacles(cameras, world, t, footprints)
        tags = ubimap.sensim.observe_tags(cameras, world, sigma, seed, t, footprints)
        if observation_rows is not None:
            for ev in evidence:
                cols, rows = np.nonzero(ev.observed.T)  # column-major, as sorted CellIndex tuples
                observation_rows.writerows(
                    [tick, repr(t), "obstacle", ev.camera_id, col, row, int(ev.occupied[row, col])]
                    for col, row in zip(cols.tolist(), rows.tolist())
                )
            observation_rows.writerows(
                [tick, repr(t), "tag", det.camera_id, repr(det.ground_position[0]), repr(det.ground_position[1]), det.tag_id]
                for det in tags
            )

        detections_by_robot: dict[int, list] = {}
        tag_registry = server_map.tag_registry
        for det in sorted(tags, key=lambda d: (d.tag_id, d.camera_id)):
            detections_by_robot.setdefault(tag_registry.get(det.tag_id, det.tag_id), []).append(det)
        for robot in robots:
            if robot.id in beliefs:
                beliefs[robot.id] = ubimap.fusion.ekf_predict(beliefs[robot.id], np.zeros(3), mm)
            for det in detections_by_robot.get(robot.id, []):
                z = np.array(ubimap.fusion.tag_world_position(det, camera_poses[det.camera_id]))
                if robot.id not in beliefs:
                    beliefs[robot.id] = ubimap.fusion.GaussianBelief(
                        np.array([z[0], z[1], 0.0]), np.diag([0.25, 0.25, 1.0])
                    )
                beliefs[robot.id] = ubimap.fusion.ekf_update(beliefs[robot.id], z, om)
            if robot.id in beliefs:
                err = math.dist(beliefs[robot.id].mean[:2].tolist(), (robot.x, robot.y))
                localization_rows.writerow([tick, repr(t), robot.id, repr(err)])

        ubimap.fusion.fuse_frame(server_map, evidence, tags, camera_poses, t)

        if tick % broadcast_every == 0:
            for robot in robots:
                send(server.map_update_message(), robot.id, t)
                if robot.id in beliefs:
                    mean = beliefs[robot.id].mean
                    send(server.pose_message(robot.id, float(mean[0]), float(mean[1]), float(mean[2])), robot.id, t)

        if tick % upload_every == 0:
            for robot in robots:
                if robot.id not in local_maps:
                    local_maps[robot.id] = _robot_local_map(world, robot, args.sense_radius)
                msg = ubimap.netsim.Message(
                    kind=ubimap.netsim.MessageKind.SENSOR_UPLOAD,
                    seq=upload_seqs[robot.id],
                    sender_id=robot.id,
                    payload=ubimap.netsim.encode_map_payload(upload_seqs[robot.id] + 1, local_maps[robot.id]),
                )
                upload_seqs[robot.id] += 1
                send(msg, 0, t)

        handle_deliveries(net.deliver_due(t))

    # Quiescence: let in-flight traffic (and the ACKs it spawns) land.
    while net.pending():
        handle_deliveries(net.drain())

    matches = int((covered & (server_map.cells == _truth_cells(world))).sum())
    report.map_accuracy = matches / int(covered.sum()) if covered.any() else 1.0
    report.messages_sent = net.sent
    report.messages_delivered = net.delivered
    report.messages_dropped = net.dropped
    report.stale_updates = sum(c.stale_count for c in clients.values())
    report.uploads_merged = server.uploads_merged
    report.server_revision = server_map.revision
    report.client_revisions = {rid: c.revision for rid, c in clients.items()}
    report.validate()
    return SimulationOutputs(report=report, server_map=server_map)


def cmd_render(scenario: Scenario, args) -> int:
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "map.ppm").write_bytes(render_map(_truth_cells(scenario.world)))
    print(f"wrote {out_dir / 'map.ppm'}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="ubimap", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("scenario", help="scenario document path")
        p.add_argument("--seed", type=int, default=None, help="override the scenario seed")
        p.add_argument("--out", default="ubimap_out", help="output directory")

    plan = sub.add_parser("plan", help="select camera placements")
    common(plan)
    plan.add_argument("--budget", type=int, default=None)
    plan.add_argument("--min-overlap", type=int, default=0)
    plan.add_argument("--max-overlap", type=int, default=None)
    plan.add_argument("--exact", action="store_true", help="exhaustive optimal search")
    plan.add_argument("--strict", action="store_true", help="exit 2 on overlap violations")
    plan.add_argument("--heatmap", action="store_true", help="write a coverage heatmap image")

    calibrate = sub.add_parser("calibrate", help="estimate camera extrinsics")
    common(calibrate)
    calibrate.add_argument("--noise-sigma", type=float, default=None)

    simulate = sub.add_parser("simulate", help="run the full pipeline")
    common(simulate)
    simulate.add_argument("--duration", type=float, default=2.0, help="simulated seconds")
    simulate.add_argument("--dt", type=float, default=0.1, help="tick length in seconds")
    simulate.add_argument("--noise-sigma", type=float, default=None)
    simulate.add_argument("--loss", type=float, default=None, help="override packet loss probability")
    simulate.add_argument("--latency-ms", type=float, default=None)
    simulate.add_argument("--jitter-ms", type=float, default=0.0)
    simulate.add_argument("--broadcast-ms", type=float, default=100.0)
    simulate.add_argument("--upload-ms", type=float, default=500.0)
    simulate.add_argument(
        "--sense-radius", type=float, default=2.0,
        help="robot onboard sensing range in meters; inf senses every cell in line of sight, <= 0 none",
    )
    simulate.add_argument("--plan-budget", type=int, default=None, help="greedy-plan cameras before running")
    simulate.add_argument("--dump-observations", action="store_true", help="write raw observation streams as CSV")

    render = sub.add_parser("render", help="render the scenario ground truth")
    common(render)

    return parser


def _numeric_flag_error(args) -> str | None:
    """The first numeric flag outside its valid range, described; None if
    every flag the subcommand has is in range."""
    if args.seed is not None and not 0 <= args.seed <= worldmod.MAX_WORD:
        return f"--seed must be in 0..2**64 - 1, got {args.seed}"
    dt = getattr(args, "dt", 1.0)
    if not (math.isfinite(dt) and dt > 0):
        return f"--dt must be finite and > 0, got {dt}"
    for flag in ("duration", "broadcast_ms", "upload_ms", "latency_ms", "jitter_ms", "noise_sigma"):
        value = getattr(args, flag, None)
        if value is not None and not (math.isfinite(value) and value >= 0):
            return f"--{flag.replace('_', '-')} must be finite and >= 0, got {value}"
    # The tick counts `run_simulation` derives must be finite too.
    for flag, seconds in (("duration", 1.0), ("broadcast_ms", 1000.0), ("upload_ms", 1000.0)):
        if hasattr(args, flag) and not math.isfinite(getattr(args, flag) / seconds / dt):
            return f"--dt must be large enough that --{flag.replace('_', '-')} spans finitely many ticks, got {dt}"
    if math.isnan(getattr(args, "sense_radius", 0.0)):
        return "--sense-radius must not be NaN"
    loss = getattr(args, "loss", None)
    if loss is not None and not 0.0 <= loss <= 1.0:
        return f"--loss must be in [0, 1], got {loss}"
    for flag in ("budget", "plan_budget"):
        value = getattr(args, flag, None)
        if value is not None and value < 1:
            return f"--{flag.replace('_', '-')} must be >= 1, got {value}"
    min_overlap = getattr(args, "min_overlap", 0)
    if min_overlap < 0:
        return f"--min-overlap must be >= 0, got {min_overlap}"
    max_overlap = getattr(args, "max_overlap", None)
    if max_overlap is not None and max_overlap < max(min_overlap, 1):
        return f"--max-overlap must be >= max(--min-overlap, 1), got {max_overlap}"
    return None


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    error = _numeric_flag_error(args)
    if error is not None:
        print(f"argument error: {error}", file=sys.stderr)
        return EXIT_PARSE
    # Each subcommand's handler and the only layers it loads besides world, before the
    # scenario is read. Of the simulate orders measured, this one raised peak RSS least.
    handler, layers = {
        "plan": (cmd_plan, ("coverage",)),
        "calibrate": (cmd_calibrate, ("calib", "sensim")),
        "simulate": (cmd_simulate, ("sensim", "fusion", "calib", "coverage", "netsim")),
        "render": (cmd_render, ()),
    }[args.command]
    for layer in layers:
        importlib.import_module(f"{__package__}.{layer}")
    # An unreadable or malformed scenario, or one without the cameras a
    # subcommand needs, exits 1, a disconnected camera graph 3, and anything
    # else the loader or a subcommand raises 4.
    try:
        try:
            scenario = _load_scenario(args.scenario)
        except (OSError, UnicodeDecodeError, ScenarioError) as exc:
            print(f"scenario error: {exc}", file=sys.stderr)
            return EXIT_PARSE
        if not scenario.cameras and args.command != "render":
            print(f"scenario error: {args.command} needs at least one camera", file=sys.stderr)
            return EXIT_PARSE
        return handler(scenario, args)
    except Exception as exc:  # noqa: BLE001 - the CLI boundary maps to exit codes
        if isinstance(exc, ubimap.calib.DisconnectedGraphError):  # loads calib on a failure only
            print(f"calibration failed: {exc}", file=sys.stderr)
            return EXIT_CALIBRATION
        print(f"runtime error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
