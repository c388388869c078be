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
import math
import sys
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


def _open_csv(path: Path) -> TextIO:
    return open(path, "w", encoding="ascii", newline="")


def _write_csv(path: Path, header: list[str], rows) -> None:
    """Writes the header, then the rows as they come."""
    with _open_csv(path) as out:
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


# -- subcommands -----------------------------------------------------------------


def _load_scenario(path: str) -> Scenario:
    return worldmod.parse_scenario(Path(path).read_text(encoding="ascii"))


def with_scenario_defaults(args: argparse.Namespace, scenario: Scenario) -> argparse.Namespace:
    """The arguments with each of --seed, --noise-sigma, --loss and
    --latency-ms that the subcommand has but was not given set to the
    scenario's sim parameter."""
    params = {"seed": "seed", "noise_sigma": "noise_sigma", "loss": "net_loss", "latency_ms": "net_latency_ms"}
    unset = {flag: getattr(scenario.params, name) for flag, name in params.items() if getattr(args, flag, 0) is None}
    return argparse.Namespace(**{**vars(args), **unset})


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
    # Multiplicities over the free cells: those of every cell less those of the walls, with no copy of the counts.
    every = np.bincount(plan.counts.ravel())
    histogram = every - np.bincount(plan.counts[scenario.world.walls], minlength=len(every))
    violations = int(np.count_nonzero(plan.violated))
    rows = [
        ["selected", " ".join(str(i) for i in plan.selected)],
        ["cameras_selected", len(plan.selected)],
        ["coverage_ratio", repr(plan.coverage_ratio)],
        ["objective", ubimap.coverage.objective(plan, problem)],
        ["violations", violations],
    ]
    rows += [[f"multiplicity_{count}", cells] for count, cells in enumerate(histogram.tolist()) if cells]
    _write_csv(out_dir / "plan.csv", ["key", "value"], rows)
    _write_csv(out_dir / "plan_violations.csv", ["col", "row", "multiplicity"], _violation_rows(plan))
    if args.heatmap:
        (out_dir / "plan_coverage.ppm").write_bytes(ubimap.pipeline.coverage_heatmap(problem, plan))
    print(f"selected {len(plan.selected)} cameras, coverage {plan.coverage_ratio:.4f}, {violations} violations")
    if args.strict and violations:
        return EXIT_CONSTRAINT
    return EXIT_OK


def _violation_rows(plan: ubimap.coverage.PlacementPlan):
    """(col, row, count) of each violated cell in (col, row) order, read
    from the violated mask in blocks of whole columns, about 65,536 cells each."""
    height, width = plan.violated.shape
    step = max(1, 2**16 // height)
    for start in range(0, width, step):
        cols, rows = np.nonzero(plan.violated[:, start : start + step].T)
        cols += start
        yield from zip(cols.tolist(), rows.tolist(), plan.counts[rows, cols].tolist())


def cmd_calibrate(scenario: Scenario, args) -> int:
    """Streams calibration.csv row by row from the loop and pose errors,
    computed before the file or --out is made: a failed calibration leaves
    neither."""
    result = ubimap.pipeline.calibrate_scenario(scenario, args.noise_sigma, args.seed)
    graph = result.graph
    loop_initial, loop_refined = result.loop_errors()
    rotation_errors, translation_errors = result.pose_errors()
    pairs = graph.cameras.tolist()  # in camera order (``pipeline._shared_landmark_pairs``)

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    with _open_csv(out_dir / "calibration.csv") as report:
        rows = csv.writer(report, lineterminator="\n")
        rows.writerow(["record", "key", "value"])
        rows.writerow(["cost_initial", "", repr(result.cost_trace[0])])
        rows.writerow(["cost_final", "", repr(result.cost_trace[-1])])
        rows.writerows(["edge_residual", f"{i}-{j}", repr(err)] for (i, j), err in zip(pairs, graph.residuals.tolist()))
        for record, errors in (("loop_error_initial", loop_initial), ("loop_error_refined", loop_refined)):
            rows.writerows([record, f"{i}-{j}", repr(err)] for (i, j), err in zip(pairs, errors))
        for cam_id, rot_err, tra_err in zip(graph.nodes, rotation_errors, translation_errors):
            rows.writerow(["pose_rotation_error_rad", str(cam_id), repr(rot_err)])
            rows.writerow(["pose_translation_error_m", str(cam_id), repr(tra_err)])
        rows.writerows(["edge_failure", f"{i}-{j}", reason] for i, j, reason in graph.failures)
    worst = max(rotation_errors, default=0.0)
    print(
        f"calibrated {len(graph.nodes)} cameras, cost {result.cost_trace[0]:.3e} -> "
        f"{result.cost_trace[-1]:.3e}, worst rotation error {worst:.3e} rad"
    )
    return EXIT_OK


def _robot_local_map(world: GridWorld, robot, sense_radius: float) -> np.ndarray:
    """What the robot's own onboard sensing contributes, as (height, width)
    cell states: every cell within sensing range and line of sight, labeled
    from ``world.cell_states`` (other robots read as obstacles to an onboard
    detector); every other cell is unexplored. Range is tested only over
    the box of cells within ``sense_radius``, the whole grid for an
    infinite radius."""
    fragment = np.zeros((world.height, world.width), dtype=np.uint8)
    if sense_radius <= 0:
        return fragment
    own, at = world.cell_of(robot.x, robot.y), (robot.x, robot.y)
    (cols, xs), (rows, ys) = (world.centre_span(v - sense_radius, v + sense_radius, axis) for axis, v in enumerate(at))
    near = [not math.dist((x, y), at) > sense_radius for y in ys.tolist() for x in xs.tolist()]
    r, c = np.nonzero(np.reshape(near, (len(ys), len(xs))))
    seen = ((r + rows.start) * world.width + c + cols.start)[line_of_sight(world, at, np.column_stack([xs[c], ys[r]]))]
    labels = world.cell_states.flat[seen]
    labels[labels == worldmod.CellState.ROBOT] = worldmod.CellState.OBSTACLE
    fragment.flat[seen] = labels
    fragment[own.row, own.col] = worldmod.CellState.EXPLORED
    return fragment


def cmd_simulate(scenario: Scenario, args) -> int:
    """Streams capture.hex, localization.csv and, with --dump-observations,
    observations.csv while the run goes on, then writes final_map.ppm and
    summary.csv, one ``key,repr(value)`` row per summary entry. A run that
    raises leaves none of them, nor a directory it made."""
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
            summary, server_map = run_simulation(scenario, args, capture, localization, observations)
        (out_dir / "final_map.ppm").write_bytes(ubimap.pipeline.render_map(server_map.cells))
        _write_csv(out_dir / "summary.csv", ["key", "value"], ([key, repr(value)] for key, value in summary.items()))
    except BaseException:  # an interrupted run leaves no partial files either
        for name in written:
            (out_dir / name).unlink(missing_ok=True)
        for directory in made:
            directory.rmdir()
        raise
    print(
        f"simulated {args.duration}s: map accuracy {summary['map_accuracy']:.4f}, "
        f"{summary['messages_sent']} msgs sent, server revision {summary['server_revision']}"
    )
    return EXIT_OK


def run_simulation(
    scenario: Scenario, args, capture: BinaryIO, localization: TextIO, observations: TextIO | None = None
) -> tuple[dict[str, float | int], ubimap.fusion.GridMap]:
    """Run the pipeline, streaming as it goes: one hex line per frame sent
    to `capture`, localization.csv (each localized robot's error on each
    tick) to `localization` and, when given, observations.csv (every
    obstacle cell and tag each camera sees on each tick) to `observations`.
    Nothing of these is kept, so memory does not grow with the run.

    ``args`` holds the flags with the scenario's defaults in place
    (``with_scenario_defaults``). Returns the summary, a dict from each
    summary.csv key to its value in file order, and the server's fused map."""
    world, seed, sigma = scenario.world, args.seed, args.noise_sigma
    cameras = sorted(scenario.cameras, key=lambda c: c.id)
    if args.plan_budget is not None:
        problem = ubimap.coverage.CoverageProblem(
            world=world, candidates=tuple(cameras), budget=args.plan_budget, max_overlap=len(cameras)
        )
        selected = set(ubimap.coverage.plan_greedy(problem).selected)
        cameras = [cam for cam in cameras if cam.id in selected]

    calibration = ubimap.pipeline.calibrate_scenario(Scenario(world, tuple(cameras), scenario.params), sigma, seed)
    # The rig anchored to the world through its surveyed reference camera, the lowest id.
    anchored = ubimap.geom.compose(ubimap.sensim.camera_world_pose(cameras[0]), calibration.refined)
    camera_poses = dict(zip(calibration.graph.nodes, ubimap.geom.unstack(anchored)))

    footprints = worldmod.covered_cells(cameras, world)
    covered = footprints.any(axis=0)
    free_count = int((~world.walls).sum())
    coverage_ratio = int((covered & ~world.walls).sum()) / free_count if free_count else 1.0

    server_map = ubimap.fusion.GridMap(
        world.width, world.height, world.cell_size, walls=world.walls, tag_registry={r.tag: r.id for r in world.robots}
    )
    # Robots are addressed by their own id, the map server by SERVER_ID.
    if any(not 1 <= r.id < 2**16 for r in world.robots):
        raise ValueError("robot ids must be in 1..65535 to address them on the network")
    server = ubimap.netsim.MapServer(server_map)
    net = ubimap.netsim.SimulatedNetwork(
        ubimap.netsim.NetworkParams(latency_ms=args.latency_ms, jitter_ms=args.jitter_ms, loss_probability=args.loss, seed=seed)
    )
    clients = {r.id: ubimap.netsim.ClientState(r.id) for r in world.robots}
    robots = sorted(world.robots, key=lambda r: r.id)

    beliefs: dict[int, ubimap.fusion.GaussianBelief] = {}
    mm = ubimap.fusion.odometry_motion_model(np.diag([1e-8, 1e-8, 1e-8]))
    meas_var = max(sigma, 1e-4) ** 2
    om = ubimap.fusion.position_observation_model(np.diag([meas_var, meas_var]))

    upload_seqs = {r.id: 0 for r in robots}
    local_maps = None  # each robot's onboard map, made at the first upload
    localization_rows = csv.writer(localization, lineterminator="\n")
    localization_rows.writerow(["tick", "t", "robot_id", "error_m"])
    observation_rows = None
    if observations is not None:
        observation_rows = csv.writer(observations, lineterminator="\n")
        observation_rows.writerow(["tick", "t", "kind", "camera_id", "a", "b", "c"])

    def send(msg: ubimap.netsim.Message, dest: int, now: float) -> None:
        capture.write(f"{ubimap.netsim.encode(msg).hex()}\n".encode("ascii"))
        net.send(msg, dest, now)

    def handle_deliveries(deliveries) -> None:
        for delivery in deliveries:
            msg = delivery.message
            if delivery.dest == ubimap.netsim.SERVER_ID:
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
                    beliefs[robot.id] = ubimap.fusion.GaussianBelief(np.array([z[0], z[1], 0.0]), np.diag([0.25, 0.25, 1.0]))
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
            if local_maps is None:  # robots and walls never move: one onboard map per robot
                local_maps = {robot.id: _robot_local_map(world, robot, args.sense_radius) for robot in robots}
            for robot in robots:
                msg = ubimap.netsim.Message(
                    kind=ubimap.netsim.MessageKind.SENSOR_UPLOAD,
                    seq=upload_seqs[robot.id],
                    sender_id=robot.id,
                    payload=ubimap.netsim.encode_map_payload((upload_seqs[robot.id] + 1) % 2**32, local_maps[robot.id]),
                )
                upload_seqs[robot.id] = (upload_seqs[robot.id] + 1) % 2**32  # u32 seqs wrap, as MapServer.next_seq's do
                send(msg, ubimap.netsim.SERVER_ID, t)

        handle_deliveries(net.deliver_due(t))

    # Quiescence: let in-flight traffic (and the ACKs it spawns) land.
    while net.pending():
        handle_deliveries(net.drain())

    matches = int((covered & (server_map.cells == world.cell_states)).sum())
    summary = {
        "coverage_ratio": coverage_ratio,
        "map_accuracy": matches / int(covered.sum()) if covered.any() else 1.0,
        "cost_initial": calibration.cost_trace[0],
        "cost_final": calibration.cost_trace[-1],
        "messages_sent": net.sent,
        "messages_delivered": net.delivered,
        "messages_dropped": net.dropped,
        "stale_updates": sum(c.stale_count for c in clients.values()),
        "uploads_merged": server.uploads_merged,
        "server_revision": server_map.revision,
    }
    for cam_id, rot_err, tra_err in sorted(zip(calibration.graph.nodes, *calibration.pose_errors())):
        summary[f"calibration_rotation_error_{cam_id}"] = rot_err
        summary[f"calibration_translation_error_{cam_id}"] = tra_err
    summary.update((f"client_revision_{rid}", clients[rid].revision) for rid in sorted(clients))
    return summary, server_map


def cmd_render(scenario: Scenario, args) -> int:
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "map.ppm").write_bytes(ubimap.pipeline.render_map(scenario.world.cell_states))
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
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_PARSE if exc.code else EXIT_OK
    error = _numeric_flag_error(args)
    if error is not None:
        print(f"argument error: {error}", file=sys.stderr)
        return EXIT_PARSE
    handler = {"plan": cmd_plan, "calibrate": cmd_calibrate, "simulate": cmd_simulate, "render": cmd_render}[args.command]
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
        return handler(scenario, with_scenario_defaults(args, scenario))
    except Exception as exc:  # noqa: BLE001 - the CLI boundary maps to exit codes
        if isinstance(exc, ubimap.calib.DisconnectedGraphError):  # loads calib on a failure only
            print(f"calibration failed: {exc}", file=sys.stderr)
            return EXIT_CALIBRATION
        print(f"runtime error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
