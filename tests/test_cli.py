import csv
import io
import math
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from ubimap import calib, cli, coverage, fusion, world as worldmod
from ubimap.cli import EXIT_CALIBRATION, EXIT_CONSTRAINT, EXIT_OK, EXIT_PARSE, EXIT_RUNTIME, render_map
from ubimap.fusion import CellState
from ubimap.geom import Point3
from ubimap.world import CellIndex

from oracles import graph_edges, stack_pairs
from test_sensim import reference_observe_landmarks
from test_world import reference_line_of_sight

DEMO_ROOM = Path(__file__).resolve().parent.parent / "scenarios" / "demo_room.scenario"

FULL_COVER = """
section world
  cell_size = 1.0
  width = 4
  height = 4
end
section camera
  id = 1
  x = 2.0
  y = 0.0
  h = 2.5
  yaw_deg = 0
  hfov_deg = 90
  vfov_deg = 120
  range = 10
end
"""

NO_CAMERAS = """
section world
  cell_size = 1.0
  width = 4
  height = 4
end
section robot
  id = 1
  x = 1.5
  y = 1.5
  tag = 2
end
"""

NO_SHARED_LANDMARKS = """
section world
  cell_size = 1.0
  width = 8
  height = 4
end
section camera
  id = 1
  x = 1.0
  y = 0.0
  h = 2.0
  yaw_deg = 0
  hfov_deg = 60
  vfov_deg = 90
  range = 10
end
section camera
  id = 2
  x = 7.0
  y = 0.0
  h = 2.0
  yaw_deg = 0
  hfov_deg = 60
  vfov_deg = 90
  range = 10
end
section landmark
  id = 1
  x = 1.0
  y = 1.0
  z = 0.3
end
section landmark
  id = 2
  x = 1.3
  y = 1.5
  z = 0.6
end
section landmark
  id = 3
  x = 0.7
  y = 1.2
  z = 0.2
end
"""


def write(tmp_path, text, name="scene.scenario"):
    path = tmp_path / name
    path.write_text(text, encoding="ascii")
    return str(path)


def simulate_in_memory(scenario, args):
    """`cli.run_simulation` streaming into memory -> (outputs, the frames
    sent, localization.csv's rows as (tick, t, robot_id, error_m))."""
    capture, localization = io.BytesIO(), io.StringIO()
    outputs = cli.run_simulation(scenario, args, capture, localization)
    frames = [bytes.fromhex(line) for line in capture.getvalue().decode("ascii").splitlines()]
    header, *rows = csv.reader(localization.getvalue().splitlines())
    assert header == ["tick", "t", "robot_id", "error_m"]
    return outputs, frames, [(int(tick), float(t), int(rid), float(err)) for tick, t, rid, err in rows]


# -- renderer ------------------------------------------------------------------


def test_render_single_wall_cell_golden():
    cells = np.array([[CellState.WALL]], dtype=np.uint8)
    assert render_map(cells) == b"P6\n1 1\n255\n\x00\x00\x00"


def test_render_explored_robot_column_golden():
    cells = np.array([[CellState.EXPLORED], [CellState.ROBOT]], dtype=np.uint8)
    assert render_map(cells) == b"P6\n1 2\n255\n\xc8\xc8\xc8\x00\xc8\x00"


def test_render_deterministic():
    cells = np.zeros((2, 3), dtype=np.uint8)
    cells[1, 2] = int(CellState.OBSTACLE)
    assert render_map(cells) == render_map(cells)


def test_render_palette_covers_all_states():
    cells = np.array([list(CellState)], dtype=np.uint8)
    data = render_map(cells)
    assert data[:11] == b"P6\n5 1\n255\n"
    pixels = [tuple(data[11 + 3 * i : 14 + 3 * i]) for i in range(5)]
    assert pixels == [(96, 96, 96), (200, 200, 200), (0, 0, 0), (220, 0, 0), (0, 200, 0)]


# -- plan ----------------------------------------------------------------------


def test_plan_trivially_coverable(tmp_path, capsys):
    path = write(tmp_path, FULL_COVER)
    code = cli.main(["plan", path, "--out", str(tmp_path / "out")])
    assert code == EXIT_OK
    content = (tmp_path / "out" / "plan.csv").read_text()
    assert "coverage_ratio,1.0" in content
    assert "selected,1" in content


def test_plan_strict_overlap_violation_exits_2(tmp_path):
    # One camera cannot give every cell double coverage: under-coverage
    # violations plus --strict must exit 2.
    path = write(tmp_path, FULL_COVER)
    code = cli.main(
        ["plan", path, "--out", str(tmp_path / "out"), "--strict", "--min-overlap", "2", "--max-overlap", "3"]
    )
    assert code == EXIT_CONSTRAINT


def test_plan_parse_error_exits_1(tmp_path):
    path = write(tmp_path, "section world\n  width = 4\nend\n")
    assert cli.main(["plan", path, "--out", str(tmp_path / "out")]) == EXIT_PARSE


def test_plan_no_cameras_exits_1(tmp_path, capsys):
    path = write(tmp_path, NO_CAMERAS)
    assert cli.main(["plan", path, "--out", str(tmp_path / "out")]) == EXIT_PARSE
    assert "scenario error: plan needs at least one camera" in capsys.readouterr().err


def six_candidate_scenario():
    lines = ["section world", "  cell_size = 1.0", "  width = 6", "  height = 5", "end"]
    placements = [
        (1, 3.0, 0.0, 0.0), (2, 1.5, 0.0, 0.0), (3, 4.5, 0.0, 0.0),
        (4, 3.0, 5.0, 180.0), (5, 0.0, 2.5, 270.0), (6, 6.0, 2.5, 90.0),
    ]
    for cid, x, y, yaw in placements:
        lines += [
            "section camera", f"  id = {cid}", f"  x = {x}", f"  y = {y}",
            "  h = 2.0", f"  yaw_deg = {yaw}", "  hfov_deg = 80", "  vfov_deg = 110",
            "  range = 10", "end",
        ]
    return "\n".join(lines) + "\n"


def test_plan_exact_matches_exhaustive_oracle(tmp_path):
    path = write(tmp_path, six_candidate_scenario())
    code = cli.main(["plan", path, "--exact", "--budget", "3", "--out", str(tmp_path / "out")])
    assert code == EXIT_OK
    scenario = worldmod.parse_scenario(Path(path).read_text())
    problem = coverage.CoverageProblem(
        world=scenario.world, candidates=scenario.cameras, budget=3, max_overlap=len(scenario.cameras)
    )
    expected = coverage.plan_exhaustive(problem)
    content = (tmp_path / "out" / "plan.csv").read_text()
    assert f"selected,{' '.join(str(i) for i in expected.selected)}" in content
    # and the greedy default differs or matches, but never beats it
    greedy = coverage.plan_greedy(problem)
    assert coverage.objective(expected, problem) >= coverage.objective(greedy, problem)


def test_plan_exact_over_the_enumeration_cap_exits_1(tmp_path, capsys):
    world, camera = FULL_COVER.split("section camera")
    path = write(tmp_path, world + "".join(f"section camera{camera.replace('id = 1', f'id = {k}')}" for k in range(1, 22)))
    assert cli.main(["plan", path, "--exact", "--out", str(tmp_path / "out")]) == EXIT_PARSE
    assert "argument error: 21 candidates exceed the enumeration cap of 20" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_plan_heatmap_written(tmp_path):
    path = write(tmp_path, FULL_COVER)
    cli.main(["plan", path, "--heatmap", "--out", str(tmp_path / "out")])
    data = (tmp_path / "out" / "plan_coverage.ppm").read_bytes()
    assert data.startswith(b"P6\n4 4\n255\n")


# -- calibrate -------------------------------------------------------------------


def test_calibrate_demo_room_noise_free(tmp_path):
    code = cli.main(["calibrate", str(DEMO_ROOM), "--out", str(tmp_path / "out")])
    assert code == EXIT_OK
    content = (tmp_path / "out" / "calibration.csv").read_text()
    for line in content.splitlines():
        if line.startswith("pose_rotation_error_rad") or line.startswith("pose_translation_error_m"):
            assert float(line.split(",")[2]) < 1e-6


def test_calibrate_disconnected_exits_3(tmp_path):
    path = write(tmp_path, NO_SHARED_LANDMARKS)
    assert cli.main(["calibrate", path, "--out", str(tmp_path / "out")]) == EXIT_CALIBRATION


def test_calibrate_no_cameras_exits_1(tmp_path, capsys):
    path = write(tmp_path, NO_CAMERAS)
    assert cli.main(["calibrate", path, "--out", str(tmp_path / "out")]) == EXIT_PARSE
    assert "scenario error: calibrate needs at least one camera" in capsys.readouterr().err


def test_calibrate_seeded_noisy_report_reproducible(tmp_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    for out in (out_a, out_b):
        code = cli.main(
            ["calibrate", str(DEMO_ROOM), "--noise-sigma", "0.01", "--seed", "3", "--out", str(out)]
        )
        assert code == EXIT_OK
    assert (out_a / "calibration.csv").read_bytes() == (out_b / "calibration.csv").read_bytes()


def landmark_pairing_scenario(blind_camera=False):
    """Six wide cameras over a 10 m room with 30 scattered landmarks and a
    row of 8 collinear ones; optionally a seventh camera whose range ends
    above every landmark, so it sees none."""
    rng = np.random.default_rng(194)
    mount = dict(height=2.5, hfov=math.radians(80), vfov=math.radians(100))
    cameras = [
        worldmod.CameraSpec(
            id=cid, x=float(rng.uniform(1, 9)), y=float(rng.uniform(1, 9)), yaw=float(rng.uniform(-math.pi, math.pi)),
            max_range=8.0, **mount,
        )
        for cid in (4, 2, 9, 6, 1, 7)
    ]
    if blind_camera:
        cameras.append(worldmod.CameraSpec(id=5, x=5.0, y=5.0, yaw=0.0, max_range=0.5, **mount))
    landmarks = [
        worldmod.Landmark(id=i, position=Point3(float(rng.uniform(0, 10)), float(rng.uniform(0, 10)), float(rng.uniform(0, 1.5))))
        for i in range(30)
    ]
    landmarks += [worldmod.Landmark(id=100 + i, position=Point3(2.0 + 0.8 * i, 5.0, 0.5)) for i in range(8)]
    world = worldmod.GridWorld(cell_size=0.5, width=20, height=20, landmarks=tuple(landmarks))
    return worldmod.Scenario(world, tuple(cameras), worldmod.SimParams())


def reference_landmark_pairs(scenario, sigma, seed):
    """Reference pairing: each camera's observations from the per-camera
    reference, then one set intersection per camera pair."""
    cams = sorted(scenario.cameras, key=lambda c: c.id)
    observed = {cam.id: reference_observe_landmarks(cam, scenario.world, sigma, seed) for cam in cams}
    pairwise = []
    for a, cam_i in enumerate(cams):
        for cam_j in cams[a + 1 :]:
            shared = sorted(set(observed[cam_i.id]) & set(observed[cam_j.id]))
            if len(shared) >= 3:
                pairwise.append((
                    cam_i.id,
                    cam_j.id,
                    np.array([observed[cam_i.id][lid] for lid in shared]),
                    np.array([observed[cam_j.id][lid] for lid in shared]),
                ))
    return stack_pairs(pairwise)


def edge_bits(edge):
    return (
        edge.camera_i, edge.camera_j,
        edge.transform.rotation.tobytes(), edge.transform.translation.tobytes(), edge.residual.hex(),
    )


def table_bits(table):
    return [(a.dtype.str, a.shape, a.tobytes()) for a in (table.cameras, table.counts, table.points_i, table.points_j)]


@pytest.mark.parametrize("sigma", [0.0, 0.03])
def test_calibration_pairs_match_per_pair_set_intersection(sigma):
    scenario = landmark_pairing_scenario()
    pairwise = reference_landmark_pairs(scenario, sigma, 5)
    # The camera pairs share 0, 2, exactly 3 and more landmarks.
    cams = sorted(scenario.cameras, key=lambda c: c.id)
    observed = [set(reference_observe_landmarks(cam, scenario.world, sigma, 5)) for cam in cams]
    shared_counts = {len(observed[a] & observed[b]) for a in range(len(cams)) for b in range(a + 1, len(cams))}
    assert {0, 2, 3} <= shared_counts and max(shared_counts) > 3

    graph = cli.calibrate_scenario(scenario, sigma, 5).graph
    expected = calib.build_graph(pairwise, cams[0].id, nodes=tuple(c.id for c in cams))
    assert graph.nodes == expected.nodes
    assert [edge_bits(e) for e in graph_edges(graph)] == [edge_bits(e) for e in graph_edges(expected)]
    assert table_bits(graph.correspondences) == table_bits(expected.correspondences)
    assert graph.failures == expected.failures
    if sigma == 0.0:  # the collinear row is exactly collinear only without noise
        assert [(i, j) for i, j, _ in graph.failures] == [(1, 2)]


def per_pair_intersection(camera_ids, seen, points):
    """Reference pairing over a seen mask: each observation's row in
    ``points`` counted in mask order, then one set intersection per camera
    pair."""
    row_of = {}
    for c in range(seen.shape[0]):
        for lm in range(seen.shape[1]):
            if seen[c, lm]:
                row_of[c, lm] = len(row_of)
    pairwise = []
    for a in range(len(camera_ids)):
        for b in range(a + 1, len(camera_ids)):
            shared = sorted({lm for c, lm in row_of if c == a} & {lm for c, lm in row_of if c == b})
            if len(shared) >= 3:
                rows_a, rows_b = [row_of[a, lm] for lm in shared], [row_of[b, lm] for lm in shared]
                pairwise.append((camera_ids[a], camera_ids[b], points[rows_a], points[rows_b]))
    return stack_pairs(pairwise)


@st.composite
def seen_masks(draw):
    cameras, landmarks = draw(st.integers(1, 7)), draw(st.integers(0, 12))
    rows = draw(st.lists(st.lists(st.booleans(), min_size=landmarks, max_size=landmarks), min_size=cameras, max_size=cameras))
    ids = sorted(draw(st.sets(st.integers(0, 2**64 - 1), min_size=cameras, max_size=cameras)))
    return ids, np.array(rows, dtype=bool).reshape(cameras, landmarks)


@settings(max_examples=200, deadline=None)
@given(seen_masks())
@example(([1, 2, 3], np.array([[0, 0, 0, 0], [1, 1, 1, 1], [1, 1, 1, 1]], dtype=bool)))  # camera 1 sees nothing
@example(([4, 7, 9], np.array([[1, 1, 1, 0, 0], [1, 1, 1, 1, 0], [0, 1, 1, 1, 1]], dtype=bool)))  # share 3, 2, 3
@example(([2, 5, 6, 2**64 - 1], np.ones((4, 6), dtype=bool)))  # every camera sees every landmark
def test_pairing_equals_per_pair_set_intersection_on_any_seen_mask(case):
    camera_ids, seen = case
    points = np.arange(3.0 * seen.sum()).reshape(-1, 3)  # distinct rows, so a misplaced row shows
    table = cli._shared_landmark_pairs(camera_ids, seen, points)
    assert table_bits(table) == table_bits(per_pair_intersection(camera_ids, seen, points))


def test_calibration_camera_seeing_no_landmark_stays_unreachable():
    scenario = landmark_pairing_scenario(blind_camera=True)
    blind = next(cam for cam in scenario.cameras if cam.id == 5)
    assert reference_observe_landmarks(blind, scenario.world, 0.0, 5) == {}
    with pytest.raises(calib.DisconnectedGraphError) as exc:
        cli.calibrate_scenario(scenario, 0.0, 5)
    assert exc.value.unreachable == (5,)


# -- simulate --------------------------------------------------------------------


def test_simulate_empty_world_explores_footprints(tmp_path):
    path = write(tmp_path, FULL_COVER)
    args = cli.build_parser().parse_args(["simulate", path, "--duration", "0.5"])
    scenario = worldmod.parse_scenario(Path(path).read_text())
    outputs, _, _ = simulate_in_memory(scenario, args)
    report, server_map = outputs.report, outputs.server_map
    from ubimap.world import covered_cells

    footprint = covered_cells(scenario.cameras[0], scenario.world)
    for cell in footprint:
        assert server_map.state(cell) == CellState.EXPLORED
    assert not any(
        server_map.state(c) in (CellState.ROBOT, CellState.OBSTACLE) for c in scenario.world.all_cells()
    )


def test_simulate_demo_room_localizes_all_robots(tmp_path):
    args = cli.build_parser().parse_args(["simulate", str(DEMO_ROOM), "--duration", "1.0"])
    scenario = worldmod.parse_scenario(DEMO_ROOM.read_text())
    outputs, _, localization = simulate_in_memory(scenario, args)
    report, server_map = outputs.report, outputs.server_map
    finals = {}
    for tick, t, rid, err in localization:
        finals[rid] = err
    assert set(finals) == {1, 2, 3}
    assert all(err < scenario.world.cell_size for err in finals.values())
    assert report.map_accuracy >= 0.99


def test_simulate_total_loss_isolates_clients(tmp_path):
    code = cli.main(
        ["simulate", str(DEMO_ROOM), "--duration", "0.5", "--loss", "1.0", "--out", str(tmp_path / "out")]
    )
    assert code == EXIT_OK
    content = (tmp_path / "out" / "summary.csv").read_text()
    for rid in (1, 2, 3):
        assert f"client_revision_{rid},0" in content
    assert "map_accuracy,1.0" in content


def test_simulate_outputs_deterministic(tmp_path):
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        code = cli.main(
            [
                "simulate", str(DEMO_ROOM),
                "--duration", "1.0", "--noise-sigma", "0.01",
                "--loss", "0.1", "--jitter-ms", "20", "--latency-ms", "15",
                "--seed", "11", "--out", str(out),
            ]
        )
        assert code == EXIT_OK
        outs.append(out)
    for name in ("summary.csv", "localization.csv", "final_map.ppm", "capture.hex"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name


def test_simulate_parse_error_exits_1(tmp_path):
    assert cli.main(["simulate", str(tmp_path / "missing.scenario")]) == EXIT_PARSE


def test_simulate_no_cameras_exits_1(tmp_path, capsys):
    path = write(tmp_path, NO_CAMERAS)
    assert cli.main(["simulate", path, "--out", str(tmp_path / "out")]) == EXIT_PARSE
    assert "scenario error: simulate needs at least one camera" in capsys.readouterr().err


def test_simulate_noise_free_localization_converges_to_zero(tmp_path):
    args = cli.build_parser().parse_args(["simulate", str(DEMO_ROOM), "--duration", "1.0"])
    scenario = worldmod.parse_scenario(DEMO_ROOM.read_text())
    _, _, localization = simulate_in_memory(scenario, args)
    finals = {}
    for tick, t, rid, err in localization:
        finals[rid] = err
    assert all(err < 1e-9 for err in finals.values())


def test_simulate_observation_dump(tmp_path):
    code = cli.main(
        ["simulate", str(DEMO_ROOM), "--duration", "0.3", "--dump-observations", "--out", str(tmp_path / "out")]
    )
    assert code == EXIT_OK
    lines = (tmp_path / "out" / "observations.csv").read_text().splitlines()
    assert lines[0] == "tick,t,kind,camera_id,a,b,c"
    assert any(",obstacle," in line for line in lines[1:])
    assert any(",tag," in line for line in lines[1:])


SIMULATE_OUTPUTS = ("capture.hex", "localization.csv", "observations.csv", "final_map.ppm", "summary.csv")


def test_simulate_calibration_failure_leaves_no_outputs(tmp_path):
    path = write(tmp_path, NO_SHARED_LANDMARKS)
    out = tmp_path / "out"
    assert cli.main(["simulate", path, "--dump-observations", "--out", str(out)]) == EXIT_CALIBRATION
    assert [name for name in SIMULATE_OUTPUTS if (out / name).exists()] == []


def test_simulate_runtime_error_mid_run_leaves_no_outputs(tmp_path, monkeypatch, capsys):
    out = tmp_path / "out"
    argv = ["simulate", str(DEMO_ROOM), "--duration", "1.0", "--dump-observations", "--out", str(out)]
    assert cli.main(argv) == EXIT_OK  # a failed run removes an earlier run's files as well
    fuse_frame, streams_open = fusion.fuse_frame, []

    def fuse_then_fail(server_map, evidence, tags, camera_poses, t):
        if t >= 0.5:
            streams_open.append([name for name in SIMULATE_OUTPUTS if (out / name).exists()])
            raise RuntimeError("fusion failed")
        return fuse_frame(server_map, evidence, tags, camera_poses, t)

    monkeypatch.setattr(fusion, "fuse_frame", fuse_then_fail)
    assert cli.main(argv) == EXIT_RUNTIME
    assert "runtime error: fusion failed" in capsys.readouterr().err
    assert streams_open[0][:3] == ["capture.hex", "localization.csv", "observations.csv"]
    assert [name for name in SIMULATE_OUTPUTS if (out / name).exists()] == []


# -- render ----------------------------------------------------------------------


def test_render_ground_truth(tmp_path):
    code = cli.main(["render", str(DEMO_ROOM), "--out", str(tmp_path / "out")])
    assert code == EXIT_OK
    data = (tmp_path / "out" / "map.ppm").read_bytes()
    assert data.startswith(b"P6\n12 10\n255\n")
    # walls black, the two obstacles red, the three robots green
    body = data[len(b"P6\n12 10\n255\n"):]
    pixels = [tuple(body[3 * i : 3 * i + 3]) for i in range(120)]
    assert pixels.count((0, 0, 0)) == 4
    assert pixels.count((220, 0, 0)) == 2
    assert pixels.count((0, 200, 0)) == 3


def test_render_needs_no_cameras(tmp_path):
    path = write(tmp_path, NO_CAMERAS)
    assert cli.main(["render", path, "--out", str(tmp_path / "out")]) == EXIT_OK


@pytest.mark.parametrize("sigma", ["0", "0.01"])
def test_calibrate_negative_camera_id_exits_1(tmp_path, capsys, sigma):
    text = DEMO_ROOM.read_text(encoding="ascii").replace("  id = 4\n", "  id = -4\n", 1)
    path = write(tmp_path, text)
    code = cli.main(["calibrate", path, "--noise-sigma", sigma, "--out", str(tmp_path / "out")])
    assert code == EXIT_PARSE
    assert "line 53" in capsys.readouterr().err


@pytest.mark.parametrize("sigma", ["0", "0.01"])
def test_calibrate_negative_seed_exits_1(tmp_path, sigma):
    code = cli.main(
        ["calibrate", str(DEMO_ROOM), "--noise-sigma", sigma, "--seed", "-3", "--out", str(tmp_path / "out")]
    )
    assert code == EXIT_PARSE
    assert not (tmp_path / "out").exists()


UNREACHABLE = "calibration failed: cameras unreachable from the reference: [2, 3, 4]"


@pytest.mark.parametrize("command", ["calibrate", "simulate"])
@pytest.mark.parametrize(
    "sigma, expected, message",
    [
        ("1e200", EXIT_CALIBRATION, UNREACHABLE),  # finite points whose products overflow: every pair fails its fit
        ("1e308", EXIT_RUNTIME, "runtime error: correspondence points must be finite"),  # the noise itself overflows
    ],
)
def test_overflowing_noise_sigma_fails_with_no_outputs(tmp_path, capsys, command, sigma, expected, message):
    out = tmp_path / "out"
    with np.errstate(over="ignore", invalid="ignore"):
        code = cli.main([command, str(DEMO_ROOM), "--noise-sigma", sigma, "--out", str(out)])
    assert code == expected
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_failed_calibration_warns_nothing_and_leaves_no_outputs(tmp_path, capsys):
    # Every pair's sums overflow: each becomes a failed edge, with no numpy
    # warning, and the report is never opened.
    out = tmp_path / "a" / "out"
    with warnings.catch_warnings(), np.errstate(all="warn"):
        warnings.simplefilter("error")
        code = cli.main(["calibrate", str(DEMO_ROOM), "--noise-sigma", "1e200", "--out", str(out)])
    assert code == EXIT_CALIBRATION
    assert UNREACHABLE in capsys.readouterr().err
    assert not (out / "calibration.csv").exists() and not out.exists() and not out.parent.exists()


def test_failed_simulate_keeps_an_output_directory_it_did_not_make(tmp_path, capsys):
    out = tmp_path / "out"
    out.mkdir()
    (out / "notes.txt").write_text("kept\n")
    argv = ["simulate", str(DEMO_ROOM), "--noise-sigma", "1e200", "--dump-observations", "--out", str(out)]
    with np.errstate(over="ignore", invalid="ignore"):
        assert cli.main(argv) == EXIT_CALIBRATION
    assert UNREACHABLE in capsys.readouterr().err
    assert [path.name for path in out.iterdir()] == ["notes.txt"]
    assert (out / "notes.txt").read_text() == "kept\n"


def test_failed_simulate_removes_every_directory_it_made(tmp_path, capsys):
    # Only `kept` exists: the run makes a, a/b and a/b/c, and removes all three.
    kept = tmp_path / "kept"
    kept.mkdir()
    argv = ["simulate", str(DEMO_ROOM), "--noise-sigma", "1e200", "--out", str(kept / "a" / "b" / "c")]
    with np.errstate(over="ignore", invalid="ignore"):
        assert cli.main(argv) == EXIT_CALIBRATION
    assert UNREACHABLE in capsys.readouterr().err
    assert kept.is_dir() and list(kept.iterdir()) == []


@pytest.mark.parametrize("command", ["calibrate", "simulate", "plan", "render"])
def test_seed_above_64_bits_exits_1(tmp_path, capsys, command):
    code = cli.main([command, str(DEMO_ROOM), "--seed", str(2**64), "--out", str(tmp_path / "out")])
    assert code == EXIT_PARSE
    assert "--seed must be in 0..2**64 - 1" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_ids_tag_and_seed_at_64_bits_run_with_noise(tmp_path):
    # Camera 4, robot 1's tag and landmark 1 set to 2**64 - 1: the noise
    # counters take every 64-bit word.
    top = str(2**64 - 1)
    text = DEMO_ROOM.read_text(encoding="ascii").replace("  id = 4\n", f"  id = {top}\n", 1)
    text = text.replace("  tag = 11\n", f"  tag = {top}\n", 1)
    text = text.replace("section landmark\n  id = 1\n", f"section landmark\n  id = {top}\n", 1)
    path = write(tmp_path, text)
    for command in ("calibrate", "simulate"):
        out = tmp_path / command
        argv = [command, path, "--noise-sigma", "0.01", "--seed", top, "--out", str(out)]
        assert cli.main(argv) == EXIT_OK, command
    assert top in (tmp_path / "calibrate" / "calibration.csv").read_text()


def test_tag_above_64_bits_exits_1_with_line(tmp_path, capsys):
    text = DEMO_ROOM.read_text(encoding="ascii").replace("  tag = 11\n", f"  tag = {2**64}\n", 1)
    path = write(tmp_path, text)
    assert cli.main(["simulate", path, "--out", str(tmp_path / "out")]) == EXIT_PARSE
    err = capsys.readouterr().err
    assert "line 64" in err and "2**64 - 1" in err


@pytest.mark.parametrize("command", ["simulate", "plan"])
@pytest.mark.parametrize("robot_id", ["0", "70000"])
def test_robot_id_outside_network_addresses_exits_1(tmp_path, capsys, command, robot_id):
    text = DEMO_ROOM.read_text(encoding="ascii").replace("section robot\n  id = 2\n", f"section robot\n  id = {robot_id}\n", 1)
    path = write(tmp_path, text)
    code = cli.main([command, path, "--out", str(tmp_path / "out")])
    assert code == EXIT_PARSE
    err = capsys.readouterr().err
    assert "line 71" in err and "1..65535" in err


def reference_robot_local_map(world, robot, sense_radius):
    """Reference onboard map: every cell of the grid tested one by one."""
    fragment = np.zeros((world.height, world.width), dtype=np.uint8)
    if sense_radius <= 0:
        return fragment
    occupied = {ob.cell for ob in world.obstacles}
    others = {world.cell_of(r.x, r.y) for r in world.robots if r.id != robot.id}
    for cell in world.all_cells():
        center = world.cell_center(cell)
        if math.dist(center, (robot.x, robot.y)) > sense_radius:
            continue
        if not reference_line_of_sight(world, (robot.x, robot.y), center):
            continue
        if cell in world.walls:
            state = CellState.WALL
        elif cell in occupied or cell in others:
            state = CellState.OBSTACLE
        else:
            state = CellState.EXPLORED
        fragment[cell.row, cell.col] = int(state)
    own = world.cell_of(robot.x, robot.y)
    fragment[own.row, own.col] = int(CellState.EXPLORED)
    return fragment


def test_simulate_builds_each_robot_map_once(tmp_path, monkeypatch):
    built = []
    original = cli._robot_local_map

    def counted(world, robot, sense_radius):
        built.append(robot.id)
        return original(world, robot, sense_radius)

    monkeypatch.setattr(cli, "_robot_local_map", counted)
    argv = ["simulate", str(DEMO_ROOM), "--duration", "1", "--upload-ms", "100", "--out", str(tmp_path / "out")]
    assert cli.main(argv) == EXIT_OK
    robots = cli._load_scenario(str(DEMO_ROOM)).world.robots
    assert sorted(built) == sorted(r.id for r in robots)
    assert "uploads_merged,30" in (tmp_path / "out" / "summary.csv").read_text()


@pytest.mark.parametrize("sense_radius", [0.3, 0.5, 1.0, 2.0, 2.75, 2.95, 4.0, 100.0, math.inf, math.nan])
def test_robot_local_map_matches_full_grid_reference(sense_radius):
    world = cli._load_scenario(str(DEMO_ROOM)).world
    # Off-centre robots reach the far edge of the disc's bounding box.
    extra = [
        worldmod.Robot(id=7, x=1.475, y=1.475, theta=0.0, tag=97),
        worldmod.Robot(id=8, x=4.525, y=3.525, theta=0.0, tag=98),
        worldmod.Robot(id=9, x=world.width * world.cell_size, y=0.0, theta=0.0, tag=99),
    ]
    for robot in (*world.robots, *extra):
        got = cli._robot_local_map(world, robot, sense_radius)
        assert (got == reference_robot_local_map(world, robot, sense_radius)).all(), robot


@pytest.mark.parametrize(
    "flag, value",
    [
        ("--dt", "0"), ("--dt", "-0.1"), ("--dt", "nan"), ("--dt", "inf"),
        ("--duration", "-1"), ("--duration", "nan"), ("--duration", "inf"),
        ("--broadcast-ms", "nan"), ("--broadcast-ms", "-100"),
        ("--upload-ms", "nan"), ("--upload-ms", "inf"),
        ("--latency-ms", "nan"), ("--latency-ms", "-5"),
        ("--jitter-ms", "nan"), ("--jitter-ms", "-1"),
        ("--noise-sigma", "nan"), ("--noise-sigma", "-0.01"), ("--noise-sigma", "inf"),
        ("--sense-radius", "nan"),
        ("--loss", "nan"), ("--loss", "1.5"), ("--loss", "-0.1"),
        ("--plan-budget", "0"),
    ],
)
def test_simulate_rejects_out_of_range_numeric_flags(tmp_path, capsys, flag, value):
    code = cli.main(["simulate", str(DEMO_ROOM), "--duration", "0.2", f"{flag}={value}", "--out", str(tmp_path / "out")])
    assert code == EXIT_PARSE
    assert f"argument error: {flag} must" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "flags, overflowing",
    [
        ("--duration 0", "--broadcast-ms"),
        ("--duration 0 --broadcast-ms 0", "--upload-ms"),
        ("--duration 1 --broadcast-ms 0 --upload-ms 0", "--duration"),
    ],
)
def test_simulate_rejects_dt_whose_tick_counts_overflow(tmp_path, capsys, flags, overflowing):
    # 0.1 s / 1e-320 s overflows to infinity; the run must not reach int().
    code = cli.main(["simulate", str(DEMO_ROOM), "--dt", "1e-320", *flags.split(), "--out", str(tmp_path / "out")])
    assert code == EXIT_PARSE
    err = capsys.readouterr().err
    assert err.startswith("argument error: --dt must") and overflowing in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("radius", ["inf", "0", "-1"])
def test_simulate_accepts_unbounded_or_empty_sense_radius(tmp_path, radius):
    code = cli.main(["simulate", str(DEMO_ROOM), "--duration", "0.2", f"--sense-radius={radius}", "--out", str(tmp_path / "out")])
    assert code == EXIT_OK


@pytest.mark.parametrize(
    "flags",
    ["--budget=0", "--budget=-2", "--min-overlap=-1", "--max-overlap=0", "--min-overlap=3 --max-overlap=2"],
)
def test_plan_rejects_out_of_range_numeric_flags(tmp_path, capsys, flags):
    code = cli.main(["plan", str(DEMO_ROOM), *flags.split(), "--out", str(tmp_path / "out")])
    assert code == EXIT_PARSE
    rejected = flags.split()[-1].split("=")[0]
    assert f"argument error: {rejected} must" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_plan_min_overlap_above_default_max_overlap_exits_1(tmp_path, capsys):
    # The demo room has four cameras, so the default --max-overlap is 4.
    code = cli.main(["plan", str(DEMO_ROOM), "--min-overlap", "5", "--out", str(tmp_path / "out")])
    assert code == EXIT_PARSE
    assert "argument error:" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["plan", "render", "calibrate", "simulate"])
def test_non_ascii_scenario_exits_1(tmp_path, capsys, command):
    path = tmp_path / "scene.scenario"
    path.write_bytes(DEMO_ROOM.read_bytes().replace(b"# Demo room", "# Démo room".encode("utf-8"), 1))
    assert cli.main([command, str(path), "--out", str(tmp_path / "out")]) == EXIT_PARSE
    assert "scenario error:" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


# Every key read as a real number, and the sim seed; ids, tags and grid sizes
# are integers, which int() already refuses to read from 'nan' or 'inf'.
REAL_KEYS = [
    (section, key)
    for section, keys in sorted(worldmod._SECTION_KEYS.items())
    for key in sorted(keys - {"id", "tag", "width", "height"})
]


def demo_room_with(section: str, key: str, value: str) -> tuple[str, int]:
    """The demo room with `key` of its first `section` block set to `value`,
    and the line number of that block's header."""
    lines = DEMO_ROOM.read_text(encoding="ascii").splitlines()
    start = lines.index(f"section {section}")
    at = next(i for i in range(start, len(lines)) if lines[i].partition("=")[0].strip() == key)
    lines[at] = f"  {key} = {value}"
    return "\n".join(lines) + "\n", start + 1


@pytest.mark.parametrize(
    "section, key, value",
    [(section, key, value) for section, key in REAL_KEYS for value in ("nan", "inf", "-inf")]
    + [("world", key, value) for key in ("cell_size", "width", "height") for value in ("0", "-1")]
    + [("sim", "seed", "1.5")],
)
def test_scenario_numbers_must_be_finite_and_sizes_positive(tmp_path, capsys, section, key, value):
    text, line_no = demo_room_with(section, key, value)
    path = write(tmp_path, text)
    for command in ("plan", "render", "calibrate", "simulate"):
        assert cli.main([command, path, "--out", str(tmp_path / "out")]) == EXIT_PARSE, command
        assert f"scenario error: line {line_no}: '{key}'" in capsys.readouterr().err, command
        assert not (tmp_path / "out").exists()


ALL_COMMANDS = ("plan", "render", "calibrate", "simulate")


def assert_every_command_rejects(tmp_path, capsys, text, prefix):
    path = write(tmp_path, text)
    for command in ALL_COMMANDS:
        assert cli.main([command, path, "--out", str(tmp_path / "out")]) == EXIT_PARSE, command
        assert prefix in capsys.readouterr().err, command
        assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "width, height", [("65536", "10"), ("4097", "4097"), ("100000000000", "10"), ("12", "100000000000")]
)
def test_scenario_grid_larger_than_a_map_message_exits_1(tmp_path, capsys, width, height):
    text = DEMO_ROOM.read_text(encoding="ascii")
    text = text.replace("  width = 12\n", f"  width = {width}\n", 1).replace("  height = 10\n", f"  height = {height}\n", 1)
    assert_every_command_rejects(tmp_path, capsys, text, "scenario error: line 6: ")


@pytest.mark.parametrize("key, value", [("x", "1e308"), ("x", "100"), ("x", "-0.25"), ("y", "5.0"), ("y", "-1e308")])
def test_scenario_obstacle_off_the_grid_exits_1_with_line_number(tmp_path, capsys, key, value):
    text, line_no = demo_room_with("obstacle", key, value)
    assert_every_command_rejects(tmp_path, capsys, text, f"scenario error: line {line_no}: obstacle at")


@pytest.mark.parametrize(
    "section, key, value",
    [
        ("camera", "h", "0"),
        ("camera", "hfov_deg", "180"),
        ("camera", "vfov_deg", "0"),
        ("camera", "range", "-2"),
        ("sim", "noise_sigma", "-1"),
        ("sim", "net_latency_ms", "-1"),
        ("sim", "net_loss", "2"),
    ],
)
def test_scenario_camera_and_sim_ranges_exit_1_with_line_number(tmp_path, capsys, section, key, value):
    text, line_no = demo_room_with(section, key, value)
    assert_every_command_rejects(tmp_path, capsys, text, f"scenario error: line {line_no}: ")


# -- whole-grid rules against their cell-by-cell references ------------------------

REFERENCE_PALETTE = {
    CellState.WALL: (0, 0, 0),
    CellState.UNEXPLORED: (96, 96, 96),
    CellState.EXPLORED: (200, 200, 200),
    CellState.OBSTACLE: (220, 0, 0),
    CellState.ROBOT: (0, 200, 0),
}


def reference_render_map(cells):
    height, width = cells.shape
    header = f"P6\n{width} {height}\n255\n".encode("ascii")
    body = bytearray()
    for row in range(height):
        for col in range(width):
            body.extend(REFERENCE_PALETTE[CellState(int(cells[row, col]))])
    return header + bytes(body)


def reference_ground_truth_state(world, cell):
    if cell in world.walls:
        return CellState.WALL
    if any(ob.cell == cell for ob in world.obstacles):
        return CellState.OBSTACLE
    if any(world.cell_of(r.x, r.y) == cell for r in world.robots):
        return CellState.ROBOT
    return CellState.EXPLORED


def reference_ground_truth_map(world):
    truth = np.zeros((world.height, world.width), dtype=np.uint8)
    for cell in world.all_cells():
        truth[cell.row, cell.col] = int(reference_ground_truth_state(world, cell))
    return truth


def reference_coverage_heatmap(problem, plan):
    w, h = problem.world.width, problem.world.height
    top = max([1] + plan.counts.ravel().tolist())
    header = f"P6\n{w} {h}\n255\n".encode("ascii")
    body = bytearray()
    for row in range(h):
        for col in range(w):
            cell = CellIndex(col, row)
            if cell in problem.world.walls:
                body.extend((0, 0, 0))
            else:
                level = int(255 * int(plan.counts[row, col]) / top)
                body.extend((level, level, 64))
    return header + bytes(body)


def reference_map_accuracy(server_map, world, covered):
    matches = sum(1 for cell in covered if server_map.state(cell) == reference_ground_truth_state(world, cell))
    return matches / len(covered) if covered else 1.0


def random_walled_world(seed):
    """A small world with random walls, obstacles and robots; one obstacle
    shares a robot's cell."""
    rng = np.random.default_rng(seed)
    width, height = (int(n) for n in rng.integers(2, 10, size=2))
    cells = [CellIndex(col, row) for row in range(height) for col in range(width)]
    walls = frozenset(cell for cell in cells if rng.random() < 0.25)
    free = [cell for cell in cells if cell not in walls] or [cells[0]]
    walls -= {free[0]}
    picks = [free[int(i)] for i in rng.integers(len(free), size=6)]
    robots = tuple(
        worldmod.Robot(id=i + 1, x=cell.col + float(rng.random()), y=cell.row + float(rng.random()), theta=0.0, tag=i + 1)
        for i, cell in enumerate(picks[:3])
    )
    obstacles = tuple(worldmod.Obstacle(id=i + 1, cell=cell) for i, cell in enumerate([picks[0], *picks[3:]]))
    return worldmod.GridWorld(cell_size=1.0, width=width, height=height, walls=walls, obstacles=obstacles, robots=robots)


@pytest.mark.parametrize("seed", range(20))
def test_truth_render_and_local_maps_match_reference_on_random_worlds(seed):
    world = random_walled_world(seed)
    truth = cli._truth_cells(world)
    assert truth.tobytes() == reference_ground_truth_map(world).tobytes()
    assert render_map(truth) == reference_render_map(truth)
    rng = np.random.default_rng(seed)
    scrambled = rng.integers(0, 5, size=truth.shape).astype(np.uint8)
    assert render_map(scrambled) == reference_render_map(scrambled)
    for robot in world.robots:
        for radius in (1.5, 3.0, math.inf):
            got = cli._robot_local_map(world, robot, radius)
            assert (got == reference_robot_local_map(world, robot, radius)).all(), (robot, radius)


@pytest.mark.parametrize("seed", range(20))
def test_coverage_heatmap_matches_reference_on_random_plans(seed):
    world = random_walled_world(seed)
    rng = np.random.default_rng(1000 + seed)
    cameras = tuple(
        worldmod.CameraSpec(
            id=i + 1, x=float(rng.uniform(0, world.width)), y=float(rng.uniform(0, world.height)),
            height=2.0, yaw=float(rng.uniform(-math.pi, math.pi)), hfov=1.2, vfov=1.6, max_range=10.0,
        )
        for i in range(int(rng.integers(1, 8)))
    )
    problem = coverage.CoverageProblem(
        world=world, candidates=cameras, budget=int(rng.integers(1, len(cameras) + 1)),
        max_overlap=int(rng.integers(1, 5)),
    )
    plan = coverage.plan_greedy(problem)
    assert cli._coverage_heatmap(problem, plan) == reference_coverage_heatmap(problem, plan)
    # Multiplicities up to 20 against every cell, for every truncation of 255 * m / top.
    counts = rng.integers(0, 21, size=(world.height, world.width)) * (rng.random((world.height, world.width)) < 0.7)
    arbitrary = coverage.PlacementPlan((), counts, 0.0, ())
    assert cli._coverage_heatmap(problem, arbitrary) == reference_coverage_heatmap(problem, arbitrary)


def test_truth_render_and_heatmap_match_reference_on_demo_room(tmp_path):
    assert cli.main(["render", str(DEMO_ROOM), "--out", str(tmp_path / "r")]) == EXIT_OK
    assert cli.main(["plan", str(DEMO_ROOM), "--heatmap", "--out", str(tmp_path / "p")]) == EXIT_OK
    scenario = cli._load_scenario(str(DEMO_ROOM))
    truth = cli._truth_cells(scenario.world)
    assert truth.tobytes() == reference_ground_truth_map(scenario.world).tobytes()
    problem = coverage.CoverageProblem(
        world=scenario.world, candidates=scenario.cameras, max_overlap=len(scenario.cameras), budget=len(scenario.cameras),
    )
    expected_heatmap = reference_coverage_heatmap(problem, coverage.plan_greedy(problem))
    assert (tmp_path / "p" / "plan_coverage.ppm").read_bytes() == expected_heatmap
    expected_render = reference_render_map(reference_ground_truth_map(scenario.world))
    assert (tmp_path / "r" / "map.ppm").read_bytes() == expected_render


@pytest.mark.parametrize("seed", range(4))
def test_map_accuracy_matches_reference_scan(seed):
    # The demo room with extra robots and obstacles, one obstacle in a
    # robot's cell: the map shows the robot, ground truth the obstacle.
    scenario = cli._load_scenario(str(DEMO_ROOM))
    world = scenario.world
    rng = np.random.default_rng(seed)
    free = [cell for cell in world.free_cells() if cell not in {ob.cell for ob in world.obstacles}]
    picks = [free[int(i)] for i in rng.choice(len(free), size=5, replace=False)]
    robots = world.robots + tuple(
        worldmod.Robot(id=50 + i, x=(cell.col + 0.5) * world.cell_size, y=(cell.row + 0.5) * world.cell_size, theta=0.0, tag=50 + i)
        for i, cell in enumerate(picks[:2])
    )
    obstacles = world.obstacles + tuple(worldmod.Obstacle(id=50 + i, cell=cell) for i, cell in enumerate(picks[1:]))
    world = worldmod.GridWorld(world.cell_size, world.width, world.height, world.walls, obstacles, robots, world.landmarks)
    scenario = worldmod.Scenario(world, scenario.cameras, scenario.params)
    args = cli.build_parser().parse_args(["simulate", str(DEMO_ROOM), "--duration", "0.5", "--seed", str(seed)])
    outputs, _, _ = simulate_in_memory(scenario, args)
    covered = set().union(*(worldmod.covered_cells(cam, world) for cam in scenario.cameras))
    expected = reference_map_accuracy(outputs.server_map, world, covered)
    assert outputs.report.map_accuracy == expected
    assert expected < 1.0
