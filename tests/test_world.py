import importlib.util
import math
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from ubimap import world as w
from ubimap.netsim import NetworkParams
from ubimap.world import (
    CameraSpec,
    CellIndex,
    GridWorld,
    ScenarioSemanticError,
    ScenarioSyntaxError,
    covered_cells,
    ground_footprint,
    line_of_sight,
    parse_scenario,
    serialize_scenario,
)

from oracles import all_cells, cell_mask

MINIMAL = """
section world
  cell_size = 1.0
  width = 4
  height = 4
end
"""


def make_camera(x, y, *, width, depth, yaw=0.0, cid=1, height=2.0, max_range=100.0):
    """Build a CameraSpec whose footprint has the requested width/depth."""
    hfov = 2.0 * math.atan(width / (2.0 * height))
    vfov = 2.0 * math.atan(depth / height)
    return CameraSpec(id=cid, x=x, y=y, height=height, yaw=yaw, hfov=hfov, vfov=vfov, max_range=max_range)


def empty_world(width=6, height=6, cell_size=1.0):
    return GridWorld(cell_size=cell_size, width=width, height=height)


# -- scenario parsing ------------------------------------------------------


def test_parse_minimal_room():
    scenario = parse_scenario(MINIMAL)
    assert scenario.world.width == 4 and scenario.world.height == 4
    assert not scenario.world.walls.any()
    assert scenario.cameras == ()


def test_parse_wall_row():
    doc = MINIMAL + "section walls\n  row 2 1..2\nend\n"
    scenario = parse_scenario(doc)
    assert np.array_equal(scenario.world.walls, cell_mask(4, 4, {CellIndex(1, 2), CellIndex(2, 2)}))


def test_parse_robot_on_wall_rejected():
    doc = MINIMAL + "section walls\n  row 1 0..3\nend\nsection robot\n  id = 1\n  x = 2.5\n  y = 1.5\n  tag = 9\nend\n"
    with pytest.raises(ScenarioSemanticError):
        parse_scenario(doc)


def test_parse_unknown_key_rejected_with_line_number():
    doc = "section world\n  cell_size = 1.0\n  width = 4\n  height = 4\n  bogus = 1\nend\n"
    with pytest.raises(ScenarioSyntaxError) as err:
        parse_scenario(doc)
    assert "line 5" in str(err.value)


def test_parse_unknown_section_rejected():
    with pytest.raises(ScenarioSyntaxError):
        parse_scenario(MINIMAL + "section weather\nend\n")


def test_parse_camera_outside_bounds_rejected():
    doc = MINIMAL + (
        "section camera\n  id = 1\n  x = 9.0\n  y = 1.0\n  h = 2.0\n"
        "  yaw_deg = 0\n  hfov_deg = 90\n  vfov_deg = 60\n  range = 5\nend\n"
    )
    with pytest.raises(ScenarioSemanticError):
        parse_scenario(doc)


def test_parse_comments_and_blank_lines():
    doc = "# a room\n\nsection world # trailing\n  cell_size = 0.5\n  width = 2\n  height = 3\nend\n"
    scenario = parse_scenario(doc)
    assert scenario.world.cell_size == 0.5
    assert scenario.world.height == 3


def test_parse_serialize_round_trip():
    doc = MINIMAL + (
        "section walls\n  row 0 0..1\n  row 0 3..3\nend\n"
        "section camera\n  id = 2\n  x = 1.0\n  y = 1.0\n  h = 2.5\n"
        "  yaw_deg = 45\n  hfov_deg = 80\n  vfov_deg = 70\n  range = 6\nend\n"
        "section robot\n  id = 1\n  x = 2.5\n  y = 2.5\n  tag = 4\nend\n"
        "section obstacle\n  id = 1\n  x = 3.5\n  y = 2.5\nend\n"
        "section landmark\n  id = 7\n  x = 1.0\n  y = 2.0\n  z = 0.5\nend\n"
        "section sim\n  seed = 42\n  noise_sigma = 0.01\n  net_latency_ms = 10\n  net_loss = 0.1\nend\n"
    )
    first = parse_scenario(doc)
    second = parse_scenario(serialize_scenario(first))
    assert first == second


def test_parse_of_a_fully_walled_grid_holds_about_a_byte_per_cell():
    # Each wall row is written straight into the grid's mask. Expanding the
    # rows into one cell tuple per wall cell peaked at 193 MB here.
    doc = "section world\n  cell_size = 1.0\n  width = 1024\n  height = 1024\nend\nsection walls\n"
    doc += "".join(f"  row {row} 0..1023\n" for row in range(1024)) + "end\n"
    parse_scenario(MINIMAL)  # a first parse compiles the regular expressions and warms the caches
    tracemalloc.start()
    try:
        scenario = parse_scenario(doc)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * 1024 * 1024, peak
    assert scenario.world.walls.all()


@st.composite
def walled_scenarios(draw):
    width, height = draw(st.integers(1, 12)), draw(st.integers(1, 12))
    cells = [CellIndex(c, r) for r in range(height) for c in range(width)]
    walls = frozenset(draw(st.sets(st.sampled_from(cells), max_size=len(cells))))
    return width, height, walls


@settings(max_examples=100, deadline=None)
@given(walled_scenarios())
def test_walls_given_as_cells_or_as_a_mask_make_the_same_world(case):
    width, height, walls = case
    worlds = [GridWorld(0.5, width, height, given) for given in (walls, cell_mask(width, height, walls))]
    assert worlds[0] == worlds[1]
    documents = [serialize_scenario(w.Scenario(world, ())) for world in worlds]
    assert documents[0] == documents[1]
    assert parse_scenario(documents[0]).world == worlds[0]
    assert worlds[0].walls.sum() == len(walls)
    assert worlds[0] != GridWorld(0.5, width, height, walls - {min(walls)} if walls else {CellIndex(0, 0)})


def test_world_wall_mask_is_checked_and_read_only():
    mask = cell_mask(4, 3, [CellIndex(1, 2)])
    world = GridWorld(1.0, 4, 3, mask)
    mask[0, 0] = True  # a writable mask is copied
    assert world.walls.sum() == 1
    with pytest.raises(ValueError):
        world.walls[0, 0] = True
    for bad in (np.zeros((4, 3), dtype=bool), np.zeros((3, 4), dtype=np.uint8)):
        with pytest.raises(ValueError, match="bool mask"):
            GridWorld(1.0, 4, 3, bad)
    with pytest.raises(ValueError, match="on the grid"):
        GridWorld(1.0, 4, 3, frozenset({CellIndex(4, 0)}))


def test_parse_rejects_duplicate_ids():
    doc = MINIMAL + (
        "section robot\n  id = 1\n  x = 0.5\n  y = 0.5\n  tag = 1\nend\n"
        "section robot\n  id = 1\n  x = 1.5\n  y = 0.5\n  tag = 2\nend\n"
    )
    with pytest.raises(ScenarioSemanticError):
        parse_scenario(doc)


BAD_CAMERA = "section camera\n  id = 1\n  x = 1.0\n  y = 0.0\n  h = -2.0\n  yaw_deg = 0\n  hfov_deg = 60\n  vfov_deg = 90\n  range = 10\nend\n"


def test_parse_reports_a_later_syntax_error_before_a_converted_bad_camera():
    # The camera section is converted, and fails, at its 'end' on line 16;
    # the grammar error after it still comes first.
    doc = MINIMAL + BAD_CAMERA + "section robot\n  id 1\nend\n"
    with pytest.raises(ScenarioSyntaxError, match="^line 18: expected 'key = value'$"):
        parse_scenario(doc)
    with pytest.raises(ScenarioSyntaxError, match="^line 7: camera 1: height must be > 0$"):
        parse_scenario(doc.replace("  id 1\n", "  id = 1\n  x = 0.5\n  y = 0.5\n  tag = 1\n"))


def test_parse_reports_the_first_conversion_error_of_the_first_kind():
    # Conversion errors wait for the scan's end, then come by kind (cameras,
    # robots, obstacles, landmarks), each kind's first bad section first.
    bad_landmark = "section landmark\n  id = 1\n  x = 0.5\n  y = 0.5\n  z = q\nend\n"
    bad_obstacle = "section obstacle\n  id = 1\n  x = 9.5\n  y = 0.5\nend\n"
    bad_robot = "section robot\n  id = 0\n  x = 0.5\n  y = 0.5\n  tag = 1\nend\n"
    other_camera = BAD_CAMERA.replace("h = -2.0", "h = 2.0").replace("x = 1.0", "x = oops")
    cases = [
        (bad_landmark + bad_obstacle + bad_robot + BAD_CAMERA + other_camera, BAD_CAMERA, "height must be > 0"),
        (bad_landmark + bad_robot + other_camera + BAD_CAMERA, other_camera, "'x' must be a number, got 'oops'"),
        (bad_landmark + bad_obstacle + bad_robot, bad_robot, "robot 'id' must be in 1..65535, got 0"),
        (bad_landmark + bad_obstacle, bad_obstacle, "obstacle at (9.5, 0.5) lies off the 4x4 grid"),
        (bad_landmark + bad_landmark.replace("z = q", "z = 1.0"), bad_landmark, "'z' must be a number, got 'q'"),
    ]
    for body, failing, message in cases:
        doc = MINIMAL + body
        line = doc[: doc.index(failing)].count("\n") + 1
        with pytest.raises(ScenarioSyntaxError) as err:
            parse_scenario(doc)
        assert str(err.value).startswith(f"line {line}: ") and message in str(err.value), (str(err.value), body)


@pytest.mark.parametrize(
    "doc, line, message",
    [
        (MINIMAL + "section robot\n  id = 0\n  x = nan\n  y = 0.5\n  tag = 1\nend\n", 7, "robot 'id' must be in 1..65535, got 0"),
        (MINIMAL + "section obstacle\n  id = -1\n  x = 9.5\n  y = 0.5\nend\n", 7, "obstacle at (9.5, 0.5) lies off the 4x4 grid"),
        (MINIMAL + BAD_CAMERA.replace("x = 1.0", "x = oops"), 7, "'x' must be a number, got 'oops'"),
        (MINIMAL.replace("width = 4", "width = 0").replace("height = 4", "height = abc"), 2, "'height' must be an integer, got 'abc'"),
    ],
)
def test_parse_reports_the_first_error_of_a_block_in_read_order(doc, line, message):
    # A block with two bad values reports the one read first; a section's own
    # checks come at their place in that order (a robot's address before its
    # position, an obstacle's grid check before its id, the world's sizes
    # after all three are read).
    with pytest.raises(ScenarioSyntaxError, match=f"^line {line}: {re.escape(message)}$"):
        parse_scenario(doc)


def test_readme_scenario_format_lists_each_sections_keys():
    # The README's "Scenario format" block names each section's keys after
    # '#', units and notes in parentheses; they must be the parser's keys.
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Scenario format", 1)[1].split("```", 2)[1]
    documented = {}
    for line in block.splitlines():
        if line.startswith("section "):
            name, _, keys = line.removeprefix("section ").partition("#")
            documented[name.strip()] = {key.strip() for key in re.sub(r"\([^)]*\)", "", keys).split(",")}
    assert documented.pop("walls") == {"lines: row <r> <colstart>..<colend>"}
    assert documented == {section: set(fields) for section, fields in w._FIELDS.items()}


@pytest.mark.parametrize("newline", ["\n", "\r\n", "\r", "\v", "\f", "\x1c", "\x1d", "\x1e"])
def test_parse_counts_lines_as_splitlines_does(newline):
    doc = (MINIMAL + "\n\nsection robot\n  id = 1\n  bogus = 2\nend\n").replace("\n", newline)
    expected = next(k for k, line in enumerate(doc.splitlines(), start=1) if "bogus" in line)
    with pytest.raises(ScenarioSyntaxError, match=f"^line {expected}: unknown key 'bogus'"):
        parse_scenario(doc)
    unclosed = (MINIMAL + "section robot\n  id = 1\n\n\n").replace("\n", newline)
    with pytest.raises(ScenarioSyntaxError, match=f"^line {len(unclosed.splitlines())}: section 'robot' not closed$"):
        parse_scenario(unclosed)


@settings(max_examples=500, deadline=None)
@given(st.text(alphabet="ab #=\n\r\v\f\x1c\x1d\x1e\x1f", max_size=40))
def test_document_lines_read_one_at_a_time_match_splitlines(document):
    # parse_scenario reads lines from w._LINE's matches, skipping the empty
    # match at the document's end, in place of a list from splitlines.
    lines = [match[1] for match in w._LINE.finditer(document) if match.start() < len(document)]
    assert lines == document.splitlines()


def test_parse_peak_memory_follows_one_section():
    # The benchmark's lattice document (perfbench/gen.py lattice 1): 720
    # camera sections in 7,271 lines. Splitting it into lines up front and
    # keeping every section's key-value text until the scan's end peaked at
    # 1.23 MB; reading a line at a time and converting each section at its
    # 'end' leaves about the parsed scenario itself.
    spec = importlib.util.spec_from_file_location("perfbench_gen", Path(__file__).parent.parent / "perfbench" / "gen.py")
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    document = serialize_scenario(gen.lattice(1))
    parse_scenario(document)  # a first parse compiles the regular expressions and warms the caches
    tracemalloc.start()
    try:
        scenario = parse_scenario(document)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(scenario.cameras) == 720
    assert peak < 600_000, peak


@pytest.mark.parametrize(
    "block",
    [
        "section camera\n  id = -1\n  x = 1.0\n  y = 0.0\n  h = 2.0\n  yaw_deg = 0\n"
        "  hfov_deg = 60\n  vfov_deg = 90\n  range = 10\nend\n",
        "section robot\n  id = -1\n  x = 0.5\n  y = 0.5\n  tag = 1\nend\n",
        "section robot\n  id = 1\n  x = 0.5\n  y = 0.5\n  tag = -1\nend\n",
        "section obstacle\n  id = -1\n  x = 0.5\n  y = 0.5\nend\n",
        "section landmark\n  id = -1\n  x = 0.5\n  y = 0.5\n  z = 1.0\nend\n",
    ],
)
def test_parse_rejects_negative_ids_with_line_number(block):
    with pytest.raises(ScenarioSyntaxError) as err:
        parse_scenario(MINIMAL + block)
    assert err.value.line_no == MINIMAL.count("\n") + 1
    assert "must be >= 0" in str(err.value)


WORD_BLOCKS = {
    "camera id": "section camera\n  id = {}\n  x = 1.0\n  y = 0.0\n  h = 2.0\n  yaw_deg = 0\n"
    "  hfov_deg = 60\n  vfov_deg = 90\n  range = 10\nend\n",
    "robot tag": "section robot\n  id = 1\n  x = 0.5\n  y = 0.5\n  tag = {}\nend\n",
    "obstacle id": "section obstacle\n  id = {}\n  x = 0.5\n  y = 0.5\nend\n",
    "landmark id": "section landmark\n  id = {}\n  x = 0.5\n  y = 0.5\n  z = 1.0\nend\n",
    "seed": "section sim\n  seed = {}\nend\n",
}


@pytest.mark.parametrize("field", sorted(WORD_BLOCKS))
def test_parse_rejects_words_above_64_bits_with_line_number(field):
    # Seeds, ids and tags key the sensor noise generator as 64-bit words.
    with pytest.raises(ScenarioSyntaxError) as err:
        parse_scenario(MINIMAL + WORD_BLOCKS[field].format(2**64))
    assert err.value.line_no == MINIMAL.count("\n") + 1
    assert "2**64 - 1" in str(err.value)


@pytest.mark.parametrize("field", sorted(WORD_BLOCKS))
def test_parse_accepts_words_at_64_bits(field):
    scenario = parse_scenario(MINIMAL + WORD_BLOCKS[field].format(2**64 - 1))
    values = {
        "camera id": lambda: scenario.cameras[0].id,
        "robot tag": lambda: scenario.world.robots[0].tag,
        "obstacle id": lambda: scenario.world.obstacles[0].id,
        "landmark id": lambda: scenario.world.landmarks[0].id,
        "seed": lambda: scenario.params.seed,
    }
    assert values[field]() == 2**64 - 1 == w.MAX_WORD


@pytest.mark.parametrize("seed", [-1, 2**64])
def test_sim_params_seed_outside_64_bit_words_rejected(seed):
    with pytest.raises(ValueError, match="seed must be in"):
        w.SimParams(seed=seed)


CAMERA_AT = dict(id=1, x=0.5, y=0.5, height=2.0, yaw=0.0, hfov=1.0, vfov=1.0, max_range=5.0)


@pytest.mark.parametrize(
    "record, fields, message",
    [
        (CameraSpec, {"height": math.nan}, "camera 1: height must be > 0"),
        (CameraSpec, {"yaw": math.nan, "max_range": math.nan}, "camera 1: max_range must be > 0"),
        (CameraSpec, {"yaw": math.nan}, "camera 1: x, y and yaw must be finite"),
        (CameraSpec, {"x": math.nan, "max_range": math.inf}, "camera 1: x, y and yaw must be finite"),
        (CameraSpec, {"y": -math.inf}, "camera 1: x, y and yaw must be finite"),
        (NetworkParams, {"latency_ms": math.nan, "jitter_ms": math.nan}, "latency and jitter must be >= 0"),
        (NetworkParams, {"jitter_ms": math.nan}, "latency and jitter must be >= 0"),
        (w.SimParams, {"noise_sigma": math.nan, "net_latency_ms": math.nan}, "noise_sigma must be >= 0"),
        (w.SimParams, {"net_latency_ms": math.nan}, "net_latency_ms must be >= 0"),
    ],
    ids=lambda value: "-".join(value) if isinstance(value, dict) else None,
)
def test_records_reject_nan_where_they_promise_a_range(record, fields, message):
    # Each check is written so that NaN fails it; an infinite range still passes.
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        record(**{**(CAMERA_AT if record is CameraSpec else {}), **fields})
    assert CameraSpec(**{**CAMERA_AT, "max_range": math.inf}).max_range == math.inf


@pytest.mark.parametrize("robot_id", [0, 65536, 70000])
def test_parse_rejects_robot_ids_outside_network_addresses(robot_id):
    block = f"section robot\n  id = {robot_id}\n  x = 0.5\n  y = 0.5\n  tag = 1\nend\n"
    with pytest.raises(ScenarioSyntaxError) as err:
        parse_scenario(MINIMAL + block)
    assert err.value.line_no == MINIMAL.count("\n") + 1
    assert "1..65535" in str(err.value)


@pytest.mark.parametrize("robot_id", [1, 65535])
def test_parse_accepts_robot_ids_at_network_address_limits(robot_id):
    block = f"section robot\n  id = {robot_id}\n  x = 0.5\n  y = 0.5\n  tag = 1\nend\n"
    assert parse_scenario(MINIMAL + block).world.robots[0].id == robot_id


def world_doc(width, height):
    return f"section world\n  cell_size = 1.0\n  width = {width}\n  height = {height}\nend\n"


def test_grid_limits_are_what_a_map_message_carries():
    import struct

    from ubimap import netsim

    assert w.MAX_GRID_CELLS == netsim.MAX_PAYLOAD - netsim._MAP_HEADER.size
    netsim._MAP_HEADER.pack(0, w.MAX_GRID_SIDE, w.MAX_GRID_SIDE)
    with pytest.raises(struct.error):
        netsim._MAP_HEADER.pack(0, w.MAX_GRID_SIDE + 1, 1)
    # 7112 x 2359 is exactly MAX_GRID_CELLS: its map fills a payload.
    payload = netsim.encode_map_payload(0, np.zeros((2359, 7112), dtype=np.uint8))
    assert len(payload) == netsim.MAX_PAYLOAD
    assert netsim.decode_map_payload(payload)[1].shape == (2359, 7112)


@pytest.mark.parametrize("width, height", [(65535, 1), (1, 65535), (65535, 256), (7112, 2359)])
def test_parse_accepts_grids_a_map_message_carries(width, height):
    world = parse_scenario(world_doc(width, height)).world
    assert (world.width, world.height) == (width, height)


@pytest.mark.parametrize(
    "width, height", [(65536, 1), (1, 65536), (65535, 257), (7112, 2360), (4096, 4096), (10**11, 1)]
)
def test_parse_rejects_grids_a_map_message_cannot_carry(width, height):
    with pytest.raises(ScenarioSyntaxError) as err:
        parse_scenario(world_doc(width, height))
    assert err.value.line_no == 1


@pytest.mark.parametrize("x, y", [(1e308, 0.5), (4.0, 0.5), (0.5, 4.0), (-0.01, 0.5), (0.5, -1e308)])
def test_parse_rejects_obstacles_off_the_grid_with_line_number(x, y):
    block = f"section obstacle\n  id = 1\n  x = {x!r}\n  y = {y!r}\nend\n"
    with pytest.raises(ScenarioSyntaxError) as err:
        parse_scenario(MINIMAL + block)
    assert err.value.line_no == MINIMAL.count("\n") + 1
    assert "off the 4x4 grid" in str(err.value)


def test_grid_world_built_in_code_still_checks_obstacles():
    with pytest.raises(ScenarioSemanticError):
        GridWorld(cell_size=1.0, width=4, height=4, obstacles=(w.Obstacle(1, CellIndex(4, 0)),))


# -- footprint math --------------------------------------------------------


def test_footprint_depth_tan45():
    cam = CameraSpec(id=1, x=0, y=0, height=1.5, yaw=0, hfov=math.radians(60), vfov=math.radians(90), max_range=10)
    assert ground_footprint(cam).depth == pytest.approx(1.5, abs=1e-15)


def test_footprint_width_tan45():
    cam = CameraSpec(id=1, x=0, y=0, height=2.0, yaw=0, hfov=math.radians(90), vfov=math.radians(60), max_range=10)
    assert ground_footprint(cam).width == pytest.approx(4.0, abs=1e-15)


def test_footprint_depth_tan30():
    # h * tan(60deg / 2) = 3 * tan(30deg) = sqrt(3); independent evaluation.
    cam = CameraSpec(id=1, x=0, y=0, height=3.0, yaw=0, hfov=math.radians(60), vfov=math.radians(60), max_range=10)
    assert ground_footprint(cam).depth == pytest.approx(math.sqrt(3.0), rel=1e-15)


def test_footprint_depth_clamped_by_range():
    cam = CameraSpec(id=1, x=0, y=0, height=3.0, yaw=0, hfov=math.radians(60), vfov=math.radians(120), max_range=2.0)
    assert ground_footprint(cam).depth == 2.0


# -- coverage and visibility ----------------------------------------------


def brute_force_rect_cells(world, cam):
    """Independent oracle: point-in-rotated-rectangle test over all centers."""
    fp = ground_footprint(cam)
    hits = set()
    for cell in all_cells(world):
        cx, cy = world.cell_center(cell)
        dx, dy = cx - cam.x, cy - cam.y
        c, s = math.cos(cam.yaw), math.sin(cam.yaw)
        lx = c * dx + s * dy
        ly = -s * dx + c * dy
        if -fp.width / 2 <= lx <= fp.width / 2 and 0 <= ly <= fp.depth:
            hits.add(cell)
    return hits


def sampled_line_of_sight(world, a, b, samples=4001):
    """Independent occlusion oracle: dense sampling along the segment."""
    exclude = {world.cell_of(*a), world.cell_of(*b)}
    for i in range(samples + 1):
        t = i / samples
        x = a[0] + t * (b[0] - a[0])
        y = a[1] + t * (b[1] - a[1])
        cell = world.cell_of(x, y)
        if cell not in exclude and world.walls[cell.row, cell.col]:
            return False
    return True


def reference_supercover_cells(world, a, b):
    """Reference walk: the scalar supercover DDA, one cell at a time."""
    cs = world.cell_size
    ax, ay = a[0] / cs, a[1] / cs
    bx, by = b[0] / cs, b[1] / cs
    col, row = world.cell_of(*a)
    end_col, end_row = world.cell_of(*b)
    dx, dy = bx - ax, by - ay
    step_col = 1 if dx > 0 else -1
    step_row = 1 if dy > 0 else -1
    t_max_x = ((col + (step_col > 0)) - ax) / dx if dx != 0 else math.inf
    t_max_y = ((row + (step_row > 0)) - ay) / dy if dy != 0 else math.inf
    t_delta_x = abs(1.0 / dx) if dx != 0 else math.inf
    t_delta_y = abs(1.0 / dy) if dy != 0 else math.inf

    yield CellIndex(col, row)
    guard = 2 * (world.width + world.height) + 4
    while (col, row) != (end_col, end_row) and guard > 0:
        guard -= 1
        if min(t_max_x, t_max_y) >= 1.0 - 1e-12:  # the next crossing is at or past the end point
            return
        if abs(t_max_x - t_max_y) < 1e-12:
            side_a = CellIndex(col + step_col, row)
            side_b = CellIndex(col, row + step_row)
            # The side cells of a corner at the start touch the segment only there.
            for side in (side_a, side_b) if t_max_x > 1e-12 else ():
                if world.in_bounds(side):
                    yield side
            col += step_col
            row += step_row
            t_max_x += t_delta_x
            t_max_y += t_delta_y
        elif t_max_x < t_max_y:
            col += step_col
            t_max_x += t_delta_x
        else:
            row += step_row
            t_max_y += t_delta_y
        if not (0 <= col < world.width and 0 <= row < world.height):
            return
        yield CellIndex(col, row)


def reference_line_of_sight(world, a, b):
    """Reference occlusion test: the scalar walk over one segment."""
    if not (world.point_in_bounds(*a) and world.point_in_bounds(*b)):
        raise ValueError("line_of_sight endpoints must be inside world bounds")
    if a == b:
        return True
    exclude = {world.cell_of(*a), world.cell_of(*b)}
    for cell in reference_supercover_cells(world, a, b):
        if cell not in exclude and world.walls[cell.row, cell.col]:
            return False
    return True


def reference_covered_cells(cam, world):
    """Reference cover set: every footprint cell's center tested one by one."""
    return {
        cell
        for cell in brute_force_rect_cells(world, cam)
        if reference_line_of_sight(world, (cam.x, cam.y), world.cell_center(cell))
    }


def assert_matches_reference(world, segments):
    a = np.array([seg[0] for seg in segments], dtype=float).reshape(-1, 2)
    b = np.array([seg[1] for seg in segments], dtype=float).reshape(-1, 2)
    expected = [reference_line_of_sight(world, tuple(p), tuple(q)) for p, q in zip(a.tolist(), b.tolist())]
    got = line_of_sight(world, a, b)
    assert got.dtype == bool and got.shape == (len(segments),)
    assert got.tolist() == expected
    for (p, q), want in zip(zip(a.tolist(), b.tolist()), expected):
        single = line_of_sight(world, tuple(p), tuple(q))
        assert type(single) is bool and single == want, (p, q)


@st.composite
def walled_grids_with_segments(draw):
    width, height = draw(st.integers(1, 9)), draw(st.integers(1, 9))
    cell_size = draw(st.sampled_from([0.25, 0.3, 0.5, 1.0, 1.7]))
    cells = [CellIndex(c, r) for r in range(height) for c in range(width)]
    walls = frozenset(draw(st.sets(st.sampled_from(cells), max_size=len(cells))))
    grid = GridWorld(cell_size=cell_size, width=width, height=height, walls=walls)

    def coordinate(extent):
        # Grid lines and half cells hit corners, edges and the far bound
        # exactly; arbitrary floats cover the rest.
        return st.one_of(
            st.floats(0.0, extent * cell_size),
            st.integers(0, 2 * extent).map(lambda k: k * cell_size / 2),
        )

    point = st.tuples(coordinate(width), coordinate(height))
    return grid, draw(st.lists(st.tuples(point, point), min_size=1, max_size=12))


def many_segments():
    """A walled grid and more than two blocks of segments, endpoints on
    cell centers, edges and corners or anywhere."""
    rng = np.random.default_rng(11)
    walls = frozenset({CellIndex(c, 3) for c in range(2, 9)} | {CellIndex(5, r) for r in range(0, 3)})
    grid = GridWorld(cell_size=0.5, width=11, height=7, walls=walls)
    n = 2 * w.SEGMENT_BLOCK + 5
    on_lines = rng.integers(0, (23, 15), size=(n, 2, 2)) * 0.25
    anywhere = rng.uniform(0.0, (5.5, 3.5), size=(n, 2, 2))
    points = np.where(rng.random((n, 2, 1)) < 0.5, on_lines, anywhere)
    return grid, [(tuple(p), tuple(q)) for p, q in points.tolist()]


@settings(max_examples=300, deadline=None)
@given(walled_grids_with_segments())
@example(many_segments())
def test_line_of_sight_batched_matches_reference_walk(case):
    grid, segments = case
    assert_matches_reference(grid, segments)


@st.composite
def tiled_grids_with_segments(draw):
    """A grid of a few wall tiles each way with a few wall cells, so that
    many boxes hold no wall tile, and segments between cell corners, edge
    midpoints and the far bounds."""
    width, height = draw(st.integers(1, 21)), draw(st.integers(1, 21))
    cell_size = draw(st.sampled_from([0.25, 0.3, 0.5, 1.0, 1.7]))
    cells = st.builds(CellIndex, st.integers(0, width - 1), st.integers(0, height - 1))
    grid = GridWorld(cell_size, width, height, frozenset(draw(st.sets(cells, max_size=6))))
    point = st.tuples(*(st.integers(0, 2 * extent).map(lambda k: k * cell_size / 2) for extent in (width, height)))
    return grid, draw(st.lists(st.tuples(point, point), min_size=1, max_size=12))


@settings(max_examples=300, deadline=None)
@given(tiled_grids_with_segments())
def test_tiled_wall_count_and_walk_agree_on_every_segment(case):
    # The walk visits only cells of the box its end cells span, and the
    # summed-area table counts the wall tiles of that box widened to whole
    # tiles: a segment whose count is 0 is one the walk finds visible.
    grid, segments = case
    tiles, t = grid.wall_tiles, w.WALL_TILE
    assert tiles.dtype == np.int32 and tiles.shape == (-(-grid.height // t) + 1, -(-grid.width // t) + 1)
    assert not tiles.flags.writeable
    wall_tiles = {(cell.row // t, cell.col // t) for cell in all_cells(grid) if grid.walls[cell.row, cell.col]}
    for a, b in segments:
        ends = (grid.cell_of(*a), grid.cell_of(*b))
        (c0, c1), (r0, r1) = (sorted(pair) for pair in zip(*ends))
        assert all(c0 <= cell.col <= c1 and r0 <= cell.row <= r1 for cell in reference_supercover_cells(grid, a, b))
        (c0, r0), (c1, r1) = (c0 // t, r0 // t), (c1 // t + 1, r1 // t + 1)
        count = tiles[r1, c1] - tiles[r0, c1] - tiles[r1, c0] + tiles[r0, c0]
        assert count == sum(r0 <= row < r1 and c0 <= col < c1 for row, col in wall_tiles)
        if count == 0:
            assert line_of_sight(grid, a, b) and reference_line_of_sight(grid, a, b), (a, b)
    assert_matches_reference(grid, segments)


def test_line_of_sight_exact_diagonal_corner_crossings():
    # Each diagonal passes exactly through a cell corner; either side cell blocks it.
    for walls in ({CellIndex(2, 1)}, {CellIndex(1, 2)}, {CellIndex(2, 2)}, set()):
        grid = GridWorld(cell_size=1.0, width=5, height=5, walls=frozenset(walls))
        segments = [((0.5, 0.5), (3.5, 3.5)), ((3.5, 3.5), (0.5, 0.5)), ((1.5, 1.5), (2.5, 2.5)), ((0.5, 4.5), (4.5, 0.5))]
        assert_matches_reference(grid, segments)
    grid = GridWorld(cell_size=1.0, width=5, height=5, walls=frozenset({CellIndex(2, 1)}))
    assert not line_of_sight(grid, (1.5, 1.5), (2.5, 2.5))


def test_line_of_sight_endpoints_on_the_far_bounds():
    walls = frozenset({CellIndex(2, 1), CellIndex(1, 3)})
    grid = GridWorld(cell_size=0.5, width=4, height=4, walls=walls)
    edge = 4 * 0.5
    segments = [
        ((edge, 0.25), (0.25, 0.25)), ((edge, 0.75), (0.25, 0.75)), ((0.25, edge), (0.25, 0.25)),
        ((edge, edge), (0.0, 0.0)), ((0.0, edge), (edge, 0.0)), ((edge, 0.75), (edge, edge)),
    ]
    assert_matches_reference(grid, segments)
    assert not line_of_sight(grid, (edge, 0.75), (0.25, 0.75))
    # The clamped end cell (1, 2) is a side cell of the last corner crossing, so it cannot block.
    grid = GridWorld(cell_size=1.0, width=2, height=3, walls=frozenset({CellIndex(1, 2)}))
    assert_matches_reference(grid, [((0.5, 0.5), (2.0, 2.0))])
    assert line_of_sight(grid, (0.5, 0.5), (2.0, 2.0))


def test_line_of_sight_degenerate_segment_is_visible_even_in_a_wall():
    grid = GridWorld(cell_size=1.0, width=3, height=3, walls=frozenset({CellIndex(1, 1)}))
    assert line_of_sight(grid, (1.5, 1.5), (1.5, 1.5)) is True
    assert line_of_sight(grid, [[1.5, 1.5], [0.5, 0.5]], [[1.5, 1.5], [0.5, 0.5]]).tolist() == [True, True]


def test_line_of_sight_axis_aligned_segments():
    walls = frozenset({CellIndex(2, 1), CellIndex(3, 3)})
    grid = GridWorld(cell_size=1.0, width=6, height=5, walls=walls)
    segments = [
        ((0.5, 1.5), (5.5, 1.5)), ((5.5, 1.5), (0.5, 1.5)), ((2.5, 0.5), (2.5, 4.5)),
        ((0.0, 2.0), (6.0, 2.0)), ((3.0, 0.0), (3.0, 5.0)), ((0.5, 3.0), (5.5, 3.0)),
        ((4.0, 4.5), (4.0, 0.5)), ((0.5, 3.5), (5.5, 3.5)),
    ]
    assert_matches_reference(grid, segments)
    assert not line_of_sight(grid, (0.5, 1.5), (5.5, 1.5))


def test_line_of_sight_broadcasts_one_point_against_many():
    grid = GridWorld(cell_size=1.0, width=6, height=6, walls=frozenset(CellIndex(c, 2) for c in range(6)))
    targets = np.array([[2.5, 1.5], [2.5, 4.5], [5.5, 0.5], [0.5, 5.5]])
    assert line_of_sight(grid, (2.5, 0.5), targets).tolist() == [True, False, True, False]
    assert line_of_sight(grid, (2.5, 0.5), np.empty((0, 2))).shape == (0,)


def test_line_of_sight_rejects_any_endpoint_out_of_bounds():
    grid = empty_world(4, 4)
    with pytest.raises(ValueError):
        line_of_sight(grid, (0.5, 0.5), (4.5, 0.5))
    with pytest.raises(ValueError):
        line_of_sight(grid, [[0.5, 0.5], [1.5, 1.5]], [[1.5, 0.5], [1.5, -0.1]])
    with pytest.raises(ValueError):
        line_of_sight(grid, (math.nan, 0.5), (1.5, 0.5))


def test_covered_cells_matches_reference_in_walled_room():
    rng = np.random.default_rng(5)
    walls = frozenset({CellIndex(c, 6) for c in range(3, 14)} | {CellIndex(9, r) for r in range(0, 5)})
    grid = GridWorld(cell_size=0.5, width=18, height=12, walls=walls)
    for cid in range(40):
        cam = make_camera(
            float(rng.uniform(0, 9)), float(rng.uniform(0, 6)), width=float(rng.uniform(0.5, 6)),
            depth=float(rng.uniform(0.5, 6)), yaw=float(rng.uniform(-math.pi, math.pi)), cid=cid,
        )
        assert covered_cells(cam, grid) == reference_covered_cells(cam, grid)


@st.composite
def walled_grids_with_cameras(draw):
    width, height = draw(st.integers(1, 9)), draw(st.integers(1, 9))
    cell_size = draw(st.sampled_from([0.25, 0.5, 1.0, 1.7]))
    cells = [CellIndex(c, r) for r in range(height) for c in range(width)]
    walls = frozenset(draw(st.sets(st.sampled_from(cells), max_size=len(cells) // 2)))
    grid = GridWorld(cell_size=cell_size, width=width, height=height, walls=walls)

    def coordinate(extent):
        # The world's bounds and grid lines put cameras on its boundary and
        # on cell edges; arbitrary floats cover the rest.
        return st.one_of(
            st.sampled_from([0.0, extent * cell_size]),
            st.integers(0, extent).map(lambda k: k * cell_size),
            st.floats(0.0, extent * cell_size),
        )

    specs = draw(st.lists(
        st.tuples(coordinate(width), coordinate(height), st.floats(0.3, 8.0), st.floats(0.3, 8.0), st.floats(-4.0, 4.0)),
        max_size=6,
    ))
    cams = [make_camera(x, y, width=wide, depth=deep, yaw=yaw, cid=cid) for cid, (x, y, wide, deep, yaw) in enumerate(specs)]
    return grid, cams


@settings(max_examples=200, deadline=None)
@given(walled_grids_with_cameras())
def test_covered_masks_match_single_camera_cells(case):
    grid, cams = case
    masks = covered_cells(cams, grid)
    assert masks.shape == (len(cams), grid.height, grid.width) and masks.dtype == bool
    for cam, mask in zip(cams, masks):
        cells = covered_cells(cam, grid)
        assert np.array_equal(mask, cell_mask(grid.width, grid.height, cells))
        assert cells == reference_covered_cells(cam, grid)


@st.composite
def walled_grids_with_shared_sites(draw):
    width, height = draw(st.integers(1, 9)), draw(st.integers(1, 9))
    cell_size = draw(st.sampled_from([0.25, 0.5, 1.0, 1.7]))
    cells = [CellIndex(c, r) for r in range(height) for c in range(width)]
    walls = draw(st.sets(st.sampled_from(cells), max_size=len(cells) // 2))
    grid = GridWorld(cell_size=cell_size, width=width, height=height, walls=frozenset(walls))
    # Half-cell steps put a site on a cell center, edge or corner; a wall
    # cell's center or corner puts it over a wall.
    halves = st.tuples(st.integers(0, 2 * width), st.integers(0, 2 * height))
    site = st.one_of(
        halves.map(lambda k: (k[0] * cell_size / 2, k[1] * cell_size / 2)),
        st.tuples(st.floats(0.0, width * cell_size), st.floats(0.0, height * cell_size)),
        *([st.tuples(st.sampled_from(sorted(walls)), st.sampled_from([0.0, 0.5])).map(
            lambda wall: ((wall[0].col + wall[1]) * cell_size, (wall[0].row + wall[1]) * cell_size)
        )] if walls else []),
    )
    view = st.tuples(st.floats(0.3, 8.0), st.floats(0.3, 8.0), st.floats(-4.0, 4.0))
    specs = [
        (x, y, *spec)
        for x, y in draw(st.lists(site, min_size=1, max_size=4))
        for spec in draw(st.lists(view, min_size=1, max_size=8))
    ]
    cams = [make_camera(x, y, width=wide, depth=deep, yaw=yaw, cid=cid) for cid, (x, y, wide, deep, yaw) in enumerate(specs)]
    return grid, draw(st.permutations(cams))


@settings(max_examples=150, deadline=None)
@given(walled_grids_with_shared_sites())
def test_covered_masks_of_cameras_sharing_sites_match_single_camera_walks(case):
    grid, cams = case
    masks = covered_cells(cams, grid)
    assert masks.shape == (len(cams), grid.height, grid.width) and masks.dtype == bool
    for cam, mask in zip(cams, masks):
        assert np.array_equal(mask, covered_cells([cam], grid)[0])
        assert np.array_equal(mask, cell_mask(grid.width, grid.height, reference_covered_cells(cam, grid)))


def test_line_of_sight_peak_memory_is_bounded_by_its_block():
    # The 120x30 benchmark room (perfbench/gen.py room 1): 20,000 segments in
    # one call hold no more walk state than a block's.
    spec = importlib.util.spec_from_file_location("perfbench_gen", Path(__file__).parent.parent / "perfbench" / "gen.py")
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    grid = gen.room(1).world
    rng = np.random.default_rng(3)
    limit = (grid.width * grid.cell_size, grid.height * grid.cell_size)
    a, b = rng.uniform(0.0, limit, size=(2, 20_000, 2))
    line_of_sight(grid, a[:1], b[:1])  # the grid's cached masks are built outside the measurement
    tracemalloc.start()
    try:
        visible = line_of_sight(grid, a, b)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert visible.shape == (20_000,) and 0 < visible.sum() < 20_000
    assert peak < 2_000_000, peak


def test_one_camera_covered_cells_memory_follows_its_footprint():
    # The same camera and walls on a 40x30 grid and on a 400x300 one: the
    # footprint's bounding box and its sight lines are all a call holds, so
    # its peak stays put. Testing every cell centre of the grid peaked at
    # 5.0 MB on the larger grid, 65 times the smaller grid's.
    cam = CameraSpec(id=1, x=5.0, y=0.1, height=2.5, yaw=0.0, hfov=math.radians(90), vfov=math.radians(110), max_range=10.0)
    walls = frozenset(CellIndex(col, 8) for col in range(18, 24))
    peaks, cells = [], []
    for scale in (1, 10):
        grid = GridWorld(cell_size=0.25, width=40 * scale, height=30 * scale, walls=walls)
        covered_cells(cam, grid)  # the grid's cached masks are built outside the measurement
        tracemalloc.start()
        try:
            cells.append(covered_cells(cam, grid))
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert cells[0] == cells[1] and 200 < len(cells[0]) < 300
    assert peaks[1] <= 1.2 * peaks[0], peaks


@st.composite
def footprints_inside_larger_grids(draw):
    # Grids wide enough that most footprints' boxes stop short of the edges,
    # so the widened box, not the grid, bounds the cells tested. Cameras
    # sit on cell centres, edges or anywhere, with footprint sides that are
    # whole or half multiples of the cell size, so cell centres fall exactly
    # on footprint edges.
    width, height = draw(st.integers(12, 30)), draw(st.integers(12, 30))
    cell_size = draw(st.sampled_from([0.25, 0.5, 1.0, 1.7]))
    cells = [CellIndex(c, r) for r in range(height) for c in range(width)]
    walls = frozenset(draw(st.sets(st.sampled_from(cells), max_size=20)))
    grid = GridWorld(cell_size=cell_size, width=width, height=height, walls=walls)
    halves = st.integers(1, 12).map(lambda k: k * cell_size / 2)
    side = st.one_of(halves, st.floats(0.3, 4.0))
    position = st.one_of(
        st.tuples(st.integers(0, 2 * width), st.integers(0, 2 * height)).map(lambda k: (k[0] * cell_size / 2, k[1] * cell_size / 2)),
        st.tuples(st.floats(0.0, width * cell_size), st.floats(0.0, height * cell_size)),
    )
    yaw = st.one_of(st.sampled_from([0.0, math.pi / 2, math.pi, -math.pi / 2, math.pi / 4]), st.floats(-4.0, 4.0))
    specs = draw(st.lists(st.tuples(position, side, side, yaw), min_size=1, max_size=3))
    return grid, [make_camera(x, y, width=wide, depth=deep, yaw=turn, cid=k) for k, ((x, y), wide, deep, turn) in enumerate(specs)]


@settings(max_examples=60, deadline=None)
@given(footprints_inside_larger_grids())
def test_covered_cells_over_footprint_boxes_match_whole_grid_reference(case):
    grid, cams = case
    masks = covered_cells(cams, grid)
    for cam, mask in zip(cams, masks):
        expected = reference_covered_cells(cam, grid)
        assert covered_cells(cam, grid) == expected
        assert np.array_equal(mask, cell_mask(grid.width, grid.height, expected))


@pytest.mark.parametrize("axis", [0, 1])
def test_centre_span_holds_every_centre_in_range(axis):
    grid = GridWorld(cell_size=0.5, width=8, height=6)
    cells = (grid.width, grid.height)[axis]
    centres = (np.arange(cells) + 0.5) * grid.cell_size
    bounds = [-math.inf, -1.0, 0.0, 0.25, 0.3, 1.25, 2.0, 2.9, 3.75, 4.0, 10.0, math.inf, math.nan]
    for lo in bounds:
        for hi in bounds:
            span, xs = grid.centre_span(lo, hi, axis)
            assert np.array_equal(xs, centres[span])
            wanted = np.flatnonzero((centres >= lo) & (centres <= hi))
            if math.isnan(lo):
                assert span.start == 0
            if math.isnan(hi):
                assert span.stop == cells
            assert set(wanted.tolist()) <= set(range(cells)[span]), (lo, hi, span)


def test_covered_cells_degenerate_range_empty():
    cam = CameraSpec(id=1, x=3.0, y=2.0, height=2.0, yaw=0, hfov=math.radians(90), vfov=math.radians(90), max_range=1e-12)
    grid = empty_world()
    assert covered_cells(cam, grid) == set()


def test_covered_cells_matches_rectangle_oracle():
    grid = empty_world(6, 6)
    cam = make_camera(3.0, 2.0, width=2.0, depth=2.0)
    expected = brute_force_rect_cells(grid, cam)
    assert covered_cells(cam, grid) == expected
    assert expected == {CellIndex(2, 2), CellIndex(3, 2), CellIndex(2, 3), CellIndex(3, 3)}


def test_covered_cells_blocked_by_wall_row():
    # Full wall row two rows ahead of the camera: only cells before it remain.
    walls = frozenset(CellIndex(c, 4) for c in range(6))
    grid = GridWorld(cell_size=1.0, width=6, height=6, walls=walls)
    cam = make_camera(3.0, 2.0, width=4.0, depth=4.0)
    expected = set()
    for cell in brute_force_rect_cells(grid, cam):
        if sampled_line_of_sight(grid, (cam.x, cam.y), grid.cell_center(cell)):
            expected.add(cell)
    got = covered_cells(cam, grid)
    assert got == expected
    assert all(cell.row <= 4 for cell in got)
    assert not any(cell.row > 4 for cell in got)


def test_covered_cells_rotated_matches_oracle():
    grid = empty_world(8, 8)
    for yaw_deg in (30, 45, 90, 135, 200, 270):
        cam = make_camera(4.1, 3.9, width=3.0, depth=3.5, yaw=math.radians(yaw_deg))
        assert covered_cells(cam, grid) == brute_force_rect_cells(grid, cam)


def test_line_of_sight_same_point():
    assert line_of_sight(empty_world(), (1.5, 1.5), (1.5, 1.5))


def test_line_of_sight_adjacent_free_cells():
    assert line_of_sight(empty_world(), (1.5, 1.5), (2.5, 1.5))


def test_line_of_sight_blocked_by_wall_row():
    walls = frozenset(CellIndex(c, 2) for c in range(6))
    grid = GridWorld(cell_size=1.0, width=6, height=6, walls=walls)
    a, b = (2.5, 0.5), (2.5, 4.5)
    assert not line_of_sight(grid, a, b)
    assert not sampled_line_of_sight(grid, a, b)


def test_line_of_sight_matches_sampling_oracle_randomized():
    rng = np.random.default_rng(77)
    walls = {CellIndex(2, r) for r in range(1, 5)} | {CellIndex(4, 3)}
    grid = GridWorld(cell_size=0.5, width=8, height=8, walls=frozenset(walls))
    agreements = 0
    for _ in range(300):
        a = tuple(rng.uniform(0.05, 3.95, size=2))
        b = tuple(rng.uniform(0.05, 3.95, size=2))
        got = line_of_sight(grid, a, b)
        expected = sampled_line_of_sight(grid, a, b)
        assert got == expected, (a, b)
        agreements += 1
    assert agreements == 300


@st.composite
def segments_between_cell_corners(draw):
    """A walled grid and segments from one exact cell corner to another
    whose offset in cells has no common factor, so that no grid corner lies
    inside the segment and the sampling oracle sees every cell the walk
    visits, in either direction."""
    width, height = draw(st.integers(1, 9)), draw(st.integers(1, 9))
    cell_size = draw(st.sampled_from([0.25, 0.5, 1.0]))  # corners exact in binary
    cells = [CellIndex(c, r) for r in range(height) for c in range(width)]
    grid = GridWorld(cell_size, width, height, frozenset(draw(st.sets(st.sampled_from(cells)))))
    corner = st.tuples(st.integers(0, width), st.integers(0, height))
    segments = []
    for start, end in draw(st.lists(st.tuples(corner, corner), min_size=1, max_size=12)):
        if math.gcd(end[0] - start[0], end[1] - start[1]) != 1:
            continue
        segments.append(tuple((c * cell_size, r * cell_size) for c, r in (start, end)))
    return grid, segments


DEMO_ROOM_WALLS = GridWorld(0.5, 12, 10, frozenset(CellIndex(c, 7) for c in range(4)))


@settings(max_examples=300, deadline=None)
@given(segments_between_cell_corners())
@example((DEMO_ROOM_WALLS, [((6.0, 0.0), (3.0, 2.5)), ((0.0, 2.5), (1.0, 3.0))]))
@example((GridWorld(1.0, 3, 3, frozenset({CellIndex(0, 1)})), [((1.0, 1.0), (0.25, 0.25)), ((0.25, 0.25), (1.0, 1.0))]))
def test_line_of_sight_between_cell_corners_matches_sampling_oracle(case):
    # A walk ending on a corner reached from below and the right never enters
    # its end cell: it stops there rather than walking on past the target. A
    # walk starting on a corner down and to the left does not check the two
    # cells that touch the segment only at that corner.
    grid, segments = case
    for a, b in segments:
        assert line_of_sight(grid, a, b) == sampled_line_of_sight(grid, a, b), (a, b)
    if segments:
        assert_matches_reference(grid, segments)


def test_line_of_sight_ends_at_a_target_on_a_cell_corner():
    # The demo room's camera 2 to the corner point (3.0, 2.5) crosses cells
    # (8, 0), (8, 1), (7, 2), (7, 3), (6, 3) and (6, 4); its walls are in row 7.
    demo = parse_scenario((Path(__file__).resolve().parent.parent / "scenarios" / "demo_room.scenario").read_text())
    assert np.array_equal(demo.world.walls, DEMO_ROOM_WALLS.walls)
    assert line_of_sight(demo.world, (4.5, 0.25), (3.0, 2.5))
    assert sampled_line_of_sight(demo.world, (4.5, 0.25), (3.0, 2.5))


def test_occlusion_only_removes_cells():
    walls = frozenset({CellIndex(3, 3), CellIndex(2, 3)})
    walled = GridWorld(cell_size=1.0, width=6, height=6, walls=walls)
    open_room = empty_world(6, 6)
    for yaw_deg in (0, 60, 150, 250):
        cam = make_camera(3.2, 1.2, width=5.0, depth=5.0, yaw=math.radians(yaw_deg))
        assert covered_cells(cam, walled) <= covered_cells(cam, open_room)


def test_footprint_grows_with_height_below_range_cap():
    grid = empty_world(8, 8)
    prev: set = set()
    for height in (0.5, 1.0, 1.5, 2.0, 2.5):
        cam = CameraSpec(
            id=1, x=4.0, y=1.0, height=height, yaw=0.2,
            hfov=math.radians(80), vfov=math.radians(80), max_range=100.0,
        )
        cells = covered_cells(cam, grid)
        assert prev <= cells
        prev = cells
