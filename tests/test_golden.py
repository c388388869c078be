"""Golden digests: the full sha256 of every file the CLI writes for fixed
commands on the demo room.

The table was recorded with Python 3.11.7 and numpy 2.4.6. A change that
alters an output on purpose pastes the table this test prints on a
mismatch over ``GOLDEN`` and names the change in CHANGES.md.
"""

import hashlib
from pathlib import Path

from ubimap import cli

DEMO_ROOM = Path(__file__).resolve().parent.parent / "scenarios" / "demo_room.scenario"

# Output subdirectory -> CLI arguments after the scenario path.
COMMANDS = {
    "sim": [
        "simulate", "--duration", "1.0", "--noise-sigma", "0.01", "--loss", "0.15",
        "--jitter-ms", "25", "--latency-ms", "20", "--seed", "99", "--dump-observations",
    ],
    "plan": ["plan", "--seed", "99", "--heatmap"],
    "plan_exact": ["plan", "--exact", "--budget", "3", "--min-overlap", "1", "--heatmap", "--seed", "99"],
    "sim_plan": ["simulate", "--plan-budget", "3", "--duration", "1.0", "--seed", "99"],
    "cal": ["calibrate", "--noise-sigma", "0.01", "--seed", "99"],
    "render": ["render"],
}

GOLDEN = {
    "cal/calibration.csv": "b04578b08b3eab9a38a887a0cfd13089ee1a556b73dd2465e13478cfd6a75c8a",
    "plan/plan.csv": "4677a2523e75ef670b99f33e9ea5f471c432b01581389a9fd269c226315e8dae",
    "plan/plan_coverage.ppm": "7cc8a907d7cd7e285c994d010470608c0ba1b254084b01d1569e913406308e5a",
    "plan/plan_violations.csv": "2d945507f337b8fecace9f59e0fbe46cb9d556b88be8d256f8ab25c12d685034",
    "plan_exact/plan.csv": "90180864078a6b17f78226357785f563d225ae9cf6f04c58b0e6af4e941dc5e1",
    "plan_exact/plan_coverage.ppm": "c9e589b97219f11abcf87cfe2567034f37961a4a7160a87d0f69f400b1914757",
    "plan_exact/plan_violations.csv": "cb09cc78c86324996557a70a8e9cd77426b206b193326e6023a659af5bbf7c51",
    "render/map.ppm": "e66c0988d467a62d8fe598818d8d55de0789a7f44c29778f5b6628f3bf63fec9",
    "sim/capture.hex": "8418ba0b3d5eb36e1d572e836a34688096dc0d843668c4e9c1af166d329982c4",
    "sim/final_map.ppm": "826b53fd860c4c70a1d5dfd4ceda63d2687f953a0f9e535fd4b069822aa9a9f2",
    "sim/localization.csv": "dda43c368c4ee431c9c6181727e5549b572cd06fcc99d785e5816f52ed67bc32",
    "sim/observations.csv": "0df64b1095e30e33253d12a373531dff64f2edc3a24b8e6fe13ba71eaeae2eae",
    "sim/summary.csv": "70942b08c570f74b7e03207470d05fed687442e59f6a7fd8eb6f78982418e278",
    "sim_plan/capture.hex": "d495a33fe02bc20084cca5f010294d7a7f91cb90ddcb0d225a89836a4fd9a607",
    "sim_plan/final_map.ppm": "008c568a9f0ca71a196356f354245ed229440463b96ddc787837d4e9cb4c289f",
    "sim_plan/localization.csv": "9fdb2321b926bc1a11da219c7630391088a53abfda895466eaa25e59b7d5d177",
    "sim_plan/summary.csv": "b38949ead620d59fa8b4415737c16e0cf06f4715e14014165b8b01bb6aea2c81",
}


def test_cli_outputs_match_golden_digests(tmp_path):
    for out, (command, *flags) in COMMANDS.items():
        assert cli.main([command, str(DEMO_ROOM), *flags, "--out", str(tmp_path / out)]) == cli.EXIT_OK, out
    digests = {
        path.relative_to(tmp_path).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(tmp_path.rglob("*"))
        if path.is_file()
    }
    table = "".join(f'    "{name}": "{digest}",\n' for name, digest in digests.items())
    assert digests == GOLDEN, f"CLI outputs changed; the new table is:\nGOLDEN = {{\n{table}}}"
