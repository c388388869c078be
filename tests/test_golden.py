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
    "cal/calibration.csv": "852283a335f2603ca81531ece33914c058bfb49c8d3285c791709d381983dbed",
    "plan/plan.csv": "4677a2523e75ef670b99f33e9ea5f471c432b01581389a9fd269c226315e8dae",
    "plan/plan_coverage.ppm": "7cc8a907d7cd7e285c994d010470608c0ba1b254084b01d1569e913406308e5a",
    "plan/plan_violations.csv": "2d945507f337b8fecace9f59e0fbe46cb9d556b88be8d256f8ab25c12d685034",
    "plan_exact/plan.csv": "90180864078a6b17f78226357785f563d225ae9cf6f04c58b0e6af4e941dc5e1",
    "plan_exact/plan_coverage.ppm": "c9e589b97219f11abcf87cfe2567034f37961a4a7160a87d0f69f400b1914757",
    "plan_exact/plan_violations.csv": "cb09cc78c86324996557a70a8e9cd77426b206b193326e6023a659af5bbf7c51",
    "render/map.ppm": "e66c0988d467a62d8fe598818d8d55de0789a7f44c29778f5b6628f3bf63fec9",
    "sim/capture.hex": "c3ce2eeb0c5b52e8bcaf045e84d6a6287d050d565f78c905ef5b1475391adafd",
    "sim/final_map.ppm": "826b53fd860c4c70a1d5dfd4ceda63d2687f953a0f9e535fd4b069822aa9a9f2",
    "sim/localization.csv": "db2ed0fef7200456fa4bb7e4dca4dc517b94f9e43c0adbcca0f3c161fe33fce0",
    "sim/observations.csv": "0df64b1095e30e33253d12a373531dff64f2edc3a24b8e6fe13ba71eaeae2eae",
    "sim/summary.csv": "8c62b1e73a1293086cfa7a23df5565ebc8cd318f1ad0f4c6322e2c184250fe55",
    "sim_plan/capture.hex": "4549d9e7c68d7e5b926e52507573fe857cfc717f67b83aad1d395fe8c530ac62",
    "sim_plan/final_map.ppm": "008c568a9f0ca71a196356f354245ed229440463b96ddc787837d4e9cb4c289f",
    "sim_plan/localization.csv": "85a658632eaff4fcd9003a33d50bf6cd7dcd879116abb0e1322c69bde1c7c5d7",
    "sim_plan/summary.csv": "3f5f0df5ff9f8bb80b5b1dc913c1a07701c805478f74fdf33bf2d11cd87c77dc",
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
