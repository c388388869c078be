"""Each command loads only the layers it runs.

``import ubimap`` loads no submodule, and ``ubimap.<layer>`` imports one on
first access, so a command loads a layer when its code first reads it.
Each run here starts a fresh interpreter, so that no other test has loaded
a layer before it.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMO_ROOM = ROOT / "scenarios" / "demo_room.scenario"
LAYERS = ("algebra", "calib", "cli", "coverage", "fusion", "geom", "netsim", "pipeline", "sensim", "world")

# world (with geom and algebra, which it imports) and cli load for every
# command; the rest is what each command runs. calib imports moments, and
# pipeline, which calibrates and renders images, loads calib and sensim
# only to calibrate.
BASE = {"ubimap", "ubimap.algebra", "ubimap.cli", "ubimap.geom", "ubimap.world"}
CALIBRATE = BASE | {"ubimap.calib", "ubimap.moments", "ubimap.pipeline", "ubimap.sensim"}
# simulate runs the planner only with --plan-budget.
SIMULATE = CALIBRATE | {"ubimap.fusion", "ubimap.netsim"}
LOADED = {
    ("plan",): BASE | {"ubimap.coverage"},
    ("plan", "--heatmap"): BASE | {"ubimap.coverage", "ubimap.pipeline"},
    ("calibrate",): CALIBRATE,
    ("simulate",): SIMULATE,
    ("simulate", "--plan-budget", "2"): SIMULATE | {"ubimap.coverage"},
    ("render",): BASE | {"ubimap.pipeline"},
}

# Runs `ubimap` with the arguments given and prints, as the last line, the
# exit code and the ubimap modules the run loaded.
RUN = """
import json, sys
from ubimap import cli
code = cli.main(sys.argv[1:])
print(json.dumps([code, sorted(name for name in sys.modules if name.split(".")[0] == "ubimap")]))
"""

# Checks that importing the package loads no submodule and that attribute
# access loads each one, then prints the error an unknown name raises.
ACCESS = """
import sys
import ubimap
assert [name for name in sys.modules if name.startswith("ubimap.")] == []
for name in sys.argv[1:]:
    assert getattr(ubimap, name) is sys.modules[f"ubimap.{name}"], name
try:
    ubimap.no_such_layer
except AttributeError as exc:
    print(exc)
"""


def python(*argv: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, *argv], env=env, capture_output=True, text=True, timeout=120, check=False)
    assert done.returncode == 0, done.stderr
    return done


@pytest.mark.parametrize("command", sorted(LOADED), ids=" ".join)
def test_command_loads_only_its_layers(tmp_path, command):
    done = python("-c", RUN, command[0], str(DEMO_ROOM), *command[1:], "--out", str(tmp_path / "out"))
    code, loaded = json.loads(done.stdout.splitlines()[-1])
    assert code == 0
    assert set(loaded) == LOADED[command]


def test_attribute_access_loads_each_layer():
    done = python("-c", ACCESS, *LAYERS)
    assert done.stdout.strip() == "module 'ubimap' has no attribute 'no_such_layer'"
