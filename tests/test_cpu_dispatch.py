"""No output depends on which SIMD targets numpy dispatches its loops to.

numpy builds many of its loops for several CPU targets and, when it loads,
picks the best one the CPU runs; ``NPY_DISABLE_CPU_FEATURES`` turns targets
off. Here the golden commands and a calibration of the 100-camera ring run
with every dispatch target of this numpy turned off, so each loop takes its
baseline build: the golden files must match ``GOLDEN`` and the ring's those
of a run with every target on, byte for byte. A numpy logarithm whose SIMD
build rounds differently from its baseline one, reached by a name that the
source lint in ``test_kernel_free`` does not see, shows in the ring's bytes:
the golden commands draw 244 Gaussians, too few to meet a differing one.
"""

import json
import os
import subprocess
import sys

import pytest
from numpy._core._multiarray_umath import __cpu_dispatch__

from test_golden import COMMANDS, DEMO_ROOM, GOLDEN
from test_kernel_free import DIGESTS, kernel_env, scenes  # noqa: F401 (scenes is a fixture)

DISABLE = "NPY_DISABLE_CPU_FEATURES"


@pytest.mark.skipif(not __cpu_dispatch__, reason="this numpy dispatches to no CPU target")
def test_outputs_with_every_numpy_dispatch_target_disabled(scenes, tmp_path):
    commands = {name: [command, str(DEMO_ROOM), *flags] for name, (command, *flags) in COMMANDS.items()}
    commands["ring_calibrate"] = ["calibrate", str(scenes["ring"])]
    digests = {}
    for run, disabled in (("default", None), ("baseline", " ".join(__cpu_dispatch__))):
        env = {key: value for key, value in kernel_env(os.environ.get("OPENBLAS_CORETYPE", "")).items() if key != DISABLE}
        if disabled:
            env[DISABLE] = disabled
        argv = [sys.executable, "-c", DIGESTS, json.dumps(commands), str(tmp_path / run)]
        done = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=300)
        assert done.returncode == 0, done.stderr
        digests[run] = json.loads(done.stdout.splitlines()[-1])
    assert {name: digests["baseline"][name] for name in GOLDEN} == GOLDEN
    assert digests["baseline"] == digests["default"]
