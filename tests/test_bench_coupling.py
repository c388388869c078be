"""The benchmark still reaches the program it measures.

Each workload of ``perfbench/run.py`` is run once, traced, through
``perfbench/child.py`` on the demo room (``simulate`` for one simulated
second). The tracer's self-checks fail the process when a binding it wraps
has moved, and its counters fail it when a result loses the shape they
read, so each run must exit 0 and record calls on every span its workload
expects.
"""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load_bench():
    spec = importlib.util.spec_from_file_location("perfbench_run", PERFBENCH / "run.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve annotations through it
    spec.loader.exec_module(module)
    return module


BENCH = load_bench()


@pytest.mark.parametrize("name", sorted(BENCH.WORKLOADS))
def test_workload_runs_traced_on_the_demo_room(tmp_path, name):
    workload = BENCH.WORKLOADS[name]
    flags = list(workload.flags)
    if workload.command == "simulate":
        flags[flags.index("--duration") + 1] = "1"
    argv = [workload.command, str(BENCH.DEMO_SCENARIO), *flags, "--out", str(tmp_path / "out")]
    result = tmp_path / "result.json"
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({
        "src": str(BENCH.SRC), "argv": argv, "hook": workload.hook, "trace": True,
        "setup_only": False, "result": str(result),
    }))
    done = subprocess.run(
        [sys.executable, str(PERFBENCH / "child.py"), str(spec)],
        cwd=BENCH.ROOT, env=BENCH.child_env(), capture_output=True, timeout=120, check=False,
    )
    assert done.returncode == 0, done.stderr.decode(errors="replace")
    report = json.loads(result.read_text())
    assert report["hook_times"], f"hook {workload.hook} never called"
    spans = report["trace"]["spans"]
    assert [span for span in workload.expected_spans if not spans.get(span, [0])[0]] == []
