"""The benchmark still reaches the program it measures.

Each workload of ``perfbench/run.py`` is run through ``perfbench/child.py``
on the demo room (``simulate`` for one simulated second): once traced, once
untraced and once as a set-up probe. The tracer's self-checks fail the
process when a binding it wraps has moved, and its counters fail it when a
result loses the shape they read, so the traced run must exit 0 and record
calls on every span its workload expects. The tracer loads every layer
before the command starts; an untraced run loads only the clock hook's
module first, so it must still reach the hook, and a probe must stop at the
hook's first call.
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


def run_child(tmp_path: Path, workload, trace: bool, setup_only: bool) -> dict:
    """Run one measured process of ``workload`` and return its result file."""
    flags = list(workload.flags)
    if workload.command == "simulate":
        flags[flags.index("--duration") + 1] = "1"
    kind = "traced" if trace else "probe" if setup_only else "untraced"
    argv = [workload.command, str(BENCH.DEMO_SCENARIO), *flags, "--out", str(tmp_path / f"out-{kind}")]
    result = tmp_path / f"result-{kind}.json"
    spec = tmp_path / f"spec-{kind}.json"
    spec.write_text(json.dumps({
        "src": str(BENCH.SRC), "argv": argv, "hook": workload.hook, "trace": trace,
        "setup_only": setup_only, "result": str(result),
    }))
    done = subprocess.run(
        [sys.executable, str(PERFBENCH / "child.py"), str(spec)],
        cwd=BENCH.ROOT, env=BENCH.child_env(), capture_output=True, timeout=120, check=False,
    )
    assert done.returncode == 0, done.stderr.decode(errors="replace")
    report = json.loads(result.read_text())
    assert report["hook_times"], f"hook {workload.hook} never called"
    return report


@pytest.mark.parametrize("name", sorted(BENCH.WORKLOADS))
def test_workload_runs_traced_on_the_demo_room(tmp_path, name):
    workload = BENCH.WORKLOADS[name]
    spans = run_child(tmp_path, workload, trace=True, setup_only=False)["trace"]["spans"]
    assert [span for span in workload.expected_spans if not spans.get(span, [0])[0]] == []


@pytest.mark.parametrize("name", sorted(BENCH.WORKLOADS))
def test_workload_runs_untraced_on_the_demo_room(tmp_path, name):
    workload = BENCH.WORKLOADS[name]
    assert run_child(tmp_path, workload, trace=False, setup_only=False)["trace"] is None
    assert len(run_child(tmp_path, workload, trace=False, setup_only=True)["hook_times"]) == 1
