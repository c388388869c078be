"""CLI runs, each in a fresh process, on the benchmark's generated scenes:
on the 20-camera room (``perfbench/gen.py room 1``) peak memory of
``simulate`` does not grow with the run length and no output depends on the
BLAS thread count; on the 100-camera ring (``perfbench/gen.py ring`` seeds
1 and 6) ``calibrate`` keeps its pinned bytes; noisy runs on both never
import ``numpy.random`` or ``hashlib``.
"""

import hashlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# Runs `ubimap` with the arguments given and prints the process's peak
# resident set (Linux VmHWM, in kB) as the last line.
PEAK_RSS = """
import sys
from ubimap import cli
code = cli.main(sys.argv[1:])
with open("/proc/self/status") as fh:
    print(next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:")))
sys.exit(code)
"""


@pytest.fixture(scope="module")
def gen():
    spec = importlib.util.spec_from_file_location("perfbench_gen", ROOT / "perfbench" / "gen.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def room(gen, tmp_path_factory):
    path = tmp_path_factory.mktemp("room") / "room.scenario"
    gen.write(gen.room(1), path)
    return path


def ubimap_env(**blas) -> dict[str, str]:
    env = {key: value for key, value in os.environ.items() if key not in BLAS_VARS}
    env.update(blas)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def run(argv, env, *python_args) -> subprocess.CompletedProcess:
    done = subprocess.run(
        [sys.executable, *python_args, *argv], env=env, capture_output=True, text=True, timeout=300, check=False
    )
    assert done.returncode == 0, done.stderr
    return done

# Runs `ubimap` with the arguments given and prints, as the last line, which
# of the modules a numpy Generator pulls in the run has loaded.
LOADED_MODULES = """
import sys
from ubimap import cli
code = cli.main(sys.argv[1:])
print(sorted(name for name in ("numpy.random", "hashlib", "secrets") if name in sys.modules))
sys.exit(code)
"""


@pytest.mark.skipif(not Path("/proc/self/status").is_file(), reason="reads VmHWM from /proc")
def test_simulate_peak_memory_flat_in_run_length(room, tmp_path):
    # Every frame sent, localization row and observation row goes to its
    # file as it is produced; buffering them grew the peak by about 15 MB
    # from 3.5 to 14 simulated seconds.
    peak_kb = {}
    for duration in ("3.5", "14"):
        argv = ["simulate", str(room), "--duration", duration, "--jitter-ms", "10", "--out", str(tmp_path / duration)]
        done = run(argv, ubimap_env(), "-c", PEAK_RSS)
        peak_kb[duration] = int(done.stdout.splitlines()[-1])
    assert peak_kb["14"] - peak_kb["3.5"] <= 2 * 1024, peak_kb


def test_outputs_independent_of_blas_threads(room, tmp_path):
    # OpenBLAS can round large products differently with more than one
    # thread. Importing ubimap pins one thread, so every setting gives the
    # same bytes.
    commands = {
        "calibrate": ["calibrate", str(room)],
        "simulate": ["simulate", str(room), "--duration", "1"],
    }
    outputs = {}
    for threads in ("1", "2", None):
        env = ubimap_env() if threads is None else ubimap_env(OPENBLAS_NUM_THREADS=threads)
        for name, argv in commands.items():
            out = tmp_path / f"{name}-{threads}"
            run([*argv, "--out", str(out)], env, "-m", "ubimap.cli")
            outputs[name, threads] = {path.name: path.read_bytes() for path in sorted(out.iterdir())}
    for name in commands:
        assert outputs[name, "1"], name
        assert outputs[name, "2"] == outputs[name, "1"], name
        assert outputs[name, None] == outputs[name, "1"], name


def ring_calibration_digest(gen, tmp_path, seed) -> str:
    path = tmp_path / "ring.scenario"
    gen.write(gen.ring(seed), path)
    run(["calibrate", str(path), "--out", str(tmp_path / "out")], ubimap_env(), "-m", "ubimap.cli")
    return hashlib.sha256((tmp_path / "out" / "calibration.csv").read_bytes()).hexdigest()


def test_calibrate_ring_bytes_pinned(gen, tmp_path):
    # 100 cameras and 506 edges: a pairing fault across many cameras changes
    # these bytes, which the 4-camera golden table cannot see.
    digest = ring_calibration_digest(gen, tmp_path, 1)
    assert digest == "232ced268b24a16db98cb46434a64040ab6e1f658eadaad2b4bd5ad2dd634c71"


# On this seed LM rejects steps (16 cost evaluations for 10 accepted steps,
# against 6 for 5 on seed 1), so the damped retries and their rounding reach
# the bytes.
REJECTING_RING_DIGESTS = {
    6: "16a65c6c6b98fe84d719b3caf7e4abf826d0096f24a3f793b04df16f503e5adc",
}


@pytest.mark.parametrize("seed", sorted(REJECTING_RING_DIGESTS))
def test_calibrate_ring_bytes_pinned_where_lm_rejects_steps(gen, tmp_path, seed):
    assert ring_calibration_digest(gen, tmp_path, seed) == REJECTING_RING_DIGESTS[seed]


def test_noisy_runs_never_import_numpy_random(gen, room, tmp_path):
    # Sensor noise comes from sensim's own Philox generator. A numpy
    # Generator would import numpy.random, and with it hashlib and OpenSSL.
    # In-process tests import numpy.random themselves, hence fresh processes.
    ring = tmp_path / "ring.scenario"
    gen.write(gen.ring(1), ring)
    runs = {
        "calibrate": ["calibrate", str(ring), "--noise-sigma", "0.01"],
        "simulate": ["simulate", str(room), "--duration", "1", "--noise-sigma", "0.01"],
    }
    for name, argv in runs.items():
        done = run([*argv, "--out", str(tmp_path / name)], ubimap_env(), "-c", LOADED_MODULES)
        assert done.stdout.splitlines()[-1] == "[]", name


# The demo room stretched to 4096x4095 cells, the largest grid a map
# message carries whose sides are both near 2**12. Its four cameras each see
# a few dozen cells. Before footprints were tested over their bounding boxes
# and targets held as a mask, `plan` exited 4 with an empty message after
# peaking at 1,220,284 kB under this cap, and `simulate --duration 0.2`
# peaked at 2,219,300 kB with no cap.
BIG_ROOM_CAP_BYTES = 1_500_000 * 1024  # CI's `ulimit -v 1500000`
BIG_ROOM_PEAK_BOUNDS_KB = {"plan": 1_220_284 // 4, "simulate": 2_219_300 // 2}
BIG_ROOM_SIMULATE_DIGESTS = {
    "capture.hex": "72e25289144715f0719493d2bb457c81e1f59e4241ae26fc4e0da16d016a673e",
    "final_map.ppm": "01345314fd55952de2b5de15271e226a2ccbb7f12102f9c4aa8db22303423c7e",
    "localization.csv": "0f6aa0a762f84dff32a2c6a5fd3f9d9cadb3c6f85bbf2efa479b68e840523dc1",
    "summary.csv": "d00c39e05b9df0591c5179181024c39406ca767e22df40bc249a86f7288aba85",
}


def cap_address_space() -> None:
    import resource

    resource.setrlimit(resource.RLIMIT_AS, (BIG_ROOM_CAP_BYTES, BIG_ROOM_CAP_BYTES))


@pytest.fixture
def big_room(tmp_path) -> Path:
    demo = (ROOT / "scenarios" / "demo_room.scenario").read_text(encoding="ascii")
    big = tmp_path / "big.scenario"
    big.write_text(demo.replace("  width = 12\n", "  width = 4096\n").replace("  height = 10\n", "  height = 4095\n"))
    return big


def capped_peak_kb(argv) -> int:
    """Runs `ubimap` under the big room's address-space cap; asserts exit 0
    and returns the process's peak resident set in kB."""
    done = subprocess.run(
        [sys.executable, "-c", PEAK_RSS, *argv],
        env=ubimap_env(), capture_output=True, text=True, timeout=300, check=False, preexec_fn=cap_address_space,
    )
    assert done.returncode == 0, (argv[0], done.stderr)
    return int(done.stdout.splitlines()[-1])


@pytest.mark.skipif(not Path("/proc/self/status").is_file(), reason="reads VmHWM from /proc")
def test_big_room_runs_in_memory_that_follows_the_cameras(big_room, tmp_path):
    commands = {"plan": ["plan", str(big_room)], "simulate": ["simulate", str(big_room), "--duration", "0.2"]}
    for name, argv in commands.items():
        peak_kb = capped_peak_kb([*argv, "--out", str(tmp_path / name)])
        assert peak_kb <= BIG_ROOM_PEAK_BOUNDS_KB[name], (name, peak_kb)
    digests = {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest() for path in sorted((tmp_path / "simulate").iterdir())
    }
    assert digests == BIG_ROOM_SIMULATE_DIGESTS
    assert (tmp_path / "plan" / "plan.csv").read_text().splitlines() == [
        "key,value", "selected,2 3 1 4", "cameras_selected,4", "coverage_ratio,6.796590448667976e-06", "objective,114",
        "violations,0", "multiplicity_0,16773002", "multiplicity_1,64", "multiplicity_2,43", "multiplicity_3,5",
        "multiplicity_4,2",
    ]


@pytest.mark.skipif(not Path("/proc/self/status").is_file(), reason="reads VmHWM from /proc")
def test_walled_big_room_renders_under_the_cap(big_room, tmp_path):
    # Full wall rows 11 to 4094, a 79 KB document of 16.7 M wall cells. While
    # the parser expanded each row into one cell tuple per wall cell, render
    # exited 4 with MemoryError under this cap.
    walled = tmp_path / "walled.scenario"
    rows = "".join(f"  row {row} 0..4095\n" for row in range(11, 4095))
    walled.write_text(big_room.read_text() + f"section walls\n{rows}end\n")
    capped_peak_kb(["render", str(walled), "--out", str(tmp_path / "render")])
    assert (tmp_path / "render" / "map.ppm").stat().st_size == len(b"P6\n4096 4095\n255\n") + 4096 * 4095 * 3


@pytest.mark.skipif(not Path("/proc/self/status").is_file(), reason="reads VmHWM from /proc")
def test_big_room_plan_lists_every_violation_under_the_cap(big_room, tmp_path):
    # With --min-overlap 1 every free cell but the 114 the cameras see is
    # violated, so the cap holds only if the 16,773,002 rows stream from the
    # violated mask: a list of (cell, count) pairs does not fit under it.
    out = tmp_path / "plan"
    peak_kb = capped_peak_kb(["plan", str(big_room), "--min-overlap", "1", "--out", str(out)])
    assert peak_kb <= 500 * 1024, peak_kb
    digest = hashlib.sha256((out / "plan.csv").read_bytes()).hexdigest()
    assert digest == "ce121dbe170e82848091ce59713ed2e37032720e486ba1df49378da8a48dfb64"
    violations = out / "plan_violations.csv"
    with open(violations, "rb") as fh:
        lines = sum(chunk.count(b"\n") for chunk in iter(lambda: fh.read(1 << 20), b""))
        fh.seek(0)
        head = [fh.readline(), fh.readline()]
        fh.seek(-32, os.SEEK_END)
        last = fh.read().splitlines()[-1]
    violations.unlink()  # 192 MB
    assert lines == 16_773_003
    assert head == [b"col,row,multiplicity\n", b"0,6,0\n"]
    assert last == b"4095,4094,0"
