"""No output depends on which BLAS kernel or SIMD path the CPU gets.

numpy's bundled OpenBLAS picks its kernels by CPU when it loads, and matrix
products and LAPACK calls round differently under different kernels; numpy's
SIMD exponentials, logarithms and trigonometric functions can round
differently from one CPU to another. So no function of the package makes a
BLAS or LAPACK call or calls a numpy transcendental (``ubimap.algebra`` writes
the products out, and ``math`` gives the transcendentals): a lint checks the
source, runs under other ``OPENBLAS_CORETYPE`` kernels check the bytes, and a
count of OpenBLAS's resident pages checks that no run touches its code. A
second lint keeps numpy's sorting functions, whose first call maps numpy's
SIMD sort code, out of the package.
"""

import ast
import importlib.util
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import pytest

from test_golden import COMMANDS, DEMO_ROOM

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "ubimap"
PRODUCTS = {"np.dot", "np.matmul", "np.einsum", "np.vecdot", "np.vdot", "np.inner", "np.tensordot"}
TRANSCENDENTALS = {
    f"np.{name}"
    for name in (
        "exp", "exp2", "expm1", "log", "log2", "log10", "log1p", "logaddexp", "logaddexp2", "power", "float_power",
        "sin", "cos", "tan", "arcsin", "arccos", "arctan", "arctan2", "sinh", "cosh", "tanh", "arcsinh", "arccosh",
        "arctanh", "hypot", "cbrt",
    )
}
# (module, expression) pairs allowed to use @: an int64 matmul runs numpy's
# own integer loop and never reaches BLAS.
ALLOWED = {("pipeline.py", "seen_counts @ seen_counts.T")}
X86_64 = platform.machine().lower() in ("x86_64", "amd64")


def kernel_dependent_calls(tree: ast.AST, module: str) -> list[str]:
    """``@``, ``.dot``, numpy's products, ``np.linalg`` functions and numpy
    transcendentals in a module's source, by line."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
            if (module, ast.unparse(node)) not in ALLOWED:
                found.append(f"{module} line {node.lineno}: {ast.unparse(node)}")
        elif isinstance(node, ast.Attribute):
            name = ast.unparse(node)
            linalg = name.startswith("np.linalg.") and name != "np.linalg.LinAlgError"
            if node.attr == "dot" or name in PRODUCTS or name in TRANSCENDENTALS or linalg:
                found.append(f"{module} line {node.lineno}: {name}")
    return found


def test_src_makes_no_blas_lapack_or_transcendental_call():
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        found += kernel_dependent_calls(ast.parse(path.read_text(encoding="utf-8")), path.name)
    assert found == []


def test_lint_finds_each_kind_of_call():
    source = """
def f(a, b, seen_counts):
    a @ b
    a.dot(b)
    np.einsum("ij,jk", a, b)
    np.linalg.svd(a)
    np.exp(a)
    seen_counts @ seen_counts.T
    try:
        pass
    except np.linalg.LinAlgError:
        np.sqrt(a)
"""
    def calls(module):
        return sorted(entry.split(": ", 1)[1] for entry in kernel_dependent_calls(ast.parse(source), module))

    assert calls("pipeline.py") == ["a @ b", "a.dot", "np.einsum", "np.exp", "np.linalg.svd"]
    assert calls("geom.py") == sorted(calls("pipeline.py") + ["seen_counts @ seen_counts.T"])  # allowed in pipeline.py only


# numpy's sorting functions. Their first call in a process maps numpy's SIMD
# sort code, which nothing else the package calls uses: in a fresh process
# the first ``np.argsort`` of a 100-entry int64 permutation raised VmRSS by
# 320 kB, all of it file-backed, and a first ``np.sort`` of a (3, 50) float
# array by 192 kB, while the scatter ``inverse[order] = np.arange(n)`` raised
# it by 4 kB, none of it file-backed (read from /proc/self/status around each
# call, x86-64 Linux). Those pages count in every calibrating run's peak RSS,
# so the package inverts permutations by scatter (``algebra._positions``)
# and orders three eigenvalues by compare-exchange.
SORTS = {f"np.{name}" for name in ("sort", "argsort", "lexsort", "partition", "argpartition", "unique")}


def sort_calls(tree: ast.AST, module: str) -> list[str]:
    """numpy's sorting functions in a module's source, by line."""
    return [
        f"{module} line {node.lineno}: {ast.unparse(node)}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and ast.unparse(node) in SORTS
    ]


def test_src_makes_no_numpy_sort_call():
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        found += sort_calls(ast.parse(path.read_text(encoding="utf-8")), path.name)
    assert found == []


def test_sort_lint_finds_each_sorting_function():
    source = """
def f(a, order, line, cells):
    np.sort(a, axis=0)
    np.argsort(order)
    np.lexsort((a, order))
    np.partition(a, 1)
    np.argpartition(a, 1)
    np.unique(a)
    key, _, value = line.partition("=")
    cells.sort()
    sorted(order)
    inverse = np.empty_like(order)
    inverse[order] = np.arange(len(order))
"""
    found = sorted(entry.split(": ", 1)[1] for entry in sort_calls(ast.parse(source), "calib.py"))
    assert found == sorted(SORTS)


def kernel_env(kernel: str) -> dict[str, str]:
    env = {key: value for key, value in os.environ.items() if key != "OPENBLAS_CORETYPE"}
    if kernel:
        env["OPENBLAS_CORETYPE"] = kernel
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    env["PYTHONWARNINGS"] = "error::RuntimeWarning"  # as pyproject's filterwarnings does in process
    return env


# Prints the sha256 of the band solve's answer on a fixed system, built with
# no BLAS call either: 40 cameras, 6 blocks of bandwidth.
SOLVE = """
import hashlib
import numpy as np
from ubimap import algebra
rng = np.random.default_rng(16)
band = rng.uniform(-1.0, 1.0, (240, 42))
for c in range(240):
    band[c, 42 - c % 6 :] = 0.0
    band[c, 240 - c :] = 0.0
band[:, 0] += 80.0
print(hashlib.sha256(algebra.band_solve(band, 1e-3, rng.normal(size=240)).tobytes()).hexdigest())
"""


@pytest.mark.skipif(not X86_64, reason="OPENBLAS_CORETYPE names x86-64 kernels")
def test_band_solve_bytes_equal_across_openblas_kernels():
    digests = {}
    for kernel in ("", "Haswell", "Nehalem"):
        argv = [sys.executable, "-c", SOLVE]
        done = subprocess.run(argv, env=kernel_env(kernel), capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        digests[kernel] = done.stdout.strip()
    assert digests["Haswell"] == digests[""] and digests["Nehalem"] == digests[""], digests


@pytest.fixture(scope="module")
def scenes(tmp_path_factory):
    """The benchmark's generated ring(1), room(1) and lattice(1) scenarios
    (``perfbench/gen.py``), written out."""
    spec = importlib.util.spec_from_file_location("perfbench_gen", ROOT / "perfbench" / "gen.py")
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    directory = tmp_path_factory.mktemp("scenes")
    paths = {}
    for name in ("ring", "room", "lattice"):
        paths[name] = directory / f"{name}.scenario"
        gen.write(getattr(gen, name)(1), paths[name])
    return paths


# Runs each named command (a JSON object of CLI argument lists) into its own
# directory under the given one and prints the sha256 of every file written.
DIGESTS = """
import hashlib, json, sys
from pathlib import Path
from ubimap import cli
digests = {}
for name, argv in json.loads(sys.argv[1]).items():
    out = Path(sys.argv[2]) / name
    assert cli.main([*argv, "--out", str(out)]) == 0, name
    for path in sorted(out.iterdir()):
        digests[f"{name}/{path.name}"] = hashlib.sha256(path.read_bytes()).hexdigest()
print(json.dumps(digests))
"""


@pytest.mark.skipif(not X86_64, reason="OPENBLAS_CORETYPE names x86-64 kernels")
def test_cli_bytes_equal_across_openblas_kernels(scenes, tmp_path):
    commands = {name: [command, str(DEMO_ROOM), *flags] for name, (command, *flags) in COMMANDS.items()}
    commands["ring_calibrate"] = ["calibrate", str(scenes["ring"])]
    commands["room_calibrate"] = ["calibrate", str(scenes["room"])]
    commands["room_simulate"] = ["simulate", str(scenes["room"]), "--duration", "1"]
    digests = {}
    for kernel in ("", "Haswell", "Nehalem"):
        argv = [sys.executable, "-c", DIGESTS, json.dumps(commands), str(tmp_path / (kernel or "default"))]
        done = subprocess.run(argv, env=kernel_env(kernel), capture_output=True, text=True, timeout=600)
        assert done.returncode == 0, done.stderr
        digests[kernel] = json.loads(done.stdout.splitlines()[-1])
    assert len(digests[""]) > len(commands)
    assert digests["Haswell"] == digests[""]
    assert digests["Nehalem"] == digests[""]


# Prints the resident kB of OpenBLAS's mappings (Linux smaps) before and
# after running `ubimap` with the arguments given.
RESIDENT = """
import re, sys
from ubimap import cli
def openblas_kb():
    total, counting = 0, False
    with open("/proc/self/smaps") as fh:
        for line in fh:
            if re.match(r"[0-9a-f]+-[0-9a-f]+ ", line):
                counting = "openblas" in line
            elif counting and line.startswith("Rss:"):
                total += int(line.split()[1])
    return total
before = openblas_kb()
code = cli.main(sys.argv[1:])
print(before, openblas_kb())
sys.exit(code)
"""


@pytest.mark.skipif(not Path("/proc/self/smaps").is_file(), reason="reads Linux /proc/self/smaps")
def test_runs_fault_in_no_openblas_page(scenes, tmp_path):
    # A first matrix product, determinant, norm or SVD each faults in
    # OpenBLAS code pages; a run that makes none leaves them on disk.
    runs = {
        "calibrate": ["calibrate", str(scenes["ring"])],
        "simulate_room": ["simulate", str(scenes["room"]), "--duration", "1"],
        "simulate_demo": ["simulate", str(DEMO_ROOM)],
        "plan": ["plan", str(scenes["lattice"])],
    }
    resident = {}
    for name, argv in runs.items():
        done = subprocess.run(
            [sys.executable, "-c", RESIDENT, *argv, "--out", str(tmp_path / name)],
            env=kernel_env(os.environ.get("OPENBLAS_CORETYPE", "")), capture_output=True, text=True, timeout=300,
        )
        assert done.returncode == 0, done.stderr
        resident[name] = tuple(int(kb) for kb in done.stdout.split()[-2:])
    if not any(before for before, _ in resident.values()):
        pytest.skip("numpy's BLAS is not OpenBLAS: no mapping to count")
    assert all(before > 0 for before, _ in resident.values()), resident
    assert {name: after - before for name, (before, after) in resident.items()} == dict.fromkeys(runs, 0), resident
