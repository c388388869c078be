"""The band solve gives the same bytes whichever BLAS kernel the CPU gets.

numpy's bundled OpenBLAS picks its kernels by CPU when it loads, and matrix
products and LAPACK calls round differently under different kernels. The
refinement's linear solve (``calib._band_solve``), the order it bands the
cameras in (``calib._band_order``) and ``calib.refine``'s own body therefore
make no BLAS or LAPACK call: a lint checks their source, and a run under
other ``OPENBLAS_CORETYPE`` kernels checks the bytes.
"""

import ast
import os
import platform
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
CALIB = ROOT / "src" / "ubimap" / "calib.py"
KERNEL_FREE = ("_band_order", "_inverse_cholesky", "_band_solve", "refine")
PRODUCTS = {"dot", "matmul", "einsum"}


def blas_calls(function: ast.FunctionDef) -> list[str]:
    """``@``, ``np.dot``, ``np.matmul``, ``np.einsum`` and ``np.linalg``
    functions in a function's source, by line."""
    found = []
    for node in ast.walk(function):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
            found.append(f"line {node.lineno}: @")
        elif isinstance(node, ast.Attribute):
            name = ast.unparse(node)
            if node.attr in PRODUCTS or (name.startswith("np.linalg.") and name != "np.linalg.LinAlgError"):
                found.append(f"line {node.lineno}: {name}")
    return found


def test_band_solve_and_refine_make_no_blas_or_lapack_call():
    functions = {node.name: node for node in ast.parse(CALIB.read_text()).body if isinstance(node, ast.FunctionDef)}
    assert {name: blas_calls(functions[name]) for name in KERNEL_FREE} == {name: [] for name in KERNEL_FREE}


# Prints the sha256 of the band solve's answer on a fixed system, built with
# no BLAS call either: 40 cameras, 6 blocks of bandwidth.
SOLVE = """
import hashlib
import numpy as np
from ubimap import calib
rng = np.random.default_rng(16)
band = rng.uniform(-1.0, 1.0, (240, 42))
for c in range(240):
    band[c, 42 - c % 6 :] = 0.0
    band[c, 240 - c :] = 0.0
band[:, 0] += 80.0
print(hashlib.sha256(calib._band_solve(band, 1e-3, rng.normal(size=240)).tobytes()).hexdigest())
"""


@pytest.mark.skipif(platform.machine().lower() not in ("x86_64", "amd64"), reason="OPENBLAS_CORETYPE names x86-64 kernels")
def test_band_solve_bytes_equal_across_openblas_kernels():
    digests = {}
    for kernel in ("", "Haswell", "Nehalem"):
        env = {key: value for key, value in os.environ.items() if key != "OPENBLAS_CORETYPE"}
        if kernel:
            env["OPENBLAS_CORETYPE"] = kernel
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
        done = subprocess.run([sys.executable, "-c", SOLVE], env=env, capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        digests[kernel] = done.stdout.strip()
    assert digests["Haswell"] == digests[""] and digests["Nehalem"] == digests[""], digests
