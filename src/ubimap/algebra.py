"""Linear algebra in elementwise arithmetic, with no BLAS or LAPACK call:
OpenBLAS picks its kernels by CPU, and they round differently.

Small matrices are lists of rows of entries, each an array over a stack's
leading axes (``entries`` gives 0-d arrays for one matrix) or a Python float
where a caller passes floats (the EKF, ``geom.apply``). Every product sums
its terms in one fixed order, so a stack and each of its matrices give the
same bits. ``horn_rotation`` solves Horn's quaternion problem (Horn 1987,
JOSA A 4(4)) by cyclic Jacobi (Golub & Van Loan, Matrix Computations, 8.5);
``band_order`` and ``band_solve`` serve the calibration's normal equations.
"""

from __future__ import annotations

import math

import numpy as np
from numpy.lib.stride_tricks import as_strided

# A Jacobi rotation is skipped when the entry it would zero is at most this
# share of the Frobenius norm, which keeps cot(2 angle) below 2**59: no
# overflow. Sweeps stop when none is left to make, or after JACOBI_SWEEPS.
JACOBI_SKIP = 2.0**-60
JACOBI_SWEEPS = 30
# Rows per slice of the banded Cholesky's trailing update. Each slice is as
# wide as its first row's entries, so thinner slices multiply fewer zeros but
# take more numpy calls.
UPDATE_ROWS = 30


def entries(a) -> list[list]:
    """The entries of an (..., r, c) array as r rows of c entries, arrays
    over the leading axes (0-d for one matrix)."""
    a = np.asarray(a, dtype=float)
    return [[a[..., i, j] for j in range(a.shape[-1])] for i in range(a.shape[-2])]


def to_array(m: list[list]) -> np.ndarray:
    """The (..., r, c) array of a matrix given as rows of entries."""
    flat = np.broadcast_arrays(*[np.asarray(x, dtype=float) for row in m for x in row])
    return np.stack(flat, axis=-1).reshape(flat[0].shape + (len(m), len(m[0])))


def inner(x, y):
    """x[0] y[0] + x[1] y[1] + ..., summed left to right (unrolled for speed)."""
    if len(x) == 3:
        return x[0] * y[0] + x[1] * y[1] + x[2] * y[2]
    if len(x) == 2:
        return x[0] * y[0] + x[1] * y[1]
    total = x[0] * y[0]
    for a, b in zip(x[1:], y[1:]):
        total = total + a * b
    return total


def product(a: list[list], b: list[list]) -> list[list]:
    """a @ b, each entry summed in the order of the shared index."""
    return [[inner(row, col) for col in zip(*b)] for row in a]


def transform(m: list[list], v: list) -> list:
    """m @ v for a vector v of entries."""
    return [inner(row, v) for row in m]


def affine(m: list[list], t: list, v: list) -> list:
    """m @ v + t for a vector v of entries, t added last."""
    return [inner(row, v) + c for row, c in zip(m, t)]


def cross(u: list, v: list) -> list:
    """u x v for 3-vectors of entries."""
    return [u[1] * v[2] - u[2] * v[1], u[2] * v[0] - u[0] * v[2], u[0] * v[1] - u[1] * v[0]]


def transpose(a: list[list]) -> list[list]:
    return [list(col) for col in zip(*a)]


def symmetric(upper: list[list]) -> list[list]:
    """The symmetric matrix whose upper triangle ``upper`` holds (entries
    below its diagonal are not read)."""
    n = len(upper)
    return [[upper[min(p, q)][max(p, q)] for q in range(n)] for p in range(n)]


def det3(m: list[list]):
    """Determinant of a 3x3 matrix by cofactors along the first row."""
    return (
        m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
        - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
        + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])
    )


def inverse2(m: list[list[float]]) -> list[list[float]]:
    """Inverse of a 1x1 or 2x2 matrix: the adjugate over the determinant."""
    if len(m) == 1:
        return [[1.0 / m[0][0]]]
    (a, b), (c, d) = m
    det = a * d - b * c
    return [[d / det, -b / det], [-c / det, a / det]]


def jacobi_eigen(a: list[list]) -> tuple[list, list[list]]:
    """Eigenvalues (unsorted) and the matrix of unit eigenvectors (column k
    for value k) of symmetric matrices, upper triangle read, elementwise
    over a stack. A rotation one matrix of a stack does not need leaves it
    untouched, so each matrix gets the bits it gets alone."""
    n = len(a)
    a = symmetric(a)
    shape = np.broadcast_shapes(*(np.shape(x) for row in a for x in row))
    a = [[np.broadcast_to(np.asarray(x, dtype=float), shape).copy() for x in row] for row in a]
    one = np.ones(shape)
    v = [[one * float(p == q) for q in range(n)] for p in range(n)]
    tiny = JACOBI_SKIP * np.sqrt(inner([x for row in a for x in row], [x for row in a for x in row]))
    for _ in range(JACOBI_SWEEPS):
        rotated = False
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p][q]
                rotate = np.abs(apq) > tiny
                if not np.any(rotate):
                    continue
                rotated = True
                theta = (a[q][q] - a[p][p]) / (2.0 * np.where(rotate, apq, 1.0))
                t = np.where(theta < 0.0, -1.0, 1.0) / (np.abs(theta) + np.sqrt(theta * theta + 1.0))
                c = 1.0 / np.sqrt(t * t + 1.0)
                s = t * c
                a[p][p] = np.where(rotate, a[p][p] - t * apq, a[p][p])
                a[q][q] = np.where(rotate, a[q][q] + t * apq, a[q][q])
                a[p][q] = a[q][p] = np.where(rotate, 0.0, apq)
                for r in range(n):
                    if r != p and r != q:
                        arp, arq = a[r][p], a[r][q]
                        a[r][p] = a[p][r] = np.where(rotate, c * arp - s * arq, arp)
                        a[r][q] = a[q][r] = np.where(rotate, s * arp + c * arq, arq)
                for row in v:
                    vp, vq = row[p], row[q]
                    row[p] = np.where(rotate, c * vp - s * vq, vp)
                    row[q] = np.where(rotate, s * vp + c * vq, vq)
        if not rotated:
            break
    return [a[k][k] for k in range(n)], v


def horn_rotation(b: list[list]) -> list[list]:
    """The proper rotations R maximizing tr(R^T B) for a stack of 3x3 B (the
    best alignment when B sums centred target x source^T; the nearest
    rotation to B), from the top eigenvector of Horn's 4x4 matrix."""
    (b00, b01, b02), (b10, b11, b12), (b20, b21, b22) = b
    horn = [
        [b00 + b11 + b22, b21 - b12, b02 - b20, b10 - b01],
        [None, b00 - b11 - b22, b10 + b01, b02 + b20],
        [None, None, -b00 + b11 - b22, b21 + b12],
        [None, None, None, -b00 - b11 + b22],
    ]
    values, vectors = jacobi_eigen(horn)
    top = np.argmax(np.stack(values), axis=0)
    w, x, y, z = (np.choose(top, row) for row in vectors)
    norm = np.sqrt(w * w + x * x + y * y + z * z)
    w, x, y, z = w / norm, x / norm, y / norm, z / norm
    return [
        [w * w + x * x - y * y - z * z, 2.0 * (x * y - w * z), 2.0 * (x * z + w * y)],
        [2.0 * (x * y + w * z), w * w - x * x + y * y - z * z, 2.0 * (y * z - w * x)],
        [2.0 * (x * z - w * y), 2.0 * (y * z + w * x), w * w - x * x - y * y + z * z],
    ]


def band_order(free: int, pairs: np.ndarray) -> tuple[np.ndarray, int]:
    """A block reverse Cuthill-McKee order of ``free`` cameras joined by the
    (E, 2) ``pairs`` (Cuthill & McKee 1969; George & Liu 1981), and its
    bandwidth max |position a - position b| over the pairs: breadth first
    from the least connected unvisited camera, neighbours by degree, then by
    index, the visits reversed; the natural order if that is narrower."""
    neighbours = [set() for _ in range(free)]
    for a, b in pairs.tolist():
        neighbours[a].add(b)
        neighbours[b].add(a)
    rank = {v: (len(neighbours[v]), v) for v in range(free)}
    visits, placed, head = [], set(), 0
    for start in sorted(range(free), key=rank.get):
        if start in placed:
            continue
        placed.add(start)
        visits.append(start)
        while head < len(visits):
            fresh = sorted(neighbours[visits[head]] - placed, key=rank.get)
            placed.update(fresh)
            visits.extend(fresh)
            head += 1
    orders = (np.array(visits[::-1], dtype=np.intp), np.arange(free))
    widths = [int(np.max(np.abs(np.diff(_positions(order)[pairs], axis=1)), initial=0)) for order in orders]
    return min(zip(orders, widths), key=lambda pair: pair[1])


def _positions(order: np.ndarray) -> np.ndarray:
    """The inverse of the permutation ``order``, by a scatter: ``np.argsort`` maps numpy's sort code."""
    positions = np.empty_like(order)
    positions[order] = np.arange(len(order))
    return positions


def inverse_cholesky(a: list[list[float]]) -> list[list[float]]:
    """inverse(L), L the lower Cholesky factor of the 6x6 matrix whose lower
    triangle ``a`` holds, in Python floats; a pivot that is not positive
    raises ``np.linalg.LinAlgError``."""
    low = []
    for i, a_i in enumerate(a):
        row = []
        for j, low_j in enumerate(low):
            total = a_i[j]
            for x, y in zip(row, low_j):
                total -= x * y
            row.append(total / low_j[j])
        total = a_i[i]
        for x in row:
            total -= x * x
        if not total > 0.0:
            raise np.linalg.LinAlgError("normal equations are not positive definite")
        low.append(row + [math.sqrt(total)])
    inverse = [[0.0] * 6 for _ in range(6)]
    for j, row in enumerate(low):
        for i in range(j):
            total = 0.0
            for m in range(i, j):
                total -= row[m] * inverse[m][i]
            inverse[j][i] = total / row[j]
        inverse[j][j] = 1.0 / row[j]
    return inverse


def band_solve(band: np.ndarray, damping: float, rhs: np.ndarray) -> np.ndarray:
    """Solve (A + damping I) x = rhs for the symmetric A whose lower band
    ``band`` holds (``band[c, d]`` = entry (c + d, c)) by a block Cholesky,
    right-looking by 6-column blocks in elementwise numpy, the forward
    substitution riding along. A must be banded by whole 6x6 blocks: entries
    of a column below its band's last block are not read. The factor
    overwrites ``band``."""
    size, width = band.shape
    band[:, 0] += damping
    item = band.itemsize
    dense = as_strided(band, shape=(size, size), strides=(item, item * (width - 1)))  # in-band (r, c) only
    padded = np.zeros((6, 2 * width))
    shifted = as_strided(padded, shape=(6, width, width), strides=(2 * width * item, item, item))  # padded[k, c + d]
    inverses, x, update = [], rhs.copy(), np.empty((2, UPDATE_ROWS * width))
    for s in range(0, size, 6):
        n = min(width, size - s) - 6
        inverse = np.array(inverse_cholesky(dense[s : s + 6, s : s + 6].tolist()), dtype=float)
        inverses.append(inverse)
        x[s : s + 6] = (inverse * x[s : s + 6]).sum(axis=1)
        panel = dense[s + 6 : s + 6 + n, s : s + 6].T  # becomes the 6 columns of L below the block
        panel[...] = padded[:, :n] = (inverse[:, :, None] * panel).sum(axis=1)
        padded[:, n:] = 0.0
        x[s + 6 : s + 6 + n] -= (panel * x[s : s + 6, None]).sum(axis=0)
        # Band entry (s + 6 + c, d) of the trailing window loses sum_k panel[k, c + d] panel[k, c] where
        # c + d < n: slices of rows c, each as wide as its first row's entries, summed k after k in a
        # contiguous buffer, so each sum runs over one flat run, not row by row.
        for c in range(0, n, UPDATE_ROWS):
            e = min(c + UPDATE_ROWS, n)
            total, term = (buffer[: (e - c) * (n - c)].reshape(e - c, n - c) for buffer in update)
            np.multiply(shifted[0, c:e, : n - c], panel[0, c:e, None], out=total)
            for k in range(1, 6):
                total += np.multiply(shifted[k, c:e, : n - c], panel[k, c:e, None], out=term)
            band[s + 6 + c : s + 6 + e, : n - c] -= total
    for s in range(size - 6, -1, -6):
        n = min(width, size - s) - 6
        rest = x[s : s + 6] - (dense[s + 6 : s + 6 + n, s : s + 6].T * x[s + 6 : s + 6 + n]).sum(axis=1)
        x[s : s + 6] = (inverses.pop() * rest[:, None]).sum(axis=0)
    return x
