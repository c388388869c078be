"""Camera-placement optimization over the grid: greedy set cover + an
exhaustive oracle.

A placement problem fixes a candidate pool of cameras, per-cell overlap
bounds [min_overlap, max_overlap] and a camera budget; the target cells are
the free cells, ``~world.walls``. The objective is the number of
distinct target cells covered; the max-overlap bound is enforced as a hard
constraint, while min_overlap is reported as violations (and greedily
repaired when budget remains), since it exists to guarantee calibration
overlap zones rather than coverage. Cells are held as grid masks and
bitsets, the violations included: no cell is listed one by one.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .world import CameraSpec, CellIndex, GridWorld, covered_cells


class ProblemTooLargeError(ValueError):
    """Exhaustive enumeration was asked for on an instance above its cap."""


@dataclass(frozen=True)
class CoverageProblem:
    """A placement instance. Its target cells are the world's free cells,
    ``~world.walls``."""

    world: GridWorld
    candidates: tuple[CameraSpec, ...]
    min_overlap: int = 0
    max_overlap: int = 1_000_000
    budget: int = 1_000_000

    def __post_init__(self) -> None:
        if self.min_overlap < 0:
            raise ValueError("min_overlap must be >= 0")
        if self.max_overlap < max(self.min_overlap, 1):
            raise ValueError("max_overlap must be >= max(min_overlap, 1)")
        if self.budget < 1:
            raise ValueError("budget must be >= 1")
        ids = [cam.id for cam in self.candidates]
        if len(ids) != len(set(ids)):
            raise ValueError("candidate camera ids must be unique")


class PlacementPlan(NamedTuple):
    """A selection of candidates; counts is the (height, width) array of
    how many selected cameras cover each cell, and violated the read-only
    (height, width) bool mask of the target cells whose count lies outside
    [min_overlap, max_overlap]."""

    selected: tuple[int, ...]
    counts: np.ndarray
    coverage_ratio: float
    violated: np.ndarray

    # Plans compare by identity: a tuple comparison would ask their arrays for one truth value.
    __eq__, __ne__, __hash__ = object.__eq__, object.__ne__, object.__hash__


def objective(plan: PlacementPlan, problem: CoverageProblem) -> int:
    """Distinct target cells covered: sum over cells of min(1, multiplicity)."""
    return int(np.count_nonzero(~problem.world.walls & (plan.counts > 0)))


def _plan(problem: CoverageProblem, selected_ids: tuple[int, ...], masks) -> PlacementPlan:
    """The plan of a selection, given its cameras' (height, width) cover masks."""
    world = problem.world
    counts = np.zeros((world.height, world.width), dtype=np.int64)
    for mask in masks:
        counts += mask
    target = ~world.walls
    targets = int(np.count_nonzero(target))
    ratio = int(np.count_nonzero(target & (counts > 0))) / targets if targets else 1.0
    violated = target & ((counts < problem.min_overlap) | (counts > problem.max_overlap))
    violated.setflags(write=False)
    return PlacementPlan(selected=tuple(selected_ids), counts=counts, coverage_ratio=ratio, violated=violated)


# A bitset holds a (height, width) mask's cell (col, row) at bit row * width + col.


def _mask_bits(mask: np.ndarray) -> int:
    return int.from_bytes(np.packbits(mask, bitorder="little").tobytes(), "little")


def _bits_mask(bits: int, world: GridWorld) -> np.ndarray:
    cells = world.width * world.height
    packed = np.frombuffer(bits.to_bytes((cells + 7) // 8, "little"), dtype=np.uint8)
    return np.unpackbits(packed, count=cells, bitorder="little").reshape(world.height, world.width)


def _cover_bits(problem: CoverageProblem) -> tuple[int, dict[int, int]]:
    """The target bitset, and each candidate's cover bitset keyed by
    candidate id in ascending order. Candidates are walked one sight point
    at a time: the cameras at a point share their sight lines, and only one
    point's masks and line-of-sight segments are held at once."""
    world = problem.world
    target = _mask_bits(~world.walls)
    cover = dict.fromkeys(sorted(cam.id for cam in problem.candidates))
    by_site = sorted(problem.candidates, key=lambda c: (c.x, c.y))
    for _, site in itertools.groupby(by_site, key=lambda c: (c.x, c.y)):
        site = list(site)
        cover.update(zip([cam.id for cam in site], map(_mask_bits, covered_cells(site, world))))
    return target, cover


def _level(levels: list[int], m: int) -> int:
    return levels[m] if m < len(levels) else 0


def _add_cover(levels: list[int], cover: int) -> None:
    """Count one more camera over ``cover``; ``levels[m]`` holds the target
    cells covered at least m times, so one selection adds one level. The update
    runs from the top level down, so each level reads the level below as it
    was before this camera."""
    levels.append(0)
    for m in range(len(levels) - 1, 0, -1):
        levels[m] |= levels[m - 1] & cover


def plan_greedy(problem: CoverageProblem) -> PlacementPlan:
    """Greedy set cover: repeatedly add the candidate with the largest
    marginal coverage gain that keeps every target cell within max_overlap.

    Stops at the budget, at zero marginal gain, or at full target coverage.
    If min_overlap >= 1 and budget remains, a repair pass then adds the
    candidates that best reduce under-coverage. Deterministic: ties break
    toward the smaller candidate id.
    """
    if not problem.candidates:
        raise ValueError("plan_greedy requires a nonempty candidate pool")
    target, cover = _cover_bits(problem)
    selected: list[int] = []
    levels = [target]
    # Cover every target cell once, then repair up to min_overlap: each pass
    # scores a candidate by the target cells it lifts toward ``need``.
    for need in (1, problem.min_overlap):
        while len(selected) < problem.budget and _level(levels, need) != target:
            short, full = target & ~_level(levels, need), _level(levels, problem.max_overlap)
            best_id, best_score = None, 0
            for cid, bits in cover.items():
                if cid in selected or bits & full:
                    continue
                score = (bits & short).bit_count()
                if score > best_score:
                    best_id, best_score = cid, score
            if best_id is None:
                break
            selected.append(best_id)
            _add_cover(levels, cover[best_id])

    return _plan(problem, tuple(selected), (_bits_mask(cover[cid], problem.world) for cid in selected))


def plan_exhaustive(problem: CoverageProblem) -> PlacementPlan:
    """Optimal plan by subset enumeration (the test oracle for greedy).

    Maximizes the objective over every subset within the budget that keeps
    all target-cell multiplicities <= max_overlap. Ties break toward fewer
    cameras, then the lexicographically smallest id tuple. Instances above
    20 candidates (2^20 subsets) are refused.
    """
    n = len(problem.candidates)
    if n > 20:
        raise ProblemTooLargeError(f"{n} candidates exceed the enumeration cap of 20")
    total = sum(math.comb(n, size) for size in range(min(problem.budget, n) + 1))
    if total > 2**20:
        raise ProblemTooLargeError(f"{total} subsets exceed the enumeration cap of 2^20")

    target, cover = _cover_bits(problem)
    best_ids: tuple[int, ...] = ()
    best_obj = -1
    # Subsets come by size, then in lexicographic id order, so the first
    # subset to reach an objective wins its ties.
    for size in range(min(problem.budget, n) + 1):
        for combo in itertools.combinations(cover, size):
            levels = [target]
            for cid in combo:
                if cover[cid] & _level(levels, problem.max_overlap):
                    break
                _add_cover(levels, cover[cid])
            else:
                obj = _level(levels, 1).bit_count()
                if obj > best_obj:
                    best_obj, best_ids = obj, combo
    return _plan(problem, best_ids, (_bits_mask(cover[cid], problem.world) for cid in best_ids))


def lattice_candidates(
    world: GridWorld,
    *,
    spacing_cells: int,
    height: float,
    hfov: float,
    vfov: float,
    max_range: float,
) -> tuple[CameraSpec, ...]:
    """Candidate pool on a position lattice x 8 yaw angles (45 deg apart), camera ids from 1."""
    rows, cols = range(0, world.height, spacing_cells), range(0, world.width, spacing_cells)
    sites = [world.cell_center(CellIndex(col, row)) for row in rows for col in cols]
    return tuple(
        CameraSpec(id=1 + k, x=x, y=y, height=height, yaw=(k % 8) * math.pi / 4.0, hfov=hfov, vfov=vfov,
                   max_range=max_range)
        for k, (x, y) in enumerate(site for site in sites for _ in range(8))
    )
