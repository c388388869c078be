import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ubimap.coverage import (
    CoverageProblem,
    PlacementPlan,
    ProblemTooLargeError,
    lattice_candidates,
    objective,
    plan_exhaustive,
    plan_greedy,
)
from ubimap.world import CameraSpec, CellIndex, GridWorld, covered_cells

from oracles import build_plan, target_cells, violations


def make_camera(x, y, *, width, depth, yaw=0.0, cid=1, height=2.0):
    hfov = 2.0 * math.atan(width / (2.0 * height))
    vfov = 2.0 * math.atan(depth / height)
    return CameraSpec(id=cid, x=x, y=y, height=height, yaw=yaw, hfov=hfov, vfov=vfov, max_range=100.0)


def trap_problem(budget=2, k=2):
    """Greedy trap: the 6-cell bait beats either 4-cell row camera, but the
    two row cameras together cover all 8 cells."""
    world = GridWorld(cell_size=1.0, width=4, height=2)
    p = make_camera(2.0, 1.0, width=4.0, depth=1.0, cid=1)
    q = make_camera(2.0, 0.0, width=4.0, depth=1.0, cid=2)
    r = make_camera(1.5, 0.0, width=3.0, depth=2.0, cid=3)
    return CoverageProblem(world=world, candidates=(p, q, r), max_overlap=k, budget=budget)


# Total coverage is the union of the selected cameras' cover masks.


def test_total_coverage_empty_selection():
    world = GridWorld(cell_size=1.0, width=4, height=3)
    masks = covered_cells([], world)
    assert masks.shape == (0, 3, 4) and masks.dtype == bool
    assert not masks.any(axis=0).any()


def test_total_coverage_single_camera():
    world = GridWorld(cell_size=1.0, width=6, height=6)
    cam = make_camera(3.0, 2.0, width=2.0, depth=2.0)
    union = covered_cells([cam], world).any(axis=0)
    assert {CellIndex(col, row) for row, col in zip(*np.nonzero(union))} == covered_cells(cam, world)


def test_total_coverage_disjoint_union():
    problem = trap_problem()
    p, q, _ = problem.candidates
    a = covered_cells(p, problem.world)
    b = covered_cells(q, problem.world)
    assert a & b == set()
    assert covered_cells([p, q], problem.world).any(axis=0).sum() == len(a) + len(b)


def test_objective_full_coverage():
    world = GridWorld(cell_size=1.0, width=4, height=4)
    cam = make_camera(2.0, 0.0, width=4.0, depth=4.0, cid=1)
    problem = CoverageProblem(world=world, candidates=(cam,))
    plan = build_plan(problem, (1,))
    assert objective(plan, problem) == 16
    assert plan.coverage_ratio == 1.0


def test_objective_empty_plan():
    problem = trap_problem()
    plan = build_plan(problem, ())
    assert objective(plan, problem) == 0


def test_objective_counts_overlap_once():
    # Two cameras share 3 cells; the objective must match a per-cell
    # min(1, multiplicity) sum computed independently.
    problem = trap_problem(k=10)
    p, q, r = problem.candidates
    plan = build_plan(problem, (1, 3))
    per_cam = [covered_cells(p, problem.world), covered_cells(r, problem.world)]
    oracle = sum(
        min(1, sum(cell in cover for cover in per_cam)) for cell in target_cells(problem)
    )
    assert objective(plan, problem) == oracle
    assert oracle < sum(len(cover) for cover in per_cam)  # overlap existed


def test_check_overlap_no_min_violations_when_m_zero():
    problem = trap_problem()
    plan = build_plan(problem, (1,))
    assert all(count > problem.max_overlap for _, count in violations(plan))


def test_check_overlap_empty_plan_violates_everywhere_when_m_one():
    world = GridWorld(cell_size=1.0, width=4, height=4)
    cam = make_camera(2.0, 0.0, width=4.0, depth=4.0, cid=1)
    problem = CoverageProblem(world=world, candidates=(cam,), min_overlap=1, max_overlap=2)
    plan = build_plan(problem, ())
    violated = violations(plan)
    assert len(violated) == 16
    assert all(count == 0 for _, count in violated)


def test_check_overlap_double_cover_with_k_one():
    world = GridWorld(cell_size=1.0, width=4, height=2)
    a = make_camera(2.0, 0.0, width=4.0, depth=2.0, cid=1)
    b = make_camera(2.0, 0.0, width=4.0, depth=2.0, cid=2)
    problem = CoverageProblem(world=world, candidates=(a, b), max_overlap=1)
    plan = build_plan(problem, (1, 2))
    violated = {cell for cell, count in violations(plan)}
    # Multiplicity histogram oracle: every cell covered twice is violated.
    histogram = {}
    for cam in (a, b):
        for cell in covered_cells(cam, world):
            histogram[cell] = histogram.get(cell, 0) + 1
    assert violated == {cell for cell, n in histogram.items() if n > 1}
    assert violated == covered_cells(a, world)


def test_plan_greedy_single_covering_candidate():
    world = GridWorld(cell_size=1.0, width=4, height=4)
    cam = make_camera(2.0, 0.0, width=4.0, depth=4.0, cid=5)
    problem = CoverageProblem(world=world, candidates=(cam,), budget=1)
    plan = plan_greedy(problem)
    assert plan.selected == (5,)
    assert plan.coverage_ratio == 1.0


def test_plan_greedy_selects_disjoint_halves():
    problem = trap_problem(budget=2)
    p, q, _ = problem.candidates
    restricted = CoverageProblem(
        world=problem.world, candidates=(p, q), max_overlap=2, budget=2
    )
    plan = plan_greedy(restricted)
    assert sorted(plan.selected) == [1, 2]
    assert plan.coverage_ratio == 1.0


def test_plan_greedy_respects_budget_and_cap():
    problem = trap_problem(budget=1, k=1)
    plan = plan_greedy(problem)
    assert len(plan.selected) <= 1
    assert plan.counts.max() <= 1


def test_plan_greedy_repair_pass_fills_min_overlap():
    world = GridWorld(cell_size=1.0, width=4, height=2)
    top = make_camera(2.0, 1.0, width=4.0, depth=1.0, cid=1)
    bottom = make_camera(2.0, 0.0, width=4.0, depth=1.0, cid=2)
    both = make_camera(2.0, 0.0, width=4.0, depth=2.0, cid=3)
    problem = CoverageProblem(
        world=world, candidates=(top, bottom, both), min_overlap=2, max_overlap=3, budget=3
    )
    plan = plan_greedy(problem)
    assert len(plan.selected) == 3
    assert violations(plan) == ()


def test_plan_greedy_reports_unmeetable_min_overlap():
    world = GridWorld(cell_size=1.0, width=4, height=2)
    top = make_camera(2.0, 1.0, width=4.0, depth=1.0, cid=1)
    problem = CoverageProblem(world=world, candidates=(top,), min_overlap=1, max_overlap=2, budget=2)
    plan = plan_greedy(problem)
    assert plan.selected == (1,)
    under = [cell for cell, count in violations(plan) if count == 0]
    assert set(under) == {CellIndex(c, 0) for c in range(4)}


def test_plan_exhaustive_single_candidate():
    world = GridWorld(cell_size=1.0, width=4, height=4)
    cam = make_camera(2.0, 0.0, width=4.0, depth=4.0, cid=2)
    problem = CoverageProblem(world=world, candidates=(cam,), budget=3)
    assert plan_exhaustive(problem).selected == (2,)


def test_plan_exhaustive_redundant_copies_picks_one():
    world = GridWorld(cell_size=1.0, width=4, height=2)
    cams = tuple(make_camera(2.0, 0.0, width=4.0, depth=2.0, cid=i) for i in (3, 1, 2))
    problem = CoverageProblem(world=world, candidates=cams, max_overlap=1, budget=3)
    plan = plan_exhaustive(problem)
    assert plan.selected == (1,)


def test_plan_exhaustive_beats_greedy_on_trap():
    problem = trap_problem(budget=2, k=2)
    greedy = plan_greedy(problem)
    exact = plan_exhaustive(problem)
    assert objective(greedy, problem) == 7
    assert objective(exact, problem) == 8
    assert exact.selected == (1, 2)
    assert greedy.selected[0] == 3  # the 6-cell bait goes first


def test_plan_exhaustive_rejects_oversize_pool():
    world = GridWorld(cell_size=1.0, width=2, height=2)
    cams = tuple(make_camera(1.0, 0.0, width=2.0, depth=2.0, cid=i) for i in range(21))
    problem = CoverageProblem(world=world, candidates=cams)
    with pytest.raises(ProblemTooLargeError):
        plan_exhaustive(problem)


def random_problem(rng, *, max_candidates=8, max_budget=3):
    width = int(rng.integers(3, 7))
    height = int(rng.integers(3, 7))
    walls = set()
    if rng.random() < 0.5:
        row = int(rng.integers(1, height - 1))
        for col in range(int(rng.integers(1, width))):
            walls.add(CellIndex(col, row))
    world = GridWorld(cell_size=1.0, width=width, height=height, walls=frozenset(walls))
    n = int(rng.integers(2, max_candidates + 1))
    cams = []
    for cid in range(1, n + 1):
        cams.append(
            make_camera(
                float(rng.uniform(0.3, width - 0.3)),
                float(rng.uniform(0.3, height - 0.3)),
                width=float(rng.uniform(1.0, width)),
                depth=float(rng.uniform(1.0, height)),
                yaw=float(rng.choice([0, 0.5, 1.5, 3.0, 4.5])),
                cid=cid,
            )
        )
    k = int(rng.choice([2, 3, n]))
    budget = int(rng.integers(1, max_budget + 1))
    return CoverageProblem(world=world, candidates=tuple(cams), max_overlap=k, budget=budget)


def test_greedy_bound_against_exhaustive_randomized():
    rng = np.random.default_rng(2024)
    bound = 1.0 - 1.0 / math.e
    for _ in range(30):
        problem = random_problem(rng)
        greedy_obj = objective(plan_greedy(problem), problem)
        exact_obj = objective(plan_exhaustive(problem), problem)
        assert exact_obj >= greedy_obj
        assert greedy_obj >= bound * exact_obj - 1e-12


def test_exhaustive_monotone_in_candidate_pool():
    rng = np.random.default_rng(99)
    for _ in range(10):
        problem = random_problem(rng, max_candidates=5)
        extra = make_camera(1.0, 1.0, width=2.0, depth=2.0, cid=100)
        bigger = CoverageProblem(
            world=problem.world,
            candidates=problem.candidates + (extra,),
            max_overlap=problem.max_overlap,
            budget=problem.budget,
        )
        assert objective(plan_exhaustive(bigger), bigger) >= objective(
            plan_exhaustive(problem), problem
        )


def test_greedy_never_exceeds_budget_or_cap_randomized():
    rng = np.random.default_rng(7)
    for _ in range(20):
        problem = random_problem(rng)
        plan = plan_greedy(problem)
        assert len(plan.selected) <= problem.budget
        target_mult = [int(plan.counts[cell.row, cell.col]) for cell in target_cells(problem)]
        assert all(count <= problem.max_overlap for count in target_mult)


def test_lattice_candidates_eight_yaws_per_site():
    world = GridWorld(cell_size=1.0, width=4, height=4)
    cams = lattice_candidates(
        world, spacing_cells=2, height=2.0, hfov=math.radians(90), vfov=math.radians(60), max_range=5.0
    )
    assert len(cams) == 4 * 8
    yaws = {round(cam.yaw, 9) for cam in cams}
    assert len(yaws) == 8
    assert len({cam.id for cam in cams}) == len(cams)


# -- set-based reference planners ---------------------------------------------
# The planners as they were written on frozensets of cells, kept as the
# oracles that the bitset planners must match plan for plan.


def plan_fields(plan: PlacementPlan):
    """A plan's fields as values that compare with ==."""
    return plan.selected, plan.counts.tolist(), plan.coverage_ratio, violations(plan)


def reference_target_cover_sets(problem):
    return {
        cam.id: frozenset(covered_cells(cam, problem.world) & target_cells(problem))
        for cam in problem.candidates
    }


def _reference_k_feasible(cover, multiplicity, k):
    return all(multiplicity.get(cell, 0) + 1 <= k for cell in cover)


def reference_plan_greedy(problem):
    cover = reference_target_cover_sets(problem)
    targets = target_cells(problem)
    ordered_ids = sorted(cover)
    selected = []
    covered = set()
    multiplicity = {}

    def select(cid):
        selected.append(cid)
        covered.update(cover[cid])
        for cell in cover[cid]:
            multiplicity[cell] = multiplicity.get(cell, 0) + 1

    while len(selected) < problem.budget and covered != targets:
        best_id, best_gain = None, 0
        for cid in ordered_ids:
            if cid in selected:
                continue
            if not _reference_k_feasible(cover[cid], multiplicity, problem.max_overlap):
                continue
            gain = len(cover[cid] - covered)
            if gain > best_gain:
                best_id, best_gain = cid, gain
        if best_id is None:
            break
        select(best_id)

    if problem.min_overlap >= 1:
        while len(selected) < problem.budget:
            deficit = {
                cell: problem.min_overlap - multiplicity.get(cell, 0)
                for cell in targets
                if multiplicity.get(cell, 0) < problem.min_overlap
            }
            if not deficit:
                break
            best_id, best_fix = None, 0
            for cid in ordered_ids:
                if cid in selected:
                    continue
                if not _reference_k_feasible(cover[cid], multiplicity, problem.max_overlap):
                    continue
                fix = sum(1 for cell in cover[cid] if cell in deficit)
                if fix > best_fix:
                    best_id, best_fix = cid, fix
            if best_id is None:
                break
            select(best_id)

    return build_plan(problem, tuple(selected))


def reference_plan_exhaustive(problem):
    cover = reference_target_cover_sets(problem)
    ordered_ids = sorted(cover)
    best_ids = ()
    best_obj = -1
    for size in range(min(problem.budget, len(ordered_ids)) + 1):
        for combo in itertools.combinations(ordered_ids, size):
            multiplicity = {}
            feasible = True
            for cid in combo:
                for cell in cover[cid]:
                    multiplicity[cell] = multiplicity.get(cell, 0) + 1
                    if multiplicity[cell] > problem.max_overlap:
                        feasible = False
                        break
                if not feasible:
                    break
            if not feasible:
                continue
            obj = len(multiplicity)
            if obj > best_obj or (obj == best_obj and (len(combo), combo) < (len(best_ids), best_ids)):
                best_obj = obj
                best_ids = combo
    return build_plan(problem, best_ids)


@st.composite
def placement_problems(draw):
    """Random walled grids, whose free cells are the targets, with a small
    pool in which some cameras appear twice under different ids (equal cover
    sets, so ties), overlap bounds that reach the repair pass, and budgets
    from 1 past the pool size. Wall cells may be covered."""
    width, height = draw(st.integers(2, 7)), draw(st.integers(2, 7))
    cells = [CellIndex(col, row) for row in range(height) for col in range(width)]
    walls = frozenset(draw(st.sets(st.sampled_from(cells), max_size=len(cells) // 3)))
    world = GridWorld(cell_size=1.0, width=width, height=height, walls=walls)
    specs = draw(
        st.lists(
            st.tuples(
                st.floats(0.0, float(width)),
                st.floats(0.0, float(height)),
                st.floats(0.5, float(width)),
                st.floats(0.5, float(height)),
                st.sampled_from([0.0, 0.5, math.pi / 2, 3.0, 4.5]),
                st.integers(1, 2),
            ),
            min_size=1,
            max_size=5,
        )
    )
    layout = [spec[:5] for spec in specs for _ in range(spec[5])]
    ids = draw(st.permutations(range(1, len(layout) + 1)))
    cams = tuple(
        make_camera(x, y, width=w, depth=d, yaw=yaw, cid=cid)
        for (x, y, w, d, yaw), cid in zip(layout, ids)
    )
    max_overlap = draw(st.integers(1, 5))
    min_overlap = draw(st.integers(0, min(3, max_overlap)))
    return CoverageProblem(
        world=world,
        candidates=cams,
        min_overlap=min_overlap,
        max_overlap=max_overlap,
        budget=draw(st.integers(1, len(cams) + 2)),
    )


@settings(max_examples=300, deadline=None)
@given(placement_problems())
def test_bitset_planners_match_set_references(problem):
    assert plan_fields(plan_greedy(problem)) == plan_fields(reference_plan_greedy(problem))
    assert plan_fields(plan_exhaustive(problem)) == plan_fields(reference_plan_exhaustive(problem))


def test_greedy_peak_memory_below_cover_set_dict():
    # The plan that build_plan assembles holds the selected cameras' cells,
    # so the budget is kept small against the pool.
    world = GridWorld(
        cell_size=0.5, width=30, height=20, walls=frozenset(CellIndex(15, row) for row in range(4, 20))
    )
    cams = lattice_candidates(
        world, spacing_cells=4, height=2.5, hfov=math.radians(90), vfov=math.radians(70), max_range=8.0
    )
    assert len(cams) >= 200
    problem = CoverageProblem(world=world, candidates=cams, min_overlap=2, max_overlap=4, budget=20)
    tracemalloc.start()
    try:
        cover = reference_target_cover_sets(problem)
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    del cover
    tracemalloc.start()
    try:
        plan = plan_greedy(problem)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert plan_fields(plan) == plan_fields(reference_plan_greedy(problem))
    assert peak < held / 4, (peak, held)
