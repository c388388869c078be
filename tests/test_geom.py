import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from ubimap import algebra, geom
from ubimap.geom import Point3, RigidTransform

from oracles import is_close, point_from_array, rot_x, rot_z


def random_transform(rng):
    axis = rng.normal(size=3)
    axis = axis / np.linalg.norm(axis)
    angle = rng.uniform(-math.pi, math.pi)
    rot = geom.rotation_from_axis_angle(axis * angle)
    return RigidTransform(rot, rng.uniform(-5, 5, size=3))


def test_construction_rejects_non_orthonormal():
    with pytest.raises(ValueError):
        RigidTransform([[1, 0.1, 0], [0, 1, 0], [0, 0, 1]], [0, 0, 0])


def test_construction_rejects_reflection():
    with pytest.raises(ValueError):
        RigidTransform(np.diag([1.0, 1.0, -1.0]), [0, 0, 0])


def test_compose_with_identity():
    t = geom.compose(rot_z(0.3), geom.translation(1, 2, 3))
    out = geom.compose(t, geom.identity())
    assert is_close(out, t, 1e-12, 1e-12)


def test_compose_planar_angles_add():
    out = geom.compose(rot_z(math.radians(30)), rot_z(math.radians(60)))
    assert is_close(out, rot_z(math.radians(90)), 1e-12, 1e-12)


def test_compose_pure_translations_add():
    out = geom.compose(geom.translation(1, 0, 0), geom.translation(0, 1, 0))
    assert np.allclose(out.translation, [1, 1, 0], atol=1e-15)
    assert np.allclose(out.rotation, np.eye(3))


def test_invert_identity():
    assert is_close(geom.invert(geom.identity()), geom.identity(), 1e-15, 1e-15)


def test_invert_translation():
    out = geom.invert(geom.translation(1, 2, 3))
    assert np.allclose(out.translation, [-1, -2, -3], atol=1e-15)


def test_invert_rotation():
    out = geom.invert(rot_z(math.radians(90)))
    assert is_close(out, rot_z(math.radians(-90)), 1e-12, 1e-12)


def test_apply_identity():
    p = Point3(1, 2, 3)
    assert geom.apply(geom.identity(), p) == p


def test_apply_axis_rotation():
    out = geom.apply(rot_z(math.radians(90)), Point3(1, 0, 0))
    assert abs(out.x) < 1e-12 and abs(out.y - 1) < 1e-12 and abs(out.z) < 1e-12


def test_apply_composed_translation_after_rotation():
    t = geom.compose(geom.translation(1, 0, 0), rot_z(math.radians(90)))
    out = geom.apply(t, Point3(1, 0, 0))
    assert abs(out.x - 1) < 1e-12 and abs(out.y - 1) < 1e-12 and abs(out.z) < 1e-12


def test_rotation_distance_zero_for_equal():
    t = geom.compose(rot_x(0.4), geom.translation(5, 0, 0))
    assert geom.rotation_distance(t, t) == pytest.approx(0.0, abs=1e-12)


def test_rotation_distance_quarter_turn():
    assert geom.rotation_distance(geom.identity(), rot_z(math.pi / 2)) == pytest.approx(
        math.pi / 2, abs=1e-12
    )


def test_rotation_distance_wraps_around():
    # The relative rotation between 10 deg and 350 deg about z is 20 deg.
    expected = math.radians(20.0)
    got = geom.rotation_distance(rot_z(math.radians(10)), rot_z(math.radians(350)))
    assert got == pytest.approx(expected, abs=1e-12)


def test_point3_rejects_non_finite():
    with pytest.raises(ValueError):
        Point3(math.nan, 0, 0)
    with pytest.raises(ValueError):
        Point3(0, math.inf, 0)


def test_inverse_composes_to_identity_randomized():
    rng = np.random.default_rng(11)
    for _ in range(200):
        t = random_transform(rng)
        out = geom.compose(geom.invert(t), t)
        assert np.linalg.norm(out.rotation - np.eye(3)) < 1e-10
        assert np.linalg.norm(out.translation) < 1e-10


def test_apply_preserves_pairwise_distances():
    rng = np.random.default_rng(12)
    for _ in range(100):
        t = random_transform(rng)
        p = point_from_array(rng.uniform(-10, 10, size=3))
        q = point_from_array(rng.uniform(-10, 10, size=3))
        before = np.linalg.norm(p.as_array() - q.as_array())
        after = np.linalg.norm(geom.apply(t, p).as_array() - geom.apply(t, q).as_array())
        assert abs(after - before) < 1e-9


def test_compose_associative():
    rng = np.random.default_rng(13)
    for _ in range(100):
        a, b, c = (random_transform(rng) for _ in range(3))
        left = geom.compose(geom.compose(a, b), c)
        right = geom.compose(a, geom.compose(b, c))
        assert np.linalg.norm(left.rotation - right.rotation) < 1e-10
        assert np.linalg.norm(left.translation - right.translation) < 1e-10


def test_transform_points_matches_apply():
    rng = np.random.default_rng(14)
    t = random_transform(rng)
    pts = rng.uniform(-3, 3, size=(17, 3))
    batch = t.transform_points(pts)
    for i in range(len(pts)):
        single = geom.apply(t, point_from_array(pts[i])).as_array()
        assert np.allclose(batch[i], single, atol=1e-12)


def test_nearest_rotation_restores_validity():
    rng = np.random.default_rng(15)
    t = random_transform(rng)
    noisy = t.rotation + rng.normal(scale=1e-6, size=(3, 3))
    fixed = geom.nearest_rotation(noisy)
    assert np.linalg.norm(fixed.T @ fixed - np.eye(3)) < 1e-12
    assert np.linalg.det(fixed) > 0


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 6), st.sampled_from([1e-14, 1e-3, 3.0]))
@example(0, 3, 0.0)  # zero rotation vectors: Rodrigues' small-angle branch
def test_stacked_products_equal_single_matrix_products_bit_for_bit(seed, count, angle_scale):
    # One matrix runs in Python floats, a stack in elementwise numpy; both sum
    # each product's terms in one order, so every entry has the same bits.
    rng = np.random.default_rng(seed)
    a, b = rng.normal(size=(2, count, 3, 3))
    v = rng.normal(size=(count, 3))
    product = algebra.to_array(algebra.product(algebra.entries(a), algebra.entries(b)))
    moved = np.stack(algebra.affine(algebra.entries(a), list(v.T), list(v.T)), axis=-1)
    det = algebra.det3(algebra.entries(a))
    drift = geom.orthonormality_error(a)
    nearest = geom.nearest_rotation(a)
    rodrigues = geom.rotation_from_axis_angle(angle_scale * v)
    for k in range(count):
        assert np.array_equal(product[k], algebra.product(a[k].tolist(), b[k].tolist()))
        assert np.array_equal(moved[k], algebra.affine(a[k].tolist(), v[k].tolist(), v[k].tolist()))
        assert det[k] == algebra.det3(a[k].tolist())
        assert drift[k] == geom.orthonormality_error(a[k])
        assert np.array_equal(nearest[k], geom.nearest_rotation(a[k]))
        assert np.array_equal(rodrigues[k], geom.rotation_from_axis_angle(angle_scale * v[k]))


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 6), st.sampled_from([0.0, 1e-11]))
@example(0, 1, 1e-11)
def test_stacked_compose_and_invert_equal_per_transform_calls_bit_for_bit(seed, count, drift):
    # Rotations drift * N(0, 1) off orthonormal pass RigidTransform's check,
    # but their products drift past DRIFT_TOL, so compose re-orthonormalizes.
    rng = np.random.default_rng(seed)
    rotations = geom.rotation_from_axis_angle(rng.uniform(-3.0, 3.0, (2, count, 3)))
    rotations = rotations + drift * rng.normal(size=rotations.shape)
    a, b = (RigidTransform(r, t) for r, t in zip(rotations, rng.uniform(-5.0, 5.0, (2, count, 3))))
    singles_a, singles_b = geom.unstack(a), geom.unstack(b)
    raw = algebra.to_array(algebra.product(algebra.entries(a.rotation), algebra.entries(b.rotation)))
    assert (max(geom.orthonormality_error(raw)) > geom.DRIFT_TOL) == (drift > 0)
    results = {
        "compose": (geom.compose(a, b), [geom.compose(x, y) for x, y in zip(singles_a, singles_b)]),
        "invert": (geom.invert(a), [geom.invert(x) for x in singles_a]),
        "one then stack": (geom.compose(singles_a[0], b), [geom.compose(singles_a[0], y) for y in singles_b]),
        "stack then one": (geom.compose(a, singles_b[0]), [geom.compose(x, singles_b[0]) for x in singles_a]),
    }
    for name, (stacked, singles) in results.items():
        assert stacked.rotation.shape == (count, 3, 3) and stacked.translation.shape == (count, 3), name
        for k, single in enumerate(singles):
            assert single.rotation.shape == (3, 3), name
            assert np.array_equal(stacked.rotation[k], single.rotation), name
            assert np.array_equal(stacked.translation[k], single.translation), name


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 6), st.sampled_from([1e-11, 1e-6, 0.1, 3.0]))
def test_nearest_rotation_of_one_matrix_runs_on_floats_with_its_stack_bits(seed, count, scale):
    # One matrix's Jacobi runs on Python floats, a stack's on arrays, in one
    # loop: each matrix of a stack gets the bits it gets alone.
    rng = np.random.default_rng(seed)
    near = geom.rotation_from_axis_angle(rng.uniform(-3.0, 3.0, (count, 3))) + scale * rng.normal(size=(count, 3, 3))
    stacked = geom.nearest_rotation(near)
    for k in range(count):
        single = geom.nearest_rotation(near[k])
        assert single.shape == (3, 3) and np.array_equal(stacked[k], single)
        values, vectors = algebra.jacobi_eigen(algebra.entries(near[k] + near[k].T))
        assert all(type(x) is float for x in values + [x for row in vectors for x in row])
