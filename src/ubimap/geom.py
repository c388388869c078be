"""Rigid-body transforms in 3D and the small rotation toolkit everything else uses.

Conventions:
    - Rotations are 3x3 orthonormal matrices with det +1 (no reflections).
    - Translations are 3-vectors in meters.
    - A transform maps child-frame coordinates into parent-frame coordinates:
      ``p_parent = R @ p_child + t``.
    - Angles are radians everywhere in this package; degrees appear only at the
      scenario/CLI boundary.

All values are immutable after construction (the wrapped numpy arrays are
marked read-only), so transforms can be shared freely between threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import algebra

# Construction-time invariant tolerances.
ORTHONORMAL_TOL = 1e-9
DET_TOL = 1e-9
# compose() re-orthonormalizes its result when drift exceeds this.
DRIFT_TOL = 1e-12


@dataclass(frozen=True)
class Point3:
    """A 3D point in meters. All components must be finite."""

    x: float
    y: float
    z: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.x) and math.isfinite(self.y) and math.isfinite(self.z)):
            raise ValueError(f"Point3 components must be finite, got {(self.x, self.y, self.z)}")

    def as_array(self) -> np.ndarray:
        return np.array([self.x, self.y, self.z], dtype=float)


class RigidTransform:
    """A proper rigid motion (rotation + translation) in 3D, or a stack of
    them: (..., 3, 3) rotations with (..., 3) translations, which
    ``compose`` and ``invert`` take one by one.

    The entries must pass ``check_rigid``.
    """

    __slots__ = ("rotation", "translation")

    def __init__(self, rotation, translation) -> None:
        rot = np.array(rotation, dtype=float)
        rot = rot.reshape(rot.shape[:-2] + (3, 3))
        tra = np.array(translation, dtype=float).reshape(rot.shape[:-1])
        check_rigid(rot, tra)
        rot.setflags(write=False)
        tra.setflags(write=False)
        self.rotation = rot
        self.translation = tra

    def transform_points(self, points: np.ndarray) -> np.ndarray:
        """Apply the transform (one, not a stack) to an (n, 3) array of points."""
        pts = np.asarray(points, dtype=float)
        moved = algebra.affine(self.rotation.tolist(), self.translation.tolist(), list(pts.T))
        return np.stack(moved, axis=-1)

    def __repr__(self) -> str:
        return f"RigidTransform(rotation={self.rotation.tolist()}, translation={self.translation.tolist()})"


def orthonormality_error(rotation: np.ndarray) -> np.ndarray:
    """Frobenius norm of R^T R - I for an (..., 3, 3) float array, batched
    over the leading axes."""
    return np.sqrt(_drift(algebra.entries(rotation)))


def _drift(r: list[list]):
    """Squared Frobenius norm of R^T R - I for 3x3 entries, its nine terms
    summed row by row."""
    gram = algebra.product(algebra.transpose(r), r)
    terms = [gram[a][b] - (1.0 if a == b else 0.0) for a in range(3) for b in range(3)]
    return algebra.inner(terms, terms)


def check_rigid(rotation: np.ndarray, translation: np.ndarray) -> None:
    """Raise ``ValueError`` unless every entry is finite and every rotation
    is orthonormal within ``ORTHONORMAL_TOL`` (Frobenius norm of R^T R - I)
    with determinant +1 within ``DET_TOL``. Batched over the leading axes:
    (..., 3, 3) rotations with (..., 3) translations, float arrays."""
    if not (np.isfinite(rotation).all() and np.isfinite(translation).all()):
        raise ValueError("RigidTransform requires finite entries")
    r = algebra.entries(rotation)
    err = np.sqrt(_drift(r))
    if np.any(err >= ORTHONORMAL_TOL):
        raise ValueError(f"rotation is not orthonormal (|R^T R - I|_F = {float(np.max(err)):.3e})")
    det = np.ravel(algebra.det3(r))
    off = abs(det - 1.0) >= DET_TOL
    if off.any():
        raise ValueError(f"rotation determinant must be +1, got {float(det[off][0]):.12f}")


def unstack(t: RigidTransform) -> list[RigidTransform]:
    """The transforms of an (n,) stack, each a view of the stack's entries,
    which were checked once."""
    out = []
    for rotation, translation in zip(t.rotation, t.translation):
        one = RigidTransform.__new__(RigidTransform)
        one.rotation, one.translation = rotation, translation
        out.append(one)
    return out


def identity() -> RigidTransform:
    return RigidTransform(np.eye(3), np.zeros(3))


def translation(x: float, y: float, z: float) -> RigidTransform:
    return RigidTransform(np.eye(3), (x, y, z))


def nearest_rotation(m: np.ndarray) -> np.ndarray:
    """Project near-rotation matrices onto the closest proper rotations,
    batched over the leading axes: the R maximizing tr(R^T m), by Horn's
    quaternion method (``algebra.horn_rotation``)."""
    return algebra.to_array(algebra.horn_rotation(algebra.entries(m)))


def reorthonormalized(rotation: np.ndarray) -> np.ndarray:
    """The (..., 3, 3) float array with each rotation whose orthonormality
    error exceeds ``DRIFT_TOL`` replaced, in place, by its nearest rotation."""
    drifted = orthonormality_error(rotation) > DRIFT_TOL
    if np.any(drifted):
        rotation[drifted] = nearest_rotation(rotation[drifted])
    return rotation


def rotation_from_axis_angle(vec) -> np.ndarray:
    """Rodrigues' formula: rotation matrices for axis-angle 3-vectors,
    batched over the leading axes, so an (n, 3) input gives (n, 3, 3).

    A vector's direction is the axis, its norm the angle in radians.
    Angles below 1e-12 fall back to the second-order series to avoid
    dividing by a vanishing norm.
    """
    v = np.asarray(vec, dtype=float)
    angle = np.sqrt(v[..., 0] * v[..., 0] + v[..., 1] * v[..., 1] + v[..., 2] * v[..., 2])
    small = angle < 1e-12
    x, y, z = (v[..., a] / np.where(small, 1.0, angle) for a in range(3))
    k = [[0.0, -z, y], [z, 0.0, -x], [-y, x, 0.0]]  # the cross-product matrix of the unit axis
    kk = algebra.product(k, k)
    angles = np.ravel(angle).tolist()
    first = np.where(small, 1.0, np.reshape([math.sin(a) for a in angles], angle.shape))
    second = np.where(small, 0.5, 1.0 - np.reshape([math.cos(a) for a in angles], angle.shape))
    return algebra.to_array(
        [[(1.0 if a == b else 0.0) + first * k[a][b] + second * kk[a][b] for b in range(3)] for a in range(3)]
    )


def _components(v: np.ndarray) -> list:
    """The entries of an (..., 3) array, arrays over the leading axes."""
    return [v[..., i] for i in range(3)]


def compose(a: RigidTransform, b: RigidTransform) -> RigidTransform:
    """Composition: the result applies ``b`` first, then ``a``. A stack on
    either side composes transform by transform (broadcast against the
    other side), each with the bits of its own call."""
    r_a = algebra.entries(a.rotation)
    rot = algebra.product(r_a, algebra.entries(b.rotation))
    tra = algebra.affine(r_a, _components(a.translation), _components(b.translation))
    return RigidTransform(reorthonormalized(algebra.to_array(rot)), np.stack(tra, axis=-1))


def invert(t: RigidTransform) -> RigidTransform:
    """The inverse transform, or each one of a stack's."""
    rot = np.swapaxes(t.rotation, -1, -2)
    tra = algebra.transform(algebra.entries(rot), _components(t.translation))
    return RigidTransform(rot, np.stack([-x for x in tra], axis=-1))


def apply(t: RigidTransform, p: Point3) -> Point3:
    return Point3(*algebra.affine(t.rotation.tolist(), t.translation.tolist(), [p.x, p.y, p.z]))


def rotation_distance(a: RigidTransform, b: RigidTransform) -> float | list[float]:
    """Geodesic angle between the two rotations, in [0, pi]; for a stack on
    either side, the list of the angles transform by transform."""
    relative = algebra.to_array(algebra.product(algebra.transpose(algebra.entries(a.rotation)), algebra.entries(b.rotation)))
    angles = _rotation_angles(relative)
    return angles if relative.ndim > 2 else angles[0]


def _rotation_angles(rotation: np.ndarray) -> list[float]:
    """Angles in [0, pi] of (..., 3, 3) rotations, flattened: atan2(|v|, (tr R
    - 1) / 2) with v the skew part of R, which resolves small angles where
    acos of the cosine bottoms out near 1.5e-8."""
    r = rotation
    v = (r[..., 2, 1] - r[..., 1, 2], r[..., 0, 2] - r[..., 2, 0], r[..., 1, 0] - r[..., 0, 1])
    sin = 0.5 * np.sqrt(v[0] * v[0] + v[1] * v[1] + v[2] * v[2])
    cos = 0.5 * (r[..., 0, 0] + r[..., 1, 1] + r[..., 2, 2] - 1.0)
    return [math.atan2(s, c) for s, c in zip(np.ravel(sin).tolist(), np.ravel(cos).tolist())]
