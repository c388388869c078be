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

# Construction-time invariant tolerances.
ORTHONORMAL_TOL = 1e-9
DET_TOL = 1e-9
# compose() re-orthonormalizes its result when drift exceeds this.
DRIFT_TOL = 1e-12
_IDENTITY = np.eye(3)
_IDENTITY.setflags(write=False)


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

    @staticmethod
    def from_array(a) -> "Point3":
        a = np.asarray(a, dtype=float).reshape(3)
        return Point3(float(a[0]), float(a[1]), float(a[2]))


class RigidTransform:
    """A proper rigid motion (rotation + translation) in 3D.

    The entries must pass ``check_rigid``.
    """

    __slots__ = ("rotation", "translation")

    def __init__(self, rotation, translation) -> None:
        rot = np.array(rotation, dtype=float).reshape(3, 3)
        tra = np.array(translation, dtype=float).reshape(3)
        check_rigid(rot, tra)
        rot.setflags(write=False)
        tra.setflags(write=False)
        self.rotation = rot
        self.translation = tra

    def transform_points(self, points: np.ndarray) -> np.ndarray:
        """Apply the transform to an (n, 3) array of points."""
        pts = np.asarray(points, dtype=float)
        return pts @ self.rotation.T + self.translation

    def is_close(self, other: "RigidTransform", rot_tol: float = 1e-9, tra_tol: float = 1e-9) -> bool:
        # Frobenius norm on the rotation difference: a tolerance on it bounds
        # every entry, which an angle does not.
        return (
            float(np.linalg.norm(self.rotation - other.rotation)) <= rot_tol
            and float(np.linalg.norm(self.translation - other.translation)) <= tra_tol
        )

    def __repr__(self) -> str:
        return f"RigidTransform(rotation={self.rotation.tolist()}, translation={self.translation.tolist()})"


def orthonormality_error(rotation: np.ndarray) -> np.ndarray:
    """Frobenius norm of R^T R - I for an (..., 3, 3) float array, batched
    over the leading axes. The sum is the one ``np.linalg.norm`` takes over
    a single matrix."""
    drift = (rotation.swapaxes(-1, -2) @ rotation - _IDENTITY).reshape(rotation.shape[:-2] + (9,))
    return np.sqrt(np.vecdot(drift, drift))


def check_rigid(rotation: np.ndarray, translation: np.ndarray) -> None:
    """Raise ``ValueError`` unless every entry is finite and every rotation
    is orthonormal within ``ORTHONORMAL_TOL`` (Frobenius norm of R^T R - I)
    with determinant +1 within ``DET_TOL``. Batched over the leading axes:
    (..., 3, 3) rotations with (..., 3) translations, float arrays."""
    if not (np.isfinite(rotation).all() and np.isfinite(translation).all()):
        raise ValueError("RigidTransform requires finite entries")
    err = orthonormality_error(rotation)
    if (err >= ORTHONORMAL_TOL).any():
        raise ValueError(f"rotation is not orthonormal (|R^T R - I|_F = {float(err.max()):.3e})")
    det = np.linalg.det(rotation)
    off = abs(det - 1.0) >= DET_TOL
    if off.any():
        raise ValueError(f"rotation determinant must be +1, got {float(det[off].flat[0]):.12f}")


def identity() -> RigidTransform:
    return RigidTransform(np.eye(3), np.zeros(3))


def translation(x: float, y: float, z: float) -> RigidTransform:
    return RigidTransform(np.eye(3), (x, y, z))


def rot_x(angle: float) -> RigidTransform:
    c, s = math.cos(angle), math.sin(angle)
    return RigidTransform([[1, 0, 0], [0, c, -s], [0, s, c]], np.zeros(3))


def rot_z(angle: float) -> RigidTransform:
    c, s = math.cos(angle), math.sin(angle)
    return RigidTransform([[c, -s, 0], [s, c, 0], [0, 0, 1]], np.zeros(3))


def nearest_rotation(m: np.ndarray) -> np.ndarray:
    """Project near-rotation matrices onto the closest proper rotations,
    batched over the leading axes.

    Uses the orthogonal factor of the SVD with a sign fix so det = +1.
    """
    u, _, vt = np.linalg.svd(np.asarray(m, dtype=float))
    r = u @ vt
    flip = np.linalg.det(r) < 0
    if flip.any():
        u[..., -1] = np.where(flip[..., None], -u[..., -1], u[..., -1])
        r = u @ vt
    return r


def rotation_from_axis_angle(vec) -> np.ndarray:
    """Rodrigues' formula: rotation matrices for axis-angle 3-vectors,
    batched over the leading axes, so an (n, 3) input gives (n, 3, 3).

    A vector's direction is the axis, its norm the angle in radians.
    Angles below 1e-12 fall back to the second-order series to avoid
    dividing by a vanishing norm.
    """
    v = np.asarray(vec, dtype=float)
    angle = np.sqrt(np.vecdot(v, v))  # the sum np.linalg.norm takes
    small = (angle < 1e-12)[..., None, None]
    k = skew(v) / np.where(small, 1.0, angle[..., None, None])
    first = np.where(small, 1.0, np.sin(angle)[..., None, None])
    second = np.where(small, 0.5, 1.0 - np.cos(angle)[..., None, None])
    return _IDENTITY + first * k + second * (k @ k)


def skew(v: np.ndarray) -> np.ndarray:
    """Cross-product matrix: skew(v) @ w == cross(v, w). Batched over the
    leading axes, so an (n, 3) input gives (n, 3, 3)."""
    v = np.asarray(v, dtype=float)
    out = np.zeros(v.shape[:-1] + (3, 3))
    out[..., 0, 1], out[..., 0, 2] = -v[..., 2], v[..., 1]
    out[..., 1, 0], out[..., 1, 2] = v[..., 2], -v[..., 0]
    out[..., 2, 0], out[..., 2, 1] = -v[..., 1], v[..., 0]
    return out


def compose(a: RigidTransform, b: RigidTransform) -> RigidTransform:
    """Composition: the result applies ``b`` first, then ``a``."""
    rot = a.rotation @ b.rotation
    tra = a.rotation @ b.translation + a.translation
    if orthonormality_error(rot) > DRIFT_TOL:
        rot = nearest_rotation(rot)
    return RigidTransform(rot, tra)


def invert(t: RigidTransform) -> RigidTransform:
    rot = t.rotation.T
    return RigidTransform(rot, -(rot @ t.translation))


def apply(t: RigidTransform, p: Point3) -> Point3:
    return Point3.from_array(t.rotation @ p.as_array() + t.translation)


def rotation_distance(a: RigidTransform, b: RigidTransform) -> float:
    """Geodesic angle between the two rotations, in [0, pi]."""
    return _rotation_angles(a.rotation.T @ b.rotation)[0]


def _rotation_angles(rotation: np.ndarray) -> list[float]:
    """Angles in [0, pi] of (..., 3, 3) rotations, flattened: atan2(|v|, (tr R
    - 1) / 2) with v the skew part of R, which resolves small angles where
    acos of the cosine bottoms out near 1.5e-8."""
    r = rotation
    v = (r[..., 2, 1] - r[..., 1, 2], r[..., 0, 2] - r[..., 2, 0], r[..., 1, 0] - r[..., 0, 1])
    sin = 0.5 * np.sqrt(v[0] * v[0] + v[1] * v[1] + v[2] * v[2])
    cos = 0.5 * (r[..., 0, 0] + r[..., 1, 1] + r[..., 2, 2] - 1.0)
    return [math.atan2(s, c) for s, c in zip(np.ravel(sin).tolist(), np.ravel(cos).tolist())]
