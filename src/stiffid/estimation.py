"""Rigid deflection estimators for nodal displacement fields.

Two routes recover the translation p and small rotation vector dphi of a
body from a centered displacement field:

* :func:`estimate_svd` fits the best orthogonal rotation matrix
  (orthogonal Procrustes via SVD) and reads angles off its entries.
* :func:`estimate_lin` solves the linearized least-squares problem
  directly; only a 3x3 solve is involved.

Every estimator builds the field's :class:`NormalSystem` once: the node
count, the centroid, the mean displacement, the rotation normal matrix
from one ``rel.T @ rel`` product of the centroid-relative positions, its
inverse, and the rotation right-hand side read off the antisymmetric
part of ``rel.T @ (displacements - mean displacement)``.  The
degeneracy check of the normal matrix lives there and nowhere else.  The
fit result carries the system, so the deflection covariance follows from
it without another pass over the nodes.

Units: mm for translations, rad for rotation components.  The linearized
model `dp_i = dphi x p_i + p` is valid for small angles; estimates with
`|dphi|` above ``ROTATION_WARN_LIMIT`` trigger a warning.
"""

from __future__ import annotations

import enum
import math
import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DegenerateGeometry, EntryOutOfRange, LinearizationWarning
from .field import DisplacementField, centroid, column_mean

# Small-angle validity bound for the linearized model, rad (about 1 degree).
ROTATION_WARN_LIMIT = 0.0175

# Relative eigenvalue / singular value floor below which the node layout is
# treated as degenerate (rotation unobservable about some axis).
DEGENERACY_RTOL = 1e-12

# Orthogonality tolerance for matrices accepted as rotations.
ORTHOGONALITY_TOL = 1e-9


def skew(v) -> np.ndarray:
    """Cross-product matrix: ``skew(a) @ b == np.cross(a, b)``."""
    x, y, z = np.asarray(v, dtype=float)
    return np.array([[0.0, -z, y], [z, 0.0, -x], [-y, x, 0.0]])


def rotation_xyz(angles) -> np.ndarray:
    """Product of elementary rotations Rx(ax) @ Ry(ay) @ Rz(az)."""
    ax, ay, az = np.asarray(angles, dtype=float)
    cx, sx = math.cos(ax), math.sin(ax)
    cy, sy = math.cos(ay), math.sin(ay)
    cz, sz = math.cos(az), math.sin(az)
    rx = np.array([[1.0, 0.0, 0.0], [0.0, cx, -sx], [0.0, sx, cx]])
    ry = np.array([[cy, 0.0, sy], [0.0, 1.0, 0.0], [-sy, 0.0, cy]])
    rz = np.array([[cz, -sz, 0.0], [sz, cz, 0.0], [0.0, 0.0, 1.0]])
    return rx @ ry @ rz


def differential_rotation(angles) -> np.ndarray:
    """First-order rotation matrix I + skew(angles)."""
    return np.eye(3) + skew(angles)


def check_rotation(R: np.ndarray) -> None:
    """Raise ValueError unless R is orthogonal with determinant +1."""
    R = np.asarray(R, dtype=float)
    if R.shape != (3, 3):
        raise ValueError(f"rotation matrix must be 3x3, got {R.shape}")
    if np.max(np.abs(R.T @ R - np.eye(3))) > ORTHOGONALITY_TOL:
        raise ValueError("matrix is not orthogonal within tolerance")
    if abs(np.linalg.det(R) - 1.0) > ORTHOGONALITY_TOL:
        raise ValueError("matrix determinant is not +1 within tolerance")


class AngleExtractionMethod(enum.Enum):
    """How small rotation angles are read off a rotation matrix.

    The matrix entries above and below the diagonal both carry the
    angles; the averaged variant halves the leading extraction error.
    """

    PLUS_ENTRIES = "plus"
    MINUS_ENTRIES = "minus"
    AVERAGED = "avg"
    PLUS_ASIN = "plus-asin"
    MINUS_ASIN = "minus-asin"
    AVERAGED_ASIN = "avg-asin"


def _asin(value: float) -> float:
    # Entries may exceed 1 by roundoff for a matrix orthogonal within tol.
    if abs(value) > 1.0 + ORTHOGONALITY_TOL:
        raise EntryOutOfRange(f"rotation entry {value!r} outside the asin domain")
    return math.asin(max(-1.0, min(1.0, value)))


def extract_angles(R: np.ndarray,
                   method: AngleExtractionMethod = AngleExtractionMethod.AVERAGED,
                   ) -> np.ndarray:
    """Extract the small rotation vector from a rotation matrix.

    Parameters
    ----------
    R : (3, 3) array
        Rotation matrix (orthogonal within ``ORTHOGONALITY_TOL``).
    method : AngleExtractionMethod
        Entry selection variant.

    Returns
    -------
    (3,) array of angles in rad.

    Raises
    ------
    EntryOutOfRange
        For asin variants when an entry falls outside the asin domain by
        more than roundoff.  Checked before orthogonality so a corrupt
        matrix fails with the specific error.
    ValueError
        If R is not orthogonal with determinant +1.
    """
    R = np.asarray(R, dtype=float)
    if R.shape != (3, 3):
        raise ValueError(f"rotation matrix must be 3x3, got {R.shape}")
    method = AngleExtractionMethod(method)
    plus = (R[2, 1], R[0, 2], R[1, 0])
    minus = (-R[1, 2], -R[2, 0], -R[0, 1])
    avg = tuple((p + m) / 2.0 for p, m in zip(plus, minus))
    if method is AngleExtractionMethod.PLUS_ENTRIES:
        vals = plus
    elif method is AngleExtractionMethod.MINUS_ENTRIES:
        vals = minus
    elif method is AngleExtractionMethod.AVERAGED:
        vals = avg
    elif method is AngleExtractionMethod.PLUS_ASIN:
        vals = tuple(_asin(v) for v in plus)
    elif method is AngleExtractionMethod.MINUS_ASIN:
        vals = tuple(_asin(v) for v in minus)
    else:
        vals = tuple(_asin(v) for v in avg)
    check_rotation(R)
    return np.array(vals)


@dataclass(frozen=True)
class Deflection:
    """Rigid deflection at the reference point: translation mm, rotation rad."""

    translation: np.ndarray
    rotation: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.translation, dtype=float).reshape(3).copy()
        r = np.asarray(self.rotation, dtype=float).reshape(3).copy()
        if not (np.isfinite(t).all() and np.isfinite(r).all()):
            raise ValueError("deflection components must be finite")
        if np.linalg.norm(r) >= ROTATION_WARN_LIMIT:
            warnings.warn(
                f"rotation magnitude {np.linalg.norm(r):.3g} rad exceeds the "
                f"small-angle regime ({ROTATION_WARN_LIMIT} rad)",
                LinearizationWarning, stacklevel=2)
        t.flags.writeable = False
        r.flags.writeable = False
        object.__setattr__(self, "translation", t)
        object.__setattr__(self, "rotation", r)

    def as_vector(self) -> np.ndarray:
        return np.concatenate([self.translation, self.rotation])

    @classmethod
    def from_vector(cls, v) -> "Deflection":
        v = np.asarray(v, dtype=float).reshape(6)
        return cls(v[:3], v[3:])


class NormalSystem(NamedTuple):
    """Normal equations of the linearized rigid fit about the field centroid.

    ``mean_displacement`` q is the translation at the centroid (mm),
    ``moment`` the rotation normal matrix sum(|r|^2 I - r r^T) over the
    centroid-relative positions r (mm^2), ``inverse`` its inverse, and
    ``rhs`` the rotation right-hand side sum(r x (d - q)) (mm^2).
    """

    n: int
    centroid: np.ndarray
    mean_displacement: np.ndarray
    moment: np.ndarray
    inverse: np.ndarray
    rhs: np.ndarray


@dataclass(frozen=True)
class FitResult:
    """Estimated deflection plus per-node residuals of the fit.

    ``system`` is the normal system of the fitted field; the estimators
    always set it.
    """

    deflection: Deflection
    residuals: np.ndarray
    objective: float
    system: NormalSystem | None = None

    def __post_init__(self):
        r = np.asarray(self.residuals, dtype=float)
        if r.ndim != 2 or r.shape[1] != 3:
            raise ValueError("residuals must have shape (n, 3)")
        r = r.copy()
        r.flags.writeable = False
        object.__setattr__(self, "residuals", r)
        object.__setattr__(self, "objective", float(self.objective))

    @property
    def n(self) -> int:
        return self.residuals.shape[0]


def moment_matrix(positions: np.ndarray) -> np.ndarray:
    """Rotation normal matrix sum(|p|^2 I - p p^T) of a point set, mm^2."""
    p = np.asarray(positions, dtype=float)
    scatter = p.T @ p
    return np.trace(scatter) * np.eye(3) - scatter


def _require_centered(field: DisplacementField, who: str) -> None:
    if not field.centered:
        raise ValueError(f"{who} needs a field centered on its reference point")


def _normal_system(field: DisplacementField,
                   ) -> tuple[NormalSystem, np.ndarray, np.ndarray]:
    """Build the normal system of a field; also return the positions
    relative to the centroid and the displacements relative to their
    mean.

    Centering both factors of the right-hand side keeps it free of the
    summation error of sum(r) times the mean displacement, which would
    otherwise leak into structural zeros of noise-free fields.

    Raises
    ------
    DegenerateGeometry
        If the field has fewer than 3 nodes or the rotation normal matrix
        is numerically singular (rotation unobservable about some axis).
    """
    if field.n < 3:
        raise DegenerateGeometry(f"a rigid fit needs at least 3 nodes, got {field.n}")
    c = centroid(field)
    rel = field.positions - c
    m = moment_matrix(rel)
    eig, vec = np.linalg.eigh(m)
    if eig[0] <= DEGENERACY_RTOL * np.trace(m):
        raise DegenerateGeometry(
            "rotation normal matrix is singular for this node layout")
    q = column_mean(field.displacements)
    disp_rel = field.displacements - q
    g = rel.T @ disp_rel
    rhs = np.array([g[1, 2] - g[2, 1], g[2, 0] - g[0, 2], g[0, 1] - g[1, 0]])
    return NormalSystem(field.n, c, q, m, (vec / eig) @ vec.T, rhs), rel, disp_rel


def _fit_result(system: NormalSystem, translation: np.ndarray,
                rotation: np.ndarray, residuals: np.ndarray) -> FitResult:
    objective = float(np.vdot(residuals, residuals))
    return FitResult(Deflection(translation, rotation), residuals, objective, system)


def estimate_svd(field: DisplacementField,
                 method: AngleExtractionMethod = AngleExtractionMethod.AVERAGED,
                 ) -> FitResult:
    """Fit a rigid transform with the orthogonal Procrustes estimator.

    The cross-covariance of mean-removed initial and displaced positions
    is decomposed by SVD; a reflection, if it appears, is corrected by
    negating the smallest singular direction so the result is a proper
    rotation.  Angles are then read off the matrix entries according to
    `method`.

    Raises
    ------
    DegenerateGeometry
        If the rotation normal matrix is numerically singular, or the
        cross-covariance has rank < 2.
    """
    _require_centered(field, "estimate_svd")
    system, rel, disp_rel = _normal_system(field)
    moved_rel = rel + disp_rel
    cross = rel.T @ moved_rel
    U, s, Vt = np.linalg.svd(cross)
    if s[0] <= 0.0 or s[1] <= DEGENERACY_RTOL * s[0]:
        raise DegenerateGeometry(
            "displaced nodes are collinear, the rotation is not determined")
    d = np.sign(np.linalg.det(Vt.T @ U.T))
    R = Vt.T @ np.diag([1.0, 1.0, d]) @ U.T
    translation = system.mean_displacement - (R - np.eye(3)) @ system.centroid
    rotation = extract_angles(R, method)
    # p + d - R p - translation, taken about the centroid
    residuals = moved_rel - rel @ R.T
    return _fit_result(system, translation, rotation, residuals)


def estimate_lin(field: DisplacementField) -> FitResult:
    """Fit the linearized rigid model by least squares.

    The solve runs about the field centroid, which decouples translation
    and rotation: the rotation is the inverse normal matrix times the
    right-hand side of the field's :class:`NormalSystem`, and the
    translation is then transported back to the reference point via
    ``p = q - dphi x c`` where c is the centroid.

    Raises
    ------
    DegenerateGeometry
        If the rotation normal matrix is numerically singular.
    """
    _require_centered(field, "estimate_lin")
    system, rel, residuals = _normal_system(field)
    rotation = system.inverse @ system.rhs
    spin = skew(rotation)
    # residuals holds d - q, a fresh array: finish d - q - dphi x r in place
    residuals -= rel @ spin.T
    return _fit_result(system, system.mean_displacement - spin @ system.centroid,
                       rotation, residuals)
