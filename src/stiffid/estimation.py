"""Rigid deflection estimators for nodal displacement fields.

Two routes recover the translation p and small rotation vector dphi of a
body from a centered displacement field:

* :func:`estimate_svd` fits the best orthogonal rotation matrix
  (orthogonal Procrustes via SVD) and reads angles off its entries.
* :func:`estimate_lin` solves the linearized least-squares problem
  directly; only a 3x3 solve is involved.

Both are the one-row case of the batched fits :func:`_fit_lin` and
:func:`_fit_svd`, which the identification core
(:func:`stiffid.pipeline.identify_batch`) runs on many independent
fields at once.  A batch holds S fields with the same node count:
displacements of shape (S, n, 3) and positions of shape (n, 3), shared
by every row, or (S, n, 3).  The fit's arrays carry the leading S axis,
and each row's numbers are bit-identical to those of a one-row fit of
that row alone: every stage runs the same numpy operation (the same
BLAS or LAPACK call) on each row.  With shared positions the
position-only part of the normal system (centroid, moment matrix,
eigendecomposition, inverse) is computed once for all rows.

Every fit builds the :class:`NormalSystem` once: the node count, the
centroid, the mean displacement, the rotation normal matrix from one
``rel.T @ rel`` product of the centroid-relative positions, its inverse,
and the rotation right-hand side read off the antisymmetric part of
``rel.T @ (displacements - mean displacement)``.  The degeneracy check
of the normal matrix lives there and nowhere else.  The fit result
carries the system, so the deflection covariance follows from it
without another pass over the nodes.

Units: mm for translations, rad for rotation components.  The linearized
model `dp_i = dphi x p_i + p` is valid for small angles; estimates with
`|dphi|` above ``ROTATION_WARN_LIMIT`` trigger a warning, one per row.
"""

from __future__ import annotations

import enum
import math
import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DegenerateGeometry, EntryOutOfRange, LinearizationWarning
from .field import DisplacementField, column_mean

# Small-angle validity bound for the linearized model, rad (about 1 degree).
ROTATION_WARN_LIMIT = 0.0175

# Relative eigenvalue / singular value floor below which the node layout is
# treated as degenerate (rotation unobservable about some axis).
DEGENERACY_RTOL = 1e-12

# Orthogonality tolerance for matrices accepted as rotations.
ORTHOGONALITY_TOL = 1e-9


def skew(v) -> np.ndarray:
    """Cross-product matrix: ``skew(a) @ b == np.cross(a, b)``.

    `v` may carry leading axes, (..., 3) giving (..., 3, 3).
    """
    v = np.asarray(v, dtype=float)
    if v.shape[-1:] != (3,):
        raise ValueError(f"skew needs 3-vectors, got shape {v.shape}")
    x, y, z = v[..., 0], v[..., 1], v[..., 2]
    out = np.zeros(v.shape + (3,))
    out[..., 0, 1], out[..., 0, 2] = -z, y
    out[..., 1, 0], out[..., 1, 2] = z, -x
    out[..., 2, 0], out[..., 2, 1] = -y, x
    return out


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
        _check_deflections(t, r)
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

    @classmethod
    def _checked(cls, translation: np.ndarray, rotation: np.ndarray) -> "Deflection":
        """A deflection from one row of a batched fit, which has already
        checked (and warned about) it: frozen copies, no second warning."""
        deflection = object.__new__(cls)
        for name, value in (("translation", translation), ("rotation", rotation)):
            value = np.array(value, dtype=float)
            value.flags.writeable = False
            object.__setattr__(deflection, name, value)
        return deflection


def _check_deflections(translation: np.ndarray, rotation: np.ndarray) -> None:
    """Reject non-finite deflections and warn once for each row (leading
    axes of the (..., 3) arrays) whose rotation leaves the small-angle
    regime."""
    if not (np.isfinite(translation).all() and np.isfinite(rotation).all()):
        raise ValueError("deflection components must be finite")
    norms = np.sqrt(np.einsum("...i,...i->...", rotation, rotation)).ravel()
    for norm in norms[norms >= ROTATION_WARN_LIMIT].tolist():
        warnings.warn(
            f"rotation magnitude {norm:.3g} rad exceeds the "
            f"small-angle regime ({ROTATION_WARN_LIMIT} rad)",
            LinearizationWarning, stacklevel=3)


class NormalSystem(NamedTuple):
    """Normal equations of the linearized rigid fit about the field centroid.

    ``mean_displacement`` q is the translation at the centroid (mm),
    ``moment`` the rotation normal matrix sum(|r|^2 I - r r^T) over the
    centroid-relative positions r (mm^2), ``inverse`` its inverse, and
    ``rhs`` the rotation right-hand side sum(r x (d - q)) (mm^2).  In a
    batched fit the arrays carry the leading batch axis, except that
    ``centroid``, ``moment`` and ``inverse`` keep the shape of shared
    positions: one (3,) or (3, 3) array for every row.
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


class Fits(NamedTuple):
    """Batched rigid fits: row s of every array belongs to field s.

    ``translation`` and ``rotation`` are (S, 3), ``residuals`` (S, n, 3)
    and ``objective`` (S,), the residual sum of squares of each row.
    """

    system: NormalSystem
    translation: np.ndarray
    rotation: np.ndarray
    residuals: np.ndarray
    objective: np.ndarray


def moment_matrix(positions: np.ndarray) -> np.ndarray:
    """Rotation normal matrix sum(|p|^2 I - p p^T) of a point set, mm^2.

    `positions` may carry leading axes, (..., n, 3) giving (..., 3, 3).
    """
    p = np.asarray(positions, dtype=float)
    scatter = p.swapaxes(-1, -2) @ p
    trace = scatter.trace(axis1=-2, axis2=-1)
    return trace[..., None, None] * np.eye(3) - scatter


def _require_centered(field: DisplacementField, who: str) -> None:
    if not field.centered:
        raise ValueError(f"{who} needs a field centered on its reference point")


def _normal_system(positions: np.ndarray, displacements: np.ndarray,
                   ) -> tuple[NormalSystem, np.ndarray, np.ndarray]:
    """Build the normal systems of a batch of fields; also return the
    positions relative to the centroid and the displacements relative to
    their mean.

    `displacements` is (S, n, 3); `positions` is (n, 3), shared by all
    rows, or (S, n, 3).  Shared positions give one centroid, moment
    matrix, eigendecomposition and inverse for the whole batch.

    Centering both factors of the right-hand side keeps it free of the
    summation error of sum(r) times the mean displacement, which would
    otherwise leak into structural zeros of noise-free fields.

    Raises
    ------
    DegenerateGeometry
        If the fields have fewer than 3 nodes or the rotation normal
        matrix of any row is numerically singular (rotation unobservable
        about some axis).
    """
    n = displacements.shape[-2]
    if n < 3:
        raise DegenerateGeometry(f"a rigid fit needs at least 3 nodes, got {n}")
    c = column_mean(positions)
    rel = positions - c[..., None, :]
    m = moment_matrix(rel)
    eig, vec = np.linalg.eigh(m)
    if (eig[..., 0] <= DEGENERACY_RTOL * m.trace(axis1=-2, axis2=-1)).any():
        raise DegenerateGeometry(
            "rotation normal matrix is singular for this node layout")
    inverse = (vec / eig[..., None, :]) @ vec.swapaxes(-1, -2)
    q = column_mean(displacements)
    disp_rel = displacements - q[..., None, :]
    g = rel.swapaxes(-1, -2) @ disp_rel
    rhs = (g - g.swapaxes(-1, -2))[..., (1, 2, 0), (2, 0, 1)]
    return NormalSystem(n, c, q, m, inverse, rhs), rel, disp_rel


def _system_row(system: NormalSystem, row: int) -> NormalSystem:
    """Row `row` of a batched normal system; arrays that shared
    positions left without the batch axis are the same for every row."""
    return NormalSystem(system.n, *(a if a.ndim == ndim else a[row] for a, ndim
                                    in zip(system[1:], (1, 1, 2, 2, 1))))


def _fits(system: NormalSystem, translation: np.ndarray, rotation: np.ndarray,
          residuals: np.ndarray) -> Fits:
    _check_deflections(translation, rotation)
    # One dot product per row: a (1, 3n) @ (3n, 1) matmul runs the same
    # BLAS dot as np.vdot on that row alone.
    flat = residuals.reshape(residuals.shape[:-2] + (1, -1))
    objective = (flat @ flat.swapaxes(-1, -2))[..., 0, 0]
    return Fits(system, translation, rotation, residuals, objective)


def _fit_result(fits: Fits, row: int) -> FitResult:
    """Row `row` of a batched fit as a :class:`FitResult`."""
    return FitResult(_deflection(fits, row), fits.residuals[row],
                     float(fits.objective[row]), _system_row(fits.system, row))


def _deflection(fits: Fits, row: int) -> Deflection:
    """Row `row` of a batched fit as a :class:`Deflection`."""
    return Deflection._checked(fits.translation[row], fits.rotation[row])


def _fit_svd(positions: np.ndarray, displacements: np.ndarray,
             method: AngleExtractionMethod = AngleExtractionMethod.AVERAGED,
             ) -> Fits:
    """Orthogonal Procrustes fits of a batch of fields; see
    :func:`estimate_svd` and, for the shapes, :func:`_normal_system`."""
    system, rel, disp_rel = _normal_system(positions, displacements)
    moved_rel = rel + disp_rel
    cross = rel.swapaxes(-1, -2) @ moved_rel
    U, s, Vt = np.linalg.svd(cross)
    if ((s[..., 0] <= 0.0) | (s[..., 1] <= DEGENERACY_RTOL * s[..., 0])).any():
        raise DegenerateGeometry(
            "displaced nodes are collinear, the rotation is not determined")
    V, Ut = Vt.swapaxes(-1, -2), U.swapaxes(-1, -2)
    flip = np.zeros(cross.shape)
    flip[..., 0, 0] = flip[..., 1, 1] = 1.0
    flip[..., 2, 2] = np.sign(np.linalg.det(V @ Ut))
    R = V @ flip @ Ut
    translation = system.mean_displacement - (
        (R - np.eye(3)) @ system.centroid[..., None])[..., 0]
    rotation = np.array([extract_angles(r, method) for r in R.reshape(-1, 3, 3)])
    # p + d - R p - translation, taken about the centroid
    residuals = moved_rel - rel @ R.swapaxes(-1, -2)
    return _fits(system, translation, rotation.reshape(translation.shape), residuals)


def _fit_lin(positions: np.ndarray, displacements: np.ndarray) -> Fits:
    """Linearized least-squares fits of a batch of fields; see
    :func:`estimate_lin` and, for the shapes, :func:`_normal_system`."""
    system, rel, residuals = _normal_system(positions, displacements)
    rotation = (system.inverse @ system.rhs[..., None])[..., 0]
    spin = skew(rotation)
    # residuals holds d - q, a fresh array: finish d - q - dphi x r in place
    residuals -= rel @ spin.swapaxes(-1, -2)
    translation = system.mean_displacement - (spin @ system.centroid[..., None])[..., 0]
    return _fits(system, translation, rotation, residuals)


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
    return _fit_result(_fit_svd(field.positions, field.displacements[None], method), 0)


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
    return _fit_result(_fit_lin(field.positions, field.displacements[None]), 0)
