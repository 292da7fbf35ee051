"""Assembly of the 6x6 compliance matrix from loading experiments.

A wrench w = (F; M) applied at the reference point produces the
deflection d = (p; dphi) = k w, with k the compliance matrix in units of
mm/N, mm/(N mm), rad/N and rad/(N mm) by block.  Any set of at least
six wrenches that spans all six load directions is reduced by least
squares, k = D W^+; for six single-component wrenches (the canonical
scheme) that gives each column of k as one deflection over its load
magnitude.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import (
    InvalidArgument,
    NotCanonical,
    RankDeficientWrenches,
    SingularCompliance,
    ZeroMagnitude,
    warn,
)
from .estimation import Deflection

# Documentation block written alongside every matrix; rows are response
# components, columns are applied wrench components.
UNITS_NOTE = {
    "rows": ["px (mm)", "py (mm)", "pz (mm)", "phix (rad)", "phiy (rad)", "phiz (rad)"],
    "columns": ["Fx (N)", "Fy (N)", "Fz (N)", "Mx (N mm)", "My (N mm)", "Mz (N mm)"],
}

_COMPONENTS = ("Fx", "Fy", "Fz", "Mx", "My", "Mz")


@dataclass(frozen=True)
class Wrench:
    """Force (N) and torque (N mm) applied at the reference point."""

    force: np.ndarray
    torque: np.ndarray

    def __post_init__(self):
        f = np.asarray(self.force, dtype=float).reshape(3).copy()
        t = np.asarray(self.torque, dtype=float).reshape(3).copy()
        if not (np.isfinite(f).all() and np.isfinite(t).all()):
            raise ValueError("wrench components must be finite")
        if not (f.any() or t.any()):
            raise ValueError("wrench must have at least one nonzero component")
        f.flags.writeable = False
        t.flags.writeable = False
        object.__setattr__(self, "force", f)
        object.__setattr__(self, "torque", t)

    def as_vector(self) -> np.ndarray:
        return np.concatenate([self.force, self.torque])


@dataclass(frozen=True)
class ComplianceMatrix:
    """6x6 compliance matrix with optional significance bookkeeping.

    ``significance_mask[i, j]`` is True where the element was found
    statistically significant; None when no test was run.
    """

    k: np.ndarray
    significance_mask: np.ndarray | None = None
    symmetrized: bool = False

    def __post_init__(self):
        k = np.asarray(self.k, dtype=float)
        if k.shape != (6, 6):
            raise ValueError(f"compliance matrix must be 6x6, got {k.shape}")
        if not np.isfinite(k).all():
            raise ValueError("compliance matrix contains non-finite values")
        k = k.copy()
        k.flags.writeable = False
        object.__setattr__(self, "k", k)
        if self.significance_mask is not None:
            m = np.asarray(self.significance_mask, dtype=bool)
            if m.shape != (6, 6):
                raise ValueError("significance mask must be 6x6")
            m = m.copy()
            m.flags.writeable = False
            object.__setattr__(self, "significance_mask", m)

    def asymmetry(self) -> float:
        """Relative Frobenius asymmetry |k - k^T| / |k|."""
        denom = np.linalg.norm(self.k)
        if denom == 0.0:
            return 0.0
        return float(np.linalg.norm(self.k - self.k.T) / denom)

    def to_json_dict(self) -> dict:
        mask = self.significance_mask
        return {
            "k": [[float(v) for v in row] for row in self.k],
            "symmetrized": bool(self.symmetrized),
            "significance_mask": None if mask is None else
                [[bool(v) for v in row] for row in mask],
            "units": UNITS_NOTE,
        }

    def format_table(self) -> str:
        lines = ["      " + "".join(f"{c:>13}" for c in _COMPONENTS)]
        row_names = ("px", "py", "pz", "phix", "phiy", "phiz")
        for name, row in zip(row_names, self.k):
            lines.append(f"{name:>6}" + "".join(f"{v:>13.4e}" for v in row))
        return "\n".join(lines)


def _is_grid(value, accept) -> bool:
    """Whether `value` is a list of 6 lists of 6 entries that `accept`."""
    return isinstance(value, list) and len(value) == 6 and all(
        isinstance(row, list) and len(row) == 6 and all(map(accept, row)) for row in value)


def compliance_from_json_dict(data: dict) -> ComplianceMatrix:
    """Rebuild a matrix from the dictionary written by ``to_json_dict``.

    `data` must be a dictionary, ``k`` 6 rows of 6 numbers, the mask
    (when given) 6 rows of 6 booleans and ``symmetrized`` a boolean, else
    :class:`InvalidArgument` (a ``ValueError``) is raised: a cast would
    read ``"2.5"`` as 2.5, ``true`` as 1.0, and ``"false"`` or ``0.5``
    as true.
    """
    if not isinstance(data, dict) or "k" not in data:
        raise InvalidArgument("a compliance matrix needs a JSON object with a 'k' entry")
    k = data["k"]
    if not _is_grid(k, lambda v: isinstance(v, (int, float)) and not isinstance(v, bool)):
        raise InvalidArgument("'k' must be 6 rows of 6 numbers")
    mask = data.get("significance_mask")
    if mask is not None and not _is_grid(mask, lambda v: isinstance(v, bool)):
        raise InvalidArgument("significance_mask must be 6 rows of 6 true or false entries")
    symmetrized = data.get("symmetrized", False)
    if not isinstance(symmetrized, bool):
        raise InvalidArgument(f"symmetrized must be true or false, got {symmetrized!r}")
    return ComplianceMatrix(np.asarray(k, dtype=float), mask, symmetrized)


def load_compliance_json(path) -> ComplianceMatrix:
    """Read a matrix written by :func:`save_compliance_json`.  A file that
    is not UTF-8 JSON raises :class:`InvalidArgument`, which names it;
    see :func:`compliance_from_json_dict` for the checks of its entries.
    """
    try:
        with open(str(path), "r", encoding="utf-8-sig") as handle:
            data = json.load(handle)
    except json.JSONDecodeError as exc:
        raise InvalidArgument(f"{path}: not JSON: line {exc.lineno}: {exc.msg}") from None
    except UnicodeDecodeError as exc:
        raise InvalidArgument(f"{path}: not UTF-8 text: {exc.reason}") from None
    return compliance_from_json_dict(data)


def save_compliance_json(path, matrix: ComplianceMatrix) -> None:
    with open(str(path), "w", encoding="utf-8", newline="\n") as handle:
        json.dump(matrix.to_json_dict(), handle, indent=2, sort_keys=True)
        handle.write("\n")


def canonical_wrench_scheme(fx: float, fy: float, fz: float,
                            mx: float, my: float, mz: float) -> list[Wrench]:
    """Six single-component wrenches, one per load direction.

    Forces in N, torques in N mm.  Any zero magnitude raises
    :class:`ZeroMagnitude`, any non-finite one :class:`InvalidArgument`.
    """
    magnitudes = (fx, fy, fz, mx, my, mz)
    for name, value in zip(_COMPONENTS, magnitudes):
        if value == 0.0:
            raise ZeroMagnitude(f"{name} magnitude must be nonzero")
        if not math.isfinite(value):
            raise InvalidArgument(f"{name} magnitude must be finite, got {value!r}")
    wrenches = []
    for j, value in enumerate(magnitudes):
        v = np.zeros(6)
        v[j] = value
        wrenches.append(Wrench(v[:3], v[3:]))
    return wrenches


def is_canonical(wrenches: Sequence[Wrench]) -> bool:
    """Whether the wrenches form the canonical scheme: six
    single-component wrenches, one per component, in any order.

    Every wrench has a nonzero component, so six wrenches with six
    nonzeros in all load one component each, and with no component left
    unloaded, each a different one.
    """
    if len(wrenches) != 6:
        return False
    vectors = np.array([w.as_vector() for w in wrenches])  # one row per wrench
    return bool(np.count_nonzero(vectors) == 6 and vectors.any(axis=0).all())


def _wrench_svd(wrenches: Sequence[Wrench]) -> tuple[np.ndarray, ...]:
    """The thin SVD ``U, s, Vt`` of the wrench matrix W (6, m), whose
    columns are the wrenches, after each load component's row is
    divided by its largest |entry|, and those row scales (6,).  The SVD
    is also the rank check: raises :class:`RankDeficientWrenches` for
    fewer than six wrenches or a set that does not span all six load
    directions.

    W mixes forces in N with torques in N mm, so its rows can differ in
    size by the ratio of the load units.  Scaled rows make the rank
    check independent of those units, and keep the roundoff of the
    small elements of k from growing with that ratio.  A row of zeros,
    a component that no wrench loads, fails before the division.
    """
    m = len(wrenches)
    if m < 6:
        raise RankDeficientWrenches(
            f"insufficient experiments: need at least 6, got {m}")
    W = np.column_stack([w.as_vector() for w in wrenches])
    scale = np.abs(W).max(axis=1)
    if not scale.all():
        raise RankDeficientWrenches(
            f"no wrench loads {_COMPONENTS[int(np.argmin(scale))]}: the wrench set "
            "does not span all six load directions")
    U, s, Vt = np.linalg.svd(W / scale[:, None], full_matrices=False)
    if s[-1] <= 1e-12 * s[0]:
        raise RankDeficientWrenches(
            "wrench set does not span all six load directions")
    return U, s, Vt, scale


def _pseudo_inverse(svd: tuple[np.ndarray, ...]) -> np.ndarray:
    """W^+ = V diag(1/s) U^T C^-1 (m, 6) from the :func:`_wrench_svd` of
    W = C U diag(s) V^T, with C the diagonal of the row scales."""
    U, s, Vt, scale = svd
    return ((Vt.T / s) @ U.T) / scale


def _least_squares(deflections: np.ndarray, svd: tuple[np.ndarray, ...]) -> np.ndarray:
    """Compliance matrices k = D W^+ (..., 6, 6) of the deflections D
    (..., 6, m), whose column j belongs to wrench j, from the
    :func:`_wrench_svd` of W.

    Formed as (((D V) / s) U^T) C^-1: for the canonical scheme the
    scaled SVD's U and V are signed permutations and s is all ones, so
    each element is one deflection component divided by its wrench
    magnitude, exactly (a zero may lose its sign), where D W^+ would
    multiply by a rounded 1 / magnitude.
    """
    U, s, Vt, scale = svd
    return (((deflections @ Vt.T) / s) @ U.T) / scale


def assemble_overdetermined(wrenches: Sequence[Wrench],
                            deflections: Sequence[Deflection]) -> ComplianceMatrix:
    """Least-squares assembly from m >= 6 wrenches of any structure and
    the deflection each produced, in the same order.

    Solves min |k W - D| over k, where W and D stack the wrench and
    deflection vectors column-wise: k = D W^+.  Requires the wrenches
    to span all six directions, else :class:`RankDeficientWrenches`,
    and one deflection per wrench, else ``ValueError``.
    """
    if len(deflections) != len(wrenches):
        raise ValueError(f"{len(wrenches)} wrenches but {len(deflections)} deflections")
    svd = _wrench_svd(wrenches)
    return ComplianceMatrix(_least_squares(
        np.column_stack([d.as_vector() for d in deflections]), svd))


def assemble_canonical(wrenches: Sequence[Wrench],
                       deflections: Sequence[Deflection]) -> ComplianceMatrix:
    """Assemble k from a canonical 6-wrench scheme.

    The experiment loading component j fills column j with
    deflection / magnitude; this is :func:`assemble_overdetermined`
    on a set it accepts.  Input order does not matter.  Raises
    :class:`NotCanonical` for any other wrench set.
    """
    if not is_canonical(wrenches):
        raise NotCanonical("experiments must form the canonical scheme: six "
                           "single-component wrenches, one per component")
    return assemble_overdetermined(wrenches, deflections)


def _symmetrize(k: np.ndarray, mask: np.ndarray | None,
                ) -> tuple[np.ndarray, np.ndarray | None]:
    """Symmetrize compliance matrices (..., 6, 6) and their significance
    masks; warn once for each matrix that is not positive semidefinite.
    See :func:`symmetrize`."""
    k = (k + k.swapaxes(-1, -2)) / 2.0
    if mask is not None:
        mask = mask | mask.swapaxes(-1, -2)
    eig = np.linalg.eigvalsh(k)
    floor = np.max(np.abs(eig), axis=-1)
    indefinite = (floor > 0.0) & (eig[..., 0] < -1e-9 * floor)
    for low in eig[..., 0][indefinite].tolist():
        warn("symmetrized compliance matrix is not positive "
             f"semidefinite (min eigenvalue {low:.3e})")
    return k, mask


def symmetrize(matrix: ComplianceMatrix) -> ComplianceMatrix:
    """Project onto the symmetric matrices: k <- (k + k^T) / 2.

    The significance mask, when present, is combined with OR so an
    element retained on either side of the diagonal stays retained.
    Warns when the result is not positive semidefinite beyond roundoff.
    """
    k, mask = _symmetrize(matrix.k, matrix.significance_mask)
    return ComplianceMatrix(k, mask, symmetrized=True)


def invert_to_stiffness(matrix: ComplianceMatrix) -> np.ndarray:
    """Invert a symmetric compliance matrix into the stiffness matrix.

    Raises :class:`SingularCompliance` when any eigenvalue is within
    roundoff of zero or negative (unconstrained or unphysical mode).
    """
    k = matrix.k
    scale = np.max(np.abs(k))
    if scale == 0.0 or np.max(np.abs(k - k.T)) > 1e-9 * scale:
        raise ValueError("stiffness inversion needs a symmetric compliance matrix")
    eig = np.linalg.eigvalsh(k)
    if eig[0] <= 1e-12 * np.max(np.abs(eig)):
        raise SingularCompliance(
            f"compliance matrix is singular or indefinite (min eigenvalue {eig[0]:.3e})")
    K = np.linalg.inv(k)
    return (K + K.T) / 2.0
