"""Assembly of the 6x6 compliance matrix from loading experiments.

A wrench w = (F; M) applied at the reference point produces the
deflection d = (p; dphi) = k w, with k the compliance matrix in units of
mm/N, mm/(N mm), rad/N and rad/(N mm) by block.  Six single-component
wrenches (the canonical scheme) give the columns of k directly; larger
experiment sets are reduced by least squares.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import (
    InvalidArgument,
    NotCanonical,
    RankDeficientWrenches,
    SingularCompliance,
    ZeroMagnitude,
)
from .estimation import Deflection

# Documentation block written alongside every matrix; rows are response
# components, columns are applied wrench components.
UNITS_NOTE = {
    "rows": ["px (mm)", "py (mm)", "pz (mm)", "phix (rad)", "phiy (rad)", "phiz (rad)"],
    "columns": ["Fx (N)", "Fy (N)", "Fz (N)", "Mx (N mm)", "My (N mm)", "Mz (N mm)"],
}

_COMPONENTS = ("Fx", "Fy", "Fz", "Mx", "My", "Mz")

NOT_CANONICAL = ("experiments must form the canonical scheme: six "
                 "single-component wrenches, one per component")


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
        values = f.tolist() + t.tolist()
        nonzero = [i for i, v in enumerate(values) if v != 0.0]
        if not nonzero:
            raise ValueError("wrench must have at least one nonzero component")
        f.flags.writeable = False
        t.flags.writeable = False
        object.__setattr__(self, "force", f)
        object.__setattr__(self, "torque", t)
        # Found once here: canonical_columns asks for it on every
        # wrench of every identification.
        object.__setattr__(self, "_single", (nonzero[0], values[nonzero[0]])
                           if len(nonzero) == 1 else None)

    def as_vector(self) -> np.ndarray:
        return np.concatenate([self.force, self.torque])

    def single_component(self) -> tuple[int, float] | None:
        """(index, value) when exactly one of the six components is nonzero."""
        return self._single


@dataclass(frozen=True)
class Experiment:
    """One virtual loading experiment: applied wrench and measured deflection."""

    wrench: Wrench
    deflection: Deflection
    field_source: str = ""


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


def compliance_from_json_dict(data: dict) -> ComplianceMatrix:
    """Rebuild a matrix from the dictionary written by ``to_json_dict``."""
    if "k" not in data:
        raise ValueError("missing 'k' entry")
    return ComplianceMatrix(
        np.asarray(data["k"], dtype=float),
        None if data.get("significance_mask") is None
        else np.asarray(data["significance_mask"], dtype=bool),
        bool(data.get("symmetrized", False)),
    )


def load_compliance_json(path) -> ComplianceMatrix:
    with open(str(path), "r", encoding="utf-8") as handle:
        return compliance_from_json_dict(json.load(handle))


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


def canonical_columns(wrenches: Sequence[Wrench]) -> list[tuple[int, float]] | None:
    """Detect the canonical scheme: six single-component wrenches, one
    per component, in any order.

    Returns, for each column j, the index of the wrench that loads
    component j and that component's magnitude; None for any other set.
    """
    if len(wrenches) != 6:
        return None
    order: list[tuple[int, float] | None] = [None] * 6
    for i, wrench in enumerate(wrenches):
        single = wrench.single_component()
        if single is None or order[single[0]] is not None:
            return None
        order[single[0]] = (i, single[1])
    return order


def canonical_order(experiments: Sequence[Experiment]) -> list[tuple[int, float]] | None:
    """:func:`canonical_columns` of the experiments' wrenches."""
    return canonical_columns([exp.wrench for exp in experiments])


def _assemble_columns(deflections: Sequence[np.ndarray],
                      order: list[tuple[int, float]]) -> np.ndarray:
    """Canonical compliance matrices (..., 6, 6) from the deflection
    vectors (..., 6) of each experiment and the scheme's column order."""
    return np.stack([deflections[i] / magnitude for i, magnitude in order], axis=-1)


def assemble_canonical(experiments: Sequence[Experiment]) -> ComplianceMatrix:
    """Assemble k column by column from a canonical 6-wrench scheme.

    The experiment loading component j fills column j with
    deflection / magnitude.  Input order does not matter.  Raises
    :class:`NotCanonical` for any other experiment set.
    """
    order = canonical_order(experiments)
    if order is None:
        raise NotCanonical(NOT_CANONICAL)
    return ComplianceMatrix(_assemble_columns(
        [exp.deflection.as_vector() for exp in experiments], order))


def assemble_overdetermined(experiments: Sequence[Experiment]) -> ComplianceMatrix:
    """Least-squares assembly from m >= 6 wrenches of any structure.

    Solves min |k W - D| over k, where W and D stack the wrench and
    deflection vectors column-wise.  Requires the wrenches to span all
    six directions.
    """
    m = len(experiments)
    if m < 6:
        raise RankDeficientWrenches(
            f"insufficient experiments: need at least 6, got {m}")
    W = np.column_stack([e.wrench.as_vector() for e in experiments])
    D = np.column_stack([e.deflection.as_vector() for e in experiments])
    s = np.linalg.svd(W, compute_uv=False)
    if s[-1] <= 1e-12 * s[0]:
        raise RankDeficientWrenches(
            "wrench set does not span all six load directions")
    kT, *_ = np.linalg.lstsq(W.T, D.T, rcond=None)
    return ComplianceMatrix(kT.T)


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
        warnings.warn("symmetrized compliance matrix is not positive "
                      f"semidefinite (min eigenvalue {low:.3e})",
                      stacklevel=3)
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
