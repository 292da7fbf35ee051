"""Noise estimation, covariance propagation and significance testing.

Nodal displacement errors are modelled as i.i.d. zero-mean Gaussian with
standard deviation sigma per component.  The residual sum of squares of a
rigid fit then carries 3n - 6 degrees of freedom per experiment, the
estimated deflection is Gaussian with a covariance that follows from the
normal equations, and compliance elements whose confidence interval
contains zero are treated as structural zeros.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .compliance import NOT_CANONICAL, ComplianceMatrix, Experiment, canonical_order
from .errors import (
    InsufficientDof,
    MissingCovariance,
    NotCanonical,
    TooFewRemaining,
)
from .estimation import FitResult, NormalSystem, _normal_system
from .field import DisplacementField

DEFAULT_OUTLIER_FRACTION = 0.10
DEFAULT_CONFIDENCE_MULTIPLIER = 3.0


@dataclass(frozen=True)
class NoiseEstimate:
    """Pooled nodal noise level recovered from fit residuals."""

    sigma: float
    dof: int
    per_experiment_sigma: tuple[float, ...]


def estimate_sigma(fits: Sequence[FitResult]) -> NoiseEstimate:
    """Pool fit residuals into one nodal noise estimate.

    Each experiment contributes its objective (residual sum of squares)
    with 3n - 6 degrees of freedom; sigma^2 is the ratio of the pooled
    sums.  Raises :class:`InsufficientDof` for fits with n < 3.
    """
    if not fits:
        raise InsufficientDof("no fits supplied")
    total_objective = 0.0
    total_dof = 0
    per_experiment = []
    for fit in fits:
        dof = 3 * fit.n - 6
        if dof <= 0:
            raise InsufficientDof(
                f"fit with {fit.n} nodes has no residual degrees of freedom")
        per_experiment.append(math.sqrt(fit.objective / dof))
        total_objective += fit.objective
        total_dof += dof
    return NoiseEstimate(math.sqrt(total_objective / total_dof), total_dof,
                         tuple(per_experiment))


@dataclass(frozen=True)
class DeflectionCovariance:
    """Covariance of an estimated deflection: translation mm^2, rotation rad^2."""

    translation: np.ndarray
    rotation: np.ndarray

    def __post_init__(self):
        for name in ("translation", "rotation"):
            m = np.asarray(getattr(self, name), dtype=float)
            if m.shape != (3, 3):
                raise ValueError(f"{name} covariance must be 3x3")
            m = (m + m.T) / 2.0
            m.flags.writeable = False
            object.__setattr__(self, name, m)

    def translation_std(self) -> np.ndarray:
        return np.sqrt(np.diag(self.translation))

    def rotation_std(self) -> np.ndarray:
        return np.sqrt(np.diag(self.rotation))

    def component_std(self) -> np.ndarray:
        """Standard deviations of the 6 deflection components."""
        return np.concatenate([self.translation_std(), self.rotation_std()])


def system_covariance(system: NormalSystem, sigma: float) -> DeflectionCovariance:
    """Covariance of the linearized estimate for noise level `sigma`.

    Translation: (sigma^2 / n) I about the field centroid.  Rotation:
    sigma^2 times the inverse of the rotation normal matrix.  Both come
    from the normal system a fit already built (``FitResult.system``), so
    no node is visited again.
    """
    if sigma < 0:
        raise ValueError("sigma must be nonnegative")
    variance = sigma ** 2
    return DeflectionCovariance((variance / system.n) * np.eye(3),
                                variance * system.inverse)


def deflection_covariance(field: DisplacementField, sigma: float) -> DeflectionCovariance:
    """Covariance of the linearized estimate of `field` for noise level
    `sigma`; see :func:`system_covariance`.

    Raises :class:`DegenerateGeometry` for fewer than 3 nodes or a
    singular rotation normal matrix.
    """
    system, _, _ = _normal_system(field)
    return system_covariance(system, sigma)


def filter_outliers(field: DisplacementField, fit: FitResult,
                    fraction: float = DEFAULT_OUTLIER_FRACTION,
                    ) -> tuple[DisplacementField, np.ndarray]:
    """Drop the worst-fitting nodes of a field.

    Nodes are ranked by the largest per-axis absolute residual of `fit`
    and the worst ``ceil(fraction * n)`` are removed in a single pass.
    Survivor order is preserved.  Returns the reduced field and the
    integer indices of the removed nodes.

    Raises :class:`TooFewRemaining` if fewer than 3 nodes would survive.
    """
    if not 0.0 <= fraction < 1.0:
        raise ValueError("fraction must be in [0, 1)")
    if fit.n != field.n:
        raise ValueError("fit residuals do not match the field")
    n = field.n
    remove = math.ceil(fraction * n)
    if remove == 0:
        return field, np.empty(0, dtype=int)
    if n - remove < 3:
        raise TooFewRemaining(
            f"removing {remove} of {n} nodes leaves fewer than 3")
    a = np.abs(fit.residuals)
    score = np.maximum(a[:, 0], a[:, 1])
    np.maximum(score, a[:, 2], out=score)
    # Drop every score above the threshold, then the last indices among
    # the ties at it: the set a stable ascending sort puts last, so an
    # earlier node survives a tie.
    kth = n - remove
    threshold = np.partition(score, kth)[kth]
    drop = score > threshold
    ties = np.flatnonzero(score == threshold)
    drop[ties[len(ties) - (remove - np.count_nonzero(drop)):]] = True
    keep = ~drop
    reduced = DisplacementField(np.compress(keep, field.positions, axis=0),
                                np.compress(keep, field.displacements, axis=0),
                                field.reference_point, centered=field.centered)
    removed = np.flatnonzero(drop)
    return reduced, removed


@dataclass(frozen=True)
class SignificanceElement:
    row: int
    col: int
    estimate: float
    halfwidth: float
    significant: bool
    safety_factor: float | None


@dataclass(frozen=True)
class SignificanceReport:
    """Per-element confidence intervals of a compliance matrix."""

    elements: tuple[SignificanceElement, ...]
    multiplier: float
    confidence_level: float

    def to_json_dict(self) -> dict:
        return {
            "multiplier": self.multiplier,
            "confidence_level": self.confidence_level,
            "elements": [
                {
                    "row": e.row,
                    "col": e.col,
                    "estimate": e.estimate,
                    "halfwidth": e.halfwidth,
                    "significant": e.significant,
                    "safety_factor": None if e.safety_factor is None
                    or not math.isfinite(e.safety_factor) else e.safety_factor,
                }
                for e in self.elements
            ],
        }


def significance_test(matrix: ComplianceMatrix,
                      experiments: Sequence[Experiment],
                      covariances: Sequence[DeflectionCovariance],
                      level_multiplier: float = DEFAULT_CONFIDENCE_MULTIPLIER,
                      ) -> tuple[SignificanceReport, ComplianceMatrix]:
    """Zero out compliance elements indistinguishable from zero.

    The experiments must form the canonical scheme (see
    :func:`~stiffid.compliance.canonical_order`) so every column of the
    matrix maps to exactly one experiment; otherwise :class:`NotCanonical`
    is raised.  The confidence halfwidth of element (i, j) is
    ``level_multiplier`` times the standard deviation of deflection
    component i of the column-j experiment, divided by the wrench
    magnitude.  Elements whose interval contains zero are set to
    zero and recorded in the significance mask; significant elements
    report the safety factor |estimate| / halfwidth.
    """
    if level_multiplier <= 0:
        raise ValueError("level_multiplier must be positive")
    if len(covariances) != len(experiments) or any(c is None for c in covariances):
        raise MissingCovariance("need one deflection covariance per experiment")
    order = canonical_order(experiments)
    if order is None:
        raise NotCanonical(NOT_CANONICAL)

    halfwidth = np.column_stack(
        [level_multiplier * covariances[i].component_std() / abs(magnitude)
         for i, magnitude in order])

    significant = np.abs(matrix.k) > halfwidth
    zeroed = np.where(significant, matrix.k, 0.0)
    elements = []
    for i, (k_row, hw_row, sig_row) in enumerate(zip(
            matrix.k.tolist(), halfwidth.tolist(), significant.tolist())):
        for j, (est, hw, sig) in enumerate(zip(k_row, hw_row, sig_row)):
            if sig:
                safety = abs(est) / hw if hw > 0 else math.inf
            else:
                safety = None
            elements.append(SignificanceElement(i + 1, j + 1, est, hw, sig, safety))
    confidence = math.erf(level_multiplier / math.sqrt(2.0))
    report = SignificanceReport(tuple(elements), float(level_multiplier), confidence)
    result = ComplianceMatrix(zeroed, significant, symmetrized=matrix.symmetrized)
    return report, result
