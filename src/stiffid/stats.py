"""Noise estimation, covariance propagation and significance testing.

Nodal displacement errors are modelled as i.i.d. zero-mean Gaussian with
standard deviation sigma per component.  The residual sum of squares of a
rigid fit then carries 3n - 6 degrees of freedom per experiment, the
estimated deflection is Gaussian with a covariance that follows from the
normal equations, and compliance elements whose confidence interval
contains zero are treated as structural zeros.

Each stage is one batched function over S independent identifications
(the leading axis of its arrays): :func:`_pool_sigma`,
:func:`_drop_mask`, :func:`_covariance`, :func:`_halfwidth` and
:func:`_significance`.  The identification core
(:func:`stiffid.pipeline.identify_batch`) runs them on whole batches;
the public per-field functions (:func:`estimate_sigma`,
:func:`filter_outliers`, :func:`system_covariance`,
:func:`significance_test`) run them on one row.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .compliance import NOT_CANONICAL, ComplianceMatrix, Experiment, canonical_order
from .errors import (
    InsufficientDof,
    InvalidArgument,
    MissingCovariance,
    NotCanonical,
    TooFewRemaining,
)
from .estimation import FitGeometry, FitResult, NormalSystem, _fit_geometry
from .field import DisplacementField

DEFAULT_OUTLIER_FRACTION = 0.10
DEFAULT_CONFIDENCE_MULTIPLIER = 3.0


@dataclass(frozen=True)
class NoiseEstimate:
    """Pooled nodal noise level recovered from fit residuals."""

    sigma: float
    dof: int
    per_experiment_sigma: tuple[float, ...]


def _pool_sigma(objectives: Sequence[np.ndarray], counts: Sequence[int],
                ) -> tuple[np.ndarray, int, list[np.ndarray]]:
    """Pool the residual sums of squares of a batch of identifications.

    `objectives[j]` holds experiment j's residual sum of squares for
    each row, from a fit of `counts[j]` nodes.  Returns the pooled sigma
    of each row, the pooled degrees of freedom and each experiment's own
    sigma per row.
    """
    if not objectives:
        raise InsufficientDof("no fits supplied")
    total_objective = 0.0
    total_dof = 0
    per_experiment = []
    for objective, n in zip(objectives, counts):
        dof = 3 * n - 6
        if dof <= 0:
            raise InsufficientDof(
                f"fit with {n} nodes has no residual degrees of freedom")
        per_experiment.append(np.sqrt(objective / dof))
        total_objective = total_objective + objective
        total_dof += dof
    return np.sqrt(total_objective / total_dof), total_dof, per_experiment


def estimate_sigma(fits: Sequence[FitResult]) -> NoiseEstimate:
    """Pool fit residuals into one nodal noise estimate.

    Each experiment contributes its objective (residual sum of squares)
    with 3n - 6 degrees of freedom; sigma^2 is the ratio of the pooled
    sums.  Raises :class:`InsufficientDof` for fits with n < 3.
    """
    sigma, dof, per_experiment = _pool_sigma(
        [np.array([fit.objective]) for fit in fits], [fit.n for fit in fits])
    return NoiseEstimate(float(sigma[0]), dof,
                         tuple(float(s[0]) for s in per_experiment))


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
        return self.component_std()[:3]

    def rotation_std(self) -> np.ndarray:
        return self.component_std()[3:]

    def component_std(self) -> np.ndarray:
        """Standard deviations of the 6 deflection components."""
        return _component_std(self.translation, self.rotation)


def _check_sigma(sigma: float) -> None:
    if not 0.0 <= sigma < math.inf:
        raise InvalidArgument(f"sigma must be nonnegative and finite, got {sigma!r}")


def _covariance(system: NormalSystem | FitGeometry, sigma: np.ndarray,
                ) -> tuple[np.ndarray, np.ndarray]:
    """Translation and rotation covariance blocks, (..., 3, 3) each, of
    the fits whose normal systems (or geometries) are `system` for noise
    levels `sigma` (...,).  See :func:`system_covariance`."""
    # Python's float power, not np.square: the two differ in the last
    # bit for about one sigma in a thousand, and the halfwidths have
    # always been computed from the former.
    variance = np.reshape([s ** 2 for s in np.ravel(sigma).tolist()], np.shape(sigma))
    return ((variance / system.n)[..., None, None] * np.eye(3),
            variance[..., None, None] * system.inverse)


def _component_std(translation: np.ndarray, rotation: np.ndarray) -> np.ndarray:
    """Standard deviations (..., 6) of the deflection components from
    the covariance blocks (..., 3, 3)."""
    return np.sqrt(np.concatenate([np.diagonal(translation, axis1=-2, axis2=-1),
                                   np.diagonal(rotation, axis1=-2, axis2=-1)], axis=-1))


def system_covariance(system: NormalSystem | FitGeometry,
                      sigma: float) -> DeflectionCovariance:
    """Covariance of the linearized estimate for noise level `sigma`.

    Translation: (sigma^2 / n) I about the field centroid.  Rotation:
    sigma^2 times the inverse of the rotation normal matrix.  Both come
    from the normal system a fit already built (``FitResult.system``), so
    no node is visited again; a :class:`FitGeometry`, which holds the
    same node count and inverse, serves as well.

    Raises :class:`InvalidArgument` (a ``ValueError``) unless `sigma` is
    nonnegative and finite.
    """
    _check_sigma(sigma)
    return DeflectionCovariance(*_covariance(system, np.float64(sigma)))


def deflection_covariance(field: DisplacementField, sigma: float) -> DeflectionCovariance:
    """Covariance of the linearized estimate of `field` for noise level
    `sigma`; see :func:`system_covariance`.  It depends on the node
    positions only, so only the fit geometry is built.

    Raises :class:`DegenerateGeometry` for fewer than 3 nodes or a
    singular rotation normal matrix, and :class:`InvalidArgument` for a
    negative or non-finite `sigma`.
    """
    return system_covariance(_fit_geometry(field.positions), sigma)


def _drop_mask(residuals: np.ndarray, fraction: float) -> np.ndarray | None:
    """Nodes to drop from each row of a batch of fits, by their
    residuals (S, n, 3): True where a node goes, or None when
    ``ceil(fraction * n)`` is 0.  See :func:`filter_outliers`.

    Every row loses the same number of nodes, so the survivors of a
    batch stay one rectangular (S, n - ceil(fraction * n), 3) array.
    """
    if not 0.0 <= fraction < 1.0:
        raise ValueError("fraction must be in [0, 1)")
    n = residuals.shape[-2]
    remove = math.ceil(fraction * n)
    if remove == 0:
        return None
    if n - remove < 3:
        raise TooFewRemaining(
            f"removing {remove} of {n} nodes leaves fewer than 3")
    a = np.abs(residuals)
    score = np.maximum(a[..., 0], a[..., 1])
    np.maximum(score, a[..., 2], out=score)
    # Drop every score at or above the row's threshold, then keep the
    # first of the ties at it until `remove` go: the last ones are the
    # set a stable ascending sort puts last, so an earlier node survives
    # a tie.
    kth = n - remove
    threshold = np.partition(score, kth, axis=-1)[:, kth:kth + 1]
    drop = score >= threshold
    spare = np.count_nonzero(drop, axis=-1) - remove
    for row in np.flatnonzero(spare).tolist():
        ties = np.flatnonzero(score[row] == threshold[row])
        drop[row, ties[:spare[row]]] = False
    return drop


def filter_outliers(field: DisplacementField, fit: FitResult,
                    fraction: float = DEFAULT_OUTLIER_FRACTION,
                    ) -> tuple[DisplacementField, np.ndarray]:
    """Drop the worst-fitting nodes of a field.

    Nodes are ranked by the largest per-axis absolute residual of `fit`
    and the worst ``ceil(fraction * n)`` are removed in a single pass;
    among equal scores at the cut, the nodes with the higher indices go.
    Survivor order is preserved.  Returns the reduced field and the
    integer indices of the removed nodes.

    Raises :class:`TooFewRemaining` if fewer than 3 nodes would survive.
    """
    if fit.n != field.n:
        raise ValueError("fit residuals do not match the field")
    drop = _drop_mask(fit.residuals[None], fraction)
    if drop is None:
        return field, np.empty(0, dtype=int)
    keep = ~drop[0]
    reduced = DisplacementField(np.compress(keep, field.positions, axis=0),
                                np.compress(keep, field.displacements, axis=0),
                                field.reference_point, centered=field.centered)
    return reduced, np.flatnonzero(drop[0])


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


def _halfwidth(std_columns: np.ndarray, magnitudes: Sequence[float],
               multiplier: float) -> np.ndarray:
    """Confidence halfwidths (..., 6, 6) of canonical compliance elements.

    Column j of `std_columns` holds the deflection standard deviations of
    the experiment loading component j with magnitude `magnitudes[j]`.
    """
    return multiplier * std_columns / np.abs(np.asarray(magnitudes, dtype=float))


def _significance(k: np.ndarray, halfwidth: np.ndarray,
                  ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Significance mask, zeroed matrices and safety factors (NaN where
    not significant) of compliance matrices `k` (..., 6, 6)."""
    significant = np.abs(k) > halfwidth
    with np.errstate(divide="ignore", invalid="ignore"):
        safety = np.where(significant, np.abs(k) / halfwidth, np.nan)
    return significant, np.where(significant, k, 0.0), safety


def _report(k: np.ndarray, halfwidth: np.ndarray, significant: np.ndarray,
            safety: np.ndarray, multiplier: float) -> SignificanceReport:
    """One identification's significance stage as a report."""
    elements = []
    for i, rows in enumerate(zip(k.tolist(), halfwidth.tolist(),
                                 significant.tolist(), safety.tolist())):
        for j, (est, hw, sig, factor) in enumerate(zip(*rows)):
            elements.append(SignificanceElement(i + 1, j + 1, est, hw, sig,
                                                factor if sig else None))
    confidence = math.erf(multiplier / math.sqrt(2.0))
    return SignificanceReport(tuple(elements), float(multiplier), confidence)


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
    report the safety factor |estimate| / halfwidth (infinite for a
    zero halfwidth).  ``level_multiplier`` must be positive and finite,
    else :class:`InvalidArgument` (a ``ValueError``) is raised.
    """
    if not 0.0 < level_multiplier < math.inf:
        raise InvalidArgument("level_multiplier must be positive and finite, "
                              f"got {level_multiplier!r}")
    if len(covariances) != len(experiments) or any(c is None for c in covariances):
        raise MissingCovariance("need one deflection covariance per experiment")
    order = canonical_order(experiments)
    if order is None:
        raise NotCanonical(NOT_CANONICAL)
    std = np.stack([covariances[i].component_std() for i, _ in order], axis=-1)
    halfwidth = _halfwidth(std, [magnitude for _, magnitude in order], level_multiplier)
    significant, zeroed, safety = _significance(matrix.k, halfwidth)
    report = _report(matrix.k, halfwidth, significant, safety, level_multiplier)
    result = ComplianceMatrix(zeroed, significant, symmetrized=matrix.symmetrized)
    return report, result
