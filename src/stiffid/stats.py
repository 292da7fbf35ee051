"""Noise estimation, covariance propagation and significance testing.

Nodal displacement errors are modelled as i.i.d. zero-mean Gaussian with
standard deviation sigma per component.  The residual sum of squares of a
rigid fit then carries 3n - 6 degrees of freedom per experiment, the
estimated deflection is Gaussian with a 6x6 covariance that follows from
the normal equations, and compliance elements whose confidence interval
contains zero are treated as structural zeros.

Each stage is one batched function over S independent identifications
(the leading axis of its arrays): :func:`_pool_sigma`,
:func:`_drop_mask`, :func:`_covariance`, :func:`_halfwidth` and
:func:`_significance`.  The identification core
(:func:`stiffid.pipeline.identify_batch`) runs them on whole batches;
the public per-field functions (:func:`estimate_sigma`,
:func:`filter_outliers`, :func:`system_covariance`,
:func:`significance_test`) run them on one row.  A deflection
covariance is a read-only (6, 6) array, and a
:class:`SignificanceReport` holds one row's (6, 6) estimates,
halfwidths, significance mask and safety factors.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .compliance import ComplianceMatrix, Wrench, _pseudo_inverse, _wrench_svd
from .errors import (
    InsufficientDof,
    InvalidArgument,
    MissingCovariance,
    TooFewRemaining,
)
from .estimation import MIN_FIT_NODES, FitGeometry, FitResult, _fit_geometry, skew
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


# The largest sigma whose square is finite: the covariances square sigma
# with Python's float power, which raises OverflowError above it.
_SIGMA_MAX = math.sqrt(sys.float_info.max)


def _check_sigma(sigma: float) -> None:
    if not 0.0 <= sigma <= _SIGMA_MAX:
        raise InvalidArgument(f"sigma must be nonnegative and finite, with a finite "
                              f"square (at most {_SIGMA_MAX!r}), got {sigma!r}")


# bool is an int subclass, so a true or false would pass the range checks
# of these two as 1 or 0; NaN fails every comparison.
def _check_fraction(fraction: float, name: str = "fraction") -> None:
    if isinstance(fraction, bool) or not 0.0 <= fraction < 1.0:
        raise InvalidArgument(f"{name} must be a number in [0, 1), got {fraction!r}")


def _check_multiplier(multiplier: float, name: str) -> None:
    if isinstance(multiplier, bool) or not 0.0 < multiplier < math.inf:
        raise InvalidArgument(
            f"{name} must be a positive and finite number, got {multiplier!r}")


def _covariance(geometry: FitGeometry, sigma: np.ndarray) -> np.ndarray:
    """Deflection covariances (..., 6, 6) of the fits on `geometry` for
    noise levels `sigma` (...,), symmetrized and read-only.  See
    :func:`system_covariance`."""
    # Python's float power, not np.square: the two differ in the last
    # bit for about one sigma in a thousand, and the halfwidths have
    # always been computed from the former.
    variance = np.reshape([s ** 2 for s in np.ravel(sigma).tolist()], np.shape(sigma))
    rotation = variance[..., None, None] * geometry.inverse
    # The translation at the reference point is p = q + c x dphi, with q
    # the mean displacement and c the centroid: lever = [c]x.
    lever = skew(geometry.centroid)
    cross = lever @ rotation
    translation = (variance / geometry.n)[..., None, None] * np.eye(3) \
        + cross @ lever.swapaxes(-1, -2)
    covariance = np.block([[translation, cross], [cross.swapaxes(-1, -2), rotation]])
    # The inverse normal matrix, and with it the lever-arm term, is
    # symmetric only to roundoff.
    covariance = (covariance + covariance.swapaxes(-1, -2)) / 2.0
    covariance.flags.writeable = False
    return covariance


def system_covariance(geometry: FitGeometry, sigma: float) -> np.ndarray:
    """Covariance of the linearized estimate (p; dphi) for noise level
    `sigma`, a read-only symmetric (6, 6) array: mm^2, mm rad and rad^2
    by block.

    With C = sigma^2 M^-1 the rotation block (M the rotation normal
    matrix) and L = [c]x the cross-product matrix of the field centroid
    c, the translation at the reference point, p = q + c x dphi, has the
    block (sigma^2 / n) I + L C L^T, and the translation-rotation block
    is L C: the blocks are [[(sigma^2 / n) I + L C L^T, L C],
    [C L^T, C]].  A field centred on its reference point (c = 0) gives
    a block-diagonal matrix.  It comes from the :class:`FitGeometry` of
    the fitted nodes, which a fit keeps (``FitResult.geometry``), so no
    node is visited again.

    Raises :class:`InvalidArgument` (a ``ValueError``) unless `sigma` is
    nonnegative with a finite square (at most about 1.34e154).
    """
    _check_sigma(sigma)
    return _covariance(geometry, np.float64(sigma))


def deflection_covariance(field: DisplacementField, sigma: float) -> np.ndarray:
    """Covariance of the linearized estimate of `field` for noise level
    `sigma`; see :func:`system_covariance`.  It depends on the node
    positions only, so only the fit geometry is built.

    Raises :class:`DegenerateGeometry` for fewer than 3 nodes or a
    singular rotation normal matrix, and :class:`InvalidArgument` for a
    negative or non-finite `sigma`.
    """
    return system_covariance(_fit_geometry(field.positions)[0], sigma)


def _drop_mask(residuals: np.ndarray, fraction: float) -> np.ndarray | None:
    """Nodes to drop from each row of a batch of fits, by their
    residuals (S, n, 3): True where a node goes, or None when
    ``ceil(fraction * n)`` is 0.  See :func:`filter_outliers`.

    Every row loses the same number of nodes, so the survivors of a
    batch stay one rectangular (S, n - ceil(fraction * n), 3) array.
    """
    _check_fraction(fraction)
    n = residuals.shape[-2]
    remove = math.ceil(fraction * n)
    if remove == 0:
        return None
    if n - remove < MIN_FIT_NODES:
        raise TooFewRemaining(
            f"removing {remove} of {n} nodes leaves fewer than {MIN_FIT_NODES}")
    # Folded one component at a time into one (S, n) score: no (S, n, 3)
    # copy of |residuals|.
    score = np.abs(residuals[..., 0])
    for k in (1, 2):
        np.maximum(score, np.abs(residuals[..., k]), out=score)
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

    Raises :class:`TooFewRemaining` if fewer than 3 nodes would survive,
    and :class:`InvalidArgument` (a ``ValueError``) unless `fraction` is
    a number in [0, 1), not a bool (the rule of ``IdentifyOptions``'
    ``outlier_fraction``).
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
class SignificanceReport:
    """Confidence intervals of the elements of a compliance matrix, as
    read-only (6, 6) copies: the estimates, their halfwidths at
    ``multiplier`` standard deviations, the significance mask and the
    safety factors |estimate| / halfwidth (NaN where not significant)."""

    estimate: np.ndarray
    halfwidth: np.ndarray
    significant: np.ndarray
    safety: np.ndarray
    multiplier: float

    def __post_init__(self):
        for name in ("estimate", "halfwidth", "significant", "safety"):
            a = np.array(getattr(self, name))
            a.flags.writeable = False
            object.__setattr__(self, name, a)
        object.__setattr__(self, "multiplier", float(self.multiplier))

    @property
    def confidence_level(self) -> float:
        """Two-sided normal coverage of +/- ``multiplier`` standard deviations."""
        return math.erf(self.multiplier / math.sqrt(2.0))

    def to_json_dict(self) -> dict:
        """The 36 elements row by row; a non-finite safety factor is None."""
        elements = []
        for i, rows in enumerate(zip(self.estimate.tolist(), self.halfwidth.tolist(),
                                     self.significant.tolist(), self.safety.tolist())):
            for j, (est, hw, sig, factor) in enumerate(zip(*rows)):
                elements.append({
                    "row": i + 1,
                    "col": j + 1,
                    "estimate": est,
                    "halfwidth": hw,
                    "significant": sig,
                    "safety_factor": factor if math.isfinite(factor) else None,
                })
        return {"multiplier": self.multiplier,
                "confidence_level": self.confidence_level,
                "elements": elements}


def _halfwidth(covariances: Sequence[np.ndarray], svd: tuple[np.ndarray, ...],
               multiplier: float) -> np.ndarray:
    """Confidence halfwidths (..., 6, 6) of least-squares compliance
    elements k = D A with A = W^+, from the deflection covariance
    (..., 6, 6) of each experiment and the
    :func:`~stiffid.compliance._wrench_svd` of W.

    The experiments are independent, so Var(k_il) = sum_j A_jl^2
    Var(D_ij): only the diagonal of each deflection covariance enters.
    """
    variances = np.stack([np.diagonal(c, axis1=-2, axis2=-1) for c in covariances], axis=-1)
    return multiplier * np.sqrt(variances @ np.square(_pseudo_inverse(svd)))


def _significance(k: np.ndarray, halfwidth: np.ndarray,
                  ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Significance mask, zeroed matrices and safety factors (NaN where
    not significant) of compliance matrices `k` (..., 6, 6)."""
    significant = np.abs(k) > halfwidth
    with np.errstate(divide="ignore", invalid="ignore"):
        safety = np.where(significant, np.abs(k) / halfwidth, np.nan)
    return significant, np.where(significant, k, 0.0), safety


def significance_test(matrix: ComplianceMatrix,
                      wrenches: Sequence[Wrench],
                      covariances: Sequence[np.ndarray],
                      level_multiplier: float = DEFAULT_CONFIDENCE_MULTIPLIER,
                      ) -> tuple[SignificanceReport, ComplianceMatrix]:
    """Zero out compliance elements indistinguishable from zero.

    `matrix` is taken as the least-squares assembly k = D W^+ of the
    experiments loaded by `wrenches` (see
    :func:`~stiffid.compliance.assemble_overdetermined`), any set of at
    least six that spans all six load directions, else
    :class:`RankDeficientWrenches` is raised; `covariances` holds each
    experiment's (6, 6) deflection covariance, in the same order (see
    :func:`system_covariance`), else ``ValueError`` is raised.
    The confidence halfwidth of element (i, l) is ``level_multiplier``
    times its standard deviation sqrt(sum_j A_jl^2 Var(d_j[i])), with
    A = W^+ and Var(d_j[i]) the variance of deflection component i of
    experiment j from its covariance.  For the canonical scheme that is
    the standard deviation of component i of the column-l experiment
    over the wrench magnitude.  Elements whose interval contains zero
    are set to zero and recorded in the significance mask; significant
    elements report the safety factor |estimate| / halfwidth (infinite
    for a zero halfwidth).  ``level_multiplier`` must be a positive and finite
    number, not a bool (the rule of ``IdentifyOptions``'
    ``confidence_multiplier``), else :class:`InvalidArgument` (a
    ``ValueError``) is raised.
    """
    _check_multiplier(level_multiplier, "level_multiplier")
    if len(covariances) != len(wrenches) or any(c is None for c in covariances):
        raise MissingCovariance("need one deflection covariance per experiment")
    for c in covariances:
        if np.shape(c) != (6, 6):
            raise ValueError(f"deflection covariance must be 6x6, got {np.shape(c)}")
    halfwidth = _halfwidth(covariances, _wrench_svd(wrenches), level_multiplier)
    significant, zeroed, safety = _significance(matrix.k, halfwidth)
    report = SignificanceReport(matrix.k, halfwidth, significant, safety, level_multiplier)
    return report, ComplianceMatrix(zeroed, significant, symmetrized=matrix.symmetrized)
