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
:func:`_significance`.

Outlier nodes are cut by a chi-square test on a robust scale.  Under
the model a node's squared residual |r|^2 is sigma^2 times a chi^2_3
variable, whatever the frame of the export.  The scale comes from the
median: s0^2 = median(|r|^2) / m3, with m3 = 2.3660 the chi^2_3
median, which a minority of outliers cannot move.  A node goes when
|r|^2 > c s0^2, with c the chi^2_3 quantile at 1 - level / n: on
Gaussian data every node of an experiment survives with probability
about 1 - level (the reweighting step after a robust start;
Rousseeuw & Leroy 1987, *Robust Regression and Outlier Detection*,
ch. 5).  The identification core
(:func:`stiffid.pipeline.identify_batch`) runs them on whole batches;
the public per-field functions (:func:`estimate_sigma`,
:func:`filter_outliers`, :func:`system_covariance`,
:func:`significance_test`) run them on one row.  A deflection
covariance is a read-only (6, 6) array, and a
:class:`SignificanceReport` holds one row's (6, 6) estimates,
halfwidths, significance mask and safety factors.
"""

from __future__ import annotations

import functools
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
from .estimation import (
    MIN_FIT_NODES,
    FitGeometry,
    FitResult,
    _fit_geometry,
    _node_score,
    skew,
)
from .field import DisplacementField

DEFAULT_OUTLIER_LEVEL = 0.01
DEFAULT_CONFIDENCE_MULTIPLIER = 3.0

# Below this ratio of the robust noise scale s0 to the rms of the fitted
# rigid displacement, the residuals are roundoff and no node is cut.
# Noise-free fields read up to 4e-13 (175,616 nodes) and many read 0.
ROUNDOFF_SCALE = 1e-10


@dataclass(frozen=True)
class NoiseEstimate:
    """Pooled nodal noise level recovered from fit residuals."""

    sigma: float
    dof: int
    per_experiment_sigma: tuple[float, ...]


def _pool_sigma(objectives: Sequence[np.ndarray], counts: Sequence,
                ) -> tuple[np.ndarray, np.ndarray, list[np.ndarray]]:
    """Pool the residual sums of squares of a batch of identifications.

    `objectives[j]` holds experiment j's residual sum of squares for
    each row, from fits of `counts[j]` nodes, one count for every row or
    one per row.  Returns the pooled sigma of each row, the pooled
    degrees of freedom and each experiment's own sigma per row.
    """
    if not objectives:
        raise InsufficientDof("no fits supplied")
    total_objective = 0.0
    total_dof = 0
    per_experiment = []
    for objective, n in zip(objectives, counts):
        dof = 3 * np.asarray(n) - 6
        if (dof <= 0).any():
            raise InsufficientDof(
                f"fit with {np.min(n)} nodes has no residual degrees of freedom")
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
    return NoiseEstimate(float(sigma[0]), int(dof),
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
def _check_level(level: float, name: str = "level") -> None:
    if isinstance(level, bool) or not 0.0 <= level < 1.0:
        raise InvalidArgument(f"{name} must be a number in [0, 1), got {level!r}")


def _check_multiplier(multiplier: float, name: str) -> None:
    if isinstance(multiplier, bool) or not 0.0 < multiplier < math.inf:
        raise InvalidArgument(
            f"{name} must be a positive and finite number, got {multiplier!r}")


def _covariance(geometry: FitGeometry, sigma: np.ndarray) -> np.ndarray:
    """Deflection covariances (..., 6, 6) of the fits on `geometry` for
    noise levels `sigma` (...,), symmetrized.  See
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
    covariance = np.empty(rotation.shape[:-2] + (6, 6))
    covariance[..., :3, :3] = (variance / geometry.n)[..., None, None] * np.eye(3) \
        + cross @ lever.swapaxes(-1, -2)
    covariance[..., :3, 3:] = cross
    covariance[..., 3:, :3] = cross.swapaxes(-1, -2)
    covariance[..., 3:, 3:] = rotation
    # The inverse normal matrix, and with it the lever-arm term, is
    # symmetric only to roundoff.
    return (covariance + covariance.swapaxes(-1, -2)) / 2.0


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
    covariance = _covariance(geometry, np.float64(sigma))
    covariance.flags.writeable = False
    return covariance


def deflection_covariance(field: DisplacementField, sigma: float) -> np.ndarray:
    """Covariance of the linearized estimate of `field` for noise level
    `sigma`; see :func:`system_covariance`.  It depends on the node
    positions only, so only the fit geometry is built.

    Raises :class:`DegenerateGeometry` for fewer than 3 nodes or a
    singular rotation normal matrix, and :class:`InvalidArgument` for a
    negative or non-finite `sigma`.
    """
    return system_covariance(_fit_geometry(field.positions)[0], sigma)


def _chi2_3_tail(x: float) -> float:
    """P(chi^2_3 > x), in closed form."""
    return math.erfc(math.sqrt(x / 2.0)) + math.sqrt(2.0 * x / math.pi) * math.exp(-x / 2.0)


@functools.lru_cache(maxsize=None)
def _chi2_3_quantile(tail: float) -> float:
    """The x with P(chi^2_3 > x) = `tail`, in [0, 1], by bisection to the
    last bit.  The tail underflows to 0 from about x = 1,490 on, so
    2,048 bounds every quantile."""
    low, high = 0.0, 2048.0
    while low < (middle := (low + high) / 2.0) < high:
        if _chi2_3_tail(middle) > tail:
            low = middle
        else:
            high = middle
    return high


_CHI2_3_MEDIAN = _chi2_3_quantile(0.5)


def _cut_level(level: float, n: int) -> float | None:
    """The cut c of an experiment of `n` nodes at family-wise `level`:
    the chi^2_3 quantile at 1 - level / n, or None for level 0 (no
    cut).  See :func:`filter_outliers`."""
    _check_level(level)
    return None if level == 0.0 else _chi2_3_quantile(level / n)


def _roundoff_floor(geometry: FitGeometry, translation: np.ndarray,
                    rotation: np.ndarray) -> np.ndarray:
    """The s0^2 (S,) at or below which fits (S, 3) on `geometry` cut no
    node: ``ROUNDOFF_SCALE**2`` times the mean square of the fitted
    rigid displacement q + dphi x r over the nodes, |q|^2 +
    dphi^T M dphi / n (q the mean displacement, M the rotation normal
    matrix).  Like the score, it does not depend on the frame."""
    # Values that overflow give an infinite floor, which cuts nothing.
    with np.errstate(over="ignore", invalid="ignore"):
        mean = translation + np.cross(rotation, geometry.centroid)
        square = np.einsum("...i,...i->...", mean, mean) + np.einsum(
            "...i,...ij,...j->...", rotation, geometry.moment, rotation) / geometry.n
        return ROUNDOFF_SCALE ** 2 * square


def _drop_mask(score: np.ndarray, cut: float | None,
               floor: np.ndarray) -> np.ndarray | None:
    """Nodes to drop from each row of a batch of fits, by their squared
    residuals `score` (S, n): True where |r|^2 > cut * s0^2, with s0^2
    the row's order statistic at n // 2 over the chi^2_3 median.  A row
    whose s0^2 is at or below its roundoff `floor` (S,) drops nothing.
    Returns None when no row drops a node.  See :func:`filter_outliers`.
    """
    if cut is None:
        return None
    n = score.shape[-1]
    kth = n // 2
    scale = np.partition(score, kth, axis=-1)[..., kth] / _CHI2_3_MEDIAN
    # A strict threshold: nodes of equal score share one fate.  One that
    # overflows drops nothing.
    with np.errstate(over="ignore"):
        threshold = np.where(scale > floor, cut * scale, np.inf)
    drop = score > threshold[..., None]
    if not drop.any():
        return None
    # The cut keeps every node at or below the median, so only a field
    # of 3 nodes can fall short.
    if (n - np.count_nonzero(drop, axis=-1) < MIN_FIT_NODES).any():
        raise TooFewRemaining(
            f"the outlier cut leaves fewer than {MIN_FIT_NODES} of {n} nodes")
    return drop


def filter_outliers(field: DisplacementField, fit: FitResult,
                    level: float = DEFAULT_OUTLIER_LEVEL,
                    ) -> tuple[DisplacementField, np.ndarray]:
    """Drop the nodes of a field that fit too badly to be noise.

    Each node is scored by its squared residual |r|^2 under `fit`, and
    the scale s0^2 is the median score over 2.3660, the chi^2_3 median.
    The nodes with |r|^2 > c s0^2 go, where c is the chi^2_3 quantile at
    1 - `level` / n: on Gaussian noise all n nodes stay with probability
    about 1 - `level`.  The threshold is strict, so nodes of equal score
    stay or go together.  Nothing goes at `level` 0, nor when s0 is at
    most ``ROUNDOFF_SCALE`` times the rms of the fitted rigid
    displacement (the residuals are then roundoff).  Survivor order is
    preserved.  Returns the reduced field and the integer indices of the
    removed nodes.

    Raises :class:`TooFewRemaining` if fewer than 3 nodes would survive,
    and :class:`InvalidArgument` (a ``ValueError``) unless `level` is a
    number in [0, 1), not a bool (the rule of ``IdentifyOptions``'
    ``outlier_level``).
    """
    if fit.n != field.n:
        raise ValueError("fit residuals do not match the field")
    cut = _cut_level(level, field.n)
    geometry = fit.geometry if fit.geometry is not None \
        else _fit_geometry(field.positions)[0]
    deflection = fit.deflection
    drop = _drop_mask(_node_score(fit.residuals[None]), cut, _roundoff_floor(
        geometry, deflection.translation[None], deflection.rotation[None]))
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
