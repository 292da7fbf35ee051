"""End-to-end identification pipeline from fields to a compliance matrix.

The stages follow the processing order used throughout the package:
estimate each experiment, pool residuals into a noise level, drop
outlier nodes, re-estimate, assemble the matrix, zero insignificant
elements and finally symmetrize.

:func:`identify_batch` is the one implementation of that chain.  Its
leading axis S runs over independent identifications (the seeds or
trials of a study), not over experiments: experiment j hands it
displacements of shape (S, n_j, 3) and positions of shape (n_j, 3),
shared by all rows, or (S, n_j, 3), and every stage runs batched over
the rows.  Row s of the result is bit-identical to a one-row batch of
row s alone.  :func:`run_identification` is the S = 1 case on views of
the load cases' fields; it stacks no array across experiments.

The load cases of one mesh share their node positions, so the core
builds the fit geometry (see :mod:`stiffid.estimation`) once per
distinct node layout and fits every experiment on that layout with it.
Each refit builds its own geometry from its survivors, which are
gathered straight into the component planes the fits work on.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .compliance import (
    ComplianceMatrix,
    Experiment,
    Wrench,
    _assemble_columns,
    _symmetrize,
    assemble_overdetermined,
    canonical_columns,
)
from .errors import InvalidArgument
from .estimation import (
    AngleExtractionMethod,
    FitGeometry,
    FitResult,
    Fits,
    _deflection,
    _fit_geometry,
    _fit_lin,
    _fit_result,
    _fit_svd,
    _planes,
    _require_centered,
)
from .field import DisplacementField
from .stats import (
    DEFAULT_CONFIDENCE_MULTIPLIER,
    DEFAULT_OUTLIER_FRACTION,
    DeflectionCovariance,
    NoiseEstimate,
    SignificanceReport,
    _component_std,
    _covariance,
    _drop_mask,
    _halfwidth,
    _pool_sigma,
    _report,
    _significance,
)

log = logging.getLogger("stiffid")


@dataclass(frozen=True)
class LoadCase:
    """One experiment handed to the pipeline: centered field plus wrench."""

    field: DisplacementField
    wrench: Wrench
    source: str = ""


@dataclass(frozen=True)
class IdentifyOptions:
    estimator: str = "lin"
    angles: AngleExtractionMethod = AngleExtractionMethod.AVERAGED
    outlier_fraction: float = DEFAULT_OUTLIER_FRACTION
    confidence_multiplier: float = DEFAULT_CONFIDENCE_MULTIPLIER
    symmetrize: bool = True

    def __post_init__(self):
        if self.estimator not in ("lin", "svd"):
            raise InvalidArgument(
                f"estimator must be 'lin' or 'svd', got {self.estimator!r}")
        for name in ("outlier_fraction", "confidence_multiplier"):
            # bool is an int subclass, so a JSON true/false would pass the
            # range checks below as 1 or 0.
            value = getattr(self, name)
            if isinstance(value, bool):
                raise InvalidArgument(f"{name} must be a number, got {value!r}")
        if not 0.0 <= self.outlier_fraction < 1.0:
            raise InvalidArgument("outlier_fraction must be in [0, 1), "
                                  f"got {self.outlier_fraction!r}")
        if not 0.0 < self.confidence_multiplier < math.inf:
            raise InvalidArgument("confidence_multiplier must be positive and finite, "
                                  f"got {self.confidence_multiplier!r}")
        # Not `in (True, False)`: 1 and 0 compare equal to True and False.
        if not isinstance(self.symmetrize, bool):
            raise InvalidArgument(
                f"symmetrize must be true or false, got {self.symmetrize!r}")
        object.__setattr__(self, "angles", AngleExtractionMethod(self.angles))

    def to_json_dict(self) -> dict:
        """The options as a manifest ``options`` block."""
        return {
            "estimator": self.estimator,
            "angles": self.angles.value,
            "outlier_fraction": float(self.outlier_fraction),
            "confidence_multiplier": float(self.confidence_multiplier),
            "symmetrize": self.symmetrize,
        }


@dataclass(frozen=True)
class IdentificationResult:
    matrix: ComplianceMatrix
    assembled: ComplianceMatrix
    significance: SignificanceReport | None
    noise: NoiseEstimate
    fits: tuple[FitResult, ...]
    covariances: tuple[DeflectionCovariance, ...]
    removed: tuple[tuple[int, ...], ...]
    canonical: bool
    options: IdentifyOptions
    sources: tuple[str, ...]

    def diagnostics(self) -> dict:
        """Per-stage run log entries, JSON-serializable.

        Holds the resolved options and, per experiment, the field file
        and the indices of the removed nodes: with the same inputs that
        is enough to rerun the identification.
        """
        return {
            "options": self.options.to_json_dict(),
            "experiments": [
                {
                    "field_file": self.sources[i],
                    "nodes": fit.n,
                    "sigma": self.noise.per_experiment_sigma[i],
                    "removed_nodes": len(self.removed[i]),
                    "removed_indices": list(self.removed[i]),
                }
                for i, fit in enumerate(self.fits)
            ],
            "sigma": self.noise.sigma,
            "dof": self.noise.dof,
            "canonical": self.canonical,
            "asymmetry": self.assembled.asymmetry(),
        }


class BatchIdentification(NamedTuple):
    """S independent identifications; see :func:`identify_batch`.

    Per experiment j: ``fits[j]`` is the final fit (the refit after
    outlier removal), ``dropped[j]`` the (S, n_j) mask of removed nodes
    (None when none are removed), ``per_experiment_sigma[j]`` (S,) the
    noise level of the initial fit and ``covariances[j]`` the
    translation and rotation covariance blocks (S, 3, 3) of the final
    fit.  ``sigma`` (S,) is the pooled noise level with ``dof`` degrees
    of freedom.  ``order`` is the canonical column order, or None for a
    least-squares wrench set, which has no significance stage
    (``halfwidth``, ``significant`` and ``safety`` are then None).
    ``assembled`` (S, 6, 6) is the matrix before the significance stage,
    ``safety`` the safety factors of the significant elements (NaN
    elsewhere), and ``matrix`` and ``mask`` the final matrices and
    significance masks.
    """

    fits: tuple[Fits, ...]
    dropped: tuple[np.ndarray | None, ...]
    sigma: np.ndarray
    dof: int
    per_experiment_sigma: tuple[np.ndarray, ...]
    covariances: tuple[tuple[np.ndarray, np.ndarray], ...]
    order: list[tuple[int, float]] | None
    assembled: np.ndarray
    halfwidth: np.ndarray | None
    significant: np.ndarray | None
    safety: np.ndarray | None
    matrix: np.ndarray
    mask: np.ndarray | None


def _fit(geometry: FitGeometry, displacements: np.ndarray,
         options: IdentifyOptions) -> Fits:
    if options.estimator == "svd":
        return _fit_svd(geometry, displacements, options.angles)
    return _fit_lin(geometry, displacements)


def _same_layout(a: np.ndarray, b: np.ndarray) -> bool:
    """Whether float node layouts `a` and `b` are one object or hold the
    same values bit for bit, so that one geometry fits both exactly.

    The values are compared as 64-bit integers: 0.0 and -0.0 compare
    equal as floats but can leave zeros of opposite sign in a fit.
    """
    return a is b or (a.shape == b.shape and
                      np.array_equal(a.view(np.int64), b.view(np.int64)))


def _survivors(a: np.ndarray, keep: np.ndarray) -> np.ndarray:
    """The nodes of `a`, (S, n, 3) or shared (n, 3), where the (S, n)
    mask `keep` is True; each row keeps the same count m.  Gathered along
    the node axis of the planes ``a.swapaxes(-1, -2)``, so the result is
    the (S, m, 3) view of new planes (S, 3, m)."""
    planes = a.swapaxes(-1, -2)
    rows, n = keep.shape
    if rows == 1:
        # np.compress on one axis; boolean indexing is several times
        # slower on large fields.
        kept = np.compress(keep[0], planes, axis=-1)
    else:
        # One boolean index of the (S * 3, n) planes, each row's mask
        # repeated for its three components; on a study's small blocks
        # it takes a fifth of the time of np.take_along_axis.
        planes = np.broadcast_to(planes, (rows, 3, n)).reshape(-1, n)
        kept = planes[np.repeat(keep, 3, axis=0)]
    return kept.reshape(rows, 3, -1).swapaxes(-1, -2)


def identify_batch(positions: Sequence[np.ndarray],
                   displacements: Iterable[np.ndarray],
                   wrenches: Sequence[Wrench],
                   options: IdentifyOptions = IdentifyOptions(),
                   ) -> BatchIdentification:
    """Identify S compliance matrices at once, one per row of the batch.

    Experiment j contributes the centered node positions `positions[j]`,
    (n_j, 3) shared by every row or (S, n_j, 3), the displacements
    `displacements[j]`, (S, n_j, 3), and the wrench `wrenches[j]`,
    common to all rows.  The experiments are fit one after the other,
    so `displacements` may be a generator that makes each array only
    when it is needed.  Each row runs the full chain of
    :func:`run_identification`: fit, pool sigma over the experiments,
    drop outliers, refit, covariances, assembly, significance (for the
    canonical scheme) and symmetrization.  Any row's failure (a
    degenerate node layout, too few nodes left) raises for the batch.
    Experiments whose positions equal an earlier experiment's share its
    fit geometry.
    """
    # Per distinct node layout: the positions as given, in planes, and
    # their fit geometry.
    layouts: list[tuple[np.ndarray, np.ndarray, FitGeometry]] = []
    fits = []
    dropped = []
    objectives = []
    counts = []
    rows = None
    for j, (p, d) in enumerate(zip(positions, displacements)):
        p, d = np.asarray(p, dtype=float), np.asarray(d, dtype=float)
        if rows is None and d.ndim == 3:
            rows = len(d)
        if d.ndim != 3 or d.shape[2] != 3 or len(d) != rows or not rows or \
                p.shape not in (d.shape, d.shape[1:]):
            raise ValueError(
                f"experiment {j}: displacements must be (S, n, 3) and positions "
                f"(n, 3) or (S, n, 3), with one S >= 1 for all experiments; got "
                f"{d.shape} and {p.shape}")
        layout = next((known for known in layouts if _same_layout(known[0], p)), None)
        if layout is None:
            planes = _planes(p)
            layout = (p, planes, _fit_geometry(planes))
            layouts.append(layout)
        _, planes, geometry = layout
        # `d` is kept as given: the fit copies rows into planes for its
        # own pass only, since a plane copy held through the experiment
        # adds an array to the peak memory of a large field.
        fit = _fit(geometry, d, options)
        objectives.append(fit.objective)
        counts.append(d.shape[-2])
        drop = _drop_mask(fit.residuals, options.outlier_fraction)
        if drop is not None:
            del fit  # free its residuals before the refit makes its own
            keep = ~drop
            fit = _fit(_fit_geometry(_survivors(planes, keep)),
                       _survivors(d, keep), options)
        fits.append(fit)
        dropped.append(drop)
    sigma, dof, per_experiment = _pool_sigma(objectives, counts)
    covariances = tuple(_covariance(fit.system, sigma) for fit in fits)
    deflections = [np.concatenate([fit.translation, fit.rotation], axis=-1)
                   for fit in fits]

    order = canonical_columns(wrenches)
    halfwidth = significant = safety = None
    if order is not None:
        matrix = assembled = _assemble_columns(deflections, order)
        std = np.stack([_component_std(*covariances[i]) for i, _ in order], axis=-1)
        halfwidth = _halfwidth(std, [magnitude for _, magnitude in order],
                               options.confidence_multiplier)
        significant, matrix, safety = _significance(assembled, halfwidth)
    else:
        matrix = assembled = np.stack([
            assemble_overdetermined([Experiment(w, _deflection(fit, row))
                                     for w, fit in zip(wrenches, fits)]).k
            for row in range(len(sigma))])
    mask = significant
    if options.symmetrize:
        matrix, mask = _symmetrize(matrix, mask)
    return BatchIdentification(tuple(fits), tuple(dropped), sigma, dof,
                               tuple(per_experiment), covariances, order,
                               assembled, halfwidth, significant, safety,
                               matrix, mask)


def run_identification(cases: Sequence[LoadCase],
                       options: IdentifyOptions = IdentifyOptions(),
                       ) -> IdentificationResult:
    """Run the full identification pipeline over a set of load cases.

    Fields must be centered (and already restricted to their sensor
    region).  With the canonical scheme (six single-component wrenches,
    one per component, in any order) the matrix is assembled column by
    column and significance-tested; any other admissible set is reduced
    by least squares and the significance stage is skipped.  This is
    :func:`identify_batch` with one row.
    """
    for case in cases:
        _require_centered(case.field, "run_identification")
    batch = identify_batch([case.field.positions for case in cases],
                           [case.field.displacements[None] for case in cases],
                           [case.wrench for case in cases], options)
    noise = NoiseEstimate(float(batch.sigma[0]), batch.dof,
                          tuple(float(s[0]) for s in batch.per_experiment_sigma))
    log.info("pooled noise sigma=%.6g from %d experiments", noise.sigma, len(cases))
    fits = tuple(_fit_result(fit, 0) for fit in batch.fits)
    removed = tuple(() if drop is None else tuple(np.flatnonzero(drop[0]).tolist())
                    for drop in batch.dropped)
    for case, fit, dropped in zip(cases, fits, removed):
        log.info("experiment %s: n=%d, removed=%d", case.source or "?",
                 fit.n, len(dropped))
    covariances = tuple(DeflectionCovariance(t[0], r[0]) for t, r in batch.covariances)

    assembled = ComplianceMatrix(batch.assembled[0])
    report = None
    if batch.order is None:
        log.info("non-canonical wrench set: significance test skipped")
    else:
        report = _report(batch.assembled[0], batch.halfwidth[0], batch.significant[0],
                         batch.safety[0], options.confidence_multiplier)
    log.info("assembled matrix asymmetry %.3e", assembled.asymmetry())
    mask = None if batch.mask is None else batch.mask[0]
    matrix = ComplianceMatrix(batch.matrix[0], mask, symmetrized=options.symmetrize)
    return IdentificationResult(matrix, assembled, report, noise, fits, covariances,
                                removed, batch.order is not None, options,
                                tuple(case.source for case in cases))
