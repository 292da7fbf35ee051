"""End-to-end identification pipeline from fields to a compliance matrix.

The stages follow the processing order used throughout the package:
estimate each experiment, pool residuals into a noise level, drop
outlier nodes, re-estimate, assemble the matrix, zero insignificant
elements and finally symmetrize.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Sequence

from .compliance import (
    ComplianceMatrix,
    Experiment,
    Wrench,
    assemble_canonical,
    assemble_overdetermined,
    canonical_order,
    symmetrize,
)
from .estimation import AngleExtractionMethod, FitResult, estimate_lin, estimate_svd
from .field import DisplacementField
from .stats import (
    DEFAULT_CONFIDENCE_MULTIPLIER,
    DEFAULT_OUTLIER_FRACTION,
    DeflectionCovariance,
    NoiseEstimate,
    SignificanceReport,
    estimate_sigma,
    filter_outliers,
    significance_test,
    system_covariance,
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
            raise ValueError(f"estimator must be 'lin' or 'svd', got {self.estimator!r}")
        for name in ("outlier_fraction", "confidence_multiplier"):
            # bool is an int subclass, so a JSON true/false would pass the
            # range checks below as 1 or 0.
            value = getattr(self, name)
            if isinstance(value, bool):
                raise ValueError(f"{name} must be a number, got {value!r}")
        if not 0.0 <= self.outlier_fraction < 1.0:
            raise ValueError("outlier_fraction must be in [0, 1), "
                             f"got {self.outlier_fraction!r}")
        if not self.confidence_multiplier > 0.0:
            raise ValueError("confidence_multiplier must be positive, "
                             f"got {self.confidence_multiplier!r}")
        if self.symmetrize not in (True, False):
            raise ValueError(f"symmetrize must be true or false, got {self.symmetrize!r}")
        object.__setattr__(self, "angles", AngleExtractionMethod(self.angles))


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
            "options": {
                "estimator": self.options.estimator,
                "angles": self.options.angles.value,
                "outlier_fraction": float(self.options.outlier_fraction),
                "confidence_multiplier": float(self.options.confidence_multiplier),
                "symmetrize": bool(self.options.symmetrize),
            },
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


def _estimate(field: DisplacementField, options: IdentifyOptions) -> FitResult:
    if options.estimator == "svd":
        return estimate_svd(field, options.angles)
    return estimate_lin(field)


def run_identification(cases: Sequence[LoadCase],
                       options: IdentifyOptions = IdentifyOptions(),
                       ) -> IdentificationResult:
    """Run the full identification pipeline over a set of load cases.

    Fields must be centered (and already restricted to their sensor
    region).  With the canonical scheme (six single-component wrenches,
    one per component, in any order) the matrix is assembled column by
    column and significance-tested; any other admissible set is reduced
    by least squares and the significance stage is skipped.
    """
    initial_fits = [_estimate(case.field, options) for case in cases]
    noise = estimate_sigma(initial_fits)
    log.info("pooled noise sigma=%.6g from %d experiments", noise.sigma, len(cases))

    fits = []
    removed: list[tuple[int, ...]] = []
    for case, fit in zip(cases, initial_fits):
        reduced, dropped = filter_outliers(case.field, fit, options.outlier_fraction)
        removed.append(tuple(dropped.tolist()))
        fits.append(_estimate(reduced, options) if len(dropped) else fit)
        log.info("experiment %s: n=%d, removed=%d", case.source or "?",
                 reduced.n, len(dropped))

    covariances = tuple(system_covariance(fit.system, noise.sigma) for fit in fits)
    experiments = [Experiment(case.wrench, fit.deflection, case.source)
                   for case, fit in zip(cases, fits)]

    canonical = canonical_order(experiments) is not None
    if canonical:
        assembled = assemble_canonical(experiments)
        report, matrix = significance_test(assembled, experiments, covariances,
                                           options.confidence_multiplier)
    else:
        assembled = assemble_overdetermined(experiments)
        report, matrix = None, assembled
        log.info("non-canonical wrench set: significance test skipped")
    log.info("assembled matrix asymmetry %.3e", assembled.asymmetry())

    if options.symmetrize:
        matrix = symmetrize(matrix)
    return IdentificationResult(matrix, assembled, report, noise,
                                tuple(fits), covariances, tuple(removed),
                                canonical, options,
                                tuple(case.source for case in cases))
