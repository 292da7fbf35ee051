"""End-to-end identification pipeline from fields to a compliance matrix.

The stages run in this order: fit each experiment with the linearized
model, cut outlier nodes on a per-row median scale, refit the rows that
lost a node, pool the noise level from the final fits, form the
deflection covariances, assemble the matrix, zero the insignificant
elements and finally symmetrize.

:func:`identify_batch` is the one implementation of that chain.  Its
leading axis S runs over independent identifications (the seeds or
trials of a study), not over experiments: experiment j hands it
displacements of shape (S, n_j, 3) and positions of shape (n_j, 3),
shared by all rows, or (S, n_j, 3), and every stage runs batched over
the rows.  Row s of the result is bit-identical to a one-row batch of
row s alone.  :func:`run_identification` is the S = 1 case on views of
the load cases' fields; it stacks no array across experiments, and
since a field holds its arrays in component planes, it copies none of
them into planes.

The load cases of one mesh share their node positions, so the core
builds the fit geometry (see :mod:`stiffid.estimation`) once per
distinct node layout and fits every experiment on that layout with it.
Only the rows whose outlier cut drops a node are refit, each as a
one-row fit of its own survivors, which are gathered straight into the
component planes the fits work on and get their own geometry; every
other row keeps its initial fit.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .compliance import (
    ComplianceMatrix,
    Wrench,
    _least_squares,
    _symmetrize,
    _wrench_svd,
    is_canonical,
)
from .errors import InvalidArgument, NonFiniteCompliance
from .estimation import (
    FitGeometry,
    _fit_geometry,
    _fit_lin,
    _planes,
    _require_centered,
)
from .field import DisplacementField
from .stats import (
    DEFAULT_CONFIDENCE_MULTIPLIER,
    DEFAULT_OUTLIER_LEVEL,
    NoiseEstimate,
    SignificanceReport,
    _check_level,
    _check_multiplier,
    _covariance,
    _cut_level,
    _drop_mask,
    _halfwidth,
    _pool_sigma,
    _roundoff_floor,
    _significance,
)


@dataclass(frozen=True)
class LoadCase:
    """One experiment handed to the pipeline: centered field plus wrench."""

    field: DisplacementField
    wrench: Wrench
    source: str = ""


@dataclass(frozen=True)
class IdentifyOptions:
    outlier_level: float = DEFAULT_OUTLIER_LEVEL
    confidence_multiplier: float = DEFAULT_CONFIDENCE_MULTIPLIER
    symmetrize: bool = True

    def __post_init__(self):
        _check_level(self.outlier_level, "outlier_level")
        _check_multiplier(self.confidence_multiplier, "confidence_multiplier")
        # Not `in (True, False)`: 1 and 0 compare equal to True and False.
        if not isinstance(self.symmetrize, bool):
            raise InvalidArgument(
                f"symmetrize must be true or false, got {self.symmetrize!r}")

    def to_json_dict(self) -> dict:
        """The options as a manifest ``options`` block."""
        return {
            "outlier_level": float(self.outlier_level),
            "confidence_multiplier": float(self.confidence_multiplier),
            "symmetrize": self.symmetrize,
        }


def _indices(mask: np.ndarray | None) -> list[int]:
    return [] if mask is None else np.flatnonzero(mask).tolist()


@dataclass(frozen=True)
class IdentificationResult:
    """One identification: row 0 of a :class:`BatchIdentification`.

    ``deflections`` (6, m) holds each experiment's deflection (p; dphi)
    at the reference point as a column, in experiment order.  Per
    experiment, ``nodes`` is the node count of the final fit,
    ``covariances`` its (6, 6) deflection covariance, ``dropped`` the
    mask of the nodes the outlier cut removed, over the sensor's nodes
    in file order, or None when it removed none, and ``cut_levels`` the
    cut c on |r|^2 / s0^2 (None with the cut off); every array is
    read-only.  ``noise`` is pooled from the final fits, and
    ``sigma_before_cut`` from the initial fits of every node."""

    matrix: ComplianceMatrix
    assembled: ComplianceMatrix
    significance: SignificanceReport
    noise: NoiseEstimate
    sigma_before_cut: float
    deflections: np.ndarray
    nodes: tuple[int, ...]
    covariances: tuple[np.ndarray, ...]
    dropped: tuple[np.ndarray | None, ...]
    cut_levels: tuple[float | None, ...]
    canonical: bool
    options: IdentifyOptions
    sources: tuple[str, ...]

    @cached_property
    def removed(self) -> tuple[tuple[int, ...], ...]:
        """Per experiment, the file-order indices of the removed nodes
        among the sensor's nodes, read from ``dropped`` when first asked
        for: a large field's indices cost time and memory that no stage
        needs."""
        return tuple(tuple(_indices(mask)) for mask in self.dropped)

    def diagnostics(self) -> dict:
        """Per-stage run log entries, JSON-serializable.

        Holds the resolved options and, per experiment, the field file,
        the cut level and the indices of the removed nodes: with the same
        inputs that is enough to rerun the identification.  The pooled
        sigma is given before and after the cut.
        """
        removed = [_indices(mask) for mask in self.dropped]
        return {
            "options": self.options.to_json_dict(),
            "experiments": [
                {
                    "field_file": self.sources[i],
                    "nodes": n,
                    "sigma": self.noise.per_experiment_sigma[i],
                    "cut_level": self.cut_levels[i],
                    "removed_nodes": len(removed[i]),
                    "removed_indices": removed[i],
                }
                for i, n in enumerate(self.nodes)
            ],
            "sigma_before_cut": self.sigma_before_cut,
            "sigma": self.noise.sigma,
            "dof": self.noise.dof,
            "canonical": self.canonical,
            "asymmetry": self.assembled.asymmetry(),
        }


class BatchIdentification(NamedTuple):
    """S independent identifications; see :func:`identify_batch`.

    ``deflections`` (S, 6, m) holds the deflections (p; dphi) of the
    final fits, experiment j in column j: the refit of a row whose
    outlier cut dropped a node, else the initial fit.  Per experiment j:
    ``nodes[j]`` (S,) is the node count of each row's final fit,
    ``dropped[j]`` the read-only (S, n_j) mask of removed nodes (None
    when no row loses one), ``cut_levels[j]`` the cut c on
    |r|^2 / s0^2 (None with the cut off), ``per_experiment_sigma[j]``
    (S,) the noise level of the final fit and ``covariances[j]`` the
    read-only deflection covariances (S, 6, 6) of the final fit at the
    reference point (see :func:`~stiffid.stats.system_covariance`).
    No array holds a per-node value but the drop masks.  ``sigma`` (S,)
    is the noise level pooled from the final fits with ``dof`` (S,)
    degrees of freedom, and ``sigma_before_cut`` (S,) the one pooled
    from the initial fits.
    Every admissible wrench set gives every array: ``assembled``
    (S, 6, 6) is the least-squares matrix before the significance
    stage, ``halfwidth`` its confidence halfwidths, ``significant`` the
    elements outside them, ``safety`` the safety factors of the
    significant elements (NaN elsewhere), and ``matrix`` and ``mask``
    the final matrices and significance masks.
    """

    deflections: np.ndarray
    nodes: tuple[np.ndarray, ...]
    dropped: tuple[np.ndarray | None, ...]
    cut_levels: tuple[float | None, ...]
    sigma: np.ndarray
    dof: np.ndarray
    sigma_before_cut: np.ndarray
    per_experiment_sigma: tuple[np.ndarray, ...]
    covariances: tuple[np.ndarray, ...]
    assembled: np.ndarray
    halfwidth: np.ndarray
    significant: np.ndarray
    safety: np.ndarray
    matrix: np.ndarray
    mask: np.ndarray


def _same_layout(a: np.ndarray, b: np.ndarray) -> bool:
    """Whether float node layouts `a` and `b` are one object or hold the
    same values bit for bit, so that one geometry fits both exactly.

    The values are compared as 64-bit integers: 0.0 and -0.0 compare
    equal as floats but can leave zeros of opposite sign in a fit.
    """
    return a is b or (a.shape == b.shape and
                      np.array_equal(a.view(np.int64), b.view(np.int64)))


def _survivors(a: np.ndarray, keep: np.ndarray) -> np.ndarray:
    """The nodes of `a`, (1, n, 3) or shared (n, 3), where the (1, n)
    mask `keep` is True.  Gathered along the node axis of the planes
    ``a.swapaxes(-1, -2)`` with np.compress (boolean indexing is several
    times slower on large fields), so the result is the (1, m, 3) view
    of new planes (1, 3, m)."""
    kept = np.compress(keep[0], a.swapaxes(-1, -2), axis=-1)
    return kept.reshape(1, 3, -1).swapaxes(-1, -2)


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
    :func:`run_identification`: fit, outlier cut, refit of the rows
    that lost a node, pool sigma over the experiments' final fits,
    covariances, least-squares assembly, significance and
    symmetrization.  The wrenches, at least six that
    span all six load directions, have one SVD per call, shared by
    every row: it gives the assembly k = D W^+ and the element
    variances sum_j (W^+)_jl^2 Var(D_ij) of the significance stage.
    Any row's failure (a degenerate node layout, too few nodes left)
    raises for the batch, and a wrench set that is not admissible
    raises :class:`~stiffid.errors.RankDeficientWrenches`.  Deflections
    that overflow the assembled matrix or its halfwidths (a tiny wrench)
    raise :class:`~stiffid.errors.NonFiniteCompliance`.
    Experiments whose positions equal an earlier experiment's share its
    fit geometry.  Positions, displacements and wrenches must count the
    same experiments; a mismatch raises ``ValueError``.
    """
    if len(wrenches) != len(positions):
        raise ValueError(f"{len(positions)} experiments' positions but "
                         f"{len(wrenches)} wrenches")
    # Per distinct node layout: the positions as given, in planes, and
    # their fit geometry with the centroid-relative positions.
    layouts: list[tuple[np.ndarray, np.ndarray, FitGeometry, np.ndarray]] = []
    # Per experiment: the geometry of the initial fits, and the (row,
    # geometry) of each refit.
    geometries = []
    deflections = []
    dropped = []
    cut_levels = []
    initial_objectives = []
    sizes = []
    objectives = []
    counts = []
    rows = None
    for j, (p, d) in enumerate(zip(positions, displacements, strict=True)):
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
            layout = (p, planes, *_fit_geometry(planes))
            layouts.append(layout)
        _, planes, geometry, rel = layout
        # `d` is kept as given.  A field's arrays are planes already; rows
        # are copied into planes by the fit for its own pass only, since a
        # plane copy held through the experiment adds an array to the peak
        # memory of a large field.
        fit = _fit_lin(geometry, rel, d)
        n = d.shape[-2]
        cut = _cut_level(options.outlier_level, n)
        drop = _drop_mask(fit.score, cut,
                          _roundoff_floor(geometry, fit.translation, fit.rotation))
        deflection = np.concatenate([fit.translation, fit.rotation], axis=-1)
        initial_objectives.append(fit.objective)
        sizes.append(n)
        objective = fit.objective.copy()
        count = np.full(rows, n)
        row_refits = []
        del fit  # free its residuals before any refit gathers survivors
        if drop is not None:
            drop.flags.writeable = False
            count -= np.count_nonzero(drop, axis=-1)
            # Each row that loses a node is refit alone, so it keeps the
            # bits of a one-row batch; the refit's residual sum of
            # squares feeds sigma.
            for s in np.flatnonzero(count < n).tolist():
                keep = ~drop[s:s + 1]
                refit = _fit_lin(*_fit_geometry(_survivors(
                    planes if planes.ndim == 2 else planes[s:s + 1], keep)),
                    _survivors(d[s:s + 1], keep))
                deflection[s] = np.concatenate([refit.translation, refit.rotation],
                                               axis=-1)[0]
                objective[s] = refit.objective[0]
                row_refits.append((s, refit.geometry))
                del refit
        geometries.append((geometry, row_refits))
        deflections.append(deflection)
        dropped.append(drop)
        cut_levels.append(cut)
        objectives.append(objective)
        counts.append(count)
    sigma_before_cut = _pool_sigma(initial_objectives, sizes)[0]
    sigma, dof, per_experiment = _pool_sigma(objectives, counts)
    # Least squares for every admissible wrench set: k = D W^+, with D
    # stacked (S, 6, m), and Var(k_il) = sum_j (W^+)_jl^2 Var(D_ij) from
    # the diagonals of the experiments' covariances.
    svd = _wrench_svd(wrenches)
    deflections = np.stack(deflections, axis=-1)
    deflections.flags.writeable = False
    # Values that overflow are named just below; numpy's warning on the
    # way is silenced.
    with np.errstate(over="ignore", invalid="ignore"):
        covariances = []
        for geometry, row_refits in geometries:
            covariance = _covariance(geometry, sigma)
            for s, refit_geometry in row_refits:
                covariance[s] = _covariance(refit_geometry, sigma[s:s + 1])[0]
            covariance.flags.writeable = False
            covariances.append(covariance)
        assembled = _least_squares(deflections, svd)
        halfwidth = _halfwidth(covariances, svd, options.confidence_multiplier)
    if not (np.isfinite(assembled).all() and np.isfinite(halfwidth).all()):
        raise NonFiniteCompliance("the deflections over the wrenches overflow the "
                                  "compliance matrix or its halfwidths")
    significant, matrix, safety = _significance(assembled, halfwidth)
    mask = significant
    if options.symmetrize:
        matrix, mask = _symmetrize(matrix, mask)
    return BatchIdentification(deflections, tuple(counts), tuple(dropped),
                               tuple(cut_levels), sigma, dof, sigma_before_cut,
                               tuple(per_experiment), tuple(covariances), assembled,
                               halfwidth, significant, safety, matrix, mask)


def run_identification(cases: Sequence[LoadCase],
                       options: IdentifyOptions = IdentifyOptions(),
                       ) -> IdentificationResult:
    """Run the full identification pipeline over a set of load cases.

    Fields must be centered (and already restricted to their sensor
    region).  Any set of at least six wrenches that spans all six load
    directions is assembled by least squares and significance-tested;
    ``canonical`` records whether it was the canonical scheme (six
    single-component wrenches, one per component, in any order), which
    no stage depends on.  This is :func:`identify_batch` with one row:
    the result's deflections, covariances and ``dropped`` masks are
    read-only views of that row, and its significance report holds
    copies of the row's (6, 6) arrays.
    """
    for case in cases:
        _require_centered(case.field, "run_identification")
    wrenches = [case.wrench for case in cases]
    batch = identify_batch([case.field.positions for case in cases],
                           [case.field.displacements[None] for case in cases],
                           wrenches, options)
    noise = NoiseEstimate(float(batch.sigma[0]), int(batch.dof[0]),
                          tuple(float(s[0]) for s in batch.per_experiment_sigma))
    dropped = tuple(None if drop is None else drop[0] for drop in batch.dropped)

    assembled = ComplianceMatrix(batch.assembled[0])
    report = SignificanceReport(batch.assembled[0], batch.halfwidth[0],
                                batch.significant[0], batch.safety[0],
                                options.confidence_multiplier)
    matrix = ComplianceMatrix(batch.matrix[0], batch.mask[0],
                              symmetrized=options.symmetrize)
    return IdentificationResult(matrix, assembled, report, noise,
                                float(batch.sigma_before_cut[0]), batch.deflections[0],
                                tuple(int(n[0]) for n in batch.nodes),
                                tuple(c[0] for c in batch.covariances), dropped,
                                batch.cut_levels, is_canonical(wrenches), options,
                                tuple(case.source for case in cases))
