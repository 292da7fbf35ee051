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
distinct node layout, fits every experiment on that layout with it and
forms one covariance per layout.  Only the rows whose outlier cut drops
a node are refit, each on its own survivors, which are gathered
straight into the component planes the fits work on; every other row
keeps its initial fit.  The rows that keep m nodes, from any
experiment, are refit together as one batch of per-row positions (one
geometry, one fit and one covariance per batch of up to
``_BLOCK_NODES`` nodes), so that a study's refits cost a few batched
calls instead of one chain per row.  Each row of a refit batch has the
bits of a refit of its own.
"""

from __future__ import annotations

import threading
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

# Nodes per batch, whatever the rows, which bounds the arrays of a
# batch: a refit batch holds the rows of one survivor count up to this
# many nodes, and the studies of stiffid.synthetic identify their trials
# in blocks of up to this many nodes per experiment.  The default
# zero-detection study, 100 seeds of 121 nodes, is one block: 2 fit
# geometries and 7 fits (its 10 rows that lose a node form one refit
# batch), at a traced peak of about 1.2 MiB per study call.
_BLOCK_NODES = 1 << 14


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
        return tuple(() if mask is None else tuple(np.flatnonzero(mask).tolist())
                     for mask in self.dropped)

    def diagnostics(self) -> dict:
        """Per-stage run log entries, JSON-serializable.

        Holds the resolved options and, per experiment, the field file,
        the cut level and the indices of the removed nodes: with the same
        inputs that is enough to rerun the identification.  The pooled
        sigma is given before and after the cut.
        """
        return {
            "options": self.options.to_json_dict(),
            "experiments": [
                {
                    "field_file": self.sources[i],
                    "nodes": n,
                    "sigma": self.noise.per_experiment_sigma[i],
                    "cut_level": self.cut_levels[i],
                    "removed_nodes": len(self.removed[i]),
                    "removed_indices": list(self.removed[i]),
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


def _layout_indices(positions: Sequence[np.ndarray]) -> list[int]:
    """Each experiment's index among the distinct node layouts of
    `positions`, numbered in order of first use, by :func:`_same_layout`
    against the first experiment of each layout."""
    firsts: list[np.ndarray] = []
    indices = []
    for p in positions:
        index = next((i for i, first in enumerate(firsts) if _same_layout(first, p)),
                     len(firsts))
        if index == len(firsts):
            firsts.append(p)
        indices.append(index)
    return indices


class _HelperThread(threading.Thread):
    """`function(*args)` on a thread of its own; :meth:`result` joins it
    and returns the value, or raises its exception on the caller's
    thread."""

    def __init__(self, function, *args):
        super().__init__()
        self._call = function, args
        self._value = self._error = None

    def run(self):
        function, args = self._call
        try:
            self._value = function(*args)
        except BaseException as error:
            self._error = error

    def result(self):
        self.join()
        if self._error is not None:
            raise self._error
        return self._value


def _survivors(a: np.ndarray, keep: np.ndarray) -> np.ndarray:
    """The nodes of `a`, (1, n, 3) or shared (n, 3), where the (1, n)
    mask `keep` is True.  Gathered along the node axis of the planes
    ``a.swapaxes(-1, -2)`` with np.compress (boolean indexing is several
    times slower on large fields), so the result is the (1, m, 3) view
    of new planes (1, 3, m)."""
    kept = np.compress(keep[0], a.swapaxes(-1, -2), axis=-1)
    return kept.reshape(1, 3, -1).swapaxes(-1, -2)


def _block_rows(nodes: int) -> int:
    """The rows of `nodes` nodes each in one batch: as many as fit in
    ``_BLOCK_NODES`` nodes, and at least one."""
    return max(1, _BLOCK_NODES // nodes)


def _stacked(arrays: Sequence[np.ndarray]) -> np.ndarray:
    """Survivors (1, m, 3) stacked as the (k, m, 3) view of planes
    (k, 3, m); one array comes back as it is, without a copy."""
    if len(arrays) == 1:
        return arrays[0]
    return np.concatenate([a.swapaxes(-1, -2) for a in arrays]).swapaxes(-1, -2)


def _refit(group: list, deflections: list[np.ndarray], objectives: list[np.ndarray],
           ) -> tuple[FitGeometry, tuple[int, ...], tuple[int, ...]]:
    """Refit the rows of `group`, (experiment j, row s, positions,
    displacements) with survivors (1, m, 3) of one count m each, as one
    batch of per-row positions; write each row's deflection and residual
    sum of squares into ``deflections[j][s]`` and ``objectives[j][s]``.
    Returns the batch's geometry and each row's j and s.

    Each row of the batch runs the same BLAS and LAPACK calls as a
    one-row batch, so it gets the same bits as a refit of its own.
    `group` is emptied, so that the survivors' positions are freed once
    the geometry is built, before the fit allocates its scores."""
    experiments, rows, positions, displacements = zip(*group)
    group.clear()
    geometry, rel = _fit_geometry(_stacked(positions))
    del positions
    fits = _fit_lin(geometry, rel, _stacked(displacements))
    deflection = np.concatenate([fits.translation, fits.rotation], axis=-1)
    for i, (j, s) in enumerate(zip(experiments, rows)):
        deflections[j][s] = deflection[i]
        objectives[j][s] = fits.objective[i]
    return geometry, experiments, rows


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
    when it is needed.  No experiment's displacements are read after the
    next experiment's are asked for: the survivors of a row that loses a
    node are copied at its cut.  So the generator may hand every
    experiment the same buffer, refilled (the studies of
    :mod:`stiffid.synthetic` draw each experiment's noise into one).
    Each row runs the full chain of
    :func:`run_identification`: fit, outlier cut, refit of the rows
    that lost a node, pool sigma over the experiments' final fits,
    covariances, least-squares assembly, significance and
    symmetrization.  The wrenches, at least six that
    span all six load directions, have one SVD per call, shared by
    every row: it gives the assembly k = D W^+ and the element
    variances sum_j (W^+)_jl^2 Var(D_ij) of the significance stage.
    Any row's failure (a degenerate node layout, too few nodes left)
    raises for the batch; a refit batch that does not fill
    ``_BLOCK_NODES`` nodes runs after the last experiment's cut, so a
    later experiment's failure is raised before its own.  A wrench set
    that is not admissible raises
    :class:`~stiffid.errors.RankDeficientWrenches`.  Deflections
    that overflow the assembled matrix or its halfwidths (a tiny wrench)
    raise :class:`~stiffid.errors.NonFiniteCompliance`.
    Experiments whose positions equal an earlier experiment's share its
    fit geometry.  Large node layouts (``_BLOCK_NODES`` nodes or more)
    that are not all one object are compared on a helper thread while
    experiment 0 is fit, with the same comparisons, so the results are
    identical byte for byte; the thread is joined before the call
    returns or raises, and an error it meets is raised here.
    Positions, displacements and wrenches must count the same
    experiments; a mismatch raises ``ValueError``.
    """
    if len(wrenches) != len(positions):
        raise ValueError(f"{len(positions)} experiments' positions but "
                         f"{len(wrenches)} wrenches")
    positions = [np.asarray(p, dtype=float) for p in positions]
    # Per distinct node layout: the positions in planes, and their fit
    # geometry with the centroid-relative positions.
    layouts: list[tuple[np.ndarray, FitGeometry, np.ndarray]] = []
    # Per experiment: the index of its layout in `layouts`.  Large
    # layouts that are not all one object are compared on a helper
    # thread (numpy releases the GIL while it compares) while this
    # thread builds geometry 0 and fits and cuts experiment 0; it joins
    # the helper when it needs experiment 1's index.  Below
    # _BLOCK_NODES nodes, five comparisons cost about as much as starting
    # and joining a thread (170 against 140-195 us at 16,384 nodes on a
    # 2-core Xeon VM), so they run here.
    helper = None
    if len(positions) > 1 and positions[0].size >= 3 * _BLOCK_NODES and \
            any(p is not positions[0] for p in positions[1:]):
        helper = _HelperThread(_layout_indices, positions)
        helper.start()
        layout_of = [0]
    else:
        layout_of = _layout_indices(positions)
    deflections = []
    dropped = []
    cut_levels = []
    initial_objectives = []
    sizes = []
    objectives = []
    counts = []
    # The rows that lost a node and wait for their refit, by survivor
    # count m: (experiment, row, survivors' positions, survivors'
    # displacements), each of the last two (1, m, 3).
    pending: dict[int, list] = {}
    # Per refit batch: its geometry, and each row's experiment and row.
    refits = []
    rows = None
    try:
        for j, (p, d) in enumerate(zip(positions, displacements, strict=True)):
            d = np.asarray(d, dtype=float)
            if rows is None and d.ndim == 3:
                rows = len(d)
            if d.ndim != 3 or d.shape[2] != 3 or len(d) != rows or not rows or \
                    p.shape not in (d.shape, d.shape[1:]):
                raise ValueError(
                    f"experiment {j}: displacements must be (S, n, 3) and positions "
                    f"(n, 3) or (S, n, 3), with one S >= 1 for all experiments; got "
                    f"{d.shape} and {p.shape}")
            if j == 1 and helper is not None:
                layout_of = helper.result()
            index = layout_of[j]
            if index == len(layouts):
                planes = _planes(p)
                layouts.append((planes, *_fit_geometry(planes)))
            planes, geometry, rel = layouts[index]
            # `d` is kept as given.  A field's arrays are planes already; rows
            # are copied into planes by the fit for its own pass only, since a
            # plane copy held through the experiment adds an array to the peak
            # memory of a large field.
            fit = _fit_lin(geometry, rel, d)
            n = d.shape[-2]
            cut = _cut_level(options.outlier_level, n)
            drop = _drop_mask(fit.score, cut,
                              _roundoff_floor(geometry, fit.translation, fit.rotation))
            deflections.append(np.concatenate([fit.translation, fit.rotation], axis=-1))
            initial_objectives.append(fit.objective)
            objectives.append(fit.objective.copy())
            sizes.append(n)
            count = np.full(rows, n)
            counts.append(count)
            dropped.append(drop)
            cut_levels.append(cut)
            del fit  # free its scores before the survivors are gathered
            if drop is not None:
                drop.flags.writeable = False
                count -= np.count_nonzero(drop, axis=-1)
                # The survivors are new arrays, so `d` is freed with the
                # experiment.  Rows of one survivor count, from any
                # experiment, are refit as one batch of per-row positions
                # once they fill one (so a large field's row is refit here,
                # alone) or after the last experiment.
                for s in np.flatnonzero(count < n).tolist():
                    keep = ~drop[s:s + 1]
                    m = int(count[s])
                    group = pending.setdefault(m, [])
                    group.append((j, s, _survivors(planes if planes.ndim == 2
                                                   else planes[s:s + 1], keep),
                                  _survivors(d[s:s + 1], keep)))
                    if len(group) == _block_rows(m):
                        refits.append(_refit(pending.pop(m), deflections, objectives))
    finally:
        if helper is not None:
            helper.join()
    refits += [_refit(group, deflections, objectives) for group in pending.values()]
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
        # The experiments on one layout share its geometry and the pooled
        # sigma, so their covariances are one array until a refit row
        # is written into an experiment's own copy.
        shared = [_covariance(layout[1], sigma) for layout in layouts]
        covariances = [shared[i] if drop is None else shared[i].copy()
                       for i, drop in zip(layout_of, dropped)]
        for geometry, experiments, batch_rows in refits:
            for covariance, j, s in zip(_covariance(geometry, sigma[list(batch_rows)]),
                                        experiments, batch_rows):
                covariances[j][s] = covariance
        for covariance in covariances:
            covariance.flags.writeable = False
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
