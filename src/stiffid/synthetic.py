"""Synthetic displacement fields and benchmark studies.

The estimators are validated against data with a known answer: regular
node patterns moved by a prescribed rigid transform plus optional
Gaussian noise, and a clamped square-section cantilever whose 6x6 tip
compliance matrix has a textbook closed form.

Every synthetic field, noise-free or noisy, comes from
:func:`apply_rigid_transform`, the one place where a deflection turns
into nodal displacements; :func:`beam_tip_field` and
:func:`beam_load_cases` call it with the oracle's tip deflections.

Noise is reproducible: numpy's normal sampler
(``Generator.standard_normal``) writes it straight into the component
planes that the fits read, so equal seeds give bit-identical fields.  A
field drawn from a seed (:func:`apply_rigid_transform`,
:func:`beam_tip_field`, and case j of :func:`beam_load_cases` from
``seed + j``) takes the first normals of ``default_rng(seed)``.  A study
draws one stream per experiment, in trial order: ``default_rng(seed)``
for the amplitude and noise studies, and the six generators of
``SeedSequence(seed).spawn(6)`` for zero detection.

The studies build what does not change between trials once: the node
pattern, and the noise-free rigid displacements, from
:func:`apply_rigid_transform` at sigma = 0 (zero detection starts from
the six cases of ``beam_load_cases(sigma=0)``).  Each trial then only
draws its noise, into one (S, n, 3) batch per experiment, with S the
trials of a block of at most ``pipeline._BLOCK_NODES`` nodes per
experiment; successive blocks continue the stream.  Every study hands
each block to the batched core (:func:`~stiffid.estimation._fit_lin`,
:func:`~stiffid.estimation._fit_svd` and
:func:`~stiffid.pipeline.identify_batch`), whose rows equal one-trial
runs bit for bit, so a study's results do not depend on the block size.
"""

from __future__ import annotations

import math
import operator
import warnings
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .compliance import ComplianceMatrix, Wrench, canonical_wrench_scheme
from .errors import InvalidArgument, InvalidPattern, LinearizationWarning
from .estimation import (
    AngleExtractionMethod,
    Deflection,
    _fit_geometry,
    _fit_lin,
    _fit_svd,
    differential_rotation,
    rotation_xyz,
)
from .field import DisplacementField, axis_index
from .pipeline import IdentifyOptions, LoadCase, _block_rows, identify_batch
from .stats import (
    DEFAULT_OUTLIER_LEVEL,
    _check_multiplier,
    _check_sigma,
    system_covariance,
)

# Canonical load set used by the beam studies: forces N, torques N mm.
DEFAULT_LOADS = (1000.0, 1.0, 1.0, 1000.0, 1000.0, 1000.0)

_EXPERIMENT_NAMES = ("fx", "fy", "fz", "mx", "my", "mz")

# The amplitude study's estimators: lin, and svd with each angle reading.
STUDY_METHODS = ("lin",) + tuple(f"svd-{m.value}" for m in AngleExtractionMethod)


@dataclass(frozen=True)
class MeshPattern:
    """Node pattern of a virtual sensor: a read-only (n, 3) array of node
    offsets from the sensor centre.

    ``cubic`` fills a cube with a uniform grid and ``square`` fills a
    plane normal to one axis; the constructor takes any offsets.
    """

    nodes: np.ndarray

    def __post_init__(self):
        nodes = np.array(self.nodes, dtype=float)
        if nodes.ndim != 2 or nodes.shape[1] != 3:
            raise InvalidPattern(f"nodes must have shape (n, 3), got {nodes.shape}")
        nodes.flags.writeable = False
        object.__setattr__(self, "nodes", nodes)

    @classmethod
    def cubic(cls, edge: float, step: float) -> "MeshPattern":
        return cls(_grid(edge, step, 3))

    @classmethod
    def square(cls, edge: float, step: float, axis: int | str = "x") -> "MeshPattern":
        # A zero column at `axis` puts the grid in the plane normal to it.
        return cls(np.insert(_grid(edge, step, 2), axis_index(axis), 0.0, axis=1))


def _grid(edge: float, step: float, dims: int) -> np.ndarray:
    """The (m**dims, dims) nodes of a regular grid of `dims` axes, each
    `edge` long in steps of `step`, about 0."""
    if not (0.0 < edge < math.inf and 0.0 < step < math.inf):
        raise InvalidPattern("edge and step must be positive and finite, "
                             f"got {edge!r} and {step!r}")
    ratio = edge / step
    steps = int(round(ratio))
    if steps < 1:
        # Within the tolerance below, a ratio near 0 would pass as 0
        # steps: a pattern of one node.
        raise InvalidPattern(f"edge {edge} must span at least one step {step}")
    if abs(ratio - steps) > 1e-9 * max(1.0, ratio):
        raise InvalidPattern(f"step {step} does not divide edge {edge}")
    try:
        off = (np.arange(steps + 1) - steps / 2.0) * step
        axes = np.meshgrid(*[off] * dims, indexing="ij")
    except ValueError:  # numpy cannot size an array that large
        raise InvalidPattern(f"a grid of edge {edge} in steps of {step} is too large") from None
    return np.column_stack([a.ravel() for a in axes])


def generate_pattern(pattern: MeshPattern, center=(0.0, 0.0, 0.0),
                     reference_point=None) -> DisplacementField:
    """Build a centered zero-displacement field from a node pattern.

    Nodes are laid out around `center`; positions are stored relative to
    `reference_point` (defaults to `center`, giving the pattern's
    offsets as positions).
    """
    center = np.asarray(center, dtype=float).reshape(3)
    ref = center if reference_point is None else \
        np.asarray(reference_point, dtype=float).reshape(3)
    positions = pattern.nodes + (center - ref)
    return DisplacementField(positions, np.zeros_like(positions), ref,
                             centered=True)


def apply_rigid_transform(field: DisplacementField, deflection: Deflection,
                          sigma: float = 0.0, seed: int = 0,
                          exact_rotation: bool = False) -> DisplacementField:
    """Displace a centered field by a rigid `deflection` plus Gaussian
    noise of std `sigma` (mm) drawn from `seed`.

    ``exact_rotation=True`` moves the nodes with the orthogonal matrix
    Rx @ Ry @ Rz built from the rotation vector, which is how reference
    fields for linearization-error studies are produced; the default
    uses the first-order matrix I + skew(dphi), matching the model the
    estimators invert.  A `sigma` that is negative, non-finite or whose
    square overflows raises :class:`InvalidArgument`.
    """
    if not field.centered:
        raise ValueError("apply_rigid_transform needs a centered field")
    angles = deflection.rotation
    R = rotation_xyz(angles) if exact_rotation else differential_rotation(angles)
    rigid = field.positions @ (R - np.eye(3)).T + deflection.translation
    displacements = _noisy_displacements(rigid, sigma, _generator(sigma, seed), 1)[0]
    return DisplacementField(field.positions, displacements, field.reference_point,
                             centered=True)


def _seed(sigma: float, seed: int) -> int:
    """`seed` as an int for noise of std `sigma`, both checked: numpy
    seeds with nonnegative ints only."""
    _check_sigma(sigma)
    seed = operator.index(seed)
    if seed < 0:
        raise InvalidArgument(f"noise seeds must be nonnegative, got {seed}")
    return seed


def _generator(sigma: float, seed: int):
    """``default_rng(seed)``, the stream of noise of std `sigma`, or None
    at `sigma` = 0: no seed is read or checked without noise."""
    # np.random is first read here: numpy 2 imports it lazily, and
    # importing it with the package would slow down every CLI start.
    return None if sigma == 0.0 else np.random.default_rng(_seed(sigma, seed))


def _noisy_displacements(rigid: np.ndarray, sigma: float, generator,
                         count: int) -> np.ndarray:
    """(count, n, 3) displacements: `rigid` (n, 3) plus `sigma` times the
    next standard normals of `generator`, drawn straight into the
    component planes (count, 3, n) that the fits read (see
    :func:`stiffid.estimation._planes`).  Row s is the next
    ``generator.standard_normal((3, n)).T * sigma + rigid``, so calls in
    turn continue one stream whatever rows each draws.  `sigma` = 0
    gives a read-only broadcast of `rigid` and reads no generator."""
    n = rigid.shape[-2]
    if sigma == 0.0:
        return np.broadcast_to(rigid, (count, n, 3))
    planes = generator.standard_normal((count, 3, n))
    planes *= sigma
    # Added in planes: through the (S, n, 3) view the add runs 3-6x slower.
    planes += rigid.swapaxes(-1, -2)
    return planes.swapaxes(-1, -2)


def _blocks(count: int, nodes: int) -> list[range]:
    """Consecutive ranges of `count` trials of `nodes` nodes each, with
    at most ``pipeline._BLOCK_NODES`` nodes (and at least one trial) per
    range."""
    size = _block_rows(nodes)
    return [range(start, min(count, start + size)) for start in range(0, count, size)]


def _check_trials(count: int, what: str) -> None:
    if count < 1:
        raise InvalidArgument(f"{what} must be at least 1, got {count!r}")


@dataclass(frozen=True)
class BeamSpec:
    """Clamped square-section cantilever: length and edge mm, modulus N/mm^2."""

    length: float = 1000.0
    edge: float = 10.0
    youngs_modulus: float = 2.0e5
    poisson: float = 0.266

    def __post_init__(self):
        if not all(0.0 < v < math.inf for v in (self.length, self.edge, self.youngs_modulus)):
            raise InvalidArgument("beam dimensions and modulus must be positive and finite")
        if not 0.0 <= self.poisson < 0.5:
            raise InvalidArgument("poisson ratio must be in [0, 0.5)")

    @property
    def area(self) -> float:
        return self.edge ** 2

    @property
    def bending_inertia(self) -> float:
        return self.edge ** 4 / 12.0

    @property
    def shear_modulus(self) -> float:
        return self.youngs_modulus / (2.0 * (1.0 + self.poisson))

    @property
    def torsion_constant(self) -> float:
        # St Venant constant of a square section.
        return 0.1406 * self.edge ** 4


def beam_compliance_oracle(spec: BeamSpec = BeamSpec()) -> ComplianceMatrix:
    """Closed-form tip compliance matrix of the cantilever.

    The beam axis is x with the tip frame right-handed: a transverse
    force along y rotates the tip about +z, one along z about -y, which
    fixes the signs of the two coupling pairs.  10 elements are nonzero,
    the other 26 are structural zeros.  Raises :class:`InvalidArgument`
    for a spec whose elements leave the float range, as infinite or as 0.
    """
    L = spec.length
    k = np.zeros((6, 6))
    # Python floats raise on a power that overflows and on division by a
    # product that underflowed to 0; a product that overflows gives inf.
    try:
        EA = spec.youngs_modulus * spec.area
        EI = spec.youngs_modulus * spec.bending_inertia
        GJ = spec.shear_modulus * spec.torsion_constant
        k[0, 0] = L / EA
        k[1, 1] = k[2, 2] = L ** 3 / (3.0 * EI)
        k[3, 3] = L / GJ
        k[4, 4] = k[5, 5] = L / EI
        k[1, 5] = k[5, 1] = L ** 2 / (2.0 * EI)
        k[2, 4] = k[4, 2] = -L ** 2 / (2.0 * EI)
        in_range = np.isfinite(k).all() and np.count_nonzero(k) == 10
    except ArithmeticError:
        in_range = False
    if not in_range:
        raise InvalidArgument(f"the compliance of {spec} leaves the float range")
    return ComplianceMatrix(k, symmetrized=True)


def beam_tip_field(spec: BeamSpec, wrench: Wrench, pattern: MeshPattern,
                   sigma: float = 0.0, seed: int = 0) -> DisplacementField:
    """Synthesize the sensor field of one beam experiment under any wrench.

    The pattern is laid out about the beam tip, which is also the
    reference point, and moves rigidly with the tip deflection d = k w
    of the beam oracle k, plus noise of std `sigma` drawn from `seed`.
    """
    k = beam_compliance_oracle(spec)
    d = k.k @ wrench.as_vector()
    base = generate_pattern(pattern, center=(spec.length, 0.0, 0.0))
    return apply_rigid_transform(base, Deflection(d[:3], d[3:]), sigma, seed)


def beam_load_cases(spec: BeamSpec = BeamSpec(),
                    pattern: MeshPattern = MeshPattern.cubic(10.0, 1.0),
                    loads: Sequence[float] = DEFAULT_LOADS,
                    sigma: float = 0.0, seed: int = 0) -> list[LoadCase]:
    """All six canonical beam experiments as pipeline load cases.

    Case j equals ``beam_tip_field(spec, w, pattern, sigma, seed + j)``
    with w the j-th wrench of ``canonical_wrench_scheme(*loads)``.
    """
    k = beam_compliance_oracle(spec).k
    base = generate_pattern(pattern, center=(spec.length, 0.0, 0.0))
    cases = []
    for j, (name, w) in enumerate(zip(_EXPERIMENT_NAMES, canonical_wrench_scheme(*loads))):
        d = k @ w.as_vector()
        field = apply_rigid_transform(base, Deflection(d[:3], d[3:]), sigma, seed + j)
        cases.append(LoadCase(field, w, name))
    return cases


@dataclass(frozen=True)
class AmplitudeStudy:
    """Identification errors of every estimator across transform amplitudes."""

    kind: str
    amplitudes: tuple[float, ...]
    sigma: float
    trials: int
    max_errors: dict
    mean_errors: dict
    best_amplitude: float | None
    band: tuple[float, ...]

    def to_json_dict(self) -> dict:
        return dict(vars(self))

    def write_csv(self, path) -> None:
        """Wide table: one row per method, one column per amplitude, after
        a ``#`` line that names the unit of the errors."""
        unit = "deg" if self.kind == "rotation" else "mm"
        with open(str(path), "w", encoding="utf-8", newline="\n") as handle:
            handle.write(f"# max error, {unit}\n")
            handle.write("method," + ",".join(repr(a) for a in self.amplitudes) + "\n")
            for method, values in self.max_errors.items():
                handle.write(method + "," + ",".join(f"{v:.6e}" for v in values)
                             + "\n")


def run_amplitude_study(amplitudes: Sequence[float],
                        pattern: MeshPattern = MeshPattern.cubic(10.0, 1.0),
                        trials: int = 1, seed: int = 0, sigma: float = 0.0,
                        kind: str = "rotation") -> AmplitudeStudy:
    """Sweep transform amplitudes and tabulate identification errors.

    ``kind="rotation"`` applies exact rotations with all three angles at
    the given amplitude (deg), and a translation of 1 mm along each
    axis, and reports the largest per-axis angle error in deg of every
    method of ``STUDY_METHODS``; rotation reference fields deliberately
    leave the small-angle regime, so the linearization error is the
    measurand.  ``kind="translation"`` applies pure translations (mm)
    and reports the translation errors in mm of ``lin`` and
    ``svd-avg``.  With noise, the study also locates the amplitude band
    minimizing the relative rotation error.

    The noise comes from one stream, ``default_rng(seed)``, drawn
    amplitude by amplitude and trial by trial: each trial takes the next
    (3, n) standard normals.  The pattern's fit geometry is built once,
    and the trials of a block are fit on it as the rows of one batch per
    method.
    """
    if kind not in ("rotation", "translation"):
        raise ValueError(f"kind must be 'rotation' or 'translation', got {kind!r}")
    _check_trials(trials, "trials")
    base = generate_pattern(pattern)
    geometry, rel = _fit_geometry(base.positions)
    generator = _generator(sigma, seed)
    method_names = [m for m in STUDY_METHODS
                    if kind == "rotation" or m in ("lin", "svd-avg")]
    errors = {m: np.zeros((len(amplitudes), trials)) for m in method_names}
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", LinearizationWarning)
        for ai, amp in enumerate(amplitudes):
            if kind == "rotation":
                truth_defl = Deflection([1.0, 1.0, 1.0], np.deg2rad([amp, amp, amp]))
            else:
                truth_defl = Deflection([amp, amp, amp], np.zeros(3))
            rigid = apply_rigid_transform(base, truth_defl,
                                          exact_rotation=(kind == "rotation")).displacements
            for block in _blocks(trials, base.n):
                displacements = _noisy_displacements(rigid, sigma, generator, len(block))
                for name, err in errors.items():
                    fits = _fit_lin(geometry, rel, displacements) if name == "lin" \
                        else _fit_svd(geometry, rel, displacements,
                                      AngleExtractionMethod(name.removeprefix("svd-")))
                    got = np.rad2deg(fits.rotation) if kind == "rotation" else fits.translation
                    err[ai, block.start:block.stop] = np.max(np.abs(got - amp), axis=-1)

    max_errors = {m: tuple(v.max(axis=1)) for m, v in errors.items()}
    mean_errors = {m: tuple(v.mean(axis=1)) for m, v in errors.items()}
    best = None
    band: tuple[float, ...] = ()
    if kind == "rotation" and sigma > 0.0 and len(amplitudes) > 0:
        rel = np.array(mean_errors["lin"]) / np.asarray(amplitudes, dtype=float)
        best = float(np.asarray(amplitudes)[int(np.argmin(rel))])
        band = tuple(float(a) for a, r in zip(amplitudes, rel)
                     if r <= 2.0 * rel.min())
    return AmplitudeStudy(kind, tuple(float(a) for a in amplitudes), sigma,
                          trials, max_errors, mean_errors, best, band)


@dataclass(frozen=True)
class NoiseStudy:
    """Monte-Carlo check of the deflection error statistics."""

    sigma: float
    trials: int
    max_translation_error_mm: float
    max_rotation_error_rad: float
    empirical_translation_std: tuple[float, ...]
    empirical_rotation_std: tuple[float, ...]
    analytic_translation_std: tuple[float, ...]
    analytic_rotation_std: tuple[float, ...]
    mean_error: tuple[float, ...]

    def to_json_dict(self) -> dict:
        return dict(vars(self))


def run_noise_study(pattern: MeshPattern = MeshPattern.cubic(10.0, 1.0),
                    sigma: float = 5.0e-5, trials: int = 500, seed: int = 0) -> NoiseStudy:
    """Repeatedly identify a fixed small deflection under nodal noise:
    1 mm along, and 0.1 deg about, each axis.

    Fields use the first-order transform, so estimator errors are pure
    noise and their spread should match :func:`system_covariance`.
    The noise comes from one stream, ``default_rng(seed)``, of which
    each trial in turn takes the next (3, n) standard normals; the
    pattern's fit geometry is built once, and the trials of a block are
    fit on it in one batch.
    """
    _check_trials(trials, "trials")
    generator = _generator(sigma, seed)
    base = generate_pattern(pattern)
    truth_defl = Deflection([1.0, 1.0, 1.0], np.deg2rad([0.1] * 3))
    rigid = apply_rigid_transform(base, truth_defl).displacements
    geometry, rel = _fit_geometry(base.positions)
    err = np.empty((trials, 6))
    for block in _blocks(trials, base.n):
        # The fit forms residuals that nothing reads: without them glibc
        # faults each block's temporaries in again (7,750 against 342
        # minor page faults per `benchmark noise --trials 500`, and slower).
        fits = _fit_lin(geometry, rel,
                        _noisy_displacements(rigid, sigma, generator, len(block)))
        err[block.start:block.stop] = np.concatenate(
            [fits.translation, fits.rotation], axis=-1) - truth_defl.as_vector()
    analytic = np.sqrt(np.diagonal(system_covariance(geometry, sigma)))
    emp = err.std(axis=0, ddof=1) if trials > 1 else np.zeros(6)
    return NoiseStudy(
        sigma, trials,
        float(np.max(np.abs(err[:, :3]))),
        float(np.max(np.abs(err[:, 3:]))),
        tuple(emp[:3]), tuple(emp[3:]),
        tuple(analytic[:3]), tuple(analytic[3:]),
        tuple(err.mean(axis=0)),
    )


@dataclass(frozen=True)
class ZeroDetectionStudy:
    """Structural-zero recovery across seeds on the noisy beam benchmark."""

    seeds: int
    sigma: float
    multiplier: float
    safety_threshold: float
    perfect_seeds: int
    pass_fraction: float
    zeros_missed: tuple[int, ...]
    nonzeros_lost: tuple[int, ...]
    min_safety: tuple[float, ...]

    def to_json_dict(self) -> dict:
        """The fields, with a non-finite safety factor as None (JSON null)."""
        data = dict(vars(self))
        data["min_safety"] = [s if math.isfinite(s) else None for s in self.min_safety]
        return data


def run_zero_detection_study(seeds: int = 100, sigma: float = 5.6e-5,
                             multiplier: float = 4.0,
                             safety_threshold: float = 100.0,
                             pattern: MeshPattern = MeshPattern.square(10.0, 1.0, "x"),
                             outlier_level: float = DEFAULT_OUTLIER_LEVEL,
                             seed: int = 0,
                             ) -> ZeroDetectionStudy:
    """Count seeds where the pipeline recovers the exact zero pattern of
    the default beam, ``BeamSpec()`` under ``DEFAULT_LOADS``.

    A seed is perfect when every structural zero of the oracle matrix is
    zeroed, every nonzero element survives, and each surviving element
    carries a safety factor at or above `safety_threshold`.  Experiment
    j draws its noise from the j-th generator of
    ``SeedSequence(seed).spawn(6)``, of which study seed s in turn takes
    the next (3, n) standard normals.  A block holds up to 135 seeds of
    121 nodes, and its seeds run as the rows of one
    :func:`~stiffid.pipeline.identify_batch` call; each row equals
    :func:`~stiffid.pipeline.run_identification` on that seed's six
    noisy load cases bit for bit.

    Raises :class:`InvalidArgument` for `sigma` = 0: the pooled sigma and
    the structural zeros are then both roundoff, so the test has nothing
    to measure.  `multiplier` must be a positive and finite number and
    `safety_threshold` a nonnegative and finite one, neither a bool,
    else :class:`InvalidArgument` is raised before any noise is drawn.
    """
    _check_trials(seeds, "seeds")
    if sigma == 0.0:
        raise InvalidArgument("zero detection needs noise: sigma must be positive, got 0.0")
    _check_multiplier(multiplier, "multiplier")
    # NaN would fail every seed's comparison and count it as imperfect.
    if isinstance(safety_threshold, bool) or not 0.0 <= safety_threshold < math.inf:
        raise InvalidArgument(f"safety_threshold must be a nonnegative and finite "
                              f"number, got {safety_threshold!r}")
    generators = [np.random.default_rng(s)
                  for s in np.random.SeedSequence(_seed(sigma, seed)).spawn(6)]
    oracle = beam_compliance_oracle()
    nonzero = oracle.k != 0.0
    options = IdentifyOptions(outlier_level=outlier_level,
                              confidence_multiplier=multiplier)
    cases = beam_load_cases(BeamSpec(), pattern)
    positions = cases[0].field.positions
    zeros_missed = []
    nonzeros_lost = []
    min_safety = []
    for block in _blocks(seeds, len(positions)):
        # A generator: each experiment's noise is drawn when the core
        # reaches it and freed once it is fit.
        displacements = (
            _noisy_displacements(case.field.displacements, sigma, generator, len(block))
            for generator, case in zip(generators, cases))
        batch = identify_batch([positions] * len(cases), displacements,
                               [case.wrench for case in cases], options)
        k = batch.matrix
        zeros_missed += np.count_nonzero(k[:, ~nonzero] != 0.0, axis=1).tolist()
        nonzeros_lost += np.count_nonzero(k[:, nonzero] == 0.0, axis=1).tolist()
        # The lowest safety factor of the nonzero elements, 0 when one of
        # them is not significant.
        kept = batch.significant[:, nonzero]
        low = np.min(np.where(kept, batch.safety[:, nonzero], np.inf), axis=1)
        min_safety += np.where(kept.all(axis=1), low, 0.0).tolist()
    perfect = sum(missed == 0 and lost == 0 and low >= safety_threshold
                  for missed, lost, low in zip(zeros_missed, nonzeros_lost, min_safety))
    return ZeroDetectionStudy(seeds, sigma, multiplier, safety_threshold,
                              perfect, perfect / seeds, tuple(zeros_missed),
                              tuple(nonzeros_lost), tuple(min_safety))
