"""Synthetic displacement fields and benchmark studies.

The estimators are validated against data with a known answer: regular
node patterns moved by a prescribed rigid transform plus optional
Gaussian noise, and a clamped square-section cantilever whose 6x6 tip
compliance matrix has a textbook closed form.

Noise is reproducible: each trial's seed starts its own PCG64 generator,
which draws that trial's uniforms, and the basic (trigonometric)
Box-Muller transform then runs once over a whole block of trials.  Each
value goes through the same operations as in a one-trial draw, so equal
seeds give bit-identical fields.

The studies build what does not change between trials once: the node
pattern, and the noise-free rigid displacements (with the oracle and the
six wrenches for the beam).  Each trial then only draws its noise, into
one (S, n, 3) batch per experiment, with S the trials of a block of
about ``_BLOCK_NODES`` nodes in all.  The arithmetic per field is
unchanged, so a study's fields stay bit-identical to those of
:func:`beam_load_cases`, :func:`beam_tip_field` and
:func:`apply_rigid_transform` for the same seeds.  The noise and
zero-detection studies hand each block to the batched core
(:func:`~stiffid.estimation._fit_lin` and
:func:`~stiffid.pipeline.identify_batch`), whose rows equal one-trial
runs bit for bit, so a study's results do not depend on the block size.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .compliance import ComplianceMatrix, Wrench, canonical_wrench_scheme
from .errors import InvalidArgument, InvalidPattern, LinearizationWarning, NotCanonical
from .estimation import (
    AngleExtractionMethod,
    Deflection,
    _fit_geometry,
    _fit_lin,
    differential_rotation,
    estimate_lin,
    estimate_svd,
    rotation_xyz,
)
from .field import DisplacementField, axis_index
from .pipeline import IdentifyOptions, LoadCase, identify_batch
from .stats import _check_sigma, system_covariance

# Canonical load set used by the beam studies: forces N, torques N mm.
DEFAULT_LOADS = (1000.0, 1.0, 1.0, 1000.0, 1000.0, 1000.0)

_EXPERIMENT_NAMES = ("fx", "fy", "fz", "mx", "my", "mz")

STUDY_METHODS = ("lin", "svd-plus", "svd-minus", "svd-avg",
                 "svd-plus-asin", "svd-minus-asin", "svd-avg-asin")

# Nodes (trials times the nodes of one trial's fields) identified per
# batch.  It bounds a study's arrays to about 1 MB, whatever its trial
# count (the zero-detection study at 100 seeds held 4.7 MB in one
# batch), while each call's overhead is still spread over 22 seeds of
# that study.
_BLOCK_NODES = 1 << 14


def _normal_samples(rng: np.random.Generator, count: int) -> np.ndarray:
    """Standard normal draws via the basic Box-Muller transform."""
    out = np.empty(count)
    _box_muller(rng.random((2, (count + 1) // 2)), out)
    return out


def _box_muller(u: np.ndarray, out: np.ndarray) -> None:
    """Fill each row of `out` with radius * cos, then radius * sin, of the
    uniforms ``u[..., 0, :]`` and ``u[..., 1, :]`` of the same row,
    trimmed to the row's length.  Overwrites `u`.

    Every element runs through the same ufuncs in the same order for any
    leading shape, so a block of rows equals its rows drawn one by one.
    It works in place because block-sized temporaries go back to the
    system after each call: on 1,331-node fields, the page faults of
    drawing them again cost more than batching saves.
    """
    radius, theta = u[..., 0, :], u[..., 1, :]
    np.subtract(1.0, radius, out=radius)  # (0, 1], keeps the log finite
    np.log(radius, out=radius)
    radius *= -2.0
    np.sqrt(radius, out=radius)
    theta *= 2.0 * np.pi
    pairs = radius.shape[-1]
    sines = out.shape[-1] - pairs
    np.cos(theta, out=out[..., :pairs])
    np.sin(theta[..., :sines], out=out[..., pairs:])
    out[..., :pairs] *= radius
    out[..., pairs:] *= radius[..., :sines]


@dataclass(frozen=True)
class MeshPattern:
    """Regular node pattern of a virtual sensor.

    ``cubic`` fills a cube with a uniform grid, ``square`` fills a plane
    normal to one axis, ``custom`` takes explicit node offsets.
    """

    kind: str
    edge: float = 0.0
    step: float = 0.0
    axis: int = 0
    nodes: np.ndarray | None = None

    def __post_init__(self):
        if self.nodes is not None:
            arr = np.asarray(self.nodes, dtype=float)
            if arr.ndim != 2 or arr.shape[1] != 3:
                raise InvalidPattern("custom nodes must have shape (n, 3)")
            arr = arr.copy()
            arr.flags.writeable = False
            object.__setattr__(self, "nodes", arr)

    @classmethod
    def cubic(cls, edge: float, step: float) -> "MeshPattern":
        _check_edge_step(edge, step)
        return cls("cubic", edge=float(edge), step=float(step))

    @classmethod
    def square(cls, edge: float, step: float, axis: int | str = "x") -> "MeshPattern":
        _check_edge_step(edge, step)
        return cls("square", edge=float(edge), step=float(step),
                   axis=axis_index(axis))

    @classmethod
    def custom(cls, nodes) -> "MeshPattern":
        return cls("custom", nodes=np.asarray(nodes, dtype=float))


def _check_edge_step(edge: float, step: float) -> None:
    if not (0.0 < edge < math.inf and 0.0 < step < math.inf):
        raise InvalidPattern("edge and step must be positive and finite, "
                             f"got {edge!r} and {step!r}")
    ratio = edge / step
    if abs(ratio - round(ratio)) > 1e-9 * max(1.0, ratio):
        raise InvalidPattern(f"step {step} does not divide edge {edge}")


def _axis_offsets(edge: float, step: float) -> np.ndarray:
    count = int(round(edge / step)) + 1
    return (np.arange(count) - (count - 1) / 2.0) * step


def generate_pattern(pattern: MeshPattern, center=(0.0, 0.0, 0.0),
                     reference_point=None) -> DisplacementField:
    """Build a centered zero-displacement field from a node pattern.

    Nodes are laid out around `center`; positions are stored relative to
    `reference_point` (defaults to `center`, giving a field whose
    centroid sits at the reference point).
    """
    center = np.asarray(center, dtype=float).reshape(3)
    ref = center if reference_point is None else \
        np.asarray(reference_point, dtype=float).reshape(3)
    if pattern.kind == "cubic":
        off = _axis_offsets(pattern.edge, pattern.step)
        x, y, z = np.meshgrid(off, off, off, indexing="ij")
        grid = np.column_stack([x.ravel(), y.ravel(), z.ravel()])
    elif pattern.kind == "square":
        off = _axis_offsets(pattern.edge, pattern.step)
        u, v = np.meshgrid(off, off, indexing="ij")
        grid = np.zeros((u.size, 3))
        others = [i for i in range(3) if i != pattern.axis]
        grid[:, others[0]] = u.ravel()
        grid[:, others[1]] = v.ravel()
    elif pattern.kind == "custom":
        if pattern.nodes is None:
            raise InvalidPattern("custom pattern has no nodes")
        grid = pattern.nodes
    else:
        raise InvalidPattern(f"unknown pattern kind {pattern.kind!r}")
    positions = grid + (center - ref)
    return DisplacementField(positions, np.zeros_like(positions), ref,
                             centered=True)


@dataclass(frozen=True)
class GroundTruth:
    """Prescribed rigid deflection plus the noise model of a synthetic field."""

    deflection: Deflection
    sigma: float = 0.0
    seed: int = 0

    def __post_init__(self):
        _check_sigma(self.sigma)


def apply_rigid_transform(field: DisplacementField, truth: GroundTruth,
                          exact_rotation: bool = False) -> DisplacementField:
    """Displace a centered field by a rigid transform plus Gaussian noise.

    ``exact_rotation=True`` moves the nodes with the orthogonal matrix
    Rx @ Ry @ Rz built from the rotation vector, which is how reference
    fields for linearization-error studies are produced; the default
    uses the first-order matrix I + skew(dphi), matching the model the
    estimators invert.
    """
    if not field.centered:
        raise ValueError("apply_rigid_transform needs a centered field")
    rigid = _rigid_displacement(field.positions, truth.deflection, exact_rotation)
    return _noisy_field(field, rigid, truth.sigma, truth.seed)


def _rigid_displacement(positions: np.ndarray, deflection: Deflection,
                        exact_rotation: bool = False) -> np.ndarray:
    """Noise-free nodal displacements of a rigid transform about the origin."""
    angles = deflection.rotation
    R = rotation_xyz(angles) if exact_rotation else differential_rotation(angles)
    return positions @ (R - np.eye(3)).T + deflection.translation


def _noisy_field(field: DisplacementField, rigid: np.ndarray, sigma: float,
                 seed: int) -> DisplacementField:
    """`field`'s nodes displaced by `rigid` plus seeded Box-Muller noise.

    The studies compute `rigid` once and draw many seeds; the field
    equals :func:`apply_rigid_transform`'s for the same truth and seed.
    """
    displacements = _noisy_displacements(rigid, sigma, [seed])[0]
    return DisplacementField(field.positions, displacements, field.reference_point,
                             centered=True)


def _noisy_displacements(rigid: np.ndarray, sigma: float,
                         seeds: Sequence[int]) -> np.ndarray:
    """(S, n, 3) displacements: row s is `rigid` plus the Box-Muller
    noise of ``default_rng(seeds[s])`` times `sigma`, held in the
    component planes (S, 3, n) that the fits read (see
    :func:`stiffid.estimation._planes`); `sigma` = 0 gives a read-only
    broadcast of `rigid`."""
    _check_sigma(sigma)
    if sigma == 0.0:
        return np.broadcast_to(rigid, (len(seeds),) + rigid.shape)
    if min(seeds) < 0:
        raise InvalidArgument(f"noise seeds must be nonnegative, got {min(seeds)}")
    # Each seed draws its own uniforms, in the order of _normal_samples;
    # the transform then runs once over the whole block.
    uniforms = np.empty((len(seeds), 2, (rigid.size + 1) // 2))
    for row, seed in zip(uniforms, seeds):
        np.random.default_rng(seed).random(out=row)
    noise = np.empty((len(seeds),) + rigid.shape)
    _box_muller(uniforms, noise.reshape(len(seeds), -1))
    noise *= sigma
    noise += rigid
    # One transposing copy into planes, after the arithmetic on rows
    # (a ufunc writing planes from rows runs several times slower).  The
    # spent uniforms hold at least 3n values per seed, so the planes go
    # there and the block allocates nothing more.
    out = uniforms.reshape(-1)[:noise.size].reshape(len(seeds), 3, -1).swapaxes(-1, -2)
    np.copyto(out, noise)
    return out


def _blocks(count: int, nodes: int) -> list[range]:
    """Consecutive ranges of `count` trials of `nodes` nodes each, with
    at most ``_BLOCK_NODES`` nodes (and at least one trial) per range."""
    size = max(1, _BLOCK_NODES // nodes)
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
    the other 26 are structural zeros.
    """
    L = spec.length
    EA = spec.youngs_modulus * spec.area
    EI = spec.youngs_modulus * spec.bending_inertia
    GJ = spec.shear_modulus * spec.torsion_constant
    k = np.zeros((6, 6))
    k[0, 0] = L / EA
    k[1, 1] = k[2, 2] = L ** 3 / (3.0 * EI)
    k[3, 3] = L / GJ
    k[4, 4] = k[5, 5] = L / EI
    k[1, 5] = k[5, 1] = L ** 2 / (2.0 * EI)
    k[2, 4] = k[4, 2] = -L ** 2 / (2.0 * EI)
    return ComplianceMatrix(k, symmetrized=True)


def beam_tip_field(spec: BeamSpec, wrench: Wrench, pattern: MeshPattern,
                   sigma: float = 0.0, seed: int = 0,
                   center=None) -> DisplacementField:
    """Synthesize the sensor field of one canonical beam experiment.

    The tip deflection follows from the beam oracle; sensor nodes near
    the tip move rigidly with it.  Only single-component wrenches are
    accepted.
    """
    if wrench.single_component() is None:
        raise NotCanonical("beam experiments use single-component wrenches")
    k = beam_compliance_oracle(spec)
    d = k.k @ wrench.as_vector()
    truth = GroundTruth(Deflection(d[:3], d[3:]), sigma, seed)
    if center is None:
        center = (spec.length, 0.0, 0.0)
    base = generate_pattern(pattern, center=center)
    return apply_rigid_transform(base, truth)


def beam_load_cases(spec: BeamSpec = BeamSpec(),
                    pattern: MeshPattern = MeshPattern.cubic(10.0, 1.0),
                    loads: Sequence[float] = DEFAULT_LOADS,
                    sigma: float = 0.0, seed: int = 0) -> list[LoadCase]:
    """All six canonical beam experiments as pipeline load cases.

    Case j equals ``beam_tip_field(spec, wrench_j, pattern, sigma,
    seed + j)``.
    """
    base, experiments = _beam_experiments(spec, pattern, loads)
    return [LoadCase(_noisy_field(base, rigid, sigma, seed + j), w, name)
            for j, (name, w, rigid) in enumerate(experiments)]


def _beam_experiments(spec: BeamSpec, pattern: MeshPattern, loads: Sequence[float],
                      ) -> tuple[DisplacementField, list[tuple[str, Wrench, np.ndarray]]]:
    """Seed-invariant part of the six canonical beam experiments.

    Returns the base pattern at the beam tip and, per experiment, its
    name, wrench and noise-free tip displacement, so that any number of
    seeds only draw noise.
    """
    k = beam_compliance_oracle(spec).k
    base = generate_pattern(pattern, center=(spec.length, 0.0, 0.0))
    experiments = []
    for name, w in zip(_EXPERIMENT_NAMES, canonical_wrench_scheme(*loads)):
        d = k @ w.as_vector()
        rigid = _rigid_displacement(base.positions, Deflection(d[:3], d[3:]))
        experiments.append((name, w, rigid))
    return base, experiments


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
        return {
            "kind": self.kind,
            "amplitudes": list(self.amplitudes),
            "sigma": self.sigma,
            "trials": self.trials,
            "max_errors": {m: list(v) for m, v in self.max_errors.items()},
            "mean_errors": {m: list(v) for m, v in self.mean_errors.items()},
            "best_amplitude": self.best_amplitude,
            "band": list(self.band),
        }

    def write_csv(self, path) -> None:
        """Wide table: one row per method, one column per amplitude."""
        unit = "deg" if self.kind == "rotation" else "mm"
        with open(str(path), "w", encoding="utf-8", newline="\n") as handle:
            handle.write("method," + ",".join(repr(a) for a in self.amplitudes)
                         + f"  # max error, {unit}\n")
            for method, values in self.max_errors.items():
                handle.write(method + "," + ",".join(f"{v:.6e}" for v in values)
                             + "\n")


def _study_estimates(field: DisplacementField) -> dict[str, Deflection]:
    out = {"lin": estimate_lin(field).deflection}
    for method in AngleExtractionMethod:
        name = "svd-" + method.value
        out[name] = estimate_svd(field, method).deflection
    return out


def run_amplitude_study(amplitudes: Sequence[float],
                        pattern: MeshPattern = MeshPattern.cubic(10.0, 1.0),
                        trials: int = 1, seed: int = 0, sigma: float = 0.0,
                        kind: str = "rotation",
                        translation=(1.0, 1.0, 1.0)) -> AmplitudeStudy:
    """Sweep transform amplitudes and tabulate identification errors.

    ``kind="rotation"`` applies exact rotations with all three angles at
    the given amplitude (deg) and reports the largest per-axis angle
    error in deg; rotation reference fields deliberately leave the
    small-angle regime, so the linearization error is the measurand.
    ``kind="translation"`` applies pure translations (mm) and reports
    translation errors in mm.  With noise, the study also locates the
    amplitude band minimizing the relative rotation error.
    """
    if kind not in ("rotation", "translation"):
        raise ValueError(f"kind must be 'rotation' or 'translation', got {kind!r}")
    base = generate_pattern(pattern)
    translation = np.asarray(translation, dtype=float)
    method_names = [m for m in STUDY_METHODS
                    if kind == "rotation" or m in ("lin", "svd-avg")]
    errors = {m: np.zeros((len(amplitudes), trials)) for m in method_names}
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", LinearizationWarning)
        for ai, amp in enumerate(amplitudes):
            if kind == "rotation":
                truth_defl = Deflection(translation, np.deg2rad([amp, amp, amp]))
            else:
                truth_defl = Deflection([amp, amp, amp], np.zeros(3))
            rigid = _rigid_displacement(base.positions, truth_defl,
                                        exact_rotation=(kind == "rotation"))
            for t in range(trials):
                field = _noisy_field(base, rigid, sigma, seed + ai * trials + t)
                for name, est in _study_estimates(field).items():
                    if name not in errors:
                        continue
                    if kind == "rotation":
                        err = np.max(np.abs(np.rad2deg(est.rotation) - amp))
                    else:
                        err = np.max(np.abs(est.translation - amp))
                    errors[name][ai, t] = err

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
    max_translation_error: float
    max_rotation_error: float
    empirical_translation_std: tuple[float, ...]
    empirical_rotation_std: tuple[float, ...]
    analytic_translation_std: tuple[float, ...]
    analytic_rotation_std: tuple[float, ...]
    mean_error: tuple[float, ...]

    def to_json_dict(self) -> dict:
        return {
            "sigma": self.sigma,
            "trials": self.trials,
            "max_translation_error_mm": self.max_translation_error,
            "max_rotation_error_rad": self.max_rotation_error,
            "empirical_translation_std": list(self.empirical_translation_std),
            "empirical_rotation_std": list(self.empirical_rotation_std),
            "analytic_translation_std": list(self.analytic_translation_std),
            "analytic_rotation_std": list(self.analytic_rotation_std),
            "mean_error": list(self.mean_error),
        }


def run_noise_study(pattern: MeshPattern = MeshPattern.cubic(10.0, 1.0),
                    sigma: float = 5.0e-5, trials: int = 500, seed: int = 0,
                    translation=(1.0, 1.0, 1.0),
                    rotation_deg: float = 0.1) -> NoiseStudy:
    """Repeatedly identify a fixed small deflection under nodal noise.

    Fields use the first-order transform, so estimator errors are pure
    noise and their spread should match :func:`system_covariance`.
    Trial t draws its noise from seed ``seed + t``; the pattern's fit
    geometry is built once, and the trials of a block are fit on it in
    one batch.
    """
    _check_trials(trials, "trials")
    _check_sigma(sigma)
    base = generate_pattern(pattern)
    truth_defl = Deflection(translation, np.deg2rad([rotation_deg] * 3))
    rigid = _rigid_displacement(base.positions, truth_defl)
    geometry = _fit_geometry(base.positions)
    err = np.empty((trials, 6))
    for block in _blocks(trials, base.n):
        fits = _fit_lin(geometry,
                        _noisy_displacements(rigid, sigma, [seed + t for t in block]))
        err[block.start:block.stop] = np.concatenate(
            [fits.translation, fits.rotation], axis=-1) - truth_defl.as_vector()
    cov = system_covariance(geometry, sigma)
    emp = err.std(axis=0, ddof=1) if trials > 1 else np.zeros(6)
    return NoiseStudy(
        sigma, trials,
        float(np.max(np.abs(err[:, :3]))),
        float(np.max(np.abs(err[:, 3:]))),
        tuple(emp[:3]), tuple(emp[3:]),
        tuple(cov.translation_std()), tuple(cov.rotation_std()),
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
    zeros_missed: tuple[int, ...]
    nonzeros_lost: tuple[int, ...]
    min_safety: tuple[float, ...]

    @property
    def pass_fraction(self) -> float:
        return self.perfect_seeds / self.seeds if self.seeds else 0.0

    def to_json_dict(self) -> dict:
        return {
            "seeds": self.seeds,
            "sigma": self.sigma,
            "multiplier": self.multiplier,
            "safety_threshold": self.safety_threshold,
            "perfect_seeds": self.perfect_seeds,
            "pass_fraction": self.pass_fraction,
            "zeros_missed": list(self.zeros_missed),
            "nonzeros_lost": list(self.nonzeros_lost),
            "min_safety": [s if math.isfinite(s) else None for s in self.min_safety],
        }


def run_zero_detection_study(seeds: int = 100, sigma: float = 5.6e-5,
                             multiplier: float = 4.0,
                             safety_threshold: float = 100.0,
                             spec: BeamSpec = BeamSpec(),
                             pattern: MeshPattern = MeshPattern.square(10.0, 1.0, "x"),
                             loads: Sequence[float] = DEFAULT_LOADS,
                             outlier_fraction: float = 0.10,
                             seed: int = 0,
                             ) -> ZeroDetectionStudy:
    """Count seeds where the pipeline recovers the exact beam zero pattern.

    A seed is perfect when every structural zero of the oracle matrix is
    zeroed, every nonzero element survives, and each surviving element
    carries a safety factor at or above `safety_threshold`.  Study seed
    s draws the noise of its six load cases from field seeds
    ``seed + 6 s`` to ``seed + 6 s + 5``.  The seeds of a block run as
    the rows of one :func:`~stiffid.pipeline.identify_batch` call, and
    each row equals :func:`~stiffid.pipeline.run_identification` on that
    seed's :func:`beam_load_cases` bit for bit.
    """
    _check_trials(seeds, "seeds")
    _check_sigma(sigma)
    oracle = beam_compliance_oracle(spec)
    nonzero = oracle.k != 0.0
    options = IdentifyOptions(outlier_fraction=outlier_fraction,
                              confidence_multiplier=multiplier)
    base, experiments = _beam_experiments(spec, pattern, loads)
    wrenches = [w for _, w, _ in experiments]
    zeros_missed = []
    nonzeros_lost = []
    min_safety = []
    for block in _blocks(seeds, len(experiments) * base.n):
        # A generator: each experiment's noise is drawn when the core
        # reaches it and freed once it is fit.
        displacements = (
            _noisy_displacements(rigid, sigma, [seed + 6 * s + j for s in block])
            for j, (_, _, rigid) in enumerate(experiments))
        batch = identify_batch([base.positions] * len(experiments), displacements,
                               wrenches, options)
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
                              perfect, tuple(zeros_missed), tuple(nonzeros_lost),
                              tuple(min_safety))
