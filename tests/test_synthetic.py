"""Synthetic fields, the cantilever forward model and the validation studies."""

import csv
import dataclasses
import json
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from stiffid import (
    BeamSpec,
    Deflection,
    DisplacementField,
    IdentifyOptions,
    InvalidArgument,
    LoadCase,
    InvalidPattern,
    LinearizationWarning,
    MeshPattern,
    Wrench,
    apply_rigid_transform,
    beam_compliance_oracle,
    beam_load_cases,
    beam_tip_field,
    canonical_wrench_scheme,
    estimate_lin,
    estimate_svd,
    generate_pattern,
    identify_batch,
    rotation_xyz,
    run_amplitude_study,
    run_identification,
    run_noise_study,
    run_zero_detection_study,
)
from stiffid import pipeline, synthetic
from stiffid.compliance import is_canonical
from stiffid.field import column_mean
from stiffid.synthetic import (
    DEFAULT_LOADS,
    STUDY_METHODS,
    _generator,
    _noisy_displacements,
)


def assert_same_bits(a, b):
    """Equal dtype, shape and bytes: stricter than ==, which lets -0.0
    match 0.0."""
    a, b = np.asarray(a), np.asarray(b)
    assert a.dtype == b.dtype and a.shape == b.shape
    assert a.tobytes() == b.tobytes()


def with_noise(field, stream, sigma):
    """`field` plus `sigma` times the next (3, n) standard normals of the
    generator `stream`, one plane per component: a noisy trial's field,
    rebuilt from the stream that a study documents."""
    noise = stream.standard_normal((3, field.n)).T * sigma
    return DisplacementField(field.positions, noise + field.displacements,
                             field.reference_point, centered=True)


def as_json_reads(value):
    """`value` as JSON reads it back: tuples become lists."""
    if isinstance(value, dict):
        return {k: as_json_reads(v) for k, v in value.items()}
    if isinstance(value, (tuple, list)):
        return [as_json_reads(v) for v in value]
    return value


def assert_summary_holds_fields(study, keys):
    """The study's JSON summary has exactly `keys`, written out here so
    that a field added to a study must be added to its test, and each
    value is the record's field of that name.  The summary is strict
    JSON: no NaN or infinity."""
    data = json.loads(json.dumps(study.to_json_dict(), allow_nan=False))
    assert set(data) == keys
    for key in keys:
        assert data[key] == as_json_reads(getattr(study, key)), key
    return data


class TestPatterns:
    @pytest.mark.parametrize("edge,step,count", [(10.0, 1.0, 1331),
                                                 (10.0, 2.0, 216),
                                                 (2.0, 1.0, 27)])
    def test_cubic_node_count(self, edge, step, count):
        field = generate_pattern(MeshPattern.cubic(edge, step))
        assert field.n == count
        assert field.centered
        assert np.all(field.displacements == 0.0)
        assert_allclose(column_mean(field.positions), np.zeros(3), atol=1e-12)

    def test_square_node_count_and_plane(self):
        field = generate_pattern(MeshPattern.square(10.0, 1.0, "x"))
        assert field.n == 121
        assert_allclose(field.positions[:, 0], 0.0, atol=0)
        for axis in (1, 2):
            assert field.positions[:, axis].min() == -5.0
            assert field.positions[:, axis].max() == 5.0

    @pytest.mark.parametrize("axis,zero_col", [("x", 0), ("y", 1), ("z", 2)])
    def test_square_axis_selects_plane(self, axis, zero_col):
        field = generate_pattern(MeshPattern.square(4.0, 2.0, axis))
        assert np.all(field.positions[:, zero_col] == 0.0)

    def test_reference_point_offsets_positions(self):
        # nodes laid out around x = 995 but reported relative to x = 1000
        field = generate_pattern(MeshPattern.cubic(10.0, 5.0),
                                 center=(995.0, 0.0, 0.0),
                                 reference_point=(1000.0, 0.0, 0.0))
        assert_allclose(column_mean(field.positions), [-5.0, 0.0, 0.0], atol=1e-12)
        assert_allclose(field.reference_point, [1000.0, 0.0, 0.0])

    def test_custom_pattern(self):
        # The constructor takes any offsets and keeps a read-only copy.
        nodes = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 2.0, 0.0]])
        pattern = MeshPattern(nodes)
        nodes[0, 0] = 9.0
        assert not pattern.nodes.flags.writeable
        field = generate_pattern(pattern, center=(1.0, 1.0, 1.0))
        assert_array_equal(field.positions, [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0],
                                             [0.0, 2.0, 0.0]])
        assert_array_equal(field.reference_point, [1.0, 1.0, 1.0])

    def test_step_must_divide_edge(self):
        with pytest.raises(InvalidPattern):
            MeshPattern.cubic(10.0, 0.3)

    @pytest.mark.parametrize("edge", [1e-9, 0.4])
    def test_edge_spans_at_least_one_step(self, edge):
        # edge / step = 1e-9 is within the divisibility tolerance of 0
        # steps, a one-node pattern.
        with pytest.raises(InvalidPattern, match="at least one step"):
            MeshPattern.cubic(edge, 1.0)
        with pytest.raises(InvalidPattern, match="at least one step"):
            MeshPattern.square(edge, 1.0, "x")

    def test_one_step_edge_allowed(self):
        assert generate_pattern(MeshPattern.cubic(1.0, 1.0)).n == 8
        assert generate_pattern(MeshPattern.square(1.0, 1.0, "y")).n == 4

    def test_positive_dimensions_required(self):
        with pytest.raises(InvalidPattern):
            MeshPattern.cubic(0.0, 1.0)
        with pytest.raises(InvalidPattern):
            MeshPattern.square(10.0, -1.0)

    def test_custom_nodes_shape_checked(self):
        with pytest.raises(InvalidPattern):
            MeshPattern(np.zeros((4, 2)))


class TestRigidTransform:
    def test_pure_translation(self):
        base = generate_pattern(MeshPattern.cubic(4.0, 1.0))
        moved = apply_rigid_transform(base, Deflection([0.1, -0.2, 0.3], np.zeros(3)))
        assert_allclose(moved.displacements,
                        np.tile([0.1, -0.2, 0.3], (base.n, 1)), atol=0)

    def test_first_order_transform_formula(self):
        base = generate_pattern(MeshPattern.cubic(4.0, 1.0))
        rotation = np.array([1e-4, -2e-4, 3e-4])
        moved = apply_rigid_transform(base, Deflection([0.5, 0.0, -0.5], rotation))
        expected = np.cross(rotation, base.positions) + [0.5, 0.0, -0.5]
        assert_allclose(moved.displacements, expected, atol=1e-15)

    def test_exact_rotation_formula(self):
        base = generate_pattern(MeshPattern.cubic(4.0, 1.0))
        angles = np.deg2rad([0.1, 0.1, 0.1])
        moved = apply_rigid_transform(base, Deflection(np.zeros(3), angles),
                                      exact_rotation=True)
        R = rotation_xyz(angles)
        expected = base.positions @ (R - np.eye(3)).T
        assert_allclose(moved.displacements, expected, atol=1e-15)

    def test_exact_and_first_order_differ_at_second_order(self):
        base = generate_pattern(MeshPattern.cubic(10.0, 1.0))
        angles = np.deg2rad([0.1, 0.1, 0.1])
        truth = Deflection(np.zeros(3), angles)
        diff = (apply_rigid_transform(base, truth, exact_rotation=True).displacements
                - apply_rigid_transform(base, truth).displacements)
        worst = np.max(np.abs(diff))
        assert 1e-8 < worst < 1e-4

    def test_noise_is_seeded(self):
        base = generate_pattern(MeshPattern.cubic(4.0, 1.0))
        truth = Deflection([0.1, 0.0, 0.0], np.zeros(3))
        a = apply_rigid_transform(base, truth, sigma=1e-4, seed=7)
        b = apply_rigid_transform(base, truth, sigma=1e-4, seed=7)
        assert_array_equal(a.displacements, b.displacements)
        c = apply_rigid_transform(base, truth, sigma=1e-4, seed=8)
        assert np.max(np.abs(c.displacements - a.displacements)) > 0.0

    def test_noise_level_matches_sigma(self):
        base = generate_pattern(MeshPattern.cubic(10.0, 1.0))
        truth = Deflection(np.zeros(3), np.zeros(3))
        noise = apply_rigid_transform(base, truth, sigma=1.0, seed=0).displacements
        assert abs(noise.std() - 1.0) < 0.05   # 3993 samples
        assert abs(noise.mean()) < 0.05

    def test_gaussian_sampler_moments(self):
        n = 66667
        samples = _noisy_displacements(np.zeros((n, 3)), 1.0, np.random.default_rng(0), 1)
        assert samples.shape == (1, n, 3)
        assert abs(samples.mean()) < 0.01
        assert abs(samples.std() - 1.0) < 0.01
        # roughly symmetric tails
        assert 0.9 < -samples.min() / samples.max() < 1.1

    @pytest.mark.parametrize("seeds", [[0], [7, 3, 12], list(range(40, 62)),
                                       list(range(2 ** 128 - 2, 2 ** 128 + 2))],
                             ids=["S1", "S3", "S22", "S4-across-2**128"])
    @pytest.mark.parametrize("n", [2, 121])
    def test_noise_definition_pinned(self, seeds, n):
        # The noise of each seed's stream, rebuilt one draw at a time with
        # the running numpy: row s is default_rng(seed)'s next (3, n)
        # standard normals, one plane per component, and a second call
        # continues the stream.  Every study summary and simulated CSV
        # depends on these bits.
        rigid = np.arange(3.0 * n).reshape(n, 3) * 1e-3
        sigma = 5.6e-5
        for seed in seeds:
            stream = np.random.default_rng(seed)
            expected = [stream.standard_normal((3, n)).T * sigma + rigid for _ in seeds]
            generator = _generator(sigma, seed)
            got = _noisy_displacements(rigid, sigma, generator, len(seeds))
            assert got.shape == (len(seeds), n, 3)
            assert got.swapaxes(-1, -2).flags.c_contiguous  # planes, as the fits read
            assert_array_equal(got.view(np.int64), np.array(expected).view(np.int64))
            expected = stream.standard_normal((3, n)).T * sigma + rigid
            assert_array_equal(_noisy_displacements(rigid, sigma, generator, 1)[0]
                               .view(np.int64), expected.view(np.int64))
        assert_same_bits(_noisy_displacements(rigid, 0.0, _generator(0.0, seeds[0]),
                                              len(seeds)),
                         np.broadcast_to(rigid, got.shape))

    def test_negative_seed_rejected_only_with_noise(self):
        with pytest.raises(InvalidArgument, match="nonnegative"):
            _generator(5.6e-5, -1)
        # No noise is drawn at sigma = 0, so no seed is read.
        assert _generator(0.0, -1) is None

    def test_requires_centered_field(self):
        base = generate_pattern(MeshPattern.cubic(2.0, 1.0))
        raw = DisplacementField(base.positions, base.displacements)
        with pytest.raises(ValueError):
            apply_rigid_transform(raw, Deflection([1, 0, 0], np.zeros(3)))

    def test_negative_sigma_rejected(self):
        base = generate_pattern(MeshPattern.cubic(2.0, 1.0))
        with pytest.raises(ValueError):
            apply_rigid_transform(base, Deflection(np.zeros(3), np.zeros(3)), sigma=-1.0)

    @pytest.mark.parametrize("sigma", [1.35e154, 1e300])
    def test_sigma_whose_square_overflows_rejected(self, sigma):
        base = generate_pattern(MeshPattern.cubic(2.0, 1.0))
        with pytest.raises(InvalidArgument, match="square"):
            apply_rigid_transform(base, Deflection(np.zeros(3), np.zeros(3)), sigma=sigma)


class TestBeamModel:
    def test_section_properties(self):
        spec = BeamSpec()
        assert spec.area == 100.0
        assert_allclose(spec.bending_inertia, 10000.0 / 12.0, rtol=1e-14)
        assert_allclose(spec.shear_modulus, 2.0e5 / 2.532, rtol=1e-12)
        assert_allclose(spec.torsion_constant, 1406.0, rtol=1e-12)

    def test_invalid_dimensions_rejected(self):
        with pytest.raises(ValueError):
            BeamSpec(length=0.0)
        with pytest.raises(ValueError):
            BeamSpec(poisson=0.5)

    def test_oracle_matrix_values(self):
        k = beam_compliance_oracle().k
        assert_allclose(k[0, 0], 5.0e-5, rtol=1e-12)
        assert_allclose(k[1, 1], 2.0, rtol=1e-12)
        assert_allclose(k[2, 2], 2.0, rtol=1e-12)
        assert_allclose(k[3, 3], 9.0043e-6, rtol=1e-4)
        assert_allclose(k[4, 4], 6.0e-6, rtol=1e-12)
        assert_allclose(k[5, 5], 6.0e-6, rtol=1e-12)
        assert_allclose(k[1, 5], 3.0e-3, rtol=1e-12)
        assert_allclose(k[2, 4], -3.0e-3, rtol=1e-12)

    def test_oracle_zero_pattern(self):
        k = beam_compliance_oracle().k
        assert np.count_nonzero(k) == 10
        assert np.count_nonzero(k == 0.0) == 26
        assert_array_equal(k, k.T)
        assert np.all(np.linalg.eigvalsh(k) > 0.0)

    def test_oracle_length_scaling(self):
        k1 = beam_compliance_oracle(BeamSpec(length=1000.0)).k
        k2 = beam_compliance_oracle(BeamSpec(length=2000.0)).k
        assert_allclose(k2[0, 0] / k1[0, 0], 2.0, rtol=1e-12)   # axial ~ L
        assert_allclose(k2[1, 1] / k1[1, 1], 8.0, rtol=1e-12)   # bending ~ L^3
        assert_allclose(k2[1, 5] / k1[1, 5], 4.0, rtol=1e-12)   # coupling ~ L^2
        assert_allclose(k2[5, 5] / k1[5, 5], 2.0, rtol=1e-12)   # rotation ~ L

    def test_axial_experiment_is_pure_translation(self):
        field = beam_tip_field(BeamSpec(), Wrench([1000.0, 0, 0], [0, 0, 0]),
                               MeshPattern.cubic(10.0, 1.0))
        assert_allclose(field.displacements,
                        np.tile([5.0e-2, 0.0, 0.0], (1331, 1)), atol=1e-15)

    def test_moment_experiment_recovered_by_estimator(self):
        wrench = Wrench([0, 0, 0], [0.0, 1000.0, 0.0])
        field = beam_tip_field(BeamSpec(), wrench, MeshPattern.cubic(10.0, 1.0))
        fit = estimate_lin(field)
        expected = beam_compliance_oracle().k @ wrench.as_vector()
        assert_allclose(fit.deflection.as_vector(), expected, atol=1e-12)

    def test_combined_wrench_moves_rigidly(self):
        # d = k w holds for any wrench: every node moves by the oracle's
        # translation plus its rotation crossed with the node offset.
        wrench = Wrench([500.0, 0.5, 0.5], [500.0, 500.0, 500.0])
        field = beam_tip_field(BeamSpec(), wrench, MeshPattern.cubic(4.0, 1.0))
        d = beam_compliance_oracle().k @ wrench.as_vector()
        expected = d[:3] + np.cross(d[3:], field.positions)
        assert_allclose(field.displacements, expected, rtol=0, atol=1e-15)
        assert_allclose(estimate_lin(field).deflection.as_vector(), d, atol=1e-15)

    def test_load_cases_layout(self):
        cases = beam_load_cases()
        assert [c.source for c in cases] == ["fx", "fy", "fz", "mx", "my", "mz"]
        wrenches = [case.wrench for case in cases]
        assert_array_equal([w.as_vector() for w in wrenches], np.diag(DEFAULT_LOADS))
        assert is_canonical(wrenches) is True
        assert all(case.field.n == 1331 for case in cases)

    @pytest.mark.parametrize("pattern", [MeshPattern.cubic(4.0, 1.0),
                                         MeshPattern.square(10.0, 1.0, "x")],
                             ids=["cubic", "square"])
    @pytest.mark.parametrize("sigma", [5.6e-5, 0.0])
    def test_load_cases_match_beam_tip_field(self, pattern, sigma):
        # beam_load_cases, which simulate writes, builds the pattern and the
        # noise-free fields once and draws the six fields' noise as one
        # batch; each case must still equal the one-field path
        # beam_tip_field.
        cases = beam_load_cases(BeamSpec(), pattern, DEFAULT_LOADS, sigma, seed=3)
        for j, (case, wrench) in enumerate(zip(
                cases, canonical_wrench_scheme(*DEFAULT_LOADS))):
            field = beam_tip_field(BeamSpec(), wrench, pattern, sigma, 3 + j)
            assert_same_bits(case.field.positions, field.positions)
            assert_same_bits(case.field.displacements, field.displacements)
            assert_same_bits(case.field.reference_point, field.reference_point)
            assert case.field.centered
            assert_same_bits(case.wrench.force, wrench.force)
            assert_same_bits(case.wrench.torque, wrench.torque)

    def test_load_cases_deterministic(self):
        a = beam_load_cases(sigma=5e-5, seed=12)
        b = beam_load_cases(sigma=5e-5, seed=12)
        for ca, cb in zip(a, b):
            assert_array_equal(ca.field.displacements, cb.field.displacements)


class TestAmplitudeStudy:
    def test_noise_free_rotation_sweep(self):
        study = run_amplitude_study([0.1, 1.0])
        assert set(study.max_errors) == set(STUDY_METHODS)
        lin = study.max_errors["lin"]
        avg = study.max_errors["svd-avg"]
        plus = study.max_errors["svd-plus"]
        # quadratic growth of the linearization error
        assert 50.0 < lin[1] / lin[0] < 200.0
        # isotropic pattern: both averaged estimators coincide
        assert_allclose(avg, lin, atol=1e-12)
        # entry averaging beats single-sided extraction
        assert avg[0] <= plus[0] and avg[1] <= plus[1]

    def test_translation_sweep_is_exact(self):
        study = run_amplitude_study([0.01, 0.1, 1.0, 10.0], kind="translation")
        assert set(study.max_errors) == {"lin", "svd-avg"}
        for errors in study.max_errors.values():
            assert np.max(errors) <= 1e-13

    def test_noisy_sweep_locates_preferred_band(self):
        study = run_amplitude_study([0.01, 0.1, 1.0], trials=2, seed=3,
                                    sigma=5e-5)
        assert study.best_amplitude == 0.1
        assert 0.1 in study.band
        assert study.trials == 2

    def test_bad_kind_rejected(self):
        with pytest.raises(ValueError):
            run_amplitude_study([0.1], kind="spiral")

    @pytest.mark.parametrize("trials", [0, -1])
    def test_bad_trial_count_rejected(self, trials):
        # as in the noise and zero-detection studies, not numpy's error
        # on an empty or negative trial axis
        with pytest.raises(InvalidArgument, match="trials"):
            run_amplitude_study([0.1], trials=trials)

    @pytest.mark.parametrize("kind", ["rotation", "translation"])
    def test_matches_reference_loop(self, kind, monkeypatch):
        # The study computes each amplitude's rigid displacement once and
        # fits each block of trials as batch rows, here a block of two
        # trials and one of one; the reference applies the whole
        # transform per trial, adds the trial's noise from the study's
        # one stream, default_rng(seed), drawn amplitude by amplitude and
        # trial by trial, and runs each estimator on each field.
        amplitudes, trials, seed, sigma = [0.05, 0.5], 3, 4, 5e-5
        pattern = MeshPattern.cubic(4.0, 1.0)
        monkeypatch.setattr(pipeline, "_BLOCK_NODES", 2 * 125)
        study = run_amplitude_study(amplitudes, pattern, trials, seed, sigma, kind)
        base = generate_pattern(pattern)
        stream = np.random.default_rng(seed)
        errors = {m: np.zeros((len(amplitudes), trials)) for m in study.max_errors}
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", LinearizationWarning)
            for ai, amp in enumerate(amplitudes):
                if kind == "rotation":
                    truth_defl = Deflection((1.0, 1.0, 1.0), np.deg2rad([amp] * 3))
                else:
                    truth_defl = Deflection([amp] * 3, np.zeros(3))
                for t in range(trials):
                    field = with_noise(apply_rigid_transform(
                        base, truth_defl, exact_rotation=(kind == "rotation")),
                        stream, sigma)
                    for name in errors:
                        fit = estimate_lin(field) if name == "lin" else \
                            estimate_svd(field, name.removeprefix("svd-"))
                        est = fit.deflection
                        if kind == "rotation":
                            err = np.max(np.abs(np.rad2deg(est.rotation) - amp))
                        else:
                            err = np.max(np.abs(est.translation - amp))
                        errors[name][ai, t] = err
        for name, values in errors.items():
            assert_same_bits(study.max_errors[name], values.max(axis=1))
            assert_same_bits(study.mean_errors[name], values.mean(axis=1))

    def test_json_dict_holds_fields(self):
        study = run_amplitude_study([0.05, 0.5], MeshPattern.cubic(2.0, 1.0),
                                    trials=2, seed=3, sigma=5e-5)
        data = assert_summary_holds_fields(study, {
            "kind", "amplitudes", "sigma", "trials", "max_errors", "mean_errors",
            "best_amplitude", "band"})
        assert set(data["max_errors"]) == set(STUDY_METHODS)
        assert data["best_amplitude"] in data["band"]

    def test_csv_and_json_outputs(self, tmp_path):
        study = run_amplitude_study([0.1, 1.0])
        path = tmp_path / "study.csv"
        study.write_csv(path)
        with open(path, newline="") as handle:
            rows = list(csv.reader(line for line in handle if not line.startswith("#")))
        assert len(rows) == 1 + len(STUDY_METHODS)
        assert {len(row) for row in rows} == {3}
        assert rows[0][0] == "method"
        assert [float(cell) for cell in rows[0][1:]] == [0.1, 1.0]
        assert [row[0] for row in rows[1:]] == list(STUDY_METHODS)
        data = json.loads(json.dumps(study.to_json_dict()))
        assert data["kind"] == "rotation"
        assert data["amplitudes"] == [0.1, 1.0]
        assert set(data["max_errors"]) == set(STUDY_METHODS)


class TestNoiseStudy:
    def test_noise_free_errors_vanish(self):
        study = run_noise_study(sigma=0.0, trials=3)
        assert study.max_translation_error_mm <= 1e-12
        assert study.max_rotation_error_rad <= 1e-12

    def test_spread_matches_analytic_stds(self):
        study = run_noise_study(sigma=5e-5, trials=100, seed=1)
        emp = np.array(study.empirical_translation_std
                       + study.empirical_rotation_std)
        ana = np.array(study.analytic_translation_std
                       + study.analytic_rotation_std)
        assert_allclose(emp, ana, rtol=0.20)
        mean = np.abs(np.array(study.mean_error))
        assert np.all(mean <= 5.0 * ana / math.sqrt(100.0))

    def test_deterministic_for_fixed_seed(self):
        a = run_noise_study(sigma=1e-4, trials=5, seed=9)
        b = run_noise_study(sigma=1e-4, trials=5, seed=9)
        assert a == b

    def test_matches_reference_loop(self):
        # The study computes the noise-free displacement once; the
        # reference applies the whole transform per trial and adds the
        # trial's noise from the study's one stream, default_rng(seed).
        pattern, sigma, trials, seed = MeshPattern.cubic(4.0, 1.0), 1e-4, 6, 2
        study = run_noise_study(pattern, sigma, trials, seed)
        base = generate_pattern(pattern)
        truth_defl = Deflection((1.0, 1.0, 1.0), np.deg2rad([0.1] * 3))
        stream = np.random.default_rng(seed)
        err = np.zeros((trials, 6))
        for t in range(trials):
            fit = estimate_lin(with_noise(apply_rigid_transform(base, truth_defl),
                                          stream, sigma))
            err[t] = fit.deflection.as_vector() - truth_defl.as_vector()
        emp = err.std(axis=0, ddof=1)
        assert_same_bits(study.max_translation_error_mm, np.max(np.abs(err[:, :3])))
        assert_same_bits(study.max_rotation_error_rad, np.max(np.abs(err[:, 3:])))
        assert_same_bits(study.empirical_translation_std, emp[:3])
        assert_same_bits(study.empirical_rotation_std, emp[3:])
        assert_same_bits(study.mean_error, err.mean(axis=0))

    def test_json_dict_keys(self):
        study = run_noise_study(sigma=0.0, trials=2)
        assert_summary_holds_fields(study, {
            "sigma", "trials", "max_translation_error_mm", "max_rotation_error_rad",
            "empirical_translation_std", "empirical_rotation_std",
            "analytic_translation_std", "analytic_rotation_std", "mean_error"})


class TestZeroDetectionStudy:
    def test_small_run_is_perfect(self):
        study = run_zero_detection_study(seeds=6)
        assert study.perfect_seeds == 6
        assert study.pass_fraction == 1.0
        assert all(m == 0 for m in study.zeros_missed)
        assert all(l == 0 for l in study.nonzeros_lost)
        assert all(s >= 100.0 for s in study.min_safety)

    def test_json_dict_round_numbers(self):
        study = run_zero_detection_study(seeds=2)
        data = assert_summary_holds_fields(study, {
            "seeds", "sigma", "multiplier", "safety_threshold", "perfect_seeds",
            "pass_fraction", "zeros_missed", "nonzeros_lost", "min_safety"})
        assert data["seeds"] == 2
        assert data["pass_fraction"] == 1.0
        assert len(data["min_safety"]) == 2

    def test_json_dict_writes_non_finite_safety_as_null(self):
        # A zero halfwidth, as from a fit with exactly zero residuals,
        # gives an infinite safety factor.
        study = dataclasses.replace(run_zero_detection_study(seeds=1),
                                    min_safety=(math.inf, 7.5, -math.inf, math.nan))
        text = json.dumps(study.to_json_dict(), allow_nan=False)
        assert json.loads(text)["min_safety"] == [None, 7.5, None, None]
        assert study.min_safety[0] == math.inf  # the record keeps its value

    def test_matches_reference_loop(self):
        # The study builds the seed-invariant beam fields once; the
        # reference builds every seed's load cases from the noise-free
        # ones, with experiment j's noise drawn seed by seed from the j-th
        # stream that SeedSequence(seed) spawns.
        seeds, seed, sigma, multiplier = 5, 7, 5.6e-5, 4.0
        study = run_zero_detection_study(seeds=seeds, seed=seed, sigma=sigma,
                                         multiplier=multiplier)
        nonzero = beam_compliance_oracle().k != 0.0
        options = IdentifyOptions(outlier_level=0.01,
                                  confidence_multiplier=multiplier)
        clean = beam_load_cases(BeamSpec(), MeshPattern.square(10.0, 1.0, "x"))
        streams = [np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(6)]
        missed, lost, low = [], [], []
        for s in range(seeds):
            cases = [LoadCase(with_noise(case.field, stream, sigma), case.wrench, case.source)
                     for case, stream in zip(clean, streams)]
            result = run_identification(cases, options)
            k = result.matrix.k
            missed.append(int(np.count_nonzero(k[~nonzero] != 0.0)))
            lost.append(int(np.count_nonzero(k[nonzero] == 0.0)))
            report = result.significance
            safeties = report.safety[nonzero & report.significant].tolist()
            low.append(min(safeties) if len(safeties) == np.count_nonzero(nonzero)
                       else 0.0)
        assert study.zeros_missed == tuple(missed)
        assert study.nonzeros_lost == tuple(lost)
        assert_same_bits(study.min_safety, low)
        assert study.perfect_seeds == sum(
            m == 0 and n == 0 and f >= 100.0 for m, n, f in zip(missed, lost, low))

    def test_block_size_does_not_matter(self, monkeypatch):
        # The 30 seeds run as one block, which draws each experiment's
        # noise in one batched transform; one seed per block must give
        # the same study.
        batched = run_zero_detection_study(seeds=30).to_json_dict()
        monkeypatch.setattr(pipeline, "_BLOCK_NODES", 121)
        assert run_zero_detection_study(seeds=30).to_json_dict() == batched

    def test_default_study_is_one_block(self, monkeypatch):
        calls = []

        def counting(*args):
            calls.append(args)
            return identify_batch(*args)

        monkeypatch.setattr(synthetic, "identify_batch", counting)
        assert run_zero_detection_study().seeds == 100
        assert len(calls) == 1

    @pytest.mark.parametrize("name, value", [
        ("multiplier", math.nan), ("multiplier", 0.0), ("multiplier", True),
        ("safety_threshold", math.nan), ("safety_threshold", -1.0),
        ("safety_threshold", math.inf), ("safety_threshold", True),
    ])
    def test_bad_parameter_named_before_any_noise(self, monkeypatch, name, value):
        # With a NaN threshold every seed used to count as imperfect.
        monkeypatch.setattr(synthetic, "_noisy_displacements", None)
        with pytest.raises(InvalidArgument, match=f"^{name} must be"):
            run_zero_detection_study(seeds=2, **{name: value})

    def test_traced_peak_holds_no_noise_block(self):
        # The default study is one block of 100 seeds, and each
        # experiment's (100, 3, 121) noise block (284 KiB) is freed once
        # its rows' survivors are gathered: the peak reads 1.42 MiB, and
        # 2.53 MiB when the blocks are held until the refits.
        run_zero_detection_study()  # numpy's lazy imports, the quantile cache
        tracemalloc.start()
        try:
            run_zero_detection_study()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2 ** 20

    def test_impossible_threshold_counts_failures(self):
        study = run_zero_detection_study(seeds=2, safety_threshold=1e12)
        assert study.perfect_seeds == 0
        assert study.pass_fraction == 0.0


def test_linearization_warning_suppressed_inside_studies():
    with warnings.catch_warnings():
        warnings.simplefilter("error", LinearizationWarning)
        run_amplitude_study([5.0])  # 5 deg is far outside the linear regime
