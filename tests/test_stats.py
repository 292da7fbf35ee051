"""Noise estimation, deflection covariance, outlier filtering, significance."""

import json
import math
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from stiffid import (
    BeamSpec,
    Deflection,
    DeflectionCovariance,
    DegenerateGeometry,
    DisplacementField,
    Experiment,
    FitResult,
    IdentifyOptions,
    InsufficientDof,
    InvalidArgument,
    MeshPattern,
    MissingCovariance,
    NotCanonical,
    TooFewRemaining,
    Wrench,
    assemble_canonical,
    beam_load_cases,
    canonical_wrench_scheme,
    deflection_covariance,
    estimate_lin,
    estimate_sigma,
    filter_outliers,
    run_identification,
    significance_test,
)
from stiffid.stats import (
    DEFAULT_CONFIDENCE_MULTIPLIER,
    DEFAULT_OUTLIER_FRACTION,
    _drop_mask,
    system_covariance,
)


def cube_nodes(edge, step):
    off = np.arange(-edge / 2, edge / 2 + step / 2, step)
    x, y, z = np.meshgrid(off, off, off, indexing="ij")
    return np.column_stack([x.ravel(), y.ravel(), z.ravel()])


def make_field(positions, displacements):
    return DisplacementField(positions, displacements, centered=True)


def flat_fit(residuals):
    r = np.asarray(residuals, dtype=float)
    return FitResult(Deflection(np.zeros(3), np.zeros(3)), r,
                     float(np.sum(r * r)))


class TestEstimateSigma:
    def test_pooled_value_from_known_residuals(self):
        r1 = np.zeros((5, 3))
        r1[0] = [3.0, 0.0, 0.0]  # ssq 9 over 3*5-6 = 9 dof
        r2 = np.zeros((4, 3))
        r2[1] = [0.0, 4.0, 0.0]  # ssq 16 over 3*4-6 = 6 dof
        est = estimate_sigma([flat_fit(r1), flat_fit(r2)])
        assert est.dof == 15
        assert_allclose(est.sigma, math.sqrt(25.0 / 15.0), rtol=1e-14)
        assert_allclose(est.per_experiment_sigma,
                        (1.0, math.sqrt(16.0 / 6.0)), rtol=1e-14)

    def test_zero_residuals_give_zero(self):
        assert estimate_sigma([flat_fit(np.zeros((10, 3)))]).sigma == 0.0

    def test_too_few_nodes_rejected(self):
        with pytest.raises(InsufficientDof):
            estimate_sigma([flat_fit(np.zeros((2, 3)))])

    def test_empty_list_rejected(self):
        with pytest.raises(InsufficientDof):
            estimate_sigma([])

    def test_recovers_injected_noise_level(self):
        pos = cube_nodes(10.0, 1.0)
        sigma = 5.0e-5
        fits = []
        for seed in range(6):
            rng = np.random.default_rng(seed)
            disp = (np.cross([1e-4, -1e-4, 2e-4], pos) + [0.5, 0.1, -0.2]
                    + rng.normal(0.0, sigma, pos.shape))
            fits.append(estimate_lin(make_field(pos, disp)))
            single = estimate_sigma(fits[-1:])
            assert abs(single.sigma - sigma) <= 0.05 * sigma
        pooled = estimate_sigma(fits)
        assert abs(pooled.sigma - sigma) <= 0.03 * sigma
        assert pooled.dof == 6 * (3 * 1331 - 6)


class TestDeflectionCovariance:
    def test_translation_block_closed_form(self):
        pos = cube_nodes(10.0, 1.0)
        sigma = 5.0e-5
        cov = deflection_covariance(make_field(pos, np.zeros_like(pos)), sigma)
        assert_allclose(cov.translation, sigma ** 2 / 1331.0 * np.eye(3),
                        rtol=1e-12, atol=0)
        assert_allclose(cov.translation_std(), sigma / math.sqrt(1331.0),
                        rtol=1e-12)

    def test_rotation_block_inverts_moment_matrix(self):
        pos = cube_nodes(10.0, 1.0)
        sigma = 5.0e-5
        cov = deflection_covariance(make_field(pos, np.zeros_like(pos)), sigma)
        assert_allclose(cov.rotation, sigma ** 2 / 26620.0 * np.eye(3),
                        rtol=1e-10, atol=1e-25)

    def test_headline_std_values(self):
        # 1331-node unit grid at sigma = 5e-5 mm: about 1.37e-6 mm of
        # translation spread and 1.8e-5 deg of rotation spread
        pos = cube_nodes(10.0, 1.0)
        cov = deflection_covariance(make_field(pos, np.zeros_like(pos)), 5.0e-5)
        assert_allclose(cov.translation_std(), 1.37e-6, rtol=5e-3)
        assert_allclose(np.rad2deg(cov.rotation_std()), 1.8e-5, rtol=0.03)

    def test_component_std_layout(self):
        pos = cube_nodes(4.0, 1.0)
        cov = deflection_covariance(make_field(pos, np.zeros_like(pos)), 1e-4)
        stds = cov.component_std()
        assert stds.shape == (6,)
        assert_allclose(stds[:3], cov.translation_std(), atol=0)
        assert_allclose(stds[3:], cov.rotation_std(), atol=0)

    def test_zero_sigma_gives_zero_covariance(self):
        pos = cube_nodes(4.0, 1.0)
        cov = deflection_covariance(make_field(pos, np.zeros_like(pos)), 0.0)
        assert np.all(cov.translation == 0.0)
        assert np.all(cov.rotation == 0.0)

    def test_negative_sigma_rejected(self):
        pos = cube_nodes(4.0, 1.0)
        with pytest.raises(ValueError):
            deflection_covariance(make_field(pos, np.zeros_like(pos)), -1.0)

    @pytest.mark.parametrize("sigma", [math.nan, math.inf])
    def test_non_finite_sigma_rejected(self, sigma):
        field = make_field(cube_nodes(4.0, 1.0), np.zeros((125, 3)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no numpy RuntimeWarning on the way
            with pytest.raises(InvalidArgument):
                deflection_covariance(field, sigma)
            with pytest.raises(InvalidArgument):
                system_covariance(estimate_lin(field).system, sigma)

    def test_collinear_nodes_degenerate(self):
        pos = np.outer(np.linspace(-5, 5, 9), [1.0, 0.0, 0.0])
        with pytest.raises(DegenerateGeometry):
            deflection_covariance(make_field(pos, np.zeros_like(pos)), 1e-5)

    def test_pipeline_covariances_match_reduced_fields(self):
        # the pipeline reuses each refit's normal system; the result must
        # equal a fresh covariance of the outlier-filtered field
        cases = beam_load_cases(BeamSpec(), MeshPattern.cubic(6.0, 1.0),
                                sigma=5.6e-5, seed=4)
        result = run_identification(cases)
        for case, cov, removed in zip(cases, result.covariances, result.removed):
            keep = np.setdiff1d(np.arange(case.field.n), removed)
            reduced = make_field(case.field.positions[keep],
                                 case.field.displacements[keep])
            fresh = deflection_covariance(reduced, result.noise.sigma)
            assert_allclose(cov.translation, fresh.translation, rtol=1e-12, atol=0)
            assert_allclose(cov.rotation, fresh.rotation, rtol=1e-12, atol=0)

    def test_monte_carlo_spread_matches(self):
        pos = cube_nodes(10.0, 2.0)  # 216 nodes keeps this quick
        field = make_field(pos, np.zeros_like(pos))
        sigma = 1e-4
        cov = deflection_covariance(field, sigma)
        rng = np.random.default_rng(31)
        truth = Deflection([0.2, -0.1, 0.3], [1e-4, 2e-4, -1e-4])
        errors = np.zeros((150, 6))
        for t in range(150):
            disp = (np.cross(truth.rotation, pos) + truth.translation
                    + rng.normal(0.0, sigma, pos.shape))
            fit = estimate_lin(make_field(pos, disp))
            errors[t] = fit.deflection.as_vector() - truth.as_vector()
        emp = errors.std(axis=0, ddof=1)
        assert_allclose(emp, cov.component_std(), rtol=0.25)
        # estimates are unbiased: mean error within 4 standard errors
        se = cov.component_std() / math.sqrt(150.0)
        assert np.all(np.abs(errors.mean(axis=0)) <= 4.0 * se)


class TestFilterOutliers:
    def test_zero_fraction_is_identity(self):
        pos = cube_nodes(4.0, 1.0)
        field = make_field(pos, np.zeros_like(pos))
        fit = estimate_lin(field)
        reduced, removed = filter_outliers(field, fit, 0.0)
        assert reduced.n == field.n
        assert removed.size == 0

    def test_spiked_nodes_are_the_ones_removed(self):
        pos = cube_nodes(4.0, 1.0)  # 125 nodes
        rng = np.random.default_rng(32)
        disp = np.cross([1e-4, 0.0, -1e-4], pos) + rng.normal(0, 1e-5, pos.shape)
        spiked = [3, 50, 124]
        disp[spiked] += [5e-3, -5e-3, 5e-3]
        field = make_field(pos, disp)
        fit = estimate_lin(field)
        reduced, removed = filter_outliers(field, fit, 3.0 / 125.0)
        assert sorted(removed.tolist()) == spiked
        assert reduced.n == 122

    def test_removal_count_rounds_up(self):
        pos = cube_nodes(10.0, 1.0)[:121]
        field = make_field(pos, np.zeros_like(pos))
        fit = estimate_lin(field)
        _, removed = filter_outliers(field, fit, DEFAULT_OUTLIER_FRACTION)
        assert removed.size == 13  # ceil(0.1 * 121)

    def test_survivor_order_preserved(self):
        rng = np.random.default_rng(33)
        pos = rng.uniform(-5, 5, (40, 3))
        disp = rng.normal(0, 1e-4, (40, 3))
        field = make_field(pos, disp)
        fit = estimate_lin(field)
        reduced, removed = filter_outliers(field, fit, 0.2)
        keep = np.setdiff1d(np.arange(40), removed)
        assert_array_equal(reduced.positions, pos[keep])
        assert_array_equal(reduced.displacements, disp[keep])

    def test_rankings_disagree_on_crafted_residuals(self):
        # the largest per-axis residual ranks, not the residual norm
        pos = cube_nodes(2.0, 1.0)[:8]
        field = make_field(pos, np.zeros_like(pos))
        residuals = np.zeros((8, 3))
        residuals[2] = [1.0, 0.0, 0.0]    # max-axis 1.0, norm 1.0
        residuals[5] = [0.9, 0.9, 0.9]    # max-axis 0.9, norm 1.56
        fit = FitResult(Deflection(np.zeros(3), np.zeros(3)), residuals, 0.0)
        _, removed = filter_outliers(field, fit, 1.0 / 8.0)
        assert removed.tolist() == [2]

    def test_tie_breaking_is_deterministic(self):
        pos = cube_nodes(2.0, 1.0)[:6]
        field = make_field(pos, np.zeros_like(pos))
        fit = FitResult(Deflection(np.zeros(3), np.zeros(3)),
                        np.ones((6, 3)), 18.0)
        _, removed_a = filter_outliers(field, fit, 1.0 / 6.0)
        _, removed_b = filter_outliers(field, fit, 1.0 / 6.0)
        assert_array_equal(removed_a, removed_b)
        assert removed_a.tolist() == [5]  # stable sort keeps earlier ties

    @pytest.mark.parametrize("seed", range(10))
    def test_partial_ties_match_stable_sort(self, seed):
        # 3 scores lie strictly above the cut and 7 tie at it, of which
        # 3 go; the removed set is the tail of a stable ascending argsort
        rng = np.random.default_rng(seed)
        score = rng.permutation(np.concatenate(
            [[5.0] * 3, [4.0] * 7, rng.integers(0, 4, 50).astype(float)]))
        residuals = rng.uniform(0.0, 1.0, (60, 3)) * score[:, None]
        residuals[np.arange(60), rng.integers(0, 3, 60)] = score
        residuals *= rng.choice([-1.0, 1.0], (60, 3))
        pos = rng.uniform(-5.0, 5.0, (60, 3))
        field = make_field(pos, np.zeros_like(pos))
        fit = FitResult(Deflection(np.zeros(3), np.zeros(3)), residuals, 0.0)
        _, removed = filter_outliers(field, fit, 0.1)
        expected = np.sort(np.argsort(score, kind="stable")[60 - 6:])
        assert_array_equal(removed, expected)
        assert_array_equal(np.sort(score[removed]), [4.0] * 3 + [5.0] * 3)

    def test_batch_rows_with_different_tie_counts(self):
        # 60 nodes at the 10% trim drop 6 per row.  Row r has r + 1
        # equal top scores and 8 - r ties at 4.0, so rows 0-4 take 5 to
        # 1 of their ties at 4.0, row 5 has its 6 top scores tie at the
        # cut, and in the last row every score ties.  The batch must
        # drop each row's own set.
        rng = np.random.default_rng(41)
        rows = []
        for r in range(6):
            score = rng.permutation(np.concatenate(
                [[5.0 + r] * (r + 1), [4.0] * (8 - r),
                 rng.uniform(0.0, 3.9, 51)]))
            rows.append(score)
        rows.append(np.full(60, 2.0))
        batch = []
        for score in rows:
            residuals = rng.uniform(0.0, 1.0, (60, 3)) * score[:, None]
            residuals[np.arange(60), rng.integers(0, 3, 60)] = score
            batch.append(residuals * rng.choice([-1.0, 1.0], (60, 3)))
        batch = np.array(batch)
        drop = _drop_mask(batch, 0.1)
        pos = rng.uniform(-5.0, 5.0, (60, 3))
        field = make_field(pos, np.zeros_like(pos))
        for row, residuals in zip(drop, batch):
            fit = FitResult(Deflection(np.zeros(3), np.zeros(3)), residuals, 0.0)
            _, removed = filter_outliers(field, fit, 0.1)
            assert_array_equal(np.flatnonzero(row), removed)
        assert_array_equal(np.flatnonzero(drop[-1]), np.arange(54, 60))

    def test_too_few_survivors_rejected(self):
        pos = cube_nodes(2.0, 1.0)[:4]
        field = make_field(pos, np.zeros_like(pos))
        fit = estimate_lin(field)
        with pytest.raises(TooFewRemaining):
            filter_outliers(field, fit, 0.5)

    @pytest.mark.parametrize("fraction", [-0.1, 1.0, 1.5])
    def test_bad_fraction_rejected(self, fraction):
        pos = cube_nodes(2.0, 1.0)
        field = make_field(pos, np.zeros_like(pos))
        fit = estimate_lin(field)
        with pytest.raises(ValueError):
            filter_outliers(field, fit, fraction)

    def test_mismatched_fit_rejected(self):
        pos = cube_nodes(2.0, 1.0)
        field = make_field(pos, np.zeros_like(pos))
        fit = flat_fit(np.zeros((5, 3)))
        with pytest.raises(ValueError):
            filter_outliers(field, fit, 0.1)


def beam_matrix():
    k = np.zeros((6, 6))
    k[0, 0] = 5.0e-5
    k[1, 1] = k[2, 2] = 2.0
    k[3, 3] = 9.0e-6
    k[4, 4] = k[5, 5] = 6.0e-6
    k[1, 5] = k[5, 1] = 3.0e-3
    k[2, 4] = k[4, 2] = -3.0e-3
    return k


def canonical_experiments(k, magnitudes=(1000.0, 1.0, 1.0, 1000.0, 1000.0, 1000.0)):
    experiments = []
    for wrench in canonical_wrench_scheme(*magnitudes):
        d = k @ wrench.as_vector()
        experiments.append(Experiment(wrench, Deflection(d[:3], d[3:])))
    return experiments


def uniform_covariances(translation_std, rotation_std, count=6):
    cov = DeflectionCovariance(translation_std ** 2 * np.eye(3),
                               rotation_std ** 2 * np.eye(3))
    return [cov] * count


class TestSignificanceTest:
    def test_structural_zeros_stay_zero_and_nonzeros_survive(self):
        k = beam_matrix()
        matrix = assemble_canonical(canonical_experiments(k))
        report, zeroed = significance_test(
            matrix, canonical_experiments(k),
            uniform_covariances(1e-9, 1e-11))
        assert_array_equal(zeroed.k, k)
        assert np.count_nonzero(zeroed.significance_mask) == 10

    def test_halfwidth_formula(self):
        k = beam_matrix()
        experiments = canonical_experiments(k)
        matrix = assemble_canonical(experiments)
        t_std, r_std, mult = 1e-8, 1e-10, 3.0
        report, _ = significance_test(matrix, experiments,
                                      uniform_covariances(t_std, r_std), mult)
        by_pos = {(e.row, e.col): e for e in report.elements}
        # row 1 responds in translation; column 1 was loaded with 1000 N
        assert_allclose(by_pos[(1, 1)].halfwidth, mult * t_std / 1000.0,
                        rtol=1e-12)
        # row 4 responds in rotation; column 2 was loaded with 1 N
        assert_allclose(by_pos[(4, 2)].halfwidth, mult * r_std / 1.0,
                        rtol=1e-12)
        safety = by_pos[(1, 1)].safety_factor
        assert_allclose(safety, 5.0e-5 / (mult * t_std / 1000.0), rtol=1e-12)

    def test_small_element_is_zeroed(self):
        k = beam_matrix()
        k[0, 1] = 1e-12  # below any reasonable confidence halfwidth
        experiments = canonical_experiments(k)
        matrix = assemble_canonical(experiments)
        _, zeroed = significance_test(matrix, experiments,
                                      uniform_covariances(1e-8, 1e-10))
        assert zeroed.k[0, 1] == 0.0
        assert not zeroed.significance_mask[0, 1]
        assert zeroed.k[0, 0] == 5.0e-5

    def test_wide_intervals_zero_everything(self):
        k = beam_matrix()
        experiments = canonical_experiments(k)
        matrix = assemble_canonical(experiments)
        report, zeroed = significance_test(matrix, experiments,
                                           uniform_covariances(1.0, 1.0))
        assert np.all(zeroed.k == 0.0)
        assert all(e.safety_factor is None for e in report.elements)

    def test_zero_covariance_gives_infinite_safety(self):
        k = beam_matrix()
        experiments = canonical_experiments(k)
        matrix = assemble_canonical(experiments)
        report, _ = significance_test(matrix, experiments,
                                      uniform_covariances(0.0, 0.0))
        by_pos = {(e.row, e.col): e for e in report.elements}
        assert by_pos[(1, 1)].safety_factor == math.inf
        data = report.to_json_dict()
        first = [e for e in data["elements"] if e["row"] == 1 and e["col"] == 1]
        assert first[0]["safety_factor"] is None  # inf is not JSON-portable

    def test_json_dict_holds_python_scalars(self):
        k = beam_matrix()
        k[0, 1] = 1e-12  # one zeroed element, so the report holds None too
        experiments = canonical_experiments(k)
        matrix = assemble_canonical(experiments)
        report, _ = significance_test(matrix, experiments,
                                      uniform_covariances(1e-8, 1e-10))
        data = report.to_json_dict()
        assert type(data["multiplier"]) is float
        assert type(data["confidence_level"]) is float
        kinds = set()
        for e in data["elements"]:
            assert type(e["row"]) is int and type(e["col"]) is int
            assert type(e["estimate"]) is float
            assert type(e["halfwidth"]) is float
            assert type(e["significant"]) is bool
            assert e["safety_factor"] is None or type(e["safety_factor"]) is float
            kinds.add((e["significant"], type(e["safety_factor"])))
        assert kinds == {(True, float), (False, type(None))}
        assert json.loads(json.dumps(data)) == data

    def test_confidence_level_from_multiplier(self):
        k = beam_matrix()
        experiments = canonical_experiments(k)
        matrix = assemble_canonical(experiments)
        report, _ = significance_test(matrix, experiments,
                                      uniform_covariances(1e-9, 1e-11),
                                      DEFAULT_CONFIDENCE_MULTIPLIER)
        assert_allclose(report.confidence_level, 0.99730, atol=1e-5)
        report2, _ = significance_test(matrix, experiments,
                                       uniform_covariances(1e-9, 1e-11), 2.0)
        assert_allclose(report2.confidence_level, 0.95450, atol=1e-5)

    def test_report_covers_all_elements(self):
        k = beam_matrix()
        experiments = canonical_experiments(k)
        matrix = assemble_canonical(experiments)
        report, _ = significance_test(matrix, experiments,
                                      uniform_covariances(1e-9, 1e-11))
        assert len(report.elements) == 36
        rows = {(e.row, e.col) for e in report.elements}
        assert rows == {(i, j) for i in range(1, 7) for j in range(1, 7)}

    def test_covariance_count_enforced(self):
        k = beam_matrix()
        experiments = canonical_experiments(k)
        matrix = assemble_canonical(experiments)
        with pytest.raises(MissingCovariance):
            significance_test(matrix, experiments,
                              uniform_covariances(1e-9, 1e-11, count=5))

    def test_needs_canonical_scheme(self):
        k = beam_matrix()
        experiments = canonical_experiments(k)
        matrix = assemble_canonical(experiments)
        combined = Experiment(Wrench([1.0, 1.0, 0.0], [0.0, 0.0, 0.0]),
                              experiments[0].deflection)
        with pytest.raises(NotCanonical):
            significance_test(matrix, [combined] + experiments[1:],
                              uniform_covariances(1e-9, 1e-11))

    @pytest.mark.parametrize("multiplier", [math.nan, math.inf, -1.0])
    def test_multiplier_positive_and_finite(self, multiplier):
        cases = beam_load_cases(sigma=5.6e-5, seed=1)
        result = run_identification(cases, IdentifyOptions(symmetrize=False))
        experiments = [Experiment(case.wrench, fit.deflection)
                       for case, fit in zip(cases, result.fits)]
        with pytest.raises(InvalidArgument):
            significance_test(result.assembled, experiments, result.covariances,
                              multiplier)

    def test_positive_multiplier_enforced(self):
        k = beam_matrix()
        experiments = canonical_experiments(k)
        matrix = assemble_canonical(experiments)
        with pytest.raises(ValueError):
            significance_test(matrix, experiments,
                              uniform_covariances(1e-9, 1e-11), 0.0)
