"""Noise estimation, deflection covariance, outlier filtering, significance."""

import json
import math
import sys
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from stiffid import (
    BeamSpec,
    ComplianceMatrix,
    Deflection,
    DegenerateGeometry,
    DisplacementField,
    FitResult,
    IdentifyOptions,
    InsufficientDof,
    InvalidArgument,
    MeshPattern,
    MissingCovariance,
    RankDeficientWrenches,
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
    run_noise_study,
    significance_test,
)
from stiffid.estimation import _fit_geometry
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


def component_std(covariance):
    """Standard deviations of the 6 deflection components."""
    return np.sqrt(np.diagonal(covariance))


class TestDeflectionCovariance:
    def test_translation_block_closed_form(self):
        pos = cube_nodes(10.0, 1.0)
        sigma = 5.0e-5
        cov = deflection_covariance(make_field(pos, np.zeros_like(pos)), sigma)
        assert cov.shape == (6, 6)
        assert_allclose(cov[:3, :3], sigma ** 2 / 1331.0 * np.eye(3),
                        rtol=1e-12, atol=0)
        assert_allclose(component_std(cov)[:3], sigma / math.sqrt(1331.0),
                        rtol=1e-12)
        # no translation-rotation cross-covariance is modelled yet
        assert np.all(cov[:3, 3:] == 0.0)
        assert np.all(cov[3:, :3] == 0.0)

    def test_rotation_block_inverts_moment_matrix(self):
        pos = cube_nodes(10.0, 1.0)
        sigma = 5.0e-5
        cov = deflection_covariance(make_field(pos, np.zeros_like(pos)), sigma)
        assert_allclose(cov[3:, 3:], sigma ** 2 / 26620.0 * np.eye(3),
                        rtol=1e-10, atol=1e-25)

    def test_headline_std_values(self):
        # 1331-node unit grid at sigma = 5e-5 mm: about 1.37e-6 mm of
        # translation spread and 1.8e-5 deg of rotation spread
        pos = cube_nodes(10.0, 1.0)
        cov = deflection_covariance(make_field(pos, np.zeros_like(pos)), 5.0e-5)
        assert_allclose(component_std(cov)[:3], 1.37e-6, rtol=5e-3)
        assert_allclose(np.rad2deg(component_std(cov)[3:]), 1.8e-5, rtol=0.03)

    def test_component_std_layout(self):
        # The noise study reports the covariance's diagonal, translation
        # first and rotation second.
        study = run_noise_study(MeshPattern.cubic(4.0, 1.0), sigma=1e-4, trials=2)
        pos = cube_nodes(4.0, 1.0)
        cov = deflection_covariance(make_field(pos, np.zeros_like(pos)), 1e-4)
        assert_allclose(study.analytic_translation_std, np.sqrt(np.diagonal(cov[:3, :3])),
                        rtol=1e-12, atol=0)
        assert_allclose(study.analytic_rotation_std, np.sqrt(np.diagonal(cov[3:, 3:])),
                        rtol=1e-12, atol=0)

    def test_zero_sigma_gives_zero_covariance(self):
        pos = cube_nodes(4.0, 1.0)
        cov = deflection_covariance(make_field(pos, np.zeros_like(pos)), 0.0)
        assert np.all(cov == 0.0)

    @pytest.mark.parametrize("shape", [(3, 3), (6, 5), (2, 6, 6)],
                             ids=["3x3", "6x5", "stacked"])
    def test_matrix_must_be_6x6(self, shape):
        k = beam_matrix()
        wrenches, deflections = canonical_experiments(k)
        covariances = uniform_covariances(1e-9, 1e-11)
        covariances[2] = np.ones(shape)
        with pytest.raises(ValueError, match="6x6"):
            significance_test(assemble_canonical(wrenches, deflections), wrenches,
                              covariances)

    def test_matrix_is_symmetrized_read_only_copy(self):
        # An irregular node set, whose inverse normal matrix is symmetric
        # only to roundoff: the covariance is the symmetric part of the
        # block matrix, formed once, bit for bit.
        pos = np.random.default_rng(12).normal(size=(40, 3))
        geometry = _fit_geometry(pos)[0]
        cov = system_covariance(geometry, 1e-3)
        block = np.zeros((6, 6))
        block[:3, :3] = 1e-3 ** 2 / 40 * np.eye(3)
        block[3:, 3:] = 1e-3 ** 2 * geometry.inverse
        assert not np.array_equal(block, block.T)
        assert cov.tobytes() == ((block + block.T) / 2.0).tobytes()
        assert np.array_equal(cov, cov.T)
        assert not np.shares_memory(cov, geometry.inverse)
        assert not cov.flags.writeable
        with pytest.raises(ValueError):
            cov[0, 0] = 1.0

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
                system_covariance(estimate_lin(field).geometry, sigma)

    def test_sigma_whose_square_overflows_rejected(self):
        # the covariances square sigma; the largest sigma with a finite
        # square is still accepted
        geometry = estimate_lin(make_field(cube_nodes(4.0, 1.0), np.zeros((125, 3)))).geometry
        largest = math.sqrt(sys.float_info.max)
        system_covariance(geometry, largest)
        for sigma in (math.nextafter(largest, math.inf), 1.35e154, 1e300):
            with pytest.raises(InvalidArgument, match="square"):
                system_covariance(geometry, sigma)

    def test_collinear_nodes_degenerate(self):
        pos = np.outer(np.linspace(-5, 5, 9), [1.0, 0.0, 0.0])
        with pytest.raises(DegenerateGeometry):
            deflection_covariance(make_field(pos, np.zeros_like(pos)), 1e-5)

    def test_overflowing_positions_named_before_numpy_warns(self):
        pos = cube_nodes(2.0, 1.0) * 1e160
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DegenerateGeometry, match="overflow"):
                deflection_covariance(make_field(pos, np.zeros_like(pos)), 1e-5)

    def test_pipeline_covariances_match_reduced_fields(self):
        # the pipeline reuses each refit's geometry; the result must
        # equal a fresh covariance of the outlier-filtered field
        cases = beam_load_cases(BeamSpec(), MeshPattern.cubic(6.0, 1.0),
                                sigma=5.6e-5, seed=4)
        result = run_identification(cases)
        for case, cov, removed in zip(cases, result.covariances, result.removed):
            keep = np.setdiff1d(np.arange(case.field.n), removed)
            reduced = make_field(case.field.positions[keep],
                                 case.field.displacements[keep])
            fresh = deflection_covariance(reduced, result.noise.sigma)
            assert_allclose(cov, fresh, rtol=1e-12, atol=0)

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
        assert_allclose(emp, component_std(cov), rtol=0.25)
        # estimates are unbiased: mean error within 4 standard errors
        se = component_std(cov) / math.sqrt(150.0)
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

    @pytest.mark.parametrize("fraction", [-0.1, 1.0, 1.5, True, math.nan])
    def test_bad_fraction_rejected(self, fraction):
        pos = cube_nodes(2.0, 1.0)
        field = make_field(pos, np.zeros_like(pos))
        fit = estimate_lin(field)
        with pytest.raises(InvalidArgument):
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
    """Canonical wrenches and the deflections d = k w they produce."""
    wrenches = canonical_wrench_scheme(*magnitudes)
    deflections = []
    for wrench in wrenches:
        d = k @ wrench.as_vector()
        deflections.append(Deflection(d[:3], d[3:]))
    return wrenches, deflections


def block_covariance(translation_var, rotation_var):
    """A deflection covariance with isotropic translation and rotation blocks."""
    return np.diag([translation_var] * 3 + [rotation_var] * 3)


def uniform_covariances(translation_std, rotation_std, count=6):
    return [block_covariance(translation_std ** 2, rotation_std ** 2)] * count


class TestSignificanceTest:
    def test_structural_zeros_stay_zero_and_nonzeros_survive(self):
        k = beam_matrix()
        wrenches, deflections = canonical_experiments(k)
        matrix = assemble_canonical(wrenches, deflections)
        report, zeroed = significance_test(
            matrix, wrenches, uniform_covariances(1e-9, 1e-11))
        assert_array_equal(zeroed.k, k)
        assert np.count_nonzero(zeroed.significance_mask) == 10

    def test_halfwidth_formula(self):
        k = beam_matrix()
        wrenches, deflections = canonical_experiments(k)
        matrix = assemble_canonical(wrenches, deflections)
        t_std, r_std, mult = 1e-8, 1e-10, 3.0
        report, _ = significance_test(matrix, wrenches,
                                      uniform_covariances(t_std, r_std), mult)
        # row 1 responds in translation; column 1 was loaded with 1000 N
        assert_allclose(report.halfwidth[0, 0], mult * t_std / 1000.0,
                        rtol=1e-12)
        # row 4 responds in rotation; column 2 was loaded with 1 N
        assert_allclose(report.halfwidth[3, 1], mult * r_std / 1.0,
                        rtol=1e-12)
        assert_allclose(report.safety[0, 0], 5.0e-5 / (mult * t_std / 1000.0),
                        rtol=1e-12)

    def test_small_element_is_zeroed(self):
        k = beam_matrix()
        k[0, 1] = 1e-12  # below any reasonable confidence halfwidth
        wrenches, deflections = canonical_experiments(k)
        matrix = assemble_canonical(wrenches, deflections)
        _, zeroed = significance_test(matrix, wrenches,
                                      uniform_covariances(1e-8, 1e-10))
        assert zeroed.k[0, 1] == 0.0
        assert not zeroed.significance_mask[0, 1]
        assert zeroed.k[0, 0] == 5.0e-5

    def test_wide_intervals_zero_everything(self):
        k = beam_matrix()
        wrenches, deflections = canonical_experiments(k)
        matrix = assemble_canonical(wrenches, deflections)
        report, zeroed = significance_test(matrix, wrenches,
                                           uniform_covariances(1.0, 1.0))
        assert np.all(zeroed.k == 0.0)
        assert not report.significant.any()
        assert np.isnan(report.safety).all()
        assert all(e["safety_factor"] is None for e in report.to_json_dict()["elements"])

    def test_zero_covariance_gives_infinite_safety(self):
        k = beam_matrix()
        wrenches, deflections = canonical_experiments(k)
        matrix = assemble_canonical(wrenches, deflections)
        report, _ = significance_test(matrix, wrenches,
                                      uniform_covariances(0.0, 0.0))
        assert report.safety[0, 0] == math.inf
        data = report.to_json_dict()
        first = [e for e in data["elements"] if e["row"] == 1 and e["col"] == 1]
        assert first[0]["safety_factor"] is None  # inf is not JSON-portable

    def test_json_dict_holds_python_scalars(self):
        k = beam_matrix()
        k[0, 1] = 1e-12  # one zeroed element, so the report holds None too
        wrenches, deflections = canonical_experiments(k)
        matrix = assemble_canonical(wrenches, deflections)
        report, _ = significance_test(matrix, wrenches,
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
        wrenches, deflections = canonical_experiments(k)
        matrix = assemble_canonical(wrenches, deflections)
        report, _ = significance_test(matrix, wrenches,
                                      uniform_covariances(1e-9, 1e-11),
                                      DEFAULT_CONFIDENCE_MULTIPLIER)
        assert_allclose(report.confidence_level, 0.99730, atol=1e-5)
        report2, _ = significance_test(matrix, wrenches,
                                       uniform_covariances(1e-9, 1e-11), 2.0)
        assert_allclose(report2.confidence_level, 0.95450, atol=1e-5)

    def test_report_covers_all_elements(self):
        k = beam_matrix()
        wrenches, deflections = canonical_experiments(k)
        matrix = assemble_canonical(wrenches, deflections)
        report, _ = significance_test(matrix, wrenches,
                                      uniform_covariances(1e-9, 1e-11))
        for name in ("estimate", "halfwidth", "significant", "safety"):
            assert getattr(report, name).shape == (6, 6)
        elements = report.to_json_dict()["elements"]
        assert len(elements) == 36
        rows = {(e["row"], e["col"]) for e in elements}
        assert rows == {(i, j) for i in range(1, 7) for j in range(1, 7)}

    def test_covariance_count_enforced(self):
        k = beam_matrix()
        wrenches, deflections = canonical_experiments(k)
        matrix = assemble_canonical(wrenches, deflections)
        with pytest.raises(MissingCovariance):
            significance_test(matrix, wrenches,
                              uniform_covariances(1e-9, 1e-11, count=5))

    def test_any_admissible_wrench_set(self):
        # A combined wrench in place of Fx: the halfwidths are those of
        # least squares, mult * sqrt(sum_j A_jl^2 Var(d_j[i])), A = W^+.
        k = beam_matrix()
        wrenches, _ = canonical_experiments(k)
        wrenches[0] = Wrench([1000.0, 1.0, 0.0], [0.0, 0.0, 0.0])
        covariances = [block_covariance((j + 1) * 1e-16, (j + 1) * 1e-20)
                       for j in range(6)]
        report, _ = significance_test(ComplianceMatrix(k), wrenches, covariances, 3.0)
        A = np.linalg.pinv(np.column_stack([w.as_vector() for w in wrenches]))
        variances = np.column_stack([np.diagonal(c) for c in covariances])
        expected = 3.0 * np.sqrt(variances @ A ** 2)
        got = report.halfwidth
        assert_allclose(got, expected, rtol=1e-12)
        # column Fx is (d_0 - d_1) / 1000, so it carries the variance of
        # both experiments; column Fy is d_1 alone
        assert_allclose(got[0, 0], 3.0 * np.sqrt(1e-16 + 2e-16) / 1000.0, rtol=1e-12)
        assert_allclose(got[0, 1], 3.0 * np.sqrt(2e-16), rtol=1e-12)
        with pytest.raises(RankDeficientWrenches):
            significance_test(ComplianceMatrix(k), wrenches[:1] + wrenches[2:],
                              covariances[:5])
        # twice the combined wrench in place of Fy: no wrench loads Fy alone
        wrenches[1] = Wrench([2000.0, 2.0, 0.0], [0.0, 0.0, 0.0])
        with pytest.raises(RankDeficientWrenches, match="span"):
            significance_test(ComplianceMatrix(k), wrenches, covariances)

    @pytest.mark.parametrize("multiplier", [math.nan, math.inf, -1.0, True])
    def test_multiplier_positive_and_finite(self, multiplier):
        cases = beam_load_cases(sigma=5.6e-5, seed=1)
        result = run_identification(cases, IdentifyOptions(symmetrize=False))
        with pytest.raises(InvalidArgument):
            significance_test(result.assembled, [case.wrench for case in cases],
                              result.covariances, multiplier)

    def test_positive_multiplier_enforced(self):
        k = beam_matrix()
        wrenches, deflections = canonical_experiments(k)
        matrix = assemble_canonical(wrenches, deflections)
        with pytest.raises(ValueError):
            significance_test(matrix, wrenches,
                              uniform_covariances(1e-9, 1e-11), 0.0)
