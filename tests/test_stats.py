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
    LoadCase,
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
    skew,
)
from stiffid.estimation import _fit_geometry, _node_score
from stiffid.stats import (
    _CHI2_3_MEDIAN,
    DEFAULT_CONFIDENCE_MULTIPLIER,
    _cut_level,
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
        # the cube is centred on its reference point: no lever arm, so no
        # translation-rotation cross-covariance
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
        # only to roundoff and whose centroid c is off the reference
        # point: the covariance is the symmetric part of the block matrix
        # [[sigma^2/n I + L C L^T, L C], [C L^T, C]], with C = sigma^2 M^-1
        # and L = [c]x, formed once, bit for bit.
        pos = np.random.default_rng(12).normal(size=(40, 3))
        geometry = _fit_geometry(pos)[0]
        cov = system_covariance(geometry, 1e-3)
        rotation = 1e-3 ** 2 * geometry.inverse
        lever = skew(geometry.centroid)
        block = np.zeros((6, 6))
        block[:3, :3] = 1e-3 ** 2 / 40 * np.eye(3) + lever @ rotation @ lever.T
        block[:3, 3:] = lever @ rotation
        block[3:, :3] = (lever @ rotation).T
        block[3:, 3:] = rotation
        assert np.all(geometry.centroid != 0.0)
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
        # equal a fresh covariance of the outlier-filtered field.  Three
        # nodes of each experiment sit 100 sigma off, and the cut drops
        # them.
        cases = []
        for case in beam_load_cases(BeamSpec(), MeshPattern.cubic(6.0, 1.0),
                                    sigma=5.6e-5, seed=4):
            disp = case.field.displacements.copy()
            disp[[5, 60, 100]] += [0.0, 5.6e-3, 0.0]
            cases.append(LoadCase(make_field(case.field.positions, disp), case.wrench))
        result = run_identification(cases)
        assert result.removed == ((5, 60, 100),) * 6
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


def crafted_fit(residuals):
    """A fit with zero deflection and the given residuals (n, 3), whose
    roundoff floor is 0."""
    return FitResult(Deflection(np.zeros(3), np.zeros(3)), residuals, 0.0)


class TestFilterOutliers:
    def test_zero_fraction_is_identity(self):
        # Level 0 turns the cut off, even for a node far outside the noise.
        pos = cube_nodes(4.0, 1.0)
        disp = np.random.default_rng(34).normal(0, 1e-5, pos.shape)
        disp[7] += 1e-2
        field = make_field(pos, disp)
        fit = estimate_lin(field)
        reduced, removed = filter_outliers(field, fit, 0.0)
        assert reduced.n == field.n
        assert removed.size == 0
        assert filter_outliers(field, fit)[1].tolist() == [7]

    def test_spiked_nodes_are_the_ones_removed(self):
        pos = cube_nodes(4.0, 1.0)  # 125 nodes
        rng = np.random.default_rng(32)
        disp = np.cross([1e-4, 0.0, -1e-4], pos) + rng.normal(0, 1e-5, pos.shape)
        spiked = [3, 50, 124]
        disp[spiked] += [5e-3, -5e-3, 5e-3]
        field = make_field(pos, disp)
        fit = estimate_lin(field)
        reduced, removed = filter_outliers(field, fit)
        assert sorted(removed.tolist()) == spiked
        assert reduced.n == 122

    def test_survivor_order_preserved(self):
        rng = np.random.default_rng(33)
        pos = rng.uniform(-5, 5, (40, 3))
        disp = rng.normal(0, 1e-4, (40, 3))
        disp[[4, 17, 30]] += 1e-1
        field = make_field(pos, disp)
        fit = estimate_lin(field)
        reduced, removed = filter_outliers(field, fit)
        assert removed.tolist() == [4, 17, 30]
        keep = np.setdiff1d(np.arange(40), removed)
        assert_array_equal(reduced.positions, pos[keep])
        assert_array_equal(reduced.displacements, disp[keep])

    def test_rankings_disagree_on_crafted_residuals(self):
        # the residual norm ranks, not the largest per-axis residual: with
        # six residuals of norm^2 0.27 as the scale, the cut at level 0.01
        # over 8 nodes lies at |r|^2 = 1.78
        pos = cube_nodes(2.0, 1.0)[:8]
        field = make_field(pos, np.zeros_like(pos))
        residuals = np.full((8, 3), 0.3)
        residuals[2] = [1.0, 0.0, 0.0]    # max-axis 1.0, norm^2 1.0
        residuals[5] = [0.9, 0.9, 0.9]    # max-axis 0.9, norm^2 2.43
        _, removed = filter_outliers(field, crafted_fit(residuals))
        assert removed.tolist() == [5]

    def test_tie_breaking_is_deterministic(self):
        # No tie is broken: the threshold is strict, so nodes of equal
        # score stay or go together, whatever their order.
        pos = cube_nodes(2.0, 1.0)[:6]
        field = make_field(pos, np.zeros_like(pos))
        _, removed = filter_outliers(field, crafted_fit(np.ones((6, 3))))
        assert removed.tolist() == []
        residuals = np.full((6, 3), 0.01)
        residuals[[1, 4]] = 1.0
        _, removed_a = filter_outliers(field, crafted_fit(residuals))
        _, removed_b = filter_outliers(field, crafted_fit(residuals[::-1]))
        assert removed_a.tolist() == [1, 4]
        assert removed_b.tolist() == [1, 4]

    @pytest.mark.parametrize("seed", range(10))
    def test_partial_ties_match_stable_sort(self, seed):
        # 3 scores tie at 8.0, 7 at 6.0 and the other 50 lie about 1.0.
        # Under the strict cut no tie is split: the removed set is the
        # tail of a stable ascending argsort, cut between two groups.  At
        # level 0.05 the cut lies near 7.1, so the 3 go; at level 0.5,
        # near 5.0, so all 10 go.
        rng = np.random.default_rng(seed)
        score = rng.permutation(np.concatenate(
            [[8.0] * 3, [6.0] * 7, rng.uniform(0.95, 1.05, 50)]))
        residuals = np.zeros((60, 3))
        residuals[:, 0] = np.sqrt(score)
        residuals = residuals[:, rng.permutation(3)] * rng.choice([-1.0, 1.0], (60, 3))
        pos = rng.uniform(-5.0, 5.0, (60, 3))
        field = make_field(pos, np.zeros_like(pos))
        for level, count in ((0.05, 3), (0.5, 10)):
            _, removed = filter_outliers(field, crafted_fit(residuals), level)
            expected = np.sort(np.argsort(score, kind="stable")[60 - count:])
            assert_array_equal(removed, expected)

    def test_batch_rows_with_different_tie_counts(self):
        # Row r of a batch has r + 1 equal top scores far above its other
        # 59 - r; in the last row every score ties.  The batch must drop
        # each row's own ties, as filter_outliers does row by row, and
        # nothing from the last row.
        rng = np.random.default_rng(41)
        pos = rng.uniform(-5.0, 5.0, (60, 3))
        field = make_field(pos, np.zeros_like(pos))
        batch = []
        for r in range(6):
            residuals = rng.normal(0.0, 1.0, (60, 3))
            residuals[rng.permutation(60)[:r + 1]] = [0.0, 10.0 + r, 0.0]
            batch.append(residuals)
        batch.append(np.full((60, 3), 2.0))
        batch = np.array(batch)
        drop = _drop_mask(_node_score(batch), _cut_level(0.01, 60), np.zeros(len(batch)))
        for r, (row, residuals) in enumerate(zip(drop, batch)):
            _, removed = filter_outliers(field, crafted_fit(residuals))
            assert_array_equal(np.flatnonzero(row), removed)
            assert np.count_nonzero(row) == (r + 1 if r < 6 else 0)
            assert np.all(residuals[row, 1] >= 10.0)

    def test_rows_that_skip_the_median_equal_the_full_partition(self):
        # Every row has the same 60 scores below its largest.  The largest
        # sits 1 ulp below, at and 1 ulp above the row's threshold
        # cut * s0^2, and 1e-13 and 4e-12 of it below (the first is
        # within the 1e-12 widening of the exit bound, the second is
        # not); one more row is all zero, as noise-free residuals can be.
        # Only the first four rows may be partitioned, and the mask must
        # be that of a partition of every row.
        n, kth = 61, 30
        cut = _cut_level(0.01, n)
        base = np.random.default_rng(3).uniform(1.0, 2.0, n - 1)
        threshold = cut * (np.sort(base)[kth] / _CHI2_3_MEDIAN)
        tops = [np.nextafter(threshold, 0.0), threshold, np.nextafter(threshold, np.inf),
                threshold * (1.0 - 1e-13), threshold * (1.0 - 4e-12)]
        score = np.array([np.append(base, top) for top in tops] + [np.zeros(n)])
        floor = np.zeros(len(score))

        class PartitionSpy(np.ndarray):
            rows = []

            def partition(self, *args, **kwargs):
                PartitionSpy.rows.append(len(self))
                return super().partition(*args, **kwargs)

        drop = _drop_mask(score.view(PartitionSpy), cut, floor)
        assert PartitionSpy.rows == [4]
        scale = np.partition(score, kth, axis=-1)[:, kth] / _CHI2_3_MEDIAN
        full = score > np.where(scale > floor, cut * scale, np.inf)[:, None]
        assert_array_equal(np.asarray(drop), full)
        assert np.flatnonzero(full).tolist() == [2 * n + n - 1]
        # Rows that all skip the median drop nothing, and partition nothing.
        PartitionSpy.rows.clear()
        assert _drop_mask(score[4:].view(PartitionSpy), cut, floor[4:]) is None
        assert PartitionSpy.rows == []

    def test_subnormal_scores_are_partitioned(self):
        # In units of the smallest subnormal u, the exit bound of this row
        # rounds to 3u, which no score lies below; but its median 3u over
        # 2.3660 rounds to 1u, whose threshold rounds to 15u < 16u, so the
        # last node goes.  A bound that is not a normal double proves
        # nothing, and the row is partitioned.
        u = np.nextafter(0.0, 1.0)
        score = np.array([[3.0, 3.0, 3.0, 3.0, 16.0]]) * u
        drop = _drop_mask(score, _cut_level(0.01, 5), np.zeros(1))
        assert drop is not None and drop.tolist() == [[False] * 4 + [True]]

    def test_too_few_survivors_rejected(self):
        # The cut keeps every node up to the median score, so only 3
        # nodes can fall short; at level 0.9 the cut lies 1.55 times
        # above the median.
        pos = cube_nodes(2.0, 1.0)[[0, 2, 6]]
        field = make_field(pos, np.zeros_like(pos))
        fit = crafted_fit(np.array([[0.1, 0.0, 0.0], [0.1, 0.0, 0.0], [0.2, 0.0, 0.0]]))
        assert filter_outliers(field, fit)[1].size == 0
        with pytest.raises(TooFewRemaining):
            filter_outliers(field, fit, 0.9)

    @pytest.mark.parametrize("fraction", [-0.1, 1.0, 1.5, True, math.nan])
    def test_bad_fraction_rejected(self, fraction):
        # The level is a probability in [0, 1).
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

    def test_roundoff_residuals_drop_nothing(self):
        # A noise-free square fits to roundoff, with most residuals
        # exactly 0: its median scale is 0, so a bare cut would drop
        # every node with a nonzero residual.  Under the roundoff floor
        # none goes.
        cases = beam_load_cases(BeamSpec(), MeshPattern.square(10.0, 1.0, "x"), sigma=0.0)
        nonzero = 0
        for case in cases:
            fit = estimate_lin(case.field)
            score = (fit.residuals ** 2).sum(axis=1)
            assert np.median(score) == 0.0
            nonzero += np.count_nonzero(score)
            assert filter_outliers(case.field, fit)[1].size == 0
        assert nonzero > 0
        assert run_identification(cases).nodes == (121,) * 6


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
