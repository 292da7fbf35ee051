"""Rigid-transform estimators, rotation helpers and angle extraction."""

import math
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

from stiffid import (
    AngleExtractionMethod,
    Deflection,
    DegenerateGeometry,
    DisplacementField,
    EntryOutOfRange,
    FitResult,
    LinearizationWarning,
    differential_rotation,
    estimate_lin,
    estimate_svd,
    extract_angles,
    moment_matrix,
    rotation_xyz,
    skew,
)
from stiffid.estimation import ROTATION_WARN_LIMIT, _planes, check_rotation


def cube_nodes(edge, step):
    off = np.arange(-edge / 2, edge / 2 + step / 2, step)
    x, y, z = np.meshgrid(off, off, off, indexing="ij")
    return np.column_stack([x.ravel(), y.ravel(), z.ravel()])


def square_nodes(edge, step):
    off = np.arange(-edge / 2, edge / 2 + step / 2, step)
    u, v = np.meshgrid(off, off, indexing="ij")
    pos = np.zeros((u.size, 3))
    pos[:, 1] = u.ravel()
    pos[:, 2] = v.ravel()
    return pos


def make_field(positions, displacements):
    return DisplacementField(positions, displacements, centered=True)


def first_order_field(positions, translation, rotation):
    disp = np.cross(rotation, positions) + np.asarray(translation, dtype=float)
    return make_field(positions, disp)


class TestRotationHelpers:
    def test_skew_reproduces_cross_product(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            a, b = rng.normal(size=3), rng.normal(size=3)
            assert_allclose(skew(a) @ b, np.cross(a, b), atol=1e-15)

    def test_rotation_xyz_is_proper_rotation(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            R = rotation_xyz(rng.uniform(-0.5, 0.5, 3))
            assert_allclose(R.T @ R, np.eye(3), atol=1e-14)
            assert_allclose(np.linalg.det(R), 1.0, atol=1e-14)

    def test_rotation_xyz_axis_order(self):
        # the three factors apply in x, y, z order
        ax, ay, az = 0.3, -0.2, 0.5

        def rx(a):
            c, s = math.cos(a), math.sin(a)
            return np.array([[1, 0, 0], [0, c, -s], [0, s, c]])

        def ry(a):
            c, s = math.cos(a), math.sin(a)
            return np.array([[c, 0, s], [0, 1, 0], [-s, 0, c]])

        def rz(a):
            c, s = math.cos(a), math.sin(a)
            return np.array([[c, -s, 0], [s, c, 0], [0, 0, 1]])

        assert_allclose(rotation_xyz([ax, ay, az]), rx(ax) @ ry(ay) @ rz(az),
                        atol=1e-15)

    def test_differential_rotation(self):
        v = np.array([1e-3, -2e-3, 3e-3])
        assert_allclose(differential_rotation(v), np.eye(3) + skew(v), atol=0)

    def test_check_rotation_rejects_reflection(self):
        with pytest.raises(ValueError):
            check_rotation(np.diag([1.0, 1.0, -1.0]))

    def test_check_rotation_rejects_scaled_matrix(self):
        with pytest.raises(ValueError):
            check_rotation(1.001 * np.eye(3))


class TestMomentMatrix:
    def test_matches_direct_summation(self):
        rng = np.random.default_rng(2)
        pos = rng.uniform(-3.0, 3.0, (25, 3))
        expected = np.zeros((3, 3))
        for p in pos:
            expected += np.dot(p, p) * np.eye(3) - np.outer(p, p)
        assert_allclose(moment_matrix(pos), expected, rtol=1e-13)

    def test_cubic_grid_value(self):
        # 11 unit-step coordinates per axis: sum of squares 110 over
        # 121 grid lines, and each diagonal entry collects two axes
        m = moment_matrix(cube_nodes(10.0, 1.0))
        per_axis = 121 * np.sum(np.arange(-5.0, 6.0) ** 2)
        assert_allclose(np.diag(m), 2.0 * per_axis)
        assert_allclose(m, np.diag([26620.0, 26620.0, 26620.0]), atol=1e-9)

    def test_square_grid_value(self):
        m = moment_matrix(square_nodes(10.0, 1.0))
        assert_allclose(m, np.diag([2420.0, 1210.0, 1210.0]), atol=1e-9)


class TestPlanes:
    @pytest.mark.parametrize("shape", [(7, 3), (4, 7, 3)], ids=["shared", "batch"])
    def test_rows_become_planes_with_the_same_bits(self, shape):
        rows = np.random.default_rng(5).normal(size=shape)
        rows[0, 0] = -0.0
        planes = _planes(rows)
        assert planes.shape == rows.shape
        assert planes.swapaxes(-1, -2).flags.c_contiguous
        assert not np.shares_memory(planes, rows)
        assert planes.tobytes() == rows.tobytes()  # C-order values

    def test_planes_are_not_copied(self):
        planes = _planes(np.random.default_rng(6).normal(size=(4, 7, 3)))
        again = _planes(planes)
        assert np.shares_memory(again, planes)
        assert again.strides == planes.strides
        assert np.shares_memory(_planes(planes[1]), planes)


class TestAngleExtraction:
    def test_identity_gives_zero(self):
        assert_allclose(extract_angles(np.eye(3)), np.zeros(3), atol=0)

    @pytest.mark.parametrize("axis", [0, 1, 2])
    def test_single_axis_small_angle(self, axis):
        angles = np.zeros(3)
        angles[axis] = 1e-3
        R = rotation_xyz(angles)
        assert_allclose(extract_angles(R), angles, rtol=0, atol=1e-9)
        got = extract_angles(R, AngleExtractionMethod.AVERAGED_ASIN)
        assert_allclose(got, angles, rtol=0, atol=1e-12)

    def test_averaged_is_mean_of_entry_variants(self):
        R = rotation_xyz([2e-3, -1e-3, 3e-3])
        plus = extract_angles(R, AngleExtractionMethod.PLUS_ENTRIES)
        minus = extract_angles(R, AngleExtractionMethod.MINUS_ENTRIES)
        avg = extract_angles(R, AngleExtractionMethod.AVERAGED)
        assert_allclose(avg, (plus + minus) / 2.0, atol=1e-16)

    def test_averaging_halves_the_entry_error(self):
        b = np.deg2rad(1.0)
        angles = np.array([b, b, b])
        R = rotation_xyz(angles)
        err_plus = np.max(np.abs(extract_angles(R, AngleExtractionMethod.PLUS_ENTRIES) - angles))
        err_avg = np.max(np.abs(extract_angles(R, AngleExtractionMethod.AVERAGED) - angles))
        assert err_avg < err_plus
        assert 1.6 < err_plus / err_avg < 2.4

    def test_asin_variant_tracks_plain_variant(self):
        R = rotation_xyz([1e-3, 1e-3, 1e-3])
        plain = extract_angles(R, AngleExtractionMethod.AVERAGED)
        arcs = extract_angles(R, AngleExtractionMethod.AVERAGED_ASIN)
        assert_allclose(arcs, plain, atol=1e-9)

    def test_method_accepts_string_value(self):
        R = rotation_xyz([1e-4, 0.0, 0.0])
        assert_allclose(extract_angles(R, "plus"),
                        extract_angles(R, AngleExtractionMethod.PLUS_ENTRIES))

    def test_corrupt_entry_raises_for_asin(self):
        R = np.eye(3)
        R[2, 1] = 1.0 + 1e-6
        with pytest.raises(EntryOutOfRange):
            extract_angles(R, AngleExtractionMethod.PLUS_ASIN)

    def test_corrupt_matrix_raises_for_plain(self):
        R = np.eye(3)
        R[2, 1] = 1.0 + 1e-6
        with pytest.raises(ValueError):
            extract_angles(R, AngleExtractionMethod.PLUS_ENTRIES)

    def test_non_orthogonal_rejected(self):
        with pytest.raises(ValueError):
            extract_angles(np.eye(3) * 1.01)

    def test_wrong_shape_rejected(self):
        with pytest.raises(ValueError):
            extract_angles(np.eye(4))


class TestDeflection:
    def test_vector_roundtrip(self):
        d = Deflection([1.0, 2.0, 3.0], [1e-4, -2e-4, 3e-4])
        back = Deflection.from_vector(d.as_vector())
        assert_allclose(back.translation, d.translation, atol=0)
        assert_allclose(back.rotation, d.rotation, atol=0)

    def test_large_rotation_warns(self):
        with pytest.warns(LinearizationWarning):
            Deflection(np.zeros(3), [ROTATION_WARN_LIMIT, 0.0, 0.0])

    def test_small_rotation_is_silent(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            Deflection(np.zeros(3), [0.9 * ROTATION_WARN_LIMIT, 0.0, 0.0])

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            Deflection([np.inf, 0.0, 0.0], np.zeros(3))


class TestFitResult:
    def test_objective_matches_residuals(self):
        rng = np.random.default_rng(3)
        pos = cube_nodes(4.0, 1.0)
        disp = np.cross([1e-4, 2e-4, -1e-4], pos) + rng.normal(0, 1e-5, pos.shape)
        fit = estimate_lin(make_field(pos, disp))
        assert_allclose(fit.objective, np.sum(fit.residuals ** 2), rtol=1e-12)
        assert fit.n == pos.shape[0]

    def test_residual_shape_enforced(self):
        with pytest.raises(ValueError):
            FitResult(Deflection(np.zeros(3), np.zeros(3)), np.zeros((4, 2)), 0.0)


class TestLinEstimator:
    def test_exact_on_first_order_fields(self):
        # arbitrary (including far off-center) clouds are recovered exactly
        rng = np.random.default_rng(4)
        for _ in range(20):
            pos = rng.uniform(-8.0, 8.0, (40, 3)) + rng.uniform(-5.0, 5.0, 3)
            rotation = rng.uniform(-1.0, 1.0, 3) * 1e-3
            translation = rng.uniform(-0.5, 0.5, 3)
            fit = estimate_lin(first_order_field(pos, translation, rotation))
            assert_allclose(fit.deflection.rotation, rotation, atol=1e-12)
            assert_allclose(fit.deflection.translation, translation, atol=1e-12)
            assert fit.objective <= 1e-18

    def test_reference_point_transport(self):
        # pure rotation about the origin: nodes far from the reference
        # point move a lot, yet the reference-point translation is zero
        pos = cube_nodes(10.0, 1.0) + np.array([100.0, 0.0, 0.0])
        rotation = np.array([0.0, 0.0, 1e-3])
        fit = estimate_lin(first_order_field(pos, np.zeros(3), rotation))
        assert_allclose(fit.deflection.translation, np.zeros(3), atol=1e-12)
        assert_allclose(fit.deflection.rotation, rotation, atol=1e-15)

    def test_residual_balance_conditions(self):
        # least-squares residuals are orthogonal to the regressors:
        # zero mean and zero net moment about the centroid
        rng = np.random.default_rng(5)
        pos = cube_nodes(6.0, 1.0)
        disp = np.cross([1e-4, 0, 2e-4], pos) + rng.normal(0, 1e-4, pos.shape)
        fit = estimate_lin(make_field(pos, disp))
        assert_allclose(fit.residuals.sum(axis=0), np.zeros(3), atol=1e-12)
        moments = np.cross(pos - pos.mean(axis=0), fit.residuals).sum(axis=0)
        assert_allclose(moments, np.zeros(3), atol=1e-12)

    def test_objective_is_a_minimum(self):
        rng = np.random.default_rng(6)
        pos = rng.uniform(-5.0, 5.0, (60, 3))
        disp = np.cross([2e-4, -1e-4, 1e-4], pos) + rng.normal(0, 1e-4, pos.shape)
        field = make_field(pos, disp)
        fit = estimate_lin(field)
        v0 = fit.deflection.as_vector()

        def objective(v):
            r = disp - np.cross(v[3:], pos) - v[:3]
            return np.sum(r * r)

        assert_allclose(objective(v0), fit.objective, rtol=1e-10)
        for i in range(6):
            for s in (-1.0, 1.0):
                v = v0.copy()
                v[i] += s * 1e-6
                assert objective(v) > fit.objective

    def test_collinear_nodes_degenerate(self):
        pos = np.outer(np.linspace(-5, 5, 11), [1.0, 1.0, 1.0])
        with pytest.raises(DegenerateGeometry):
            estimate_lin(make_field(pos, np.zeros_like(pos)))

    def test_coincident_nodes_degenerate(self):
        pos = np.zeros((5, 3))
        with pytest.raises(DegenerateGeometry):
            estimate_lin(make_field(pos, np.zeros_like(pos)))

    def test_too_few_nodes(self):
        pos = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
        with pytest.raises(DegenerateGeometry):
            estimate_lin(make_field(pos, np.zeros_like(pos)))

    def test_requires_centered_field(self):
        pos = cube_nodes(2.0, 1.0)
        f = DisplacementField(pos, np.zeros_like(pos), centered=False)
        with pytest.raises(ValueError):
            estimate_lin(f)

    def test_constant_displacement_offset_shifts_translation_only(self):
        rng = np.random.default_rng(7)
        pos = rng.uniform(-5.0, 5.0, (50, 3))
        disp = np.cross([1e-4, 2e-4, 3e-4], pos) + rng.normal(0, 1e-5, pos.shape)
        offset = np.array([0.3, -0.2, 0.1])
        fit0 = estimate_lin(make_field(pos, disp))
        fit1 = estimate_lin(make_field(pos, disp + offset))
        assert_allclose(fit1.deflection.translation,
                        fit0.deflection.translation + offset, atol=1e-12)
        assert_allclose(fit1.deflection.rotation, fit0.deflection.rotation,
                        atol=1e-15)

    def test_sensor_off_the_reference_point_matches_cross_product_formula(self):
        # a 10 mm cube sensor 50 mm from the reference point: the normal
        # system route agrees with the plain cross-product solve
        def cross_product_fit(pos, disp):
            c = pos.mean(axis=0)
            rel = pos - c
            rotation = np.linalg.solve(moment_matrix(rel),
                                       np.cross(rel, disp).sum(axis=0))
            q = disp.mean(axis=0)
            return np.concatenate([q - np.cross(rotation, c), rotation])

        pos = cube_nodes(10.0, 1.0) + np.array([0.0, 50.0, 0.0])
        for seed in range(5):
            rng = np.random.default_rng(seed)
            truth = np.concatenate([rng.normal(0, 1e-2, 3), rng.normal(0, 1e-3, 3)])
            disp = (np.cross(truth[3:], pos) + truth[:3]
                    + rng.normal(0.0, 5.6e-5, pos.shape))
            fit = estimate_lin(make_field(pos, disp))
            assert_allclose(fit.deflection.as_vector(),
                            cross_product_fit(pos, disp), rtol=0, atol=1e-15)


class TestSvdEstimator:
    def test_exact_on_rigid_rotation_fields(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            pos = rng.uniform(-8.0, 8.0, (40, 3)) + rng.uniform(-3.0, 3.0, 3)
            angles = rng.uniform(-1.0, 1.0, 3) * 1.7e-3
            translation = rng.uniform(-0.5, 0.5, 3)
            R = rotation_xyz(angles)
            disp = pos @ (R - np.eye(3)).T + translation
            fit = estimate_svd(make_field(pos, disp))
            assert fit.objective <= 1e-18
            assert_allclose(fit.deflection.translation, translation, atol=1e-12)
            # entry extraction carries a second-order angle error at most
            assert np.max(np.abs(fit.deflection.rotation - angles)) < 5e-6

    def test_translation_only_field(self):
        pos = cube_nodes(10.0, 1.0)
        t = np.array([0.25, -0.5, 1.0])
        fit = estimate_svd(make_field(pos, np.tile(t, (pos.shape[0], 1))))
        assert_allclose(fit.deflection.translation, t, atol=1e-13)
        assert_allclose(fit.deflection.rotation, np.zeros(3), atol=1e-13)

    def test_agrees_with_lin_on_cubic_patterns(self):
        # isotropic patterns make the two estimators match to roundoff
        rng = np.random.default_rng(9)
        for _ in range(50):
            pos = cube_nodes(10.0, 2.0)
            angles = rng.uniform(-1.0, 1.0, 3) * np.deg2rad(0.1)
            translation = rng.uniform(-1.0, 1.0, 3)
            R = rotation_xyz(angles)
            disp = pos @ (R - np.eye(3)).T + translation
            field = make_field(pos, disp)
            a = estimate_lin(field).deflection
            b = estimate_svd(field, AngleExtractionMethod.AVERAGED).deflection
            assert np.max(np.abs(a.translation - b.translation)) <= 1e-9
            assert np.max(np.abs(a.rotation - b.rotation)) <= 1e-9

    def test_extraction_method_changes_only_angles(self):
        pos = cube_nodes(10.0, 1.0)
        R = rotation_xyz(np.deg2rad([1.0, 1.0, 1.0]))
        disp = pos @ (R - np.eye(3)).T
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", LinearizationWarning)
            fits = {m: estimate_svd(make_field(pos, disp), m)
                    for m in AngleExtractionMethod}
        translations = [f.deflection.translation for f in fits.values()]
        for t in translations[1:]:
            assert_allclose(t, translations[0], atol=0)
        rot_plus = fits[AngleExtractionMethod.PLUS_ENTRIES].deflection.rotation
        rot_minus = fits[AngleExtractionMethod.MINUS_ENTRIES].deflection.rotation
        assert np.max(np.abs(rot_plus - rot_minus)) > 1e-6

    def test_objective_is_a_minimum_over_rigid_motions(self):
        rng = np.random.default_rng(10)
        pos = rng.uniform(-5.0, 5.0, (60, 3))
        R = rotation_xyz([1e-3, -2e-3, 1.5e-3])
        disp = pos @ (R - np.eye(3)).T + rng.normal(0, 1e-4, pos.shape)
        field = make_field(pos, disp)
        fit = estimate_svd(field)
        moved = pos + disp

        def objective(rot, t):
            r = moved - pos @ rot.T - t
            return np.sum(r * r)

        # recover the fitted rotation matrix from the residual identity
        # moved = pos @ R^T + t + residuals
        t_fit = fit.deflection.translation
        base = fit.objective
        for i in range(3):
            step = np.zeros(3)
            step[i] = 1e-5
            assert objective(R @ rotation_xyz(step), t_fit) >= base
            perturbed_t = t_fit + step * 10.0
            assert objective(R, perturbed_t) > base

    def test_collinear_nodes_degenerate(self):
        pos = np.outer(np.linspace(-5, 5, 11), [1.0, 0.0, 0.0])
        disp = np.tile([0.1, 0.0, 0.0], (11, 1))
        with pytest.raises(DegenerateGeometry):
            estimate_svd(make_field(pos, disp))

    def test_requires_centered_field(self):
        pos = cube_nodes(2.0, 1.0)
        f = DisplacementField(pos, np.zeros_like(pos), centered=False)
        with pytest.raises(ValueError):
            estimate_svd(f)

