"""Rigid-transform estimators, rotation helpers and angle extraction."""

import math
import tracemalloc
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from stiffid import (
    ANGLE_READINGS,
    Deflection,
    DegenerateGeometry,
    DisplacementField,
    EntryOutOfRange,
    FitResult,
    InvalidArgument,
    LinearizationWarning,
    NonFiniteDeflection,
    differential_rotation,
    estimate_lin,
    estimate_svd,
    extract_angles,
    moment_matrix,
    rotation_xyz,
    skew,
)
import stiffid
from stiffid import estimation
from stiffid.estimation import (
    _GRAM_BLOCK,
    ROTATION_WARN_LIMIT,
    FitGeometry,
    _fit_geometry,
    _fit_lin,
    _fit_svd,
    _gram,
    _lin_fit_residuals,
    _node_score,
    _planes,
    check_rotation,
)


def svd_avg(geometry, rel, d):
    """The Procrustes fits of a batch, with the ``avg`` angle reading."""
    return _fit_svd(geometry, rel, d, ("avg",))["avg"]


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

    @pytest.mark.parametrize("shape", [(2,), (3, 2)], ids=["2", "3x2"])
    def test_skew_rejects_non_3_vectors(self, shape):
        with pytest.raises(ValueError, match="3-vectors"):
            skew(np.zeros(shape))

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

    @pytest.mark.parametrize("shape", [(2, 2), (4, 4), (3,), (3, 3, 2)],
                             ids=["2x2", "4x4", "3", "3x3x2"])
    def test_check_rotation_rejects_non_3x3(self, shape):
        with pytest.raises(ValueError, match="3x3"):
            check_rotation(np.zeros(shape))

    def test_check_rotation_rejects_scaled_matrix(self):
        with pytest.raises(ValueError):
            check_rotation(1.001 * np.eye(3))

    def test_check_rotation_checks_every_matrix_of_a_stack(self):
        stack = np.array([rotation_xyz([0.1, 0.2, 0.3])] * 4)
        check_rotation(stack)
        stack[2] = np.diag([1.0, 1.0, -1.0])
        with pytest.raises(ValueError, match="determinant"):
            check_rotation(stack)


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


def gram_operands(n, rows=None, seed=0):
    """Two (n, 3) or (rows, n, 3) views of planes, with signed zeros."""
    rng = np.random.default_rng(seed)
    shape = (n, 3) if rows is None else (rows, n, 3)
    a, b = rng.normal(size=shape), rng.normal(size=shape)
    a[..., 0, :] = -0.0
    b[..., 1, 0] = -0.0
    return _planes(a), _planes(b)


GRAM_SIZES = [3, _GRAM_BLOCK - 1, _GRAM_BLOCK, _GRAM_BLOCK + 1, 2 * _GRAM_BLOCK + 7]
GRAM_IDS = ["3", "B-1", "B", "B+1", "2B+7"]


class TestGram:
    @pytest.mark.parametrize("n", GRAM_SIZES[:3], ids=GRAM_IDS[:3])
    def test_one_block_is_the_single_product(self, n):
        a, b = gram_operands(n)
        expected = a.swapaxes(-1, -2) @ b
        assert_array_equal(_gram(a, b).view(np.int64), expected.view(np.int64))

    @pytest.mark.parametrize("n", GRAM_SIZES[3:], ids=GRAM_IDS[3:])
    def test_blocks_sum_to_the_exact_sum(self, n):
        a, b = gram_operands(n)
        # (a, a) is the moment matrix's scatter, formed from block copies
        for left, right in ((a, b), (a, a)):
            got = _gram(left, right)
            for i in range(3):
                for j in range(3):
                    terms = left[:, i] * right[:, j]
                    exact = math.fsum(terms.tolist())
                    scale = math.fsum(np.abs(terms).tolist())
                    # a few ulps of the summed magnitudes; losing or repeating
                    # even a one-node block is off by about 1e11 of them
                    assert abs(got[i, j] - exact) <= 4 * np.spacing(scale)

    @pytest.mark.parametrize("n", GRAM_SIZES, ids=GRAM_IDS)
    @pytest.mark.parametrize("operands", ["shared", "per-row", "same-array"])
    def test_batch_rows_equal_one_row_calls(self, n, operands):
        a, b = gram_operands(n, rows=3, seed=1)
        if operands == "shared":
            a = a[0]
        elif operands == "same-array":
            b = a
        got = _gram(a, b)
        assert got.shape == (3, 3, 3)
        for s in range(3):
            row = a if operands == "shared" else a[s]
            # one row object twice, as moment_matrix passes it
            one = _gram(row, row if operands == "same-array" else b[s])
            assert got[s].tobytes() == one.tobytes()

    @pytest.mark.parametrize("shape", [(2 * _GRAM_BLOCK + 7, 3), (22, 109, 3)],
                             ids=["2B+7", "batch-22x109"])
    def test_same_array_equals_distinct_copy(self, shape):
        # one buffer on both sides would make numpy call BLAS syrk, whose
        # bits differ from the gemm every other operand pair gets
        a, _ = gram_operands(shape[-2], rows=shape[0] if len(shape) == 3 else None,
                             seed=2)
        copy = a.copy(order="K")
        assert copy.strides == a.strides and not np.shares_memory(copy, a)
        assert_array_equal(_gram(a, a).view(np.int64), _gram(a, copy).view(np.int64))

    def test_moment_matrix_copies_one_block_at_a_time(self):
        a, _ = gram_operands(2 * _GRAM_BLOCK + 7)
        tracemalloc.start()
        try:
            moment_matrix(a)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < a.nbytes


class TestFitGeometry:
    def test_geometry_holds_no_per_node_array(self):
        assert FitGeometry._fields == ("n", "centroid", "moment", "inverse")
        geometry, rel = _fit_geometry(cube_nodes(4.0, 1.0))
        assert geometry.centroid.shape == (3,)
        assert geometry.moment.shape == geometry.inverse.shape == (3, 3)
        assert_allclose(geometry.moment @ geometry.inverse, np.eye(3), atol=1e-14)
        assert rel.shape == (125, 3)

    @pytest.mark.parametrize("fit", [_fit_lin, svd_avg], ids=["lin", "svd"])
    def test_fit_forms_one_node_sum(self, fit, monkeypatch):
        # the geometry already holds the moment matrix's inverse, so a fit
        # sums over the nodes once: the rotation right-hand side (lin) or
        # the Procrustes cross-covariance (svd)
        pos = cube_nodes(4.0, 1.0)
        geometry, rel = _fit_geometry(pos)
        disp = first_order_field(pos, [0.1, 0.2, 0.3], [1e-4, 2e-4, 3e-4]).displacements
        calls = []

        def counting_gram(a, b):
            calls.append(a.shape)
            return _gram(a, b)

        monkeypatch.setattr(estimation, "_gram", counting_gram)
        fit(geometry, rel, disp[None])
        assert len(calls) == 1


def batch_fields(shared):
    """Three noisy rotated fields of a 125-node cube, (3, n, 3), with
    shared positions (n, 3) or per-row ones (3, n, 3)."""
    rng = np.random.default_rng(21)
    pos = cube_nodes(4.0, 1.0)
    if not shared:
        pos = pos + rng.normal(0.0, 1e-3, (3,) + pos.shape)
    rotation = np.array([[1e-4, -2e-4, 3e-4], [2e-3, 0.0, -1e-3], [0.0, 5e-4, 0.0]])
    disp = np.cross(rotation[:, None, :], pos) + [0.1, -0.2, 0.3]
    return pos, disp + rng.normal(0.0, 1e-5, disp.shape)


class TestLinScoreBlocks:
    # The lin fit scores its nodes block by block and keeps no residual
    # array; its scores and residual sums of squares must have the bits
    # of the kernel's residuals over the whole field.  2B+1 would end in
    # a one-node block, which joins the one before it.
    @pytest.mark.parametrize("n", [_GRAM_BLOCK - 1, _GRAM_BLOCK, _GRAM_BLOCK + 1,
                                   2 * _GRAM_BLOCK + 1, 2 * _GRAM_BLOCK + 5],
                             ids=["B-1", "B", "B+1", "2B+1", "2B+5"])
    @pytest.mark.parametrize("rows", [1, 3])
    @pytest.mark.parametrize("shared", [True, False], ids=["shared", "per-row"])
    def test_scores_equal_those_of_the_whole_field_residuals(self, n, rows, shared):
        rng = np.random.default_rng(n + rows)
        pos = rng.uniform(-20.0, 20.0, (n, 3) if shared else (rows, n, 3))
        rotation = rng.normal(0.0, 1e-3, (rows, 3))
        disp = np.cross(rotation[:, None, :], pos) + rng.normal(0.0, 1e-5, (rows, n, 3))
        geometry, rel = _fit_geometry(pos)
        fits = _fit_lin(geometry, rel, disp)
        assert fits.residuals is None
        residuals = _lin_fit_residuals(fits, rel, disp)
        assert residuals.shape == (rows, n, 3)
        score = _node_score(residuals)
        assert fits.score.tobytes() == score.tobytes()
        assert fits.objective.tobytes() == score.sum(axis=-1).tobytes()
        # and the parent's formula, on one array over the whole field
        centred = disp - disp.mean(axis=-2, keepdims=True)
        reference = centred - np.cross(fits.rotation[:, None, :], rel)
        assert_allclose(residuals, reference, rtol=0, atol=1e-15)


class TestBatchedFits:
    @pytest.mark.parametrize("shared", [True, False], ids=["shared", "per-row"])
    def test_svd_batch_rows_equal_one_row_fits(self, shared):
        # The rows read their angles in one pass over the batch's rotation
        # matrices, through math.asin entry by entry.
        pos, disp = batch_fields(shared)
        method = "plus-asin"
        batch = _fit_svd(*_fit_geometry(pos), disp, (method,))[method]
        for s in range(3):
            one = _fit_svd(*_fit_geometry(pos if shared else pos[s:s + 1]), disp[s:s + 1],
                           (method,))[method]
            for name in ("translation", "rotation", "residuals", "score", "objective"):
                assert getattr(batch, name)[s].tobytes() == getattr(one, name)[0].tobytes()

    @pytest.mark.parametrize("shared", [True, False], ids=["shared", "per-row"])
    def test_svd_readings_of_one_decomposition_equal_one_reading_fits(self, shared,
                                                                       monkeypatch):
        # One decomposition serves every reading asked for; each reading's
        # fits equal those of a call that asks for it alone, bit for bit.
        pos, disp = batch_fields(shared)
        geometry, rel = _fit_geometry(pos)
        svd = np.linalg.svd
        calls = []

        def counting_svd(a):
            calls.append(a.shape)
            return svd(a)

        monkeypatch.setattr(np.linalg, "svd", counting_svd)
        fits = _fit_svd(geometry, rel, disp, ANGLE_READINGS)
        assert calls == [(3, 3, 3)]
        assert list(fits) == list(ANGLE_READINGS)
        for reading, fit in fits.items():
            one = _fit_svd(geometry, rel, disp, (reading,))[reading]
            assert fit.geometry is one.geometry
            for name in ("translation", "rotation", "residuals", "score", "objective"):
                assert getattr(fit, name).tobytes() == getattr(one, name).tobytes()
        assert fits["plus"].rotation.tobytes() != fits["minus"].rotation.tobytes()

    def test_svd_collinear_displaced_nodes_degenerate(self):
        # every node moves onto the x axis: the cross-covariance has rank 1
        pos = cube_nodes(2.0, 1.0)
        disp = np.zeros_like(pos)
        disp[:, 1:] = -pos[:, 1:]
        with pytest.raises(DegenerateGeometry, match="collinear"):
            _fit_svd(*_fit_geometry(pos), disp[None], ("avg",))

    def test_svd_overflowing_displacement_named(self):
        pos = cube_nodes(2.0, 1.0)
        disp = np.zeros_like(pos)
        disp[0, 1] = 1e160
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteDeflection, match="residual sum of squares"):
                _fit_svd(*_fit_geometry(pos), disp[None], ("avg",))

    @pytest.mark.parametrize("cells", [
        {(0, 1): np.inf},
        {(0, 1): 1e308, (1, 1): 1e308},
        {(0, 0): 1e308, (1, 1): -1e308},
    ], ids=["inf", "mean-overflows", "rotation-overflows"])
    def test_svd_non_finite_displacement_named(self, cells):
        # An infinite dy; two finite dy whose sum overflows the mean; and a
        # dx and a dy that overflow the cross-covariance.
        pos = cube_nodes(2.0, 1.0)
        disp = np.zeros_like(pos)
        for (node, axis), value in cells.items():
            disp[node, axis] = value
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteDeflection):
                _fit_svd(*_fit_geometry(pos), disp[None], ("avg",))

    @pytest.mark.parametrize("fit", [_fit_lin, svd_avg], ids=["lin", "svd"])
    def test_small_angle_warning(self, fit):
        pos = cube_nodes(2.0, 1.0)
        disp = np.cross([0.0, 0.0, 0.05], pos)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            fit(*_fit_geometry(pos), disp[None])
        assert [w.category for w in caught] == [LinearizationWarning]

    @pytest.mark.parametrize("fit", [_fit_lin, svd_avg], ids=["lin", "svd"])
    def test_non_finite_deflection_rejected(self, fit):
        pos = cube_nodes(2.0, 1.0)
        disp = np.zeros_like(pos)
        disp[0, 0] = np.nan
        with pytest.raises(NonFiniteDeflection):
            fit(*_fit_geometry(pos), disp[None])


class TestAngleExtraction:
    def test_identity_gives_zero(self):
        assert_allclose(extract_angles(np.eye(3)), np.zeros(3), atol=0)

    @pytest.mark.parametrize("axis", [0, 1, 2])
    def test_single_axis_small_angle(self, axis):
        angles = np.zeros(3)
        angles[axis] = 1e-3
        R = rotation_xyz(angles)
        assert_allclose(extract_angles(R), angles, rtol=0, atol=1e-9)
        got = extract_angles(R, "avg-asin")
        assert_allclose(got, angles, rtol=0, atol=1e-12)

    def test_averaged_is_mean_of_entry_variants(self):
        R = rotation_xyz([2e-3, -1e-3, 3e-3])
        plus = extract_angles(R, "plus")
        minus = extract_angles(R, "minus")
        avg = extract_angles(R, "avg")
        assert_allclose(avg, (plus + minus) / 2.0, atol=1e-16)

    def test_averaging_halves_the_entry_error(self):
        b = np.deg2rad(1.0)
        angles = np.array([b, b, b])
        R = rotation_xyz(angles)
        err_plus = np.max(np.abs(extract_angles(R, "plus") - angles))
        err_avg = np.max(np.abs(extract_angles(R, "avg") - angles))
        assert err_avg < err_plus
        assert 1.6 < err_plus / err_avg < 2.4

    def test_asin_variant_tracks_plain_variant(self):
        R = rotation_xyz([1e-3, 1e-3, 1e-3])
        plain = extract_angles(R, "avg")
        arcs = extract_angles(R, "avg-asin")
        assert_allclose(arcs, plain, atol=1e-9)

    @pytest.mark.parametrize("method", ["bogus", "AVERAGED", None, "", True, ["avg"],
                                        ("avg",), np.array(["avg", "plus"]),
                                        np.array("avg")],
                             ids=["bogus", "AVERAGED", "None", "empty", "True", "list",
                                  "tuple", "array", "0d-array"])
    def test_unknown_method_is_invalid_argument(self, method):
        # In both calls the error names the parameter and lists the six
        # readings; a value that is not a str is never compared (an array
        # would raise numpy's truth-value error).
        field = make_field(cube_nodes(2.0, 1.0), np.zeros((27, 3)))
        for call in (lambda: extract_angles(np.eye(3), method),
                     lambda: estimate_svd(field, method)):
            with pytest.raises(InvalidArgument, match="^method must be one of 'plus', "
                                                      "'minus', 'avg', 'plus-asin', "
                                                      "'minus-asin', 'avg-asin', got "):
                call()

    def test_readings_in_order(self):
        assert ANGLE_READINGS == ("plus", "minus", "avg", "plus-asin", "minus-asin",
                                  "avg-asin")
        assert not hasattr(stiffid, "AngleExtractionMethod")
        assert not hasattr(estimation, "AngleExtractionMethod")

    def test_corrupt_entry_raises_for_asin(self):
        R = np.eye(3)
        R[2, 1] = 1.0 + 1e-6
        with pytest.raises(EntryOutOfRange):
            extract_angles(R, "plus-asin")

    def test_corrupt_matrix_raises_for_plain(self):
        R = np.eye(3)
        R[2, 1] = 1.0 + 1e-6
        with pytest.raises(ValueError):
            extract_angles(R, "plus")

    def test_non_orthogonal_rejected(self):
        with pytest.raises(ValueError):
            extract_angles(np.eye(3) * 1.01)

    def test_wrong_shape_rejected(self):
        with pytest.raises(ValueError):
            extract_angles(np.eye(4))

    @pytest.mark.parametrize("method", ANGLE_READINGS)
    def test_stack_equals_per_matrix_calls(self, method):
        rng = np.random.default_rng(5)
        stack = np.array([rotation_xyz(a) for a in rng.uniform(-0.3, 0.3, (20, 3))])
        stack = stack.reshape(4, 5, 3, 3)
        got = extract_angles(stack, method)
        assert got.shape == (4, 5, 3)
        want = np.array([extract_angles(R, method) for R in stack.reshape(-1, 3, 3)])
        assert got.tobytes() == want.tobytes()
        entries, _, asin = method.partition("-")
        if asin:
            # math.asin of each entry reading, which np.arcsin is not
            # bit for bit.
            plain = extract_angles(stack, entries).ravel().tolist()
            assert got.tobytes() == np.array([math.asin(v) for v in plain]).tobytes()

    def test_one_out_of_domain_row_raises(self):
        stack = np.array([rotation_xyz([1e-3, 0.0, 0.0])] * 3)
        stack[1, 2, 1] = 1.0 + 1e-6
        with pytest.raises(EntryOutOfRange):
            extract_angles(stack, "plus-asin")
        with pytest.raises(ValueError, match="orthogonal"):
            extract_angles(stack, "plus")

    def test_non_finite_matrix_rejected(self):
        R = np.eye(3)
        R[0, 1] = np.nan
        for method in ANGLE_READINGS:
            with pytest.raises(ValueError):
                extract_angles(R, method)


class TestDeflection:
    def test_vector_roundtrip(self):
        d = Deflection([1.0, 2.0, 3.0], [1e-4, -2e-4, 3e-4])
        v = d.as_vector()
        back = Deflection(v[:3], v[3:])
        assert_allclose(back.translation, d.translation, atol=0)
        assert_allclose(back.rotation, d.rotation, atol=0)

    def test_large_rotation_warns(self):
        # The fit that estimates a rotation outside the small-angle regime
        # warns, once; a Deflection record of that rotation does not.
        rotation = [ROTATION_WARN_LIMIT, 0.0, 0.0]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            Deflection(np.zeros(3), rotation)
        field = first_order_field(cube_nodes(2.0, 1.0), np.zeros(3), rotation)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            estimate_lin(field)
        assert [w.category for w in caught] == [LinearizationWarning]

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

    @pytest.mark.parametrize("estimate, residuals", [
        (estimate_lin, lambda geometry, rel, d: _lin_fit_residuals(
            _fit_lin(geometry, rel, d), rel, d)),
        (estimate_svd, lambda geometry, rel, d: svd_avg(geometry, rel, d).residuals),
    ], ids=["lin", "svd"])
    def test_residuals_are_a_read_only_copy(self, estimate, residuals):
        rng = np.random.default_rng(8)
        pos = cube_nodes(4.0, 1.0)
        disp = np.cross([1e-4, 2e-4, -1e-4], pos) + rng.normal(0, 1e-5, pos.shape)
        result = estimate(make_field(pos, disp))
        # the batched fit's row, bit for bit: the svd fit's own residuals,
        # and for lin, which keeps none, the kernel's over the whole field
        assert result.residuals.tobytes() == \
            residuals(*_fit_geometry(pos), disp[None])[0].tobytes()
        assert not result.residuals.flags.writeable
        given = np.ones((4, 3))
        held = FitResult(Deflection(np.zeros(3), np.zeros(3)), given, 0.0)
        given[0, 0] = 2.0
        assert held.residuals[0, 0] == 1.0
        with pytest.raises(ValueError):
            held.residuals[0, 0] = 3.0


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

    def test_overflowing_residual_sum_rejected(self):
        # The deflections stay finite, but the squared residual of the
        # node moved by 1e160 does not.
        pos = cube_nodes(10.0, 1.0)
        disp = np.zeros_like(pos)
        disp[0, 1] = 1e160
        with pytest.raises(NonFiniteDeflection, match="residual sum of squares"):
            estimate_lin(make_field(pos, disp))

    def test_overflowing_displacement_named_before_numpy_warns(self):
        # under an "error" filter numpy's overflow warning in the residual
        # sum of squares must not pre-empt the documented error
        disp = np.zeros((27, 3))
        disp[0, 1] = 1e160
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteDeflection, match="residual sum of squares"):
                estimate_lin(make_field(cube_nodes(2.0, 1.0), disp))

    def test_overflowing_positions_named_before_numpy_warns(self):
        pos = cube_nodes(2.0, 1.0) * 1e160
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DegenerateGeometry, match="overflow"):
                estimate_lin(make_field(pos, np.zeros_like(pos)))

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
            b = estimate_svd(field, "avg").deflection
            assert np.max(np.abs(a.translation - b.translation)) <= 1e-9
            assert np.max(np.abs(a.rotation - b.rotation)) <= 1e-9

    def test_extraction_method_changes_only_angles(self):
        pos = cube_nodes(10.0, 1.0)
        R = rotation_xyz(np.deg2rad([1.0, 1.0, 1.0]))
        disp = pos @ (R - np.eye(3)).T
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", LinearizationWarning)
            fits = {m: estimate_svd(make_field(pos, disp), m)
                    for m in ANGLE_READINGS}
        translations = [f.deflection.translation for f in fits.values()]
        for t in translations[1:]:
            assert_allclose(t, translations[0], atol=0)
        rot_plus = fits["plus"].deflection.rotation
        rot_minus = fits["minus"].deflection.rotation
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

