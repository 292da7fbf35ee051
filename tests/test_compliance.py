"""Compliance matrix assembly, symmetrization, inversion and serialization."""

import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from stiffid import (
    ComplianceMatrix,
    Deflection,
    InvalidArgument,
    NotCanonical,
    RankDeficientWrenches,
    SingularCompliance,
    Wrench,
    ZeroMagnitude,
    assemble_canonical,
    assemble_overdetermined,
    canonical_wrench_scheme,
    compliance_from_json_dict,
    invert_to_stiffness,
    load_compliance_json,
    save_compliance_json,
    symmetrize,
)
from stiffid.compliance import is_canonical

# Closed-form tip compliance of the clamped 1000 x 10 x 10 mm cantilever
# (E = 2e5 N/mm^2, nu = 0.266), assembled here from first principles so
# the library result has something independent to match.
L, A_EDGE, E_MOD, NU = 1000.0, 10.0, 2.0e5, 0.266
EA = E_MOD * A_EDGE ** 2
EI = E_MOD * A_EDGE ** 4 / 12.0
GJ = E_MOD / (2.0 * (1.0 + NU)) * 0.1406 * A_EDGE ** 4


def reference_matrix():
    k = np.zeros((6, 6))
    k[0, 0] = L / EA
    k[1, 1] = k[2, 2] = L ** 3 / (3.0 * EI)
    k[3, 3] = L / GJ
    k[4, 4] = k[5, 5] = L / EI
    k[1, 5] = k[5, 1] = L ** 2 / (2.0 * EI)
    k[2, 4] = k[4, 2] = -(L ** 2) / (2.0 * EI)
    return k


def forward_experiments(k, magnitudes=(1000.0, 1.0, 1.0, 1000.0, 1000.0, 1000.0)):
    """Canonical wrenches and the deflections d = k w they produce exactly."""
    wrenches = canonical_wrench_scheme(*magnitudes)
    deflections = []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # synthetic deflections may be large
        for wrench in wrenches:
            d = k @ wrench.as_vector()
            deflections.append(Deflection(d[:3], d[3:]))
    return wrenches, deflections


def assert_not_canonical(wrenches, deflections):
    """is_canonical finds no scheme, so assemble_canonical raises."""
    assert not is_canonical(wrenches)
    with pytest.raises(NotCanonical):
        assemble_canonical(wrenches, deflections)


def single(j, value=1.0):
    """The wrench whose component j is `value` and the others zero."""
    v = np.zeros(6)
    v[j] = value
    return Wrench(v[:3], v[3:])


def wrench_vectors(wrenches):
    return np.array([w.as_vector() for w in wrenches])


class TestWrench:
    """Which components a wrench loads is read by is_canonical, from the
    wrench matrix; it returns a Python bool, which the run log
    serializes."""

    def test_vector_layout(self):
        w = Wrench([1.0, 2.0, 3.0], [4.0, 5.0, 6.0])
        assert_array_equal(w.as_vector(), [1.0, 2.0, 3.0, 4.0, 5.0, 6.0])

    def test_single_component(self):
        wrenches = [single(i) for i in range(6)]
        wrenches[4] = Wrench([0, 0, 0], [0, 500.0, 0])
        assert is_canonical(wrenches) is True
        wrenches[4] = Wrench([1.0, 0, 0], [0, 0, 1.0])
        assert is_canonical(wrenches) is False

    @pytest.mark.parametrize("value", [2.5, -7.0, 1e-300])
    def test_single_component_every_index(self, value):
        # Every index with either sign, in any order; then component j
        # loaded twice and component (j + 1) % 6 not at all.
        for j in range(6):
            for sign in (1.0, -1.0):
                wrenches = [single(i, sign * value if i == j else value) for i in range(6)]
                assert is_canonical(wrenches) is True
                assert is_canonical(wrenches[j:] + wrenches[:j]) is True
                wrenches[(j + 1) % 6] = single(j, value)
                assert is_canonical(wrenches) is False

    @pytest.mark.parametrize("force, torque", [
        ([1.0, -2.0, 0.0], [0.0, 0.0, 0.0]),
        ([0.0, 0.0, -1.0], [0.0, 3.0, 0.0]),
        ([1.0, 1.0, 1.0], [1.0, 1.0, 1.0]),
    ])
    def test_multi_component_is_not_single(self, force, torque):
        # Five single-component wrenches, Fy to Mz, and a combined one:
        # every component is loaded, by seven or more nonzeros.
        wrenches = [single(i) for i in range(1, 6)] + [Wrench(force, torque)]
        assert is_canonical(wrenches) is False
        assert is_canonical(wrenches[::-1]) is False

    def test_negative_zero_is_zero(self):
        wrenches = [single(i) for i in range(5)]
        assert is_canonical(wrenches + [Wrench([-0.0, 0.0, 0.0], [0.0, -0.0, -3.0])]) is True
        with pytest.raises(ValueError):
            Wrench([-0.0, 0.0, 0.0], [0.0, -0.0, 0.0])

    def test_zero_wrench_rejected(self):
        with pytest.raises(ValueError):
            Wrench(np.zeros(3), np.zeros(3))

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            Wrench([np.nan, 0, 0], [1.0, 0, 0])


class TestCanonicalScheme:
    def test_six_single_component_wrenches(self):
        magnitudes = (1000.0, 1.0, 1.0, 1000.0, 1000.0, 1000.0)
        wrenches = canonical_wrench_scheme(*magnitudes)
        assert_array_equal(wrench_vectors(wrenches), np.diag(magnitudes))
        assert is_canonical(wrenches) is True

    def test_zero_magnitude_rejected(self):
        with pytest.raises(ZeroMagnitude):
            canonical_wrench_scheme(1.0, 1.0, 0.0, 1.0, 1.0, 1.0)

    def test_negative_magnitudes_allowed(self):
        magnitudes = (-1.0, 1.0, 1.0, 1.0, 1.0, -2.0)
        wrenches = canonical_wrench_scheme(*magnitudes)
        assert_array_equal(wrench_vectors(wrenches), np.diag(magnitudes))
        assert is_canonical(wrenches) is True

    def test_repeated_component(self):
        wrenches = [single(i) for i in range(6)]
        wrenches[3] = single(0, -5.0)
        assert is_canonical(wrenches) is False

    def test_five_and_seven_wrenches(self):
        wrenches = [single(i) for i in range(6)]
        assert is_canonical(wrenches[:5]) is False
        assert is_canonical(wrenches[1:]) is False
        assert is_canonical(wrenches + [single(2, 4.0)]) is False
        assert is_canonical(wrenches + [Wrench([1.0, 1.0, 0.0], np.zeros(3))]) is False

    def test_empty_set(self):
        assert is_canonical([]) is False


class TestAssembleCanonical:
    def test_recovers_forward_model(self):
        k = reference_matrix()
        got = assemble_canonical(*forward_experiments(k))
        assert_allclose(got.k, k, rtol=1e-14, atol=1e-20)

    def test_column_values(self):
        k = reference_matrix()
        got = assemble_canonical(*forward_experiments(k)).k
        assert_allclose(got[0, 0], 5.0e-5, rtol=1e-12)
        assert_allclose(got[1, 1], 2.0, rtol=1e-12)
        assert_allclose(got[3, 3], 9.0043e-6, rtol=1e-4)
        assert_allclose(got[4, 4], 6.0e-6, rtol=1e-12)
        assert_allclose(got[1, 5], 3.0e-3, rtol=1e-12)
        assert_allclose(got[2, 4], -3.0e-3, rtol=1e-12)

    def test_experiment_order_does_not_matter(self):
        k = reference_matrix()
        wrenches, deflections = forward_experiments(k)
        order = (4, 0, 5, 2, 1, 3)
        shuffled = [wrenches[i] for i in order]
        assert_allclose(assemble_canonical(shuffled, [deflections[i] for i in order]).k,
                        assemble_canonical(wrenches, deflections).k, atol=0)
        assert is_canonical(shuffled)

    def test_magnitude_scaling_cancels(self):
        k = reference_matrix()
        small = forward_experiments(k, (10.0, 0.1, 0.1, 10.0, 10.0, 10.0))
        big = forward_experiments(k, (5000.0, 7.0, 3.0, 2000.0, 999.0, 1.0))
        assert_allclose(assemble_canonical(*small).k, assemble_canonical(*big).k,
                        rtol=1e-12, atol=1e-20)

    def test_duplicate_component_rejected(self):
        wrenches, deflections = forward_experiments(reference_matrix())
        wrenches[1], deflections[1] = wrenches[0], deflections[0]
        assert_not_canonical(wrenches, deflections)

    def test_combined_wrench_rejected(self):
        wrenches, deflections = forward_experiments(reference_matrix())
        wrenches[0] = Wrench([1.0, 1.0, 0.0], [0.0, 0.0, 0.0])
        assert_not_canonical(wrenches, deflections)

    def test_wrong_count_rejected(self):
        wrenches, deflections = forward_experiments(reference_matrix())
        assert_not_canonical(wrenches[:5], deflections[:5])

    def test_seven_experiments_rejected(self):
        wrenches, deflections = forward_experiments(reference_matrix())
        wrenches.append(Wrench([1.0, 1.0, 0.0], [0.0, 0.0, 0.0]))
        deflections.append(deflections[0])
        assert_not_canonical(wrenches, deflections)


class TestAssembleOverdetermined:
    @pytest.mark.parametrize("order", [range(6), (4, 0, 5, 2, 1, 3)],
                             ids=["in-order", "shuffled"])
    def test_canonical_columns_are_deflection_over_magnitude(self, order):
        # The least-squares assembly divides by the row scales after the
        # products with V and U^T, which for the canonical scheme are
        # signed permutations with unit singular values, so a canonical
        # column is each deflection over its magnitude exactly, not times
        # a rounded reciprocal (only the sign of a zero may differ: the
        # products' zeros add to +0).
        magnitudes = (1000.0, 1.0, 3.0, -1000.0, 7.0, 1000.0)
        wrenches, deflections = forward_experiments(reference_matrix(), magnitudes)
        expected = np.column_stack([d.as_vector() / m
                                    for d, m in zip(deflections, magnitudes)])
        got = assemble_overdetermined([wrenches[i] for i in order],
                                      [deflections[i] for i in order]).k
        assert_array_equal(got, expected)

    def test_rank_check_does_not_depend_on_load_units(self):
        # Magnitudes 1e15 apart: the unscaled wrench matrix's singular
        # values span 1e15, past the rank check's 1e12, but each row is
        # scaled to unit size before the SVD.
        magnitudes = (1e9, 1e-6, 1.0, 1.0, 1.0, 1.0)
        wrenches, deflections = forward_experiments(reference_matrix(), magnitudes)
        expected = np.column_stack([d.as_vector() / m
                                    for d, m in zip(deflections, magnitudes)])
        assert_array_equal(assemble_overdetermined(wrenches, deflections).k, expected)

    def test_matches_canonical_on_canonical_set(self):
        experiments = forward_experiments(reference_matrix())
        a = assemble_canonical(*experiments).k
        b = assemble_overdetermined(*experiments).k
        assert_allclose(b, a, rtol=1e-10, atol=1e-18)

    def test_duplicated_experiments_average_cleanly(self):
        wrenches, deflections = forward_experiments(reference_matrix())
        got = assemble_overdetermined(wrenches + wrenches, deflections + deflections)
        assert_allclose(got.k, reference_matrix(), rtol=1e-10, atol=1e-18)

    def test_recovers_random_matrix_from_general_wrenches(self):
        rng = np.random.default_rng(21)
        a = rng.normal(size=(6, 6))
        k_true = a @ a.T / 6.0 + np.eye(6)
        wrenches, deflections = [], []
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            for _ in range(12):
                w = rng.normal(size=6) * [100, 100, 100, 1000, 1000, 1000]
                d = k_true @ w
                wrenches.append(Wrench(w[:3], w[3:]))
                deflections.append(Deflection(d[:3], d[3:]))
        got = assemble_overdetermined(wrenches, deflections)
        assert_allclose(got.k, k_true, rtol=1e-9)

    def test_too_few_experiments(self):
        wrenches, deflections = forward_experiments(reference_matrix())
        with pytest.raises(RankDeficientWrenches, match="insufficient experiments"):
            assemble_overdetermined(wrenches[:5], deflections[:5])

    def test_span_deficient_wrenches(self):
        # eight wrenches, none with a z-torque: direction 6 is unobservable
        rng = np.random.default_rng(22)
        wrenches = []
        for _ in range(8):
            w = rng.normal(size=6)
            w[5] = 0.0
            wrenches.append(Wrench(w[:3], w[3:]))
        deflections = [Deflection(np.zeros(3), np.zeros(3))] * 8
        with pytest.raises(RankDeficientWrenches, match="no wrench loads Mz"):
            assemble_overdetermined(wrenches, deflections)

    def test_one_deflection_per_wrench(self):
        wrenches, deflections = forward_experiments(reference_matrix())
        with pytest.raises(ValueError, match="6 wrenches but 5 deflections"):
            assemble_overdetermined(wrenches, deflections[:5])


class TestComplianceMatrix:
    def test_shape_and_finiteness_enforced(self):
        with pytest.raises(ValueError):
            ComplianceMatrix(np.zeros((5, 6)))
        bad = np.zeros((6, 6))
        bad[0, 0] = np.inf
        with pytest.raises(ValueError):
            ComplianceMatrix(bad)

    def test_mask_shape_enforced(self):
        with pytest.raises(ValueError, match="mask must be 6x6"):
            ComplianceMatrix(reference_matrix(), np.ones((5, 6), dtype=bool))

    def test_asymmetry_zero_for_symmetric(self):
        assert ComplianceMatrix(reference_matrix()).asymmetry() == 0.0

    def test_asymmetry_of_zero_matrix_is_zero(self):
        # |k| = 0 leaves nothing to divide by.
        assert ComplianceMatrix(np.zeros((6, 6))).asymmetry() == 0.0

    def test_asymmetry_detects_one_bad_pair(self):
        k = reference_matrix()
        k[1, 5] *= 10.0
        m = ComplianceMatrix(k)
        expected = np.linalg.norm(k - k.T) / np.linalg.norm(k)
        assert_allclose(m.asymmetry(), expected, rtol=1e-12)
        assert m.asymmetry() > 1e-3

    def test_format_table_lists_components(self):
        table = ComplianceMatrix(reference_matrix()).format_table()
        assert "Fx" in table and "phiz" in table
        assert "5.0000e-05" in table
        assert len(table.splitlines()) == 7


class TestSymmetrize:
    def test_projection_formula(self):
        rng = np.random.default_rng(23)
        k = rng.normal(size=(6, 6))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # random matrices are indefinite
            got = symmetrize(ComplianceMatrix(k))
        assert_allclose(got.k, (k + k.T) / 2.0, atol=0)
        assert got.symmetrized

    def test_symmetric_input_is_fixed_point(self):
        k = reference_matrix()
        assert_array_equal(symmetrize(ComplianceMatrix(k)).k, k)

    def test_projection_is_closest_symmetric_matrix(self):
        rng = np.random.default_rng(24)
        k = rng.normal(size=(6, 6))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            sym = symmetrize(ComplianceMatrix(k)).k
        best = np.linalg.norm(sym - k)
        for _ in range(10):
            s = rng.normal(size=(6, 6))
            s = (s + s.T) / 2.0
            assert np.linalg.norm(s - k) >= best - 1e-12

    def test_mask_joined_with_or(self):
        mask = np.zeros((6, 6), dtype=bool)
        mask[1, 5] = True
        got = symmetrize(ComplianceMatrix(np.eye(6), mask))
        assert got.significance_mask[1, 5]
        assert got.significance_mask[5, 1]
        assert not got.significance_mask[0, 1]

    def test_indefinite_result_warns(self):
        k = np.diag([1.0, 1.0, 1.0, 1.0, 1.0, -1.0])
        with pytest.warns(UserWarning, match="positive"):
            symmetrize(ComplianceMatrix(k))


class TestInvertToStiffness:
    def test_roundtrip_with_reference_matrix(self):
        k = reference_matrix()
        K = invert_to_stiffness(ComplianceMatrix(k))
        assert_allclose(K @ k, np.eye(6), atol=1e-9)
        assert_allclose(K, K.T, atol=0)

    def test_diagonal_matrix(self):
        k = np.diag([2.0, 4.0, 5.0, 0.5, 0.25, 1.0])
        K = invert_to_stiffness(ComplianceMatrix(k))
        assert_allclose(K, np.diag(1.0 / np.diag(k)), rtol=1e-14)

    def test_singular_matrix_rejected(self):
        k = np.diag([1.0, 1.0, 1.0, 1.0, 1.0, 0.0])
        with pytest.raises(SingularCompliance):
            invert_to_stiffness(ComplianceMatrix(k))

    def test_asymmetric_matrix_rejected(self):
        k = reference_matrix()
        k[0, 1] = 1e-3
        with pytest.raises(ValueError):
            invert_to_stiffness(ComplianceMatrix(k))


class TestSerialization:
    def test_json_dict_roundtrip(self):
        mask = np.zeros((6, 6), dtype=bool)
        mask[0, 0] = True
        m = ComplianceMatrix(reference_matrix(), mask, symmetrized=True)
        back = compliance_from_json_dict(m.to_json_dict())
        assert_array_equal(back.k, m.k)
        assert_array_equal(back.significance_mask, mask)
        assert back.symmetrized

    def test_file_roundtrip(self, tmp_path):
        path = tmp_path / "compliance.json"
        m = ComplianceMatrix(reference_matrix())
        save_compliance_json(path, m)
        back = load_compliance_json(path)
        assert_array_equal(back.k, m.k)
        assert back.significance_mask is None

    def test_file_with_byte_order_mark(self, tmp_path):
        path = tmp_path / "compliance.json"
        m = ComplianceMatrix(reference_matrix())
        save_compliance_json(path, m)
        path.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
        assert_array_equal(load_compliance_json(path).k, m.k)

    @pytest.mark.parametrize("content", [b"{not json", b"\xff{}"], ids=["not-json", "not-utf8"])
    def test_unreadable_file_rejected(self, tmp_path, content):
        # The error every other malformed matrix raises, naming the file.
        path = tmp_path / "compliance.json"
        path.write_bytes(content)
        with pytest.raises(InvalidArgument, match="compliance.json: not"):
            load_compliance_json(path)

    def test_units_block_written(self):
        data = ComplianceMatrix(reference_matrix()).to_json_dict()
        assert data["units"]["rows"][0] == "px (mm)"
        assert data["units"]["columns"][3] == "Mx (N mm)"

    def test_missing_matrix_key_rejected(self):
        with pytest.raises(ValueError):
            compliance_from_json_dict({"symmetrized": True})

    @pytest.mark.parametrize("data", [5, None, "k", [1], {"symmetrized": True}],
                             ids=["number", "null", "string", "list", "no-k"])
    def test_json_without_matrix_object_rejected(self, data):
        # The top level of any JSON file, not only an object, reaches the
        # loader.
        with pytest.raises(InvalidArgument, match="'k'"):
            compliance_from_json_dict(data)

    @pytest.mark.parametrize("key, value", [
        ("symmetrized", "false"), ("symmetrized", 0), ("symmetrized", None),
        ("significance_mask", [[0.5] * 6] * 6),
        ("significance_mask", [[1] * 6] * 6),
        ("significance_mask", [[True] * 5 + ["no"]] + [[True] * 6] * 5),
        ("significance_mask", [[True] * 6] * 5 + [[True] * 5]),
    ])
    def test_non_boolean_flags_rejected(self, key, value):
        # A cast would load "false" and a mask of 0.5 as all true.
        data = ComplianceMatrix(reference_matrix()).to_json_dict()
        data[key] = value
        with pytest.raises(InvalidArgument, match=key):
            compliance_from_json_dict(data)

    @pytest.mark.parametrize("k", [
        [[1.0] * 5 + ["2.5"]] + [[1.0] * 6] * 5,
        [[True] + [1.0] * 5] + [[1.0] * 6] * 5,
        [[1.0] * 6] * 5 + [[1.0] * 5],
        [[1.0] * 6] * 5,
        [[1.0] * 6] * 5 + [None],
        "identity",
    ], ids=["string", "boolean", "ragged", "five-rows", "null-row", "not-a-list"])
    def test_non_numeric_matrix_rejected(self, k):
        # A cast would load "2.5" as 2.5 and true as 1.0, and a ragged
        # matrix would fail with numpy's own shape error.
        data = ComplianceMatrix(reference_matrix()).to_json_dict()
        data["k"] = k
        with pytest.raises(InvalidArgument, match="'k'"):
            compliance_from_json_dict(data)
