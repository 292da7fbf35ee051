"""End-to-end identification: scheme detection, filtering, noise-free zeros."""

import warnings

import numpy as np
import pytest

import stiffid
import stiffid.pipeline
from stiffid import (
    BeamSpec,
    DegenerateGeometry,
    DisplacementField,
    IdentifyOptions,
    InvalidArgument,
    LinearizationWarning,
    LoadCase,
    MeshPattern,
    TooFewRemaining,
    Wrench,
    beam_compliance_oracle,
    beam_load_cases,
    canonical_wrench_scheme,
    estimate_lin,
    filter_outliers,
    run_identification,
)
from stiffid.estimation import _planes, _system_row

ZERO = beam_compliance_oracle().k == 0.0


@pytest.fixture(scope="module")
def noisy_cases():
    return beam_load_cases(BeamSpec(), MeshPattern.cubic(6.0, 1.0), sigma=5.6e-5, seed=4)


def test_extra_combined_wrench_is_least_squares(noisy_cases, monkeypatch):
    calls = []
    original = stiffid.pipeline.assemble_overdetermined

    def spy(experiments):
        calls.append(len(experiments))
        return original(experiments)

    monkeypatch.setattr(stiffid.pipeline, "assemble_overdetermined", spy)
    extra = LoadCase(noisy_cases[0].field, Wrench([1000.0, 1.0, 0.0], np.zeros(3)))
    result = run_identification(noisy_cases + [extra])
    assert not result.canonical
    assert result.significance is None
    assert calls == [7]


def test_shuffled_canonical_scheme_gives_same_bytes(noisy_cases):
    shuffled = [noisy_cases[i] for i in (3, 5, 0, 4, 2, 1)]
    a = run_identification(noisy_cases)
    b = run_identification(shuffled)
    assert b.canonical
    assert a.matrix.k.tobytes() == b.matrix.k.tobytes()


def test_zero_outlier_fraction_equals_a_run_without_filter(noisy_cases, monkeypatch):
    options = IdentifyOptions(outlier_fraction=0.0)
    result = run_identification(noisy_cases, options)
    assert all(removed == () for removed in result.removed)
    monkeypatch.setattr(stiffid.pipeline, "_drop_mask", lambda residuals, fraction: None)
    unfiltered = run_identification(noisy_cases, options)
    assert result.matrix.k.tobytes() == unfiltered.matrix.k.tobytes()
    assert result.significance.to_json_dict() == unfiltered.significance.to_json_dict()
    assert result.noise == unfiltered.noise


def test_noise_free_square_structural_zeros():
    # the rotation right-hand side is formed from centered displacements,
    # so the large translations leave no rounding residue in the zeros
    cases = beam_load_cases(BeamSpec(), MeshPattern.square(10.0, 1.0, "x"), sigma=0.0)
    result = run_identification(cases)
    assert np.max(np.abs(result.assembled.k[ZERO])) <= 1e-17


@pytest.mark.parametrize("name, value", [("outlier_fraction", False),
                                         ("confidence_multiplier", True)])
def test_boolean_numeric_options_rejected(name, value):
    # bool is an int, so without its own check these would pass the
    # range checks as 0 and 1.
    with pytest.raises(ValueError, match=name):
        IdentifyOptions(**{name: value})


@pytest.mark.parametrize("value", [1, 0])
def test_integer_symmetrize_rejected(value):
    # 1 and 0 compare equal to True and False.
    with pytest.raises(InvalidArgument, match="symmetrize"):
        IdentifyOptions(symmetrize=value)


# The batch axis of identify_batch: S independent identifications.

def beam_batch(seeds, jitter=0.0):
    """The six beam experiments of each seed, stacked along the batch axis;
    with `jitter`, every row moves its nodes by its own small offsets."""
    rows = [beam_load_cases(BeamSpec(), MeshPattern.square(10.0, 1.0, "x"),
                            sigma=5.6e-5, seed=6 * s) for s in seeds]
    rng = np.random.default_rng(17)
    positions, displacements = [], []
    for j in range(6):
        shared = rows[0][j].field.positions
        offsets = jitter * rng.standard_normal((len(seeds),) + shared.shape)
        positions.append(shared + offsets if jitter else shared)
        displacements.append(np.stack([row[j].field.displacements for row in rows]))
    return positions, displacements, [case.wrench for case in rows[0]]


def batch_row(batch, s):
    """Every array of one row of a BatchIdentification, as bytes."""
    out = [batch.sigma[s], batch.assembled[s], batch.halfwidth[s], batch.significant[s],
           batch.safety[s], batch.matrix[s], batch.mask[s]]
    for j, fit in enumerate(batch.fits):
        out += [fit.translation[s], fit.rotation[s], fit.residuals[s], fit.objective[s],
                batch.dropped[j][s], batch.per_experiment_sigma[j][s],
                batch.covariances[j][0][s], batch.covariances[j][1][s]]
        out += _system_row(fit.system, s)[1:]
    return [np.asarray(a).tobytes() for a in out]


@pytest.mark.parametrize("jitter", [0.0, 1e-3], ids=["shared-positions", "row-positions"])
def test_batch_rows_equal_one_row_batches(jitter):
    positions, displacements, wrenches = beam_batch(range(4), jitter)
    batch = stiffid.identify_batch(positions, displacements, wrenches)
    assert batch.order is not None
    for s in range(4):
        one = stiffid.identify_batch(
            [p if p.ndim == 2 else p[s:s + 1] for p in positions],
            [d[s:s + 1] for d in displacements], wrenches)
        assert batch_row(batch, s) == batch_row(one, 0)
        assert one.dof == batch.dof


def test_run_identification_is_the_one_row_batch():
    positions, displacements, wrenches = beam_batch([2, 5])
    batch = stiffid.identify_batch(positions, displacements, wrenches)
    for s, seed in enumerate([2, 5]):
        cases = beam_load_cases(BeamSpec(), MeshPattern.square(10.0, 1.0, "x"),
                                sigma=5.6e-5, seed=6 * seed)
        result = run_identification(cases)
        assert result.matrix.k.tobytes() == batch.matrix[s].tobytes()
        assert result.assembled.k.tobytes() == batch.assembled[s].tobytes()
        assert result.noise.sigma == batch.sigma[s]
        assert [list(r) for r in result.removed] == \
            [np.flatnonzero(d[s]).tolist() for d in batch.dropped]


@pytest.mark.parametrize("fraction", [0.0, 0.1], ids=["no-refit", "refit"])
@pytest.mark.parametrize("estimator", ["lin", "svd"])
def test_row_inputs_give_plane_backed_residuals(estimator, fraction):
    positions, displacements, wrenches = beam_batch(range(3))
    assert positions[0].flags.c_contiguous and displacements[0].flags.c_contiguous
    options = IdentifyOptions(estimator=estimator, outlier_fraction=fraction)
    batch = stiffid.identify_batch(positions, displacements, wrenches, options)
    for fit in batch.fits:
        assert fit.residuals.swapaxes(-1, -2).flags.c_contiguous
    cases = beam_load_cases(BeamSpec(), MeshPattern.square(10.0, 1.0, "x"),
                            sigma=5.6e-5, seed=3)
    for fit in run_identification(cases, options).fits:
        assert fit.residuals.shape == (fit.n, 3)
        assert fit.residuals.swapaxes(-1, -2).flags.c_contiguous


@pytest.mark.parametrize("layout", ["rows", "planes"])
@pytest.mark.parametrize("rows", [1, 3])
@pytest.mark.parametrize("shared", [True, False], ids=["shared", "per-row"])
def test_survivors_equal_boolean_indexing(shared, rows, layout):
    rng = np.random.default_rng(9)
    n, m = 12, 8
    a = rng.normal(size=(n, 3) if shared else (rows, n, 3))
    keep = np.zeros((rows, n), dtype=bool)
    for row in keep:  # a different mask in every row, m nodes each
        row[rng.permutation(n)[:m]] = True
    if layout == "planes":
        a = _planes(a)
    got = stiffid.pipeline._survivors(a, keep)
    expected = np.stack([(a if shared else a[s])[keep[s]] for s in range(rows)])
    assert got.shape == expected.shape == (rows, m, 3)
    assert got.tobytes() == expected.tobytes()
    assert got.swapaxes(-1, -2).flags.c_contiguous


def line_and_apex(count=9):
    """`count` nodes on the x axis and one node off it."""
    pos = np.zeros((count + 1, 3))
    pos[:count, 0] = np.linspace(-4.0, 4.0, count)
    pos[count] = [0.0, 3.0, 0.0]
    return pos


def test_batch_degenerate_row_raises():
    wrench = [Wrench([1000.0, 0.0, 0.0], np.zeros(3))]
    rng = np.random.default_rng(5)
    # initial fit: row 1's nodes are collinear
    pos = np.stack([line_and_apex(), line_and_apex(), line_and_apex()])
    pos[1, -1] = [5.0, 0.0, 0.0]
    disp = rng.normal(0.0, 1e-5, pos.shape)
    with pytest.raises(DegenerateGeometry):
        stiffid.identify_batch([pos], [disp], wrench)
    with pytest.raises(DegenerateGeometry):
        estimate_lin(DisplacementField(pos[1], disp[1], centered=True))
    # refit: the filter drops row 1's only node off the line
    shared = line_and_apex()
    disp = rng.normal(0.0, 1e-5, (2,) + shared.shape)
    disp[0, 4] += 1e-2
    disp[1, -1] += 1e-2
    field = DisplacementField(shared, disp[1], centered=True)
    reduced, removed = filter_outliers(field, estimate_lin(field), 0.1)
    assert removed.tolist() == [9]
    with pytest.raises(DegenerateGeometry):
        estimate_lin(reduced)
    with pytest.raises(DegenerateGeometry):
        stiffid.identify_batch([shared], [disp], wrench)


def test_batch_too_few_remaining_raises():
    pos = line_and_apex(3)  # 4 nodes; half of them would go
    disp = np.random.default_rng(6).normal(0.0, 1e-5, (2,) + pos.shape)
    field = DisplacementField(pos, disp[0], centered=True)
    with pytest.raises(TooFewRemaining):
        filter_outliers(field, estimate_lin(field), 0.5)
    with pytest.raises(TooFewRemaining):
        stiffid.identify_batch([pos], [disp], [Wrench([1.0, 0.0, 0.0], np.zeros(3))],
                               IdentifyOptions(outlier_fraction=0.5))


@pytest.mark.parametrize("fraction, expected", [(0.0, 1), (0.1, 2)])
def test_batch_row_out_of_small_angles_warns(fraction, expected):
    # row 1 of three rotates by 0.05 rad in its first experiment: one
    # warning per fit of that row, the initial fit and, with a filter,
    # the refit
    pos = np.stack(np.meshgrid(*[[-1.0, 0.0, 1.0]] * 3, indexing="ij"), -1).reshape(-1, 3)
    disp = np.zeros((3,) + pos.shape)
    disp[1] = np.cross([0.0, 0.0, 0.05], pos)
    quiet = np.zeros_like(disp)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        stiffid.identify_batch([pos] * 6, [disp] + [quiet] * 5,
                               canonical_wrench_scheme(*[1.0] * 6),
                               IdentifyOptions(outlier_fraction=fraction))
    linear = [w for w in caught if issubclass(w.category, LinearizationWarning)]
    assert len(linear) == expected
    assert all("0.05 rad" in str(w.message) for w in linear)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        estimate_lin(DisplacementField(pos, disp[1], centered=True))
    assert [w.category for w in caught] == [LinearizationWarning]


@pytest.mark.parametrize("positions, displacements", [
    ((5, 3), (5, 3)),          # displacements without the batch axis
    ((5, 3), (2, 5, 2)),       # not 3-vectors
    ((4, 3), (2, 5, 3)),       # node counts differ
    ((3, 5, 3), (2, 5, 3)),    # row counts differ
    ((5, 3), (0, 5, 3)),       # no rows
], ids=["no-batch-axis", "two-components", "node-count", "row-count", "no-rows"])
def test_batch_shapes_checked(positions, displacements):
    with pytest.raises(ValueError, match="experiment 0"):
        stiffid.identify_batch([np.ones(positions)], [np.ones(displacements)],
                               [Wrench([1.0, 0.0, 0.0], np.zeros(3))])


def test_batch_row_count_shared_by_experiments():
    pos = np.stack(np.meshgrid(*[[-1.0, 0.0, 1.0]] * 3, indexing="ij"), -1).reshape(-1, 3)
    with pytest.raises(ValueError, match="experiment 1"):
        stiffid.identify_batch([pos, pos], [np.zeros((2,) + pos.shape),
                                            np.zeros((3,) + pos.shape)],
                               canonical_wrench_scheme(*[1.0] * 6)[:2])


# One fit geometry per distinct node layout of an identification.

def mixed_layout_cases():
    """Six beam experiments on a 125-node cube: fy and my list its nodes
    in reverse order (layout B), the others in grid order (layout A), so
    the layouts run A, B, A, ... with one shape."""
    cases = beam_load_cases(BeamSpec(), MeshPattern.cubic(4.0, 1.0), sigma=5.6e-5, seed=3)
    for j in (1, 4):
        field = cases[j].field
        cases[j] = LoadCase(DisplacementField(field.positions[::-1],
                                              field.displacements[::-1], centered=True),
                            cases[j].wrench)
    return cases


def result_bytes(result):
    """Every number of an IdentificationResult, as bytes."""
    out = [result.matrix.k, result.assembled.k,
           repr(result.significance.to_json_dict()).encode(), repr(result.noise).encode(),
           repr(result.removed).encode()]
    for fit, cov in zip(result.fits, result.covariances):
        out += [fit.residuals, fit.objective, fit.deflection.as_vector(),
                cov.translation, cov.rotation, *fit.system[1:]]
    return [a if isinstance(a, bytes) else np.asarray(a).tobytes() for a in out]


@pytest.fixture
def own_geometry(monkeypatch):
    """Make every experiment build its own geometry, as a reference."""
    def run(call, *args):
        with monkeypatch.context() as patch:
            patch.setattr(stiffid.pipeline, "_same_layout", lambda a, b: False)
            return call(*args)
    return run


@pytest.fixture
def geometry_builds(monkeypatch):
    """The node counts of the geometries the pipeline builds."""
    built = []
    original = stiffid.pipeline._fit_geometry

    def counted(positions):
        built.append(positions.shape[-2])
        return original(positions)

    monkeypatch.setattr(stiffid.pipeline, "_fit_geometry", counted)
    return built


@pytest.mark.parametrize("fraction", [0.0, 0.1], ids=["no-refit", "refit"])
@pytest.mark.parametrize("layouts", ["A-B-A", "equal-copies"])
def test_shared_geometry_gives_the_same_bytes(layouts, fraction, own_geometry,
                                              geometry_builds, noisy_cases):
    cases, distinct = (mixed_layout_cases(), 2) if layouts == "A-B-A" else (noisy_cases, 1)
    # DisplacementField copies its positions: no two cases share an array
    assert cases[0].field.positions is not cases[2].field.positions
    options = IdentifyOptions(outlier_fraction=fraction)
    reference = own_geometry(run_identification, cases, options)
    n = cases[0].field.n
    del geometry_builds[:]
    shared = run_identification(cases, options)
    assert result_bytes(shared) == result_bytes(reference)
    # once per distinct layout; each refit builds one of its own
    assert geometry_builds.count(n) == distinct
    assert len(geometry_builds) == distinct + (6 if fraction else 0)


def test_shared_positions_object_gives_the_same_bytes(own_geometry, geometry_builds):
    positions, displacements, wrenches = beam_batch(range(3))
    shared_object = [positions[0]] * 6
    reference = own_geometry(stiffid.identify_batch, shared_object, displacements,
                             wrenches)
    del geometry_builds[:]
    batch = stiffid.identify_batch(shared_object, displacements, wrenches)
    assert geometry_builds == [121] + [108] * 6
    for s in range(3):
        assert batch_row(batch, s) == batch_row(reference, s)


def test_degenerate_shared_layout_raises(own_geometry):
    line = np.zeros((9, 3))
    line[:, 0] = np.linspace(-4.0, 4.0, 9)
    disp = np.random.default_rng(8).normal(0.0, 1e-5, (1,) + line.shape)
    wrenches = canonical_wrench_scheme(*[1.0] * 6)
    for positions in ([line] * 6, [line.copy() for _ in range(6)]):
        with pytest.raises(DegenerateGeometry):
            stiffid.identify_batch(positions, [disp] * 6, wrenches)
        with pytest.raises(DegenerateGeometry):
            own_geometry(stiffid.identify_batch, positions, [disp] * 6, wrenches)
    cases = [LoadCase(DisplacementField(line, disp[0], centered=True), w)
             for w in wrenches]
    with pytest.raises(DegenerateGeometry):
        run_identification(cases)


def test_same_layout_compares_bits():
    a = np.array([[0.0, 1.0, 2.0], [3.0, 4.0, 5.0]])
    assert stiffid.pipeline._same_layout(a, a.copy())
    assert not stiffid.pipeline._same_layout(a, a[:1])
    signed = a.copy()
    signed[0, 0] = -0.0  # equal as floats, not as bits
    assert np.array_equal(a, signed)
    assert not stiffid.pipeline._same_layout(a, signed)


def test_refit_residuals_are_read_only(noisy_cases):
    result = run_identification(noisy_cases)
    assert all(result.removed)
    for fit in result.fits:
        residuals = fit.residuals
        assert not residuals.flags.writeable
        assert residuals.base is None or not residuals.base.flags.writeable
        with pytest.raises(ValueError):
            residuals[0, 0] = 1.0
