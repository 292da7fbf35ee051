"""End-to-end identification: scheme detection, filtering, noise-free zeros."""

import dataclasses
import math
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

import stiffid
import stiffid.pipeline
from stiffid import (
    BeamSpec,
    Deflection,
    DegenerateGeometry,
    DisplacementField,
    IdentifyOptions,
    InvalidArgument,
    LinearizationWarning,
    LoadCase,
    MeshPattern,
    TooFewRemaining,
    Wrench,
    assemble_overdetermined,
    beam_compliance_oracle,
    beam_load_cases,
    beam_tip_field,
    canonical_wrench_scheme,
    estimate_lin,
    estimate_svd,
    filter_outliers,
    run_identification,
    significance_test,
    symmetrize,
)
from stiffid.estimation import (
    _GRAM_BLOCK,
    _fit_geometry,
    _fit_lin,
    _fit_svd,
    _lin_fit_residuals,
    _planes,
)
from stiffid.synthetic import (
    DEFAULT_LOADS,
    _noisy_displacements,
    apply_rigid_transform,
    generate_pattern,
)

ZERO = beam_compliance_oracle().k == 0.0


@pytest.fixture(scope="module")
def noisy_cases():
    return beam_load_cases(BeamSpec(), MeshPattern.cubic(6.0, 1.0), sigma=5.6e-5, seed=4)


# Nodes moved 100 sigma off their noisy place (sigma = 5.6e-5 mm), which
# the default outlier cut drops; no other node of the fixtures below goes.
SPIKED = [5, 60, 100]
SPIKE = np.array([0.0, 5.6e-3, 0.0])


def spiked(field):
    """`field` with its nodes SPIKED moved by SPIKE."""
    d = field.displacements.copy()
    d[SPIKED] += SPIKE
    return DisplacementField(field.positions, d, field.reference_point, centered=True)


def spiked_cases(cases):
    return [LoadCase(spiked(case.field), case.wrench, case.source) for case in cases]


def test_extra_combined_wrench_is_least_squares(noisy_cases):
    extra = LoadCase(noisy_cases[0].field, Wrench([1000.0, 1.0, 0.0], np.zeros(3)))
    cases = noisy_cases + [extra]
    result = run_identification(cases)
    assert not result.canonical
    wrenches = [case.wrench for case in cases]
    deflections = [Deflection(d[:3], d[3:]) for d in result.deflections.T]
    assert_allclose(result.assembled.k, assemble_overdetermined(wrenches, deflections).k,
                    rtol=1e-13, atol=1e-20)
    # The seven-wrench set runs the same significance stage as the
    # canonical scheme, and significance_test agrees with it.
    report, tested = significance_test(result.assembled, wrenches, result.covariances)
    assert result.significance.to_json_dict() == report.to_json_dict()
    assert_array_equal(result.significance.safety, report.safety)  # JSON writes inf as null
    assert_array_equal(result.matrix.significance_mask,
                       tested.significance_mask | tested.significance_mask.T)


def test_shuffled_canonical_scheme_gives_same_bytes(noisy_cases):
    shuffled = [noisy_cases[i] for i in (3, 5, 0, 4, 2, 1)]
    a = run_identification(noisy_cases)
    b = run_identification(shuffled)
    assert b.canonical
    assert a.matrix.k.tobytes() == b.matrix.k.tobytes()


def test_zero_outlier_fraction_equals_a_run_without_filter(noisy_cases, monkeypatch):
    # Level 0, a zero false-rejection fraction, turns the cut off, even
    # for nodes far outside the noise.
    options = IdentifyOptions(outlier_level=0.0)
    cases = spiked_cases(noisy_cases)
    result = run_identification(cases, options)
    assert all(removed == () for removed in result.removed)
    assert result.cut_levels == (None,) * 6
    assert result.sigma_before_cut == result.noise.sigma
    monkeypatch.setattr(stiffid.pipeline, "_drop_mask", lambda score, cut, floor: None)
    unfiltered = run_identification(cases, IdentifyOptions())
    assert result.matrix.k.tobytes() == unfiltered.matrix.k.tobytes()
    assert result.significance.to_json_dict() == unfiltered.significance.to_json_dict()
    assert result.noise == unfiltered.noise


@pytest.mark.parametrize("options", [IdentifyOptions(outlier_level=0.0), IdentifyOptions()],
                         ids=["no-filter", "default"])
def test_removed_indices_are_read_from_the_drop_masks(noisy_cases, options):
    result = run_identification(spiked_cases(noisy_cases), options)
    filtered = options.outlier_level > 0.0
    log = result.diagnostics()["experiments"]
    assert type(result.removed) is tuple
    for j, case in enumerate(noisy_cases):
        mask = result.dropped[j]
        if not filtered:
            assert mask is None
        else:
            assert mask.dtype == bool and mask.shape == (case.field.n,)
            assert not mask.flags.writeable
        expected = [] if mask is None else np.flatnonzero(mask).tolist()
        removed = result.removed[j]
        assert type(removed) is tuple and all(type(i) is int for i in removed)
        assert list(removed) == expected == log[j]["removed_indices"]
        assert log[j]["removed_nodes"] == len(expected)
        assert expected == (SPIKED if filtered else [])


@pytest.mark.parametrize("seed", range(3))
def test_five_percent_of_nodes_at_100_sigma(seed):
    # 5% of each experiment's nodes sit 100 sigma off along random
    # directions.  The median scale ignores them, the cut drops them, and
    # sigma pooled from the refits is the noise's again, so the
    # halfwidths and the zero pattern are those of clean data.  Pooled
    # before the fixed-fraction trim, sigma read 13 times the truth.
    sigma = 5.6e-5
    cases = beam_load_cases(BeamSpec(), MeshPattern.cubic(10.0, 1.0), sigma=sigma,
                            seed=6 * seed)
    rng = np.random.default_rng(seed)
    dirty = []
    for case in cases:
        n = case.field.n
        bad = rng.choice(n, size=math.ceil(0.05 * n), replace=False)
        direction = rng.standard_normal((len(bad), 3))
        d = case.field.displacements.copy()
        d[bad] += 100.0 * sigma * direction / np.linalg.norm(direction, axis=1, keepdims=True)
        dirty.append(LoadCase(DisplacementField(case.field.positions, d,
                                                case.field.reference_point, centered=True),
                              case.wrench))
    result = run_identification(dirty)
    assert abs(result.noise.sigma / sigma - 1.0) <= 0.10
    assert result.sigma_before_cut > 10.0 * sigma
    assert_array_equal(result.matrix.significance_mask, ~ZERO)
    assert all(len(removed) >= math.ceil(0.05 * 1331) for removed in result.removed)


def test_report_is_a_read_only_copy_of_the_batch(noisy_cases, monkeypatch):
    original = stiffid.pipeline.identify_batch
    batches = []

    def recording(*args):
        batches.append(original(*args))
        return batches[-1]

    monkeypatch.setattr(stiffid.pipeline, "identify_batch", recording)
    result = run_identification(noisy_cases)
    report = result.significance
    before = report.to_json_dict()
    batch, = batches
    for name in ("assembled", "halfwidth", "significant", "safety"):
        getattr(batch, name)[...] = 0
    assert report.to_json_dict() == before
    for name in ("estimate", "halfwidth", "significant", "safety"):
        assert not getattr(report, name).flags.writeable


def seven_wrench_set(combined):
    """The six canonical wrenches plus `combined`, a least-squares set,
    and their noise-free fields on the 121-node square."""
    wrenches = canonical_wrench_scheme(*DEFAULT_LOADS) + [combined]
    pattern = MeshPattern.square(10.0, 1.0, "x")
    return wrenches, [beam_tip_field(BeamSpec(), w, pattern) for w in wrenches]


def test_seven_wrench_halfwidths_match_monte_carlo_spread():
    # 2,000 seeds as the rows of one batch: the error of each element
    # over its reported std, halfwidth / multiplier, must have unit
    # spread.  The combined wrench loads every component, so every
    # column mixes two experiments.  With outlier_level=0 every node is
    # fit; the cut's effect on the spread is tested off the reference
    # point below.
    wrenches, fields = seven_wrench_set(Wrench([500.0, 0.5, 0.5], [500.0] * 3))
    seeds = 2000
    options = IdentifyOptions(outlier_level=0.0)
    # One noise stream per experiment, as the zero-detection study draws.
    streams = [np.random.default_rng(s) for s in np.random.SeedSequence(0).spawn(7)]
    displacements = (_noisy_displacements(field.displacements, 5.6e-5, stream, seeds)
                     for stream, field in zip(streams, fields))
    batch = stiffid.identify_batch([fields[0].positions] * 7, displacements, wrenches,
                                   options)
    std = batch.halfwidth / options.confidence_multiplier
    z = (batch.assembled - beam_compliance_oracle().k) / std
    spread = z.std(axis=0, ddof=1)
    assert np.all(np.abs(spread - 1.0) <= 0.06), spread


def test_halfwidths_match_monte_carlo_spread_off_the_reference_point():
    # The sensor sits 50 mm inboard of its reference point, the beam tip,
    # so each translation at the reference point carries the rotation's
    # error times that lever arm: the covariance's lever-arm and
    # cross-covariance terms must give every element unit spread over
    # 2,000 seeds, with every node fit, and under the default outlier
    # cut, which drops a node in 1.5% of the fits here and takes sigma
    # from the refits.  The 10% trim it replaced read up to 1.091.
    base = generate_pattern(MeshPattern.square(10.0, 1.0, "x"),
                            center=(950.0, 0.0, 0.0), reference_point=(1000.0, 0.0, 0.0))
    oracle = beam_compliance_oracle().k
    wrenches = canonical_wrench_scheme(*DEFAULT_LOADS)
    seeds = 2000
    for level, most in ((0.0, 0.0), (0.01, 0.03)):
        options = IdentifyOptions(outlier_level=level, symmetrize=False)
        streams = [np.random.default_rng(s) for s in np.random.SeedSequence(1).spawn(6)]
        displacements = (
            _noisy_displacements(apply_rigid_transform(base, Deflection(d[:3], d[3:]))
                                 .displacements, 5.6e-5, stream, seeds)
            for stream, d in zip(streams, (oracle @ w.as_vector() for w in wrenches)))
        batch = stiffid.identify_batch([base.positions] * 6, displacements, wrenches,
                                       options)
        # The share of fits that lose a node.
        refit = np.mean([np.mean(n < 121) for n in batch.nodes])
        assert refit <= most
        z = (batch.assembled - oracle) / (batch.halfwidth / options.confidence_multiplier)
        spread = z.std(axis=0, ddof=1)
        assert np.all(np.abs(spread - 1.0) <= 0.06), (level, spread)


def test_seven_wrench_noise_free_structural_zeros():
    # Fx and Fy combined; every component; unit components.  A combined
    # wrench that mixes the 1 N forces with 1000 N mm torques gives a
    # wrench matrix of condition number about 1e3, and with its rows
    # unscaled that times the roundoff of the 2 mm/N elements left zeros
    # of up to 2e-13.  Each load component's row is scaled by its
    # largest entry before the SVD.
    for combined in (Wrench([1000.0, 1.0, 0.0], np.zeros(3)),
                     Wrench([500.0, 0.5, 0.5], [500.0] * 3),
                     Wrench([1.0] * 3, [1.0] * 3)):
        wrenches, fields = seven_wrench_set(combined)
        result = run_identification([LoadCase(f, w) for f, w in zip(fields, wrenches)])
        assert not result.canonical
        assert np.max(np.abs(result.assembled.k[ZERO])) <= 1e-15
        assert_allclose(result.assembled.k[~ZERO], beam_compliance_oracle().k[~ZERO],
                        rtol=1e-12)


def test_noise_free_square_structural_zeros():
    # the rotation right-hand side is formed from centered displacements,
    # so the large translations leave no rounding residue in the zeros
    cases = beam_load_cases(BeamSpec(), MeshPattern.square(10.0, 1.0, "x"), sigma=0.0)
    result = run_identification(cases)
    assert np.max(np.abs(result.assembled.k[ZERO])) <= 1e-17


@pytest.mark.parametrize("estimator", ["lin", "svd"])
def test_noise_free_cube_over_three_blocks(estimator):
    # 27^3 nodes, so every node sum of the fits runs over three blocks.
    # identify runs lin; svd is fit field by field and assembled.  Each
    # estimator gets the motion of its own model: svd reads its angles
    # off an orthogonal matrix, and first-order displacements would leave
    # it a second-order error of about 2e-8 in the zeros.
    pattern = MeshPattern.cubic(13.0, 0.5)
    if estimator == "lin":
        cases = beam_load_cases(BeamSpec(), pattern, sigma=0.0)
        assert cases[0].field.n > 2 * _GRAM_BLOCK
        k = run_identification(cases).assembled.k
    else:
        base = generate_pattern(pattern, center=(BeamSpec().length, 0.0, 0.0))
        assert base.n > 2 * _GRAM_BLOCK
        wrenches = canonical_wrench_scheme(*DEFAULT_LOADS)
        deflections = []
        for w in wrenches:
            d = beam_compliance_oracle().k @ w.as_vector()
            field = apply_rigid_transform(base, Deflection(d[:3], d[3:]),
                                          exact_rotation=True)
            deflections.append(estimate_svd(field).deflection)
        k = assemble_overdetermined(wrenches, deflections).k
    assert np.max(np.abs(k[ZERO])) <= 1e-15


@pytest.mark.parametrize("name, value", [("outlier_level", False),
                                         ("confidence_multiplier", True)])
def test_boolean_numeric_options_rejected(name, value):
    # bool is an int, so without its own check these would pass the
    # range checks as 0 and 1.
    with pytest.raises(ValueError, match=name):
        IdentifyOptions(**{name: value})


def test_overflowing_safety_factor_is_infinite(noisy_cases):
    # A multiplier of 1e-308 leaves subnormal halfwidths, over which some
    # safety factors overflow.  They read as infinite, as over a zero
    # halfwidth, and numpy's warning (an error here) stays silent.
    report = run_identification(noisy_cases,
                                IdentifyOptions(confidence_multiplier=1e-308)).significance
    assert report.significant.all()
    infinite = np.isinf(report.safety)
    assert infinite.any() and not infinite.all()
    assert [e["safety_factor"] is None for e in report.to_json_dict()["elements"]] == \
        infinite.ravel().tolist()


@pytest.mark.parametrize("value", [1, 0])
def test_integer_symmetrize_rejected(value):
    # 1 and 0 compare equal to True and False.
    with pytest.raises(InvalidArgument, match="symmetrize"):
        IdentifyOptions(symmetrize=value)


# The batch axis of identify_batch: S independent identifications.

def beam_batch(seeds, jitter=0.0, spiked=()):
    """The six beam experiments of each seed, stacked along the batch axis;
    with `jitter`, every row moves its nodes by its own small offsets, and
    the rows `spiked` move the nodes SPIKED of every experiment by SPIKE."""
    rows = [beam_load_cases(BeamSpec(), MeshPattern.square(10.0, 1.0, "x"),
                            sigma=5.6e-5, seed=6 * s) for s in seeds]
    rng = np.random.default_rng(17)
    positions, displacements = [], []
    for j in range(6):
        shared = rows[0][j].field.positions
        offsets = jitter * rng.standard_normal((len(seeds),) + shared.shape)
        positions.append(shared + offsets if jitter else shared)
        d = np.stack([row[j].field.displacements for row in rows])
        for s in spiked:
            d[s, SPIKED] += SPIKE
        displacements.append(d)
    return positions, displacements, [case.wrench for case in rows[0]]


def batch_row(batch, s):
    """Every array of one row of a BatchIdentification, the removed nodes
    among them, and the cut levels, as bytes."""
    out = [batch.sigma[s], batch.dof[s], batch.sigma_before_cut[s], batch.deflections[s],
           batch.assembled[s], batch.halfwidth[s], batch.significant[s], batch.safety[s],
           batch.matrix[s], batch.mask[s], batch.cut_levels]
    for j in range(len(batch.nodes)):
        drop = batch.dropped[j]
        out += [batch.nodes[j][s], [] if drop is None else np.flatnonzero(drop[s]),
                batch.per_experiment_sigma[j][s], batch.covariances[j][s]]
    return [np.asarray(a).tobytes() for a in out]


@pytest.mark.parametrize("jitter", [0.0, 1e-3], ids=["shared-positions", "row-positions"])
def test_batch_rows_equal_one_row_batches(jitter):
    # Rows 1 and 3 lose nodes to the outlier cut and are refit; rows 0
    # and 2 keep their initial fits.
    positions, displacements, wrenches = beam_batch(range(4), jitter, spiked=(1, 3))
    batch = stiffid.identify_batch(positions, displacements, wrenches)
    assert [int(n[1]) for n in batch.nodes] == [118] * 6
    for s in range(4):
        one = stiffid.identify_batch(
            [p if p.ndim == 2 else p[s:s + 1] for p in positions],
            [d[s:s + 1] for d in displacements], wrenches)
        assert batch_row(batch, s) == batch_row(one, 0)
        assert one.dof[0] == batch.dof[s]
        assert [n[0] for n in one.nodes] == [121 if s % 2 == 0 else 118] * 6


def node_axis_arrays(value, path="", skip="dropped"):
    """The paths of the arrays in `value`, a result record with its
    nested records and tuples, that have an axis of more than 6 entries;
    the field `skip` is not searched."""
    if isinstance(value, np.ndarray):
        return [path] if any(size > 6 for size in value.shape) else []
    if dataclasses.is_dataclass(value):
        items = [(f.name, getattr(value, f.name)) for f in dataclasses.fields(value)]
    elif isinstance(value, tuple):
        items = value._asdict().items() if hasattr(value, "_asdict") else enumerate(value)
    else:
        return []
    return [found for key, item in items if key != skip
            for found in node_axis_arrays(item, f"{path}.{key}")]


@pytest.mark.parametrize("jitter", [0.0, 1e-3], ids=["shared-positions", "row-positions"])
def test_results_hold_no_per_node_array(jitter):
    # Only the drop masks hold one value per node: the fits' residuals,
    # scores and the refits' survivors are freed experiment by
    # experiment, so a result's size does not grow with the fields.  Three
    # rows of the 121-node square keep 118 nodes in each refit.
    positions, displacements, wrenches = beam_batch(range(3), jitter, spiked=(0, 1, 2))
    batch = stiffid.identify_batch(positions, displacements, wrenches)
    assert [n.tolist() for n in batch.nodes] == [[118] * 3] * 6
    assert all(drop.shape == (3, 121) for drop in batch.dropped)
    assert node_axis_arrays(batch) == []
    cases = spiked_cases(beam_load_cases(BeamSpec(), MeshPattern.square(10.0, 1.0, "x"),
                                         sigma=5.6e-5, seed=2))
    result = run_identification(cases)
    assert result.nodes == (118,) * 6
    assert result.deflections.shape == (6, 6)
    assert node_axis_arrays(result) == []
    assert node_axis_arrays(result, skip=None) == [f".dropped.{j}" for j in range(6)]


@pytest.mark.parametrize("jitter", [0.0, 1e-3], ids=["shared-positions", "row-positions"])
def test_fits_keep_no_per_node_geometry(jitter):
    # identify_batch keeps each experiment's final geometry for the
    # covariance; the centroid-relative positions stay with the layout
    # (and a refit's die with it), so the kept record must stay
    # 3x3-sized per row however large the field.
    positions, displacements, _ = beam_batch(range(3), jitter)
    p, d = positions[0], displacements[0]
    keep = np.ones((1, d.shape[1]), dtype=bool)
    keep[:, ::10] = False
    for fit in (_fit_lin, _fit_svd):
        first = fit(*_fit_geometry(p), d)
        refit = fit(*_fit_geometry(stiffid.pipeline._survivors(p if jitter == 0.0 else p[:1],
                                                                keep)),
                    stiffid.pipeline._survivors(d[:1], keep))
        for kept in (first, refit):
            assert max(np.size(a) for a in kept.geometry) <= 9 * len(kept.objective)


def test_run_identification_is_the_one_row_batch():
    positions, displacements, wrenches = beam_batch([2, 5], spiked=(1,))
    batch = stiffid.identify_batch(positions, displacements, wrenches)
    for s, seed in enumerate([2, 5]):
        cases = beam_load_cases(BeamSpec(), MeshPattern.square(10.0, 1.0, "x"),
                                sigma=5.6e-5, seed=6 * seed)
        result = run_identification(spiked_cases(cases) if s else cases)
        assert result.matrix.k.tobytes() == batch.matrix[s].tobytes()
        assert result.assembled.k.tobytes() == batch.assembled[s].tobytes()
        assert result.deflections.tobytes() == batch.deflections[s].tobytes()
        assert [c.tobytes() for c in result.covariances] == \
            [c[s].tobytes() for c in batch.covariances]
        assert result.nodes == tuple(int(n[s]) for n in batch.nodes)
        assert result.noise.sigma == batch.sigma[s]
        assert result.sigma_before_cut == batch.sigma_before_cut[s]
        assert result.cut_levels == batch.cut_levels
        assert [list(r) for r in result.removed] == \
            [np.flatnonzero(d[s]).tolist() for d in batch.dropped] == [SPIKED * s] * 6


def lin_residuals(geometry, rel, d):
    """The residuals of a lin fit, which keeps none: the kernel's over
    the whole field."""
    fits = _fit_lin(geometry, rel, d)
    assert fits.residuals is None and fits.score.shape == d.shape[:2]
    return _lin_fit_residuals(fits, rel, d)


@pytest.mark.parametrize("refit", [False, True], ids=["no-refit", "refit"])
@pytest.mark.parametrize("residuals", [
    lin_residuals, lambda geometry, rel, d: _fit_svd(geometry, rel, d).residuals,
], ids=["lin", "svd"])
def test_row_inputs_give_plane_backed_residuals(residuals, refit):
    # identify_batch fits the arrays it is given (rows or planes), and
    # each refit the survivors that _survivors gathers into planes.
    for jitter in (0.0, 1e-3):  # shared and per-row positions
        for layout in ("rows", "planes"):
            positions, displacements, _ = beam_batch(range(3), jitter)
            # Fields hold planes, so the row inputs are made here.
            p = np.ascontiguousarray(positions[0])
            d = np.ascontiguousarray(displacements[0])
            assert p.flags.c_contiguous and d.flags.c_contiguous
            if layout == "planes":
                p, d = _planes(p), _planes(d)
            if refit:  # row 0, as the refit of a row that loses nodes gathers it
                keep = np.ones((1, d.shape[1]), dtype=bool)
                keep[:, ::10] = False
                p, d = (stiffid.pipeline._survivors(p if jitter == 0.0 else p[:1], keep),
                        stiffid.pipeline._survivors(d[:1], keep))
            r = residuals(*_fit_geometry(p), d)
            assert r.shape == d.shape
            assert r.swapaxes(-1, -2).flags.c_contiguous


@pytest.mark.parametrize("layout", ["rows", "planes"])
@pytest.mark.parametrize("rows", [1, 3])
@pytest.mark.parametrize("shared", [True, False], ids=["shared", "per-row"])
def test_survivors_equal_boolean_indexing(shared, rows, layout):
    # Each row is gathered alone, as identify_batch gathers each row that
    # loses nodes: from the shared positions or from its own slice.
    rng = np.random.default_rng(9)
    n = 12
    a = rng.normal(size=(n, 3) if shared else (rows, n, 3))
    keep = np.zeros((rows, n), dtype=bool)
    for s, row in enumerate(keep):  # a different mask in every row, 8 - s nodes
        row[rng.permutation(n)[:8 - s]] = True
    if layout == "planes":
        a = _planes(a)
    for s in range(rows):
        got = stiffid.pipeline._survivors(a if shared else a[s:s + 1], keep[s:s + 1])
        expected = (a if shared else a[s])[keep[s]][None]
        assert got.shape == expected.shape == (1, 8 - s, 3)
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
    # refit: the cut drops row 1's only node off the line
    shared = line_and_apex()
    disp = rng.normal(0.0, 1e-5, (2,) + shared.shape)
    disp[0, 4] += 1e-2
    disp[1, -1] += 1e-2
    field = DisplacementField(shared, disp[1], centered=True)
    reduced, removed = filter_outliers(field, estimate_lin(field))
    assert removed.tolist() == [9]
    with pytest.raises(DegenerateGeometry):
        estimate_lin(reduced)
    with pytest.raises(DegenerateGeometry):
        stiffid.identify_batch([shared], [disp], wrench)


def test_batch_too_few_remaining_raises():
    # The cut keeps every node up to the median, so only a field of 3
    # nodes can fall short, and a rigid fit of 3 nodes leaves no node
    # more than 4 times the median squared residual: at level 0.9 the
    # cut lies 1.55 times above it.
    pos = np.array([[-1.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    disp = np.random.default_rng(6).normal(0.0, 1e-5, (2,) + pos.shape)
    disp[0, 0] += [1e-3, 1e-3, 0.0]
    field = DisplacementField(pos, disp[0], centered=True)
    _, removed = filter_outliers(field, estimate_lin(field))
    assert removed.size == 0
    with pytest.raises(TooFewRemaining):
        filter_outliers(field, estimate_lin(field), 0.9)
    with pytest.raises(TooFewRemaining):
        stiffid.identify_batch([pos], [disp], [Wrench([1.0, 0.0, 0.0], np.zeros(3))],
                               IdentifyOptions(outlier_level=0.9))


@pytest.mark.parametrize("level, expected", [(0.0, 1), (0.1, 2)])
def test_batch_row_out_of_small_angles_warns(level, expected):
    # row 1 of three rotates by 0.05 rad in its first experiment, with
    # noise and one node far off: one warning per fit of that row, the
    # initial fit and, with the cut, the refit without that node
    pos = np.stack(np.meshgrid(*[[-1.0, 0.0, 1.0]] * 3, indexing="ij"), -1).reshape(-1, 3)
    disp = np.zeros((3,) + pos.shape)
    disp[1] = np.cross([0.0, 0.0, 0.05], pos)
    disp[1] += np.random.default_rng(12).normal(0.0, 1e-5, pos.shape)
    disp[1, 0, 2] += 1e-2
    quiet = np.zeros_like(disp)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        batch = stiffid.identify_batch([pos] * 6, [disp] + [quiet] * 5,
                                       canonical_wrench_scheme(*[1.0] * 6),
                                       IdentifyOptions(outlier_level=level))
    assert batch.nodes[0].tolist() == [27, 28 - expected, 27]
    linear = [w for w in caught if issubclass(w.category, LinearizationWarning)]
    assert len(linear) == expected
    assert all("0.05 rad" in str(w.message) for w in linear)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        estimate_lin(DisplacementField(pos, disp[1], centered=True))
    assert [w.category for w in caught] == [LinearizationWarning]


def _warning_calls():
    """Calls that warn, by name: a 27-node cube rotated by 0.05 rad, and
    a noisy square set whose symmetrized matrix is not positive
    semidefinite."""
    pos = np.stack(np.meshgrid(*[[-1.0, 0.0, 1.0]] * 3, indexing="ij"), -1).reshape(-1, 3)
    rotated = DisplacementField(pos, np.cross([0.0, 0.0, 0.05], pos), centered=True)
    cases = beam_load_cases(pattern=MeshPattern.square(10.0, 1.0, "x"), sigma=2e-2, seed=5)
    return {
        "estimate_lin": lambda: estimate_lin(rotated),
        "estimate_svd": lambda: estimate_svd(rotated),
        "run_identification": lambda: run_identification(cases),
        "identify_batch": lambda: stiffid.identify_batch(
            [case.field.positions for case in cases],
            [case.field.displacements[None] for case in cases],
            [case.wrench for case in cases]),
        "symmetrize": lambda: symmetrize(
            run_identification(cases, IdentifyOptions(symmetrize=False)).matrix),
    }


@pytest.mark.parametrize("call", ["estimate_lin", "estimate_svd", "run_identification",
                                  "identify_batch", "symmetrize"])
def test_warning_names_the_caller(call):
    # A filter on the caller's module, or a line on stderr, points at the
    # call that was made, not at a line inside the package.
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        _warning_calls()[call]()
    assert caught
    assert {w.filename for w in caught} == {__file__}


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


def test_batch_experiment_counts_checked(noisy_cases):
    # Positions, displacements and wrenches must count the same
    # experiments: an extra wrench or position raises before any fit, and
    # an extra or missing displacement array is not silently dropped.
    P = [case.field.positions for case in noisy_cases]
    D = [case.field.displacements[None] for case in noisy_cases]
    W = [case.wrench for case in noisy_cases]
    with pytest.raises(ValueError, match="6 experiments' positions but 7 wrenches"):
        stiffid.identify_batch(P, D, W + W[:1])
    with pytest.raises(ValueError, match="7 experiments' positions but 6 wrenches"):
        stiffid.identify_batch(P + P[:1], D + D[:1], W)
    with pytest.raises(ValueError, match="longer"):
        stiffid.identify_batch(P, D + [D[0] * 100], W)
    with pytest.raises(ValueError, match="shorter"):
        stiffid.identify_batch(P, D[:5], W)


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
           repr(result.removed).encode(), result.deflections, result.nodes,
           *result.covariances]
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


@pytest.mark.parametrize("refit", [False, True], ids=["no-refit", "refit"])
@pytest.mark.parametrize("layouts", ["A-B-A", "equal-copies"])
def test_shared_geometry_gives_the_same_bytes(layouts, refit, own_geometry,
                                              geometry_builds, noisy_cases):
    cases, distinct = (mixed_layout_cases(), 2) if layouts == "A-B-A" else (noisy_cases, 1)
    if refit:  # every experiment loses nodes to the cut
        cases = spiked_cases(cases)
    # DisplacementField copies its positions: no two cases share an array
    assert cases[0].field.positions is not cases[2].field.positions
    reference = own_geometry(run_identification, cases)
    n = cases[0].field.n
    del geometry_builds[:]
    shared = run_identification(cases)
    assert result_bytes(shared) == result_bytes(reference)
    # once per distinct layout; the six refits keep n - 3 nodes each and
    # share one batch, which builds one geometry
    assert geometry_builds.count(n) == distinct
    assert len(geometry_builds) == distinct + (1 if refit else 0)


def test_shared_positions_object_gives_the_same_bytes(own_geometry, geometry_builds):
    positions, displacements, wrenches = beam_batch(range(3), spiked=(1,))
    shared_object = [positions[0]] * 6
    reference = own_geometry(stiffid.identify_batch, shared_object, displacements,
                             wrenches)
    del geometry_builds[:]
    batch = stiffid.identify_batch(shared_object, displacements, wrenches)
    assert geometry_builds == [121, 118]
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


def cube27():
    return np.stack(np.meshgrid(*[[-1.0, 0.0, 1.0]] * 3, indexing="ij"), -1).reshape(-1, 3)


def test_overflowing_displacement_named_before_numpy_warns():
    disp = np.zeros((1, 27, 3))
    disp[0, 0, 1] = 1e160
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(stiffid.NonFiniteDeflection, match="residual sum of squares"):
            stiffid.identify_batch([cube27()] * 6, [disp] * 6,
                                   canonical_wrench_scheme(*[1.0] * 6))


@pytest.mark.parametrize("cells", [
    {(0, 1): np.inf},
    {(0, 1): 1e308, (1, 1): 1e308},
    {(0, 0): 1e308, (1, 1): -1e308},
], ids=["inf", "mean-overflows", "rotation-overflows"])
def test_non_finite_displacement_named_before_numpy_warns(cells):
    # An infinite dy; two finite dy whose sum overflows the mean; and a dx
    # and a dy whose lin rotation overflows, and with it its product with
    # the centroid.
    disp = np.zeros((1, 27, 3))
    for (node, axis), value in cells.items():
        disp[0, node, axis] = value
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(stiffid.NonFiniteDeflection):
            stiffid.identify_batch([cube27()] * 6, [disp] * 6,
                                   canonical_wrench_scheme(*[1.0] * 6))


def test_non_finite_assembly_named_before_numpy_warns():
    # Finite deflections of 1e10 mm over a force of 1e-300 N overflow the
    # compliance matrix.
    disp = np.full((1, 27, 3), 1e10)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(stiffid.NonFiniteCompliance, match="overflow"):
            stiffid.identify_batch([cube27()] * 6, [disp] * 6,
                                   canonical_wrench_scheme(1e-300, *[1.0] * 5))


def test_infinite_positions_named_before_numpy_warns():
    pos = cube27()
    pos[0, 0] = np.inf
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DegenerateGeometry, match="overflow"):
            stiffid.identify_batch([pos] * 6, [np.zeros((1, 27, 3))] * 6,
                                   canonical_wrench_scheme(*[1.0] * 6))


def test_only_rows_that_lose_a_node_are_refit(monkeypatch):
    # Of three rows only row 1 loses nodes to the cut: each experiment
    # fits the three rows, then row 1 of the six experiments is refit as
    # one batch, which forms the residual sums of squares that sigma is
    # pooled from.
    fitted = []

    def spy(*args, **kwargs):
        fits = fit(*args, **kwargs)
        fitted.append((len(fits.translation), fits.score.shape[-1], fits.objective))
        return fits

    fit = stiffid.pipeline._fit_lin
    monkeypatch.setattr(stiffid.pipeline, "_fit_lin", spy)
    positions, displacements, wrenches = beam_batch(range(3), spiked=(1,))
    batch = stiffid.identify_batch(positions, displacements, wrenches)
    assert [(rows, n) for rows, n, _ in fitted] == [(3, 121)] * 6 + [(6, 118)]
    refits = [objective for rows, _, objective in fitted if rows == 6]
    assert_array_equal(np.stack(batch.per_experiment_sigma)[:, 1],
                       np.sqrt(np.concatenate(refits) / (3 * 118 - 6)))
    assert_array_equal(batch.dof, [6 * (3 * 121 - 6), 6 * (3 * 118 - 6), 6 * (3 * 121 - 6)])


@pytest.fixture
def fit_rows(monkeypatch):
    """The (rows, nodes) of the fits the pipeline runs."""
    fitted = []
    original = stiffid.pipeline._fit_lin

    def counted(geometry, rel, displacements):
        fitted.append(displacements.shape[:2])
        return original(geometry, rel, displacements)

    monkeypatch.setattr(stiffid.pipeline, "_fit_lin", counted)
    return fitted


def losing_batch(rows, jitter):
    """beam_batch of `rows` seeds whose row s of experiment j moves the
    first (s + j) % 4 nodes of SPIKED, so the rows keep 121, 120, 119 or
    118 nodes, in every experiment; returned with the lost counts (6, S)."""
    positions, displacements, wrenches = beam_batch(range(rows), jitter)
    lost = (np.arange(6)[:, None] + np.arange(rows)) % 4
    for j, d in enumerate(displacements):
        for s in range(rows):
            d[s, SPIKED[:lost[j, s]]] += SPIKE
    return positions, displacements, wrenches, lost


@pytest.mark.parametrize("jitter", [0.0, 1e-3], ids=["shared-positions", "row-positions"])
def test_refit_batches_equal_one_row_batches(jitter, monkeypatch, geometry_builds,
                                             fit_rows):
    # The rows lose 0 to 3 nodes (losing_batch).  A budget of 354 nodes
    # holds 2 rows of 120 or 119 nodes, or 3 of 118, so each survivor
    # count's rows span several refit batches.
    rows = 5
    positions, displacements, wrenches, lost = losing_batch(rows, jitter)
    monkeypatch.setattr(stiffid.pipeline, "_BLOCK_NODES", 3 * 118)
    batch = stiffid.identify_batch(positions, displacements, wrenches)
    assert_array_equal(batch.nodes, 121 - lost)
    # One geometry per layout and one initial fit per experiment, and one
    # geometry and one fit per refit batch; a full batch is refit at
    # once, so the two interleave.
    layouts = 1 if jitter == 0.0 else 6
    refits = []  # (rows, nodes) of each refit batch
    for m in (120, 119, 118):
        count, full = np.count_nonzero(lost == 121 - m), 354 // m
        refits += [(full, m)] * (count // full) + ([(count % full, m)] if count % full else [])
    refits.sort()
    assert len(refits) > 3 and max(refits)[0] > 1
    assert sorted(geometry_builds) == sorted([121] * layouts + [m for _, m in refits])
    assert sorted(fit_rows) == sorted([(rows, 121)] * 6 + refits)
    for s in range(rows):
        one = stiffid.identify_batch([p if p.ndim == 2 else p[s:s + 1] for p in positions],
                                     [d[s:s + 1] for d in displacements], wrenches)
        assert batch_row(batch, s) == batch_row(one, 0)


@pytest.mark.parametrize("jitter", [0.0, 1e-3], ids=["shared-positions", "row-positions"])
def test_one_reused_displacement_buffer_gives_the_same_bytes(jitter, monkeypatch):
    # The studies draw every experiment's noise into one buffer, so the
    # core must read no experiment's displacements once it has asked for
    # the next.  The generator hands every experiment the same planes,
    # and fills them with NaN when it is asked for the next experiment
    # (after the last one too), before it refills them.  The rows lose
    # 0 to 3 nodes (losing_batch), so refit batches gather survivors
    # across experiments, some of which are refit only after the last
    # experiment.
    rows = 5
    positions, displacements, wrenches, lost = losing_batch(rows, jitter)
    monkeypatch.setattr(stiffid.pipeline, "_BLOCK_NODES", 3 * 118)
    fresh = stiffid.identify_batch(positions, [_planes(d) for d in displacements],
                                   wrenches)
    buffer = np.empty((rows, 3, 121))

    def reused():
        for d in displacements:
            buffer[...] = d.swapaxes(-1, -2)
            yield buffer.swapaxes(-1, -2)
            buffer.fill(np.nan)

    batch = stiffid.identify_batch(positions, reused(), wrenches)
    assert np.isnan(buffer).all()
    assert_array_equal(batch.nodes, 121 - lost)
    for s in range(rows):
        assert batch_row(batch, s) == batch_row(fresh, s)


def test_full_refit_batch_is_refit_at_once(monkeypatch, fit_rows):
    # With a budget of one row, each refit batch is full when its row
    # loses a node, and is refit before the next experiment is fit: the
    # rows of a large field hold no survivors across experiments.
    positions, displacements, wrenches = beam_batch(range(3), spiked=(1,))
    grouped = stiffid.identify_batch(positions, displacements, wrenches)
    del fit_rows[:]
    monkeypatch.setattr(stiffid.pipeline, "_BLOCK_NODES", 118)
    batch = stiffid.identify_batch(positions, displacements, wrenches)
    assert fit_rows == [(3, 121), (1, 118)] * 6
    for s in range(3):
        assert batch_row(batch, s) == batch_row(grouped, s)


@pytest.mark.parametrize("shared", [True, False], ids=["shared", "per-row"])
def test_degenerate_refit_batch_raises(shared):
    # Row 0 of experiment 0 loses a node on the line, and row 1 of
    # experiment 1 its only node off it: both keep 9 nodes and share
    # one refit batch, whose second row is collinear.
    pos = line_and_apex() if shared else np.stack([line_and_apex()] * 2)
    rng = np.random.default_rng(5)
    disp = [rng.normal(0.0, 1e-5, (2, 10, 3)) for _ in range(3)]
    disp[0][0, 4] += 1e-2
    disp[1][1, -1] += 1e-2
    wrenches = canonical_wrench_scheme(*[1.0] * 6)
    for j, node in ((0, 4), (1, 9)):  # each row on its own
        field = DisplacementField(line_and_apex(), disp[j][j], centered=True)
        reduced, removed = filter_outliers(field, estimate_lin(field))
        assert removed.tolist() == [node]
    with pytest.raises(DegenerateGeometry):
        estimate_lin(reduced)
    with pytest.raises(DegenerateGeometry):
        stiffid.identify_batch([pos] * 2, disp[:2], wrenches[:2])
    # The refit runs after the last experiment's initial fit, whose own
    # failure is then raised first.
    disp[2][0, 0, 1] = np.inf
    with pytest.raises(stiffid.NonFiniteDeflection):
        stiffid.identify_batch([pos] * 3, disp, wrenches[:3])


def test_same_layout_compares_bits():
    a = np.array([[0.0, 1.0, 2.0], [3.0, 4.0, 5.0]])
    assert stiffid.pipeline._same_layout(a, a.copy())
    assert not stiffid.pipeline._same_layout(a, a[:1])
    signed = a.copy()
    signed[0, 0] = -0.0  # equal as floats, not as bits
    assert np.array_equal(a, signed)
    assert not stiffid.pipeline._same_layout(a, signed)


def test_result_arrays_are_read_only(noisy_cases):
    result = run_identification(spiked_cases(noisy_cases))
    assert all(result.removed)
    for array in (result.deflections, *result.covariances, *result.dropped):
        assert not array.flags.writeable
        assert array.base is None or not array.base.flags.writeable
        with pytest.raises(ValueError):
            array[0] = 1
