"""End-to-end acceptance checks.

Each test prints a single PASS/FAIL verdict line with the measured
numbers, so a full run reads as a checklist.  Tolerances are stated
inline next to each assertion; runtime budgets are wall-clock on a
single core.
"""

import json
import math
import statistics
import time

import numpy as np
import pytest

from stiffid import (
    Deflection,
    DisplacementField,
    MeshPattern,
    apply_rigid_transform,
    beam_compliance_oracle,
    beam_load_cases,
    estimate_lin,
    estimate_sigma,
    estimate_svd,
    filter_outliers,
    generate_pattern,
    load_compliance_json,
    run_amplitude_study,
    run_identification,
    run_noise_study,
    run_zero_detection_study,
    symmetrize,
)
from stiffid.cli import main

FIXTURES = "tests/data"


def _verdict(capsys, index, ok, text):
    line = f"[{index:2d}] {'PASS' if ok else 'FAIL'}  {text}"
    with capsys.disabled():
        print(line)
    assert ok, line


def _oracle_masks():
    truth = beam_compliance_oracle().k
    nonzero = truth != 0.0
    return truth, nonzero


def test_01_noise_free_round_trip(capsys, tmp_path):
    """Simulated noise-free fields identify the closed-form matrix."""
    sim = tmp_path / "sim"
    out = tmp_path / "out"
    start = time.perf_counter()
    assert main(["simulate", "--sigma", "0", "--out", str(sim)]) == 0
    assert main(["identify", str(sim / "manifest.json"), "--out", str(out)]) == 0
    runtime = time.perf_counter() - start

    k = np.array(json.loads((out / "compliance.json").read_text())["k"])
    truth, nonzero = _oracle_masks()
    rel = np.max(np.abs(k[nonzero] - truth[nonzero]) / np.abs(truth[nonzero]))
    zabs = np.max(np.abs(k[~nonzero]))
    ok = rel <= 1e-9 and zabs <= 1e-15 and runtime < 1.0
    _verdict(capsys, 1, ok,
             f"noise-free round trip: max rel {rel:.2e} (<= 1e-9), "
             f"zeros {zabs:.2e} (<= 1e-15), {runtime:.2f} s (< 1 s)")


def test_02_rotation_amplitude_bands(capsys):
    """Estimator error tracks reference bands over four decades of tilt."""
    amplitudes = (0.01, 0.05, 0.1, 0.5, 1.0, 5.0)
    ref_avg = (9e-7, 2e-5, 9e-5, 2e-3, 9e-3, 0.24)
    ref_plus = (2e-6, 4e-5, 2e-4, 4e-3, 2e-2, 0.48)
    start = time.perf_counter()
    study = run_amplitude_study(amplitudes)
    runtime = time.perf_counter() - start

    def banded(errors, ref):
        return all(r / 2 <= e <= 2 * r for e, r in zip(errors, ref))

    lin = study.max_errors["lin"]
    avg = study.max_errors["svd-avg"]
    plus = study.max_errors["svd-plus"]
    ordering = all(a <= p for a, p in zip(avg, plus))
    ok = (banded(lin, ref_avg) and banded(avg, ref_avg)
          and banded(plus, ref_plus) and ordering and runtime < 10.0)
    _verdict(capsys, 2, ok,
             f"rotation sweep 0.01..5 deg: lin/avg in band {banded(lin, ref_avg) and banded(avg, ref_avg)}, "
             f"plus in band {banded(plus, ref_plus)}, avg <= plus {ordering}, "
             f"{runtime:.2f} s (< 10 s)")


def test_03_pure_translations_exact(capsys):
    """Rigid translations are recovered to roundoff at any magnitude."""
    start = time.perf_counter()
    study = run_amplitude_study((0.01, 0.1, 1.0, 10.0), kind="translation")
    runtime = time.perf_counter() - start
    worst = max(max(study.max_errors["lin"]), max(study.max_errors["svd-avg"]))
    ok = worst <= 1e-13 and runtime < 5.0
    _verdict(capsys, 3, ok,
             f"pure translations 0.01..10 mm: worst error {worst:.2e} (<= 1e-13), "
             f"{runtime:.2f} s (< 5 s)")


def test_04_monte_carlo_noise_propagation(capsys):
    """Empirical scatter of the fit matches the headline uncertainty."""
    start = time.perf_counter()
    study = run_noise_study(sigma=5e-5, trials=500, seed=0)
    runtime = time.perf_counter() - start

    t_ok = all(abs(s - 1.37e-6) <= 0.15 * 1.37e-6
               for s in study.empirical_translation_std)
    rot_deg = [math.degrees(s) for s in study.empirical_rotation_std]
    r_ok = all(abs(s - 1.8e-5) <= 0.15 * 1.8e-5 for s in rot_deg)
    ok = t_ok and r_ok and runtime < 60.0
    _verdict(capsys, 4, ok,
             f"500-trial noise run: translation std {max(study.empirical_translation_std):.3e} mm "
             f"(1.37e-6 +-15%), rotation std {max(rot_deg):.3e} deg (1.8e-5 +-15%), "
             f"{runtime:.1f} s (< 60 s)")


def test_05_noise_level_recovery(capsys):
    """Pooled residuals recover the injected noise level."""
    sigma = 5e-5
    start = time.perf_counter()
    estimates = []
    for trial in range(100):
        cases = beam_load_cases(sigma=sigma, seed=6000 + 6 * trial)
        fits = [estimate_lin(case.field) for case in cases]
        estimates.append(estimate_sigma(fits).sigma)
    runtime = time.perf_counter() - start

    mean_err = abs(statistics.fmean(estimates) - sigma) / sigma
    single_err = max(abs(e - sigma) / sigma for e in estimates)
    ok = mean_err <= 0.01 and single_err <= 0.05 and runtime < 60.0
    _verdict(capsys, 5, ok,
             f"sigma recovery, 100 trials: mean off by {mean_err:.2%} (<= 1%), "
             f"worst single trial {single_err:.2%} (<= 5%), {runtime:.1f} s (< 60 s)")


def test_06_zero_detection(capsys):
    """Structural zeros are zeroed and true entries kept, seed after seed."""
    start = time.perf_counter()
    study = run_zero_detection_study(seeds=100, sigma=5.6e-5)
    runtime = time.perf_counter() - start
    ok = study.pass_fraction >= 0.95 and runtime < 120.0
    _verdict(capsys, 6, ok,
             f"zero detection: {study.perfect_seeds}/100 seeds perfect (>= 95), "
             f"min safety {min(study.min_safety):.0f}, {runtime:.1f} s (< 120 s)")


def test_07_single_layer_accuracy(capsys):
    """One 121-node sensor layer suffices for sub-0.1% identification."""
    truth, nonzero = _oracle_masks()
    pattern = MeshPattern.square(10.0, 1.0, "x")
    errors = []
    for seed in range(20):
        cases = beam_load_cases(pattern=pattern, sigma=5.6e-5, seed=1000 + 6 * seed)
        result = run_identification(cases)
        k = result.matrix.k
        errors.append(np.max(np.abs(k[nonzero] - truth[nonzero])
                             / np.abs(truth[nonzero])))
    med = statistics.median(errors)
    worst = max(errors)
    ok = med <= 1e-3 and worst <= 5e-3
    _verdict(capsys, 7, ok,
             f"single-layer sensor, 20 seeds: median max rel error {med:.2e} (<= 1e-3), "
             f"worst {worst:.2e} (<= 5e-3)")


def test_08_outlier_filtering_helps(capsys):
    """Filtering strictly reduces the error on contaminated fields."""
    base = generate_pattern(MeshPattern.cubic(10.0, 1.0))
    angle = math.radians(0.1) / math.sqrt(3.0)
    truth = Deflection((1.0, 1.0, 1.0), (angle, angle, angle))
    truth_vec = truth.as_vector()
    sigma = 5e-5
    n_bad = math.ceil(0.05 * base.n)

    wins = 0
    for seed in range(100):
        field = apply_rigid_transform(base, truth, sigma=sigma, seed=seed)
        rng = np.random.default_rng(10_000 + seed)
        idx = rng.choice(field.n, size=n_bad, replace=False)
        spikes = rng.normal(size=(n_bad, 3))
        spikes *= 100.0 * sigma / np.linalg.norm(spikes, axis=1, keepdims=True)
        moved = field.displacements.copy()
        moved[idx] += spikes
        dirty = DisplacementField(field.positions, moved,
                                  reference_point=field.reference_point,
                                  centered=field.centered)

        fit = estimate_lin(dirty)
        err_raw = np.linalg.norm(fit.deflection.as_vector() - truth_vec)
        kept, _ = filter_outliers(dirty, fit)
        err_filtered = np.linalg.norm(
            estimate_lin(kept).deflection.as_vector() - truth_vec)
        if err_filtered < err_raw:
            wins += 1

    ok = wins >= 95
    _verdict(capsys, 8, ok,
             f"5% contamination at 100 sigma: filtering reduced error in "
             f"{wins}/100 seeds (>= 95)")


def test_09_estimator_agreement(capsys):
    """Both estimators agree to 1e-9 on well-conditioned small-angle fields."""
    rng = np.random.default_rng(2024)
    grids = [(2.0, 1.0), (4.0, 1.0), (4.0, 2.0), (5.0, 1.0), (6.0, 1.0),
             (6.0, 2.0), (8.0, 2.0), (8.0, 4.0), (10.0, 2.0), (10.0, 5.0)]
    patterns = [generate_pattern(MeshPattern.cubic(e, s)) for e, s in grids]

    worst_t = worst_r = 0.0
    for _ in range(1000):
        field = patterns[rng.integers(len(patterns))]
        axis = rng.normal(size=3)
        axis /= np.linalg.norm(axis)
        angles = axis * math.radians(rng.uniform(0.0, 0.1))
        shift = rng.uniform(-10.0, 10.0, 3)
        moved = apply_rigid_transform(field, Deflection(shift, angles),
                                      exact_rotation=True)
        a = estimate_lin(moved).deflection
        b = estimate_svd(moved).deflection
        worst_t = max(worst_t, np.max(np.abs(a.translation - b.translation)))
        worst_r = max(worst_r, np.max(np.abs(a.rotation - b.rotation)))

    ok = worst_t <= 1e-9 and worst_r <= 1e-9
    _verdict(capsys, 9, ok,
             f"estimator agreement, 1000 random fields: worst gap "
             f"{worst_t:.1e} mm / {worst_r:.1e} rad (<= 1e-9)")


def test_10_measured_table_ingestion(capsys):
    """Published solver tables load as fixtures; no source-level rerun here.

    The mesh noise levels and the two measured link matrices come from
    external solver runs and cannot be recomputed in this package, so
    they are covered as parsing and consistency checks only.
    """
    levels = json.loads(open(f"{FIXTURES}/mesh_noise_levels.json").read())["sigma"]
    levels_ok = (len(levels) == 6 and levels["2P"] == 5.60e-5
                 and all(3e-5 <= v <= 7e-5 for v in levels.values()))

    foot = load_compliance_json(f"{FIXTURES}/measured_link_symmetric.json")
    foot_ok = (foot.asymmetry() == 0.0 and foot.k[0, 0] == 2.77e-4
               and np.all(np.isfinite(np.linalg.inv(foot.k))))

    bar = load_compliance_json(f"{FIXTURES}/measured_link_asymmetric.json")
    fixed = symmetrize(bar)
    bar_ok = (bar.asymmetry() > 5e-3 and fixed.asymmetry() == 0.0
              and math.isclose(fixed.k[1, 5], (1.13e-4 + 1.13e-3) / 2))

    ok = levels_ok and bar_ok and foot_ok
    _verdict(capsys, 10, ok,
             f"measured-table ingestion (fixtures only, no solver rerun): "
             f"noise levels {levels_ok}, symmetric link {foot_ok}, "
             f"asymmetric link flagged {bar_ok}")
