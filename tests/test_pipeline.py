"""End-to-end identification: scheme detection, filtering, noise-free zeros."""

import numpy as np
import pytest

import stiffid.pipeline
from stiffid import (
    BeamSpec,
    IdentifyOptions,
    LoadCase,
    MeshPattern,
    Wrench,
    beam_compliance_oracle,
    beam_load_cases,
    run_identification,
)

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
    monkeypatch.setattr(stiffid.pipeline, "filter_outliers",
                        lambda field, fit, fraction: (field, np.empty(0, dtype=int)))
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
