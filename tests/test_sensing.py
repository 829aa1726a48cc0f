"""Sensing matrices: generation and isometry."""

import math

import numpy as np
import pytest

from csdetect.sensing import (
    SensingMatrix,
    empirical_rip_check,
    make_sensing_matrix,
)


def test_same_triple_gives_identical_matrix():
    a = make_sensing_matrix(20, 50, seed=3)
    b = make_sensing_matrix(20, 50, seed=3)
    assert a == b
    assert a != make_sensing_matrix(20, 50, seed=4)


def test_entry_statistics():
    m, n = 100, 1000
    phi = make_sensing_matrix(m, n, seed=11)
    # entries are iid N(0, 1/m): the grand mean concentrates at
    # 3 sigma / sqrt(mn) and the entry std at 1/sqrt(m)
    tol = 3.0 / (math.sqrt(m) * math.sqrt(m * n))
    assert abs(float(phi.entries.mean())) < tol
    assert float(phi.entries.std()) == pytest.approx(1.0 / math.sqrt(m), rel=0.02)


def test_projection_must_compress():
    with pytest.raises(ValueError):
        make_sensing_matrix(50, 50, seed=0)
    with pytest.raises(ValueError):
        make_sensing_matrix(0, 50, seed=0)
    with pytest.raises(ValueError):
        SensingMatrix(entries=np.ones((3, 2)), seed=0)


def test_rip_orthonormal_matrix_is_exact_isometry():
    rng = np.random.default_rng(5)
    q, _ = np.linalg.qr(rng.normal(size=(64, 64)))
    report = empirical_rip_check(q, sparsity=4, trials=50, seed=1)
    assert report.delta_observed < 1e-10
    assert report.violation_count == 0


def test_rip_gaussian_matrix_at_design_point():
    phi = make_sensing_matrix(333, 4096, seed=42)
    report = empirical_rip_check(phi, sparsity=10, trials=1000, seed=7)
    assert report.delta_observed < 0.6
    assert report.violation_count == 0
    assert report.trials == 1000 and report.sparsity_tested == 10


def test_rip_zero_trials_is_vacuous():
    phi = make_sensing_matrix(10, 40, seed=0)
    report = empirical_rip_check(phi, sparsity=2, trials=0, seed=0)
    assert report.delta_observed == 0.0
    assert report.violation_count == 0


def test_rip_rejects_oversparse_request():
    phi = make_sensing_matrix(10, 40, seed=0)
    with pytest.raises(ValueError):
        empirical_rip_check(phi, sparsity=21, trials=10, seed=0)


def test_gram_is_cached_read_only_and_exact():
    phi = make_sensing_matrix(112, 184, seed=3)
    gram = phi.gram
    assert gram is phi.gram
    assert (gram.dtype, gram.shape) == (np.float64, (184, 184))
    assert np.array_equal(gram, phi.entries.T @ phi.entries)
    assert not gram.flags.writeable
    with pytest.raises(ValueError):
        gram[0, 0] = 1.0
