"""Sensing matrices: generation, row budget, projection, isometry."""

import math

import numpy as np
import pytest

from csdetect.sensing import (
    SensingMatrix,
    empirical_rip_check,
    make_sensing_matrix,
    minimum_rows,
    project,
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


def test_minimum_rows_values():
    # 4 * 10 * ln 4096 = 480 ln 2 = 332.71..., hand-checked ceiling
    assert minimum_rows(10, 4096, 4.0) == 333
    assert minimum_rows(1, math.e, 1.5) == 2


def test_minimum_rows_rejects_degenerate_inputs():
    with pytest.raises(ValueError):
        minimum_rows(0, 4096)
    with pytest.raises(ValueError):
        minimum_rows(5, 1)
    with pytest.raises(ValueError):
        minimum_rows(5, 100, constant=1.0)


def test_project_matches_matmul():
    phi = make_sensing_matrix(6, 20, seed=2)
    x = np.random.default_rng(0).normal(size=20)
    assert np.allclose(project(phi, x), phi.entries @ x)
    with pytest.raises(ValueError):
        project(phi, np.ones(19))


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
