"""Sparse recovery: greedy pursuit, shrinkage-based basis pursuit."""

import math

import numpy as np
import pytest

from csdetect.recovery import (
    RecoveryParams,
    SolverTrace,
    bp_recover,
    default_max_sparsity,
    lasso_shrinkage,
    omp_recover,
    operator_norm_sq,
)
from csdetect.sensing import make_sensing_matrix


def _spike_signal(n, k, rng, values=None):
    support = np.sort(rng.choice(n, size=k, replace=False))
    x = np.zeros(n)
    x[support] = rng.choice([-1.0, 1.0], size=k) if values is None else values
    return x, support


def test_params_validation():
    RecoveryParams(max_sparsity=5, noise_budget=0.1, noise_budget_frac=0.05)
    with pytest.raises(ValueError):
        RecoveryParams(residual_tol=0.0)
    with pytest.raises(ValueError):
        RecoveryParams(max_iterations=0)
    with pytest.raises(ValueError):
        RecoveryParams(noise_budget=-1.0)
    with pytest.raises(ValueError):
        RecoveryParams(shrinkage_step=1.5)
    with pytest.raises(ValueError):
        RecoveryParams(max_sparsity=0)


def test_default_max_sparsity_inverts_row_budget():
    # 333 / (4 ln 4096) = 10.009..., hand-checked ceiling
    assert default_max_sparsity(333, 4096) == 11
    assert default_max_sparsity(1, 10) == 1


def test_omp_single_column():
    phi = make_sensing_matrix(30, 100, seed=1)
    y = phi.entries[:, 17]
    trace = SolverTrace()
    f_hat = omp_recover(y, phi, trace=trace)
    assert list(f_hat.indices) == [18]
    assert f_hat.values[0] == pytest.approx(1.0, abs=1e-12)
    assert trace.iterations == 1
    assert trace.converged


def test_omp_zero_measurement():
    phi = make_sensing_matrix(30, 100, seed=1)
    f_hat = omp_recover(np.zeros(30), phi)
    assert f_hat.nnz == 0


def test_omp_exact_recovery_at_design_point():
    phi = make_sensing_matrix(333, 4096, seed=5)
    rng = np.random.default_rng(6)
    x, support = _spike_signal(4096, 10, rng)
    f_hat = omp_recover(phi.entries @ x, phi, RecoveryParams(max_sparsity=10))
    assert np.array_equal(f_hat.indices, support + 1)
    assert np.max(np.abs(f_hat.to_dense() - x)) < 1e-8


def test_omp_rejects_wrong_measurement_length():
    phi = make_sensing_matrix(30, 100, seed=1)
    with pytest.raises(ValueError):
        omp_recover(np.zeros(29), phi)


def test_operator_norm_estimate_brackets_truth():
    rng = np.random.default_rng(2)
    a = rng.normal(size=(40, 120))
    truth = float(np.linalg.norm(a, 2)) ** 2
    est = operator_norm_sq(a)
    assert truth <= est <= 1.2 * truth


def test_lasso_objectives_never_increase():
    rng = np.random.default_rng(3)
    a = rng.normal(size=(30, 80))
    y = rng.normal(size=30)
    step = 1.0 / operator_norm_sq(a)
    _, objs = lasso_shrinkage(y, a, lam=0.5, step=step, iterations=200)
    diffs = np.diff(objs)
    assert np.all(diffs <= 1e-12)


def test_lasso_huge_lambda_yields_zero():
    rng = np.random.default_rng(4)
    a = rng.normal(size=(20, 50))
    y = rng.normal(size=20)
    lam = 10.0 * float(np.max(np.abs(a.T @ y)))
    x, _ = lasso_shrinkage(y, a, lam=lam, step=1.0 / operator_norm_sq(a), iterations=50)
    assert np.allclose(x, 0.0)


def test_bp_matches_omp_on_single_column():
    phi = make_sensing_matrix(30, 100, seed=1)
    y = phi.entries[:, 17]
    bp = bp_recover(y, phi)
    omp = omp_recover(y, phi)
    assert np.allclose(bp.to_dense(), omp.to_dense(), atol=1e-6)


def test_bp_zero_measurement():
    phi = make_sensing_matrix(30, 100, seed=1)
    assert bp_recover(np.zeros(30), phi).nnz == 0


def test_bp_noisy_recovery_at_design_point():
    phi = make_sensing_matrix(333, 4096, seed=8)
    rng = np.random.default_rng(9)
    x, support = _spike_signal(4096, 10, rng)
    y_clean = phi.entries @ x
    noise = rng.normal(size=333)
    noise *= 0.01 * np.linalg.norm(y_clean) / np.linalg.norm(noise)
    y = y_clean + noise
    f_hat = bp_recover(
        y, phi, RecoveryParams(noise_budget=float(np.linalg.norm(noise)))
    )
    assert set(f_hat.indices) >= set(support + 1)
    rel = np.linalg.norm(f_hat.to_dense() - x) / np.linalg.norm(x)
    assert rel < 0.05


def test_recovery_commutes_with_measurement_scaling():
    phi = make_sensing_matrix(40, 128, seed=10)
    rng = np.random.default_rng(11)
    x, _ = _spike_signal(128, 4, rng)
    y = phi.entries @ x
    for solver in (omp_recover, bp_recover):
        base = solver(y, phi).to_dense()
        scaled = solver(1e3 * y, phi).to_dense()
        assert np.allclose(scaled, 1e3 * base, rtol=1e-6, atol=1e-9)


def test_bp_trace_is_populated():
    phi = make_sensing_matrix(30, 100, seed=12)
    rng = np.random.default_rng(13)
    x, _ = _spike_signal(100, 3, rng)
    trace = SolverTrace()
    bp_recover(phi.entries @ x, phi, trace=trace)
    assert trace.iterations > 0
    assert trace.converged
    assert trace.lambda_path and trace.lambda_path == sorted(trace.lambda_path, reverse=True)
    assert math.isfinite(trace.final_residual)


def test_diagnostic_median_error_grows_with_noise():
    phi = make_sensing_matrix(64, 256, seed=3)
    sigmas = (0.01, 0.05, 0.1)
    medians = []
    for sigma in sigmas:
        errs = []
        for seed in range(50):
            rng = np.random.default_rng(1000 + seed)
            x, _ = _spike_signal(256, 3, rng)
            y = phi.entries @ x
            noise = rng.normal(size=64)
            noise *= sigma * np.linalg.norm(y) / np.linalg.norm(noise)
            f_hat = bp_recover(
                y + noise, phi, RecoveryParams(noise_budget_frac=sigma)
            )
            errs.append(float(np.sum((f_hat.to_dense() - x) ** 2)))
        medians.append(float(np.median(errs)))
    assert medians[0] <= medians[1] <= medians[2]
