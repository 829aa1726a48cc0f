"""Sparse recovery: greedy pursuit, shrinkage-based basis pursuit."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from csdetect.recovery import (
    RecoveryParams,
    bp_recover,
    bp_recover_rows,
    default_max_sparsity,
    lasso_shrinkage,
    omp_recover,
    omp_recover_rows,
    operator_norm_sq,
)
from csdetect.sensing import SensingMatrix, make_sensing_matrix


def _spike_signal(n, k, rng, values=None):
    support = np.sort(rng.choice(n, size=k, replace=False))
    x = np.zeros(n)
    x[support] = rng.choice([-1.0, 1.0], size=k) if values is None else values
    return x, support


def test_params_validation():
    RecoveryParams(solver="omp", max_sparsity=5, noise_budget_frac=0.05)
    with pytest.raises(ValueError, match="solver must be bp or omp, got 'lp'"):
        RecoveryParams(solver="lp")
    with pytest.raises(ValueError):
        RecoveryParams(residual_tol=0.0)
    with pytest.raises(ValueError):
        RecoveryParams(max_iterations=0)
    with pytest.raises(ValueError):
        RecoveryParams(noise_budget_frac=-1.0)
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
    x, iterations, converged = omp_recover_rows(y[None, :], phi)
    assert (x.dtype, x.shape) == (np.float64, (1, 100))
    assert np.flatnonzero(x[0]).tolist() == [17]
    assert x[0, 17] == pytest.approx(1.0, abs=1e-12)
    assert iterations.tolist() == [1]
    assert converged.tolist() == [True]
    assert np.array_equal(omp_recover(y, phi), x[0])


def test_omp_zero_measurement():
    phi = make_sensing_matrix(30, 100, seed=1)
    f_hat = omp_recover(np.zeros(30), phi)
    assert np.array_equal(f_hat, np.zeros(100))


def test_omp_exact_recovery_at_design_point():
    phi = make_sensing_matrix(333, 4096, seed=5)
    rng = np.random.default_rng(6)
    x, support = _spike_signal(4096, 10, rng)
    f_hat = omp_recover(phi.entries @ x, phi, RecoveryParams(max_sparsity=10))
    assert np.array_equal(np.flatnonzero(f_hat), support)
    assert np.max(np.abs(f_hat - x)) < 1e-8


def test_omp_rejects_wrong_measurement_length():
    phi = make_sensing_matrix(30, 100, seed=1)
    with pytest.raises(ValueError):
        omp_recover(np.zeros(29), phi)


def _omp_one_at_a_time(y, phi, params):
    """Reference OMP on one measurement vector: a fresh least-squares (SVD)
    refit of the whole active set after every atom. Returns the dense
    solution, the iteration count, the converged flag and the picked
    columns in pick order."""
    a = phi.entries
    m, n = a.shape
    x = np.zeros(n)
    norm_y = float(np.linalg.norm(y))
    if norm_y == 0.0:
        return x, 0, True, []
    tol = params.residual_tol * norm_y
    kmax = min(params.max_sparsity or default_max_sparsity(m, n), m, params.max_iterations)
    active = []
    coeffs = np.zeros(0)
    residual = y.copy()
    converged = False
    while len(active) < kmax:
        corr = a.T @ residual
        corr[active] = 0.0
        j = int(np.argmax(np.abs(corr)))
        if corr[j] == 0.0:
            break
        active.append(j)
        coeffs = np.linalg.lstsq(a[:, active], y, rcond=None)[0]
        residual = y - a[:, active] @ coeffs
        if np.linalg.norm(residual) <= tol:
            converged = True
            break
    x[active] = coeffs
    return x, len(active), converged, active


def _assert_matches_reference(y, phi, params, dense, iterations, converged):
    x, ref_iterations, ref_converged, picked = _omp_one_at_a_time(y, phi, params)
    # relative to the row's peak: an atom picked on the way can refit to
    # rounding noise, exactly 0 in the reference's lstsq (not stored) and
    # about 1e-16 in the batched normal equations (stored)
    peak = float(np.max(np.abs(x), initial=0.0))
    nonzero = set(np.flatnonzero(x).tolist())
    stored = set(np.flatnonzero(dense).tolist())
    assert nonzero <= stored
    for j in stored - nonzero:
        assert j in picked
        assert abs(dense[j]) <= 1e-10 * peak
    np.testing.assert_allclose(dense, x, rtol=1e-10, atol=1e-10 * peak)
    assert iterations == ref_iterations
    assert converged == ref_converged


def _omp_stack(phi, rng):
    """All-zero rows, exactly sparse rows of 1 to 4 atoms, noisy sparse rows
    and dense rows with no sparse explanation."""
    a = phi.entries
    m, n = a.shape
    rows = [np.zeros(m)]
    for k in (1, 2, 3, 4):
        x, _ = _spike_signal(n, k, rng, values=rng.choice([-1.0, 1.0], size=k) * rng.uniform(0.5, 2.0, size=k))
        rows.append(a @ x)
    rows.append(np.zeros(m))
    for k in (2, 5):
        x, _ = _spike_signal(n, k, rng)
        y = a @ x
        noise = rng.normal(size=m)
        rows.append(y + noise * (0.05 * np.linalg.norm(y) / np.linalg.norm(noise)))
    rows.extend(rng.normal(size=(2, m)))
    return np.array(rows)


@pytest.mark.parametrize(
    "params",
    [
        RecoveryParams(),
        RecoveryParams(max_sparsity=6),
        RecoveryParams(max_sparsity=6, max_iterations=3),
        RecoveryParams(max_sparsity=30),
    ],
    ids=["default-cap", "cap6", "cap6-iter3", "cap-M"],
)
def test_omp_rows_match_one_at_a_time_reference(params):
    phi = make_sensing_matrix(30, 100, seed=31)
    ys = _omp_stack(phi, np.random.default_rng(32))
    stacked, iterations, converged = omp_recover_rows(ys, phi, params)
    assert (stacked.dtype, stacked.shape) == (np.float64, (len(ys), 100))
    assert (iterations.dtype, iterations.shape) == (np.int64, (len(ys),))
    assert (converged.dtype, converged.shape) == (bool, (len(ys),))
    for y, row, its, done in zip(ys, stacked, iterations, converged):
        _assert_matches_reference(y, phi, params, row, its, done)
    # the stack really mixes the cases: all-zero rows, rows that converge
    # before the cap and rows that stop at it
    kmax = min(params.max_sparsity or default_max_sparsity(30, 100), params.max_iterations)
    assert (iterations[0], converged[0]) == (0, True)
    assert (converged & (0 < iterations) & (iterations < kmax)).any()
    assert (iterations == kmax).any()
    if kmax < 30:
        assert (~converged & (iterations == kmax)).any()


def test_omp_rows_all_converging_before_the_cap():
    # every row leaves the stack before the last step, so none is left for
    # the cap-time finish
    phi = make_sensing_matrix(30, 100, seed=36)
    rng = np.random.default_rng(37)
    ys = np.array([phi.entries @ _spike_signal(100, k, rng)[0] for k in (1, 2, 3, 1)] + [np.zeros(30)])
    params = RecoveryParams(max_sparsity=6)
    stacked, iterations, converged = omp_recover_rows(ys, phi, params)
    assert iterations.tolist() == [1, 2, 3, 1, 0]
    assert converged.all()
    for y, row, its, done in zip(ys, stacked, iterations, converged):
        _assert_matches_reference(y, phi, params, row, its, done)


def test_omp_row_does_not_depend_on_its_stack():
    phi = make_sensing_matrix(30, 100, seed=33)
    ys = _omp_stack(phi, np.random.default_rng(34))
    params = RecoveryParams(max_sparsity=8)
    forward = omp_recover_rows(ys, phi, params)
    backward = [v[::-1] for v in omp_recover_rows(ys[::-1], phi, params)]
    for r, y in enumerate(ys):
        (alone,), alone_iterations, alone_converged = omp_recover_rows(y[None, :], phi, params)
        # atoms that refit to rounding noise may differ in their last bits
        peak = float(np.max(np.abs(alone), initial=0.0))
        for stacked, iterations, converged in (forward, backward):
            assert np.array_equal(np.flatnonzero(stacked[r]), np.flatnonzero(alone))
            np.testing.assert_allclose(stacked[r], alone, rtol=1e-12, atol=1e-12 * peak)
            assert iterations[r] == alone_iterations[0]
            assert converged[r] == alone_converged[0]


def test_omp_row_orthogonal_to_every_column_stops_empty():
    # a zero last row leaves e_M orthogonal to every column: the best
    # correlation is exactly 0 before the first atom
    entries = make_sensing_matrix(12, 40, seed=35).entries.copy()
    entries[-1] = 0.0
    phi = SensingMatrix(entries=entries, seed=35)
    y = np.zeros(12)
    y[-1] = 2.0
    ys = np.array([y, entries[:, 3] + entries[:, 7]])
    stacked, iterations, converged = omp_recover_rows(ys, phi, RecoveryParams(max_sparsity=4))
    assert not stacked[0].any()
    assert (iterations[0], converged[0]) == (0, False)
    assert np.flatnonzero(stacked[1]).tolist() == [3, 7]
    assert converged[1]


@settings(max_examples=40, deadline=None)
# an atom the reference refits to exactly 0 is stored at about -1.5e-16
@example(m=8, extra_cols=1, kinds=["sparse"], cap=4, seed=187)
@example(m=13, extra_cols=20, kinds=["sparse", "sparse"], cap=4, seed=479001601)
@given(
    m=st.integers(4, 16),
    extra_cols=st.integers(1, 40),
    kinds=st.lists(st.sampled_from(["zero", "sparse", "noisy", "dense"]), min_size=1, max_size=8),
    cap=st.one_of(st.none(), st.integers(1, 16)),
    seed=st.integers(0, 2**32 - 1),
)
def test_omp_rows_match_reference_on_random_stacks(m, extra_cols, kinds, cap, seed):
    n = m + extra_cols
    rng = np.random.default_rng(seed)
    phi = make_sensing_matrix(m, n, seed=int(rng.integers(2**31)))
    rows = []
    for kind in kinds:
        if kind == "zero":
            rows.append(np.zeros(m))
        elif kind == "dense":
            rows.append(rng.normal(size=m))
        else:
            x, _ = _spike_signal(n, int(rng.integers(1, m + 1)), rng, values=None)
            y = phi.entries @ x
            if kind == "noisy":
                y = y + 0.05 * rng.normal(size=m)
            rows.append(y)
    ys = np.array(rows)
    params = RecoveryParams(max_sparsity=cap)
    for y, row, its, done in zip(ys, *omp_recover_rows(ys, phi, params)):
        _assert_matches_reference(y, phi, params, row, its, done)


def test_omp_rows_validation():
    phi = make_sensing_matrix(30, 100, seed=1)
    with pytest.raises(ValueError):
        omp_recover_rows(np.zeros(30), phi)
    with pytest.raises(ValueError):
        omp_recover_rows(np.zeros((2, 29)), phi)
    _assert_empty(omp_recover_rows(np.zeros((0, 30)), phi))


def _assert_empty(result):
    stacked, iterations, converged = result
    assert (stacked.dtype, stacked.shape) == (np.float64, (0, 100))
    assert (iterations.dtype, iterations.shape) == (np.int64, (0,))
    assert (converged.dtype, converged.shape) == (bool, (0,))


def test_operator_norm_estimate_brackets_truth():
    rng = np.random.default_rng(2)
    a = rng.normal(size=(40, 120))
    truth = float(np.linalg.norm(a, 2)) ** 2
    est = operator_norm_sq(a)
    assert truth <= est <= 1.2 * truth


def test_lasso_objectives_never_increase():
    rng = np.random.default_rng(3)
    a = rng.normal(size=(30, 80))
    ys = rng.normal(size=(6, 30))
    lam = np.array([0.0, 0.05, 0.5, 2.0, 8.0, 1e3])
    step = 1.0 / operator_norm_sq(a)

    def objective(x):
        r = ys - x @ a.T
        return 0.5 * np.sum(r * r, axis=1) + lam * np.sum(np.abs(x), axis=1)

    # the iteration is deterministic, so a run of k iterations ends at the
    # k-th iterate of any longer run
    iterates = [lasso_shrinkage(ys, a, lam=lam, step=step, iterations=k) for k in range(201)]
    assert all(x.shape == (6, 80) for x in iterates)
    objs = np.array([objective(x) for x in iterates])
    assert np.all(np.diff(objs, axis=0) <= 1e-12)
    with pytest.raises(ValueError):
        lasso_shrinkage(ys[2], a, lam=0.5, step=step, iterations=200)


def test_lasso_huge_lambda_yields_zero():
    rng = np.random.default_rng(4)
    a = rng.normal(size=(20, 50))
    y = rng.normal(size=20)
    lam = 10.0 * float(np.max(np.abs(a.T @ y)))
    x = lasso_shrinkage(y[None, :], a, lam=lam, step=1.0 / operator_norm_sq(a), iterations=50)
    assert np.allclose(x, 0.0)


def test_bp_matches_omp_on_single_column():
    phi = make_sensing_matrix(30, 100, seed=1)
    y = phi.entries[:, 17]
    bp = bp_recover(y, phi, RecoveryParams(noise_budget_frac=0.0))
    omp = omp_recover(y, phi)
    assert np.allclose(bp, omp, atol=1e-6)


def test_bp_zero_measurement():
    phi = make_sensing_matrix(30, 100, seed=1)
    assert np.array_equal(bp_recover(np.zeros(30), phi), np.zeros(100))


def test_bp_noisy_recovery_at_design_point():
    phi = make_sensing_matrix(333, 4096, seed=8)
    rng = np.random.default_rng(9)
    x, support = _spike_signal(4096, 10, rng)
    y_clean = phi.entries @ x
    noise = rng.normal(size=333)
    noise *= 0.01 * np.linalg.norm(y_clean) / np.linalg.norm(noise)
    y = y_clean + noise
    f_hat = bp_recover(
        y, phi, RecoveryParams(noise_budget_frac=float(np.linalg.norm(noise) / np.linalg.norm(y)))
    )
    assert set(np.flatnonzero(f_hat)) >= set(support)
    rel = np.linalg.norm(f_hat - x) / np.linalg.norm(x)
    assert rel < 0.05


def test_recovery_commutes_with_measurement_scaling():
    phi = make_sensing_matrix(40, 128, seed=10)
    rng = np.random.default_rng(11)
    x, _ = _spike_signal(128, 4, rng)
    y = phi.entries @ x
    for solver in (omp_recover, bp_recover):
        base = solver(y, phi)
        scaled = solver(1e3 * y, phi)
        assert np.allclose(scaled, 1e3 * base, rtol=1e-6, atol=1e-9)


def test_bp_reports_iterations_and_convergence():
    phi = make_sensing_matrix(30, 100, seed=12)
    rng = np.random.default_rng(13)
    x, _ = _spike_signal(100, 3, rng)
    y = phi.entries @ x
    x, iterations, converged = bp_recover_rows(y[None, :], phi)
    assert (x.dtype, x.shape) == (np.float64, (1, 100))
    assert np.array_equal(x[0], bp_recover(y, phi))
    assert (iterations.dtype, converged.dtype) == (np.int64, bool)
    # whole shrinkage phases of 25 iterations
    assert iterations[0] > 0 and iterations[0] % 25 == 0
    assert converged.tolist() == [True]


def test_bp_row_without_a_refit_returns_its_last_iterate():
    # 3 rows cannot refit the wider supports that shrinkage leaves, so the
    # row never converges and keeps its last shrinkage iterate
    phi = make_sensing_matrix(3, 80, seed=2)
    y = np.random.default_rng(2).normal(size=3)
    ys = np.array([y, phi.entries[:, 5]])
    stacked, iterations, converged = bp_recover_rows(ys, phi, RecoveryParams(max_iterations=25))
    a = phi.entries
    lam = 0.25 * float(np.max(np.abs(a.T @ y)))
    x = lasso_shrinkage(y[None, :], a, lam, 1.0 / operator_norm_sq(a), 25)
    assert np.count_nonzero(x) > 3
    # stacked with another row, the products may differ in their last bits
    np.testing.assert_allclose(stacked[0], x[0], rtol=1e-12, atol=0.0)
    assert (iterations[0], converged[0]) == (25, False)


def _mixed_stack(phi, rng):
    """Rows that converge at once (zero, one column), clean and 2%-noisy
    sparse rows that converge in later phases, and a dense row with no
    sparse explanation that only stops at the iteration cap."""
    a = phi.entries
    m, n = a.shape
    rows = [np.zeros(m), a[:, 5].copy()]
    for k, noisy in ((3, False), (6, False), (2, True), (3, True), (5, True), (8, True), (12, True)):
        x, _ = _spike_signal(n, k, rng, values=rng.choice([-1.0, 1.0], size=k) * rng.uniform(0.5, 2.0, size=k))
        y = a @ x
        if noisy:
            noise = rng.normal(size=m)
            y += noise * (0.02 * np.linalg.norm(y) / np.linalg.norm(noise))
        rows.append(y)
    rows.append(rng.normal(size=m))
    return np.array(rows)


@pytest.mark.parametrize(
    "params",
    [
        RecoveryParams(noise_budget_frac=0.05),
        RecoveryParams(noise_budget_frac=0.05, max_iterations=60),
        RecoveryParams(noise_budget_frac=0.0),
    ],
    ids=["frac0.05", "frac0.05-cap60", "frac0"],
)
def test_bp_rows_match_one_row_calls(params):
    phi = make_sensing_matrix(40, 128, seed=21)
    ys = _mixed_stack(phi, np.random.default_rng(22))
    stacked, iterations, converged = bp_recover_rows(ys, phi, params)
    assert (stacked.dtype, stacked.shape) == (np.float64, (len(ys), 128))
    for y, row, its, done in zip(ys, stacked, iterations, converged):
        (one,), one_iterations, one_converged = bp_recover_rows(y[None, :], phi, params)
        assert np.array_equal(np.flatnonzero(row), np.flatnonzero(one))
        np.testing.assert_allclose(row, one, rtol=1e-12, atol=0.0)
        assert its == one_iterations[0]
        assert done == one_converged[0]
        assert np.array_equal(bp_recover(y, phi, params), one)
    # the stack really mixes the cases: an all-zero row, rows done after
    # the first phase, rows done later, and rows stopped by the cap
    cap = params.max_iterations
    assert (iterations[0], converged[0]) == (0, True)
    assert (converged & (iterations == 25)).any()
    assert (converged & (25 < iterations) & (iterations < cap)).any()
    assert (~converged & (iterations == cap)).any()


def test_bp_rows_validation():
    phi = make_sensing_matrix(30, 100, seed=1)
    with pytest.raises(ValueError):
        bp_recover_rows(np.zeros(30), phi)
    with pytest.raises(ValueError):
        bp_recover_rows(np.zeros((2, 29)), phi)
    with pytest.raises(ValueError):
        bp_recover(np.zeros(29), phi)
    _assert_empty(bp_recover_rows(np.zeros((0, 30)), phi))


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
            errs.append(float(np.sum((f_hat - x) ** 2)))
        medians.append(float(np.median(errs)))
    assert medians[0] <= medians[1] <= medians[2]
