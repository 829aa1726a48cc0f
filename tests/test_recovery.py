"""Sparse recovery: greedy pursuit, shrinkage-based basis pursuit."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import csdetect.recovery as recovery
from csdetect.recovery import (
    RecoveryParams,
    _refit_rows,
    _stack,
    bp_recover,
    bp_recover_rows,
    default_max_sparsity,
    lasso_shrinkage,
    omp_recover,
    omp_recover_rows,
)
from csdetect.sensing import SensingMatrix, make_sensing_matrix, operator_norm_sq


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
        RecoveryParams(max_iterations=0)
    with pytest.raises(ValueError):
        RecoveryParams(noise_budget_frac=-1.0)
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
    tol = 1e-8 * norm_y
    # no residual correlates with a column by more than ||y|| max_j ||phi_j||;
    # 1e-12 of that is rounding dust
    floor = 1e-12 * norm_y * float(np.max(np.linalg.norm(a, axis=0)))
    kmax = min(params.max_sparsity or default_max_sparsity(m, n), m, params.max_iterations)
    active = []
    coeffs = np.zeros(0)
    residual = y.copy()
    converged = False
    while len(active) < kmax:
        corr = a.T @ residual
        corr[active] = 0.0
        j = int(np.argmax(np.abs(corr)))
        if abs(corr[j]) <= floor:
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
    # rounding noise, exactly 0 on one side (not stored) and about 1e-16 on
    # the other (stored), in the reference's lstsq or in the Cholesky refit
    peak = float(np.max(np.abs(x), initial=0.0))
    nonzero = set(np.flatnonzero(x).tolist())
    stored = set(np.flatnonzero(dense).tolist())
    for j in nonzero ^ stored:
        assert j in picked
        assert max(abs(dense[j]), abs(x[j])) <= 1e-10 * peak
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


def _shipped_omp_stack():
    """The ensemble config's 112x184 matrix and 27 rows: codes of 1 to 4
    spikes, exact on even rows and with 5% noise on odd ones; returns
    (phi, ys, spikes per row)."""
    phi = make_sensing_matrix(112, 184, seed=1234)
    rng = np.random.default_rng(24)
    rows, spikes = [], []
    for r in range(27):
        k = 1 + r % 4
        x, _ = _spike_signal(184, k, rng, values=rng.choice([-1.0, 1.0], size=k) * rng.uniform(0.5, 2.0, size=k))
        y = phi.entries @ x
        if r % 2:
            noise = rng.normal(size=112)
            y += noise * (0.05 * np.linalg.norm(y) / np.linalg.norm(noise))
        rows.append(y)
        spikes.append(k)
    return phi, np.array(rows), spikes


def test_omp_rows_match_the_reference_at_the_shipped_shape():
    # at max_sparsity 10, exact codes converge after their own atoms and
    # noisy ones run to the cap; supports, iteration counts and converged
    # flags are the reference's
    phi, ys, spikes = _shipped_omp_stack()
    params = RecoveryParams(solver="omp", max_sparsity=10)
    stacked, iterations, converged = omp_recover_rows(ys, phi, params)
    for y, row, its, done in zip(ys, stacked, iterations, converged):
        _assert_matches_reference(y, phi, params, row, its, done)
        picked = _omp_one_at_a_time(y, phi, params)[3]
        assert np.array_equal(np.flatnonzero(row), np.sort(picked))
    exact = np.arange(27) % 2 == 0
    assert converged.tolist() == exact.tolist()
    assert iterations.tolist() == [k if e else 10 for k, e in zip(spikes, exact)]


def _omp_formula_by_formula(ys, phi, params):
    """omp_recover_rows's Cholesky pursuit written one formula at a time,
    one row at a time, with fresh arrays for every quantity and no
    preselect: every row's residual is formed and measured after every
    atom. Phi^T y of the scaled live rows is one product, and every other
    product is the solver's batched product on a one-row batch, so the
    arithmetic is the solver's. Returns (x, iterations, converged)."""
    a, gram = phi.entries, phi.gram
    m, n = a.shape
    rows = len(ys)
    kmax = min(params.max_sparsity or default_max_sparsity(m, n), m, params.max_iterations)
    norms = np.array([np.linalg.norm(y) for y in ys])
    e = np.frexp(norms)[1]
    y_s, norm_s = np.ldexp(ys, -e[:, None]), np.ldexp(norms, -e)
    live = np.flatnonzero(norms)
    aty = np.zeros((rows, n))
    aty[live] = y_s[live] @ a
    floor = 1e-12 * float(np.sqrt(np.max(np.diagonal(gram))))
    x = np.zeros((rows, n))
    iterations = np.zeros(rows, dtype=np.int64)
    converged = norms == 0.0
    for i in live:
        support, g = [], np.zeros((1, 0, n))
        l_inv, u, c = np.zeros((1, 0, 0)), np.zeros((1, 0)), np.zeros((1, 0))
        while len(support) < kmax and not converged[i]:
            k = len(support)
            corr = np.abs(aty[i : i + 1] - (c[:, None, :] @ g)[:, 0, :])
            corr[0, support] = 0.0
            p = int(np.argmax(corr[0]))
            w = (l_inv @ g[:, :, p][:, :, None])[:, :, 0]
            pivot = gram[p, p] - (w[:, None, :] @ w[:, :, None])[0, 0, 0]
            if not (corr[0, p] > floor * norm_s[i] and pivot > 0.0):
                break
            d = np.sqrt(pivot)
            grown = np.zeros((1, k + 1, k + 1))
            grown[:, :k, :k] = l_inv
            grown[0, k, :k] = -(w[:, None, :] @ l_inv)[0, 0] / d
            grown[0, k, k] = 1.0 / d
            u_k = (aty[i, p] - (w[:, None, :] @ u[:, :, None])[0, 0, 0]) / d
            l_inv, u = grown, np.append(u, u_k)[None, :]
            c = (u[:, None, :] @ l_inv)[:, 0, :]
            support.append(p)
            g = np.concatenate([g, gram[p][None, None, :]], axis=1)
            residual = y_s[i : i + 1] - (c[:, None, :] @ a.T[support][None])[:, 0, :]
            converged[i] = np.linalg.norm(residual, axis=1)[0] <= 1e-8 * norm_s[i]
        x[i, support] = np.ldexp(c[0], e[i])
        iterations[i] = len(support)
    return x, iterations, converged


@pytest.mark.parametrize(
    "params",
    [
        RecoveryParams(),
        RecoveryParams(max_sparsity=6),
        RecoveryParams(max_sparsity=6, max_iterations=3),
        RecoveryParams(max_sparsity=10),
        RecoveryParams(max_sparsity=30),
    ],
    ids=["default-cap", "cap6", "cap6-iter3", "cap10", "cap-M"],
)
def test_omp_rows_match_the_formula_by_formula_pursuit(params):
    # the buffers, flat indices and preselect of the solver's step change
    # no bit of its signals, iteration counts or converged flags, on rows
    # that converge, run to the cap, or end on the correlation floor while
    # others go on, and at the ensemble config's shape and cap (cap10)
    phi = make_sensing_matrix(30, 100, seed=31)
    stacks = [(phi, _omp_stack(phi, np.random.default_rng(32))), _unreached_part_stack()[:2], _shipped_omp_stack()[:2]]
    for phi, ys in stacks:
        got = omp_recover_rows(ys, phi, params)
        expected = _omp_formula_by_formula(ys, phi, params)
        for v, ref in zip(got, expected):
            assert v.dtype == ref.dtype
            assert np.array_equal(v, ref)


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


def test_omp_column_in_the_span_of_its_support_ends_the_row():
    # every column lies in the plane of the first two coordinates, and each
    # row has a part no column reaches: after two atoms every remaining
    # column is in the span of the support, with a pivot that rounds to 0
    # or below: the normal equations of the three atoms are singular
    entries = np.array([[2.0, 1.0, -1.0, -3.0], [1.0, -1.0, 3.0, -1.0], [0.0, 0.0, 0.0, 0.0]])
    phi = SensingMatrix(entries=entries, seed=0)
    ys = np.array([[1.0, -2.0, 1.0], [1.0, 1.0, 1.0], [3.0, -2.0, 1.0]])
    stacked, iterations, converged = omp_recover_rows(ys, phi, RecoveryParams(max_sparsity=3))
    assert np.isfinite(stacked).all()
    assert iterations.tolist() == [2, 2, 2]
    assert not converged.any()
    # the two atoms fit the part of each row the columns reach
    np.testing.assert_allclose(stacked @ entries.T, ys * [1.0, 1.0, 0.0], rtol=0, atol=1e-12)


def _unreached_part_stack():
    """A 12x40 matrix whose last row is zero and 20 rows of 1 to 3 spikes
    plus 2 e_M, a part no column reaches; returns (phi, ys, the part the
    columns reach, spikes per row)."""
    entries = make_sensing_matrix(12, 40, seed=35).entries.copy()
    entries[-1] = 0.0
    phi = SensingMatrix(entries=entries, seed=35)
    rng = np.random.default_rng(36)
    reached, spikes = [], []
    for r in range(20):
        k = 1 + r % 3
        x, _ = _spike_signal(40, k, rng, values=rng.choice([-1.0, 1.0], size=k) * rng.uniform(0.5, 2.0, size=k))
        reached.append(entries @ x)
        spikes.append(k)
    reached = np.array(reached)
    return phi, reached + 2.0 * np.eye(12)[-1], reached, spikes


def test_omp_row_stops_when_its_best_correlation_is_rounding_dust():
    # a zero last row leaves e_M orthogonal to every column: once a row's
    # fit reaches y - 2 e_M, its residual 2 e_M correlates with the
    # remaining columns only through rounding, far below 1e-12 ||y||
    # max_j ||phi_j||, and the row ends there instead of picking dust atoms
    # up to the cap
    phi, ys, reached, spikes = _unreached_part_stack()
    entries = phi.entries
    stacked, iterations, converged = omp_recover_rows(ys, phi, RecoveryParams(max_sparsity=6))
    assert not converged.any()
    # the atom count at which each row's fit first reaches y - 2 e_M
    first = np.zeros(20, dtype=np.int64)
    for cap in range(6, 0, -1):
        fit = omp_recover_rows(ys, phi, RecoveryParams(max_sparsity=cap))[0] @ entries.T
        first[np.max(np.abs(fit - reached), axis=1) <= 1e-12] = cap
    assert (first[np.array(spikes) == 1] == 1).all()
    assert np.count_nonzero(first) >= 12
    assert np.array_equal(iterations[first > 0], first[first > 0])


@settings(max_examples=40, deadline=None)
# an atom the reference refits to exactly 0 is stored at about -1.5e-16
@example(m=8, extra_cols=1, kinds=["sparse"], cap=4, seed=187)
@example(m=13, extra_cols=20, kinds=["sparse", "sparse"], cap=4, seed=479001601)
# an atom the reference refits to -4.4e-17 is solved to exactly 0, not stored
@example(m=7, extra_cols=1, kinds=["sparse", "sparse"], cap=2, seed=2)
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
    # a matrix estimates it once, to the bit
    phi = SensingMatrix(a, seed=0)
    assert phi.norm_sq == est
    assert phi.norm_sq is phi.norm_sq


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


def _lasso_formula_by_formula(ys, a, lam, step, iterations, x0=None):
    """lasso_shrinkage's iteration written one formula at a time, each with
    its own temporaries: the soft threshold sign(u) max(|u| - step lam, 0),
    the objective with its own abs, and the three-term momentum in both
    branches. It computes in a's dtype, with the products by A^T through
    one C-contiguous copy of A^T, as lasso_shrinkage does. Returns the
    iterate and, per iteration, whether every row took the acceleration
    candidate."""
    dtype = a.dtype
    rows, n = ys.shape[0], a.shape[1]
    ys = np.asarray(ys, dtype=dtype)
    lam = np.broadcast_to(np.asarray(lam, dtype=dtype), (rows,))
    x = np.zeros((rows, n), dtype=dtype) if x0 is None else np.array(x0, dtype=dtype)
    a_t = np.ascontiguousarray(a.T)
    ax = x @ a_t
    x_prev, ax_prev = x, ax
    threshold = (step * lam)[:, None]

    def objective(v, av):
        r = ys - av
        return 0.5 * np.sum(r * r, axis=1) + lam * np.sum(np.abs(v), axis=1)

    obj = objective(x, ax)
    t = 1.0
    z, az = x, ax
    all_accepted = []
    for _ in range(iterations):
        grad = (az - ys) @ a
        u = z - step * grad
        w = np.sign(u) * np.maximum(np.abs(u) - threshold, 0.0)
        aw = w @ a_t
        obj_w = objective(w, aw)
        accept = obj_w <= obj
        all_accepted.append(bool(accept.all()))
        if accept.all():
            x_next, ax_next, obj = w, aw, obj_w
        else:
            rowwise = accept[:, None]
            x_next = np.where(rowwise, w, x)
            ax_next = np.where(rowwise, aw, ax)
            obj = np.where(accept, obj_w, obj)
        t_next = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t * t))
        z = x_next + (t / t_next) * (w - x_next) + ((t - 1.0) / t_next) * (x_next - x_prev)
        az = ax_next + (t / t_next) * (aw - ax_next) + ((t - 1.0) / t_next) * (ax_next - ax_prev)
        x_prev, ax_prev = x, ax
        x, ax = x_next, ax_next
        t = t_next
    return x, all_accepted


def _lasso_stacks():
    """(ys, a, lam, x0) cases: the shipped 112x368 matrix and a small one;
    lam mixes 0, moderate and huge values, so some iterations have rows
    that reject the acceleration candidate and some have none; x0 is
    absent, a shrinkage iterate, or random; and a 1-row stack."""
    rng = np.random.default_rng(41)
    cases = []
    for a in (make_sensing_matrix(112, 368, seed=1234).entries, rng.normal(size=(30, 80))):
        m, n = a.shape
        xs = _supports(n, [0, 1, 3, 6, 12, 25, 40, 3, 6], rng)
        ys = xs @ a.T + 0.05 * rng.normal(size=(len(xs), m))
        top = np.max(np.abs(ys @ a), axis=1)
        lam = top * np.array([0.0, 0.25, 0.05, 0.01, 0.25, 5.0, 0.002, 1e-6, 0.05])
        warm = _lasso_formula_by_formula(ys, a, lam, 1.0 / operator_norm_sq(a), 25)[0]
        for x0 in (None, warm, rng.normal(size=(len(xs), n))):
            cases.append((ys, a, lam, x0))
        cases += [(ys[3:4], a, lam[3], None), (ys[3:4], a, lam[3], warm[3:4])]
    return cases


def test_lasso_matches_the_formula_by_formula_iteration():
    cases = _lasso_stacks()
    for dtype in (np.float64, np.float32):
        branches = set()
        for ys, a, lam, x0 in cases:
            step = 1.0 / operator_norm_sq(a)
            a = a.astype(dtype)
            for iterations in (0, 1, 2, 60):
                expected, all_accepted = _lasso_formula_by_formula(ys, a, lam, step, iterations, x0)
                x = lasso_shrinkage(ys, a, lam, step, iterations, x0=x0)
                assert x.dtype == dtype
                assert np.array_equal(x, expected)
                branches.update(all_accepted)
        # both momentum branches ran in this dtype: every row accepted, and
        # some rejected
        assert branches == {True, False}


def test_solvers_do_not_write_their_inputs():
    phi = make_sensing_matrix(40, 128, seed=21)
    ys = _mixed_stack(phi, np.random.default_rng(42))
    lam = 0.05 * np.max(np.abs(ys @ phi.entries), axis=1)
    x0 = np.random.default_rng(43).normal(size=(len(ys), 128))
    saved = [v.copy() for v in (ys, lam, x0)]
    for v in (ys, lam, x0):
        v.flags.writeable = False  # a write into an input raises
    step = 1.0 / phi.norm_sq
    for iterations in (0, 30):
        x = lasso_shrinkage(ys, phi.entries, lam, step, iterations, x0=x0)
        assert not np.shares_memory(x, x0)
        x[:] = 1.0  # the result is the caller's to change
    for solve in (bp_recover_rows, omp_recover_rows):
        x, _, _ = solve(ys, phi, RecoveryParams(noise_budget_frac=0.05))
        assert not np.shares_memory(x, ys)
    for v, before in zip((ys, lam, x0), saved):
        assert np.array_equal(v, before)


def test_stack_norms_and_starting_lambda_match_per_row_forms(monkeypatch):
    # each row's norm and its starting lambda, 0.25 ||A^T y||_inf, are the
    # ones the row gets alone, on stacks with an all-zero row; the shrinkage
    # sees lambda times the row's exact power-of-two scale 2**-e, where
    # ||y|| = f 2**e with f in [0.5, 1)
    first_lams = []

    def record(ys, a, lam, *args, **kwargs):
        if not first_lams:
            first_lams.append(np.array(lam))
        return lasso_shrinkage(ys, a, lam, *args, **kwargs)

    monkeypatch.setattr(recovery, "lasso_shrinkage", record)
    rng = np.random.default_rng(44)
    for m, n, rows in ((112, 368, 27), (40, 128, 9), (13, 50, 2), (200, 600, 5)):
        phi = make_sensing_matrix(m, n, seed=m)
        ys = rng.normal(size=(rows, m)) * rng.choice([1e-6, 1.0, 1e6], size=(rows, 1))
        ys[rows // 2] = 0.0
        _, norms = _stack(ys, m)
        assert np.array_equal(norms, [np.linalg.norm(y) for y in ys])
        first_lams.clear()
        bp_recover_rows(ys, phi, RecoveryParams(max_iterations=1))
        live = np.flatnonzero(norms > 0)
        lams = np.ldexp(first_lams[0], np.frexp(norms[live])[1])
        assert np.array_equal(lams, [0.25 * float(np.max(np.abs(phi.entries.T @ ys[i]))) for i in live])


def _scaled_norms(ys):
    # every row times 2**-e, e the frexp exponent of its largest magnitude,
    # then its dot, square root and scale back: exact power-of-two scales
    e = np.frexp(np.max(np.abs(ys), axis=1))[1]
    scaled = np.ldexp(ys, -e[:, None])
    return np.ldexp(np.sqrt((scaled[:, None, :] @ scaled[:, :, None])[:, 0, 0]), e)


def test_stack_norms_are_the_scaled_norms():
    # rows whose squares overflow (1e160), whose squares are subnormal
    # (1.5e-155, 1e-160), whose sum of squares is exactly 0 (1e-170) and
    # ordinary rows: the plain dot, taken where it is exact, and the scaled
    # one give the same bits
    rng = np.random.default_rng(46)
    base = rng.normal(size=(8, 112))
    with np.errstate(over="ignore"):
        assert np.sum(np.square(1e160 * base[0])) == np.inf
    assert 0.0 < np.sum(np.square(1e-160 * base[0])) < np.finfo(float).tiny
    assert np.sum(np.square(1e-170 * base[0])) == 0.0
    for scale in (1e160, 1e100, 1.0, 1e-3, 1e-100, 1.5e-155, 1e-160, 1e-170):
        ys = scale * base
        _, norms = _stack(ys, 112)
        assert np.array_equal(norms, _scaled_norms(ys))
        assert (norms > 0).all() & np.isfinite(norms).all()
    mixed = base * np.array([1e160, 1.0, 1e-170, 0.0, 1.5e-155, 1e-3, 1e-160, 1e100])[:, None]
    _, norms = _stack(mixed, 112)
    assert norms[3] == 0.0
    assert np.array_equal(norms, np.where(mixed.any(axis=1), _scaled_norms(mixed), 0.0))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_solvers_reject_non_finite_rows(bad):
    # the first non-finite row is named, whichever solver runs
    phi = make_sensing_matrix(30, 100, seed=47)
    ys = np.random.default_rng(48).normal(size=(5, 30))
    ys[2, 7] = bad
    ys[4, 0] = bad
    for solve in (omp_recover_rows, bp_recover_rows):
        with pytest.raises(ValueError, match="measurement row 2 is not finite"):
            solve(ys, phi, RecoveryParams())
    with pytest.raises(ValueError, match="measurement row 0 is not finite"):
        omp_recover(ys[2], phi)


def test_lasso_rejects_bad_arguments():
    rng = np.random.default_rng(45)
    a = rng.normal(size=(20, 50))
    ys = rng.normal(size=(3, 20))
    step = 1.0 / operator_norm_sq(a)
    for lam, message in (
        (-1.0, "lam"),
        (np.array([0.1, -1e-12, 0.1]), "lam"),
        (np.nan, "lam"),
        (np.array([0.1, np.inf, 0.1]), "lam"),
    ):
        with pytest.raises(ValueError, match=message):
            lasso_shrinkage(ys, a, lam, step, 5)
    for bad_step in (0.0, -step, np.nan, np.inf):
        with pytest.raises(ValueError, match="step"):
            lasso_shrinkage(ys, a, 0.1, bad_step, 5)
    for x0 in (np.zeros((50, 3)), np.zeros(150), np.zeros((3, 49)), np.zeros((1, 50))):
        with pytest.raises(ValueError, match="x0"):
            lasso_shrinkage(ys, a, 0.1, step, 5, x0=x0)
    # lam 0 is least squares by shrinkage, and allowed
    assert lasso_shrinkage(ys, a, 0.0, step, 5).shape == (3, 50)


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


# a row's squares overflow float64 past about 1e154 and underflow to 0
# below about 1e-162; its entries leave float32 past about 3e38 and below
# about 1e-45
_SCALES = (2.0**100, 2.0**-100, 1e60, 1e-60, 1e160, 1e200, 1e-200)


def _assert_commutes_with_scales(solve, params):
    phi = make_sensing_matrix(40, 128, seed=10)
    rng = np.random.default_rng(11)
    x, support = _spike_signal(128, 4, rng)
    y = phi.entries @ x
    base = solve(y, phi, params)
    assert np.array_equal(np.flatnonzero(base), support)
    for scale in _SCALES:
        scaled = solve(scale * y, phi, params)
        assert np.allclose(scaled / scale, base, rtol=1e-6, atol=1e-9)


def test_bp_commutes_with_scales_beyond_float32():
    # row norms are exact and finite at every finite scale, and the
    # float32 support search and the refits see each row scaled to a norm
    # in [0.5, 1), so rows whose entries, or their squares, leave float32 or
    # float64 recover the same signal, scaled
    _assert_commutes_with_scales(bp_recover, RecoveryParams())


def test_omp_commutes_with_scales_beyond_float32():
    # the pursuit runs on each row scaled to a norm in [0.5, 1), so its
    # ||y||^2 and ||u||^2 neither overflow nor underflow
    _assert_commutes_with_scales(omp_recover, RecoveryParams(solver="omp", max_sparsity=4))


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


def _bp_to_the_cap(y, phi, params):
    """Reference basis pursuit on one measurement vector: the phase loop of
    bp_recover_rows without its early exit for rows too wide to refit, so
    a row that never converges runs to the iteration cap. Its shrinkage is
    float64, so a match with bp_recover_rows shows that the float32 search
    finds the same supports. A row that never gets a refit returns what
    bp_recover_rows returns for it: the last float32 shrinkage iterate of
    the row scaled by 2**-e (||y|| = f 2**e, f in [0.5, 1)), scaled back.
    Returns the dense solution, the iteration count and the converged
    flag."""
    a = phi.entries
    n = a.shape[1]
    norm_y = np.linalg.norm(y)
    if norm_y == 0.0:
        return np.zeros(n), 0, True
    eps = max(params.noise_budget_frac, 1e-9) * norm_y
    lam = 0.25 * float(np.max(np.abs(a.T @ y)))
    lam_floor = 1e-12 * lam if lam > 0 else 1.0
    step = 1.0 / operator_norm_sq(a)
    x = np.zeros((1, n))
    best, best_residual = None, np.inf
    iterations, converged = 0, False
    phases = []  # each phase's (lambda, iterations)
    while iterations < params.max_iterations and not converged:
        this_phase = min(25, params.max_iterations - iterations)
        phases.append((lam, this_phase))
        x = lasso_shrinkage(y[None, :], a, np.array([lam]), step, this_phase, x0=x)
        iterations += this_phase
        mag = np.abs(x[0])
        cleaned = np.where(mag >= 1e-4 * mag.max(), x[0], 0.0)
        (refit,), (residual,) = _refit_rows(y[None, :], a, cleaned[None, :])
        if residual < best_residual:
            best, best_residual = refit, residual
        converged = residual <= eps
        lam = max(lam * 0.2, lam_floor)
    if best is None:
        e = np.frexp(norm_y)[1]
        y32, a32 = np.ldexp(y, -e).astype(np.float32)[None, :], a.astype(np.float32)
        x = np.zeros((1, n), dtype=np.float32)
        for lam, this_phase in phases:
            x = lasso_shrinkage(y32, a32, np.array([np.ldexp(lam, -e)]), step, this_phase, x0=x)
        return np.ldexp(x[0].astype(np.float64), e), iterations, converged
    mag = np.abs(best)
    return np.where(mag >= 1e-4 * mag.max(), best, 0.0), iterations, converged


def _assert_bp_matches_the_cap(ys, phi, params):
    """bp_recover_rows on each row alone returns the reference's solution
    and converged flag exactly; the iteration counts agree on converged
    rows, and a row that leaves early has run fewer."""
    for y in ys:
        (one,), (its,), (done,) = bp_recover_rows(y[None, :], phi, params)
        x, ref_iterations, ref_converged = _bp_to_the_cap(y, phi, params)
        assert np.array_equal(one, x)
        assert done == ref_converged
        assert its == ref_iterations if done else its <= ref_iterations


def test_bp_row_without_a_refit_returns_its_last_iterate():
    # 3 rows cannot refit the wider supports that shrinkage leaves, so the
    # row never gets a refit, runs to the cap and keeps its last shrinkage
    # iterate
    phi = make_sensing_matrix(3, 80, seed=2)
    y = np.random.default_rng(2).normal(size=3)
    ys = np.array([y, phi.entries[:, 5]])
    params = RecoveryParams(max_iterations=100)
    stacked, iterations, converged = bp_recover_rows(ys, phi, params)
    # a refit has at most 3 nonzeros
    assert np.count_nonzero(stacked[0]) > 3
    assert (iterations[0], converged[0]) == (100, False)
    assert _bp_to_the_cap(y, phi, params)[1:] == (100, False)
    _assert_bp_matches_the_cap(ys, phi, params)


def _mixed_stack(phi, rng):
    """Rows that converge at once (zero, one column), clean and 2%-noisy
    sparse rows that converge in later phases, and a dense row with no
    sparse explanation that stops unconverged once its support is too
    wide to refit."""
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
    _assert_bp_matches_the_cap(ys, phi, params)
    # the stack really mixes the cases: an all-zero row, rows done after
    # the first phase, rows done later, and rows that left unconverged
    # before the cap
    cap = params.max_iterations
    assert (iterations[0], converged[0]) == (0, True)
    assert (converged & (iterations == 25)).any()
    assert (converged & (25 < iterations) & (iterations < cap)).any()
    assert (~converged & (iterations < cap)).any()


def test_bp_rows_match_the_cap_at_the_shipped_shape():
    # the shipped config's 112x368 matrix: noisy sparse rows, and pure-noise
    # rows, whose support is too wide to refit from the second phase on;
    # they must leave early, not run the 2,000-iteration cap
    phi = make_sensing_matrix(112, 368, seed=1234)
    rng = np.random.default_rng(23)
    rows = []
    for k, noise in ((4, 0.02), (12, 0.05), (30, 0.1), (60, 0.3)):
        x, _ = _spike_signal(368, k, rng)
        y = phi.entries @ x
        rows.append(y + rng.normal(size=112) * (noise * np.linalg.norm(y) / np.sqrt(112)))
    rows += [rng.normal(size=112), rng.normal(size=112)]
    ys = np.array(rows)
    for params in (RecoveryParams(), RecoveryParams(noise_budget_frac=0.05)):
        _assert_bp_matches_the_cap(ys, phi, params)
        _, iterations, converged = bp_recover_rows(ys, phi, params)
        assert not converged[-2:].any()
        assert (iterations[-2:] <= 100).all()


def test_bp_rows_validation():
    phi = make_sensing_matrix(30, 100, seed=1)
    with pytest.raises(ValueError):
        bp_recover_rows(np.zeros(30), phi)
    with pytest.raises(ValueError):
        bp_recover_rows(np.zeros((2, 29)), phi)
    with pytest.raises(ValueError):
        bp_recover(np.zeros(29), phi)
    _assert_empty(bp_recover_rows(np.zeros((0, 30)), phi))


def _supports(n, sizes, rng):
    """One row per size: random nonzero values on a random support."""
    xs = np.zeros((len(sizes), n))
    for row, k in zip(xs, sizes):
        row[rng.choice(n, size=k, replace=False)] = rng.normal(size=k)
    return xs


def test_refit_rows_match_per_row_least_squares():
    # the shipped 112x368 matrix and every support size it can refit, plus
    # an empty support and one wider than M, which get no refit
    a = make_sensing_matrix(112, 368, seed=1234).entries
    rng = np.random.default_rng(31)
    xs = _supports(368, range(114), rng)
    ys = xs @ a.T + 0.05 * rng.normal(size=(114, 112))
    refits, residuals = _refit_rows(ys, a, xs)
    for y, x, refit, residual in zip(ys[1:113], xs[1:113], refits[1:113], residuals[1:113]):
        support = np.flatnonzero(x)
        cols = a[:, support]
        coeffs = np.linalg.lstsq(cols, y, rcond=None)[0]
        assert not np.delete(refit, support).any()
        # the normal equations lose accuracy as cond(cols)^2 (Higham 2002,
        # ch. 20); below cond 67 that is inside 1e-10, which covers every
        # support basis pursuit refits on the benchmark (cond at most 25)
        tol = max(1e-10, 100 * np.linalg.cond(cols) ** 2 * np.finfo(float).eps)
        assert np.linalg.norm(refit[support] - coeffs) <= tol * np.linalg.norm(coeffs)
        expected = np.linalg.norm(y - cols @ coeffs)
        assert residual == pytest.approx(expected, rel=1e-10, abs=1e-10 * np.linalg.norm(y))
    for k in (0, 113):
        assert not refits[k].any() and residuals[k] == np.inf


def test_refit_rows_do_not_depend_on_their_stack():
    a = make_sensing_matrix(40, 128, seed=21).entries
    rng = np.random.default_rng(32)
    # repeated sizes, so most rows share their solve with others
    xs = _supports(128, rng.integers(0, 45, size=60), rng)
    ys = rng.normal(size=(60, 40))
    order = rng.permutation(60)
    refits, residuals = _refit_rows(ys[order], a, xs[order])
    for i, row in enumerate(order):
        (one,), (one_residual,) = _refit_rows(ys[row : row + 1], a, xs[row : row + 1])
        assert np.array_equal(refits[i], one)
        assert np.array_equal(residuals[i], one_residual)


def test_bp_with_a_repeated_column_returns_a_fit():
    # two identical columns enter the support together, and their Gram
    # matrix is singular; the refit falls back to the minimum-norm answer
    a = make_sensing_matrix(20, 60, seed=3).entries.copy()
    a[:, 7] = a[:, 3]
    phi = SensingMatrix(a, seed=3)
    y = 1.5 * a[:, 3] - a[:, 20]
    (x,), _, (converged,) = bp_recover_rows(y[None, :], phi)
    assert converged and x[3] != 0.0 and x[7] != 0.0
    assert np.linalg.norm(y - a @ x) <= 0.1 * np.linalg.norm(y)


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
