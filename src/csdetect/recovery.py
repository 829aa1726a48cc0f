"""L1 sparse recovery from compressed measurements.

Two solvers with the same contract (measurement vector of length M in,
dense location signal of length N out, zero off its support). Each solves
a stack of problems against one matrix together, one row per problem, with
matrix-matrix products (omp_recover_rows, bp_recover_rows), and returns the
solutions as one dense (rows, N) array with each row's iteration count and
convergence flag; omp_recover and bp_recover are their one-row calls and
return the signal alone. RecoveryParams is the `recovery:` config section;
recover_rows runs the solver its `solver` field names, and is what both
decoding routes call.

* omp: orthogonal matching pursuit, greedy column selection with a
  least-squares refit of the active set each round. Every row of the stack
  gains one atom per step and the refits are one batched solve of the
  normal equations.
* bp: basis pursuit denoising, min ||f||_1 s.t. ||y - Phi f|| <= eps,
  solved by monotone accelerated shrinkage-thresholding with lambda
  continuation and a final least-squares debias on the detected support.
  eps = 0 asks for the equality-constrained program and is handled with a
  tiny internal floor.

Both treat residual tolerances relative to ||y|| so recovery commutes with
positive rescaling of the measurements.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .sensing import SensingMatrix

__all__ = [
    "RecoveryParams",
    "recover_rows",
    "default_max_sparsity",
    "omp_recover",
    "omp_recover_rows",
    "bp_recover",
    "bp_recover_rows",
    "lasso_shrinkage",
    "operator_norm_sq",
]

# relative floor standing in for the equality constraint when noise_budget_frac=0
_EQUALITY_FLOOR = 1e-9
# entries below this fraction of the peak are shrinkage dust, not support
_HARD_FLOOR = 1e-4
_LAMBDA_SHRINK = 0.2
_PHASE_ITERATIONS = 25


@dataclass(frozen=True)
class RecoveryParams:
    """The `recovery:` config section, shared by both decoding routes.

    solver: "bp" (basis pursuit) or "omp" (orthogonal matching pursuit).
    max_sparsity: active-set cap for OMP; None means ceil(M / (4 ln N)).
    residual_tol: stopping residual, relative to ||y||.
    noise_budget_frac: basis pursuit's eps relative to the measurements,
        eps = frac * ||y||, so it needs no ||y|| up front.
    max_iterations: BP shrinkage iterations, and a second cap on OMP atoms.
    shrinkage_step: step size as a fraction of 1 / ||Phi||^2.
    """

    solver: str = "bp"
    max_sparsity: int | None = None
    residual_tol: float = 1e-8
    noise_budget_frac: float = 0.1
    max_iterations: int = 2000
    shrinkage_step: float = 1.0

    def __post_init__(self):
        if self.solver not in ("bp", "omp"):
            raise ValueError(f"solver must be bp or omp, got {self.solver!r}")
        if self.residual_tol <= 0:
            raise ValueError("residual_tol must be > 0")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        if self.noise_budget_frac < 0:
            raise ValueError("noise_budget_frac must be >= 0")
        if not 0 < self.shrinkage_step <= 1:
            raise ValueError("shrinkage_step must be in (0, 1]")
        if self.max_sparsity is not None and self.max_sparsity < 1:
            raise ValueError("max_sparsity must be >= 1 when given")


def recover_rows(ys: np.ndarray, phi: SensingMatrix, params: RecoveryParams):
    """Solve every row of ys (rows, M) with the solver params.solver names;
    returns that solver's (x, iterations, converged)."""
    solve = bp_recover_rows if params.solver == "bp" else omp_recover_rows
    return solve(ys, phi, params)


def default_max_sparsity(rows: int, cols: int) -> int:
    """Invert M >= 4 k ln N: the largest k the row budget is meant for."""
    return max(1, int(math.ceil(rows / (4.0 * math.log(cols)))))


def _one_row(solve_rows, y: np.ndarray, phi: SensingMatrix, *args) -> np.ndarray:
    """A row solver's call on one measurement vector, as a one-row stack:
    the solution's only row."""
    y = np.asarray(y, dtype=np.float64)
    if y.shape != (phi.rows,):
        raise ValueError(f"measurement length {y.shape} does not match {phi.rows} rows")
    return solve_rows(y[None, :], phi, *args)[0][0]


def _stack(ys: np.ndarray, m: int):
    """A validated (rows, m) measurement stack and each row's norm, taken
    one row at a time as a row solved alone gets it."""
    ys = np.asarray(ys, dtype=np.float64)
    if ys.ndim != 2 or ys.shape[1] != m:
        raise ValueError(f"measurement stack {ys.shape} does not have {m} columns")
    return ys, np.array([np.linalg.norm(y) for y in ys])


def omp_recover(
    y: np.ndarray,
    phi: SensingMatrix,
    params: RecoveryParams | None = None,
) -> np.ndarray:
    """Greedy pursuit of one measurement vector: the one-row call of
    omp_recover_rows."""
    return _one_row(omp_recover_rows, y, phi, params)


def omp_recover_rows(
    ys: np.ndarray,
    phi: SensingMatrix,
    params: RecoveryParams | None = None,
):
    """Orthogonal matching pursuit for every row of ys (rows, M) against one
    matrix: pick the column most correlated with the residual, refit the
    active set by least squares, repeat until the residual is within
    residual_tol * ||y|| or the sparsity cap is hit.

    All live rows step together, so at step k every row holds k atoms: one
    residual-by-matrix product gives every row's correlations, and one
    batched solve of the (rows, k, k) normal equations refits every row on
    its own support. A row leaves the stack once it is within tolerance
    (converged), or when its best correlation is exactly 0 (the residual is
    orthogonal to every remaining column; the row keeps its current fit).

    Returns (x, iterations, converged): row i of x (rows, N) solves row i
    of ys, and per row the number of atoms picked (int64) and whether the
    residual reached the tolerance (bool). An all-zero row is solved by
    zeros, converged after 0 iterations.
    """
    params = params or RecoveryParams()
    a = phi.entries
    m, n = a.shape
    ys, norm_y = _stack(ys, m)
    rows = ys.shape[0]
    x = np.zeros((rows, n))
    iterations = np.zeros(rows, dtype=np.int64)
    converged = norm_y == 0.0
    tol = params.residual_tol * norm_y
    kmax = params.max_sparsity or default_max_sparsity(m, n)
    kmax = min(kmax, m, params.max_iterations)

    columns = a.T  # columns[j] is column j of Phi
    active = np.flatnonzero(~converged)
    y_act = ys[active]
    aty = y_act @ a  # Phi^T y: each row's refit right-hand sides
    residual = y_act.copy()
    # per row: chosen columns in pick order, the columns themselves, their
    # Gram matrix and right-hand sides, grown by one atom a step
    support = np.zeros((active.size, kmax), dtype=np.int64)
    atoms = np.zeros((active.size, kmax, m))
    gram = np.zeros((active.size, kmax, kmax))
    rhs = np.zeros((active.size, kmax, 1))
    coeffs = np.zeros((active.size, 0))

    def finish(leaving, k, done):
        # rows at positions `leaving` of the stack stop with k atoms
        out = active[leaving]
        x[out[:, None], support[leaving, :k]] = coeffs[leaving]
        iterations[out] = k
        converged[out] = done

    for k in range(kmax):  # every row of the stack holds k atoms
        if not active.size:
            break
        at = np.arange(active.size)
        corr = residual @ a
        corr[at[:, None], support[:, :k]] = 0.0
        picks = np.argmax(np.abs(corr), axis=1)
        exhausted = corr[at, picks] == 0.0
        if exhausted.any():
            finish(exhausted, k, False)
            keep = ~exhausted
            active, y_act, aty, residual, support, atoms, gram, rhs, coeffs, picks = (
                v[keep] for v in (active, y_act, aty, residual, support, atoms, gram, rhs, coeffs, picks)
            )
            at = np.arange(active.size)
        support[:, k] = picks
        atoms[:, k] = columns[picks]
        cross = (atoms[:, : k + 1] @ atoms[:, k, :, None])[:, :, 0]
        gram[:, k, : k + 1] = cross
        gram[:, : k + 1, k] = cross
        rhs[:, k, 0] = aty[at, picks]
        coeffs = np.linalg.solve(gram[:, : k + 1, : k + 1], rhs[:, : k + 1])[:, :, 0]
        residual = y_act - (coeffs[:, None, :] @ atoms[:, : k + 1])[:, 0, :]
        done = np.linalg.norm(residual, axis=1) <= tol[active]
        if done.any():
            finish(done, k + 1, True)
            keep = ~done
            active, y_act, aty, residual, support, atoms, gram, rhs, coeffs = (
                v[keep] for v in (active, y_act, aty, residual, support, atoms, gram, rhs, coeffs)
            )
    if active.size:  # rows stopped by the cap
        finish(np.ones(active.size, dtype=bool), kmax, False)
    return x, iterations, converged


def operator_norm_sq(a: np.ndarray, iterations: int = 16) -> float:
    """Power-iteration estimate of ||A||^2, padded 10% high so that a step
    of 1/estimate is a valid shrinkage step."""
    n = a.shape[1]
    v = np.full(n, 1.0 / math.sqrt(n))
    est = 1.0
    for _ in range(iterations):
        w = a.T @ (a @ v)
        est = float(np.linalg.norm(w))
        if est == 0.0:
            return 1.0
        v = w / est
    return 1.1 * est


def _soft(v: np.ndarray, t) -> np.ndarray:
    return np.sign(v) * np.maximum(np.abs(v) - t, 0.0)


def lasso_shrinkage(
    ys: np.ndarray,
    a: np.ndarray,
    lam,
    step: float,
    iterations: int,
    x0: np.ndarray | None = None,
):
    """Monotone accelerated proximal gradient for the fixed-lambda lasso
    0.5 ||y - Ax||^2 + lam ||x||_1, on a stack of measurement vectors.

    ys is (rows, M) with one problem per row, and lam is a scalar or one
    value per row. All rows share the step and the momentum sequence; each
    row takes the acceleration candidate only when it does not raise that
    row's objective, which preserves the plain-ISTA descent guarantee.

    Returns x, (rows, N). Every row's objective is non-increasing from one
    iterate to the next.
    """
    ys = np.asarray(ys, dtype=np.float64)
    if ys.ndim != 2:
        raise ValueError(f"measurement stack {ys.shape} is not 2-D")
    rows, n = ys.shape[0], a.shape[1]
    lam = np.broadcast_to(np.asarray(lam, dtype=np.float64), (rows,))
    x = np.zeros((rows, n)) if x0 is None else np.array(x0, dtype=np.float64).reshape(rows, n)
    ax = x @ a.T
    x_prev, ax_prev = x, ax
    threshold = (step * lam)[:, None]

    def objective(v, av):
        r = ys - av
        return 0.5 * np.sum(r * r, axis=1) + lam * np.sum(np.abs(v), axis=1)

    obj = objective(x, ax)
    t = 1.0
    z, az = x, ax
    for _ in range(iterations):
        grad = (az - ys) @ a
        w = _soft(z - step * grad, threshold)
        aw = w @ a.T
        obj_w = objective(w, aw)
        accept = obj_w <= obj
        if accept.all():
            x_next, ax_next, obj = w, aw, obj_w
        else:
            rowwise = accept[:, None]
            x_next = np.where(rowwise, w, x)
            ax_next = np.where(rowwise, aw, ax)
            obj = np.where(accept, obj_w, obj)
        t_next = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t * t))
        # momentum on the accepted iterate; all products are cached combos
        z = x_next + (t / t_next) * (w - x_next) + ((t - 1.0) / t_next) * (x_next - x_prev)
        az = ax_next + (t / t_next) * (aw - ax_next) + ((t - 1.0) / t_next) * (ax_next - ax_prev)
        x_prev, ax_prev = x, ax
        x, ax = x_next, ax_next
        t = t_next
    return x


def _debias(y: np.ndarray, a: np.ndarray, x: np.ndarray):
    """Least-squares refit of x on its own support; returns (refit, residual
    norm) or None when the support is empty or wider than the row count."""
    support = np.flatnonzero(x)
    if support.size == 0 or support.size > a.shape[0]:
        return None
    coeffs = np.linalg.lstsq(a[:, support], y, rcond=None)[0]
    refit = np.zeros_like(x)
    refit[support] = coeffs
    rnorm = float(np.linalg.norm(y - a[:, support] @ coeffs))
    return refit, rnorm


def bp_recover(
    y: np.ndarray,
    phi: SensingMatrix,
    params: RecoveryParams | None = None,
) -> np.ndarray:
    """Basis pursuit denoising of one measurement vector: the one-row call
    of bp_recover_rows."""
    return _one_row(bp_recover_rows, y, phi, params)


def bp_recover_rows(
    ys: np.ndarray,
    phi: SensingMatrix,
    params: RecoveryParams | None = None,
):
    """Basis pursuit denoising by shrinkage with lambda continuation, for
    every row of ys (rows, M) against one matrix.

    Runs the fixed-lambda solver in short phases, starting from
    lam = 0.25 ||A^T y||_inf and shrinking lam fivefold per phase; after
    each phase the current support is refit by least squares and accepted
    as soon as the refit residual is inside the noise budget. The refit
    also debiases the shrinkage. Entries below 1e-4 of the peak magnitude
    are zeroed before returning.

    The rows are independent problems solved together: they share the step
    and the phase schedule, every other quantity (lam, eps, best refit,
    convergence) is per row, and a row leaves the stack once its refit is
    inside its budget.

    Returns (x, iterations, converged): row i of x (rows, N) solves row i
    of ys, and per row the shrinkage iterations it ran (int64) and whether
    a refit got inside the noise budget (bool). A row that never did is its
    best refit, or its last shrinkage iterate when no refit was possible.
    An all-zero row is solved by zeros, converged after 0 iterations.
    """
    params = params or RecoveryParams()
    a = phi.entries
    m, n = a.shape
    ys, norm_y = _stack(ys, m)
    rows = ys.shape[0]
    x_out = np.zeros((rows, n))
    iterations = np.zeros(rows, dtype=np.int64)
    converged = norm_y == 0.0
    eps = max(params.noise_budget_frac, _EQUALITY_FLOOR) * norm_y
    # one product per row, so a row's lambda path does not depend on the
    # rows stacked with it
    lam = np.array([0.25 * float(np.max(np.abs(a.T @ y))) for y in ys])
    lam_floor = np.where(lam > 0, 1e-12 * lam, 1.0)
    active = np.flatnonzero(~converged)
    op_norm_sq = operator_norm_sq(a) if active.size else None

    y_act, lam_act = ys[active], lam[active]
    x = np.zeros((active.size, n))
    best = np.zeros((rows, n))  # each row's refit with the smallest residual
    best_residual = np.full(rows, np.inf)
    budget = params.max_iterations
    while budget > 0 and active.size:
        this_phase = min(_PHASE_ITERATIONS, budget)
        x = lasso_shrinkage(y_act, a, lam_act, params.shrinkage_step / op_norm_sq, this_phase, x0=x)
        budget -= this_phase
        iterations[active] += this_phase
        mag = np.abs(x)
        peak = mag.max(axis=1)
        cleaned = np.where(mag >= _HARD_FLOOR * peak[:, None], x, 0.0)
        done = np.zeros(active.size, dtype=bool)
        for k in np.flatnonzero(peak > 0.0):
            refit = _debias(y_act[k], a, cleaned[k])
            if refit is None:
                continue
            r = active[k]
            if refit[1] < best_residual[r]:
                best[r], best_residual[r] = refit
            done[k] = refit[1] <= eps[r]
        lam_act = np.maximum(lam_act * _LAMBDA_SHRINK, lam_floor[active])
        if done.any():
            converged[active[done]] = True
            keep = ~done
            active, x, y_act, lam_act = active[keep], x[keep], y_act[keep], lam_act[keep]

    x_out[active] = x  # shrinkage iterates of the rows left unconverged
    refit = np.isfinite(best_residual)
    mag = np.abs(best[refit])
    x_out[refit] = np.where(mag >= _HARD_FLOOR * mag.max(axis=1, keepdims=True), best[refit], 0.0)
    return x_out, iterations, converged
