"""L1 sparse recovery from compressed measurements.

Two solvers with the same contract (measurement vector in, sparse location
signal out):

* omp_recover: orthogonal matching pursuit, greedy column selection with a
  least-squares refit of the active set each round.
* bp_recover: basis pursuit denoising, min ||f||_1 s.t. ||y - Phi f|| <= eps,
  solved by monotone accelerated shrinkage-thresholding with lambda
  continuation and a final least-squares debias on the detected support.
  eps = 0 asks for the equality-constrained program and is handled with a
  tiny internal floor. bp_recover_rows solves a stack of such problems
  against one matrix together, with matrix-matrix products; bp_recover is
  its one-row call.

Both treat residual tolerances relative to ||y|| so recovery commutes with
positive rescaling of the measurements.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field

import numpy as np

from .core import SparseLocationSignal
from .sensing import SensingMatrix

__all__ = [
    "RecoveryParams",
    "SolverTrace",
    "default_max_sparsity",
    "omp_recover",
    "bp_recover",
    "bp_recover_rows",
    "lasso_shrinkage",
    "operator_norm_sq",
]

log = logging.getLogger(__name__)

# relative floor standing in for the equality constraint when noise_budget=0
_EQUALITY_FLOOR = 1e-9
# entries below this fraction of the peak are shrinkage dust, not support
_HARD_FLOOR = 1e-4
_LAMBDA_SHRINK = 0.2
_PHASE_ITERATIONS = 25


@dataclass(frozen=True)
class RecoveryParams:
    """Solver controls shared by both recovery routes.

    max_sparsity: active-set cap for OMP; None means ceil(M / (4 ln N)).
    residual_tol: stopping residual, relative to ||y||.
    noise_budget: absolute eps for basis pursuit denoising.
    noise_budget_frac: optional relative eps (frac * ||y||); the larger of
        the two budgets wins. This is how the pipeline expresses
        "eps = 0.1 * ||y||" without knowing ||y|| up front.
    shrinkage_step: step size as a fraction of 1 / ||Phi||^2.
    """

    max_sparsity: int | None = None
    residual_tol: float = 1e-8
    noise_budget: float = 0.0
    noise_budget_frac: float = 0.0
    max_iterations: int = 2000
    shrinkage_step: float = 1.0

    def __post_init__(self):
        if self.residual_tol <= 0:
            raise ValueError("residual_tol must be > 0")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        if self.noise_budget < 0 or self.noise_budget_frac < 0:
            raise ValueError("noise budgets must be >= 0")
        if not 0 < self.shrinkage_step <= 1:
            raise ValueError("shrinkage_step must be in (0, 1]")
        if self.max_sparsity is not None and self.max_sparsity < 1:
            raise ValueError("max_sparsity must be >= 1 when given")


@dataclass
class SolverTrace:
    """Mutable out-parameter collecting per-iteration diagnostics."""

    residuals: list = field(default_factory=list)
    objectives: list = field(default_factory=list)
    lambda_path: list = field(default_factory=list)
    iterations: int = 0
    converged: bool = False
    final_residual: float = math.nan


def default_max_sparsity(rows: int, cols: int) -> int:
    """Invert M >= 4 k ln N: the largest k the row budget is meant for."""
    return max(1, int(math.ceil(rows / (4.0 * math.log(cols)))))


def _zero_signal(n: int, trace: SolverTrace | None) -> SparseLocationSignal:
    if trace is not None:
        trace.converged = True
        trace.final_residual = 0.0
    return SparseLocationSignal(length=n, indices=np.array([], dtype=np.int64), values=np.array([]))


def _to_signal(x: np.ndarray) -> SparseLocationSignal:
    idx = np.flatnonzero(x)
    return SparseLocationSignal(length=x.size, indices=idx + 1, values=x[idx])


def omp_recover(
    y: np.ndarray,
    phi: SensingMatrix,
    params: RecoveryParams | None = None,
    trace: SolverTrace | None = None,
) -> SparseLocationSignal:
    """Greedy pursuit: pick the column most correlated with the residual,
    refit the active set by least squares, repeat until the residual is
    below tolerance or the sparsity cap is hit."""
    params = params or RecoveryParams()
    a = phi.entries
    m, n = a.shape
    y = np.asarray(y, dtype=np.float64)
    if y.shape != (m,):
        raise ValueError(f"measurement length {y.shape} does not match {m} rows")
    norm_y = float(np.linalg.norm(y))
    if norm_y == 0.0:
        return _zero_signal(n, trace)
    tol = params.residual_tol * norm_y
    kmax = params.max_sparsity or default_max_sparsity(m, n)
    kmax = min(kmax, m, params.max_iterations)

    active: list[int] = []
    in_active = np.zeros(n, dtype=bool)
    coeffs = np.zeros(0)
    residual = y.copy()
    converged = False
    while len(active) < kmax:
        corr = a.T @ residual
        corr[in_active] = 0.0
        j = int(np.argmax(np.abs(corr)))
        if corr[j] == 0.0:
            break  # residual orthogonal to every remaining column
        active.append(j)
        in_active[j] = True
        coeffs = np.linalg.lstsq(a[:, active], y, rcond=None)[0]
        residual = y - a[:, active] @ coeffs
        rnorm = float(np.linalg.norm(residual))
        if trace is not None:
            trace.residuals.append(rnorm)
            trace.iterations += 1
        if rnorm <= tol:
            converged = True
            break
    if not converged:
        log.debug(
            "omp did not reach tolerance: residual %.3e > %.3e with %d atoms",
            float(np.linalg.norm(residual)), tol, len(active),
        )
    if trace is not None:
        trace.converged = converged
        trace.final_residual = float(np.linalg.norm(residual))
    x = np.zeros(n)
    x[active] = coeffs
    return _to_signal(x)


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
    y: np.ndarray,
    a: np.ndarray,
    lam,
    step: float,
    iterations: int,
    x0: np.ndarray | None = None,
):
    """Monotone accelerated proximal gradient for the fixed-lambda lasso
    0.5 ||y - Ax||^2 + lam ||x||_1, on one measurement vector or a stack.

    y is (M,) or (rows, M) with one problem per row, and lam is a scalar or
    one value per row. All rows share the step and the momentum sequence;
    each row takes the acceleration candidate only when it does not raise
    that row's objective, which preserves the plain-ISTA descent guarantee.

    Returns (x, objectives). For 1-D y, x is (N,) and objectives[i] is the
    value at iterate i (objectives[0] is the starting point). For 2-D y, x
    is (rows, N) and objectives is an (iterations + 1, rows) array. Every
    row's sequence is non-increasing.
    """
    y = np.asarray(y, dtype=np.float64)
    ys = np.atleast_2d(y)
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
    objs = [obj]
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
        objs.append(obj)
    objs = np.array(objs)
    if y.ndim == 1:
        return x[0], objs[:, 0].tolist()
    return x, objs


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
    trace: SolverTrace | None = None,
    op_norm_sq: float | None = None,
) -> SparseLocationSignal:
    """Basis pursuit denoising of one measurement vector: the one-row call
    of bp_recover_rows."""
    y = np.asarray(y, dtype=np.float64)
    if y.shape != (phi.rows,):
        raise ValueError(f"measurement length {y.shape} does not match {phi.rows} rows")
    traces = None if trace is None else [trace]
    return bp_recover_rows(y[None, :], phi, params, traces, op_norm_sq)[0]


def bp_recover_rows(
    ys: np.ndarray,
    phi: SensingMatrix,
    params: RecoveryParams | None = None,
    traces: list | None = None,
    op_norm_sq: float | None = None,
) -> list:
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
    inside its budget. `traces`, when given, holds one SolverTrace per row.
    `op_norm_sq` lets callers that solve many problems against one matrix
    reuse the power-iteration estimate of ||Phi||^2.
    """
    params = params or RecoveryParams()
    a = phi.entries
    m, n = a.shape
    ys = np.asarray(ys, dtype=np.float64)
    if ys.ndim != 2 or ys.shape[1] != m:
        raise ValueError(f"measurement stack {ys.shape} does not have {m} columns")
    rows = ys.shape[0]
    if traces is not None and len(traces) != rows:
        raise ValueError(f"{len(traces)} traces for {rows} measurement rows")
    signals: list = [None] * rows
    eps = np.zeros(rows)
    lam = np.zeros(rows)
    for r, y in enumerate(ys):
        norm_y = float(np.linalg.norm(y))
        if norm_y == 0.0:
            signals[r] = _zero_signal(n, None if traces is None else traces[r])
            continue
        eps[r] = max(params.noise_budget, params.noise_budget_frac * norm_y, _EQUALITY_FLOOR * norm_y)
        # one product per row, so a row's lambda path does not depend on
        # the rows stacked with it
        lam[r] = 0.25 * float(np.max(np.abs(a.T @ y)))
    live = [r for r in range(rows) if signals[r] is None]
    if not live:
        return signals
    if op_norm_sq is None:
        op_norm_sq = operator_norm_sq(a)
    step = params.shrinkage_step / op_norm_sq
    lam_floor = np.where(lam > 0, 1e-12 * lam, 1.0)

    active = np.array(live)
    y_act, lam_act = ys[active], lam[active]
    x = np.zeros((active.size, n))
    best = {}  # row -> (refit, refit residual norm)
    converged = np.zeros(rows, dtype=bool)
    budget = params.max_iterations
    while budget > 0 and active.size:
        this_phase = min(_PHASE_ITERATIONS, budget)
        x, objs = lasso_shrinkage(y_act, a, lam_act, step, this_phase, x0=x)
        budget -= this_phase
        if traces is not None:
            residuals = np.linalg.norm(y_act - x @ a.T, axis=1)
            for k, r in enumerate(active):
                trace = traces[r]
                trace.objectives.extend(objs[1:, k].tolist())
                trace.lambda_path.append(float(lam_act[k]))
                trace.iterations += this_phase
                trace.residuals.append(float(residuals[k]))
        mag = np.abs(x)
        peak = mag.max(axis=1)
        cleaned = np.where(mag >= _HARD_FLOOR * peak[:, None], x, 0.0)
        done = np.zeros(active.size, dtype=bool)
        for k in np.flatnonzero(peak > 0.0):
            refit = _debias(y_act[k], a, cleaned[k])
            if refit is None:
                continue
            r = int(active[k])
            if r not in best or refit[1] < best[r][1]:
                best[r] = refit
            done[k] = refit[1] <= eps[r]
        lam_act = np.maximum(lam_act * _LAMBDA_SHRINK, lam_floor[active])
        if done.any():
            converged[active[done]] = True
            keep = ~done
            active, x, y_act, lam_act = active[keep], x[keep], y_act[keep], lam_act[keep]

    last = dict(zip(active.tolist(), x))  # shrinkage iterates of unconverged rows
    for r in live:
        if r in best:
            xr, final_residual = best[r]
            peak = float(np.max(np.abs(xr)))
            if peak > 0.0:
                xr = np.where(np.abs(xr) >= _HARD_FLOOR * peak, xr, 0.0)
        else:
            xr = last[r]
            final_residual = float(np.linalg.norm(ys[r] - a @ xr))
        if not converged[r]:
            log.debug(
                "basis pursuit did not reach the noise budget: residual %.3e > %.3e",
                final_residual, eps[r],
            )
        if traces is not None:
            traces[r].converged = bool(converged[r])
            traces[r].final_residual = final_residual
        signals[r] = _to_signal(xr)
    return signals
