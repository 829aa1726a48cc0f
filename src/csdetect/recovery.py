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
  continuation and a least-squares refit of the support after each phase,
  batched like omp's. eps = 0 asks for the equality-constrained program
  and is handled with a tiny internal floor. A row stops once a refit is
  inside its budget, or once its support is wider than M after it already
  holds a refit (no further refit is possible), as continuation solvers
  stop early (Hale, Yin & Zhang 2008, fixed-point continuation).

Both treat residual tolerances relative to ||y|| so recovery commutes with
positive rescaling of the measurements.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .sensing import DEFAULT_ROW_CONSTANT, SensingMatrix, operator_norm_sq

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
    residual_tol: OMP's stopping residual, relative to ||y||; basis pursuit
        does not read it and stops on noise_budget_frac instead.
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
    """Invert M >= C k ln N (C = sensing.DEFAULT_ROW_CONSTANT): the largest
    k the row budget is meant for."""
    return max(1, int(math.ceil(rows / (DEFAULT_ROW_CONSTANT * math.log(cols)))))


def _one_row(solve_rows, y: np.ndarray, phi: SensingMatrix, *args) -> np.ndarray:
    """A row solver's call on one measurement vector, as a one-row stack:
    the solution's only row."""
    y = np.asarray(y, dtype=np.float64)
    if y.shape != (phi.rows,):
        raise ValueError(f"measurement length {y.shape} does not match {phi.rows} rows")
    return solve_rows(y[None, :], phi, *args)[0][0]


def _stack(ys: np.ndarray, m: int):
    """A validated (rows, m) measurement stack and each row's norm. Each
    norm is its own row-by-row dot product, the sum np.linalg.norm takes
    of a row alone, so a row's norm does not depend on its stack."""
    ys = np.asarray(ys, dtype=np.float64)
    if ys.ndim != 2 or ys.shape[1] != m:
        raise ValueError(f"measurement stack {ys.shape} does not have {m} columns")
    return ys, np.sqrt((ys[:, None, :] @ ys[:, :, None])[:, 0, 0])


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

    ys is (rows, M) with one problem per row, and lam is a finite value
    >= 0, as a scalar or one per row; step must be > 0 and x0, when given,
    (rows, N). All rows share the step and the momentum sequence; each row
    takes the acceleration candidate only when it does not raise that
    row's objective, which preserves the plain-ISTA descent guarantee.

    Each elementwise pass of an iteration runs once, in place on buffers
    the iteration owns: the soft threshold is copysign(max(|u| - step lam,
    0), u), the L1 term sums that clipped magnitude, and when every row
    accepts, the momentum skips its (w - x_next) term, which is exactly 0.
    Each entry still gets the arithmetic of the formula-by-formula
    iteration (sign(u) max(|u| - step lam, 0), a second abs for the
    objective, the three-term momentum), so the iterates are == to its
    iterates; only the sign of a zero entry can differ.

    Returns x, (rows, N). Every row's objective is non-increasing from one
    iterate to the next. Neither ys, lam nor x0 is written to.
    """
    ys = np.asarray(ys, dtype=np.float64)
    if ys.ndim != 2:
        raise ValueError(f"measurement stack {ys.shape} is not 2-D")
    rows, n = ys.shape[0], a.shape[1]
    lam = np.broadcast_to(np.asarray(lam, dtype=np.float64), (rows,))
    valid = np.isfinite(lam) & (lam >= 0)
    if not valid.all():
        raise ValueError(f"lam must be finite and >= 0, got {lam[~valid][0]}")
    if not (step > 0 and math.isfinite(step)):
        raise ValueError(f"step must be finite and > 0, got {step}")
    if x0 is None:
        x = np.zeros((rows, n))
    else:
        x = np.array(x0, dtype=np.float64)
        if x.shape != (rows, n):
            raise ValueError(f"x0 {x.shape} is not ({rows}, {n})")
    ax = x @ a.T
    threshold = (step * lam)[:, None]
    r = ys - ax  # the (rows, M) residual buffer
    r *= r
    obj = 0.5 * np.add.reduce(r, axis=1) + lam * np.add.reduce(np.abs(x), axis=1)
    x_prev, ax_prev = x, ax
    z, az = x.copy(), ax.copy()  # the momentum point, rewritten in place
    t = 1.0
    for _ in range(iterations):
        np.subtract(az, ys, out=r)
        w = r @ a  # the gradient, then u = z - step grad, then w in place
        w *= step
        np.subtract(z, w, out=w)
        mag = np.abs(w)
        mag -= threshold
        np.maximum(mag, 0.0, out=mag)  # |w| once w is thresholded
        np.copysign(mag, w, out=w)
        aw = w @ a.T
        np.subtract(ys, aw, out=r)
        r *= r
        obj_w = 0.5 * np.add.reduce(r, axis=1) + lam * np.add.reduce(mag, axis=1)
        accept = obj_w <= obj
        t_next = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t * t))
        c_w, c_prev = t / t_next, (t - 1.0) / t_next
        # momentum on the accepted iterate; all products are cached combos
        if accept.all():
            x_next, ax_next, obj = w, aw, obj_w
            # (w - x_next) is exactly 0: z = x_next + c_prev (x_next - x_prev)
            for v, v_next, v_prev in ((z, w, x_prev), (az, aw, ax_prev)):
                np.subtract(v_next, v_prev, out=v)
                v *= c_prev
                v += v_next
        else:
            rowwise = accept[:, None]
            x_next = np.where(rowwise, w, x)
            ax_next = np.where(rowwise, aw, ax)
            obj = np.where(accept, obj_w, obj)
            for v, v_new, v_next, v_prev in ((z, w, x_next, x_prev), (az, aw, ax_next, ax_prev)):
                np.subtract(v_new, v_next, out=v)
                v *= c_w
                v += v_next
                np.subtract(v_next, v_prev, out=v_new)
                v_new *= c_prev
                v += v_new
        x_prev, ax_prev = x, ax
        x, ax = x_next, ax_next
        t = t_next
    return x


def _refit_rows(ys: np.ndarray, a: np.ndarray, xs: np.ndarray):
    """Least-squares refit of each row of xs (rows, N) on its own support
    against its row of ys; returns (refits, residual norms), zeros and inf
    where the support is empty or wider than M. One batched normal-equations
    solve per support size, so no row depends on its stack; a size whose
    Gram matrices are singular (a repeated column) gets per-row min-norm lstsq."""
    refits = np.zeros_like(xs)
    residuals = np.full(xs.shape[0], np.inf)
    sizes = np.count_nonzero(xs, axis=1)
    for k in np.unique(sizes[(sizes > 0) & (sizes <= a.shape[0])]):
        group = np.flatnonzero(sizes == k)
        support = np.nonzero(xs[group])[1].reshape(group.size, k)
        cols, y = a.T[support], ys[group]  # cols[i] holds row i's support columns
        try:
            coeffs = np.linalg.solve(cols @ cols.transpose(0, 2, 1), cols @ y[:, :, None])[:, :, 0]
        except np.linalg.LinAlgError:
            coeffs = np.array([np.linalg.lstsq(c.T, v, rcond=None)[0] for c, v in zip(cols, y)])
        refits[group[:, None], support] = coeffs
        residuals[group] = np.linalg.norm(y - (coeffs[:, None, :] @ cols)[:, 0, :], axis=1)
    return refits, residuals


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
    each phase every row's support is refit by least squares in batched
    solves (_refit_rows) and accepted as soon as the refit residual is
    inside the noise budget. The refit also debiases the shrinkage. Entries
    below 1e-4 of the peak magnitude are zeroed before returning.

    The rows are independent problems solved together: they share the step
    (from the matrix's cached ||Phi||^2 estimate) and the phase schedule,
    every other quantity (lam, eps, best refit, convergence) is per row. A
    row leaves the stack once its refit is inside its budget (converged),
    or, unconverged, once its cleaned support is wider than M while it
    already holds a refit: from then on no refit is possible, so further
    phases cannot change its output unless the support narrows again.

    Returns (x, iterations, converged): row i of x (rows, N) solves row i
    of ys, and per row the shrinkage iterations it ran before it left
    (int64) and whether a refit got inside the noise budget (bool). A row
    that never did is its best refit, or its last shrinkage iterate when no
    refit was possible; such a row runs to max_iterations. An all-zero row
    is solved by zeros, converged after 0 iterations.
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
    # one matrix-vector product per row, so a row's lambda path does not
    # depend on the rows stacked with it
    lam = 0.25 * np.max(np.abs((a.T @ ys[:, :, None])[:, :, 0]), axis=1)
    lam_floor = np.where(lam > 0, 1e-12 * lam, 1.0)
    active = np.flatnonzero(~converged)
    y_act, lam_act = ys[active], lam[active]
    x = np.zeros((active.size, n))
    best = np.zeros((rows, n))  # each row's refit with the smallest residual
    best_residual = np.full(rows, np.inf)
    budget = params.max_iterations
    while budget > 0 and active.size:
        this_phase = min(_PHASE_ITERATIONS, budget)
        x = lasso_shrinkage(y_act, a, lam_act, params.shrinkage_step / phi.norm_sq, this_phase, x0=x)
        budget -= this_phase
        iterations[active] += this_phase
        mag = np.abs(x)
        cleaned = np.where(mag >= _HARD_FLOOR * mag.max(axis=1, keepdims=True), x, 0.0)
        wide = np.count_nonzero(cleaned, axis=1) > m
        refits, residuals = _refit_rows(y_act, a, cleaned)
        better = residuals < best_residual[active]
        best[active[better]], best_residual[active[better]] = refits[better], residuals[better]
        done = residuals <= eps[active]
        lam_act = np.maximum(lam_act * _LAMBDA_SHRINK, lam_floor[active])
        converged[active[done]] = True
        # a row too wide to refit that holds a refit already returns it,
        # whatever further phases do, unless its support narrows again
        keep = ~(done | (wide & np.isfinite(best_residual[active])))
        active, x, y_act, lam_act = active[keep], x[keep], y_act[keep], lam_act[keep]

    x_out[active] = x  # shrinkage iterates of the rows left unconverged
    refit = np.isfinite(best_residual)
    mag = np.abs(best[refit])
    x_out[refit] = np.where(mag >= _HARD_FLOOR * mag.max(axis=1, keepdims=True), best[refit], 0.0)
    return x_out, iterations, converged
