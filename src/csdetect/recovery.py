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
  least-squares refit of the active set each round, in the Cholesky form
  of Batch-OMP (Rubinstein, Zibulevsky & Elad 2008). Every row of the
  stack gains one atom per step: its correlations come from Phi^T y and
  the matrix's cached Gram matrix Phi^T Phi (SensingMatrix.gram), and its
  refit from the inverse of the Cholesky factor of its support's Gram
  matrix, grown by one row per atom. A row stops once its explicitly
  formed residual is within 1e-8 ||y||; only rows whose running ||u||^2
  is within 1e-12 ||y||^2 of ||y||^2 have it formed. A row also stops,
  unconverged, once its best correlation is rounding dust (at most
  1e-12 ||y|| max_j ||phi_j||).
* bp: basis pursuit denoising, min ||f||_1 s.t. ||y - Phi f|| <= eps,
  solved by monotone accelerated shrinkage-thresholding with lambda
  continuation and a least-squares refit of the support after each phase,
  batched like omp's. eps = 0 asks for the equality-constrained program
  and is handled with a tiny internal floor. A row stops once a refit is
  inside its budget, or once its support is wider than M after it already
  holds a refit (no further refit is possible), as continuation solvers
  stop early (Hale, Yin & Zhang 2008, fixed-point continuation). It runs
  on rows scaled by an exact power of two (||y|| 2**-e in [0.5, 1)). The
  shrinkage only finds the support, so it runs in float32; the cleaning,
  the refits and their residuals are float64, and the answer is the
  float64 refit, scaled back. A row that never gets a refit returns its
  last float32 iterate, scaled back and widened to float64.

Both treat residual tolerances relative to ||y|| so recovery commutes with
positive rescaling of the measurements. Every row's norm is its plain dot
product where that is exact (a sum of squares in [2**-900, inf)), and is
taken of the row scaled by an exact power of two otherwise, so it is finite
for every finite row; both solvers run on rows scaled to a norm in
[0.5, 1). A row with a NaN or an inf entry raises ValueError naming it.
The bound that is left is basis pursuit's starting lambda,
0.25 ||Phi^T y||_inf, which overflows for rows with entries near 1e306.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .sensing import DEFAULT_ROW_CONSTANT, SensingMatrix

__all__ = [
    "RecoveryParams",
    "recover_rows",
    "default_max_sparsity",
    "omp_recover",
    "omp_recover_rows",
    "bp_recover",
    "bp_recover_rows",
    "lasso_shrinkage",
]

# relative floor standing in for the equality constraint when noise_budget_frac=0
_EQUALITY_FLOOR = 1e-9
# entries below this fraction of the peak are shrinkage dust, not support
_HARD_FLOOR = 1e-4
_LAMBDA_SHRINK = 0.2
_PHASE_ITERATIONS = 25
# OMP stops once its residual is within this fraction of ||y||
_OMP_RESIDUAL_TOL = 1e-8
# OMP measures the residual of a row once ||y||^2 - ||u||^2 is within this
# fraction of ||y||^2, far above _OMP_RESIDUAL_TOL**2 and the rounding of
# the running ||u||^2
_OMP_PRESELECT = 1e-12
# OMP ends a row whose best correlation is at most this fraction of
# ||y|| max_j ||phi_j||, the largest correlation any residual can have:
# rounding dust, not a direction the columns reach
_OMP_CORR_FLOOR = 1e-12
# _stack takes a row's plain dot when its sum of squares is at least this:
# far from overflow, and a square that underflows cannot reach its rounding
_PLAIN_NORM_SQ_FLOOR = 2.0**-900


@dataclass(frozen=True)
class RecoveryParams:
    """The `recovery:` config section, shared by both decoding routes.

    solver: "bp" (basis pursuit) or "omp" (orthogonal matching pursuit).
    max_sparsity: active-set cap for OMP; None means ceil(M / (4 ln N)).
    noise_budget_frac: basis pursuit's eps relative to the measurements,
        eps = frac * ||y||, so it needs no ||y|| up front.
    max_iterations: BP shrinkage iterations, and a second cap on OMP atoms.

    OMP stops at a residual of 1e-8 ||y||; basis pursuit steps by
    1 / ||Phi||^2 (FISTA's 1/L step).
    """

    solver: str = "bp"
    max_sparsity: int | None = None
    noise_budget_frac: float = 0.1
    max_iterations: int = 2000

    def __post_init__(self):
        if self.solver not in ("bp", "omp"):
            raise ValueError(f"solver must be bp or omp, got {self.solver!r}")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        if self.noise_budget_frac < 0:
            raise ValueError("noise_budget_frac must be >= 0")
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
    """A validated (rows, m) measurement stack of finite rows and each row's
    norm. Each norm is its own row-by-row dot product, the sum
    np.linalg.norm takes of a row alone, so a row's norm does not depend on
    its stack. A row whose sum of squares lies in [2**-900, inf) keeps its
    plain dot: no square overflows, and the squares that underflow are too
    small to reach the sum's rounding. Any other row is scaled by 2**-e,
    where e is the frexp exponent of its largest magnitude, before its dot,
    and its norm is scaled back: the scale is exact, the sum of squares
    neither overflows nor loses its largest terms to underflow, and the
    norm is the one the plain dot gives where that dot is exact. A row with
    a NaN or an inf entry raises ValueError."""
    ys = np.asarray(ys, dtype=np.float64)
    if ys.ndim != 2 or ys.shape[1] != m:
        raise ValueError(f"measurement stack {ys.shape} does not have {m} columns")
    with np.errstate(over="ignore"):
        sq = (ys[:, None, :] @ ys[:, :, None])[:, 0, 0]
    norms = np.sqrt(sq)
    plain = sq >= _PLAIN_NORM_SQ_FLOOR
    plain &= sq < np.inf
    if np.count_nonzero(plain) < plain.size:  # tiny, huge, all-zero or non-finite rows
        odd = (~plain).nonzero()[0]
        y = ys[odd]
        finite = np.isfinite(y).all(axis=1)
        if not finite.all():
            raise ValueError(f"measurement row {odd[~finite][0]} is not finite")
        e = np.frexp(np.max(np.abs(y), axis=1))[1]
        y = np.ldexp(y, -e[:, None])
        norms[odd] = np.ldexp(np.sqrt((y[:, None, :] @ y[:, :, None])[:, 0, 0]), e)
    return ys, norms


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
    1e-8 * ||y|| or the sparsity cap is hit.

    Cholesky OMP (Batch-OMP) on each row scaled by 2**-e, where
    ||y|| = f 2**e with f in [0.5, 1), an exact scale; the coefficients
    are scaled back. G = Phi^T Phi is the matrix's cached gram. All live
    rows step together, so at step k every row holds k atoms S, and with
    them G_S (their rows of G), the inverse L^-1 of the Cholesky factor of
    their Gram matrix, u = L^-1 (Phi^T y)_S and the coefficients
    c = L^-T u. A step takes the correlations Phi^T y - c G_S, picks the
    column p of the largest magnitude off the support, and grows L^-1 by
    one row: with w = L^-1 G_S[:, p] and the pivot d = sqrt(G_pp - w.w),
    the new row is [-w^T L^-1 / d, 1 / d] and u gains
    ((Phi^T y)_p - w.u) / d. No residual or normal equations are formed
    for the pick or the refit. The step writes into buffers the call
    owns and indexes them through flat offsets.

    The stop rule is the explicit ||y - Phi_S c|| <= 1e-8 ||y||. Only rows
    whose running ||u||^2 (||y||^2 minus the squared residual, by
    orthogonality) has reached (1 - 1e-12) ||y||^2 have their residual
    formed and measured; the margin is far above the rounding of the
    running sum. A row leaves the stack once it is within tolerance
    (converged); or, keeping its current fit, when its best correlation is
    at most 1e-12 ||y|| max_j ||phi_j|| (the residual is orthogonal to
    every remaining column, up to rounding) or its pivot is not positive
    (the column is numerically in the span of the support).

    Returns (x, iterations, converged): row i of x (rows, N) solves row i
    of ys, and per row the number of atoms picked (int64) and whether the
    residual reached the tolerance (bool). An all-zero row is solved by
    zeros, converged after 0 iterations. A row with a NaN or an inf entry
    raises ValueError.
    """
    params = params or RecoveryParams()
    a, gram = phi.entries, phi.gram
    m, n = a.shape
    ys, norm_y = _stack(ys, m)
    rows = ys.shape[0]
    x = np.zeros((rows, n))
    iterations = np.zeros(rows, dtype=np.int64)
    converged = norm_y == 0.0
    kmax = params.max_sparsity or default_max_sparsity(m, n)
    kmax = min(kmax, m, params.max_iterations)

    # every row times 2**-e, where ||y|| = f 2**e with f in [0.5, 1): an
    # exact scale, so the pursuit of the scaled row is the pursuit of the
    # row, scaled, and ||y||^2 and ||u||^2 cannot overflow
    e = np.frexp(norm_y)[1]
    y_s, norm_s = np.ldexp(ys, -e[:, None]), np.ldexp(norm_y, -e)
    active = norm_y.nonzero()[0]
    live = active.size
    norm_act = norm_s[active]
    aty = (y_s if live == rows else y_s[active]) @ a  # Phi^T y
    diag = np.diagonal(gram)
    # per row: the preselect threshold, the correlation floor and the running ||u||^2
    ready = norm_act * norm_act * (1.0 - _OMP_PRESELECT)
    floor = _OMP_CORR_FLOOR * float(np.sqrt(diag.max())) * norm_act
    uu = np.zeros(live)
    # per atom in pick order, one entry per row: the chosen columns, their
    # flat offsets in the correlation buffer and their rows of Phi^T Phi
    # (only the first k atoms are ever read); per row, one entry per atom:
    # the inverse L^-1 of the Cholesky factor of the support's Gram matrix
    # (zero above the diagonal), u = L^-1 (Phi^T y)_S and c = L^-T u
    support = np.zeros((kmax, live), dtype=np.int64)
    support_at = np.zeros((kmax, live), dtype=np.int64)
    g_rows = np.empty((kmax, live, n))
    l_inv = np.zeros((live, kmax, kmax))
    u = np.zeros((live, kmax))
    coeffs = np.zeros((live, kmax))
    corr = np.empty((live, n))  # |Phi^T (y - Phi_S c)|, rewritten each step
    # flat offsets: each stack position's row in the (live, n) buffers, and
    # each atom's block in g_rows
    row_at = np.arange(live) * n
    at, c, g_at = row_at, corr, np.arange(kmax)[:, None] * (live * n)

    def finish(leaving, k, done):
        # rows at positions `leaving` of the stack stop with k atoms
        out = active[leaving]
        x.ravel()[support[:k, leaving] + out * n] = np.ldexp(coeffs[leaving, :k], e[out, None]).T
        iterations[out] = k
        converged[out] = done

    def keep_rows(keep, k):
        # the stack keeps the rows `keep`, each holding k atoms
        nonlocal active, aty, norm_act, ready, floor, uu, l_inv, u, coeffs
        nonlocal support, support_at, g_rows, at, c, g_at
        active, aty, norm_act, ready, floor, uu, l_inv, u, coeffs = (
            v[keep] for v in (active, aty, norm_act, ready, floor, uu, l_inv, u, coeffs)
        )
        live = active.size
        at, c, g_at = row_at[:live], corr[:live], np.arange(kmax)[:, None] * (live * n)
        support = support[:, keep]
        support_at = support + at
        kept = np.empty((kmax, live, n))
        kept[:k] = g_rows[:k, keep]
        g_rows = kept
        return live

    for k in range(kmax):  # every row of the stack holds k atoms
        if not live:
            break
        if k:  # the correlations, off the support
            np.matmul(coeffs[:, None, :k], g_rows[:k].transpose(1, 0, 2), out=c[:, None, :])
            np.subtract(aty, c, out=c)
            np.abs(c, out=c)
            c.ravel()[support_at[:k]] = 0.0
        else:
            np.abs(aty, out=c)
        picks = c.argmax(axis=1)
        flat = at + picks
        best = c.ravel()[flat]
        if k:  # w = L^-1 (Phi_S^T phi_p), and the pivot
            w = (l_inv[:, :k, :k] @ g_rows.ravel()[(g_at[:k] + flat).T][:, :, None])[:, :, 0]
            pivot = diag[picks] - (w[:, None, :] @ w[:, :, None])[:, 0, 0]
        else:
            w, pivot = np.empty((live, 0)), diag[picks]
        # a best correlation at the floor (the residual is orthogonal to
        # every remaining column, up to rounding) or a pivot that is not
        # positive (the column is numerically in the span of the support)
        # ends the row with its current fit
        moving = np.minimum(best - floor, pivot) > 0.0
        if np.count_nonzero(moving) < live:
            finish(~moving, k, False)
            live = keep_rows(moving, k)
            picks, w, pivot = picks[moving], w[moving], pivot[moving]
            flat = at + picks
        d = np.sqrt(pivot)
        aty_p = aty.ravel()[flat]
        if k:  # the new row of L^-1, and u_k = ((Phi^T y)_p - w.u) / d
            np.divide(w[:, None, :] @ l_inv[:, :k, :k], -d[:, None, None], out=l_inv[:, k : k + 1, :k])
            aty_p -= (w[:, None, :] @ u[:, :k, None])[:, 0, 0]
        np.divide(1.0, d, out=l_inv[:, k, k])
        np.divide(aty_p, d, out=u[:, k])
        np.matmul(u[:, None, : k + 1], l_inv[:, : k + 1, : k + 1], out=coeffs[:, None, : k + 1])
        support[k] = picks
        support_at[k] = flat
        # picks are in range: "clip" only spares take its buffered bounds check
        gram.take(picks, axis=0, out=g_rows[k], mode="clip")
        # ||y - Phi_S c||^2 = ||y||^2 - ||u||^2 picks the rows near the
        # tolerance; only their residuals are formed and measured
        uu += u[:, k] * u[:, k]
        near = (uu >= ready).nonzero()[0]
        if near.size:
            cols = a.T[support[: k + 1, near].T]  # cols[i] holds row near[i]'s support columns
            residual = y_s[active[near]] - (coeffs[near, None, : k + 1] @ cols)[:, 0, :]
            within = np.linalg.norm(residual, axis=1) <= _OMP_RESIDUAL_TOL * norm_act[near]
            if within.any():
                keep = np.ones(live, dtype=bool)
                keep[near[within]] = False
                finish(~keep, k + 1, True)
                live = keep_rows(keep, k + 1)
    if live:  # rows stopped by the cap
        finish(np.ones(live, dtype=bool), kmax, False)
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

    The iteration computes in the dtype of a, a float matrix: ys, lam,
    step and x0 are cast to it, and the products by A^T go through one
    C-contiguous copy of A^T. bp_recover_rows passes a float32 a and rows
    scaled by a power of two.

    Returns x, (rows, N), in a's dtype. Every row's objective is
    non-increasing from one iterate to the next. Neither ys, lam nor x0 is
    written to.
    """
    dtype = a.dtype
    ys = np.asarray(ys, dtype=dtype)
    if ys.ndim != 2:
        raise ValueError(f"measurement stack {ys.shape} is not 2-D")
    rows, n = ys.shape[0], a.shape[1]
    lam = np.broadcast_to(np.asarray(lam, dtype=np.float64), (rows,))
    valid = np.isfinite(lam) & (lam >= 0)
    if not valid.all():
        raise ValueError(f"lam must be finite and >= 0, got {lam[~valid][0]}")
    lam = lam.astype(dtype)
    if not (step > 0 and math.isfinite(step)):
        raise ValueError(f"step must be finite and > 0, got {step}")
    step = dtype.type(step)
    if x0 is None:
        x = np.zeros((rows, n), dtype=dtype)
    else:
        x = np.array(x0, dtype=dtype)
        if x.shape != (rows, n):
            raise ValueError(f"x0 {x.shape} is not ({rows}, {n})")
    a_t = np.ascontiguousarray(a.T)  # its product is faster than through the view a.T
    ax = x @ a_t
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
        aw = w @ a_t
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

    Every row and its lam and eps are multiplied by 2**-e, where
    ||y|| = f 2**e with f in [0.5, 1), an exact scale under which float32
    neither overflows nor underflows and no refit residual overflows
    float64; the answer is scaled back. The shrinkage only finds the
    support, so it runs in float32. The cleaning of each iterate (in
    float64, against its own peak), the width test, the refits and the
    best-refit bookkeeping are float64, against the matrix and the scaled
    rows in float64.

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
    that never did is its best refit, or, when no refit was possible, its
    last float32 shrinkage iterate, scaled back by 2**e and widened to
    float64; such a row runs to max_iterations. An all-zero row is solved
    by zeros, converged after 0 iterations.
    """
    params = params or RecoveryParams()
    a = phi.entries
    m, n = a.shape
    ys, norm_y = _stack(ys, m)
    rows = ys.shape[0]
    x_out = np.zeros((rows, n))
    iterations = np.zeros(rows, dtype=np.int64)
    converged = norm_y == 0.0
    # one matrix-vector product per row, so a row's lambda path does not
    # depend on the rows stacked with it
    lam = 0.25 * np.max(np.abs((a.T @ ys[:, :, None])[:, :, 0]), axis=1)
    lam_floor = np.where(lam > 0, 1e-12 * lam, 1.0)
    # the solve runs on each row times 2**-e, where ||y|| = f 2**e with f
    # in [0.5, 1): an exact scale, so lam, eps, the iterates, the refits and
    # the peak-relative floor scale with it, float32 neither overflows nor
    # underflows, and no refit residual overflows, on a row whose norm is
    # finite
    e = np.frexp(norm_y)[1]
    y_s = np.ldexp(ys, -e[:, None])
    eps = max(params.noise_budget_frac, _EQUALITY_FLOOR) * np.ldexp(norm_y, -e)
    a32 = a.astype(np.float32)
    active = np.flatnonzero(~converged)
    y_act, lam_act, e_act = y_s[active], lam[active], e[active]
    y32 = y_act.astype(np.float32)
    x = np.zeros((active.size, n), dtype=np.float32)
    best = np.zeros((rows, n))  # each row's refit with the smallest residual, scaled
    best_residual = np.full(rows, np.inf)
    budget = params.max_iterations
    while budget > 0 and active.size:
        this_phase = min(_PHASE_ITERATIONS, budget)
        x = lasso_shrinkage(y32, a32, np.ldexp(lam_act, -e_act), 1.0 / phi.norm_sq, this_phase, x0=x)
        budget -= this_phase
        iterations[active] += this_phase
        x64 = x.astype(np.float64)
        mag = np.abs(x64)
        cleaned = np.where(mag >= _HARD_FLOOR * mag.max(axis=1, keepdims=True), x64, 0.0)
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
        active, x, y_act, y32, lam_act, e_act = (v[keep] for v in (active, x, y_act, y32, lam_act, e_act))

    x_out[active] = np.ldexp(x.astype(np.float64), e_act[:, None])  # last iterates, scaled back
    refit = np.isfinite(best_residual)
    mag = np.abs(best[refit])
    x_out[refit] = np.ldexp(
        np.where(mag >= _HARD_FLOOR * mag.max(axis=1, keepdims=True), best[refit], 0.0), e[refit, None]
    )
    return x_out, iterations, converged
