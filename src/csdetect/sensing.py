"""Seeded random Gaussian sensing matrices and empirical isometry checks.

Matrices are generated with numpy's default PCG64 generator so that a
(rows, cols, seed) triple is a portable, reproducible identity for the
matrix. Entries are iid N(0, 1/rows), which keeps ||Phi f|| close to ||f||
for sparse f and makes the isometry defect directly interpretable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

__all__ = [
    "SensingMatrix",
    "RipReport",
    "make_sensing_matrix",
    "operator_norm_sq",
    "empirical_rip_check",
]

DEFAULT_ROW_CONSTANT = 4.0


@dataclass(frozen=True, eq=False)
class SensingMatrix:
    """Compressing random projection with seed provenance."""

    entries: np.ndarray
    seed: int

    def __post_init__(self):
        entries = np.ascontiguousarray(np.asarray(self.entries, dtype=np.float64))
        entries.flags.writeable = False
        object.__setattr__(self, "entries", entries)
        if entries.ndim != 2:
            raise ValueError("entries must be a 2-D matrix")
        m, n = entries.shape
        if not 1 <= m < n:
            raise ValueError(f"need 1 <= rows < cols for compression, got {m}x{n}")

    @property
    def rows(self) -> int:
        return int(self.entries.shape[0])

    @property
    def cols(self) -> int:
        return int(self.entries.shape[1])

    @cached_property
    def norm_sq(self) -> float:
        """operator_norm_sq of the entries, estimated once per matrix."""
        return operator_norm_sq(self.entries)

    @cached_property
    def gram(self) -> np.ndarray:
        """entries.T @ entries, (cols, cols), computed once per matrix and
        read-only."""
        gram = self.entries.T @ self.entries
        gram.flags.writeable = False
        return gram

    def __eq__(self, other):
        if not isinstance(other, SensingMatrix):
            return NotImplemented
        return self.seed == other.seed and np.array_equal(self.entries, other.entries)


@dataclass(frozen=True)
class RipReport:
    """Result of a Monte-Carlo near-isometry scan."""

    delta_observed: float
    trials: int
    sparsity_tested: int
    violation_count: int
    delta_bound: float

    def __post_init__(self):
        if self.delta_observed < 0:
            raise ValueError("delta_observed must be >= 0")
        if self.violation_count > self.trials:
            raise ValueError("violation_count cannot exceed trials")


def make_sensing_matrix(rows: int, cols: int, seed: int) -> SensingMatrix:
    """Dense (rows, cols) matrix with iid N(0, 1/rows) entries."""
    if rows < 1:
        raise ValueError("rows must be >= 1")
    if rows >= cols:
        raise ValueError(f"rows={rows} must be < cols={cols}; projection must compress")
    rng = np.random.default_rng(seed)
    entries = rng.normal(0.0, 1.0 / math.sqrt(rows), size=(rows, cols))
    return SensingMatrix(entries=entries, seed=seed)


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


def empirical_rip_check(
    phi,
    sparsity: int,
    trials: int,
    seed: int,
    delta_bound: float = 0.6,
) -> RipReport:
    """Monte-Carlo scan of the near-isometry of phi on sparse vectors.

    Draws `trials` random unit vectors with 2*sparsity nonzeros (the
    difference of two k-sparse signals is 2k-sparse) and reports the worst
    observed deviation | ||Phi f|| - 1 | plus how many trials exceeded
    `delta_bound`.

    `phi` may be a SensingMatrix or a bare 2-D array (the latter lets tests
    probe square orthonormal matrices that the SensingMatrix constructor
    rejects).
    """
    matrix = phi.entries if isinstance(phi, SensingMatrix) else np.asarray(phi)
    n = matrix.shape[1]
    s = 2 * sparsity
    if s > n:
        raise ValueError(f"2*sparsity={s} exceeds signal length {n}")
    rng = np.random.default_rng(seed)
    worst = 0.0
    violations = 0
    for _ in range(trials):
        support = rng.choice(n, size=s, replace=False)
        x = np.zeros(n)
        x[support] = rng.normal(size=s)
        x /= np.linalg.norm(x)
        deviation = abs(float(np.linalg.norm(matrix @ x)) - 1.0)
        worst = max(worst, deviation)
        if deviation > delta_bound:
            violations += 1
    return RipReport(
        delta_observed=worst,
        trials=trials,
        sparsity_tested=sparsity,
        violation_count=violations,
        delta_bound=delta_bound,
    )
