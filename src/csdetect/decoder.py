"""From recovered location signals back to point detections.

Signals are dense float arrays that are zero off their support; the axis
route recovers them as the rows of one (axes, bins) array with
recovery.recover_rows, which runs the solver its RecoveryParams name.

Reshaping route: threshold the recovered map signal and invert the
index = x + h(y-1) rule.

Axis route: back-project every recovered (bin, distance) pair of every
axis into the image plane, drop near-axis noise (recovery errors produce
entries with tiny distances, true cells sit at least the encoder margin
away), cluster the surviving candidates with flat-kernel mean shift, and
keep clusters backed by enough axes. Detection = mean of the cluster's
candidates, support = how many candidates agreed. Votes are rows of an
(n, 3) float array (x, y, |d|), pooled across axes in axis order.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .core import DetectedPoint, DetectionResult, ImageGrid
from .encoder import AxisLayout, ObservationAxis, axis_geometry
from .recovery import RecoveryParams, recover_rows
# unused here; perfbench/tracing.py wraps these names on this module
from .recovery import bp_recover, omp_recover, operator_norm_sq  # noqa: F401
from .sensing import SensingMatrix

__all__ = [
    "DecodeParams",
    "decode_scheme1",
    "backproject_axis",
    "filter_noise_candidates",
    "meanshift_cluster",
    "decode_scheme2",
    "merge_ensemble",
]

log = logging.getLogger(__name__)

_SHIFT_TOL = 1e-3
_SHIFT_MAX_ITER = 100


@dataclass(frozen=True)
class DecodeParams:
    """Decoding knobs. None fields resolve against the axis layout:
    noise_margin defaults to the encoder margin, bandwidth to half of it,
    min_support to ceil(L/2)."""

    scheme1_threshold: float = 0.5
    bandwidth: float | None = None
    min_support: int | None = None
    noise_margin: float | None = None
    merge_radius: float = 9.0
    merge_min_count: int = 6

    def __post_init__(self):
        if self.bandwidth is not None and self.bandwidth <= 0:
            raise ValueError("bandwidth must be > 0")
        if self.min_support is not None and self.min_support < 1:
            raise ValueError("min_support must be >= 1")
        if self.noise_margin is not None and self.noise_margin <= 0:
            raise ValueError("noise_margin must be > 0")
        if self.merge_radius <= 0 or self.merge_min_count < 1:
            raise ValueError("merge parameters must be positive")

    def resolved(self, layout: AxisLayout) -> "DecodeParams":
        margin = self.noise_margin if self.noise_margin is not None else layout.margin
        bandwidth = self.bandwidth if self.bandwidth is not None else 0.5 * margin
        support = (
            self.min_support
            if self.min_support is not None
            else int(math.ceil(layout.count / 2))
        )
        if support > layout.count:
            raise ValueError(f"min_support {support} exceeds axis count {layout.count}")
        return DecodeParams(
            scheme1_threshold=self.scheme1_threshold,
            bandwidth=bandwidth,
            min_support=support,
            noise_margin=margin,
            merge_radius=self.merge_radius,
            merge_min_count=self.merge_min_count,
        )


def decode_scheme1(f_hat: np.ndarray, grid: ImageGrid, threshold: float) -> DetectionResult:
    """Nonzero entries above the threshold, mapped back through
    index = x + h(y-1)."""
    f_hat = np.asarray(f_hat, dtype=np.float64)
    if f_hat.shape != (grid.n_pixels,):
        raise ValueError(
            f"signal shape {f_hat.shape} does not match grid pixels {grid.n_pixels}"
        )
    points = []
    h = grid.height
    for index in (np.flatnonzero((f_hat != 0) & (f_hat > threshold)) + 1).tolist():
        x = (index - 1) % h + 1
        y = (index - 1) // h + 1
        if not grid.contains(x, y):
            raise ValueError(
                f"index {index} inverts to ({x}, {y}) outside the grid; "
                f"reshaping decode requires a square grid"
            )
        points.append(DetectedPoint(x=float(x), y=float(y), support=1))
    return DetectionResult(points=tuple(points))


def _votes(geometry: np.ndarray, r: np.ndarray, d: np.ndarray) -> np.ndarray:
    """Rows x, y, |d| of the votes origin + r*dir + d*normal of (bin r, distance d)
    entries; geometry holds each entry's axis_geometry row, or one row for all."""
    votes = np.empty((r.size, 3))
    votes[:, :2] = geometry[:, :2] + r[:, None] * geometry[:, 2:4] + d[:, None] * geometry[:, 4:]
    np.abs(d, out=votes[:, 2])
    if not np.isfinite(votes[:, :2]).all():
        raise ValueError("candidate coordinates must be finite")
    return votes


def backproject_axis(f_hat_l: np.ndarray, axis: ObservationAxis) -> np.ndarray:
    """Each nonzero entry, distance d at bin r, votes for
    origin + r*dir + d*normal.

    Returns one row per vote, in bin order: x, y and the vote's magnitude |d|.
    """
    f_hat_l = np.asarray(f_hat_l, dtype=np.float64)
    if f_hat_l.shape != (axis.bin_count,):
        raise ValueError(
            f"signal shape {f_hat_l.shape} does not match bin count {axis.bin_count}"
        )
    (bins,) = np.nonzero(f_hat_l)
    return _votes(axis_geometry((axis,)), bins + 1, f_hat_l[bins])


def filter_noise_candidates(candidates: np.ndarray, grid: ImageGrid, noise_margin: float) -> np.ndarray:
    """Drop votes that hug their axis (magnitude below the margin) or fall
    outside the margin-expanded image rectangle (bounds inclusive)."""
    x, y, magnitude = candidates[:, 0], candidates[:, 1], candidates[:, 2]
    keep = (magnitude >= noise_margin) & grid.contains(x, y, margin=noise_margin)
    return candidates[keep]


def meanshift_cluster(candidates: np.ndarray, bandwidth: float):
    """Flat-kernel mean shift over candidate positions, the first two
    columns of an (n, 2+) array.

    Every candidate iterates to the mean of its bandwidth-neighbors among
    the original positions until it moves less than 1e-3 px. Trajectories
    never see each other, so all of them advance together, one array step
    per iteration, and each drops out once it has converged. Modes form
    clusters greedily in candidate order: each mode joins the first earlier
    cluster whose founding mode lies within bandwidth/2, or founds a new
    one. Returns [(mean point, support)] where the mean is over the
    original (unshifted) member positions and support is the member count.
    """
    if bandwidth <= 0:
        raise ValueError("bandwidth must be > 0")
    if not len(candidates):
        return []
    pts = np.array(candidates[:, :2], dtype=np.float64)
    modes = pts.copy()
    active = np.arange(len(pts))
    bw2 = bandwidth * bandwidth
    for _ in range(_SHIFT_MAX_ITER):
        if not active.size:
            break
        p = modes[active]
        d2 = pts[:, 0:1] - p[:, 0]  # (points, active trajectories)
        d2 *= d2
        dy2 = pts[:, 1:2] - p[:, 1]
        dy2 *= dy2
        d2 += dy2
        near = d2 <= bw2
        # Summing down axis 0 adds the neighbors one at a time in candidate
        # order, as pts[near].mean(axis=0) does for a single trajectory, so
        # the modes are bit-identical to shifting one candidate at a time.
        sums = (near[:, None, :] * pts[:, :, None]).sum(axis=0)  # (2, active)
        shifted = (sums / near.sum(axis=0)).T
        moved = np.hypot(shifted[:, 0] - p[:, 0], shifted[:, 1] - p[:, 1])
        modes[active] = shifted
        active = active[~(moved < _SHIFT_TOL)]

    # The first unassigned mode founds the next cluster and takes every
    # unassigned mode near it: the modes left unassigned matched no earlier
    # founder, so this is the same first-founder-wins partition.
    merge2 = (0.5 * bandwidth) ** 2
    mx, my = modes[:, 0], modes[:, 1]
    xs, ys = pts[:, 0], pts[:, 1]
    free = np.ones(len(pts), dtype=bool)
    clusters = []
    while free.any():
        founder = int(np.argmax(free))
        dx, dy = mx - mx[founder], my - my[founder]
        members = free & (dx * dx + dy * dy <= merge2)
        members[founder] = True  # a NaN mode matches nothing, not even itself
        free &= ~members
        idx = np.flatnonzero(members)
        clusters.append(((float(xs[idx].mean()), float(ys[idx].mean())), len(idx)))
    return clusters


def decode_scheme2(
    y_hat,
    layout: AxisLayout,
    phi: SensingMatrix,
    params: DecodeParams | None = None,
    recovery: RecoveryParams | None = None,
    diagnostics: dict | None = None,
) -> DetectionResult:
    """Full axis-route decode of an (L, M) measurement array whose block i
    encodes layout.axes[i].

    Recover every axis's sparse signal (recover_rows solves the L blocks
    together in one batched run of recovery.solver) and back-project them
    to candidate points in one pass. Pooled candidates are noise-filtered
    and mean-shift clustered; clusters with support >= min_support become
    detections at the cluster mean. A non-converging axis is logged and
    decoded with its best iterate rather than aborting the others. A
    non-finite prediction is rejected before any solve.
    """
    params = (params or DecodeParams()).resolved(layout)
    recovery = recovery or RecoveryParams()
    blocks = np.asarray(y_hat, dtype=np.float64)
    if blocks.shape != (layout.count, phi.rows):
        raise ValueError(
            f"measurement shape {blocks.shape} does not match {layout.count} axes x {phi.rows} matrix rows"
        )
    if any(axis.bin_count != phi.cols for axis in layout.axes):
        raise ValueError("matrix columns do not match the layout's bins")
    finite = np.isfinite(blocks).all(axis=1)
    if not finite.all():
        bad = [str(axis.index) for axis, ok in zip(layout.axes, finite) if not ok]
        raise ValueError(f"non-finite prediction on axes {','.join(bad)}")

    x, iterations, converged = recover_rows(blocks, phi, recovery)

    rows, bins = np.nonzero(x)  # row-major: axis order, then bin order within an axis
    candidates = _votes(axis_geometry(layout.axes)[rows], bins + 1, x[rows, bins])
    stalled = [axis.index for axis, done in zip(layout.axes, converged) if not done]
    if stalled:
        log.warning(
            "%d of %d axes stopped above the recovery tolerance (axes %s); "
            "decoding with their best iterates",
            len(stalled), layout.count, ",".join(map(str, stalled)),
        )
    kept = filter_noise_candidates(candidates, layout.grid, params.noise_margin)
    clusters = meanshift_cluster(kept, params.bandwidth)
    points = tuple(
        DetectedPoint(x=cx, y=cy, support=support)
        for (cx, cy), support in clusters
        if support >= params.min_support
    )
    if diagnostics is not None:
        diagnostics["axes"] = [
            {"axis": axis.index, "signal": x[i],
             "candidates": candidates[rows == i], "iterations": its, "converged": done}
            for i, (axis, its, done) in enumerate(zip(layout.axes, iterations.tolist(), converged.tolist()))
        ]
    return DetectionResult(points=points)


def merge_ensemble(detection_sets, merge_radius: float = 9.0, merge_min_count: int = 6) -> DetectionResult:
    """Fuse detections from several runs of the same image.

    Pools everything, then repeatedly seeds on the unconsumed detection
    with the most unconsumed neighbors within merge_radius (ties: smallest
    x, then y). A group of at least merge_min_count detections is emitted
    as its average; a smaller group just consumes its seed. Result order
    and content are independent of the order of the input sets.
    """
    if merge_min_count < 1:
        raise ValueError("merge_min_count must be >= 1")
    if merge_radius <= 0:
        raise ValueError("merge_radius must be > 0")
    pool = sorted(
        ((p.x, p.y) for result in detection_sets for p in result.points),
    )
    if not pool:
        return DetectionResult()
    pts = np.array(pool, dtype=np.float64)
    alive = np.ones(len(pts), dtype=bool)
    r2 = merge_radius * merge_radius
    merged = []
    while alive.any():
        live_idx = np.flatnonzero(alive)
        live = pts[live_idx]
        d2 = np.sum((live[:, None, :] - live[None, :, :]) ** 2, axis=2)
        counts = np.sum(d2 <= r2, axis=1)
        seed = int(np.argmax(counts))  # pool is (x, y)-sorted, so first max wins ties
        group = live_idx[d2[seed] <= r2]
        if counts[seed] >= merge_min_count:
            gx, gy = pts[group].mean(axis=0)
            merged.append(DetectedPoint(x=float(gx), y=float(gy), support=int(counts[seed])))
            alive[group] = False
        else:
            alive[live_idx[seed]] = False
    merged.sort(key=lambda p: (p.x, p.y))
    return DetectionResult(points=tuple(merged))
