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
from dataclasses import dataclass, replace

import numpy as np

from .core import DetectionResult, ImageGrid
from .encoder import AxisLayout
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
# least trajectories in a chunk of a windowed mean-shift step: below two
# chunks' worth, a window's set-up costs more than the pairs it skips
_SHIFT_CHUNK = 64


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
        return replace(self, bandwidth=bandwidth, min_support=support, noise_margin=margin)


def decode_scheme1(f_hat: np.ndarray, grid: ImageGrid, threshold: float) -> DetectionResult:
    """Nonzero entries above the threshold, mapped back through
    index = x + h(y-1)."""
    f_hat = np.asarray(f_hat, dtype=np.float64)
    if f_hat.shape != (grid.n_pixels,):
        raise ValueError(
            f"signal shape {f_hat.shape} does not match grid pixels {grid.n_pixels}"
        )
    index = np.flatnonzero((f_hat != 0) & (f_hat > threshold))
    x, y = index % grid.height + 1, index // grid.height + 1
    outside = np.flatnonzero(~grid.contains(x, y))
    if outside.size:
        i = outside[0]
        raise ValueError(
            f"index {index[i] + 1} inverts to ({x[i]}, {y[i]}) outside the grid; "
            f"reshaping decode requires a square grid"
        )
    return DetectionResult(np.column_stack([x, y, np.ones(index.size)]))


def _votes(geometry: np.ndarray, r: np.ndarray, d: np.ndarray) -> np.ndarray:
    """Rows x, y, |d| of the votes origin + r*dir + d*normal of (bin r, distance d)
    entries; geometry holds each entry's layout.geometry row, or one row for all."""
    votes = np.empty((r.size, 3))
    votes[:, :2] = geometry[:, :2] + r[:, None] * geometry[:, 2:4] + d[:, None] * geometry[:, 4:]
    np.abs(d, out=votes[:, 2])
    if not np.isfinite(votes[:, :2]).all():
        raise ValueError("candidate coordinates must be finite")
    return votes


def backproject_axis(f_hat_l: np.ndarray, layout: AxisLayout, i: int) -> np.ndarray:
    """Each nonzero entry of axis i's signal, distance d at bin r, votes
    for origin + r*dir + d*normal.

    Returns one row per vote, in bin order: x, y and the vote's magnitude |d|.
    """
    f_hat_l = np.asarray(f_hat_l, dtype=np.float64)
    if f_hat_l.shape != (layout.bin_count,):
        raise ValueError(
            f"signal shape {f_hat_l.shape} does not match bin count {layout.bin_count}"
        )
    if not 0 <= i < layout.count:
        raise ValueError(f"axis position {i} outside a layout of {layout.count} axes")
    (bins,) = np.nonzero(f_hat_l)
    return _votes(layout.geometry[i : i + 1], bins + 1, f_hat_l[bins])


def filter_noise_candidates(candidates: np.ndarray, grid: ImageGrid, noise_margin: float) -> np.ndarray:
    """Drop votes that hug their axis (magnitude below the margin) or fall
    outside the margin-expanded image rectangle (bounds inclusive)."""
    x, y, magnitude = candidates[:, 0], candidates[:, 1], candidates[:, 2]
    keep = (magnitude >= noise_margin) & grid.contains(x, y, margin=noise_margin)
    return candidates[keep]


def _shift(window: np.ndarray, p: np.ndarray, bw2: float) -> np.ndarray:
    """One flat-kernel step of the trajectories at p: the mean of the
    window's candidates within the bandwidth of each, NaN where none is."""
    d2 = window[:, 0:1] - p[:, 0]  # (window candidates, trajectories)
    d2 *= d2
    dy2 = window[:, 1:2] - p[:, 1]
    dy2 *= dy2
    d2 += dy2
    near = d2 <= bw2
    # Summing down axis 0 adds the window's candidates one at a time in
    # candidate order, as pts[near].mean(axis=0) does for one trajectory; a
    # candidate outside the kernel adds an exact 0.0. The x/y axis keeps the
    # sum sequential for a single trajectory too: numpy sums an (n, 1)
    # column pairwise.
    sums = (near[:, None, :] * window[:, :, None]).sum(axis=0)  # (2, trajectories)
    return (sums / near.sum(axis=0)).T


def meanshift_cluster(candidates: np.ndarray, bandwidth: float):
    """Flat-kernel mean shift over candidate positions, the first two
    columns of an (n, 2+) array of finite values.

    Every candidate iterates to the mean of its bandwidth-neighbors among
    the original positions until it moves less than 1e-3 px. Trajectories
    never see each other, so all of them advance together and each drops
    out once it has converged. A step sorts the active trajectories by x
    and cuts them into equal chunks of at least _SHIFT_CHUNK; a chunk is
    measured only against the window of candidates whose x lies within its
    x-extent widened by slightly more than the bandwidth. With fewer than
    two chunks' worth of active trajectories, the step measures them all
    against all candidates. A window holds every neighbor of its chunk's
    trajectories and is summed in candidate order, and a candidate outside
    the kernel adds an exact 0.0 to that sum, so the modes are
    bit-identical to shifting one candidate at a time against all of them.

    Modes form clusters greedily in candidate order: each mode joins the
    first earlier cluster whose founding mode lies within bandwidth/2, or
    founds a new one. Returns [(mean point, support)] where the mean is
    over the original (unshifted) member positions and support is the
    member count.
    """
    if bandwidth <= 0:
        raise ValueError("bandwidth must be > 0")
    if not len(candidates):
        return []
    pts = np.array(candidates[:, :2], dtype=np.float64)
    if not np.isfinite(pts).all():
        raise ValueError("candidate coordinates must be finite")
    modes = pts.copy()
    active = np.arange(len(pts))
    bw2 = bandwidth * bandwidth
    if len(pts) >= 2 * _SHIFT_CHUNK:
        by_x = np.argsort(pts[:, 0])
        sorted_x = pts[by_x, 0]
        # wider than any x-offset that d2 <= bw2 accepts, rounding included
        reach = bandwidth + 1e-9 * (bandwidth + max(-sorted_x[0], sorted_x[-1]))
    for _ in range(_SHIFT_MAX_ITER):
        if not active.size:
            break
        p = modes[active]
        chunks = active.size // _SHIFT_CHUNK
        if chunks < 2:
            shifted = _shift(pts, p, bw2)
        else:
            order = np.argsort(p[:, 0])
            active, p = active[order], p[order]
            cuts = np.arange(chunks + 1) * active.size // chunks
            # p is x-sorted with NaN modes last: a chunk's first mode is its
            # least x (NaN only in an all-NaN chunk, whose window is empty)
            # and its last mode its greatest (NaN runs the window to the end)
            lo = np.searchsorted(sorted_x, p[cuts[:-1], 0] - reach)
            hi = np.searchsorted(sorted_x, p[cuts[1:] - 1, 0] + reach, side="right")
            shifted = np.concatenate([
                _shift(pts[np.sort(by_x[a:b])], p[c:d], bw2)
                for a, b, c, d in zip(lo, hi, cuts, cuts[1:])
            ])
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
    encodes axis i of the layout.

    Recover every axis's sparse signal (recover_rows solves the L blocks
    together in one batched run of recovery.solver) and back-project them
    to candidate points in one pass. Pooled candidates are noise-filtered
    and mean-shift clustered; clusters with support >= min_support become
    detections at the cluster mean. A non-converging axis is logged and
    decoded with its best iterate rather than aborting the others. A
    non-finite prediction is rejected before any solve.

    diagnostics, when given, receives the decode's own arrays: the (L, N)
    recovered "signals", the per-axis "iterations" and "converged", the
    pooled (n, 3) "votes" before the noise filter and each vote's 0-based
    axis in "vote_axes".
    """
    params = (params or DecodeParams()).resolved(layout)
    recovery = recovery or RecoveryParams()
    blocks = np.asarray(y_hat, dtype=np.float64)
    if blocks.shape != (layout.count, phi.rows):
        raise ValueError(
            f"measurement shape {blocks.shape} does not match {layout.count} axes x {phi.rows} matrix rows"
        )
    if layout.bin_count != phi.cols:
        raise ValueError("matrix columns do not match the layout's bins")
    finite = np.isfinite(blocks).all(axis=1)
    if not finite.all():
        bad = np.flatnonzero(~finite) + 1
        raise ValueError(f"non-finite prediction on axes {','.join(map(str, bad.tolist()))}")

    x, iterations, converged = recover_rows(blocks, phi, recovery)

    rows, bins = np.nonzero(x)  # row-major: axis order, then bin order within an axis
    candidates = _votes(layout.geometry[rows], bins + 1, x[rows, bins])
    stalled = np.flatnonzero(~converged) + 1
    if stalled.size:
        log.warning(
            "%d of %d axes stopped above the recovery tolerance (axes %s); "
            "decoding with their best iterates",
            stalled.size, layout.count, ",".join(map(str, stalled.tolist())),
        )
    kept = filter_noise_candidates(candidates, layout.grid, params.noise_margin)
    clusters = meanshift_cluster(kept, params.bandwidth)
    points = [(cx, cy, support) for (cx, cy), support in clusters if support >= params.min_support]
    if diagnostics is not None:
        diagnostics.update(signals=x, iterations=iterations, converged=converged,
                           votes=candidates, vote_axes=rows)
    return DetectionResult(points)


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
    pts = np.concatenate([np.zeros((0, 2)), *(result.coords() for result in detection_sets)])
    if not len(pts):
        return DetectionResult()
    pts = pts[np.lexsort((pts[:, 1], pts[:, 0]))]
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
            merged.append((gx, gy, counts[seed]))
            alive[group] = False
        else:
            alive[live_idx[seed]] = False
    merged.sort(key=lambda row: row[:2])
    return DetectionResult(merged)
