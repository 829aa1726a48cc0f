"""Cell-location encodings.

Two routes from an AnnotationSet to a fixed-length code, a (blocks, M)
float array with one block of M measurements per projected signal:

* reshaping route: rasterize the annotations to a binary map, flatten it
  with the column-major rule index = x + h(y-1) into a dense location
  signal of length w*h, project once (one block).
* axis route: place L directed lines (observation axes) uniformly around
  and outside the image, record each cell on each axis as (bin along the
  axis, signed perpendicular distance) in a dense per-axis signal, and
  project each axis signal into its own block (L blocks).

The axes are tangent to a circle of radius half-diagonal + margin around
the grid center, with the normal pointing back at the image, so every true
cell sits at a signed distance of at least `margin` from its axis. That gap
is what lets the decoder separate real cells from recovery noise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import AnnotationSet, ImageGrid, round_half_up
from .sensing import SensingMatrix, project

__all__ = [
    "ObservationAxis",
    "AxisLayout",
    "default_margin",
    "flatten_annotations",
    "encode_scheme1",
    "build_axis_layout",
    "axis_geometry",
    "axis_signal",
    "encode_scheme2",
]

_UNIT_TOL = 1e-12


def default_margin(grid: ImageGrid) -> float:
    """Axis standoff distance: 5% of the image diagonal."""
    return 0.05 * grid.diagonal


def flatten_annotations(annotations: AnnotationSet) -> np.ndarray:
    """Binary map flattened to a length N = w*h signal via index = x + h(y-1).

    Centroids are rounded to pixels first. Distinct cells that round to the
    same pixel (or, on non-square grids, to the same index, since the
    formula is only a bijection when w = h) collapse to one entry.
    """
    grid = annotations.grid
    n = grid.n_pixels
    f = np.zeros(n)
    for cx, cy in annotations.cells:
        x = min(max(round_half_up(cx), 1), grid.width)
        y = min(max(round_half_up(cy), 1), grid.height)
        index = x + grid.height * (y - 1)
        if not 1 <= index <= n:
            raise ValueError(
                f"cell ({cx}, {cy}) maps to index {index} outside [1, {n}]; "
                f"the x + h(y-1) rule is only a bijection on square grids"
            )
        f[index - 1] = 1.0
    return f


def encode_scheme1(annotations: AnnotationSet, phi: SensingMatrix) -> np.ndarray:
    """Single projection of the flattened annotation map: one (1, M) block."""
    f = flatten_annotations(annotations)
    if phi.cols != f.size:
        raise ValueError(
            f"matrix expects signals of length {phi.cols}, grid gives {f.size}"
        )
    return project(phi, f)[None, :]


@dataclass(frozen=True)
class ObservationAxis:
    """A directed line outside the image.

    Points project to `bin = round((p - origin) . direction)` along the
    line and to `distance = (p - origin) . normal` across it; `normal` is
    `direction` rotated +90 degrees.
    """

    index: int
    origin: tuple
    direction: tuple
    normal: tuple
    bin_count: int

    def __post_init__(self):
        object.__setattr__(self, "origin", (float(self.origin[0]), float(self.origin[1])))
        object.__setattr__(
            self, "direction", (float(self.direction[0]), float(self.direction[1]))
        )
        object.__setattr__(self, "normal", (float(self.normal[0]), float(self.normal[1])))
        if self.index < 1:
            raise ValueError("axis index is 1-based")
        if self.bin_count < 1:
            raise ValueError("bin_count must be >= 1")
        dx, dy = self.direction
        nx, ny = self.normal
        if abs(math.hypot(dx, dy) - 1.0) > _UNIT_TOL:
            raise ValueError("direction must be a unit vector")
        if abs(dx * nx + dy * ny) > _UNIT_TOL:
            raise ValueError("normal must be orthogonal to direction")
        if abs(nx + dy) > _UNIT_TOL or abs(ny - dx) > _UNIT_TOL:
            raise ValueError("normal must be direction rotated +90 degrees")


@dataclass(frozen=True)
class AxisLayout:
    """L observation axes around one grid."""

    axes: tuple
    grid: ImageGrid
    margin: float

    def __post_init__(self):
        object.__setattr__(self, "axes", tuple(self.axes))
        if not self.axes:
            raise ValueError("layout needs at least one axis")
        if self.margin <= 0:
            raise ValueError("margin must be > 0")
        # every axis line must clear the pixel-extent rectangle of the grid
        cx, cy = self.grid.center
        half_w = 0.5 * self.grid.width
        half_h = 0.5 * self.grid.height
        for axis in self.axes:
            nx, ny = axis.normal
            line_dist = abs((cx - axis.origin[0]) * nx + (cy - axis.origin[1]) * ny)
            if line_dist <= half_w * abs(nx) + half_h * abs(ny):
                raise ValueError(f"axis {axis.index} intersects the image rectangle")

    @property
    def count(self) -> int:
        return len(self.axes)

    @property
    def bin_count(self) -> int:
        return self.axes[0].bin_count


def build_axis_layout(grid: ImageGrid, count: int, margin: float | None = None) -> AxisLayout:
    """Uniformly oriented axes at angles (l-1)*pi/L, l = 1..L.

    Each axis runs tangent to the circle of radius half-diagonal + margin
    centered on the grid, on the side that makes its normal point back at
    the image, so all in-image signed distances are positive and at least
    `margin`. Bins are centered on the tangent point; bin_count is the
    ceiling of the diagonal so every in-image point lands in a valid bin.
    """
    if count < 1:
        raise ValueError("need at least one axis")
    if margin is None:
        margin = default_margin(grid)
    if margin <= 0:
        raise ValueError("margin must be > 0")
    bins = int(math.ceil(grid.diagonal))
    cx, cy = grid.center
    radius = 0.5 * grid.diagonal + margin
    mid = 0.5 * (bins + 1)
    axes = []
    for l in range(1, count + 1):
        theta = (l - 1) * math.pi / count
        dx, dy = math.cos(theta), math.sin(theta)
        nx, ny = -dy, dx
        tangent = (cx - radius * nx, cy - radius * ny)
        origin = (tangent[0] - mid * dx, tangent[1] - mid * dy)
        axes.append(
            ObservationAxis(
                index=l, origin=origin, direction=(dx, dy), normal=(nx, ny), bin_count=bins
            )
        )
    return AxisLayout(axes=tuple(axes), grid=grid, margin=margin)


def axis_geometry(axes) -> np.ndarray:
    """One row ox, oy, dx, dy, nx, ny (origin, direction, normal) per axis."""
    return np.array([ax.origin + ax.direction + ax.normal for ax in axes])


def _project_cells(cells: np.ndarray, axes) -> tuple:
    """(bins, signed distances) of k points on n axes, both shaped (k, n).

    The bin is the rounded along-axis coordinate floor(t + 0.5) clamped to
    [1, bin_count]; the distance is exact. Reconstructing
    origin + t*direction + d*normal from the unrounded t returns the point,
    so rounding is the only loss.
    """
    geometry = axis_geometry(axes)
    px = cells[:, 0:1] - geometry[:, 0]
    py = cells[:, 1:2] - geometry[:, 1]
    t = px * geometry[:, 2] + py * geometry[:, 3]
    d = px * geometry[:, 4] + py * geometry[:, 5]
    if not np.isfinite(t).all():
        raise ValueError("cell coordinates must be finite")
    bin_counts = np.array([ax.bin_count for ax in axes])
    r = np.clip(np.floor(t + 0.5), 1, bin_counts).astype(np.int64)
    return r, d


def _axis_signals(annotations: AnnotationSet, axes, bins: int) -> np.ndarray:
    """Every axis's location signal as a row of a dense (axes, bins) array:
    each cell's signed distance at its bin, bin conflicts resolved.

    Within one (axis, bin) group the cell with the smallest (|d|, x, y)
    wins; the others are still seen by other axes.
    """
    cells = annotations.coords()
    r, d = _project_cells(cells, axes)
    k, n = r.shape
    pos = np.tile(np.arange(n), k)
    r, d = r.ravel(), d.ravel()
    order = np.lexsort((np.repeat(cells[:, 1], n), np.repeat(cells[:, 0], n), np.abs(d), r, pos))
    pos, r, d = pos[order], r[order], d[order]
    first = np.ones(order.size, dtype=bool)
    first[1:] = (pos[1:] != pos[:-1]) | (r[1:] != r[:-1])
    pos, r, d = pos[first], r[first], d[first]
    if not (d.all() and np.isfinite(d).all()):
        raise ValueError("a cell lies on an observation axis: stored distances must be nonzero and finite")
    signals = np.zeros((n, bins))
    signals[pos, r - 1] = d
    return signals


def axis_signal(annotations: AnnotationSet, axis: ObservationAxis) -> np.ndarray:
    """Per-axis location signal of length bin_count: signed distances at
    the projected bins.

    When two cells land in the same bin the one with the smaller absolute
    distance wins (ties: smaller x, then smaller y); the loser will still
    be seen by other axes.
    """
    return _axis_signals(annotations, (axis,), axis.bin_count)[0]


def encode_scheme2(annotations: AnnotationSet, layout: AxisLayout, phi: SensingMatrix) -> np.ndarray:
    """Project every axis signal: block i of the (L, M) result encodes
    layout.axes[i].

    All axis signals are built together as the rows of one dense array;
    each row is projected on its own, because one matrix product for all
    rows would sum in another order and change the last bits.
    """
    for ax in layout.axes:
        if ax.bin_count != phi.cols:
            raise ValueError(
                f"axis {ax.index} has {ax.bin_count} bins, matrix expects "
                f"signals of length {phi.cols}"
            )
    signals = _axis_signals(annotations, layout.axes, phi.cols)
    return np.stack([project(phi, row) for row in signals])
