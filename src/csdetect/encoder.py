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
from functools import cached_property

import numpy as np

from .core import AnnotationSet, ImageGrid, round_half_up
from .sensing import SensingMatrix

__all__ = [
    "AxisLayout",
    "default_margin",
    "flatten_annotations",
    "encode_scheme1",
    "build_axis_layout",
    "axis_signals",
    "encode_scheme2",
]


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
    return (phi.entries @ f)[None, :]


@dataclass(frozen=True)
class AxisLayout:
    """L observation axes around one grid, at angles (l-1)*pi/L, l = 1..L.

    Each axis runs tangent to the circle of radius half-diagonal + margin
    centered on the grid, on the side that makes its normal point back at
    the image, so all in-image signed distances are positive and at least
    `margin`. Bins are centered on the tangent point; bin_count is the
    ceiling of the diagonal so every in-image point lands in a valid bin.
    """

    grid: ImageGrid
    count: int
    margin: float

    def __post_init__(self):
        if self.count < 1:
            raise ValueError("layout needs at least one axis")
        if not self.margin > 0:
            raise ValueError("margin must be > 0")

    @property
    def bin_count(self) -> int:
        return int(math.ceil(self.grid.diagonal))

    @cached_property
    def geometry(self) -> np.ndarray:
        """One read-only row ox, oy, dx, dy, nx, ny (origin, direction,
        normal) per axis: a point projects to bin round((p - origin) . dir)
        and to signed distance (p - origin) . normal, with the normal the
        direction rotated +90 degrees."""
        cx, cy = self.grid.center
        radius = 0.5 * self.grid.diagonal + self.margin
        mid = 0.5 * (self.bin_count + 1)
        rows = []
        for l in range(1, self.count + 1):
            theta = (l - 1) * math.pi / self.count
            dx, dy = math.cos(theta), math.sin(theta)
            nx, ny = -dy, dx
            tangent = (cx - radius * nx, cy - radius * ny)
            rows.append((tangent[0] - mid * dx, tangent[1] - mid * dy, dx, dy, nx, ny))
        geometry = np.array(rows)
        geometry.flags.writeable = False
        return geometry


def build_axis_layout(grid: ImageGrid, count: int) -> AxisLayout:
    """The layout of `count` axes around `grid`, default_margin(grid) away."""
    return AxisLayout(grid=grid, count=count, margin=default_margin(grid))


def _project_cells(cells: np.ndarray, geometry: np.ndarray, bin_count: int) -> tuple:
    """(bins, signed distances) of k points on the n lines of an (n, 6)
    geometry array, both shaped (k, n).

    The bin is the rounded along-axis coordinate floor(t + 0.5) clamped to
    [1, bin_count]; the distance is exact. Reconstructing
    origin + t*direction + d*normal from the unrounded t returns the point,
    so rounding is the only loss.
    """
    px = cells[:, 0:1] - geometry[:, 0]
    py = cells[:, 1:2] - geometry[:, 1]
    t = px * geometry[:, 2] + py * geometry[:, 3]
    d = px * geometry[:, 4] + py * geometry[:, 5]
    if not np.isfinite(t).all():
        raise ValueError("cell coordinates must be finite")
    r = np.clip(np.floor(t + 0.5), 1, bin_count).astype(np.int64)
    return r, d


def _axis_signals(annotations: AnnotationSet, geometry: np.ndarray, bins: int) -> np.ndarray:
    """The location signal of every line of an (n, 6) geometry array as a
    row of a dense (n, bins) array: each cell's signed distance at its bin,
    bin conflicts resolved.

    Within one (line, bin) group the cell with the smallest (|d|, x, y)
    wins; the others are still seen by other lines.
    """
    cells = annotations.coords()
    # cells in (x, y) order, so the stable sort below breaks |d| ties by (x, y)
    cells = cells[np.lexsort((cells[:, 1], cells[:, 0]))]
    r, d = _project_cells(cells, geometry, bins)
    n = geometry.shape[0]
    slot = (r - 1 + bins * np.arange(n)).ravel()  # flat index into (n, bins)
    d = d.ravel()
    order = np.lexsort((np.abs(d), slot))
    slot, d = slot[order], d[order]
    first = np.ones(order.size, dtype=bool)
    first[1:] = slot[1:] != slot[:-1]
    slot, d = slot[first], d[first]
    if not (d.all() and np.isfinite(d).all()):
        raise ValueError("a cell lies on an observation axis: stored distances must be nonzero and finite")
    signals = np.zeros(n * bins)
    signals[slot] = d
    return signals.reshape(n, bins)


def axis_signals(annotations: AnnotationSet, layout: AxisLayout) -> np.ndarray:
    """Every axis's location signal, row i of a dense (count, bin_count)
    array for axis i: signed distances at the projected bins.

    When two cells land in the same bin of an axis the one with the smaller
    absolute distance wins (ties: smaller x, then smaller y); the loser is
    still seen by the other axes.
    """
    return _axis_signals(annotations, layout.geometry, layout.bin_count)


def encode_scheme2(annotations: AnnotationSet, layout: AxisLayout, phi: SensingMatrix) -> np.ndarray:
    """Project every axis signal: block i of the (L, M) result encodes
    axis i of the layout.

    All axes are projected in one batched product, Phi applied to a stack
    of (N, 1) column signals. numpy runs it as one matrix-vector product
    per axis, so every block has the bits of Phi @ signal for its axis;
    a single Phi @ signals.T matrix product would sum in another order and
    change the last bits.
    """
    if layout.bin_count != phi.cols:
        raise ValueError(
            f"layout has {layout.bin_count} bins, matrix expects signals of length {phi.cols}"
        )
    signals = axis_signals(annotations, layout)
    return np.matmul(phi.entries, signals[:, :, None])[:, :, 0]
