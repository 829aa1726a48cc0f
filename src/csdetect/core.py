"""Domain types shared by every stage of the pipeline.

Coordinate convention: pixel coordinates are 1-based and run x = 1..width,
y = 1..height. Sub-pixel (real-valued) centroids are allowed everywhere;
rasterization to integer pixels rounds half up and happens only where a
dense map is actually needed.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

__all__ = [
    "ImageGrid",
    "AnnotationSet",
    "DetectionResult",
    "round_half_up",
    "save_annotations_csv",
    "load_annotations_csv",
    "save_detections_csv",
    "write_csv",
]


def round_half_up(value: float) -> int:
    """Round to the nearest integer with halves going up (3.5 -> 4)."""
    return int(math.floor(value + 0.5))


@dataclass(frozen=True)
class ImageGrid:
    """A width x height pixel grid."""

    width: int
    height: int

    def __post_init__(self):
        if self.width < 1 or self.height < 1:
            raise ValueError(
                f"grid dimensions must be >= 1, got {self.width}x{self.height}"
            )

    @property
    def n_pixels(self) -> int:
        return self.width * self.height

    @property
    def diagonal(self) -> float:
        return math.hypot(self.width, self.height)

    @property
    def center(self) -> tuple[float, float]:
        # center of the 1-based pixel lattice [1, w] x [1, h]
        return (0.5 * (1 + self.width), 0.5 * (1 + self.height))

    def contains(self, x, y, margin: float = 0.0):
        """Whether (x, y) lies in the margin-expanded lattice rectangle,
        bounds inclusive; elementwise for arrays."""
        low = 1.0 - margin
        return (low <= x) & (x <= self.width + margin) & (low <= y) & (y <= self.height + margin)


@dataclass(frozen=True)
class AnnotationSet:
    """Cell centroids on a grid.

    Cells are (x, y) pairs, 1-based, real-valued. Every cell must lie on the
    grid and no two cells may be the identical point.
    """

    grid: ImageGrid
    cells: tuple = ()

    def __post_init__(self):
        cells = tuple((float(x), float(y)) for x, y in self.cells)
        object.__setattr__(self, "cells", cells)
        seen = set()
        for x, y in cells:
            if not self.grid.contains(x, y):
                raise ValueError(
                    f"cell ({x}, {y}) outside grid "
                    f"[1, {self.grid.width}] x [1, {self.grid.height}]"
                )
            if (x, y) in seen:
                raise ValueError(f"duplicate cell ({x}, {y})")
            seen.add((x, y))

    def __len__(self) -> int:
        return len(self.cells)

    def coords(self) -> np.ndarray:
        """Cell coordinates as a (k, 2) float array."""
        if not self.cells:
            return np.zeros((0, 2))
        return np.asarray(self.cells, dtype=np.float64)


def write_csv(path, header, rows) -> None:
    r"""Write `header` and then `rows` as CSV with "\n" line ends.

    Every table csdetect writes goes through here. Cells are str, int or
    float64: csv writes a float as its `str`, the shortest round-trip form.
    A bool cell would read `True`, and a float32 cell its float32 short form
    (0.1, not 0.10000000149011612), so callers pass `int(flag)` and float64.
    """
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def save_annotations_csv(annotations: AnnotationSet, path) -> None:
    """Write one centroid per row under an `x,y` header."""
    write_csv(path, ["x", "y"], annotations.cells)


def load_annotations_csv(path, grid: ImageGrid) -> AnnotationSet:
    with open(Path(path), newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [c.strip() for c in header] != ["x", "y"]:
            raise ValueError(f"{path}: expected header 'x,y', got {header}")
        cells = []
        for row in reader:
            if not row:
                continue
            if len(row) != 2:
                raise ValueError(f"{path}: line {reader.line_num}: expected 2 fields, got {len(row)}")
            try:
                cells.append((float(row[0]), float(row[1])))
            except ValueError as exc:
                raise ValueError(f"{path}: line {reader.line_num}: {exc}") from None
    return AnnotationSet(grid=grid, cells=tuple(cells))


@dataclass(frozen=True, eq=False)
class DetectionResult:
    """Final detections for one image or patch: a read-only (n, 3) float
    array whose rows are x, y and support, the number of candidates that
    produced the detection. Coordinates must be finite and support >= 1.
    Results compare through their arrays (np.array_equal on points)."""

    points: np.ndarray = ()

    def __post_init__(self):
        points = np.array(self.points, dtype=np.float64)
        if not points.size:
            points = points.reshape(0, 3)
        if points.ndim != 2 or points.shape[1] != 3:
            raise ValueError(f"detections must be an (n, 3) array, got shape {points.shape}")
        if not np.isfinite(points[:, :2]).all():
            raise ValueError("detection coordinates must be finite")
        if not (points[:, 2] >= 1).all():
            raise ValueError("support must be >= 1")
        points.flags.writeable = False
        object.__setattr__(self, "points", points)

    def __len__(self) -> int:
        return len(self.points)

    def coords(self) -> np.ndarray:
        """Detection coordinates as an (n, 2) float array."""
        return self.points[:, :2]


def save_detections_csv(result: DetectionResult, path) -> None:
    """Write detections as `x,y,support` rows."""
    rows = [(x, y, int(support)) for x, y, support in result.points.tolist()]
    write_csv(path, ["x", "y", "support"], rows)
