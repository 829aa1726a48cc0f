"""Synthetic cell images with exact ground truth, plus patch plumbing.

Cells are rendered as Gaussian blobs on a noisy background; the generator
returns the image together with the exact (sub-pixel) centroids it used,
so encoding and evaluation never depend on a detector for labels.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import yaml

from .core import AnnotationSet, ImageGrid, round_half_up

__all__ = [
    "SynthesisParams",
    "Patch",
    "generate_image",
    "extract_patches",
    "rotate_augment",
    "save_pgm",
    "load_pgm",
    "write_manifest",
    "read_manifest",
]

_PLACEMENT_ATTEMPTS = 500


@dataclass(frozen=True)
class SynthesisParams:
    """The `synth:` config section: the dataset's image counts and how
    generate_image draws each image; the three ranges are [min, max] pairs."""

    train_images: int = 50
    test_images: int = 50
    image_width: int = 260
    image_height: int = 260
    cell_count: tuple[int, int] = (5, 20)
    blob_radius: tuple = (4.0, 8.0)
    intensity: tuple = (0.6, 1.0)
    background_noise_sigma: float = 0.02
    min_separation: float = 24.0

    def __post_init__(self):
        for name in ("cell_count", "blob_radius", "intensity"):
            value = getattr(self, name)
            if not isinstance(value, (list, tuple)) or len(value) != 2:
                raise ValueError(f"{name} must be a [min, max] pair, got {value!r}")
            lo, hi = value
            if lo > hi:
                raise ValueError(f"{name} minimum exceeds maximum")
            object.__setattr__(self, name, (lo, hi))
        if self.train_images < 0 or self.test_images < 0:
            raise ValueError("train_images and test_images must be >= 0")
        if self.image_width < 1 or self.image_height < 1:
            raise ValueError("image_width and image_height must be >= 1")
        if self.cell_count[0] < 0:
            raise ValueError("cell counts must be >= 0")
        if self.blob_radius[0] <= 0:
            raise ValueError("blob radii must be > 0")
        if not (0 <= self.intensity[0] and self.intensity[1] <= 1):
            raise ValueError("intensities must lie in [0, 1]")
        if self.min_separation < 0:
            raise ValueError("min_separation must be >= 0")
        if self.background_noise_sigma < 0:
            raise ValueError("background_noise_sigma must be >= 0")


def generate_image(params: SynthesisParams, seed: int):
    """(image, annotations) for one seeded draw on an image_width x image_height grid.

    Centroids are rejection-sampled to respect min_separation and padded
    away from the border by the maximum blob radius so every cell is fully
    rendered. Infeasible parameter combinations fail with an error after a
    bounded number of attempts.
    """
    grid = ImageGrid(width=params.image_width, height=params.image_height)
    rng = np.random.default_rng(seed)
    lo, hi = params.cell_count
    count = int(rng.integers(lo, hi + 1))

    pad = params.blob_radius[1]
    x_lo, x_hi = 1.0 + pad, grid.width - pad
    y_lo, y_hi = 1.0 + pad, grid.height - pad
    if count > 0 and (x_lo > x_hi or y_lo > y_hi):
        raise ValueError(
            f"grid {grid.width}x{grid.height} cannot hold blobs of radius {pad}"
        )
    cells = []
    min_sep2 = params.min_separation**2
    for _ in range(count):
        for _ in range(_PLACEMENT_ATTEMPTS):
            cx = float(rng.uniform(x_lo, x_hi))
            cy = float(rng.uniform(y_lo, y_hi))
            if all((cx - px) ** 2 + (cy - py) ** 2 >= min_sep2 for px, py in cells):
                cells.append((cx, cy))
                break
        else:
            raise ValueError(
                f"could not place {count} cells {params.min_separation} px apart "
                f"on a {grid.width}x{grid.height} grid"
            )

    xs = np.arange(1, grid.width + 1, dtype=np.float64)
    ys = np.arange(1, grid.height + 1, dtype=np.float64)
    image = np.zeros((grid.height, grid.width))
    for cx, cy in cells:
        radius = float(rng.uniform(*params.blob_radius))
        amp = float(rng.uniform(*params.intensity))
        sigma = 0.5 * radius
        gx = np.exp(-((xs - cx) ** 2) / (2 * sigma**2))
        gy = np.exp(-((ys - cy) ** 2) / (2 * sigma**2))
        image += amp * gy[:, None] * gx[None, :]
    if params.background_noise_sigma > 0:
        image += rng.normal(0.0, params.background_noise_sigma, image.shape)
    image = np.clip(image, 0.0, 1.0)
    return image, AnnotationSet(grid=grid, cells=tuple(cells))


@dataclass(frozen=True)
class Patch:
    """A square tile of an image with its annotations in tile coordinates.

    pixels is a view of the image: uint8 gray levels for a loaded image,
    [0, 1] floats for a synthesized one. origin is 0-based: tile pixel
    (1, 1) sits at image pixel (origin[0] + 1, origin[1] + 1).
    """

    pixels: np.ndarray
    cells: AnnotationSet
    origin: tuple

    def __post_init__(self):
        object.__setattr__(self, "origin", (int(self.origin[0]), int(self.origin[1])))


def extract_patches(image: np.ndarray, annotations: AnnotationSet, patch_size: int, offset=(0, 0)) -> list:
    """Non-overlapping patch_size tiling starting at `offset`.

    Partial tiles at the far border are discarded. A cell belongs to the
    tile owning its rounded pixel, so boundary cells land in exactly one
    tile; sub-pixel overhang (up to half a pixel) is clamped into the tile
    box, and coincident clamped duplicates are dropped.
    """
    image = np.asarray(image)
    height, width = image.shape
    dx, dy = offset
    if not (0 <= dx < patch_size and 0 <= dy < patch_size):
        raise ValueError("offset components must lie in [0, patch_size)")
    if patch_size > min(width, height):
        raise ValueError("patch_size exceeds the image")
    n_cols = (width - dx) // patch_size
    n_rows = (height - dy) // patch_size
    tile_grid = ImageGrid(width=patch_size, height=patch_size)

    buckets = {}
    for cx, cy in annotations.cells:
        px = min(max(round_half_up(cx), 1), width)
        py = min(max(round_half_up(cy), 1), height)
        col = (px - 1 - dx) // patch_size
        row = (py - 1 - dy) // patch_size
        if px <= dx or py <= dy or col >= n_cols or row >= n_rows:
            continue  # uncovered border strip
        lx = min(max(cx - (dx + col * patch_size), 1.0), float(patch_size))
        ly = min(max(cy - (dy + row * patch_size), 1.0), float(patch_size))
        buckets.setdefault((row, col), []).append((lx, ly))

    patches = []
    for row in range(n_rows):
        y0 = dy + row * patch_size
        for col in range(n_cols):
            x0 = dx + col * patch_size
            local = []
            for pt in buckets.get((row, col), []):
                if pt not in local:
                    local.append(pt)
            patches.append(
                Patch(
                    pixels=image[y0 : y0 + patch_size, x0 : x0 + patch_size],
                    cells=AnnotationSet(grid=tile_grid, cells=tuple(local)),
                    origin=(x0, y0),
                )
            )
    return patches


def rotate_augment(patch: np.ndarray, annotations: AnnotationSet) -> list:
    """The four 90-degree rotations of a square patch with transformed
    centroids; element k is the k * 90 degree counterclockwise rotation."""
    patch = np.asarray(patch)
    if patch.ndim != 2 or patch.shape[0] != patch.shape[1]:
        raise ValueError("rotation augmentation requires a square patch")
    side = patch.shape[0]
    if annotations.grid.width != side or annotations.grid.height != side:
        raise ValueError("annotation grid does not match the patch")
    out = [(patch, annotations)]
    cells = annotations.cells
    for k in range(1, 4):
        cells = tuple((y, side + 1 - x) for x, y in cells)
        out.append(
            (np.rot90(patch, k), AnnotationSet(grid=annotations.grid, cells=cells))
        )
    return out


def save_pgm(image: np.ndarray, path) -> None:
    """8-bit binary portable graymap from a [0, 1] float image, or from
    uint8 gray levels, which are written unchanged."""
    image = np.asarray(image)
    if image.ndim != 2:
        raise ValueError("image must be 2-D")
    if image.dtype == np.uint8:
        levels = image
    elif not np.isfinite(image).all():
        raise ValueError(f"{path}: image holds non-finite pixels")
    else:
        levels = np.clip(np.rint(image * 255.0), 0, 255).astype(np.uint8)
    height, width = levels.shape
    with open(path, "wb") as fh:
        fh.write(f"P5\n{width} {height}\n255\n".encode("ascii"))
        fh.write(levels.tobytes())


def load_pgm(path) -> np.ndarray:
    """The (height, width) uint8 gray levels of an 8-bit binary PGM, a
    read-only view of the file's bytes; level v stands for v / 255."""
    raw = Path(path).read_bytes()
    if raw[:2] != b"P5" or raw[2:3].strip():
        raise ValueError(f"{path}: not a binary PGM")
    fields = []  # width, height, maxval
    pos = 2
    while len(fields) < 3:
        while pos < len(raw) and raw[pos : pos + 1].isspace():
            pos += 1
        if pos == len(raw):
            raise ValueError(
                f"{path}: truncated PGM header, {len(fields)} of width, height, maxval"
            )
        if raw[pos : pos + 1] == b"#":  # comment line
            end = raw.find(b"\n", pos)
            if end < 0:
                raise ValueError(f"{path}: PGM header comment has no end of line")
            pos = end + 1
            continue
        start = pos
        while pos < len(raw) and not raw[pos : pos + 1].isspace():
            pos += 1
        fields.append(raw[start:pos])
    pos += 1  # single whitespace byte after maxval
    if not all(f.isdigit() for f in fields):
        shown = " ".join(f.decode("ascii", "replace") for f in fields)
        raise ValueError(f"{path}: PGM width, height and maxval must be integers, got {shown!r}")
    width, height, maxval = (int(f) for f in fields)
    if width < 1 or height < 1:
        raise ValueError(f"{path}: PGM width and height must be positive, got {width}x{height}")
    if maxval != 255:
        raise ValueError(f"{path}: only 8-bit graymaps are supported")
    body = np.frombuffer(raw[pos:], dtype=np.uint8)
    if body.size < width * height:
        raise ValueError(f"{path}: truncated pixel data")
    return body[: width * height].reshape(height, width)


def write_manifest(manifest: dict, path) -> None:
    """Dataset index: grid size, seed, image/annotation file pairs, splits."""
    with open(path, "w") as fh:
        yaml.safe_dump(manifest, fh, sort_keys=True)


def read_manifest(path) -> dict:
    """Load a manifest and check its shape up front: a mapping with a
    positive integer grid size and a list of image entries, each a mapping
    with a unique string id and string image and annotations paths; optional
    splits map names to lists of string ids. Every failure is a ValueError
    naming the file."""
    with open(path) as fh:
        try:
            manifest = yaml.safe_load(fh)
        except yaml.YAMLError as exc:
            raise ValueError(f"{path}: manifest is not valid YAML: {exc}") from None
    if not isinstance(manifest, dict):
        raise ValueError(f"{path}: manifest must be a mapping, got {type(manifest).__name__}")
    for key in ("grid", "images"):
        if key not in manifest:
            raise ValueError(f"{path}: manifest is missing '{key}'")
    grid = manifest["grid"]
    for key in ("width", "height"):
        value = grid.get(key) if isinstance(grid, dict) else None
        if type(value) is not int or value < 1:
            raise ValueError(f"{path}: grid.{key} must be a positive integer, got {value!r}")
    images = manifest["images"]
    if not isinstance(images, list):
        raise ValueError(f"{path}: 'images' must be a list, got {type(images).__name__}")
    seen = set()
    for i, entry in enumerate(images):
        if not isinstance(entry, dict):
            raise ValueError(f"{path}: images[{i}] must be a mapping, got {type(entry).__name__}")
        for key in ("id", "image", "annotations"):
            if not isinstance(entry.get(key), str):
                raise ValueError(f"{path}: images[{i}] needs a string '{key}', got {entry.get(key)!r}")
        if entry["id"] in seen:
            raise ValueError(f"{path}: images[{i}] repeats image id {entry['id']!r}")
        seen.add(entry["id"])
    splits = manifest.get("splits", {})
    if not isinstance(splits, dict) or not all(isinstance(ids, list) for ids in splits.values()):
        raise ValueError(f"{path}: 'splits' must map split names to lists of image ids")
    for name, ids in splits.items():
        bad = [image_id for image_id in ids if not isinstance(image_id, str)]
        if bad:
            raise ValueError(f"{path}: split '{name}' holds non-string image ids {bad!r}")
    return manifest
