"""End-to-end wiring: synthesize, encode, predict, decode, evaluate.

Everything here is driven by a PipelineConfig and a handful of integer
seeds, so a run is reproducible from its config file alone. Seeds for
per-image work are derived arithmetically from the run seed; the constants
only need to keep distinct work items on distinct streams.
"""

from __future__ import annotations

import logging
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .config import PipelineConfig
from .core import (
    AnnotationSet,
    DetectionResult,
    ImageGrid,
    load_annotations_csv,
    save_annotations_csv,
)
from .decoder import decode_scheme1, decode_scheme2, merge_ensemble
from .encoder import AxisLayout, build_axis_layout, encode_scheme1, encode_scheme2
from .evaluation import match_detections
from .predictor import (
    RegressorModel,
    TrainingExample,
    fuse_labels,
    oracle_predict,
    predict,
    train_regressor,
)
from .recovery import recover_rows
from .sensing import SensingMatrix, make_sensing_matrix
from .synthdata import (
    Patch,
    extract_patches,
    generate_image,
    load_pgm,
    read_manifest,
    rotate_augment,
    save_pgm,
    write_manifest,
)

__all__ = [
    "Codec",
    "derive_seed",
    "make_codec",
    "encode_patch",
    "decode_signal",
    "generate_dataset",
    "load_split",
    "build_training_examples",
    "train_from_manifest",
    "run_detection",
    "ensemble_detection",
]

log = logging.getLogger(__name__)

_IMAGE_STRIDE = 1_000_003
_OFFSET_STRIDE = 10_007
_PATCH_STRIDE = 131
SALT_SYNTH = 0
SALT_ORACLE = 500_009
SALT_TRAIN = 900_007


def derive_seed(base: int, image_index: int, offset_index: int = 0, patch_index: int = 0, salt: int = 0) -> int:
    return (
        base
        + salt
        + _IMAGE_STRIDE * (image_index + 1)
        + _OFFSET_STRIDE * (offset_index + 1)
        + _PATCH_STRIDE * (patch_index + 1)
    )


@dataclass(frozen=True)
class Codec:
    """The frozen geometry of one run: patch grid, axis layout (axis route
    only) and the sensing matrix."""

    grid: ImageGrid
    layout: AxisLayout | None
    phi: SensingMatrix
    scheme: int

    @property
    def code_shape(self) -> tuple:
        """(blocks, M) of a code: one block per axis, one on scheme 1."""
        return (self.layout.count if self.scheme == 2 else 1, self.phi.rows)


def make_codec(config: PipelineConfig) -> Codec:
    grid = config.patch_grid()
    enc = config.encoder
    if enc.scheme == 1:
        layout = None
        cols = grid.n_pixels
    else:
        layout = build_axis_layout(grid, enc.axes, enc.margin)
        cols = layout.bin_count
    phi = make_sensing_matrix(enc.measurements, cols, config.run.matrix_seed)
    return Codec(grid=grid, layout=layout, phi=phi, scheme=enc.scheme)


def encode_patch(codec: Codec, annotations: AnnotationSet) -> np.ndarray:
    if codec.scheme == 1:
        return encode_scheme1(annotations, codec.phi)
    return encode_scheme2(annotations, codec.layout, codec.phi)


def decode_signal(
    codec: Codec,
    y_hat: np.ndarray,
    config: PipelineConfig,
    diagnostics: dict | None = None,
) -> DetectionResult:
    if codec.scheme == 2:
        return decode_scheme2(
            y_hat,
            codec.layout,
            codec.phi,
            params=config.decode,
            recovery=config.recovery,
            diagnostics=diagnostics,
        )
    code = np.reshape(y_hat, (1, -1))
    if not np.isfinite(code).all():
        raise ValueError("non-finite prediction")
    (f_hat,), _, _ = recover_rows(code, codec.phi, config.recovery)
    return decode_scheme1(f_hat, codec.grid, config.decode.scheme1_threshold)


# ---------------------------------------------------------------- datasets


def generate_dataset(config: PipelineConfig, out_dir) -> dict:
    """Write PGM images, annotation CSVs and a manifest; returns the
    manifest dict."""
    out = Path(out_dir)
    (out / "images").mkdir(parents=True, exist_ok=True)
    (out / "annotations").mkdir(parents=True, exist_ok=True)
    synth = config.synth
    entries = []
    splits = {"train": [], "test": []}
    index = 0
    for split, count in (("train", synth.train_images), ("test", synth.test_images)):
        for i in range(count):
            image_id = f"{split}_{i:03d}"
            image, annotations = generate_image(
                synth, derive_seed(config.run.seed, index, salt=SALT_SYNTH)
            )
            save_pgm(image, out / "images" / f"{image_id}.pgm")
            save_annotations_csv(annotations, out / "annotations" / f"{image_id}.csv")
            entries.append(
                {
                    "id": image_id,
                    "image": f"images/{image_id}.pgm",
                    "annotations": f"annotations/{image_id}.csv",
                    "split": split,
                }
            )
            splits[split].append(image_id)
            index += 1
    manifest = {
        "grid": {"width": synth.image_width, "height": synth.image_height},
        "seed": config.run.seed,
        "images": entries,
        "splits": splits,
    }
    write_manifest(manifest, out / "manifest.yaml")
    return manifest


def load_split(manifest_path, split: str) -> list:
    """[(image id, pixels, AnnotationSet)] for one manifest split; every
    image must have the manifest's grid size."""
    manifest_path = Path(manifest_path)
    manifest = read_manifest(manifest_path)
    base = manifest_path.parent
    grid = ImageGrid(width=manifest["grid"]["width"], height=manifest["grid"]["height"])
    wanted = set(manifest.get("splits", {}).get(split, []))
    out = []
    for entry in manifest["images"]:
        if entry["id"] in wanted or (not wanted and entry.get("split") == split):
            image = load_pgm(base / entry["image"])
            if image.shape != (grid.height, grid.width):
                raise ValueError(
                    f"{base / entry['image']}: image is {image.shape[1]}x{image.shape[0]}, "
                    f"manifest grid is {grid.width}x{grid.height}"
                )
            annotations = load_annotations_csv(base / entry["annotations"], grid)
            out.append((entry["id"], image, annotations))
    return out


# ---------------------------------------------------------------- training


def build_training_examples(config: PipelineConfig, images, codec: Codec) -> list:
    """Patch, rotate 4 ways, encode, fuse; one TrainingExample per view."""
    lam = config.predictor.mtl_lambda
    examples = []
    for _, image, annotations in images:
        for patch in extract_patches(image, annotations, config.patches.size, (0, 0)):
            for pixels, cells in rotate_augment(patch.pixels, patch.cells):
                y = encode_patch(codec, cells)
                examples.append(
                    TrainingExample(patch=pixels, label=fuse_labels(y, len(cells), lam))
                )
    return examples


def train_from_manifest(config: PipelineConfig, manifest_path, codec: Codec) -> tuple:
    """(model, per-epoch losses) trained on the manifest's train split."""
    images = load_split(manifest_path, "train")
    if not images:
        raise ValueError(f"{manifest_path}: no training images")
    examples = build_training_examples(config, images, codec)
    block_count, block_size = codec.code_shape
    return train_regressor(
        examples,
        config.predictor,
        derive_seed(config.run.seed, 0, salt=SALT_TRAIN),
        block_size=block_size,
        block_count=block_count,
    )


# --------------------------------------------------------------- detection


def _predict_patch(
    config: PipelineConfig,
    codec: Codec,
    patch: Patch,
    model: RegressorModel | None,
    seed: int,
) -> np.ndarray:
    if config.predictor.mode == "oracle":
        y_true = encode_patch(codec, patch.cells)
        return oracle_predict(y_true, config.predictor.sigma_rel, seed)
    if model is None:
        raise ValueError("trained mode requires a model")
    return predict(model, patch.pixels)


def _detect_image(
    config: PipelineConfig,
    codec: Codec,
    image_index: int,
    image: np.ndarray,
    annotations: AnnotationSet,
    offset_index: int,
    offset: int,
    model: RegressorModel | None,
    diagnostics: list | None,
) -> DetectionResult:
    points = []
    patches = extract_patches(image, annotations, config.patches.size, (offset, offset))
    for patch_index, patch in enumerate(patches):
        seed = derive_seed(config.run.seed, image_index, offset_index, patch_index, SALT_ORACLE)
        y_hat = _predict_patch(config, codec, patch, model, seed)
        diag = {} if diagnostics is not None else None
        try:
            detected = decode_signal(codec, y_hat, config, diagnostics=diag)
        except ValueError as exc:
            raise ValueError(f"patch at {patch.origin}: {exc}") from exc
        detected = detected.translated(patch.origin[0], patch.origin[1])
        points.extend(detected.points)
        if diag:
            for record in diag["axes"]:
                for x, y, magnitude in record["candidates"].tolist():
                    diagnostics.append(
                        {
                            "offset": offset,
                            "patch_x": patch.origin[0],
                            "patch_y": patch.origin[1],
                            "axis": record["axis"],
                            "x": x + patch.origin[0],
                            "y": y + patch.origin[1],
                            "magnitude": magnitude,
                            "iterations": record["iterations"],
                            "converged": record["converged"],
                        }
                    )
    return DetectionResult(points=tuple(points))


def run_detection(
    config: PipelineConfig,
    codec: Codec,
    images,
    model: RegressorModel | None = None,
    offset_index: int = 0,
    collect_diagnostics: bool = False,
):
    """Detect on every image at the tiling offset config.patches.offsets[offset_index].

    Returns (results, failures) where results is a list of per-image dicts
    (id, detections, report, diagnostics rows) in input order and failures
    counts images whose pipeline raised. collect_diagnostics records the
    axis route's per-axis solves, so it raises ValueError on a scheme-1
    codec.
    """
    if collect_diagnostics and codec.scheme != 2:
        raise ValueError(
            f"collect_diagnostics records the axis route's per-axis solves and needs "
            f"encoder.scheme 2, got encoder.scheme {codec.scheme}"
        )
    offset = config.patches.offsets[offset_index]
    rho = config.evaluation.rho

    def work(item):
        index, (image_id, image, annotations) = item
        diag_rows = [] if collect_diagnostics else None
        detections = _detect_image(
            config, codec, index, image, annotations, offset_index, offset, model, diag_rows
        )
        report = match_detections(detections, annotations, rho)
        return {
            "id": image_id,
            "detections": detections,
            "report": report,
            "diagnostics": diag_rows,
        }

    results = []
    failures = 0
    items = list(enumerate(images))
    if config.run.workers > 1:
        with ThreadPoolExecutor(max_workers=config.run.workers) as pool:
            futures = [pool.submit(work, item) for item in items]
            for item, future in zip(items, futures):
                try:
                    results.append(future.result())
                except Exception:
                    failures += 1
                    log.exception("image %s failed", item[1][0])
    else:
        for item in items:
            try:
                results.append(work(item))
            except Exception:
                failures += 1
                log.exception("image %s failed", item[1][0])
    return results, failures


def _warn_idle_offsets(config: PipelineConfig, images) -> None:
    """Log one warning when an offset tiles no patch on any image (partial
    tiles are dropped, so it needs images of at least offset + patch size)
    or when fewer offsets contribute than a merged detection needs."""
    if not images:
        return
    size = config.patches.size
    offsets = config.patches.offsets
    shapes = sorted({image.shape for _, image, _ in images})
    idle = [off for off in offsets if all(off + size > min(shape) for shape in shapes)]
    contributing = len(offsets) - len(idle)
    need = config.decode.merge_min_count
    if not idle and contributing >= need:
        return
    problems = []
    if idle:
        sizes = ", ".join(f"{w}x{h}" for h, w in shapes)
        problems.append(
            f"offsets {','.join(map(str, idle))} tile no {size}-px patch on {sizes} images"
        )
    if contributing < need:
        problems.append(
            f"{contributing} of {len(offsets)} offsets contribute detections, fewer than "
            f"the {need} (decode.merge_min_count) a merged detection needs"
        )
    log.warning("ensemble: %s", "; ".join(problems))


def ensemble_detection(
    config: PipelineConfig,
    codec: Codec,
    images,
    model: RegressorModel | None = None,
):
    """Run every configured offset and merge each image's detections.

    Returns (merged results, per-offset results, failures).
    """
    _warn_idle_offsets(config, images)
    per_offset = []
    failures = 0
    for offset_index in range(len(config.patches.offsets)):
        results, offset_failures = run_detection(config, codec, images, model, offset_index=offset_index)
        failures += offset_failures
        per_offset.append(results)

    truth_by_id = {image_id: annotations for image_id, _, annotations in images}
    merged = []
    for image_id, _, annotations in images:
        sets = [
            result["detections"]
            for results in per_offset
            for result in results
            if result["id"] == image_id
        ]
        fused = merge_ensemble(sets, config.decode.merge_radius, config.decode.merge_min_count)
        report = match_detections(fused, truth_by_id[image_id], config.evaluation.rho)
        merged.append({"id": image_id, "detections": fused, "report": report, "diagnostics": None})
    return merged, per_offset, failures
