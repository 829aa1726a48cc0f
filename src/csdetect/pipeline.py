"""End-to-end wiring: synthesize, encode, predict, decode, evaluate.

Everything here is driven by a PipelineConfig and a handful of integer
seeds, so a run is reproducible from its config file alone. Seeds for
per-image work are derived arithmetically from the run seed; the constants
only need to keep distinct work items on distinct streams.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .config import ConfigError, PipelineConfig
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
from .predictor import RegressorModel, oracle_predict, predict, train_regressor
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
    """[(image id, pixels, AnnotationSet)] for one manifest split, pixels
    the image's uint8 gray levels (load_pgm); every image must have the
    manifest's grid size."""
    manifest_path = Path(manifest_path)
    manifest = read_manifest(manifest_path)
    base = manifest_path.parent
    grid = ImageGrid(width=manifest["grid"]["width"], height=manifest["grid"]["height"])
    wanted = set(manifest.get("splits", {}).get(split, []))
    missing = wanted - {entry["id"] for entry in manifest["images"]}
    if missing:
        raise ValueError(
            f"{manifest_path}: split '{split}' lists image ids {sorted(missing)!r} "
            f"with no entry in 'images'"
        )
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


def build_training_examples(config: PipelineConfig, images, codec: Codec) -> tuple:
    """(patches, codes, counts) of the training views: every patch rotated
    4 ways, with the views' codes encoded into one (n, blocks, M) array."""
    views = []
    for _, image, annotations in images:
        for patch in extract_patches(image, annotations, config.patches.size, (0, 0)):
            views.extend(rotate_augment(patch.pixels, patch.cells))
    # filled in place: a list of per-view codes stacked afterwards would
    # hold every code twice
    codes = np.empty((len(views), *codec.code_shape))
    for code, (_, cells) in zip(codes, views):
        code[...] = encode_patch(codec, cells)
    return [pixels for pixels, _ in views], codes, [len(cells) for _, cells in views]


def train_from_manifest(config: PipelineConfig, manifest_path, codec: Codec) -> tuple:
    """(model, per-epoch losses) trained on the manifest's train split."""
    images = load_split(manifest_path, "train")
    if not images:
        raise ValueError(f"{manifest_path}: no training images")
    return train_regressor(
        *build_training_examples(config, images, codec),
        config.predictor,
        derive_seed(config.run.seed, 0, salt=SALT_TRAIN),
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
    rows = []
    patches = extract_patches(image, annotations, config.patches.size, (offset, offset))
    for patch_index, patch in enumerate(patches):
        seed = derive_seed(config.run.seed, image_index, offset_index, patch_index, SALT_ORACLE)
        y_hat = _predict_patch(config, codec, patch, model, seed)
        diag = {} if diagnostics is not None else None
        try:
            detected = decode_signal(codec, y_hat, config, diagnostics=diag)
        except ValueError as exc:
            raise ValueError(f"patch at {patch.origin}: {exc}") from exc
        rows.append(detected.points + (*patch.origin, 0))
        if diag is not None:
            votes, axes = diag["votes"], diag["vote_axes"]
            votes[:, :2] += patch.origin
            diagnostics.append(
                {"offset": offset, "origin": patch.origin, "votes": votes, "vote_axes": axes,
                 "iterations": diag["iterations"][axes], "converged": diag["converged"][axes]}
            )
    return DetectionResult(np.concatenate(rows) if rows else ())


def _log_failure(image_id, exc: Exception) -> None:
    """One line with the reason; an exception other than ValueError (bad
    data or a bad prediction) adds its traceback."""
    log.error("image %s failed: %s", image_id, exc, exc_info=not isinstance(exc, ValueError))


def run_detection(
    config: PipelineConfig,
    codec: Codec,
    images,
    model: RegressorModel | None = None,
    collect_diagnostics: bool = False,
):
    """Detect on every image at the first tiling offset in config.patches.offsets.

    Returns (results, failures) where results is a list of per-image dicts
    (id, detections, report, diagnostics) in input order and failures
    counts images whose pipeline raised, each logged as one line with the
    reason; an exception other than ValueError (bad data or a bad
    prediction) adds its traceback.
    With collect_diagnostics, an image's diagnostics is one record of arrays
    per patch: its offset, its origin, its (n, 3) votes (x, y, |d|) in image
    coordinates before the noise filter, and each vote's 0-based axis
    ("vote_axes") with that axis's solver "iterations" and "converged" flag.
    Those are the axis route's per-axis solves, so a scheme-1 codec raises
    ConfigError before any image is decoded.
    """
    if collect_diagnostics and codec.scheme != 2:
        raise ConfigError(
            f"diagnostics record the axis route's per-axis solves and need "
            f"encoder.scheme 2, got encoder.scheme {codec.scheme}"
        )
    offset = config.patches.offsets[0]
    results = []
    failures = 0
    for index, (image_id, image, annotations) in enumerate(images):
        records = [] if collect_diagnostics else None
        try:
            detections = _detect_image(
                config, codec, index, image, annotations, 0, offset, model, records
            )
            report = match_detections(detections, annotations, config.evaluation.rho)
            results.append(
                {"id": image_id, "detections": detections, "report": report, "diagnostics": records}
            )
        except Exception as exc:
            failures += 1
            _log_failure(image_id, exc)
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
    """Run every configured offset on each image and merge its detections.

    Returns (merged results, per-offset results, failures): per-offset
    results are lists of run_detection's dicts, one list per offset, and
    both hold only the images that every offset decoded. An image whose
    pipeline raises stops at that offset and, as in run_detection, counts
    as one failure logged on one line.
    """
    _warn_idle_offsets(config, images)
    offsets = config.patches.offsets
    rho = config.evaluation.rho
    per_offset = [[] for _ in offsets]
    merged = []
    failures = 0
    for index, (image_id, image, annotations) in enumerate(images):
        try:
            sets = [
                _detect_image(config, codec, index, image, annotations, offset_index, offset,
                              model, None)
                for offset_index, offset in enumerate(offsets)
            ]
            reports = [match_detections(detections, annotations, rho) for detections in sets]
        except Exception as exc:
            failures += 1
            _log_failure(image_id, exc)
            continue
        for results, detections, report in zip(per_offset, sets, reports):
            results.append(
                {"id": image_id, "detections": detections, "report": report, "diagnostics": None}
            )
        fused = merge_ensemble(sets, config.decode.merge_radius, config.decode.merge_min_count)
        report = match_detections(fused, annotations, rho)
        merged.append({"id": image_id, "detections": fused, "report": report, "diagnostics": None})
    return merged, per_offset, failures
