"""The benchmark's workloads and the image pools they draw from.

Every workload draws its test images from a finite pool. Pool image (k, j)
is the j-th synthetic image with exactly k cells, generated by
``generate_dataset`` from a config whose ``run.seed`` is ``pool_seed(k, j)``
and detected alone in one ``run_detection`` / ``ensemble_detection`` call
with that same config. Its detections therefore depend only on (k, j), never
on which other images share the run or in which order, so the reference
outcome of every pool image can be recorded once (``record.py``) and checked
for any workload seed.

A pass runs every pool image once, ``per_count`` images for each cell
count in ``cell_counts``, in an order the workload seed draws: rounds of one
image per cell count, so every stretch of a pass holds the same mix of cell
counts. The seed sets the order, not the images. The cost of one image
varies up to 6x within a cell count (the number of votes and clusters
depends on where the cells fall), so a seed-drawn subset of a larger pool
would make the throughput depend on the draw: 6 of 16 images per count
moved oracle-bp's ``images_per_s`` by about 4% from seed to seed.

README.md says why each workload exists; BENCHMARK.json repeats it in one line each.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from csdetect import pipeline
from csdetect.config import PipelineConfig, default_config

REFERENCES = Path(__file__).resolve().parent / "references.json"

# run.seed of the fixed training split of trained-bp
TRAIN_SEED = 424_242
TRAIN_IMAGES = 20
# trained-bp decodes with a model trained at this rate: the shipped 0.05
# diverges on the default layout (w1 turns non-finite), see README.md
TRAINED_LEARNING_RATE = 0.02


def pool_seed(cells: int, index: int) -> int:
    return 1000 * cells + index


@dataclass(frozen=True)
class Workload:
    name: str
    config: PipelineConfig
    cell_counts: tuple
    per_count: int  # pool images per cell count
    ensemble: bool = False
    trained: bool = False

    def image_config(self, cells: int, index: int) -> PipelineConfig:
        cfg = self.config
        return dataclasses.replace(
            cfg,
            synth=dataclasses.replace(cfg.synth, train_images=0, test_images=1, cell_count=(cells, cells)),
            run=dataclasses.replace(cfg.run, seed=pool_seed(cells, index)),
        ).validate()

    def training_config(self, learning_rate: float | None = None) -> PipelineConfig:
        """The fixed training split; the shipped predictor settings unless
        a learning rate is given."""
        cfg = self.config
        predictor = dataclasses.replace(cfg.predictor, mode="trained")
        if learning_rate is not None:
            predictor = dataclasses.replace(predictor, learning_rate=learning_rate)
        return dataclasses.replace(
            cfg,
            synth=dataclasses.replace(cfg.synth, train_images=TRAIN_IMAGES, test_images=0),
            predictor=predictor,
            run=dataclasses.replace(cfg.run, seed=TRAIN_SEED),
        ).validate()

    def pick(self, seed: int) -> list:
        """The (cells, index) pool keys of one pass, in pass order: rounds
        of one image per cell count, each round in its own order."""
        rng = np.random.default_rng(seed)
        chosen = [rng.permutation(self.per_count) for _ in self.cell_counts]
        keys = []
        for r in range(self.per_count):
            round_keys = [(cells, int(picks[r])) for cells, picks in zip(self.cell_counts, chosen)]
            keys.extend(round_keys[i] for i in rng.permutation(len(round_keys)))
        return keys

    def pool(self) -> list:
        return [(cells, index) for cells in self.cell_counts for index in range(self.per_count)]


_BASE = default_config()


def _ensemble_config() -> PipelineConfig:
    return dataclasses.replace(
        _BASE,
        synth=dataclasses.replace(_BASE.synth, image_width=290, image_height=290),
        patches=dataclasses.replace(_BASE.patches, size=130, offsets=tuple(range(0, 29, 4))),
        recovery=dataclasses.replace(_BASE.recovery, solver="omp", max_sparsity=10),
    ).validate()


_SHIPPED_COUNTS = tuple(range(_BASE.synth.cell_count[0], _BASE.synth.cell_count[1] + 1))

WORKLOADS = {
    wl.name: wl
    for wl in (
        Workload(
            name="oracle-bp",
            config=_BASE,
            cell_counts=_SHIPPED_COUNTS,
            per_count=6,
        ),
        Workload(
            name="ensemble-omp",
            config=_ensemble_config(),
            cell_counts=(5, 9, 13, 17),
            per_count=6,
            ensemble=True,
        ),
        Workload(
            name="trained-bp",
            config=_BASE,
            cell_counts=(7, 15),
            per_count=4,
            trained=True,
        ),
    )
}


def load_pool_image(workload: Workload, key, workdir: Path):
    """Synthesize pool image `key` under workdir and load it back:
    (per-image config, (image id, pixels, annotations))."""
    cells, index = key
    cfg = workload.image_config(cells, index)
    out = workdir / f"{workload.name}-{cells}-{index}"
    pipeline.generate_dataset(cfg, out)
    (image,) = pipeline.load_split(out / "manifest.yaml", "test")
    return cfg, image


def detect(workload: Workload, cfg: PipelineConfig, codec, image, model=None):
    """One image through the workload's entry point, matching included.

    Returns the image's outcome (tp, fp, fn, failures); the counts are zero
    when the image failed.
    """
    if model is not None:
        cfg = dataclasses.replace(cfg, predictor=dataclasses.replace(cfg.predictor, mode="trained"))
    if workload.ensemble:
        results, _, failures = pipeline.ensemble_detection(cfg, codec, [image], model=model)
    else:
        results, failures = pipeline.run_detection(cfg, codec, [image], model=model)
    if not results:
        return (0, 0, 0, failures)
    report = results[0]["report"]
    return (report.tp, report.fp, report.fn, failures)


def reference_key(key) -> str:
    return f"{key[0]}-{key[1]}"


def load_references() -> dict:
    with open(REFERENCES) as fh:
        return json.load(fh)
