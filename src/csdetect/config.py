"""Pipeline configuration: one YAML block per stage, validated up front.

The shipped defaults are a known-good operating point for 260x260 patches:
112 measurements per axis, 27 axes, count-channel weight 0.20.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field

import yaml

from .core import ImageGrid
from .decoder import DecodeParams
from .recovery import RecoveryParams

__all__ = [
    "ConfigError",
    "EncoderConfig",
    "RecoveryConfig",
    "PredictorConfig",
    "SynthConfig",
    "PatchConfig",
    "EvaluationConfig",
    "RunConfig",
    "PipelineConfig",
    "recovery_params",
    "default_config",
    "load_config",
    "save_config",
]


class ConfigError(ValueError):
    """Invalid or inconsistent configuration."""


@dataclass(frozen=True)
class EncoderConfig:
    scheme: int = 2
    axes: int = 27
    measurements: int = 112
    margin: float | None = None  # None: 5% of the patch diagonal


@dataclass(frozen=True)
class RecoveryConfig:
    solver: str = "bp"
    max_sparsity: int | None = None
    residual_tol: float = 1e-8
    noise_budget_frac: float = 0.1
    max_iterations: int = 2000
    shrinkage_step: float = 1.0


@dataclass(frozen=True)
class PredictorConfig:
    mode: str = "oracle"
    sigma_rel: float = 0.05
    mtl_lambda: float = 0.2
    hidden: int = 64
    epochs: int = 150
    learning_rate: float = 0.05
    batch_size: int = 32
    input_edge: int = 32


@dataclass(frozen=True)
class SynthConfig:
    train_images: int = 50
    test_images: int = 50
    image_width: int = 260
    image_height: int = 260
    cell_count: tuple = (5, 20)
    blob_radius: tuple = (4.0, 8.0)
    intensity: tuple = (0.6, 1.0)
    background_noise_sigma: float = 0.02
    min_separation: float = 24.0


@dataclass(frozen=True)
class PatchConfig:
    size: int = 260
    offsets: tuple = (0,)


@dataclass(frozen=True)
class EvaluationConfig:
    rho: float = 6.0
    macro: bool = False


@dataclass(frozen=True)
class RunConfig:
    seed: int = 7
    matrix_seed: int = 1234
    workers: int = 1


@dataclass(frozen=True)
class PipelineConfig:
    encoder: EncoderConfig = field(default_factory=EncoderConfig)
    recovery: RecoveryConfig = field(default_factory=RecoveryConfig)
    decode: DecodeParams = field(default_factory=DecodeParams)
    predictor: PredictorConfig = field(default_factory=PredictorConfig)
    synth: SynthConfig = field(default_factory=SynthConfig)
    patches: PatchConfig = field(default_factory=PatchConfig)
    evaluation: EvaluationConfig = field(default_factory=EvaluationConfig)
    run: RunConfig = field(default_factory=RunConfig)

    def patch_grid(self) -> ImageGrid:
        return ImageGrid(width=self.patches.size, height=self.patches.size)

    def validate(self) -> "PipelineConfig":
        enc, patches, synth = self.encoder, self.patches, self.synth
        if enc.scheme not in (1, 2):
            raise ConfigError(f"encoder.scheme must be 1 or 2, got {enc.scheme}")
        if enc.axes < 1 or enc.measurements < 1:
            raise ConfigError("encoder.axes and encoder.measurements must be >= 1")
        if enc.margin is not None and enc.margin <= 0:
            raise ConfigError("encoder.margin must be > 0 when given")
        if self.recovery.solver not in ("bp", "omp"):
            raise ConfigError(f"recovery.solver must be bp or omp, got {self.recovery.solver!r}")
        try:
            recovery_params(self)
        except ValueError as exc:
            raise ConfigError(f"section 'recovery': {exc}") from exc
        if patches.size < 1:
            raise ConfigError("patches.size must be >= 1")
        if not patches.offsets:
            raise ConfigError("patches.offsets must be non-empty")
        for off in patches.offsets:
            if not 0 <= off < patches.size:
                raise ConfigError(
                    f"offset {off} must lie in [0, patch size {patches.size})"
                )
        if patches.size > min(synth.image_width, synth.image_height):
            raise ConfigError("patches.size exceeds the synthesized image size")
        grid = self.patch_grid()
        cols = grid.n_pixels if enc.scheme == 1 else int(math.ceil(grid.diagonal))
        if enc.measurements >= cols:
            raise ConfigError(
                f"encoder.measurements {enc.measurements} must be below the "
                f"signal length {cols} of scheme {enc.scheme}"
            )
        if self.decode.min_support is not None and self.decode.min_support > enc.axes:
            raise ConfigError("decode.min_support exceeds encoder.axes")
        if self.predictor.mode not in ("oracle", "trained"):
            raise ConfigError(f"predictor.mode must be oracle or trained, got {self.predictor.mode!r}")
        if self.predictor.sigma_rel < 0:
            raise ConfigError("predictor.sigma_rel must be >= 0")
        if self.evaluation.rho <= 0:
            raise ConfigError("evaluation.rho must be > 0")
        if self.run.workers < 1:
            raise ConfigError("run.workers must be >= 1")
        return self


def recovery_params(config: PipelineConfig) -> RecoveryParams:
    """The solver controls of the `recovery` section; `solver` itself picks
    the routine and is not one of them."""
    rec = config.recovery
    return RecoveryParams(
        max_sparsity=rec.max_sparsity,
        residual_tol=rec.residual_tol,
        noise_budget_frac=rec.noise_budget_frac,
        max_iterations=rec.max_iterations,
        shrinkage_step=rec.shrinkage_step,
    )


_SECTIONS = {
    "encoder": EncoderConfig,
    "recovery": RecoveryConfig,
    "decode": DecodeParams,
    "predictor": PredictorConfig,
    "synth": SynthConfig,
    "patches": PatchConfig,
    "evaluation": EvaluationConfig,
    "run": RunConfig,
}

_TUPLE_FIELDS = {
    ("synth", "cell_count"),
    ("synth", "blob_radius"),
    ("synth", "intensity"),
    ("patches", "offsets"),
}


def default_config() -> PipelineConfig:
    return PipelineConfig().validate()


def _from_dict(doc: dict) -> PipelineConfig:
    if not isinstance(doc, dict):
        raise ConfigError("config root must be a mapping")
    unknown = set(doc) - set(_SECTIONS)
    if unknown:
        raise ConfigError(f"unknown config sections: {sorted(unknown)}")
    kwargs = {}
    for name, cls in _SECTIONS.items():
        block = doc.get(name, {})
        if not isinstance(block, dict):
            raise ConfigError(f"section '{name}' must be a mapping")
        valid = {f for f in cls.__dataclass_fields__}
        bad = set(block) - valid
        if bad:
            raise ConfigError(f"unknown keys in '{name}': {sorted(bad)}")
        for key, value in block.items():
            items = value if isinstance(value, list) else [value]
            if any(isinstance(v, float) and not math.isfinite(v) for v in items):
                raise ConfigError(f"{name}.{key} must be finite, got {value}")
        coerced = {
            key: tuple(value) if (name, key) in _TUPLE_FIELDS and value is not None else value
            for key, value in block.items()
        }
        try:
            kwargs[name] = cls(**coerced)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"section '{name}': {exc}") from exc
    return PipelineConfig(**kwargs)


def _to_dict(config: PipelineConfig) -> dict:
    doc = asdict(config)
    for section, key in _TUPLE_FIELDS:
        doc[section][key] = list(doc[section][key])
    return doc


def load_config(path) -> PipelineConfig:
    try:
        with open(path) as fh:
            doc = yaml.safe_load(fh)
    except yaml.YAMLError as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    return _from_dict(doc or {}).validate()


def save_config(config: PipelineConfig, path) -> None:
    with open(path, "w") as fh:
        yaml.safe_dump(_to_dict(config), fh, sort_keys=True)
