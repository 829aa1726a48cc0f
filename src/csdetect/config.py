"""Pipeline configuration: one YAML block per stage, validated up front.

Each section is the frozen dataclass its stage reads and checks its own
fields when built (RecoveryParams, DecodeParams, PredictorParams and
SynthesisParams live with their stages); loading rejects non-integers in
int keys, non-numbers in float keys and bools outside bool keys, and
validate() checks across sections.

The shipped defaults are a known-good operating point for 260x260 patches:
112 measurements per axis, 27 axes, count-channel weight 0.20.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field, fields

import yaml

from .core import ImageGrid
from .decoder import DecodeParams
from .predictor import PredictorParams
from .recovery import RecoveryParams
from .synthdata import SynthesisParams

__all__ = [
    "ConfigError",
    "EncoderConfig",
    "PatchConfig",
    "EvaluationConfig",
    "RunConfig",
    "PipelineConfig",
    "default_config",
    "load_config",
]


class ConfigError(ValueError):
    """Invalid or inconsistent configuration."""


@dataclass(frozen=True)
class EncoderConfig:
    scheme: int = 2
    axes: int = 27
    measurements: int = 112

    def __post_init__(self):
        if self.scheme not in (1, 2):
            raise ValueError(f"scheme must be 1 or 2, got {self.scheme!r}")
        if self.axes < 1 or self.measurements < 1:
            raise ValueError("axes and measurements must be >= 1")


@dataclass(frozen=True)
class PatchConfig:
    size: int = 260
    offsets: tuple[int, ...] = (0,)

    def __post_init__(self):
        if self.size < 1:
            raise ValueError("size must be >= 1")
        if not isinstance(self.offsets, (list, tuple)) or not self.offsets:
            raise ValueError(f"offsets must be a non-empty list, got {self.offsets!r}")
        object.__setattr__(self, "offsets", tuple(self.offsets))
        for off in self.offsets:
            if not 0 <= off < self.size:
                raise ValueError(f"offset {off} must lie in [0, patch size {self.size})")


@dataclass(frozen=True)
class EvaluationConfig:
    rho: float = 6.0
    macro: bool = False

    def __post_init__(self):
        if self.rho <= 0:
            raise ValueError("rho must be > 0")


@dataclass(frozen=True)
class RunConfig:
    seed: int = 7
    matrix_seed: int = 1234
    # Not a field (no annotation), so no config can set it. perfbench/run.py
    # still reads it for its env line; the benchmark's Step A drops it.
    workers = 1

    def __post_init__(self):
        for key in ("seed", "matrix_seed"):
            if getattr(self, key) < 0:
                raise ValueError(f"{key} must be >= 0, got {getattr(self, key)}")


@dataclass(frozen=True)
class PipelineConfig:
    encoder: EncoderConfig = field(default_factory=EncoderConfig)
    recovery: RecoveryParams = field(default_factory=RecoveryParams)
    decode: DecodeParams = field(default_factory=DecodeParams)
    predictor: PredictorParams = field(default_factory=PredictorParams)
    synth: SynthesisParams = field(default_factory=SynthesisParams)
    patches: PatchConfig = field(default_factory=PatchConfig)
    evaluation: EvaluationConfig = field(default_factory=EvaluationConfig)
    run: RunConfig = field(default_factory=RunConfig)

    def patch_grid(self) -> ImageGrid:
        return ImageGrid(width=self.patches.size, height=self.patches.size)

    def validate(self) -> "PipelineConfig":
        """The checks that span sections; each section checked its own
        fields when it was built."""
        enc, synth = self.encoder, self.synth
        if self.patches.size > min(synth.image_width, synth.image_height):
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
        return self


_SECTIONS = {f.name: f.default_factory for f in fields(PipelineConfig)}


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
        types = {f.name: f.type for f in fields(cls)}
        bad = set(block) - set(types)
        if bad:
            raise ConfigError(f"unknown keys in '{name}': {sorted(bad)}")
        for key, value in block.items():
            items = value if isinstance(value, list) else [value]
            if any(isinstance(v, float) and not math.isfinite(v) for v in items):
                raise ConfigError(f"{name}.{key} must be finite, got {value}")
            integral = all(isinstance(v, numbers.Integral) and not isinstance(v, bool) for v in items)
            real = all(isinstance(v, numbers.Real) and not isinstance(v, bool) for v in items)
            optional = value is None and "None" in types[key]
            if types[key].startswith(("int", "tuple[int")) and not (integral or optional):
                raise ConfigError(f"section '{name}': {key} must be integral, got {value!r}")
            if types[key].startswith(("float", "tuple[float")) and not (real or optional):
                raise ConfigError(f"section '{name}': {key} must be a number, got {value!r}")
            if types[key] == "bool" and not isinstance(value, bool):
                raise ConfigError(f"section '{name}': {key} must be true or false, got {value!r}")
            if types[key] != "bool" and any(isinstance(v, bool) for v in items):
                raise ConfigError(f"section '{name}': {key} must not be true or false, got {value!r}")
        try:
            kwargs[name] = cls(**block)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"section '{name}': {exc}") from exc
    return PipelineConfig(**kwargs)


def load_config(path) -> PipelineConfig:
    try:
        with open(path) as fh:
            doc = yaml.safe_load(fh)
    except yaml.YAMLError as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    return _from_dict(doc or {}).validate()
