"""Command-line interface.

Subcommands cover the full workflow:

  synth     write a synthetic dataset (images, annotation CSVs, manifest)
  train     fit the desk-scale regressor on the train split
  run       encode/predict/decode/evaluate the test split at one offset
  ensemble  run every configured offset and merge detections per image
  ripcheck  Monte-Carlo near-isometry report for the sensing matrix

Exit codes: 0 success, 1 any per-image failure, 2 configuration errors.
"""

from __future__ import annotations

import argparse
import dataclasses
import logging
import math
import sys
from pathlib import Path

from .config import ConfigError, PipelineConfig, load_config
from .core import save_detections_csv, write_csv
from .evaluation import write_evaluation_csv
from .pipeline import (
    ensemble_detection,
    generate_dataset,
    load_split,
    make_codec,
    run_detection,
    train_from_manifest,
)
from .predictor import load_model, save_model, save_training_log
from .recovery import default_max_sparsity
from .sensing import empirical_rip_check

log = logging.getLogger(__name__)


def _parse_offset(token: str) -> int:
    try:
        return int(token)
    except ValueError:
        raise ConfigError(f"--offsets: {token!r} is not an integer") from None


def _apply_overrides(config: PipelineConfig, args) -> PipelineConfig:
    try:
        if args.seed is not None:
            config = dataclasses.replace(config, run=dataclasses.replace(config.run, seed=args.seed))
        if getattr(args, "offsets", None) is not None:
            offsets = tuple(_parse_offset(tok) for tok in args.offsets.split(",") if tok != "")
            config = dataclasses.replace(
                config, patches=dataclasses.replace(config.patches, offsets=offsets)
            )
    except ValueError as exc:  # a section rejecting the overridden value
        raise ConfigError(str(exc)) from exc
    return config.validate()


def _load(args) -> PipelineConfig:
    return _apply_overrides(load_config(args.config), args)


def _write_results(results, out: Path, macro: bool) -> tuple:
    detections_dir = out / "detections"
    detections_dir.mkdir(parents=True, exist_ok=True)
    rows = []
    for result in results:
        save_detections_csv(result["detections"], detections_dir / f"{result['id']}.csv")
        rows.append((result["id"], result["report"]))
    return write_evaluation_csv(rows, out / "evaluation.csv", macro=macro)


def _write_diagnostics(results, out: Path) -> None:
    diag_dir = out / "diagnostics"
    diag_dir.mkdir(parents=True, exist_ok=True)
    header = ["offset", "patch_x", "patch_y", "axis", "x", "y", "magnitude",
              "iterations", "converged"]
    for result in results:
        rows = []
        for record in result["diagnostics"]:
            columns = zip(record["votes"].tolist(), record["vote_axes"].tolist(),
                          record["iterations"].tolist(), record["converged"].tolist())
            for (x, y, magnitude), axis, iterations, converged in columns:
                rows.append([record["offset"], *record["origin"], axis + 1, x, y, magnitude,
                             iterations, int(converged)])
        write_csv(diag_dir / f"{result['id']}_candidates.csv", header, rows)


def cmd_synth(args) -> int:
    config = _load(args)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    manifest = generate_dataset(config, out)
    print(f"wrote {len(manifest['images'])} images under {out}")
    return 0


def cmd_train(args) -> int:
    config = _load(args)
    codec = make_codec(config)
    model, losses = train_from_manifest(config, args.manifest, codec)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    save_model(model, out / "model.bin")
    save_training_log(losses, out / "training_log.csv")
    print(f"trained {model.epochs} epochs, final loss {model.final_loss:.6g}")
    return 0


def _detect_split(args, ensemble: bool) -> int:
    """Shared body of `run` and `ensemble`: detect on the test split, write
    detections and evaluation.csv, print the summary line."""
    config = _load(args)
    if args.mode is not None:
        config = dataclasses.replace(
            config, predictor=dataclasses.replace(config.predictor, mode=args.mode)
        ).validate()
    codec = make_codec(config)
    if config.predictor.mode == "trained" and args.model is None:
        raise ConfigError("trained mode needs --model")
    model = load_model(args.model) if config.predictor.mode == "trained" else None
    if model is not None and (model.block_count, model.block_size) != codec.code_shape:
        blocks, m = codec.code_shape
        raise ConfigError(
            f"{args.model}: the model predicts {model.block_count} blocks of "
            f"{model.block_size} measurements, the config's codec needs {blocks} blocks of {m}"
        )
    images = load_split(args.manifest, "test")
    if not images:
        raise ConfigError(f"{args.manifest}: empty test split")
    out = Path(args.out)
    if ensemble:
        results, _, failures = ensemble_detection(config, codec, images, model=model)
        summary = f"merged {len(config.patches.offsets)} offsets: "
    else:
        results, failures = run_detection(
            config, codec, images, model=model, collect_diagnostics=args.diagnostics
        )
        summary = ""
        if args.diagnostics:
            _write_diagnostics(results, out)
    precision, recall, f1 = _write_results(results, out, config.evaluation.macro)
    print(f"{summary}precision {precision:.4f} recall {recall:.4f} f1 {f1:.4f}")
    if failures:
        print(f"{failures} image(s) failed; see the log", file=sys.stderr)
        return 1
    return 0


def cmd_run(args) -> int:
    return _detect_split(args, ensemble=False)


def cmd_ensemble(args) -> int:
    return _detect_split(args, ensemble=True)


def cmd_ripcheck(args) -> int:
    if args.trials < 1:
        raise ConfigError(f"--trials must be >= 1, got {args.trials}")
    if args.sparsity is not None and args.sparsity < 1:
        raise ConfigError(f"--sparsity must be >= 1, got {args.sparsity}")
    if not (math.isfinite(args.delta_bound) and args.delta_bound > 0):
        raise ConfigError(f"--delta-bound must be finite and > 0, got {args.delta_bound}")
    config = _load(args)
    codec = make_codec(config)
    sparsity = args.sparsity
    if sparsity is None:
        sparsity = default_max_sparsity(codec.phi.rows, codec.phi.cols)
    report = empirical_rip_check(
        codec.phi, sparsity, args.trials, seed=config.run.seed, delta_bound=args.delta_bound
    )
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_csv(
        out / "rip_report.csv",
        ["rows", "cols", "sparsity_tested", "trials", "delta_observed", "delta_bound",
         "violation_count"],
        [[codec.phi.rows, codec.phi.cols, report.sparsity_tested, report.trials,
          report.delta_observed, report.delta_bound, report.violation_count]],
    )
    print(
        f"delta_observed {report.delta_observed:.4f} over {report.trials} trials, "
        f"{report.violation_count} above {report.delta_bound}"
    )
    return 0


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", required=True, help="pipeline config YAML")
    common.add_argument("--seed", type=int, default=None, help="override run.seed")

    detect = argparse.ArgumentParser(add_help=False, parents=[common])
    detect.add_argument("--manifest", required=True)
    detect.add_argument("--out", required=True)
    detect.add_argument("--offsets", default=None, help="override patch offsets, e.g. 0,20,40")
    detect.add_argument("--mode", choices=("oracle", "trained"), default=None)
    detect.add_argument("--model", default=None, help="model file for trained mode")

    parser = argparse.ArgumentParser(
        prog="csdetect",
        description="compressed-sensing encoding and decoding for point detection",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", parents=[common], help="write a synthetic dataset")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("train", parents=[common], help="train the patch regressor")
    p.add_argument("--manifest", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("run", parents=[detect], help="detect and evaluate the test split")
    p.add_argument("--diagnostics", action="store_true",
                   help="dump per-axis votes with each axis's iteration count and converged flag")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("ensemble", parents=[detect],
                       help="run all offsets and merge detections")
    p.set_defaults(func=cmd_ensemble)

    p = sub.add_parser("ripcheck", parents=[common], help="near-isometry report")
    p.add_argument("--out", required=True)
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--sparsity", type=int, default=None)
    p.add_argument("--delta-bound", type=float, default=0.6)
    p.set_defaults(func=cmd_ripcheck)
    return parser


def entry(argv=None) -> int:
    logging.basicConfig(
        level=logging.INFO, format="%(levelname)s %(name)s: %(message)s", stream=sys.stderr
    )
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        # a missing path, a directory where a file belongs, no permission
        what = "missing file" if isinstance(exc, FileNotFoundError) else "cannot read file"
        print(f"{what}: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        # bad values that only surface mid-run, e.g. infeasible synthesis
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(entry())
