"""Config loading, pipeline wiring and the command-line interface."""

import dataclasses
import logging
import math
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml

from csdetect import pipeline, recovery
from csdetect.cli import entry
from csdetect.config import ConfigError, RunConfig, default_config, load_config
from csdetect.predictor import init_model, oracle_predict, save_model
from csdetect.synthdata import extract_patches, save_pgm
from csdetect.core import AnnotationSet, DetectionResult, ImageGrid
from csdetect.decoder import merge_ensemble
from csdetect.pipeline import (
    SALT_ORACLE,
    build_training_examples,
    decode_signal,
    derive_seed,
    encode_patch,
    ensemble_detection,
    generate_dataset,
    load_split,
    make_codec,
    run_detection,
)

SMALL = {
    "encoder": {"scheme": 2, "axes": 6, "measurements": 12},
    "recovery": {"solver": "omp", "max_sparsity": 4},
    "decode": {"bandwidth": 3.0, "min_support": 3, "merge_radius": 4.0, "merge_min_count": 2},
    "predictor": {"mode": "oracle", "sigma_rel": 0.02, "mtl_lambda": 0.2,
                  "hidden": 8, "epochs": 3, "learning_rate": 0.01,
                  "batch_size": 4, "input_edge": 8},
    "synth": {"train_images": 2, "test_images": 2, "image_width": 32,
              "image_height": 32, "cell_count": [1, 2], "blob_radius": [2.5, 3.5],
              "intensity": [0.8, 1.0], "background_noise_sigma": 0.01,
              "min_separation": 9.0},
    "patches": {"size": 32, "offsets": [0]},
    "evaluation": {"rho": 6.0},
    "run": {"seed": 5, "matrix_seed": 11},
}


def _write_config(path, doc=SMALL):
    with open(path, "w") as fh:
        yaml.safe_dump(doc, fh)
    return str(path)


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    root = tmp_path_factory.mktemp("ws")
    cfg = _write_config(root / "config.yaml")
    data = root / "data"
    assert entry(["synth", "--config", cfg, "--out", str(data)]) == 0
    return {"root": root, "config": cfg, "data": data,
            "manifest": str(data / "manifest.yaml")}


# ------------------------------------------------------------------- config


def test_config_lists_load_as_tuples_and_recovery_keeps_its_defaults(tmp_path):
    config = load_config(_write_config(tmp_path / "cfg.yaml"))
    assert config.synth.cell_count == (1, 2)
    assert config.patches.offsets == (0,)
    assert dataclasses.asdict(default_config().recovery) == {
        "solver": "bp", "max_sparsity": None, "noise_budget_frac": 0.1, "max_iterations": 2000,
    }


def test_readme_example_config_loads(tmp_path):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = re.findall(r"^```yaml\n(.*?)^```$", readme, flags=re.S | re.M)
    assert len(blocks) == 1
    path = tmp_path / "readme.yaml"
    path.write_text(blocks[0])
    config = load_config(path)
    assert config.encoder == default_config().encoder
    assert config.decode.min_support == 14


def test_empty_config_gives_defaults(tmp_path):
    path = tmp_path / "empty.yaml"
    path.write_text("")
    assert load_config(path) == default_config()


def test_config_rejects_unknown_names(tmp_path):
    path = tmp_path / "bad.yaml"
    _write_config(path, {"sensing": {"rows": 5}})
    with pytest.raises(ConfigError, match="unknown config sections"):
        load_config(path)
    _write_config(path, {"encoder": {"rows": 5}})
    with pytest.raises(ConfigError, match="unknown keys in 'encoder'"):
        load_config(path)
    # detection runs in one thread: workers is no field, so no key
    assert [f.name for f in dataclasses.fields(RunConfig)] == ["seed", "matrix_seed"]
    # settings with one value in use are constants, not keys
    for section, key in (("run", "workers"), ("encoder", "margin"), ("decode", "noise_margin"),
                         ("decode", "scheme1_threshold"), ("recovery", "residual_tol"),
                         ("recovery", "shrinkage_step")):
        _write_config(path, {section: {key: 1}})
        with pytest.raises(ConfigError, match=rf"unknown keys in '{section}': \['{key}'\]"):
            load_config(path)


def test_config_rejects_bad_values(tmp_path):
    path = tmp_path / "bad.yaml"
    _write_config(path, {"encoder": {"scheme": 3}})
    with pytest.raises(ConfigError, match="scheme"):
        load_config(path)
    _write_config(path, {"patches": {"size": 32, "offsets": [40]}})
    with pytest.raises(ConfigError, match="offset 40"):
        load_config(path)
    _write_config(path, {"patches": {"size": 32}, "encoder": {"measurements": 46},
                         "synth": {"image_width": 32, "image_height": 32}})
    with pytest.raises(ConfigError, match="signal length"):
        load_config(path)
    _write_config(path, {"decode": {"min_support": 28}})
    with pytest.raises(ConfigError, match="min_support"):
        load_config(path)
    _write_config(path, {"decode": {"bandwidth": -1}})
    with pytest.raises(ConfigError, match="bandwidth"):
        load_config(path)
    _write_config(path, {"recovery": {"max_iterations": 0}})
    with pytest.raises(ConfigError, match="max_iterations"):
        load_config(path)
    _write_config(path, {"predictor": {"sigma_rel": -0.5}})
    with pytest.raises(ConfigError, match="sigma_rel"):
        load_config(path)
    for section, key, value in [("decode", "bandwidth", float("nan")),
                                ("decode", "bandwidth", float("inf")),
                                ("evaluation", "rho", float("nan")),
                                ("synth", "blob_radius", [2.5, float("inf")])]:
        _write_config(path, {section: {key: value}})
        with pytest.raises(ConfigError, match=f"{section}.{key} must be finite"):
            load_config(path)


def test_config_rejects_grid_section(tmp_path):
    path = tmp_path / "grid.yaml"
    _write_config(path, dict(SMALL, grid={"width": 32, "height": 32}))
    with pytest.raises(ConfigError, match=r"unknown config sections: \['grid'\]"):
        load_config(path)


def test_config_rejects_malformed_yaml(tmp_path):
    path = tmp_path / "bad.yaml"
    path.write_text("a: [unclosed\n")
    with pytest.raises(ConfigError):
        load_config(path)
    path.write_text("- 1\n- 2\n")
    with pytest.raises(ConfigError, match="mapping"):
        load_config(path)


# ----------------------------------------------------------------- pipeline


def test_derive_seed_separates_work_items():
    seeds = {
        derive_seed(7, i, j, k, salt)
        for i in range(3) for j in range(3) for k in range(3)
        for salt in (0, 500_009)
    }
    assert len(seeds) == 3 * 3 * 3 * 2
    assert derive_seed(7, 1, 2, 3, 4) == derive_seed(7, 1, 2, 3, 4)


def test_make_codec_schemes(tmp_path):
    config = load_config(_write_config(tmp_path / "c.yaml"))
    codec = make_codec(config)
    assert codec.scheme == 2
    assert codec.layout.count == 6
    assert codec.phi.rows == 12
    assert codec.phi.cols == codec.layout.bin_count
    doc = dict(SMALL, encoder={"scheme": 1, "axes": 1, "measurements": 12}, decode={})
    flat = make_codec(load_config(_write_config(tmp_path / "c1.yaml", doc)))
    assert flat.layout is None
    assert flat.phi.cols == 32 * 32


def test_generate_dataset_is_reproducible(tmp_path):
    config = load_config(_write_config(tmp_path / "c.yaml"))
    manifest = generate_dataset(config, tmp_path / "a")
    assert len(manifest["images"]) == 4
    assert manifest["splits"]["train"] == ["train_000", "train_001"]
    assert manifest["splits"]["test"] == ["test_000", "test_001"]
    generate_dataset(config, tmp_path / "b")
    files = sorted(p.relative_to(tmp_path / "a") for p in (tmp_path / "a").rglob("*") if p.is_file())
    assert files
    for rel in files:
        assert (tmp_path / "a" / rel).read_bytes() == (tmp_path / "b" / rel).read_bytes(), rel


def test_load_split(tmp_path):
    config = load_config(_write_config(tmp_path / "c.yaml"))
    generate_dataset(config, tmp_path / "d")
    train = load_split(tmp_path / "d" / "manifest.yaml", "train")
    assert [image_id for image_id, _, _ in train] == ["train_000", "train_001"]
    image_id, image, annotations = train[0]
    assert image.shape == (32, 32)
    assert all(pixels.dtype == np.uint8 for _, pixels, _ in train)  # the file's gray levels
    assert annotations.grid == ImageGrid(32, 32)
    assert 1 <= len(annotations.cells) <= 2
    assert load_split(tmp_path / "d" / "manifest.yaml", "holdout") == []


def test_build_training_examples_rotates_each_patch(tmp_path):
    config = load_config(_write_config(tmp_path / "c.yaml"))
    codec = make_codec(config)
    rng = np.random.default_rng(0)
    grid = ImageGrid(32, 32)
    images = [
        ("img", rng.uniform(size=(32, 32)), AnnotationSet(grid=grid, cells=((5.0, 8.0),)))
    ]
    patches, codes, counts = build_training_examples(config, images, codec)
    assert [patch.shape for patch in patches] == [(32, 32)] * 4
    assert codes.shape == (4, 6, 12)
    assert counts == [1, 1, 1, 1]


def test_run_detection_counts_failures(tmp_path):
    doc = dict(SMALL, predictor=dict(SMALL["predictor"], mode="trained"))
    config = load_config(_write_config(tmp_path / "c.yaml", doc))
    codec = make_codec(config)
    grid = ImageGrid(32, 32)
    images = [("img", np.zeros((32, 32)), AnnotationSet(grid=grid, cells=((5.0, 5.0),)))]
    results, failures = run_detection(config, codec, images, model=None)
    assert failures == 1
    assert results == []


@pytest.mark.parametrize("scheme, solver", [
    pytest.param(2, "bp", id="bp"),
    pytest.param(2, "omp", id="omp"),
    pytest.param(1, "bp", id="scheme1-bp"),
    pytest.param(1, "omp", id="scheme1-omp"),
])
def test_run_detection_reports_non_finite_predictions(tmp_path, caplog, monkeypatch, scheme, solver):
    doc = dict(SMALL, predictor=dict(SMALL["predictor"], mode="trained"),
               recovery=dict(SMALL["recovery"], solver=solver),
               encoder=dict(SMALL["encoder"], scheme=scheme))
    config = load_config(_write_config(tmp_path / "c.yaml", doc))
    codec = make_codec(config)
    model = init_model(input_edge=8, hidden=8, block_size=12, block_count=6 if scheme == 2 else 1,
                       mtl_lambda=0.2, seed=0)
    model = dataclasses.replace(model, output_scale=math.nan)
    grid = ImageGrid(32, 32)
    images = [("img7", np.zeros((32, 32)), AnnotationSet(grid=grid, cells=((5.0, 5.0),)))]

    def no_solve(*args, **kwargs):
        raise AssertionError("a solver ran on a non-finite prediction")

    monkeypatch.setattr(recovery, "bp_recover_rows", no_solve)
    monkeypatch.setattr(recovery, "omp_recover_rows", no_solve)
    with caplog.at_level(logging.ERROR, logger="csdetect.pipeline"):
        results, failures = run_detection(config, codec, images, model=model)
    assert (results, failures) == ([], 1)
    (record,) = caplog.records
    on_axes = " on axes 1,2,3,4,5,6" if scheme == 2 else ""
    assert record.getMessage() == f"image img7 failed: patch at (0, 0): non-finite prediction{on_axes}"
    assert not record.exc_info  # no traceback


def test_run_detection_logs_an_unexpected_error_with_its_traceback(tmp_path, caplog, monkeypatch):
    config = load_config(_write_config(tmp_path / "c.yaml"))
    grid = ImageGrid(32, 32)
    images = [("img7", np.zeros((32, 32)), AnnotationSet(grid=grid, cells=((5.0, 5.0),)))]

    def boom(*args):
        raise RuntimeError("boom")

    monkeypatch.setattr(pipeline, "_detect_image", boom)
    with caplog.at_level(logging.ERROR, logger="csdetect.pipeline"):
        assert run_detection(config, make_codec(config), images) == ([], 1)
    (record,) = caplog.records
    assert record.getMessage() == "image img7 failed: boom"
    assert isinstance(record.exc_info[1], RuntimeError)


@pytest.mark.filterwarnings("error")
def test_an_overflowing_model_fails_its_image_in_one_log_line(tmp_path, caplog):
    doc = dict(SMALL, predictor=dict(SMALL["predictor"], mode="trained"))
    config = load_config(_write_config(tmp_path / "c.yaml", doc))
    model = init_model(input_edge=8, hidden=8, block_size=12, block_count=6, mtl_lambda=0.2, seed=0)
    model = dataclasses.replace(model, w2=model.w2 * 1e307, output_scale=1e3)
    grid = ImageGrid(32, 32)
    images = [("img7", np.ones((32, 32)), AnnotationSet(grid=grid, cells=((5.0, 5.0),)))]
    with caplog.at_level(logging.ERROR, logger="csdetect.pipeline"):
        assert run_detection(config, make_codec(config), images, model=model) == ([], 1)
    (record,) = caplog.records
    assert record.getMessage() == (
        "image img7 failed: patch at (0, 0): non-finite prediction on axes 1,2,3,4,5,6"
    )
    assert not record.exc_info  # no traceback


def test_ensemble_counts_a_failed_image_once(tmp_path, caplog):
    doc = dict(SMALL, predictor=dict(SMALL["predictor"], mode="trained"),
               patches={"size": 32, "offsets": [0, 8, 16]})
    config = load_config(_write_config(tmp_path / "c.yaml", doc))
    grid = ImageGrid(64, 64)
    images = [("img", np.zeros((64, 64)), AnnotationSet(grid=grid, cells=((9.0, 9.0),)))]
    with caplog.at_level(logging.ERROR, logger="csdetect.pipeline"):
        merged, per_offset, failures = ensemble_detection(config, make_codec(config), images)
    assert failures == 1
    assert merged == []
    assert per_offset == [[], [], []]
    (record,) = [r for r in caplog.records if r.levelno == logging.ERROR]
    assert record.getMessage() == "image img failed: trained mode requires a model"


@pytest.mark.parametrize("width, offsets, merge_min_count, expected", [
    (32, [0, 16], 2, "ensemble: offsets 16 tile no 32-px patch on 32x32 images; 1 of 2 offsets "
                     "contribute detections, fewer than the 2 (decode.merge_min_count) "
                     "a merged detection needs"),
    (40, [0, 4, 8, 12], 2, "ensemble: offsets 12 tile no 32-px patch on 40x40 images"),
    (64, [0, 8, 16], 4, "ensemble: 3 of 3 offsets contribute detections, fewer than the 4 "
                        "(decode.merge_min_count) a merged detection needs"),
    (64, [0, 8, 16, 24], 4, None),
])
def test_ensemble_warns_once_about_idle_offsets(tmp_path, caplog, width, offsets,
                                                merge_min_count, expected):
    doc = dict(SMALL, patches={"size": 32, "offsets": offsets},
               decode=dict(SMALL["decode"], merge_min_count=merge_min_count))
    config = load_config(_write_config(tmp_path / "c.yaml", doc))
    grid = ImageGrid(width, width)
    images = [(f"img{i}", np.zeros((width, width)), AnnotationSet(grid=grid, cells=((9.0, 9.0),)))
              for i in range(3)]
    with caplog.at_level(logging.WARNING, logger="csdetect.pipeline"):
        merged, per_offset, failures = ensemble_detection(config, make_codec(config), images)
    assert failures == 0 and len(merged) == 3
    # per offset, each image's unmatched detections, which merge into its merged row
    assert [len(sets) for sets in per_offset] == [3] * len(offsets)
    for i, row in enumerate(merged):
        sets = [offset_sets[i] for offset_sets in per_offset]
        assert all(isinstance(found, DetectionResult) for found in sets)
        fused = merge_ensemble(sets, config.decode.merge_radius, config.decode.merge_min_count)
        assert np.array_equal(row["detections"].points, fused.points)
    messages = [r.getMessage() for r in caplog.records if r.name == "csdetect.pipeline"]
    assert messages == ([expected] if expected else [])


def test_run_warns_once_about_an_idle_offset(tmp_path, caplog):
    doc = dict(SMALL, patches={"size": 32, "offsets": [10, 0]})
    config = load_config(_write_config(tmp_path / "c.yaml", doc))
    grid = ImageGrid(32, 32)
    images = [(f"img{i}", np.zeros((32, 32)), AnnotationSet(grid=grid, cells=((9.0, 9.0),)))
              for i in range(3)]
    with caplog.at_level(logging.WARNING, logger="csdetect.pipeline"):
        results, failures = run_detection(config, make_codec(config), images)
    assert failures == 0
    assert [len(row["detections"]) for row in results] == [0, 0, 0]  # no patch, no detection
    # run uses only the first offset and merges nothing, so no merge_min_count clause
    assert [(r.levelname, r.getMessage()) for r in caplog.records] == [
        ("WARNING", "run: offsets 10 tile no 32-px patch on 32x32 images")
    ]


def test_ensemble_counts_an_image_whose_merge_raises_as_one_failure(tmp_path, caplog, monkeypatch):
    doc = dict(SMALL, patches={"size": 32, "offsets": [0, 8]})
    config = load_config(_write_config(tmp_path / "c.yaml", doc))
    grid = ImageGrid(40, 40)
    images = [(f"img{i}", np.zeros((40, 40)), AnnotationSet(grid=grid, cells=((9.0, 9.0),)))
              for i in range(3)]
    calls = []

    def merge_but_the_second(sets, merge_radius, merge_min_count):
        calls.append(len(sets))
        if len(calls) == 2:
            raise RuntimeError("merge broke")
        return merge_ensemble(sets, merge_radius, merge_min_count)

    monkeypatch.setattr(pipeline, "merge_ensemble", merge_but_the_second)
    with caplog.at_level(logging.ERROR, logger="csdetect.pipeline"):
        merged, per_offset, failures = ensemble_detection(config, make_codec(config), images)
    assert calls == [2, 2, 2]
    assert failures == 1
    assert [row["id"] for row in merged] == ["img0", "img2"]
    assert [len(sets) for sets in per_offset] == [2, 2]
    (record,) = caplog.records
    assert (record.levelname, record.getMessage()) == ("ERROR", "image img1 failed: merge broke")
    assert isinstance(record.exc_info[1], RuntimeError)


# ---------------------------------------------------------------------- CLI


def test_cli_synth_writes_dataset(workspace):
    data = workspace["data"]
    assert (data / "manifest.yaml").is_file()
    assert sorted(p.name for p in (data / "images").iterdir()) == [
        "test_000.pgm", "test_001.pgm", "train_000.pgm", "train_001.pgm",
    ]
    assert len(list((data / "annotations").iterdir())) == 4


def test_cli_run_oracle(workspace, tmp_path, capsys):
    out = tmp_path / "out"
    code = entry(["run", "--config", workspace["config"],
                  "--manifest", workspace["manifest"], "--out", str(out)])
    assert code == 0
    assert "precision" in capsys.readouterr().out
    lines = (out / "evaluation.csv").read_text().splitlines()
    assert lines[0] == "image,tp,fp,fn,precision,recall,f1"
    assert lines[-1].startswith("aggregate,")
    assert sorted(p.name for p in (out / "detections").iterdir()) == [
        "test_000.csv", "test_001.csv",
    ]


def test_cli_run_is_deterministic(workspace, tmp_path):
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert entry(["run", "--config", workspace["config"],
                      "--manifest", workspace["manifest"], "--out", str(out)]) == 0
        outs.append(out)
    for rel in ("evaluation.csv", "detections/test_000.csv", "detections/test_001.csv"):
        assert (outs[0] / rel).read_bytes() == (outs[1] / rel).read_bytes(), rel


def test_cli_run_diagnostics(workspace, tmp_path, capsys):
    out = tmp_path / "diag"
    code = entry(["run", "--config", workspace["config"], "--diagnostics",
                  "--manifest", workspace["manifest"], "--out", str(out)])
    assert code == 0
    files = sorted((out / "diagnostics").iterdir())
    assert [p.name for p in files] == ["test_000_candidates.csv", "test_001_candidates.csv"]
    for path in files:
        header, *rows = path.read_text().splitlines()
        assert header == "offset,patch_x,patch_y,axis,x,y,magnitude,iterations,converged"
        assert rows
        for row in rows:
            offset, px, py, axis, x, y, magnitude, iterations, converged = row.split(",")
            # integers print as integers, never as 0.0, and floats round-trip
            assert (offset, px, py) == ("0", "0", "0")
            assert re.fullmatch(r"[1-6]", axis), row
            assert re.fullmatch(r"0|[1-9][0-9]*", iterations), row
            assert converged in ("0", "1"), row
            for value in (x, y, magnitude):
                assert repr(float(value)) == value, row

    # only the axis route records per-axis solves
    flat = _write_config(tmp_path / "flat.yaml", dict(SMALL, encoder=dict(SMALL["encoder"], scheme=1)))
    out = tmp_path / "flat"
    capsys.readouterr()
    code = entry(["run", "--config", flat, "--diagnostics",
                  "--manifest", workspace["manifest"], "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "encoder.scheme" in err
    assert not out.exists()


def test_diagnostics_rows_match_a_per_axis_recomputation(workspace):
    config = load_config(workspace["config"])
    codec = make_codec(config)
    images = load_split(workspace["manifest"], "test")
    results, failures = run_detection(config, codec, images, collect_diagnostics=True)
    assert failures == 0
    for index, ((_, image, annotations), result) in enumerate(zip(images, results)):
        expected, got = [], []
        patches = extract_patches(image, annotations, 32, (0, 0))
        for patch_index, (patch, record) in enumerate(zip(patches, result["diagnostics"], strict=True)):
            seed = derive_seed(config.run.seed, index, 0, patch_index, SALT_ORACLE)
            y_hat = oracle_predict(encode_patch(codec, patch.cells), config.predictor.sigma_rel, seed)
            diag = {}
            decode_signal(codec, y_hat, config, diagnostics=diag)
            px, py = patch.origin
            assert record["offset"] == 0 and record["origin"] == (px, py)
            iterations, converged = diag["iterations"].tolist(), diag["converged"].tolist()
            for i, signal in enumerate(diag["signals"]):
                ox, oy, dx, dy, nx, ny = codec.layout.geometry[i].tolist()
                bins = np.flatnonzero(signal)
                for r, d in zip((bins + 1).tolist(), signal[bins].tolist()):
                    expected.append((i, ox + r * dx + d * nx + px, oy + r * dy + d * ny + py,
                                     abs(d), iterations[i], converged[i]))
            got.extend(zip(record["vote_axes"].tolist(), *record["votes"].T.tolist(),
                           record["iterations"].tolist(), record["converged"].tolist()))
        assert expected
        assert got == expected


def test_run_detection_rejects_diagnostics_on_scheme1(workspace, tmp_path, monkeypatch):
    # the library refuses up front, instead of returning an empty list per
    # image; the CLI's exit 2 is this ConfigError
    flat = _write_config(tmp_path / "flat.yaml", dict(SMALL, encoder=dict(SMALL["encoder"], scheme=1)))
    config = load_config(flat)
    codec = make_codec(config)
    images = load_split(workspace["manifest"], "test")
    decoded = []
    monkeypatch.setattr("csdetect.pipeline._detect_image", lambda *args: decoded.append(args))
    with pytest.raises(ConfigError, match="encoder.scheme 2, got encoder.scheme 1"):
        run_detection(config, codec, images, collect_diagnostics=True)
    assert decoded == []


def test_cli_ensemble(workspace, tmp_path, capsys):
    out = tmp_path / "ens"
    code = entry(["ensemble", "--config", workspace["config"], "--offsets", "0,16",
                  "--manifest", workspace["manifest"], "--out", str(out)])
    assert code == 0
    assert "merged 2 offsets" in capsys.readouterr().out
    assert (out / "evaluation.csv").is_file()


def test_cli_train_then_run_trained(workspace, tmp_path, capsys):
    model_dir = tmp_path / "model"
    code = entry(["train", "--config", workspace["config"],
                  "--manifest", workspace["manifest"], "--out", str(model_dir)])
    assert code == 0
    assert "trained 3 epochs" in capsys.readouterr().out
    assert (model_dir / "model.bin").is_file()
    log_lines = (model_dir / "training_log.csv").read_text().splitlines()
    assert log_lines[0] == "epoch,loss" and len(log_lines) == 4
    out = tmp_path / "out"
    code = entry(["run", "--config", workspace["config"], "--mode", "trained",
                  "--model", str(model_dir / "model.bin"),
                  "--manifest", workspace["manifest"], "--out", str(out)])
    assert code == 0
    assert (out / "evaluation.csv").is_file()


def test_cli_train_without_the_count_channel(workspace, tmp_path, capsys):
    doc = dict(SMALL, predictor=dict(SMALL["predictor"], mtl_lambda=0))
    cfg = _write_config(tmp_path / "no_count.yaml", doc)
    code = entry(["train", "--config", cfg, "--manifest", workspace["manifest"],
                  "--out", str(tmp_path / "model")])
    assert code == 0
    assert "trained 3 epochs" in capsys.readouterr().out


def test_cli_train_that_diverges_writes_no_output_directory(workspace, tmp_path, capsys):
    doc = dict(SMALL, predictor=dict(SMALL["predictor"], learning_rate=1e6, epochs=20))
    cfg = _write_config(tmp_path / "diverge.yaml", doc)
    out = tmp_path / "model"
    code = entry(["train", "--config", cfg, "--manifest", workspace["manifest"],
                  "--out", str(out)])
    assert code == 2
    assert "training diverged" in capsys.readouterr().err
    assert not out.exists()


def test_cli_train_gives_the_same_model_with_blas_threads_unset(tmp_path, capsys):
    # default layout and net: its matrix products are large enough for a
    # threaded BLAS to split them, which changes the model's last bits
    cfg = _write_config(tmp_path / "c.yaml", {"synth": {"train_images": 3, "test_images": 1},
                                              "predictor": {"epochs": 3, "learning_rate": 0.01}})
    assert entry(["synth", "--config", cfg, "--out", str(tmp_path / "data")]) == 0
    src = str(Path(pipeline.__file__).resolve().parents[1])
    models = []
    for threads in (None, "1"):
        env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        if threads is not None:
            env["OPENBLAS_NUM_THREADS"] = threads
        out = tmp_path / f"model-{threads}"
        proc = subprocess.run(
            [sys.executable, "-m", "csdetect", "train", "--config", cfg,
             "--manifest", str(tmp_path / "data" / "manifest.yaml"), "--out", str(out)],
            env=env, capture_output=True, text=True, timeout=600,
        )
        assert proc.returncode == 0, proc.stderr[-4000:]
        models.append((out / "model.bin").read_bytes())
    assert models[0] == models[1]


def test_cli_ripcheck(workspace, tmp_path, capsys):
    out = tmp_path / "rip"
    code = entry(["ripcheck", "--config", workspace["config"], "--out", str(out),
                  "--trials", "40", "--sparsity", "2", "--delta-bound", "0.99"])
    assert code == 0
    assert "delta_observed" in capsys.readouterr().out
    lines = (out / "rip_report.csv").read_text().splitlines()
    assert lines[0].startswith("rows,cols,sparsity_tested")
    row = lines[1].split(",")
    assert row[0] == "12" and row[3] == "40"


@pytest.mark.parametrize("flag, value", [
    ("--trials", "0"),
    ("--trials", "-5"),
    ("--sparsity", "0"),
    ("--delta-bound", "nan"),
    ("--delta-bound", "-1"),
    ("--delta-bound", "0"),
    ("--delta-bound", "inf"),
])
def test_cli_ripcheck_rejects_a_meaningless_argument(workspace, tmp_path, capsys, flag, value):
    out = tmp_path / "rip"
    assert entry(["ripcheck", "--config", workspace["config"], "--out", str(out),
                  flag, value]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {flag} must be")
    assert "Traceback" not in err
    assert not (out / "rip_report.csv").exists()


def test_cli_exit_codes(workspace, tmp_path, capsys):
    bad_cfg = _write_config(tmp_path / "bad.yaml", {"encoder": {"rows": 9}})
    assert entry(["run", "--config", bad_cfg, "--manifest", workspace["manifest"],
                  "--out", str(tmp_path / "o1")]) == 2
    assert "config error" in capsys.readouterr().err

    assert entry(["run", "--config", workspace["config"], "--mode", "trained",
                  "--manifest", workspace["manifest"], "--out", str(tmp_path / "o2")]) == 2
    assert "needs --model" in capsys.readouterr().err

    assert entry(["run", "--config", workspace["config"],
                  "--manifest", str(tmp_path / "nope.yaml"),
                  "--out", str(tmp_path / "o3")]) == 2
    assert "missing file" in capsys.readouterr().err

    assert entry(["run", "--config", workspace["config"], "--offsets", "0,99",
                  "--manifest", workspace["manifest"], "--out", str(tmp_path / "o4")]) == 2
    assert "offset 99" in capsys.readouterr().err

    for command in ("run", "ensemble"):
        assert entry([command, "--config", workspace["config"], "--offsets", "0,a",
                      "--manifest", workspace["manifest"], "--out", str(tmp_path / "o6")]) == 2
        err = capsys.readouterr().err
        assert "config error: --offsets: 'a' is not an integer" in err
        assert "Traceback" not in err
    assert not (tmp_path / "o6").exists()

    infeasible = _write_config(
        tmp_path / "inf.yaml",
        dict(SMALL, synth=dict(SMALL["synth"], cell_count=[3, 3], min_separation=1000.0)),
    )
    assert entry(["synth", "--config", infeasible, "--out", str(tmp_path / "o5")]) == 2
    assert "could not place" in capsys.readouterr().err


@pytest.mark.parametrize("section, key, value", [
    ("decode", "bandwidth", -1.0),
    ("recovery", "max_iterations", 0),
    ("recovery", "solver", "lp"),
    ("predictor", "sigma_rel", -0.5),
    ("decode", "bandwidth", float("nan")),
    ("decode", "bandwidth", float("inf")),
    ("evaluation", "rho", float("nan")),
    ("predictor", "hidden", 0),
    ("predictor", "input_edge", 0),
    ("predictor", "batch_size", 0),
    ("predictor", "epochs", 0),
    ("synth", "cell_count", [20, 5]),
    ("evaluation", "macro", "false"),
    ("evaluation", "rho", True),
    ("decode", "merge_radius", True),
    ("synth", "blob_radius", [True, 3.5]),
])
def test_cli_bad_stage_value_is_a_config_error(workspace, tmp_path, capsys, section, key, value):
    doc = dict(SMALL, **{section: dict(SMALL[section], **{key: value})})
    bad = _write_config(tmp_path / "bad.yaml", doc)
    out = tmp_path / "out"
    assert entry(["run", "--config", bad, "--manifest", workspace["manifest"],
                  "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and key in err
    assert "Traceback" not in err
    if isinstance(value, str):
        assert repr(value) in err
    assert not out.exists()  # rejected before any image was decoded


@pytest.mark.parametrize("section, key, value", [
    ("encoder", "axes", "x"),
    ("synth", "cell_count", 5),
    ("patches", "offsets", 0),
    ("run", "matrix_seed", "x"),
    ("patches", "size", "x"),
    ("evaluation", "rho", "x"),
    ("decode", "bandwidth", "x"),
    ("synth", "image_width", "x"),
    ("run", "seed", "x"),
])
def test_cli_value_of_the_wrong_type_is_a_config_error(workspace, tmp_path, capsys,
                                                         section, key, value):
    doc = dict(SMALL, **{section: dict(SMALL[section], **{key: value})})
    bad = _write_config(tmp_path / "bad.yaml", doc)
    out = tmp_path / "out"
    assert entry(["run", "--config", bad, "--manifest", workspace["manifest"],
                  "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: section '{section}': ")
    assert key in err
    assert "Traceback" not in err
    assert not out.exists()


def test_cli_negative_seed_is_a_config_error(workspace, tmp_path, capsys):
    out = tmp_path / "out"
    for command in (["run", "--manifest", workspace["manifest"]], ["synth"]):
        assert entry(command + ["--config", workspace["config"], "--seed", "-10000000",
                                "--out", str(out)]) == 2
        assert capsys.readouterr().err == "config error: seed must be >= 0, got -10000000\n"
    for key in ("seed", "matrix_seed"):
        bad = _write_config(tmp_path / "bad.yaml", dict(SMALL, run=dict(SMALL["run"], **{key: -1})))
        assert entry(["run", "--config", bad, "--manifest", workspace["manifest"],
                      "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"config error: section 'run': {key} must be >= 0, got -1\n"
    assert not out.exists()


@pytest.mark.parametrize("section, key, value", [
    ("synth", "train_images", 1.5),
    ("encoder", "axes", 6.5),
    ("predictor", "hidden", 8.5),
    ("patches", "offsets", [0.5]),
    ("run", "seed", True),
])
def test_cli_non_integer_in_an_integer_key_is_a_config_error(tmp_path, capsys, section, key, value):
    doc = dict(SMALL, **{section: dict(SMALL[section], **{key: value})})
    bad = _write_config(tmp_path / "bad.yaml", doc)
    out = tmp_path / "data"
    assert entry(["synth", "--config", bad, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: section '{section}': {key} must be integral")
    assert "Traceback" not in err
    assert not out.exists()


def test_cli_rejects_a_model_for_another_code_layout(workspace, tmp_path, capsys):
    model_dir = tmp_path / "model"
    assert entry(["train", "--config", workspace["config"],
                  "--manifest", workspace["manifest"], "--out", str(model_dir)]) == 0
    capsys.readouterr()
    other = dict(SMALL, encoder=dict(SMALL["encoder"], axes=7, measurements=13))
    cfg = _write_config(tmp_path / "other.yaml", other)
    out = tmp_path / "out"
    model = model_dir / "model.bin"
    assert entry(["run", "--config", cfg, "--mode", "trained", "--model", str(model),
                  "--manifest", workspace["manifest"], "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == (
        f"config error: {model}: the model predicts 6 blocks of 12 measurements, "
        f"the config's codec needs 7 blocks of 13\n"
    )
    assert not out.exists()


def test_cli_rejects_truncated_model(workspace, tmp_path, capsys):
    model = init_model(input_edge=8, hidden=8, block_size=12, block_count=6,
                       mtl_lambda=0.2, seed=0)
    path = tmp_path / "model.bin"
    save_model(model, path)
    whole = path.read_bytes()
    for cut in (whole[:3], whole[: len(whole) // 2 + 3]):
        path.write_bytes(cut)
        assert entry(["run", "--config", workspace["config"], "--mode", "trained",
                      "--model", str(path), "--manifest", workspace["manifest"],
                      "--out", str(tmp_path / "out")]) == 2
        assert f"error: {path}" in capsys.readouterr().err


@pytest.mark.parametrize("header", [b"P5\n260", b"P5\n# no end of line", b"P5 0 0 255\n"])
def test_cli_rejects_bad_pgm_header(workspace, tmp_path, capsys, header):
    data = tmp_path / "data"
    shutil.copytree(workspace["data"], data)
    image = data / "images" / "test_000.pgm"
    image.write_bytes(header)
    out = tmp_path / "out"
    assert entry(["run", "--config", workspace["config"],
                  "--manifest", str(data / "manifest.yaml"), "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith(f"error: {image}: ")
    assert not out.exists()


@pytest.mark.parametrize("width, height", [(40, 36), (32, 20)], ids=["larger", "shorter"])
def test_cli_rejects_pgm_off_the_manifest_grid(workspace, tmp_path, capsys, width, height):
    data = tmp_path / "data"
    shutil.copytree(workspace["data"], data)
    image = data / "images" / "test_001.pgm"
    save_pgm(np.full((height, width), 0.5), image)
    out = tmp_path / "out"
    assert entry(["run", "--config", workspace["config"],
                  "--manifest", str(data / "manifest.yaml"), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {image}: image is {width}x{height}, manifest grid is 32x32\n")
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["ensemble", "--diagnostics", "--manifest", "m.yaml"],
    ["synth", "--mode", "oracle"],
    ["train", "--offsets", "0,16", "--manifest", "m.yaml"],
    ["ripcheck", "--diagnostics"],
    ["run", "--workers", "2", "--manifest", "m.yaml"],  # detection runs in one thread
])
def test_cli_flags_are_scoped_to_their_subcommands(tmp_path, capsys, argv):
    with pytest.raises(SystemExit) as exc:
        entry(argv + ["--config", "c.yaml", "--out", str(tmp_path / "o")])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def _drop_annotations(manifest):
    doc = yaml.safe_load(manifest.read_text())
    del doc["images"][1]["annotations"]
    manifest.write_text(yaml.safe_dump(doc))


def _list_unknown_id(manifest):
    doc = yaml.safe_load(manifest.read_text())
    doc["splits"]["test"].append("test_999")
    manifest.write_text(yaml.safe_dump(doc))


def _repeat_test_000(manifest):
    doc = yaml.safe_load(manifest.read_text())
    doc["images"].append(next(e for e in doc["images"] if e["id"] == "test_000"))
    manifest.write_text(yaml.safe_dump(doc))


def _nest_split_id(manifest):
    doc = yaml.safe_load(manifest.read_text())
    doc["splits"]["test"] = [[image_id] for image_id in doc["splits"]["test"]]
    manifest.write_text(yaml.safe_dump(doc))


@pytest.mark.parametrize(
    "spoil, reason",
    [
        (lambda manifest: manifest.write_text(""), "manifest must be a mapping"),
        (_drop_annotations, "images[1] needs a string 'annotations'"),
        (_nest_split_id, "split 'test' holds non-string image ids [['test_000'], ['test_001']]"),
        (_list_unknown_id, "split 'test' lists image ids ['test_999'] with no entry in 'images'"),
        (_repeat_test_000, "images[4] repeats image id 'test_000'"),
    ],
    ids=["empty", "no-annotations", "list-split-id", "unknown-split-id", "repeated-id"],
)
def test_cli_rejects_bad_manifest(workspace, tmp_path, capsys, spoil, reason):
    data = tmp_path / "data"
    shutil.copytree(workspace["data"], data)
    manifest = data / "manifest.yaml"
    spoil(manifest)
    out = tmp_path / "out"
    assert entry(["run", "--config", workspace["config"],
                  "--manifest", str(manifest), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {manifest}: {reason}")
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize(
    "row, reason",
    [("17.5", "expected 2 fields, got 1"), ("abc,3", "could not convert string to float: 'abc'")],
    ids=["one-field", "not-a-number"],
)
def test_cli_rejects_malformed_annotation_row(workspace, tmp_path, capsys, row, reason):
    data = tmp_path / "data"
    shutil.copytree(workspace["data"], data)
    annotations = data / "annotations" / "test_000.csv"
    annotations.write_text(f"x,y\n10,12\n{row}\n")
    out = tmp_path / "out"
    assert entry(["run", "--config", workspace["config"],
                  "--manifest", str(data / "manifest.yaml"), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {annotations}: line 3: {reason}")
    assert "Traceback" not in err
    assert not out.exists()


def test_cli_image_path_that_is_a_directory(workspace, tmp_path, capsys):
    data = tmp_path / "data"
    shutil.copytree(workspace["data"], data)
    image = data / "images" / "test_000.pgm"
    image.unlink()
    image.mkdir()
    out = tmp_path / "out"
    assert entry(["run", "--config", workspace["config"],
                  "--manifest", str(data / "manifest.yaml"), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("cannot read file: ")
    assert str(image) in err
    assert not out.exists()
