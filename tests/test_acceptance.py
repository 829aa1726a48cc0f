"""Acceptance suite: one test per shipping criterion.

Each test prints a single PASS/FAIL line with the observed numbers so a
plain pytest run doubles as the acceptance report. Observed metrics from
the first green run are the regression baselines for later changes.
"""

import time
from pathlib import Path

import numpy as np
import pytest
import yaml

from csdetect.cli import entry
from csdetect.core import AnnotationSet, DetectionResult, ImageGrid
from csdetect.decoder import DecodeParams, decode_scheme2, merge_ensemble
from csdetect.encoder import (
    axis_signals,
    build_axis_layout,
    encode_scheme1,
    encode_scheme2,
    flatten_annotations,
)
from csdetect.evaluation import MatchReport, aggregate_reports, match_detections, prf1
from csdetect.pipeline import derive_seed
from csdetect.predictor import (
    PredictorParams,
    init_model,
    loss_and_gradients,
    oracle_predict,
    predict,
    train_regressor,
)
from csdetect.recovery import RecoveryParams, bp_recover, omp_recover
from csdetect.sensing import empirical_rip_check, make_sensing_matrix
from csdetect.synthdata import SynthesisParams, generate_image, rotate_augment


def _verdict(number, label, ok, detail):
    line = f"criterion {number} ({label}): {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    assert ok, line


def _sample_cells(rng, grid, count, min_sep=24.0, pad=8.0):
    cells = []
    while len(cells) < count:
        x = rng.uniform(1 + pad, grid.width - pad)
        y = rng.uniform(1 + pad, grid.height - pad)
        if all((x - cx) ** 2 + (y - cy) ** 2 >= min_sep**2 for cx, cy in cells):
            cells.append((x, y))
    return AnnotationSet(grid=grid, cells=tuple(cells))


@pytest.fixture(scope="module")
def axis_channel():
    grid = ImageGrid(260, 260)
    layout = build_axis_layout(grid, 27)
    phi = make_sensing_matrix(112, layout.bin_count, 1234)
    return grid, layout, phi


@pytest.fixture(scope="module")
def noise_sweep(axis_channel):
    """F1 and per-run reconstruction error at three oracle noise levels.

    The noise seed per image is shared across levels, so each run sees the
    same noise direction scaled up and the sweep isolates the amplitude.
    """
    grid, layout, phi = axis_channel
    recovery = RecoveryParams(noise_budget_frac=0.1)
    f1 = {}
    recon = {}
    for sigma in (0.05, 0.10, 0.20):
        reports = []
        errors = []
        for i in range(50):
            rng = np.random.default_rng(4000 + i)
            ann = _sample_cells(rng, grid, int(rng.integers(5, 21)))
            y_hat = oracle_predict(encode_scheme2(ann, layout, phi), sigma, seed=5000 + i)
            diag = {}
            det = decode_scheme2(y_hat, layout, phi, params=DecodeParams(),
                                 recovery=recovery, diagnostics=diag)
            reports.append(match_detections(det, ann, rho=6.0))
            err = 0.0
            f_true = axis_signals(ann, layout)
            for signal, truth in zip(diag["signals"], f_true, strict=True):
                err += float(np.sum((signal - truth) ** 2))
            errors.append(err)
        f1[sigma] = aggregate_reports(reports)[2]
        recon[sigma] = float(np.median(errors))
    return f1, recon


def test_criterion_1_flat_route_exact_round_trip():
    grid = ImageGrid(64, 64)
    phi = make_sensing_matrix(333, 4096, 2201)
    params = RecoveryParams(max_sparsity=10, noise_budget_frac=0.0)
    started = time.perf_counter()
    exact = {"bp": 0, "omp": 0}
    trials = 200
    for trial in range(trials):
        rng = np.random.default_rng(3000 + trial)
        flat = rng.choice(4096, size=10, replace=False)
        cells = tuple((float(i % 64 + 1), float(i // 64 + 1)) for i in flat)
        ann = AnnotationSet(grid=grid, cells=cells)
        truth = flatten_annotations(ann)
        y = encode_scheme1(ann, phi)
        for name, solve in (("bp", bp_recover), ("omp", omp_recover)):
            f_hat = solve(y[0], phi, params)
            if np.array_equal((f_hat >= 0.5).astype(float), truth):
                exact[name] += 1
    elapsed = time.perf_counter() - started
    ok = exact["bp"] >= 0.95 * trials and exact["omp"] >= 0.95 * trials and elapsed < 60
    _verdict(1, "noiseless flat-route round trip", ok,
             f"bp {exact['bp']}/{trials}, omp {exact['omp']}/{trials}, {elapsed:.1f}s")


def test_criterion_2_axis_route_clean_identity(axis_channel):
    grid, layout, phi = axis_channel
    recovery = RecoveryParams(noise_budget_frac=0.1)
    started = time.perf_counter()
    exact = 0
    worst = 0.0
    runs = 50
    for i in range(runs):
        rng = np.random.default_rng(4000 + i)
        ann = _sample_cells(rng, grid, int(rng.integers(5, 21)))
        y = encode_scheme2(ann, layout, phi)
        det = decode_scheme2(y, layout, phi, params=DecodeParams(), recovery=recovery)
        report = match_detections(det, ann, rho=1.5)
        if len(det) == len(ann.cells) and report.tp == len(ann.cells):
            exact += 1
        if report.matches:
            worst = max(worst, max(d for _, _, d in report.matches))
    elapsed = time.perf_counter() - started
    ok = exact == runs and elapsed < 300
    _verdict(2, "noiseless axis-route identity", ok,
             f"{exact}/{runs} runs exact, worst offset {worst:.3f} px, {elapsed:.1f}s")


def test_criterion_3_f1_degrades_monotonically(noise_sweep):
    f1, _ = noise_sweep
    ok = f1[0.05] >= f1[0.10] >= f1[0.20] and f1[0.05] >= 0.9
    _verdict(3, "noise degradation", ok,
             f"F1 {f1[0.05]:.4f} / {f1[0.10]:.4f} / {f1[0.20]:.4f} "
             "at sigma 0.05 / 0.10 / 0.20")


def test_criterion_4_near_isometry():
    phi = make_sensing_matrix(333, 4096, 2201)
    # 1000 unit vectors with 20 nonzeros; |norm - 1| <= 0.6 means the
    # norm ratio stays inside [0.4, 1.6]
    report = empirical_rip_check(phi, sparsity=10, trials=1000, seed=77, delta_bound=0.6)
    ok = report.violation_count == 0 and report.trials == 1000
    _verdict(4, "empirical near-isometry", ok,
             f"delta observed {report.delta_observed:.4f}, "
             f"{report.violation_count}/1000 outside [0.4, 1.6]")


def test_criterion_5_reconstruction_error_monotone(noise_sweep):
    _, recon = noise_sweep
    ok = recon[0.05] <= recon[0.10] <= recon[0.20]
    _verdict(5, "reconstruction error trend", ok,
             f"median squared error {recon[0.05]:.1f} / {recon[0.10]:.1f} / "
             f"{recon[0.20]:.1f} at sigma 0.05 / 0.10 / 0.20")


def _optimal_matching(pred, true, rho):
    # exhaustive search: maximum cardinality, then minimum total distance
    if len(pred) == 0:
        return 0, 0.0
    dists = np.sqrt(((pred[:, None, :] - true[None, :, :]) ** 2).sum(axis=2))
    near = [list(np.nonzero(dists[:, t] < rho)[0]) for t in range(len(true))]
    best = (-1, 0.0)

    def explore(t, used, count, total):
        nonlocal best
        if t == len(true):
            if (count, -total) > best:
                best = (count, -total)
            return
        explore(t + 1, used, count, total)
        for p in near[t]:
            if p not in used:
                explore(t + 1, used | {p}, count + 1, total + dists[p, t])

    explore(0, frozenset(), 0, 0.0)
    return best[0], -best[1]


def test_criterion_6_greedy_matching_is_optimal():
    grid = ImageGrid(100, 100)
    rho = 6.0
    rng = np.random.default_rng(606)
    disagreements = 0
    for _ in range(500):
        # truths are kept 2*rho apart, the regime the matcher is stated for
        truth = _sample_cells(rng, grid, int(rng.integers(1, 9)), min_sep=12.5, pad=5.0)
        true = truth.coords()
        pred = []
        n_hit = int(rng.integers(0, len(true) + 1))
        for t in true[:n_hit]:
            angle = rng.uniform(0, 2 * np.pi)
            pred.append(t + rng.uniform(0.0, 7.0) * np.array([np.cos(angle), np.sin(angle)]))
        for _ in range(int(rng.integers(0, 9 - n_hit))):
            pred.append(rng.uniform(0.0, 100.0, size=2))
        pred = np.array(pred).reshape(len(pred), 2)
        report = match_detections(
            DetectionResult(points=tuple((x, y, 1) for x, y in pred)), truth, rho
        )
        opt_count, opt_total = _optimal_matching(pred, true, rho)
        total = sum(d for _, _, d in report.matches)
        if report.tp != opt_count or abs(total - opt_total) > 1e-9:
            disagreements += 1
    ok = disagreements == 0
    _verdict(6, "greedy matching optimality", ok,
             f"{500 - disagreements}/500 instances agree with exhaustive search")


def test_criterion_7_metric_formulas():
    p, r, f1 = prf1(MatchReport(tp=872, fp=128, fn=211))
    ok = (round(p, 3), round(r, 3), round(f1, 3)) == (0.872, 0.805, 0.837)
    _verdict(7, "metric formulas", ok,
             f"tp=872 fp=128 fn=211 -> P {p:.3f} R {r:.3f} F1 {f1:.3f}")


def test_criterion_8_ensemble_merge_rule():
    seven = [(50.3, 60.1), (49.8, 59.7), (50.1, 60.4), (49.6, 60.2),
             (50.4, 59.9), (50.0, 60.0), (49.9, 60.3)]
    five = [(150.2, 40.1), (149.9, 39.8), (150.0, 40.3), (150.3, 40.0), (149.7, 40.2)]
    sets = []
    for i in range(10):
        points = []
        if i < 7:
            points.append(seven[i])
        if i < 5:
            points.append(five[i])
        if i == 9:
            points.append((200.0, 200.0))
        sets.append(DetectionResult(points=tuple((x, y, 1) for x, y in points)))
    merged = merge_ensemble(sets, 9.0, 6)
    mean = np.mean(np.array(seven), axis=0)
    ok = (
        len(merged) == 1
        and merged.points[0].support == 7
        and abs(merged.points[0].x - mean[0]) <= 1e-12
        and abs(merged.points[0].y - mean[1]) <= 1e-12
    )
    # boundary case: exactly six votes is enough
    six = [DetectionResult(points=((30.0 + 0.1 * i, 30.0, 1),)) for i in range(6)]
    boundary = merge_ensemble(six, 9.0, 6)
    ok = ok and len(boundary) == 1 and boundary.points[0].support == 6
    _verdict(8, "ensemble merge rule", ok,
             "7-vote group merged to its mean, 5-vote group and singleton "
             "discarded, 6-vote group kept")


def test_criterion_9_training_lifts_f1():
    started = time.perf_counter()
    grid = ImageGrid(32, 32)
    layout = build_axis_layout(grid, 6)
    phi = make_sensing_matrix(12, layout.bin_count, 1234)
    synth = SynthesisParams(
        image_width=32,
        image_height=32,
        cell_count=(1, 1),
        blob_radius=(3.5, 3.5),
        intensity=(1.0, 1.0),
        background_noise_sigma=0.005,
        min_separation=12.0,
    )
    patches, codes, counts = [], [], []
    for i in range(500):
        image, ann = generate_image(synth, derive_seed(7, i))
        for pixels, cells in rotate_augment(image, ann):
            patches.append(pixels)
            codes.append(encode_scheme2(cells, layout, phi))
            counts.append(len(cells.cells))
    training = PredictorParams(epochs=5000, learning_rate=0.02, mtl_lambda=0.2, hidden=256,
                               batch_size=32, input_edge=16)
    model, _ = train_regressor(patches, np.stack(codes), counts, training, 99)
    untrained = init_model(16, 256, 12, 6, mtl_lambda=0.2, seed=99)

    recovery = RecoveryParams(solver="omp", max_sparsity=1)
    params = DecodeParams(bandwidth=4.0, min_support=2)
    scores = {}
    for name, net in (("trained", model), ("untrained", untrained)):
        reports = []
        for i in range(40):
            image, ann = generate_image(synth, derive_seed(7, 10_000 + i))
            y_hat = predict(net, image)
            det = decode_scheme2(y_hat, layout, phi, params=params, recovery=recovery)
            reports.append(match_detections(det, ann, rho=6.0))
        scores[name] = aggregate_reports(reports)[2]
    elapsed = time.perf_counter() - started
    ok = (
        scores["trained"] > scores["untrained"]
        and scores["untrained"] <= 0.2
        and scores["trained"] >= 0.5
        and elapsed < 600
    )
    _verdict(9, "training lifts end-to-end F1", ok,
             f"trained F1 {scores['trained']:.3f} vs untrained {scores['untrained']:.3f} "
             f"on 500 training patches, {elapsed:.0f}s")


def test_criterion_10_gradient_correctness():
    rng = np.random.default_rng(1212)
    h = 1e-6
    worst = 0.0
    for _ in range(3):
        w1 = rng.normal(size=(16, 5)) * 0.4
        b1 = rng.normal(size=5) * 0.2
        w2 = rng.normal(size=(5, 7)) * 0.4
        b2 = rng.normal(size=7) * 0.2
        x = rng.normal(size=(4, 16))
        y = rng.normal(size=(4, 7))
        _, grads = loss_and_gradients(w1, b1, w2, b2, x, y)
        for arr, grad in zip((w1, b1, w2, b2), grads):
            flat = arr.ravel()
            numeric = np.empty(flat.size)
            for idx in range(flat.size):
                keep = flat[idx]
                flat[idx] = keep + h
                up = loss_and_gradients(w1, b1, w2, b2, x, y)[0]
                flat[idx] = keep - h
                down = loss_and_gradients(w1, b1, w2, b2, x, y)[0]
                flat[idx] = keep
                numeric[idx] = (up - down) / (2 * h)
            rel = np.linalg.norm(grad.ravel() - numeric) / np.linalg.norm(numeric)
            worst = max(worst, float(rel))
    ok = worst < 1e-4
    _verdict(10, "analytic gradients", ok,
             f"worst relative error {worst:.2e} over 3 probes x 4 parameter blocks")


_CLI_DOC = {
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
    "run": {"seed": 5, "matrix_seed": 11, "workers": 1},
}


def _drive_cli(side: Path, cfg: str) -> list:
    data = side / "data"
    manifest = str(data / "manifest.yaml")
    model_dir = side / "model"
    codes = [
        entry(["synth", "--config", cfg, "--out", str(data)]),
        entry(["train", "--config", cfg, "--manifest", manifest, "--out", str(model_dir)]),
        entry(["run", "--config", cfg, "--manifest", manifest,
               "--out", str(side / "run_oracle"), "--diagnostics"]),
        entry(["run", "--config", cfg, "--manifest", manifest, "--mode", "trained",
               "--model", str(model_dir / "model.bin"), "--out", str(side / "run_trained")]),
        entry(["ensemble", "--config", cfg, "--offsets", "0,16",
               "--manifest", manifest, "--out", str(side / "ensemble")]),
        entry(["ripcheck", "--config", cfg, "--out", str(side / "rip"),
               "--trials", "40", "--sparsity", "2"]),
    ]
    return codes


def test_criterion_11_cli_runs_are_byte_identical(tmp_path):
    cfg = tmp_path / "config.yaml"
    with open(cfg, "w") as fh:
        yaml.safe_dump(_CLI_DOC, fh)
    sides = [tmp_path / "a", tmp_path / "b"]
    codes = [_drive_cli(side, str(cfg)) for side in sides]
    files = sorted(
        p.relative_to(sides[0]) for p in sides[0].rglob("*") if p.is_file()
    )
    mismatched = [
        str(rel) for rel in files
        if (sides[0] / rel).read_bytes() != (sides[1] / rel).read_bytes()
    ]
    ok = (
        codes[0] == codes[1] == [0] * 6
        and len(files) >= 20
        and not mismatched
    )
    _verdict(11, "byte-identical reruns", ok,
             f"6 commands, {len(files)} output files compared, "
             f"{len(mismatched)} mismatched")
