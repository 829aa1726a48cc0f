"""Scoring: rho-radius matching, P/R/F1, CSV reports."""

import itertools

import numpy as np
import pytest

from csdetect.core import AnnotationSet, DetectionResult, ImageGrid
from csdetect.evaluation import (
    MatchReport,
    aggregate_reports,
    match_detections,
    prf1,
    write_evaluation_csv,
)

GRID = ImageGrid(100, 100)


def _truth(cells):
    return AnnotationSet(grid=GRID, cells=tuple(cells))


def _brute_force_tp(pred, true, rho):
    # largest one-to-one matching with all pair distances < rho
    pred = np.asarray(pred, dtype=float)
    true = np.asarray(true, dtype=float)
    best = 0
    n = min(len(pred), len(true))
    for size in range(n, 0, -1):
        for p_idx in itertools.permutations(range(len(pred)), size):
            for t_idx in itertools.combinations(range(len(true)), size):
                if all(
                    np.linalg.norm(pred[p] - true[t]) < rho
                    for p, t in zip(p_idx, t_idx)
                ):
                    return size
        if best:
            break
    return best


def test_report_validation():
    with pytest.raises(ValueError):
        MatchReport(tp=-1, fp=0, fn=0)
    with pytest.raises(ValueError, match="matches"):
        MatchReport(tp=2, fp=0, fn=0, matches=((0, 0, 0.1),))
    report = MatchReport(tp=1, fp=0, fn=0, matches=[(0, 0, 0.1)])
    assert isinstance(report.matches, tuple)


def test_match_identity():
    cells = [(10.0, 10.0), (50.0, 60.0), (90.0, 20.0)]
    preds = DetectionResult(points=tuple((x, y, 1) for x, y in cells))
    report = match_detections(preds, _truth(cells), rho=1.5)
    assert (report.tp, report.fp, report.fn) == (3, 0, 0)
    assert all(d == 0.0 for _, _, d in report.matches)


def test_match_empty_sides():
    truth = _truth([(10.0, 10.0)])
    none = DetectionResult()
    report = match_detections(none, truth, rho=2.0)
    assert (report.tp, report.fp, report.fn) == (0, 0, 1)
    preds = DetectionResult(points=((5.0, 5.0, 1),))
    empty_truth = _truth([])
    report = match_detections(preds, empty_truth, rho=2.0)
    assert (report.tp, report.fp, report.fn) == (0, 1, 0)
    with pytest.raises(ValueError):
        match_detections(preds, truth, rho=0.0)


def test_match_radius_is_strict():
    truth = _truth([(10.0, 10.0)])
    at_rho = DetectionResult(points=((11.5, 10.0, 1),))
    assert match_detections(at_rho, truth, rho=1.5).tp == 0
    inside = DetectionResult(points=((11.4999, 10.0, 1),))
    assert match_detections(inside, truth, rho=1.5).tp == 1


def test_match_one_to_one_keeps_nearest():
    # two predictions near one truth: only the closer one may match
    truth = _truth([(20.0, 20.0)])
    preds = DetectionResult(points=((20.2, 20.0, 1), (20.9, 20.0, 1)))
    report = match_detections(preds, truth, rho=1.5)
    assert (report.tp, report.fp, report.fn) == (1, 1, 0)
    assert report.matches[0][:2] == (0, 0)


def test_match_agrees_with_brute_force_on_random_clutter():
    rng = np.random.default_rng(11)
    rho = 2.0
    for _ in range(50):
        true = rng.uniform(5, 95, size=(rng.integers(1, 5), 2))
        pred = rng.uniform(5, 95, size=(rng.integers(0, 6), 2))
        report = match_detections(
            DetectionResult(points=tuple((x, y, 1) for x, y in pred)),
            _truth([tuple(c) for c in true]),
            rho,
        )
        assert report.tp <= _brute_force_tp(pred, true, rho) if len(pred) else report.tp == 0


def test_prf1_values():
    assert prf1(MatchReport(tp=0, fp=0, fn=0)) == (0.0, 0.0, 0.0)
    assert prf1(MatchReport(tp=5, fp=0, fn=0)) == (1.0, 1.0, 1.0)
    p, r, f = prf1(MatchReport(tp=3, fp=1, fn=2))
    assert p == pytest.approx(0.75)
    assert r == pytest.approx(0.6)
    assert f == pytest.approx(2 * 0.75 * 0.6 / 1.35)


def test_aggregate_micro_vs_macro():
    reports = [MatchReport(tp=9, fp=1, fn=0), MatchReport(tp=1, fp=0, fn=9)]
    micro = aggregate_reports(reports)
    assert micro[0] == pytest.approx(10 / 11)
    assert micro[1] == pytest.approx(10 / 19)
    macro = aggregate_reports(reports, macro=True)
    assert macro[0] == pytest.approx((0.9 + 1.0) / 2)
    assert macro[1] == pytest.approx((1.0 + 0.1) / 2)
    assert aggregate_reports([]) == (0.0, 0.0, 0.0)


def test_evaluation_csv(tmp_path):
    rows = [
        ("img_000", MatchReport(tp=3, fp=1, fn=0)),
        ("img_001", MatchReport(tp=1, fp=0, fn=1)),
    ]
    path = tmp_path / "eval.csv"
    write_evaluation_csv(rows, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "image,tp,fp,fn,precision,recall,f1"
    assert lines[1].startswith("img_000,3,1,0,0.75,1.0,")
    agg = lines[-1].split(",")
    assert agg[0] == "aggregate"
    assert agg[1:4] == ["4", "1", "1"]
    assert float(agg[4]) == pytest.approx(0.8)
    assert float(agg[5]) == pytest.approx(0.8)
