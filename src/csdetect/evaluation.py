"""Point-detection scoring: rho-radius matching and P/R/F1.

A prediction is a true positive when it is matched one-to-one to a ground
truth centroid closer than rho. Matching is greedy over pairs in ascending
distance order, which is optimal whenever truths are at least 2*rho apart
(every prediction then has at most one truth in range); leftover
predictions are false positives, leftover truths false negatives.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import AnnotationSet, DetectionResult, write_csv

__all__ = [
    "MatchReport",
    "match_detections",
    "prf1",
    "aggregate_reports",
    "write_evaluation_csv",
]


@dataclass(frozen=True)
class MatchReport:
    """TP/FP/FN counts plus, when available, the individual matches as
    (prediction index, truth index, distance) triples."""

    tp: int
    fp: int
    fn: int
    matches: tuple | None = None

    def __post_init__(self):
        if min(self.tp, self.fp, self.fn) < 0:
            raise ValueError("counts must be >= 0")
        if self.matches is not None:
            object.__setattr__(self, "matches", tuple(self.matches))
            if len(self.matches) != self.tp:
                raise ValueError("tp must equal the number of matches")


def match_detections(predictions: DetectionResult, truth: AnnotationSet, rho: float) -> MatchReport:
    """Greedy one-to-one matching by ascending distance below rho."""
    if rho <= 0:
        raise ValueError("rho must be > 0")
    pred = predictions.coords()
    true = truth.coords()
    if pred.shape[0] == 0 or true.shape[0] == 0:
        return MatchReport(tp=0, fp=pred.shape[0], fn=true.shape[0], matches=())

    dists = np.sqrt(
        np.sum((pred[:, None, :] - true[None, :, :]) ** 2, axis=2)
    )
    pi, ti = np.nonzero(dists < rho)
    order = sorted(zip(dists[pi, ti], pi, ti))
    pred_used = np.zeros(pred.shape[0], dtype=bool)
    true_used = np.zeros(true.shape[0], dtype=bool)
    matches = []
    for d, p, t in order:
        if not pred_used[p] and not true_used[t]:
            pred_used[p] = True
            true_used[t] = True
            matches.append((int(p), int(t), float(d)))
    tp = len(matches)
    return MatchReport(
        tp=tp,
        fp=pred.shape[0] - tp,
        fn=true.shape[0] - tp,
        matches=tuple(matches),
    )


def prf1(report: MatchReport) -> tuple:
    """(precision, recall, F1); a zero denominator yields 0."""
    tp, fp, fn = report.tp, report.fp, report.fn
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    return precision, recall, f1


def aggregate_reports(reports, macro: bool = False) -> tuple:
    """Dataset-level (precision, recall, F1).

    Micro (default): sum the counts, then apply the formulas. Macro:
    average the per-report rates.
    """
    reports = list(reports)
    if not reports:
        return 0.0, 0.0, 0.0
    if macro:
        rates = np.array([prf1(r) for r in reports])
        p, r, f = rates.mean(axis=0)
        return float(p), float(r), float(f)
    total = MatchReport(
        tp=sum(r.tp for r in reports),
        fp=sum(r.fp for r in reports),
        fn=sum(r.fn for r in reports),
    )
    return prf1(total)


def write_evaluation_csv(rows, path, macro: bool = False) -> tuple:
    """Per-image metric rows plus a trailing aggregate row.

    `rows` is a list of (image id, MatchReport). Returns the aggregate
    (precision, recall, F1), the last row's rates.
    """
    table = [
        (image_id, report.tp, report.fp, report.fn, *prf1(report)) for image_id, report in rows
    ]
    reports = [report for _, report in rows]
    aggregate = aggregate_reports(reports, macro=macro)
    tp = sum(report.tp for report in reports)
    fp = sum(report.fp for report in reports)
    fn = sum(report.fn for report in reports)
    table.append(("aggregate", tp, fp, fn, *aggregate))
    write_csv(path, ["image", "tp", "fp", "fn", "precision", "recall", "f1"], table)
    return aggregate
