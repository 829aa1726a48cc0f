"""Per-layer metrics from the spans of a traced run.

Units: ``*_ms`` busy times are per patch decode for the decoder stages that
run once per patch (cluster, backproject, filter), per image for the stages
an image pays (merge, encode, oracle, predict, extract, match, pipeline
self time), and per call for recovery solves, training batches, matrix
construction and image synthesis. Counts are per pass: every pass decodes
the same images, so they repeat exactly. Shares are ratios of summed busy
times or of counts.
"""

from __future__ import annotations

import statistics
from collections import defaultdict

import numpy as np

from tracing import descendants, self_times

# name -> unit, in report order
UNITS = {
    "recovery.solve_ms_p50": "ms",
    "recovery.solve_ms_p90": "ms",
    "recovery.solves": "count",
    "recovery.bp_solves": "count",
    "recovery.omp_solves": "count",
    "recovery.iterations_per_solve": "count",
    "recovery.stalled_share": "share",
    "recovery.share": "share",
    "decoder.cluster_ms": "ms",
    "decoder.cluster_share": "share",
    "decoder.cluster_inputs": "count",
    "decoder.clusters": "count",
    "decoder.clusters_below_support": "count",
    "decoder.backproject_ms": "ms",
    "decoder.votes": "count",
    "decoder.filter_ms": "ms",
    "decoder.kept_share": "share",
    "decoder.merge_ms": "ms",
    "decoder.merge_share": "share",
    "decoder.merge_pool": "count",
    "encoder.encode_ms": "ms",
    "predictor.oracle_ms": "ms",
    "predictor.predict_ms": "ms",
    "predictor.train_batch_ms": "ms",
    "predictor.train_batches": "count",
    "synthdata.extract_ms": "ms",
    "synthdata.generate_ms": "ms",
    "sensing.matrix_ms": "ms",
    "evaluation.match_ms": "ms",
    "pipeline.self_ms": "ms",
    "trace.images_per_s": "1/s",
    "trace.overhead_share": "share",
    "f1": "share",
    "failed_share": "share",
    "train_s": "s",
    "decode_ms_p90": "ms",
    "decode.samples": "count",
}

# counts that must repeat exactly from pass to pass (and run to run)
REPEATED_COUNTS = (
    "recovery.solves",
    "recovery.iterations",
    "decoder.votes",
    "decoder.cluster_inputs",
    "decoder.clusters",
)


def _duration(span):
    return span["end"] - span["start"]


def _busy(spans):
    return sum(_duration(s) for s in spans)


def _ratio(num, den):
    return num / den if den else 0.0


def _pass_counts(spans, min_support):
    by = defaultdict(list)
    for s in spans:
        by[s["name"]].append(s)
    solves = by["recovery.bp_recover"] + by["recovery.omp_recover"]
    supports = [x for s in by["decoder.meanshift_cluster"] for x in s["attrs"]["supports"]]
    return {
        "images": len(by["bench.image"]),
        "patches": len(by["pipeline.decode_signal"]),
        "recovery.solves": len(solves),
        "recovery.bp_solves": len(by["recovery.bp_recover"]),
        "recovery.omp_solves": len(by["recovery.omp_recover"]),
        "recovery.iterations": sum(s["attrs"]["iterations"] for s in solves),
        "recovery.stalled": sum(1 for s in solves if not s["attrs"]["converged"]),
        "decoder.votes": sum(s["attrs"]["votes"] for s in by["decoder.backproject_axis"]),
        "decoder.filter_inputs": sum(s["attrs"]["inputs"] for s in by["decoder.filter_noise_candidates"]),
        "decoder.kept": sum(s["attrs"]["kept"] for s in by["decoder.filter_noise_candidates"]),
        "decoder.cluster_inputs": sum(s["attrs"]["inputs"] for s in by["decoder.meanshift_cluster"]),
        "decoder.clusters": len(supports),
        "decoder.clusters_below_support": sum(1 for x in supports if x < min_support),
        "decoder.merge_pool": sum(s["attrs"]["pool"] for s in by["decoder.merge_ensemble"]),
    }


def metrics(spans, passes, min_support, extras):
    """(metrics {name: (value, unit)}, problems) from a traced run.

    `passes` is the run's list of run.Pass; `extras` holds the
    values measured outside the spans (f1, failed_share, train_s, the
    untraced decode percentiles).
    """
    roots = [s for s in spans if s["name"] == "bench.pass"]
    per_pass = [_pass_counts(descendants(spans, [r["id"]]), min_support) for r in roots]
    problems = [
        f"traced pass {i} counts {c} differ from pass 0 {per_pass[0]}"
        for i, c in enumerate(per_pass)
        if any(c[k] != per_pass[0][k] for k in REPEATED_COUNTS)
    ]
    counts = per_pass[0]
    inner = descendants(spans, [r["id"] for r in roots])
    by = defaultdict(list)
    for s in inner:
        by[s["name"]].append(s)
    selfs = self_times(spans)

    images = sum(c["images"] for c in per_pass)
    patches = sum(c["patches"] for c in per_pass)
    # mean time per image over the traced and over the untraced passes
    traced_s = statistics.fmean(t for p in passes if p.traced for t in p.image_s)
    plain_s = statistics.fmean(t for p in passes if not p.traced for t in p.image_s)
    solve_ms = [1000.0 * _duration(s) for s in by["recovery.bp_recover"] + by["recovery.omp_recover"]]
    decode_busy = _busy(by["pipeline.decode_signal"])
    recovery_busy = _busy(
        by["recovery.bp_recover"] + by["recovery.omp_recover"] + by["recovery.operator_norm_sq"]
    )
    cluster_busy = _busy(by["decoder.meanshift_cluster"])
    image_busy = _busy(by["bench.image"])
    pipeline_self = sum(selfs[s["id"]] for s in inner if s["name"].startswith("pipeline."))

    def per_patch(name):
        return 1000.0 * _ratio(_busy(by[name]), patches)

    def per_image(name):
        return 1000.0 * _ratio(_busy(by[name]), images)

    setup = descendants(spans, [s["id"] for s in spans if s["name"] == "bench.setup"])
    train = descendants(spans, [s["id"] for s in spans if s["name"] == "bench.train"])
    batches = [1000.0 * _duration(s) for s in train if s["name"] == "predictor.loss_and_gradients"]
    matrix_ms = [1000.0 * _duration(s) for s in setup if s["name"] == "sensing.make_sensing_matrix"]
    generate_ms = [1000.0 * _duration(s) for s in setup if s["name"] == "synthdata.generate_image"]

    values = {
        "recovery.solve_ms_p50": float(np.percentile(solve_ms, 50)) if solve_ms else 0.0,
        "recovery.solve_ms_p90": float(np.percentile(solve_ms, 90)) if solve_ms else 0.0,
        "recovery.solves": counts["recovery.solves"],
        "recovery.bp_solves": counts["recovery.bp_solves"],
        "recovery.omp_solves": counts["recovery.omp_solves"],
        "recovery.iterations_per_solve": _ratio(counts["recovery.iterations"], counts["recovery.solves"]),
        "recovery.stalled_share": _ratio(counts["recovery.stalled"], counts["recovery.solves"]),
        "recovery.share": _ratio(recovery_busy, decode_busy),
        "decoder.cluster_ms": per_patch("decoder.meanshift_cluster"),
        "decoder.cluster_share": _ratio(cluster_busy, decode_busy),
        "decoder.cluster_inputs": counts["decoder.cluster_inputs"],
        "decoder.clusters": counts["decoder.clusters"],
        "decoder.clusters_below_support": counts["decoder.clusters_below_support"],
        "decoder.backproject_ms": per_patch("decoder.backproject_axis"),
        "decoder.votes": counts["decoder.votes"],
        "decoder.filter_ms": per_patch("decoder.filter_noise_candidates"),
        "decoder.kept_share": _ratio(counts["decoder.kept"], counts["decoder.filter_inputs"]),
        "decoder.merge_ms": per_image("decoder.merge_ensemble"),
        "decoder.merge_share": _ratio(_busy(by["decoder.merge_ensemble"]), image_busy),
        "decoder.merge_pool": counts["decoder.merge_pool"],
        "encoder.encode_ms": per_image("encoder.encode_scheme2"),
        "predictor.oracle_ms": per_image("predictor.oracle_predict"),
        "predictor.predict_ms": per_image("predictor.predict"),
        "predictor.train_batch_ms": statistics.median(batches) if batches else 0.0,
        "predictor.train_batches": len(batches),
        "synthdata.extract_ms": per_image("synthdata.extract_patches"),
        "synthdata.generate_ms": statistics.fmean(generate_ms) if generate_ms else 0.0,
        "sensing.matrix_ms": statistics.median(matrix_ms) if matrix_ms else 0.0,
        "evaluation.match_ms": per_image("evaluation.match_detections"),
        "pipeline.self_ms": 1000.0 * _ratio(pipeline_self, images),
        "trace.images_per_s": _ratio(1.0, traced_s),
        "trace.overhead_share": _ratio(traced_s, plain_s) - 1.0,
    }
    values.update({name: value for name, (value, _) in extras.items()})
    return {name: (values[name], unit) for name, unit in UNITS.items()}, problems
