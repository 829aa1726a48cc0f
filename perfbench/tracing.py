"""Spans around csdetect's module boundaries, recorded from outside the package.

A Tracer swaps module attributes for timing wrappers while it is installed.
Each wrapper replaces a function where the *calling* module looks it up
(``csdetect.decoder.bp_recover`` is the name ``decode_scheme2`` resolves),
so the package's own files stay untouched and uninstalling restores the
original objects exactly. Spans live in memory as plain dicts:

    {"id", "parent", "name", "start", "end", "attrs"}

``parent`` is the id of the span that was open when this one started (None
for roots), and a span's layer is the part of its name before the first dot.
"""

from __future__ import annotations

import functools
import importlib
import time
from contextlib import contextmanager


def _recovery_attrs(args, kwargs, result):
    trace = kwargs.get("trace")
    if trace is None:
        return {}
    return {"iterations": trace.iterations, "converged": bool(trace.converged)}


def _votes_attrs(args, kwargs, result):
    return {"votes": len(result)}


def _filter_attrs(args, kwargs, result):
    return {"inputs": len(args[0]), "kept": len(result)}


def _cluster_attrs(args, kwargs, result):
    return {"inputs": len(args[0]), "supports": [support for _, support in result]}


def _merge_attrs(args, kwargs, result):
    return {"pool": sum(len(r.points) for r in args[0]), "merged": len(result.points)}


# (module whose global is replaced, attribute, span name, attrs extractor)
TARGETS = (
    # orchestration glue, looked up by the benchmark and by pipeline itself
    ("pipeline", "generate_dataset", "pipeline.generate_dataset", None),
    ("pipeline", "load_split", "pipeline.load_split", None),
    ("pipeline", "make_codec", "pipeline.make_codec", None),
    ("pipeline", "train_from_manifest", "pipeline.train_from_manifest", None),
    ("pipeline", "build_training_examples", "pipeline.build_training_examples", None),
    ("pipeline", "run_detection", "pipeline.run_detection", None),
    ("pipeline", "ensemble_detection", "pipeline.ensemble_detection", None),
    ("pipeline", "_detect_image", "pipeline.detect_image", None),
    ("pipeline", "decode_signal", "pipeline.decode_signal", None),
    # layers called from pipeline
    ("pipeline", "generate_image", "synthdata.generate_image", None),
    ("pipeline", "extract_patches", "synthdata.extract_patches", None),
    ("pipeline", "make_sensing_matrix", "sensing.make_sensing_matrix", None),
    ("pipeline", "build_axis_layout", "encoder.build_axis_layout", None),
    ("pipeline", "encode_scheme2", "encoder.encode_scheme2", None),
    ("pipeline", "oracle_predict", "predictor.oracle_predict", None),
    ("pipeline", "predict", "predictor.predict", None),
    ("pipeline", "train_regressor", "predictor.train_regressor", None),
    ("pipeline", "decode_scheme2", "decoder.decode_scheme2", None),
    ("pipeline", "merge_ensemble", "decoder.merge_ensemble", _merge_attrs),
    ("pipeline", "match_detections", "evaluation.match_detections", None),
    # layers called from decoder
    ("decoder", "operator_norm_sq", "recovery.operator_norm_sq", None),
    ("decoder", "bp_recover", "recovery.bp_recover", _recovery_attrs),
    ("decoder", "omp_recover", "recovery.omp_recover", _recovery_attrs),
    ("decoder", "backproject_axis", "decoder.backproject_axis", _votes_attrs),
    ("decoder", "filter_noise_candidates", "decoder.filter_noise_candidates", _filter_attrs),
    ("decoder", "meanshift_cluster", "decoder.meanshift_cluster", _cluster_attrs),
    # layers called from predictor
    ("predictor", "loss_and_gradients", "predictor.loss_and_gradients", None),
)


class Tracer:
    """In-memory span recorder; install() wraps TARGETS, uninstall() restores."""

    def __init__(self):
        self.spans = []
        self._open = []  # ids of the spans currently running, innermost last
        self._saved = []

    @contextmanager
    def span(self, name, **attrs):
        record = self._start(name, attrs)
        try:
            yield record
        finally:
            self._finish(record)

    def _start(self, name, attrs):
        record = {
            "id": len(self.spans),
            "parent": self._open[-1] if self._open else None,
            "name": name,
            "start": time.perf_counter(),
            "end": None,
            "attrs": attrs,
        }
        self.spans.append(record)
        self._open.append(record["id"])
        return record

    def _finish(self, record):
        record["end"] = time.perf_counter()
        self._open.pop()

    def _wrap(self, fn, name, extract):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            record = self._start(name, {})
            try:
                result = fn(*args, **kwargs)
            finally:
                self._finish(record)
            if extract is not None:
                record["attrs"] = extract(args, kwargs, result)
            return result

        return wrapper

    def install(self):
        if self._saved:
            raise RuntimeError("tracer already installed")
        for module_name, attr, name, extract in TARGETS:
            module = importlib.import_module(f"csdetect.{module_name}")
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original, name, extract))

    def uninstall(self):
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved = []

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()


def dangling_parents(spans) -> list:
    """Ids of spans whose parent id is not a span of the same trace."""
    ids = {s["id"] for s in spans}
    return [s["id"] for s in spans if s["parent"] is not None and s["parent"] not in ids]


def self_times(spans) -> dict:
    """Span id -> duration minus the time its direct children cover.

    The benchmark is single-threaded, so children of one span never overlap.
    """
    child_time = {}
    for s in spans:
        if s["parent"] is not None:
            child_time[s["parent"]] = child_time.get(s["parent"], 0.0) + s["end"] - s["start"]
    return {s["id"]: s["end"] - s["start"] - child_time.get(s["id"], 0.0) for s in spans}


def descendants(spans, root_ids) -> list:
    """Spans below any of root_ids (roots excluded), in recording order.

    Children are always recorded after their parent, so one forward scan
    over the recording order finds every descendant.
    """
    inside = set(root_ids)
    out = []
    for s in spans:
        if s["parent"] in inside:
            inside.add(s["id"])
            out.append(s)
    return out
