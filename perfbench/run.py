"""csdetect benchmark: one workload, one seed, one timed run.

    python3 perfbench/run.py --workload oracle-bp --seed 1 --seconds 35 --trace 0

Run from anywhere inside a source checkout; the package is imported from
the checkout's ``src/``, never from an installed copy. The run is one
process with ``run.workers = 1`` and BLAS pinned to BLAS_THREADS threads.
It

1. sets up SETUP_REPEATS times (synthesize and load the pass's images,
   ``make_codec``, on trained-bp the training split, and one warm-up
   ``run_detection``) and reports the median as ``setup_s``;
2. on trained-bp, attempts one training at the shipped predictor settings
   (it diverges at the seed code; counted in ``failed_share``) and then
   trains the model it decodes with at TRAINED_LEARNING_RATE;
3. runs whole passes over the workload's images, in the seed's order, as
   many as bring the image time spent closest to ``--seconds`` (at least
   one), checking every image's tp/fp/fn and failure count against
   references.json;
4. prints one ``metric`` line per metric and an ``env`` line, writes the
   full record (with spans when traced) to ``.perfbench_out/``, and prints
   the JSON result as its last line. ``--trace 0`` reports the end-to-end
   metrics of BENCHMARK.json; ``--trace 1`` repeats the first round of the
   pass (one image per cell count), alternating traced and untraced
   passes, and reports the per-layer metrics.

The end-to-end times are in reference seconds (calibration.py): a fixed
kernel runs every 0.1 s of the timed sections, its time is cut out, and
each stretch of wall time is divided by the host's slowdown measured around
it. Wall-time versions are printed on ``metric`` lines too.

Exit code 0 when every check passed, 1 on a correctness mismatch or when
the checkout holds no csdetect sources (then without a result line).
"""

from __future__ import annotations

import argparse
import ctypes
import json
import logging
import os
import platform
import resource
import statistics
import sys
import tempfile
import time
from collections import Counter
from contextlib import contextmanager, nullcontext
from dataclasses import asdict, dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
BLAS_THREADS = 1  # at most nproc; one thread keeps float results and timings repeatable
SETUP_REPEATS = 5
P90_MIN_SAMPLES = 100  # a p90 needs at least ten samples above it
MIN_PASSES = 2  # a traced run alternates traced and untraced passes


@dataclass
class Pass:
    """One pass over the run's images."""

    traced: bool
    image_at: list = field(default_factory=list)  # (start, end) perf_counter of each image, in pass order
    decode_at: list = field(default_factory=list)  # (start, end) of each patch decode, untraced passes
    outcomes: list = field(default_factory=list)  # (tp, fp, fn, failures) per image
    # filled in after the run: wall seconds with kernel runs cut out, and
    # reference seconds (untraced passes; traced passes run no kernel)
    image_s: list = field(default_factory=list)
    image_ref_s: list = field(default_factory=list)
    decode_ref_ms: list = field(default_factory=list)


def prepare() -> None:
    """Pin BLAS threads and import csdetect from this checkout; must run
    before numpy or csdetect is imported."""
    if not (SRC / "csdetect" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no csdetect sources under {SRC}")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, str(SRC))
    import csdetect

    if not Path(csdetect.__file__).resolve().is_relative_to(SRC.resolve()):
        raise SystemExit(f"perfbench: csdetect imported from {csdetect.__file__}, not {SRC}")


def blas_threads_in_force():
    """Thread count OpenBLAS reports, or None when numpy uses another BLAS."""
    import numpy

    libs = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            fn = getattr(handle, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


class LogCounter(logging.Handler):
    """Counts csdetect log records by level instead of printing them (every
    OMP patch logs a stall warning); errors, such as the traceback of a
    failed image, still go to stderr."""

    def __init__(self):
        super().__init__(logging.INFO)
        self.counts = Counter()
        self.setFormatter(logging.Formatter("csdetect %(levelname)s: %(message)s"))

    def emit(self, record):
        self.counts[record.levelname] += 1
        if record.levelno >= logging.ERROR:
            sys.stderr.write(self.format(record) + "\n")


@contextmanager
def timing(module, attr, intervals):
    """Append (start, end) perf_counter times of every call to module.attr to intervals."""
    original = getattr(module, attr)

    def timed(*args, **kwargs):
        start = time.perf_counter()
        try:
            return original(*args, **kwargs)
        finally:
            intervals.append((start, time.perf_counter()))

    setattr(module, attr, timed)
    try:
        yield
    finally:
        setattr(module, attr, original)


def percentile(values, q):
    import numpy as np

    return float(np.percentile(values, q)) if len(values) else 0.0


def run(workload_name, seed, seconds, trace, image_limit=None):
    """Returns (report dict, list of correctness problems)."""
    import numpy as np

    from csdetect import pipeline
    from csdetect.decoder import DecodeParams
    from csdetect.evaluation import MatchReport, prf1
    import layers
    from calibration import REFERENCE_S, Calibrator, kernel
    from tracing import Tracer
    from workloads import TRAINED_LEARNING_RATE, WORKLOADS, detect, load_pool_image, load_references, reference_key

    wl = WORKLOADS[workload_name]
    keys = wl.pick(seed)
    if trace:  # the first round, one image per cell count
        keys = keys[: len(wl.cell_counts)]
    keys = keys[:image_limit]
    references = load_references()[wl.name]
    problems = []
    tracer = Tracer()
    cal = Calibrator()
    kernel()  # the first call pays numpy's one-time costs; not a sample

    @contextmanager
    def traced(name, on, **attrs):
        """Span `name` with the layer wrappers installed, when `on`."""
        if not on:
            yield
            return
        with tracer.installed(), tracer.span(name, **attrs):
            yield

    logs = LogCounter()
    csd_log = logging.getLogger("csdetect")
    csd_log.addHandler(logs)
    csd_log.setLevel(logging.INFO)
    csd_log.propagate = False

    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
        # set-up, repeated; the last repeat's images and codec are used.
        # Untraced runs calibrate it; traced runs report no setup_s.
        setup_at = []
        for rep in range(SETUP_REPEATS):
            rep_dir = Path(tmp) / f"setup{rep}"
            if not trace:
                cal.sample()
            with traced("bench.setup", trace, repeat=rep), nullcontext() if trace else cal.running():
                start = time.perf_counter()
                items = [load_pool_image(wl, key, rep_dir) for key in keys]
                codec = pipeline.make_codec(wl.config)
                if wl.trained:
                    train_cfg = wl.training_config()
                    train_manifest = rep_dir / "train" / "manifest.yaml"
                    pipeline.generate_dataset(train_cfg, train_manifest.parent)
                # the same warm-up image for every seed
                warm_cfg, warm_image = dict(zip(keys, items)).get(wl.pool()[0], items[0])
                pipeline.run_detection(warm_cfg, codec, [warm_image])
                setup_at.append((start, time.perf_counter()))

        # training: the shipped-settings attempt, then the model decoded with
        model = None
        train_s = 0.0
        shipped_training = None
        trainings = failed_trainings = 0
        if wl.trained:
            with traced("bench.train_shipped", trace), np.errstate(over="ignore", invalid="ignore"):
                try:
                    pipeline.train_from_manifest(train_cfg, train_manifest, codec)
                    shipped_training = "succeeded"
                except ValueError as exc:
                    shipped_training = f"diverged: {exc}"
            lr_cfg = wl.training_config(TRAINED_LEARNING_RATE)
            trainings = 1
            with traced("bench.train", trace):
                start = time.perf_counter()
                try:
                    model, _ = pipeline.train_from_manifest(lr_cfg, train_manifest, codec)
                except ValueError as exc:
                    failed_trainings = 1
                    problems.append(f"training at learning_rate {TRAINED_LEARNING_RATE} failed: {exc}")
                train_s = time.perf_counter() - start

        # timed passes, whole ones only; in a traced run every other pass is
        # untraced. Untraced passes are calibrated, traced ones are not.
        passes = []
        spent = 0.0
        while model is not None or not wl.trained:
            this = Pass(traced=trace and len(passes) % 2 == 0)
            with traced("bench.pass", this.traced, index=len(passes)), (
                nullcontext() if this.traced else cal.running()
            ), (
                nullcontext() if this.traced else timing(pipeline, "decode_signal", this.decode_at)
            ):
                for (cfg, image), key in zip(items, keys):
                    with tracer.span("bench.image", key=reference_key(key)) if this.traced else nullcontext():
                        start = time.perf_counter()
                        this.outcomes.append(detect(wl, cfg, codec, image, model))
                        this.image_at.append((start, time.perf_counter()))
                    spent += this.image_at[-1][1] - start
            passes.append(this)
            for key, outcome in zip(keys, this.outcomes):
                expected = references.get(reference_key(key))
                if expected is None or list(outcome) != expected:
                    problems.append(
                        f"pass {len(passes) - 1} image {reference_key(key)}: "
                        f"tp/fp/fn/failures {list(outcome)}, reference {expected}"
                    )
            if not trace and spent + spent / len(passes) / 2 >= seconds:
                break
            if (
                trace
                and len(passes) >= MIN_PASSES
                and len(passes) % 2 == 0  # as many traced as untraced
                and spent * (len(passes) + 1) / len(passes) > seconds
            ):
                break
        cal.sample()  # a last sample after the last timed stretch
    csd_log.removeHandler(logs)

    # report
    for p in passes:
        for start, end in p.image_at:
            wall, ref = (end - start, None) if p.traced else cal.measure(start, end)
            p.image_s.append(wall)
            if ref is not None:
                p.image_ref_s.append(ref)
        p.decode_ref_ms = [1000.0 * cal.measure(start, end)[1] for start, end in p.decode_at]
    setup_times = [cal.measure(start, end)[1] if not trace else end - start for start, end in setup_at]
    plain = [p for p in passes if not p.traced]
    attempted = sum(len(p.outcomes) for p in passes) + trainings
    failed = sum(o[3] for p in passes for o in p.outcomes) + failed_trainings
    # f1 and failed_share over the first pass (passes repeat exactly) plus
    # the trainings, the shipped-settings attempt included
    one_pass = passes[0].outcomes if passes else []
    shipped_failed = int(shipped_training is not None and shipped_training != "succeeded")
    share_failed = sum(o[3] for o in one_pass) + failed_trainings + shipped_failed
    share_attempted = len(one_pass) + trainings + int(shipped_training is not None)
    f1 = prf1(MatchReport(
        tp=sum(o[0] for o in one_pass), fp=sum(o[1] for o in one_pass), fn=sum(o[2] for o in one_pass)
    ))[2]
    # timings are over every image and patch decode of the untraced passes
    plain_images = sum(len(p.image_s) for p in plain)
    plain_ref_s = sum(sum(p.image_ref_s) for p in plain)
    plain_wall_s = sum(sum(p.image_s) for p in plain)
    decode_ms = [ms for p in plain for ms in p.decode_ref_ms]
    decode_wall_ms = [
        1000.0 * cal.measure(start, end)[0] for p in plain for start, end in p.decode_at
    ]
    extras = {
        "f1": (f1, "share"),
        "failed_share": (share_failed / share_attempted if share_attempted else 0.0, "share"),
        "train_s": (train_s, "s"),
        "decode_ms_p90": (
            percentile(decode_ms, 90) if len(decode_ms) >= P90_MIN_SAMPLES else 0.0, "ms"
        ),
        "decode.samples": (len(decode_ms), "count"),
        "images_per_s_wall": (plain_images / plain_wall_s if plain_wall_s else 0.0, "1/s"),
        "decode_ms_p50_wall": (percentile(decode_wall_ms, 50), "ms"),
        "host_slowdown": (cal.median_slowdown() if cal.gaps else 0.0, "ratio"),
    }
    if trace and not passes:  # the training decoded with failed
        metrics = {name: (0.0, unit) for name, unit in layers.UNITS.items()}
        metrics.update(extras)
    elif trace:
        min_support = DecodeParams(min_support=wl.config.decode.min_support).resolved(codec.layout).min_support
        metrics, count_problems = layers.metrics(tracer.spans, passes, min_support, extras)
        problems.extend(count_problems)
    else:
        metrics = {
            "setup_s": (statistics.median(setup_times), "s"),
            "images_per_s": (plain_images / plain_ref_s if plain_ref_s else 0.0, "1/s"),
            "decode_ms_p50": (percentile(decode_ms, 50), "ms"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
    env = {
        "workload": wl.name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "nproc": os.cpu_count(),
        "blas_threads_requested": BLAS_THREADS,
        "blas_threads_in_force": blas_threads_in_force(),
        "run_workers": wl.config.run.workers,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
        "images_per_pass": len(keys),
        "images_timed": sum(len(p.image_s) for p in passes),
        "passes": len(passes),
        "traced_passes": sum(1 for p in passes if p.traced),
        "csdetect_log_records": dict(logs.counts),
        "shipped_training": shipped_training,
        "decode_learning_rate": TRAINED_LEARNING_RATE if wl.trained else None,
        "calibration_reference_s": REFERENCE_S,
        "calibration_samples": len(cal.gaps),
    }
    report = {
        "env": env,
        "metrics": metrics,
        "extras": extras,
        "attempted": attempted,
        "failed": failed,
        "setup_s": setup_times,
        "calibration": cal.gaps,
        "passes": [asdict(p) for p in passes],
        "spans": tracer.spans if trace else None,
    }
    return report, problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--images", type=int, default=None,
                        help="time only the first N images of each pass (self-test size)")
    args = parser.parse_args(argv)
    prepare()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    report, problems = run(args.workload, args.seed, args.seconds, bool(args.trace), args.images)

    OUT_DIR.mkdir(exist_ok=True)
    record = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record.write_text(json.dumps({**report, "problems": problems}))
    for problem in problems:
        print(f"perfbench: MISMATCH {problem}", file=sys.stderr)
    for name, (value, unit) in {**report["metrics"], **report["extras"]}.items():
        print(f"metric {name} {value!r} {unit}")
    print("env " + json.dumps(report["env"], sort_keys=True))
    print(json.dumps({
        "correct": not problems,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in report["metrics"].items()},
    }))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
