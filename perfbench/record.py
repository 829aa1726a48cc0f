"""Record the reference outcome (tp, fp, fn, failures) of every pool image.

    python3 perfbench/record.py [workload ...]

Rewrites the named workloads' entries of references.json (all workloads by
default) and keeps the others. Run it only at a commit whose detections
are the accepted ones; the benchmark fails any run that disagrees.
"""

from __future__ import annotations

import json
import logging
import sys
import tempfile
from pathlib import Path

import run


def main(names) -> int:
    run.prepare()
    from csdetect import pipeline
    from workloads import (
        REFERENCES,
        TRAINED_LEARNING_RATE,
        WORKLOADS,
        detect,
        load_pool_image,
        reference_key,
    )

    logging.getLogger("csdetect").addHandler(run.LogCounter())
    logging.getLogger("csdetect").propagate = False
    for name in names or sorted(WORKLOADS):
        wl = WORKLOADS[name]
        codec = pipeline.make_codec(wl.config)
        outcomes = {}
        with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=run.ROOT) as tmp:
            model = None
            if wl.trained:
                train_dir = Path(tmp) / "train"
                pipeline.generate_dataset(wl.training_config(), train_dir)
                model, _ = pipeline.train_from_manifest(
                    wl.training_config(TRAINED_LEARNING_RATE), train_dir / "manifest.yaml", codec
                )
            for key in wl.pool():
                cfg, image = load_pool_image(wl, key, Path(tmp))
                outcomes[reference_key(key)] = list(detect(wl, cfg, codec, image, model))
                print(name, reference_key(key), outcomes[reference_key(key)], flush=True)
        # re-read so that concurrent recordings of other workloads survive
        merged = json.loads(REFERENCES.read_text()) if REFERENCES.exists() else {}
        merged[name] = outcomes
        REFERENCES.write_text(json.dumps(merged, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
