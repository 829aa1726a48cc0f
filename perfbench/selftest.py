"""Self-test of the benchmark at a tiny size (about a minute).

    python3 perfbench/selftest.py

For every workload it runs run.py on the first image of the pass with a
one-second budget, untraced and traced, and checks that

* the run exits 0 and its last line is the result object with exactly the
  keys correct, attempted, failed and metrics, with correct true;
* the result holds every end-to-end (untraced) or per-layer (traced) metric
  of BENCHMARK.json with its unit and no other, and each is also printed
  on a ``metric`` line with the same unit;
* in the traced run's record every span has ended and every parent id is
  the id of a span of the same trace.

Last, it copies BENCHMARK.json and perfbench/ into an otherwise empty
directory and checks that the benchmark fails there without a result line.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from tracing import dangling_parents  # noqa: E402  (needs HERE on sys.path)

SEED = 1


def bench(cwd, workload, trace):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(SEED),
         "--seconds", "1", "--trace", str(trace), "--images", "1"],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


def check_run(workload, trace, spec) -> list:
    where = f"{workload} trace {trace}"
    proc = bench(ROOT, workload, trace)
    if proc.returncode != 0:
        return [f"{where}: exit {proc.returncode}\n{proc.stderr[-2000:]}"]
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    errors = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        errors.append(f"{where}: result keys {sorted(result)}")
    if result.get("correct") is not True:
        errors.append(f"{where}: correct is {result.get('correct')}")
    wanted = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != wanted:
        errors.append(f"{where}: metrics {got} differ from BENCHMARK.json {wanted}")
    printed = {}
    for line in lines:
        if line.startswith("metric "):
            _, name, _, unit = line.split(" ")
            printed[name] = unit
    for name, unit in wanted.items():
        if printed.get(name) != unit:
            errors.append(f"{where}: metric line for {name} shows unit {printed.get(name)}, want {unit}")
    if trace:
        record = json.loads((ROOT / ".perfbench_out" / f"{workload}-seed{SEED}-trace1.json").read_text())
        spans = record["spans"]
        if not spans:
            errors.append(f"{where}: no spans recorded")
        if dangling_parents(spans):
            errors.append(f"{where}: spans {dangling_parents(spans)[:5]} have unknown parents")
        if any(s["end"] is None for s in spans):
            errors.append(f"{where}: unfinished spans")
    return errors


def check_without_sources() -> list:
    bare = ROOT / ".perfbench_out" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        proc = bench(bare, "oracle-bp", 0)
    finally:
        shutil.rmtree(bare)
    if proc.returncode == 0 or '"correct"' in proc.stdout:
        return [f"without src/: exit {proc.returncode}, stdout {proc.stdout[-500:]!r}"]
    return []


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    errors = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            found = check_run(workload, trace, spec)
            print(f"{workload} trace {trace}: {'FAIL' if found else 'ok'}", flush=True)
            errors.extend(found)
    found = check_without_sources()
    print(f"without src/: {'FAIL' if found else 'ok'}")
    errors.extend(found)
    for error in errors:
        print(error, file=sys.stderr)
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
