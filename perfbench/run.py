"""Run one benchmark workload and print its result as one JSON line.

    python3 perfbench/run.py --workload pretrain --seed 1 --seconds 60 --trace 0

Run from the repository root; the library is imported from `src/`.  BLAS is
pinned to one thread and the model runs in float32, as in the acceptance
suite.  With `--trace 0` the result holds the end-to-end metrics; with
`--trace 1` it holds the per-layer metrics of a traced run.  A fuller
record, and with `--trace 1` the spans, go to `perfbench/results/`.
"""

import time

T0 = time.perf_counter()  # set-up time counts from here

import argparse
import json
import os
import platform
import shutil
import sys
from pathlib import Path

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"   # must precede the first numpy import

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
WORK = HERE / "work"
WORKLOAD_NAMES = ("pretrain", "long_recordings")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def manifest() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
            "threads": {v: os.environ.get(v) for v in THREAD_VARS},
            "machine": platform.machine(), "cpus": os.cpu_count()}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "motionbind" / "cli.py").is_file():
        print(f"error: library sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import Run

    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        run = Run(args.workload, args.seed, args.seconds, bool(args.trace), work, T0)
        run.run()
    finally:
        shutil.rmtree(work, ignore_errors=True)

    RESULTS.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = dict(run.summary(), attempted=run.attempted, failed=0, manifest=manifest())
    (RESULTS / f"{stem}.json").write_text(json.dumps(record, indent=2) + "\n")
    if args.trace:
        run.tracer.write(RESULTS / f"{stem}.spans.json")

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in declared["per_layer" if args.trace else "end_to_end"]}
    shown = run.per_layer if args.trace else run.metrics
    if set(shown) != set(units):
        print(f"error: measured metrics {sorted(shown)} differ from BENCHMARK.json's "
              f"{sorted(units)}", file=sys.stderr)
        return 2
    for failure in run.failures:
        print(f"check failed: {failure}", file=sys.stderr)
    print(json.dumps({
        "correct": not run.failures,
        "attempted": run.attempted,
        "failed": 0,
        "metrics": {k: {"value": shown[k], "unit": units[k]} for k in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
