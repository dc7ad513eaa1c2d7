"""Benchmark entry point: runs one workload and prints its result as the last
line of standard output, one JSON object.

    python3 perfbench/run.py --workload eval-analytic --seed 1 --seconds 12 --trace 0

With ``--trace 0`` the result holds the end-to-end metrics and the
correctness checks decide ``correct``; with ``--trace 1`` it holds the
per-layer metrics of a separate traced run, and the spans are written to
``.perfbench_out/spans-<workload>-<seed>.csv``. Run from the repository root
or anywhere else: paths are resolved from this file. Exits with 2, printing
no result, when the ttga sources are not beside this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from pathlib import Path

# One BLAS thread. Every workload is a closed loop with workers = 1 on small
# matrices, where a multithreaded OpenBLAS mostly measures thread hand-off and
# contention with other processes on the machine.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("eval-analytic", "eval-conv", "train")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2 ** 63:
        parser.error(f"--seed must be in [0, 2^63), got {args.seed}")
    if args.seconds <= 0:
        parser.error(f"--seconds must be positive, got {args.seconds}")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "ttga" / "__init__.py").is_file():
        print(f"error: ttga sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.dont_write_bytecode = True
    sys.path[:0] = [str(SRC), str(HERE)]
    import ttga
    if Path(ttga.__file__).resolve().parent != SRC / "ttga":
        print(f"error: imported ttga from {ttga.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    import workloads

    out_root = ROOT / ".perfbench_out"
    run_dir = out_root / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    try:
        if args.trace:
            spans = out_root / f"spans-{args.workload}-{args.seed}.csv"
            result = workloads.trace(args.workload, args.seed, run_dir, spans)
        else:
            result = workloads.measure(args.workload, args.seed, args.seconds, run_dir)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    result["metrics"] = {name: {"value": float(value), "unit": unit}
                         for name, (value, unit) in result["metrics"].items()}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
