#!/usr/bin/env python3
"""Compare two source trees on the benchmark in alternating pairs, or record
this tree's benchmark figures.

    tools/bench_record.py --compare BASE HEAD --workload eval-conv [--pairs N]
    tools/bench_record.py --record BENCH_ttga.json

A comparison runs N alternating pairs, 10 by default. Pair i runs
``TREE/perfbench/run.py --workload W --seed S+i --seconds T`` on both trees
with the same seed. BASE runs first on even pairs and HEAD on odd
ones, because the second run of a pair tends to read slower. Every run must
print a JSON result as its last line, with ``correct`` true and ``failed``
0; otherwise the comparison stops with exit code 1. For each end-to-end
metric in BENCHMARK.json that both trees report, it prints BASE's median and
quartiles, HEAD's median, the change of the medians, in how many pairs
HEAD did better, in the metric's direction, and a verdict:

- ``gain``: HEAD did better in at least 9 of 10 pairs, and the medians differ
  by more than BASE's interquartile range;
- ``worse``: HEAD's median is worse than BASE's by more than the metric's
  ``bound`` in BENCHMARK.json, a fraction of BASE's median;
- ``unresolved``: anything else.

``--record OUT`` runs this tree's ``perfbench/run.py`` RUNS = 5 times per
workload (seeds S .. S+4) and once more with ``--trace 1`` at seed S.
A bad run stops the recording as it stops a comparison. It writes OUT as
JSON: per workload, the median, quartiles and run count of each end-to-end
metric in BENCHMARK.json, and every per-layer metric of the traced run,
``host.reference_s`` among them; and the git revision, whether tracked files
were modified, the Python, numpy and scipy versions and the BLAS thread
variables of the recording process (``perfbench/run.py`` sets each to 1 for
itself).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
from importlib.metadata import version
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
RUNS = 5  # untraced runs per workload in a recording


class RunFailed(Exception):
    pass


def run_perfbench(tree: Path, workload: str, seed: int, seconds: float,
                  runner=subprocess.run, trace: bool = False) -> dict:
    """One benchmark run from ``tree``, untraced unless ``trace``; its metric
    values by name."""
    cmd = [sys.executable, str(tree / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds)] + (["--trace", "1"] if trace else [])
    proc = runner(cmd, capture_output=True, text=True)
    where = f"{tree} {workload} seed {seed}" + (" traced" if trace else "")
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        raise RunFailed(f"{where}: no JSON result line (exit code {proc.returncode})\n"
                        f"{proc.stderr}") from None
    if proc.returncode != 0 or result.get("correct") is not True or result.get("failed") != 0:
        raise RunFailed(f"{where}: exit code {proc.returncode}, correct "
                        f"{result.get('correct')}, failed {result.get('failed')}\n{proc.stderr}")
    return {name: m["value"] for name, m in result["metrics"].items()}


def compare(base: Path, head: Path, workload: str, pairs: int, seed: int, seconds: float,
            run=run_perfbench) -> list[tuple[dict, dict]]:
    """(BASE, HEAD) metrics of each pair; the pair's first run alternates."""
    out = []
    for i in range(pairs):
        order = (base, head) if i % 2 == 0 else (head, base)
        first, second = (run(tree, workload, seed + i, seconds) for tree in order)
        out.append((first, second) if i % 2 == 0 else (second, first))
    return out


def quartiles(values: list[float]) -> list[float]:
    """q1, median and q3, inclusive of the extremes; one value is all three."""
    return statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 else values * 3


def record(tree: Path, workloads: list[str], runs: int, seed: int, seconds: float,
           bench: dict, run=run_perfbench) -> dict:
    """Per workload: the spread of each end-to-end metric that every one of
    ``runs`` untraced runs reports, and the metrics of one traced run."""
    units = {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}
    out = {}
    for workload in workloads:
        results = [run(tree, workload, seed + i, seconds) for i in range(runs)]
        traced = run(tree, workload, seed, seconds, trace=True)
        end_to_end = {}
        for spec in bench["end_to_end"]:
            name = spec["name"]
            if all(name in r for r in results):
                q1, median, q3 = quartiles([r[name] for r in results])
                end_to_end[name] = dict(median=median, q1=q1, q3=q3, n=len(results),
                                        unit=spec["unit"], better=spec["better"])
        per_layer = {name: dict(value=value, unit=units.get(name))
                     for name, value in traced.items()}
        out[workload] = dict(end_to_end=end_to_end, per_layer=per_layer)
    return out


def environment(tree: Path) -> dict:
    """The revision of ``tree`` and the versions the runs used."""
    def git(*args) -> str | None:
        try:
            proc = subprocess.run(["git", "-C", str(tree), *args], capture_output=True, text=True)
        except OSError:
            return None
        return proc.stdout.strip() if proc.returncode == 0 else None
    status = git("status", "--porcelain", "--untracked-files=no")
    return dict(revision=git("rev-parse", "HEAD"),
                modified=None if status is None else bool(status),
                python=platform.python_version(), numpy=version("numpy"), scipy=version("scipy"),
                blas_threads={var: os.environ.get(var) for var in BLAS_VARS})


def summarize(results: list[tuple[dict, dict]], metrics: list[dict]) -> list[dict]:
    """Per end-to-end metric both trees report in every pair: BASE's median
    and quartiles, HEAD's median, the relative change, HEAD's wins and the
    verdict (see the module docstring)."""
    rows = []
    for spec in metrics:
        name, sign = spec["name"], 1 if spec["better"] == "higher" else -1
        if not all(name in b and name in h for b, h in results):
            continue
        base = [b[name] for b, _ in results]
        head = [h[name] for _, h in results]
        q1, _, q3 = quartiles(base)
        base_median = statistics.median(base)
        head_median = statistics.median(head)
        wins = sum(sign * (h - b) > 0 for b, h in zip(base, head))
        # the change of the medians in the metric's direction, and as a
        # fraction of BASE's median
        better_by = sign * (head_median - base_median)
        change = (head_median - base_median) / abs(base_median) if base_median else None
        if 10 * wins >= 9 * len(results) and better_by > q3 - q1:
            verdict = "gain"
        elif change is not None and -sign * change > spec.get("bound", math.inf):
            verdict = "worse"
        else:
            verdict = "unresolved"
        rows.append(dict(
            name=name, better=spec["better"], base_median=base_median, base_q1=q1,
            base_q3=q3, head_median=head_median, change=change, wins=wins,
            pairs=len(results), verdict=verdict))
    return rows


def format_rows(workload: str, rows: list[dict]) -> str:
    lines = [f"{workload}: {rows[0]['pairs'] if rows else 0} alternating pairs",
             f"  {'metric':<40}{'base median [q1, q3]':>34}{'head median':>13}"
             f"{'change':>9}{'head wins':>11}{'verdict':>12}"]
    for r in rows:
        change = "n/a" if r["change"] is None else f"{100 * r['change']:+.1f}%"
        spread = f"{r['base_median']:.4g} [{r['base_q1']:.4g}, {r['base_q3']:.4g}]"
        lines.append(f"  {r['name'] + ' (' + r['better'] + ')':<40}{spread:>34}"
                     f"{r['head_median']:>13.4g}{change:>9}{r['wins']:>7}/{r['pairs']:<3}"
                     f"{r['verdict']:>12}")
    return "\n".join(lines)


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--compare", nargs=2, metavar=("BASE", "HEAD"), type=Path,
                      help="the two source trees")
    mode.add_argument("--record", metavar="OUT", type=Path,
                      help="write this tree's figures to OUT, such as BENCH_ttga.json")
    parser.add_argument("--workload", action="append", choices=names,
                        help="repeat for several; default: every workload")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1, help="the first pair's or run's seed")
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error(f"--pairs must be >= 1, got {args.pairs}")
    if args.record:
        try:
            workloads = record(ROOT, args.workload or names, RUNS, args.seed,
                               args.seconds, bench)
        except RunFailed as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        args.record.write_text(json.dumps(dict(
            environment(ROOT), runs=RUNS, seed=args.seed, seconds=args.seconds,
            workloads=workloads), indent=2) + "\n", encoding="utf-8")
        print(f"wrote {args.record}")
        return 0
    base, head = (tree.resolve() for tree in args.compare)
    for tree in (base, head):
        if not (tree / "perfbench" / "run.py").is_file():
            parser.error(f"no perfbench/run.py under {tree}")
    for workload in args.workload or names:
        try:
            results = compare(base, head, workload, args.pairs, args.seed, args.seconds)
        except RunFailed as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        print(format_rows(workload, summarize(results, bench["end_to_end"])), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
