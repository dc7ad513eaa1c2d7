#!/usr/bin/env python3
"""Compare two source trees on the benchmark in alternating pairs.

    tools/bench_record.py --compare BASE HEAD --workload eval-conv --pairs 10

Pair i runs ``TREE/perfbench/run.py --workload W --seed S+i --seconds T`` on
both trees with the same seed. BASE runs first on even pairs and HEAD on odd
ones, because the second run of a pair tends to read slower. Every run must
print a JSON result as its last line, with ``correct`` true and ``failed``
0; otherwise the comparison stops with exit code 1. For each end-to-end
metric in BENCHMARK.json that both trees report, it prints BASE's median and
quartiles, HEAD's median, the change of the medians, and in how many pairs
HEAD did better, in the metric's direction.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


class RunFailed(Exception):
    pass


def run_perfbench(tree: Path, workload: str, seed: int, seconds: float,
                  runner=subprocess.run) -> dict:
    """One untraced benchmark run from ``tree``; its metric values by name."""
    cmd = [sys.executable, str(tree / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds)]
    proc = runner(cmd, capture_output=True, text=True)
    where = f"{tree} {workload} seed {seed}"
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


def summarize(results: list[tuple[dict, dict]], metrics: list[dict]) -> list[dict]:
    """Per end-to-end metric both trees report in every pair: BASE's median
    and quartiles, HEAD's median, the relative change and HEAD's wins."""
    rows = []
    for spec in metrics:
        name, sign = spec["name"], 1 if spec["better"] == "higher" else -1
        if not all(name in b and name in h for b, h in results):
            continue
        base = [b[name] for b, _ in results]
        head = [h[name] for _, h in results]
        q1, _, q3 = (statistics.quantiles(base, n=4, method="inclusive") if len(base) > 1
                     else base * 3)
        base_median = statistics.median(base)
        head_median = statistics.median(head)
        rows.append(dict(
            name=name, better=spec["better"], base_median=base_median, base_q1=q1,
            base_q3=q3, head_median=head_median,
            change=(head_median - base_median) / abs(base_median) if base_median else None,
            wins=sum(sign * (h - b) > 0 for b, h in zip(base, head)), pairs=len(results)))
    return rows


def format_rows(workload: str, rows: list[dict]) -> str:
    lines = [f"{workload}: {rows[0]['pairs'] if rows else 0} alternating pairs",
             f"  {'metric':<40}{'base median [q1, q3]':>34}{'head median':>13}"
             f"{'change':>9}{'head wins':>11}"]
    for r in rows:
        change = "n/a" if r["change"] is None else f"{100 * r['change']:+.1f}%"
        spread = f"{r['base_median']:.4g} [{r['base_q1']:.4g}, {r['base_q3']:.4g}]"
        lines.append(f"  {r['name'] + ' (' + r['better'] + ')':<40}{spread:>34}"
                     f"{r['head_median']:>13.4g}{change:>9}{r['wins']:>7}/{r['pairs']}")
    return "\n".join(lines)


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--compare", nargs=2, metavar=("BASE", "HEAD"), required=True,
                        type=Path, help="the two source trees")
    parser.add_argument("--workload", action="append", choices=names,
                        help="repeat for several; default: every workload")
    parser.add_argument("--pairs", type=int, default=6)
    parser.add_argument("--seed", type=int, default=1, help="the first pair's seed")
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error(f"--pairs must be >= 1, got {args.pairs}")
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
