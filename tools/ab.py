"""Run the benchmark as A/B pairs of two source trees and compare the end-to-end metrics.

    python tools/ab.py PARENT CHANGE [WORKLOAD ...]

PARENT and CHANGE are checkouts of this repository; the workloads default to
every workload in BENCHMARK.json. The benchmark (the copy next to this
script, so both trees run one definition) is taken as it is: its command
under this interpreter with `--workload W --seed S --seconds T --trace 0`,
run in the tree's own directory, one process per run, with T the
`run_seconds` of BENCHMARK.json. Each workload runs 10 pairs over seeds
11-20. Pair k runs PARENT first for even k and CHANGE first for odd k, so a
drift in the host's speed falls on both sides alike.

Per workload and end-to-end metric it prints the parent median, the change
median, their ratio (change / parent), the parent's interquartile range and
the change's wins (pairs in which the change is better). A metric is
`worse` when the change median is worse than the parent median by more than
the metric's bound, a fraction of the parent median. Otherwise it is
`unresolved` when the parent's IQR exceeds the bound times its median,
unless every change run beats every parent run, and `ok`. Exits 1 on any
`worse` metric, or on any run that exits nonzero, prints no result or
fails an op; else 0.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCHMARK = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
SEEDS = range(11, 21)  # one pair per seed


def order(pair: int) -> tuple[str, str]:
    """The sides of a pair in the order they run."""
    return ("parent", "change") if pair % 2 == 0 else ("change", "parent")


def run_benchmark(tree: str, workload: str, seed: int) -> tuple[int, str]:
    """(exit code, stdout) of one benchmark run in tree."""
    command = [sys.executable, *BENCHMARK["command"][1:]]
    args = ["--workload", workload, "--seed", str(seed), "--seconds", str(BENCHMARK["run_seconds"]), "--trace", "0"]
    proc = subprocess.run(command + args, cwd=tree, capture_output=True, text=True)
    return proc.returncode, proc.stdout


def parse_result(stdout: str) -> dict | None:
    """The JSON result on the last stdout line, or None if there is none."""
    lines = stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        return None
    return result if isinstance(result, dict) and "metrics" in result else None


def _beats(a: float, b: float, better: str) -> bool:
    return a < b if better == "lower" else a > b


def compare(parent: list[float], change: list[float], better: str, bound: float) -> dict:
    """The statistics and verdict of one metric over paired runs, parent[k] against change[k]."""
    p_med, c_med = statistics.median(parent), statistics.median(change)
    q1, _, q3 = statistics.quantiles(parent, n=4, method="inclusive")
    if better == "lower":
        worse = c_med > p_med * (1.0 + bound)
    else:
        worse = c_med < p_med * (1.0 - bound)
    dominates = all(_beats(c, p, better) for c in change for p in parent)
    if worse:
        verdict = "worse"
    elif q3 - q1 > bound * abs(p_med) and not dominates:
        verdict = "unresolved"
    else:
        verdict = "ok"
    return {
        "parent_median": p_med,
        "change_median": c_med,
        "ratio": c_med / p_med if p_med else float("nan"),
        "parent_iqr": q3 - q1,
        "wins": sum(_beats(c, p, better) for p, c in zip(parent, change)),
        "verdict": verdict,
    }


def main(argv: list[str], run=run_benchmark) -> int:
    if len(argv) < 2:
        print("usage: python tools/ab.py PARENT CHANGE [WORKLOAD ...]", file=sys.stderr)
        return 2
    trees = {"parent": argv[0], "change": argv[1]}
    workloads = argv[2:] or [w["name"] for w in BENCHMARK["workloads"]]
    status = 0
    print("workload metric parent_median change_median ratio parent_iqr wins verdict")
    for workload in workloads:
        values: dict[str, dict[str, list[float]]] = {"parent": {}, "change": {}}
        for pair, seed in enumerate(SEEDS):
            for side in order(pair):
                code, stdout = run(trees[side], workload, seed)
                result = parse_result(stdout)
                if code != 0 or result is None or result.get("failed", 1) > 0:
                    print(f"{workload} seed {seed} {side}: exit {code}, failed {result and result.get('failed')}")
                    status = 1
                    continue
                for name, metric in result["metrics"].items():
                    values[side].setdefault(name, []).append(metric["value"])
        for metric in BENCHMARK["end_to_end"]:
            name = metric["name"]
            parent, change = values["parent"].get(name, []), values["change"].get(name, [])
            if len(parent) != len(SEEDS) or len(change) != len(SEEDS):
                print(f"{workload} {name} missing runs: {len(parent)} parent, {len(change)} change")
                status = 1
                continue
            row = compare(parent, change, metric["better"], metric["bound"])
            print(
                f"{workload} {name} {row['parent_median']:.6g} {row['change_median']:.6g} {row['ratio']:.4f}"
                f" {row['parent_iqr']:.3g} {row['wins']}/{len(SEEDS)} {row['verdict']}"
            )
            if row["verdict"] == "worse":
                status = 1
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
