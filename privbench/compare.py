"""Compare two sets of benchmark results, or show the reports/s ladder.

Usage (from the repository root)::

    python3 privbench/compare.py PARENT CHANGE   # two result directories
    python3 privbench/compare.py --ladder DIR    # traced results of one commit

A result directory holds the JSON files ``run.py`` writes under
``.privbench/results/``; copy them aside per commit before comparing.

Compare mode pairs the untraced runs of each workload by seed (in run
order when a seed repeats) and prints, per end-to-end metric, each side's
median and quartiles, the share of pairs the change won (ties count for
neither), and a verdict against the bound in ``BENCHMARK.json``:

* ``regression`` — the change's median is worse than the parent's by more
  than the bound;
* ``gain`` — the change won at least 9 of 10 pairs and the medians differ by
  more than the parent's own quartile spread;
* ``unresolved`` — the parent's spread is wider than the bound and not every
  change run beats every parent run;
* ``within bound`` — otherwise.

Standard library only.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: The north-star ladder: (rung, workload, per-layer metric).
LADDER = (
    ("ldp kernel", "synthetic-inline", "ldp.kernel_reports_per_s"),
    ("encode_reports", "synthetic-inline", "encode.reports_per_s"),
    ("inline driver", "synthetic-inline", "ladder.run_reports_per_s"),
    ("gateway", "synthetic-gateway", "ladder.run_reports_per_s"),
    ("cluster", "synthetic-cluster", "ladder.run_reports_per_s"),
)


def load(directory: str, trace: int) -> dict[str, list[dict]]:
    """Results per workload, in (seed, file name) order."""
    by_workload: dict[str, list[dict]] = {}
    for path in sorted(Path(directory).glob("*.json")):
        result = json.loads(path.read_text())
        if result.get("trace") == trace:
            result["_file"] = path.name
            by_workload.setdefault(result["workload"], []).append(result)
    for results in by_workload.values():
        results.sort(key=lambda r: (r["seed"], r["_file"]))
    return by_workload


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def pairs(parent: list[dict], change: list[dict]) -> list[tuple[dict, dict]]:
    """Runs matched by seed; repeated seeds pair in run order."""
    pending: dict[int, list[dict]] = {}
    for result in change:
        pending.setdefault(result["seed"], []).append(result)
    matched = []
    for result in parent:
        candidates = pending.get(result["seed"])
        if candidates:
            matched.append((result, candidates.pop(0)))
    return matched


def verdict(metric: dict, parent: list[float], change: list[float], won: int, n_pairs: int) -> str:
    higher = metric["better"] == "higher"
    p_q1, p_med, p_q3 = quartiles(parent)
    _, c_med, _ = quartiles(change)
    worse = (p_med - c_med) if higher else (c_med - p_med)
    if p_med and worse / abs(p_med) > metric["bound"]:
        return "regression"
    if n_pairs and won >= 0.9 * n_pairs and abs(c_med - p_med) > p_q3 - p_q1:
        return "gain"
    spread = (p_q3 - p_q1) / abs(p_med) if p_med else 0.0
    all_better = (min(change) > max(parent)) if higher else (max(change) < min(parent))
    if spread > metric["bound"] and not all_better:
        return "unresolved"
    return "within bound"


def compare(parent_dir: str, change_dir: str) -> int:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    parent, change = load(parent_dir, 0), load(change_dir, 0)
    header = (f"{'workload':<18} {'metric':<14} {'parent median [q1, q3]':<34} "
              f"{'change median [q1, q3]':<34} {'won':>7}  {'move':>8}  verdict")
    print(header)
    regressions = 0
    for workload in sorted(set(parent) & set(change)):
        matched = pairs(parent[workload], change[workload])
        for metric in declared:
            name = metric["name"]
            p_values = [r["metrics"][name]["value"] for r in parent[workload]]
            c_values = [r["metrics"][name]["value"] for r in change[workload]]
            won = sum(
                (c["metrics"][name]["value"] > p["metrics"][name]["value"])
                if metric["better"] == "higher"
                else (c["metrics"][name]["value"] < p["metrics"][name]["value"])
                for p, c in matched
            )
            outcome = verdict(metric, p_values, c_values, won, len(matched))
            regressions += outcome == "regression"
            pq, cq = quartiles(p_values), quartiles(c_values)
            move = (cq[1] - pq[1]) / abs(pq[1]) if pq[1] else 0.0
            print(
                f"{workload:<18} {name:<14} "
                f"{f'{pq[1]:.6g} [{pq[0]:.6g}, {pq[2]:.6g}]':<34} "
                f"{f'{cq[1]:.6g} [{cq[0]:.6g}, {cq[2]:.6g}]':<34} "
                f"{f'{won}/{len(matched)}':>7}  {move:>+8.2%}  {outcome}"
                f" (bound {metric['bound']:.0%}, n={len(p_values)}/{len(c_values)})"
            )
    return 1 if regressions else 0


def ladder(directory: str) -> int:
    traced = load(directory, 1)
    print(f"{'rung':<16} {'workload':<18} {'reports/s':>14}  ratio to the rung below")
    below = None
    for rung, workload, name in LADDER:
        values = [r["metrics"][name]["value"] for r in traced.get(workload, [])]
        if not values:
            print(f"{rung:<16} {workload:<18} {'(no traced result)':>14}")
            below = None
            continue
        rate = statistics.median(values)
        ratio = ""
        if below is not None:
            ratio = f"x{rate / below[1]:.3g} of {below[1]:,.0f}/s ({below[0]})"
        print(f"{rung:<16} {workload:<18} {rate:>14,.0f}  {ratio}  (median of {len(values)})")
        below = (rung, rate)
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--ladder", metavar="DIR", help="show the ladder of DIR's traced results")
    parser.add_argument("dirs", nargs="*", metavar="DIR", help="PARENT and CHANGE result directories")
    args = parser.parse_args(argv)
    if args.ladder:
        return ladder(args.ladder)
    if len(args.dirs) != 2:
        parser.error("compare mode takes exactly two directories: PARENT CHANGE")
    return compare(*args.dirs)


if __name__ == "__main__":
    sys.exit(main())
