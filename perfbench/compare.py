#!/usr/bin/env python3
"""Compares two sets of saved benchmark results, workload by workload.

    python3 perfbench/compare.py A_RESULTS_DIR B_RESULTS_DIR

Each directory holds the <workload>-seed<N>-trace<T>.json files run.py
saves (build each side with its own CARGO_TARGET_DIR). For every workload
and metric present on both sides it prints the median, the quartile spread
(as a share of the median) and the B/A ratio. A comparison whose sides ran
on different hardware or builds is flagged: wall-clock ratios between them
mean nothing, only the deterministic counts still compare.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

from run import MACHINE_FIELDS


def load(directory: Path) -> tuple[dict, dict]:
    """Returns {(workload, trace): {metric: [values]}} and the fingerprints."""
    values: dict = defaultdict(lambda: defaultdict(list))
    prints: dict = {}
    for path in sorted(directory.glob("*-seed*-trace*.json")):
        if path.name.endswith(".spans.json"):
            continue
        result = json.loads(path.read_text())
        key = (result["workload"], result["trace"])
        for name, m in result["metrics"].items():
            values[key][name].append(m["value"])
        for name, v in result["ledger"].items():
            values[key][name].append(v)
        prints[tuple(result["fingerprint"].get(f) for f in MACHINE_FIELDS)] = (
            result["fingerprint"])
    return values, prints


def summary(v: list[float]) -> tuple[float, float]:
    med = statistics.median(v)
    if len(v) < 2 or med == 0:
        return med, 0.0
    q = statistics.quantiles(v, n=4)
    return med, (q[2] - q[0]) / abs(med)


def main() -> int:
    if len(sys.argv) != 3:
        print(__doc__)
        return 2
    a, a_prints = load(Path(sys.argv[1]))
    b, b_prints = load(Path(sys.argv[2]))
    if len(a_prints) != 1 or set(a_prints) != set(b_prints):
        print("WARNING: the results come from different hardware or builds:")
        for fp in list(a_prints.values()) + list(b_prints.values()):
            print("  " + json.dumps({f: fp.get(f) for f in MACHINE_FIELDS}))
    for key in sorted(set(a) & set(b)):
        print(f"\n{key[0]} (trace {key[1]}): runs A {max(map(len, a[key].values()))}, "
              f"B {max(map(len, b[key].values()))}")
        for name in sorted(set(a[key]) & set(b[key])):
            (ma, sa), (mb, sb) = summary(a[key][name]), summary(b[key][name])
            ratio = f"{mb / ma:8.4f}" if ma else "     n/a"
            print(f"  {name:40s} A {ma:14.6g} ±{sa:6.3f}  "
                  f"B {mb:14.6g} ±{sb:6.3f}  B/A {ratio}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
