#!/usr/bin/env python3
"""Smoke test of the repository benchmark.

Runs every workload of BENCHMARK.json at tiny size (run.py --smoke), once
untraced and once traced, and asserts that the result line is well formed,
that every named metric is printed with its BENCHMARK.json unit, and that
the correctness checks pass. Also asserts that README.md documents every
metric. Usage, from the repository root:

    python3 perfbench/smoke_test.py
"""

from __future__ import annotations

import json
import numbers
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run(workload: str, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", "1", "--seconds", "1", "--trace", str(trace), "--smoke"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    assert proc.returncode == 0, f"{workload}: exit {proc.returncode}\n{proc.stderr}"
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    readme = (HERE / "README.md").read_text()
    failures = []
    for spec in bench["end_to_end"] + bench["per_layer"]:
        if f"`{spec['name']}`" not in readme:
            failures.append(f"README.md does not document {spec['name']}")
    for w in bench["workloads"]:
        for trace, specs in ((0, bench["end_to_end"]), (1, bench["per_layer"])):
            line = run(w["name"], trace)
            where = f"{w['name']} --trace {trace}"
            if set(line) != {"correct", "attempted", "failed", "metrics"}:
                failures.append(f"{where}: keys {sorted(line)}")
            if line["correct"] is not True:
                failures.append(f"{where}: correctness checks failed")
            if not (isinstance(line["attempted"], int) and line["attempted"] >= 1):
                failures.append(f"{where}: attempted {line['attempted']}")
            if set(line["metrics"]) != {s["name"] for s in specs}:
                failures.append(f"{where}: metric names differ from BENCHMARK.json")
            for s in specs:
                m = line["metrics"].get(s["name"], {})
                if m.get("unit") != s["unit"] or not isinstance(
                        m.get("value"), numbers.Real):
                    failures.append(f"{where}: {s['name']} printed as {m}")
            print(f"ok  {where}: attempted {line['attempted']}, "
                  f"failed {line['failed']}", flush=True)
    for f in failures:
        print(f"FAIL {f}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
