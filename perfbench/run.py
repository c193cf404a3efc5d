#!/usr/bin/env python3
"""Repository benchmark: build the binary, run one workload, print results.

Usage (from the repository root):

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

W is one of the workloads in BENCHMARK.json. The script builds libmonge
and the perfbench binary from source (CMake, Release) under
$CARGO_TARGET_DIR (default .bench_build), runs the workload in one process
and prints a human-readable table followed, as the last line of stdout, by
one JSON object: {"correct", "attempted", "failed", "metrics"}. With
--trace 0 the metrics are BENCHMARK.json's end_to_end list, with --trace 1
its per_layer list (a layer the workload does not exercise reads 0).

It also
  * compares the run's deterministic counts with perfbench/ledger.json and
    flags any difference (the ledger.drift metric and a stderr warning);
  * flags a hardware/build fingerprint that differs from the ledger's;
  * saves the full result, fingerprint included, under <build>/results/.

Extra options: --smoke (tiny inputs, used by smoke_test.py) and
--write-ledger (record this run's deterministic counts and fingerprint in
perfbench/ledger.json).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCHMARK = ROOT / "BENCHMARK.json"
LEDGER = HERE / "ledger.json"
RUN_TIMEOUT_S = 170
# Fingerprint fields that make wall-clock numbers incomparable.
MACHINE_FIELDS = ("nproc", "cpu_model", "cache_bytes", "steady_ant_isa",
                  "build_type", "compiler")


def log(msg: str) -> None:
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build_dir() -> Path:
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def build(out: Path) -> Path:
    """Configures (once) and builds the binary; returns its path."""
    if not (out / "CMakeCache.txt").exists():
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(out),
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    jobs = str(max(1, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", str(out), "-j", jobs,
                    "--target", "perfbench"], check=True, stdout=sys.stderr)
    return out / "perfbench"


def code_identity() -> dict:
    """The git commit when there is one, and always a digest of the sources."""
    digest = hashlib.sha256()
    files = sorted((ROOT / "src").rglob("*")) + [ROOT / "CMakeLists.txt"]
    for path in files:
        if path.is_file():
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    commit = "none (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                    capture_output=True, text=True,
                                    check=True).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    return {"git_commit": commit, "source_sha256": digest.hexdigest()}


def fingerprint_diff(a: dict, b: dict) -> list[str]:
    return [k for k in MACHINE_FIELDS if a.get(k) != b.get(k)]


def compare_ledger(result: dict, recorded: dict) -> list[str]:
    want = recorded.get("workloads", {}).get(result["workload"])
    if want is None:
        return [f"no recorded counts for {result['workload']}"]
    got = result["ledger"]
    return [f"{k}: recorded {want.get(k)}, measured {got.get(k)}"
            for k in sorted(set(want) | set(got)) if want.get(k) != got.get(k)]


def write_ledger(result: dict) -> None:
    data = json.loads(LEDGER.read_text()) if LEDGER.exists() else {}
    data["fingerprint"] = result["fingerprint"]
    data.setdefault("workloads", {})[result["workload"]] = result["ledger"]
    LEDGER.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")
    log(f"recorded {len(result['ledger'])} counts in {LEDGER.name}")


def result_metrics(result: dict, specs: list[dict]) -> dict:
    metrics = {}
    for spec in specs:
        name, unit = spec["name"], spec["unit"]
        got = result["metrics"].get(name)
        if got is None and name in result["ledger"]:
            got = {"value": result["ledger"][name], "unit": unit}
        if got is None:  # this workload does not exercise the layer
            got = {"value": 0, "unit": unit}
        if got["unit"] != unit:
            raise SystemExit(f"perfbench: {name} measured in {got['unit']}, "
                             f"BENCHMARK.json says {unit}")
        metrics[name] = {"value": got["value"], "unit": unit}
    return metrics


def print_table(result: dict) -> None:
    print(f"workload {result['workload']}  seed {result['seed']}  "
          f"trace {result['trace']}")
    print(f"attempted {result['attempted']}  failed {result['failed']}  "
          f"checked {result['checked']}  wrong {result['wrong']}")
    for kind, n in result["failure_kinds"].items():
        print(f"  failure x{n}: {kind}")
    for name, m in sorted(result["metrics"].items()):
        print(f"  {name:40s} {m['value']:>18.6g} {m['unit']}")
    for name, v in sorted(result["ledger"].items()):
        print(f"  {name:40s} {v:>18d} count (deterministic)")
    for note in result["notes"] + result["steadiness_errors"]:
        print(f"  note: {note}")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--write-ledger", action="store_true")
    args = ap.parse_args()

    bench = json.loads(BENCHMARK.read_text())
    if args.workload not in {w["name"] for w in bench["workloads"]}:
        log(f"unknown workload {args.workload}")
        return 2
    try:
        binary = build(build_dir())
    except (OSError, subprocess.CalledProcessError) as e:
        log(f"build failed: {e}")
        return 1

    results = build_dir() / "results"
    results.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--spans", str(results / f"{stem}.spans.json")]
    if args.smoke:
        cmd.append("--smoke")
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
        return 1
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        log(f"benchmark binary exited with {proc.returncode}")
        return 1
    result = json.loads(lines[-1])
    result["fingerprint"].update(code_identity())

    drift: list[str] = []
    if LEDGER.exists() and not args.smoke:
        recorded = json.loads(LEDGER.read_text())
        drift = compare_ledger(result, recorded)
        differs = fingerprint_diff(result["fingerprint"],
                                   recorded.get("fingerprint", {}))
        if differs:
            result["notes"].append(
                "fingerprint differs from ledger.json's in " +
                ", ".join(differs) + ": compare wall-clock numbers only "
                "against runs on this machine")
    for d in drift:
        log(f"steadiness check FAILED, deterministic count changed: {d}")
    result["ledger_drift"] = drift
    result["metrics"]["ledger.drift"] = {"value": len(drift), "unit": "count"}
    if args.write_ledger and not args.smoke:
        write_ledger(result)

    (results / f"{stem}.json").write_text(json.dumps(result, indent=2) + "\n")
    print_table(result)
    specs = bench["per_layer"] if args.trace else bench["end_to_end"]
    line = {
        "correct": result["wrong"] == 0 and not result["steadiness_errors"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": result_metrics(result, specs),
    }
    print(json.dumps(line), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
