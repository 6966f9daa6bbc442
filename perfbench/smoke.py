#!/usr/bin/env python3
"""Smoke test of the benchmark at tiny sizes.

Run from the root of a checkout:  python3 perfbench/smoke.py

Runs every workload for half a second, untraced and traced, and checks that
the last output line is a result object carrying every metric BENCHMARK.json
declares, with its unit.  It then copies only BENCHMARK.json and this
directory into a scratch directory and checks that the benchmark refuses to
run there.  The file name keeps it out of pytest's collection, so it is not
part of the test suite's timing.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
TIMEOUT_S = 180


def run(root, workload, trace):
    cmd = [sys.executable, str(root / BENCH.name / "run.py"),
           "--workload", workload, "--seed", "1", "--seconds", "0.5",
           "--trace", str(trace), "--size", "tiny"]
    return subprocess.run(cmd, cwd=root, capture_output=True, text=True,
                          timeout=TIMEOUT_S)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    failures = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            proc = run(ROOT, workload, trace)
            label = f"{workload} trace {trace}"
            if proc.returncode != 0:
                failures.append(f"{label}: exit {proc.returncode}: {proc.stderr[-500:]}")
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            expected = {m["name"]: m["unit"] for m in spec[key]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                failures.append(f"{label}: result keys {sorted(result)}")
            if got != expected:
                failures.append(f"{label}: metrics differ from BENCHMARK.json")
            if not result["attempted"] >= 1:
                failures.append(f"{label}: no op attempted")
            # Only cli_io's checks are exact at tiny sizes; the others are
            # statistical and sized for the full workloads.
            if workload == "cli_io" and not result["correct"]:
                failures.append(f"{label}: checks failed")
            print(f"ok {label}: {result['attempted']} ops, correct {result['correct']}")

    bare = ROOT / ".bench_work" / "smoke_bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH, bare / BENCH.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    proc = run(bare, spec["workloads"][0]["name"], 0)
    if proc.returncode == 0 or '"metrics"' in proc.stdout:
        failures.append("benchmark ran without the package source")
    else:
        print(f"ok bare directory: exit {proc.returncode}")
    shutil.rmtree(bare)

    for failure in failures:
        print(f"FAIL {failure}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
