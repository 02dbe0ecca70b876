#!/usr/bin/env python3
"""Smoke check of the benchmark itself, with two replications per run.

Usage, from the repository root:

    python3 perfbench/smoke.py [--workload NAME ...]

For every workload, untraced and traced, it asserts that the last output
line carries exactly the end-to-end (or per-layer) metrics named in
BENCHMARK.json, each a finite number with its unit, and that every
correctness check passed.  It then asserts that a corrupted estimate gives
a non-zero exit with ``"correct": false``, that a replication raising an
exception is counted as failed while the run goes on, and that a directory
holding only BENCHMARK.json and the benchmark exits non-zero without a
result.  Exits non-zero on the first failed assertion.
"""

import argparse
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN = HERE / "run.py"


def run(args, cwd=ROOT):
    proc = subprocess.run([sys.executable, str(RUN), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            pass
    return proc, result


def expect(cond, message, proc=None):
    if not cond:
        detail = f"\n{proc.stdout[-2000:]}\n{proc.stderr[-2000:]}" if proc else ""
        raise SystemExit(f"smoke FAILED: {message}{detail}")


def check_metrics(result, spec, label, proc):
    expect(set(result) == {"correct", "attempted", "failed", "metrics"},
           f"{label}: result keys {sorted(result)}", proc)
    expect(result["correct"] is True, f"{label}: a correctness check failed", proc)
    expect(result["attempted"] >= 1 and result["failed"] == 0,
           f"{label}: attempted={result['attempted']} failed={result['failed']}", proc)
    names = {m["name"]: m["unit"] for m in spec}
    got = result["metrics"]
    expect(set(got) == set(names),
           f"{label}: missing {sorted(set(names) - set(got))}, "
           f"extra {sorted(set(got) - set(names))}", proc)
    for name, unit in names.items():
        value = got[name]["value"]
        expect(isinstance(value, (int, float)) and math.isfinite(value),
               f"{label}: {name} = {value!r}", proc)
        expect(got[name]["unit"] == unit, f"{label}: {name} unit {got[name]['unit']}", proc)


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append",
                        help="limit to these workloads (default: all)")
    args = parser.parse_args()
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    tiny = ["--seed", "5", "--seconds", "1", "--reps", "2"]

    for name in workloads:
        for trace, spec in ((0, bench["end_to_end"]), (1, bench["per_layer"])):
            proc, result = run(["--workload", name, "--trace", str(trace), *tiny])
            label = f"{name} trace={trace}"
            expect(proc.returncode == 0 and result is not None,
                   f"{label}: exit {proc.returncode}", proc)
            check_metrics(result, spec, label, proc)
            print(f"ok   {label}: {len(result['metrics'])} metrics")

    name = workloads[0]
    proc, result = run(["--workload", name, "--trace", "0", "--fault", "nan", *tiny])
    expect(proc.returncode != 0 and result is not None and result["correct"] is False
           and result["failed"] == 1, "a NaN estimate must fail the run", proc)
    print(f"ok   {name}: a NaN estimate exits {proc.returncode} with correct=false")

    proc, result = run(["--workload", name, "--trace", "0", "--fault", "raise",
                        "--seed", "5", "--seconds", "1", "--reps", "3"])
    expect(proc.returncode == 0 and result is not None and result["failed"] == 1
           and result["attempted"] == 3, "a raising replication must be counted", proc)
    print(f"ok   {name}: a raising replication is counted as failed, the run goes on")

    bare = HERE / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "perfbench").mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in HERE.iterdir():
        if path.is_file():
            shutil.copy(path, bare / "perfbench")
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", name,
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=bare, capture_output=True, text=True, timeout=180)
    shutil.rmtree(bare, ignore_errors=True)
    expect(proc.returncode != 0 and '"correct"' not in proc.stdout,
           "a checkout without sources must exit non-zero without a result", proc)
    print(f"ok   bare directory exits {proc.returncode} without a result")
    print("smoke passed")


if __name__ == "__main__":
    main()
