#!/usr/bin/env python3
"""Smoke check of the benchmark itself, at 1/100 of the real input sizes.

    python3 perfbench/smoke.py

For every workload in BENCHMARK.json it runs perfbench/run.py untraced and
traced and requires a correct result carrying every metric BENCHMARK.json
names for that mode, with its unit (run.py refuses anything else). It then
runs each workload untraced with --break-set, which hands every set-taking
check a copy of the set with one member removed, and requires the run to
report failures (failed > 0, so failed/attempted > 0, and correct false).
Exits 0 and prints "smoke: PASS" when all of that holds.
"""
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def run(workload, trace, *extra):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", "7", "--seconds", "1", "--trace", str(trace), "--tiny",
           *extra]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=900)
    if proc.returncode != 0:
        raise AssertionError(f"{' '.join(cmd)} exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    failures = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            result = run(workload, trace)
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {n: m["unit"] for n, m in result["metrics"].items()}
            ok = (result["correct"] and result["failed"] == 0
                  and result["attempted"] > 0 and got == want)
            print(f"{workload} trace={trace}: attempted={result['attempted']}"
                  f" failed={result['failed']} metrics={len(got)}"
                  f" {'ok' if ok else 'FAIL'}")
            if not ok:
                failures.append(f"{workload} trace={trace}")
        broken = run(workload, 0, "--break-set")
        ratio = broken["failed"] / broken["attempted"]
        ok = ratio > 0 and not broken["correct"]
        print(f"{workload} --break-set: failed_ratio={ratio:.6g}"
              f" {'ok' if ok else 'FAIL'}")
        if not ok:
            failures.append(f"{workload} --break-set")
    if failures:
        print("smoke: FAIL " + ", ".join(failures))
        return 1
    print("smoke: PASS")
    return 0


if __name__ == "__main__":
    sys.exit(main())
