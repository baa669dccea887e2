#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Every call configures and builds perfbench/
(which compiles the library from src/ in Release) into
$CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench; only the first
call compiles anything. Build output goes to standard error. The standard
output of rsets_perfbench is relayed unchanged: description lines starting
with "# ", then the result JSON as the last line. If the build or the run
fails, or the result does not list exactly the metrics BENCHMARK.json names
for the mode, this exits non-zero and prints no result.

--tiny and --break-set are passed through to rsets_perfbench (smoke check
only).
"""
import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
BUILD_TIMEOUT_S = 400  # per step; the first call builds, within 900 s
RUN_TIMEOUT_S = 175
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def build_dir():
    root = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return root.resolve() / "perfbench"


def build(out):
    """Configures and builds rsets_perfbench; returns its path."""
    subprocess.run(["cmake", "-S", str(HERE), "-B", str(out),
                    "-DCMAKE_BUILD_TYPE=Release"],
                   stdout=sys.stderr, check=True, timeout=BUILD_TIMEOUT_S)
    subprocess.run(["cmake", "--build", str(out), "--parallel", "4",
                    "--target", "rsets_perfbench"],
                   stdout=sys.stderr, check=True, timeout=BUILD_TIMEOUT_S)
    return out / "rsets_perfbench"


def expected_metrics(trace):
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    rows = spec["per_layer"] if trace else spec["end_to_end"]
    return {row["name"]: row["unit"] for row in rows}


def validate(stdout, trace):
    lines = stdout.strip().splitlines()
    if not lines:
        raise ValueError("rsets_perfbench printed nothing")
    result = json.loads(lines[-1])
    if set(result) != RESULT_KEYS:
        raise ValueError(f"result keys {sorted(result)}")
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    want = expected_metrics(trace)
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        units = sorted(n for n in set(got) & set(want) if got[n] != want[n])
        raise ValueError(f"metrics differ from BENCHMARK.json: missing "
                         f"{missing}, extra {extra}, wrong unit {units}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--break-set", action="store_true")
    args = parser.parse_args()

    out = build_dir()
    try:
        binary = build(out)
    except (OSError, subprocess.SubprocessError) as e:
        log(f"build failed: {e}")
        return 1

    tmp = out / "tmp" / f"{args.workload}-{os.getpid()}"
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--tmp", str(tmp)]
    if args.trace:
        spans = out / "spans"
        spans.mkdir(parents=True, exist_ok=True)
        name = f"{args.workload}-seed{args.seed}.jsonl"
        cmd += ["--spans", str(spans / name)]
    if args.tiny:
        cmd.append("--tiny")
    if args.break_set:
        cmd.append("--break-set")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except (OSError, subprocess.SubprocessError) as e:
        log(f"run failed: {e}")
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        log(f"rsets_perfbench exited with {proc.returncode}")
        return 1
    try:
        validate(proc.stdout, args.trace)
    except (ValueError, KeyError, TypeError) as e:
        sys.stderr.write(proc.stdout)
        log(f"bad result: {e}")
        return 1
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
