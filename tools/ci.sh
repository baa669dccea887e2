#!/usr/bin/env sh
# Full local CI: the gates a change must pass before merging.
#
#   1. Regular build + complete test suite (ctest).
#   2. ThreadSanitizer pass over the round-parallel simulator and its
#      parallel barrier: unit tests, the barrier-parity suite, and a short
#      thread-width-rotating chaos soak (tools/check_tsan.sh).
#   3. AddressSanitizer + UBSan build of the complete test suite
#      (RSETS_SANITIZE=address,undefined), run under halt-on-error.
#   4. Record/recover/replay gate for the fault subsystem
#      (tools/check_replay.sh).
#   5. Fuzz smoke: 30 s each on the edge-list, flag parser, checkpoint
#      decoder, and service update-stream harnesses (fuzz/); the updates
#      harness alternates between the plain stream parser and producer-
#      tagged multi-producer ingest (strikes/ejection/backpressure paths).
#      Any escaping exception or crash fails the gate.
#   6. Degrade parity: strict vs. degrade runs of every MPC algorithm on
#      the E1 graph family must produce byte-identical ruling sets while
#      the degrade run reports degraded_subrounds > 0.
#   7. Integrity parity: fault-free runs with --integrity must be
#      byte-identical to plain runs (set and ledger), and corrupted runs
#      must heal to the same set (tools/check_integrity_parity.sh).
#   8. Chaos soak smoke: 200 seeded mixed-fault schedules across every MPC
#      algorithm; each faulty run must match its fault-free twin
#      bit-for-bit and certify (60 s budget; the soak runs in ~5 s).
#  8b. Churn soak: 100 seeded mixed fault+churn schedules drive a live
#      RulingSetService (greedy + every MPC algorithm) through update
#      batches from one producer, via the same ingest engine as 8c. Taken
#      generations must equal the producer's committed batches; after every
#      drained batch the maintained set must be bit-identical to a
#      fault-free from-scratch recompute (plus the repair ledger and
#      record-log bodies on single-rerun epochs); point queries must match
#      brute force and pinned handles stay frozen; every third schedule
#      crashes mid-batch and recovers from its sealed journal; every final
#      state must match a from-scratch twin and certify in-model +
#      cross-validate.
#  8c. Concurrent churn soak: the same engine with the churn split across a
#      4-producer ingest front, driven by seeded interleavings (bounded
#      queues, backpressure, and poisoned-stream quarantine/ejection
#      flavors, which need a second producer); the same parity battery
#      applies, with the twin fed the merged generation sequence.
#  8d. Benchmark smoke: perfbench/smoke.py runs every BENCHMARK.json
#      workload at 1/100 size, traced and untraced, and requires a correct
#      result carrying every declared metric, plus a reported failure when
#      the checked set is deliberately broken (~15 s).
#  8e. One-shot output pin: perfbench's two one-shot workloads at full
#      scale (seed 1, 1 s) must print their recorded `# output` lines —
#      the same ruling set (size and hash), round count and word count.
#   9. Sharded-generation gate: the cross-shard validator plus a
#      10^7-edge out-of-core smoke run (sharded graph500, spill-backed,
#      certified in-model) through rsets_cli --sharded.
#  10. Bench baseline gate: checked-in bench/baselines/*.json must carry
#      release stamps on both build-type fields (the E12 shard_ooc, E13
#      serve_churn, and E14 serve_concurrent baselines must exist, the
#      serving rows with certified=1), a Release re-run of the E1b
#      transport-storm and E1c
#      barrier-scaling rows must stay within a generous real_time tolerance
#      of them, and every E1c row must report identical=1
#      (tools/check_bench_baseline.sh).
#
# Usage: tools/ci.sh
#
# Build trees: build/ (regular), build-tsan/, build-asan/, build-release/ —
# each gate keeps its own tree so reruns are incremental.
set -eu

repo_root=$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)
jobs=$(nproc)

echo "=== ci: build + ctest ==="
cmake -B "$repo_root/build" -S "$repo_root"
cmake --build "$repo_root/build" -j "$jobs"
ctest --test-dir "$repo_root/build" -j "$jobs" --output-on-failure

echo "=== ci: thread sanitizer (simulator contract) ==="
"$repo_root/tools/check_tsan.sh" "$repo_root/build-tsan"

echo "=== ci: address+undefined sanitizers (full suite) ==="
cmake -B "$repo_root/build-asan" -S "$repo_root" \
      -DRSETS_SANITIZE=address,undefined -DCMAKE_BUILD_TYPE=RelWithDebInfo
cmake --build "$repo_root/build-asan" --target rsets_tests -j "$jobs"
ASAN_OPTIONS="halt_on_error=1 ${ASAN_OPTIONS:-}" \
UBSAN_OPTIONS="halt_on_error=1 print_stacktrace=1 ${UBSAN_OPTIONS:-}" \
    ctest --test-dir "$repo_root/build-asan" -j "$jobs" --output-on-failure

echo "=== ci: record/recover/replay gate ==="
"$repo_root/tools/check_replay.sh" "$repo_root/build"

echo "=== ci: fuzz smoke (io + flags + checkpoint + updates harnesses) ==="
"$repo_root/build/fuzz/fuzz_io" --seconds=30
"$repo_root/build/fuzz/fuzz_flags" --seconds=30
"$repo_root/build/fuzz/fuzz_checkpoint" --seconds=30
"$repo_root/build/fuzz/fuzz_updates" --seconds=30

echo "=== ci: degrade parity (strict vs degrade on the E1 family) ==="
"$repo_root/tools/check_degrade_parity.sh" "$repo_root/build"

echo "=== ci: integrity parity (plain vs --integrity vs corrupted) ==="
"$repo_root/tools/check_integrity_parity.sh" "$repo_root/build"

echo "=== ci: chaos soak (200 seeded mixed-fault schedules) ==="
timeout 60 "$repo_root/build/tools/chaos_soak" --schedules=200 --seed=1

echo "=== ci: churn soak (100 mixed fault+churn schedules, journaled) ==="
# Every schedule drives greedy plus all MPC algorithms through a live
# service under edge churn and injected faults, one producer feeding the
# ingest front; every drained batch must be bit-identical to a fault-free
# from-scratch recompute, every third schedule crashes mid-batch and
# recovers from its sealed journal, and every final state matches a
# from-scratch twin and is certified in-model + cross-validated.
churn_tmp=$(mktemp -d)
timeout 600 "$repo_root/build/tools/chaos_soak" --churn --schedules=100 \
    --seed=1 --journal_dir="$churn_tmp"
rm -rf "$churn_tmp"

echo "=== ci: concurrent churn soak (100 schedules, 4-producer ingest) ==="
# The same engine with four producers: seeded line-interleavings add
# backpressure and per-producer quarantine/ejection + tombstone journaling
# to the battery above.
cchurn_tmp=$(mktemp -d)
timeout 900 "$repo_root/build/tools/chaos_soak" --churn --producers=4 \
    --schedules=100 --seed=1 --journal_dir="$cchurn_tmp"
rm -rf "$cchurn_tmp"

echo "=== ci: benchmark smoke (perfbench at 1/100 size) ==="
# Builds perfbench's own Release tree (.bench_build/ under the repo root) and
# checks that every workload still reports correct results and every
# declared metric.
(cd "$repo_root" && python3 perfbench/smoke.py)

echo "=== ci: one-shot output pin (perfbench at full scale) ==="
# A faster solve must be the same solve: the set, rounds and words of both
# full-size one-shot workloads are pinned to their recorded values.
pin_output() {
  got=$(cd "$repo_root" && python3 perfbench/run.py --workload "$1" \
        --seed 1 --seconds 1 --trace 0 | sed -n 's/^# output //p')
  if [ "$got" != "$2" ]; then
    echo "ci: $1 output is '$got', expected '$2'" >&2
    exit 1
  fi
}
pin_output oneshot-sparse \
    "set_size=54809 set_hash=a7420087df8dcefb rounds=6 words=2833057"
pin_output oneshot-dense \
    "set_size=3176 set_hash=247fd9f809377eb6 rounds=76 words=407909"

echo "=== ci: sharded generation (validator + 10^7-edge out-of-core smoke) ==="
# graph500 scale=20, edgefactor=16: 2^24 ~ 1.7e7 raw edges, streamed and
# spilled — never materialized. The run must validate its shards, complete
# det_ruling, and certify in-model (exit 0 is the whole contract).
shard_tmp=$(mktemp -d)
"$repo_root/build/tools/rsets_cli" \
    --sharded=graph500:scale=20,edgefactor=16 --machines=8 \
    --memory_words=67108864 --validate-shards --spill-dir="$shard_tmp" \
    --algorithm=det_ruling_mpc --beta=2 > "$shard_tmp/out.txt"
grep -q '^shards_valid=1$' "$shard_tmp/out.txt"
grep -q '^certified=1$' "$shard_tmp/out.txt"
rm -rf "$shard_tmp"

echo "=== ci: bench baseline (release-recorded, within tolerance) ==="
"$repo_root/tools/check_bench_baseline.sh" "$repo_root/build-release"

echo "ci: PASS"
