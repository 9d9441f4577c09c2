#!/usr/bin/env bash
# CI driver: builds and tests the suite four ways — a plain Release build,
# then AddressSanitizer, ThreadSanitizer, and UBSan builds (MC_SANITIZE,
# see the top-level CMakeLists.txt). Each configuration uses its own build
# tree so the sanitizer runtimes never mix.
#
# Usage: tools/ci.sh [build-root]   (default build root: ./build-ci)
set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
build_root="${1:-${repo_root}/build-ci}"
jobs="$(nproc 2>/dev/null || echo 4)"

run_config() {
  local name="$1"
  local sanitize="$2"
  local build_dir="${build_root}/${name}"
  echo "==== [${name}] configure ===="
  cmake -B "${build_dir}" -S "${repo_root}" \
        -DCMAKE_BUILD_TYPE=Release \
        -DMC_SANITIZE="${sanitize}"
  echo "==== [${name}] build ===="
  cmake --build "${build_dir}" -j "${jobs}"
  echo "==== [${name}] test ===="
  ctest --test-dir "${build_dir}" --output-on-failure -j "${jobs}"
  # The tokenized-table determinism suite is the data-race canary of the
  # text plane's parallel build; run it by name so sanitizer logs call it
  # out even though the full ctest pass above already covers it.
  echo "==== [${name}] text-plane determinism ===="
  ctest --test-dir "${build_dir}" --output-on-failure \
        -R 'TokenizedTableDeterminismTest'
  # Kernel bit-identity, once per dispatch level: MC_SIMD_LEVEL pins the
  # startup dispatch, and the suite compares every usable level against the
  # scalar merge reference (tests/simd_kernels_test.cc). Under ASan/UBSan
  # this also bounds-checks the vector kernels' boundary loads.
  echo "==== [${name}] simd kernel equivalence per level ===="
  local level
  for level in scalar sse4 avx2; do
    MC_SIMD_LEVEL="${level}" ctest --test-dir "${build_dir}" \
        --output-on-failure -R 'SimdKernels'
  done
}

run_config release ""
run_config asan address
run_config tsan thread
run_config ubsan undefined

# Service chaos: the session-service survival contract (docs/robustness.md)
# under the sanitizers that catch what a green exit code can't — leaks and
# lifetime bugs under ASan, lock-order and data races under TSan. The fixed
# seed matrix re-runs the harness's concurrent fault/cancel/evict schedules
# beyond the built-in seeds; every admitted session must still end terminal.
echo "==== [service-chaos] chaos suite under ASan + TSan ===="
for config in asan tsan; do
  for seed in 101 202 303 8675309; do
    echo "---- [service-chaos] ${config} seed ${seed} ----"
    MC_CHAOS_SEED="${seed}" ctest --test-dir "${build_root}/${config}" \
        --output-on-failure -R 'ServiceChaosTest'
  done
done

# Delta equivalence: incremental plane/corpus/list patching must stay
# bit-identical to from-scratch rebuilds across randomized delta schedules,
# including faults mid-patch (a failed patch leaves the prior generation
# intact). ASan catches arena lifetime bugs in the CSR patchers; TSan
# catches races between ApplyTableDelta and in-flight sessions pinned to
# the superseded generation. The seed matrix extends the built-in seeds.
echo "==== [delta-equivalence] patch-vs-rebuild suite under ASan + TSan ===="
for config in asan tsan; do
  for seed in 7 1234 424242; do
    echo "---- [delta-equivalence] ${config} seed ${seed} ----"
    MC_DELTA_SEED="${seed}" ctest --test-dir "${build_root}/${config}" \
        --output-on-failure -R 'DeltaEquivalenceTest|ServiceEvictionTest'
  done
done

# Planner equivalence: the cost-based join planner must pick plans whose
# execution is bit-identical to running the same plan directly, across
# measures, k values, hybrid prefilter paths (done + forced restart), and
# the joint executor's q = 0 dispatch — and the decisions themselves must be
# deterministic per MC_PLANNER_SEED. The branch-and-bound q ladder must pick
# the exhaustive ladder's plan (PlannerLadderTest). ASan covers the sampling
# probes' view lifetimes and the probe list handed to the joint executor;
# the seed matrix moves the systematic-sample offset so different table-A
# row subsets drive the cost model each run.
echo "==== [planner] planner-vs-direct equivalence under ASan ===="
for seed in 42 31337 909090909; do
  echo "---- [planner] asan MC_PLANNER_SEED=${seed} ----"
  MC_PLANNER_SEED="${seed}" ctest --test-dir "${build_root}/asan" \
      --output-on-failure \
      -R 'PlannerEquivalence|ThresholdJoin|PlannerDeterminism|PlannerStatsDelta|PlannerLadder|JointPlanner'
done
# A root reused from the planner's probe finishes on a pool worker and
# cascades its children across the pool; TSan checks the hand-over.
echo "==== [planner] joint probe reuse under TSan ===="
ctest --test-dir "${build_root}/tsan" --output-on-failure -R 'JointPlanner'

# Blocking: the flat CandidateSet, the prefix-filter join's length,
# positional and alpha filters, and the interned tokenizers must never
# change a blocker's output. The executor equivalence suite, the
# CandidateSet unit suite, the soundness suites (threshold-boundary pairs,
# overlaps at alpha - 1 / alpha / alpha + 1, repeated-gram q-gram cells,
# every paper blocker against naive evaluation), and the tokenizer and
# StringIndex suites (adversarial bytes, a 1 MiB cell, forced hash
# collisions) run by name so sanitizer logs call them out. ASan
# bounds-checks the CSR posting index, the probe-state and alpha arrays,
# and the string index's slots; UBSan catches overflow in the size and
# position arithmetic.
echo "==== [blocking] executor/CandidateSet/filter/tokenizer soundness under ASan + UBSan ===="
for config in asan ubsan; do
  echo "---- [blocking] ${config} ----"
  ctest --test-dir "${build_root}/${config}" --output-on-failure \
      -R 'ExecutorEquivalenceTest|CandidateSetTest|PrefixFilterSoundnessTest|PaperBlockerSoundnessTest|TokenizerReferenceTest|StringIndexTest'
done

# Blocking identity: every paper blocker's output (size and sorted-pair
# checksum, from strings and over the text plane, six datasets x 3 seeds)
# must equal the committed record byte for byte. About 25 s on 4 cores.
echo "==== [blocking-identity] blocker_checksums vs bench/BLOCKER_CHECKSUMS.txt ===="
"${build_root}/release/bench/blocker_checksums" 2>/dev/null \
    | diff "${repo_root}/bench/BLOCKER_CHECKSUMS.txt" -

# Plan identity: every JoinPlan decision field the planner prints for the
# 74 paper-dataset cells (doubles in hex-float) must equal the committed
# record byte for byte. About 12 s.
echo "==== [plan-identity] plan_decisions vs bench/PLAN_DECISIONS.txt ===="
"${build_root}/release/bench/plan_decisions" 2>/dev/null \
    | diff "${repo_root}/bench/PLAN_DECISIONS.txt" -

# Join identity: every config's sorted list (CRC over pair ids and score
# bits), every config's TopKJoinStats counters and the q used, for joint
# runs on the paper datasets (q = 1..4, k = 100/300/1000, planner-probe and
# hybrid roots, forced four-shard runs), must equal the committed record
# byte for byte. The planner prices these counters, so they must stay
# exact. About 20 s on 4 cores.
echo "==== [join-identity] join_checksums vs bench/JOIN_CHECKSUMS.txt ===="
"${build_root}/release/bench/join_checksums" 2>/dev/null \
    | diff "${repo_root}/bench/JOIN_CHECKSUMS.txt" -

# Join engine: the event engine counts a probe's shared prefix with a
# rank-indexed stamp array and skips positions below q - 1. The counter
# suite (edge-case corpora with recorded counters), the brute-force
# equivalence harness and the property suite run by name under ASan and
# UBSan. The sanitizer trees build with _GLIBCXX_ASSERTIONS, which
# bounds-checks the arena-backed stamp array and rank-indexed posting lists
# (ASan alone cannot see past a vector's end inside an arena chunk); UBSan
# checks the position arithmetic.
echo "==== [join-engine] counter/equivalence/property suites under ASan + UBSan ===="
for config in asan ubsan; do
  echo "---- [join-engine] ${config} ----"
  ctest --test-dir "${build_root}/${config}" --output-on-failure \
      -R 'TopKJoinCounterTest|SsjEquivalenceTest|TopKJoinPropertyTest'
done

# Plan cache: cached-plan sessions must stay bit-identical to fresh-planned
# ones, the plan-cache fault point must degrade to re-planning (never wrong
# output), and options that do not affect the plan must not split the
# cache. ASan covers the cached-plan lifetimes; the seed matrix moves the
# randomized delta schedules of the invalidation tests.
echo "==== [plan-cache] plan-cache suite under ASan ===="
for seed in 5 17 90210; do
  echo "---- [plan-cache] asan MC_PLANCACHE_SEED=${seed} ----"
  MC_PLANCACHE_SEED="${seed}" ctest --test-dir "${build_root}/asan" \
      --output-on-failure -R 'PlanCache'
done

# Determinism: the joint executor's config and shard scheduling and the
# corpus's parallel build must give the same bytes at every thread count.
# Run by name under TSan so a race in either shows in the log as its own
# stage (DeltaEquivalenceTest already runs under TSan in
# [delta-equivalence]).
echo "==== [determinism] joint + corpus determinism under TSan ===="
ctest --test-dir "${build_root}/tsan" --output-on-failure \
    -R 'JointDeterminismTest|CorpusBuildDeterminismTest'

# Bench smoke: emit a perf record on a tiny workload and validate its schema
# (plus the committed archives). Catches drift between the JSON writer, the
# record schema, and tools/validate_bench_json.py without a full bench run.
# BENCH_planner.json is a historical archive: the q race it compares the
# planner against was removed, so it is validated but not re-emitted.
# BENCH_numa.json is archive-only: micro_numa and the placement layer it
# measured were removed, so it is neither re-emitted nor validated.
echo "==== [bench-smoke] emit + validate perf record ===="
bench_json="${build_root}/release/bench_smoke.json"
"${build_root}/release/bench/micro_ssj" \
    --json="${bench_json}" --engine=ci-smoke --scale=0.002 --reps=1
joint_json="${build_root}/release/bench_smoke_joint.json"
"${build_root}/release/bench/micro_joint" \
    --json="${joint_json}" --engine=ci-smoke --scale=0.05 --reps=1 --k=50
text_json="${build_root}/release/bench_smoke_text.json"
"${build_root}/release/bench/micro_text" \
    --json="${text_json}" --engine=ci-smoke --scale=0.1 --reps=1 --pairs=2000
# micro_kernels: one smoke record per dispatch level, merged into a single
# array so the validator's cross-level checksum-equality check runs on
# fresh data (not just the committed archive).
kernels_json="${build_root}/release/bench_smoke_kernels.json"
for level in scalar sse4 avx2; do
  "${build_root}/release/bench/micro_kernels" \
      --json="${build_root}/release/bench_smoke_kernels_${level}.json" \
      --engine=ci-smoke --simd-level="${level}" \
      --spans=512 --pairs=20000 --verifier-rows=120 --reps=1
done
python3 - "${kernels_json}" \
    "${build_root}/release/bench_smoke_kernels_"{scalar,sse4,avx2}.json \
    <<'PY'
import json, sys
out, *parts = sys.argv[1:]
json.dump([json.load(open(p)) for p in parts], open(out, "w"), indent=1)
PY
service_json="${build_root}/release/bench_smoke_service.json"
"${build_root}/release/bench/micro_service" \
    --json="${service_json}" --engine=ci-smoke --scale=0.02 --reps=1 \
    --sessions=4 --concurrency=2
# micro_delta exits 1 on any patch-vs-rebuild divergence; the validator
# re-checks the checksum equality on both the smoke record and the archive.
delta_json="${build_root}/release/bench_smoke_delta.json"
"${build_root}/release/bench/micro_delta" \
    --json="${delta_json}" --engine=ci-smoke --scale=0.05 --reps=1 \
    --generations=3
# micro_plancache exits 1 unless every cached-plan session is bit-identical
# to the fresh-planned arm; the validator re-checks the cached-vs-fresh
# checksum equality on the smoke record and the archive.
plancache_json="${build_root}/release/bench_smoke_plancache.json"
"${build_root}/release/bench/micro_plancache" \
    --json="${plancache_json}" --engine=ci-smoke --scale=0.02 --reps=1 \
    --sessions=3
python3 "${repo_root}/tools/validate_bench_json.py" \
    "${bench_json}" "${joint_json}" "${text_json}" "${kernels_json}" \
    "${service_json}" "${delta_json}" "${plancache_json}" \
    "${repo_root}/bench/BENCH_ssj.json" \
    "${repo_root}/bench/BENCH_joint.json" \
    "${repo_root}/bench/BENCH_text.json" \
    "${repo_root}/bench/BENCH_kernels.json" \
    "${repo_root}/bench/BENCH_service.json" \
    "${repo_root}/bench/BENCH_delta.json" \
    "${repo_root}/bench/BENCH_planner.json" \
    "${repo_root}/bench/BENCH_plancache.json"

echo "==== all configurations passed ===="
