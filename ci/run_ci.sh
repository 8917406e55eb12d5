#!/usr/bin/env bash
# CI entry point:
#   1. static analysis: no tracked yukta_cache/ entry, yukta-lint
#      (always) + clang-tidy / cppcheck when the tools exist on the
#      runner,
#   2. tier-1 build (-DYUKTA_WERROR=ON, contracts off) + full ctest,
#      the bench smokes, and the repository benchmark's traced
#      fleet-churn and fleet-adapt-cold runs (perfbench/),
#   3. contracts build (-DYUKTA_CHECKS=ON -DYUKTA_WERROR=ON) + full
#      ctest with every YUKTA_REQUIRE / YUKTA_ENSURE / CHECK_FINITE
#      active,
#   4. runner and robust tests, and the fleet's multi-worker digest
#      tests, again under ThreadSanitizer (and, optionally, the whole
#      suite under ASan/UBSan with YUKTA_CI_ASAN=1),
#   5. optionally (YUKTA_CI_COVERAGE=1, the GitHub coverage job sets
#      it), a -DYUKTA_COVERAGE=ON build + ctest and the gcov
#      line-coverage floor on every src/ layer.
#
# Usage: ci/run_ci.sh [jobs]
set -euo pipefail

cd "$(dirname "$0")/.."
JOBS="${1:-$(nproc)}"

echo "=== design cache stays untracked ==="
# Entries are named by their synthesis inputs and rebuilt on demand; a
# committed entry could only hide a synthesizer change.
TRACKED_CACHE="$(git ls-files yukta_cache)"
if [[ -n "$TRACKED_CACHE" ]]; then
    echo "yukta_cache/ must not be tracked:"
    echo "$TRACKED_CACHE"
    exit 1
fi

echo "=== static analysis: yukta-lint ==="
python3 tools/lint/yukta_lint.py --self-test
python3 tools/lint/yukta_lint.py --jobs "$JOBS"

echo "=== tier-1: default build (-Werror) + full ctest ==="
# Warnings-as-errors here too, not only in the contracts build: code
# that compiles differently with contracts off (unused variables the
# macros would read) must stay warning-free as well.
cmake -B build -S . -DYUKTA_WERROR=ON >/dev/null

# The deeper audit consumes the compile_commands.json the configure
# step just exported: layer-DAG conformance (pinned against the
# committed golden graph), determinism bans, per-TU FP flag audit,
# and stale-suppression detection.
echo "=== static analysis: yukta-audit (compile-commands-driven) ==="
python3 tools/analyze/yukta_audit.py --self-test
python3 tools/analyze/yukta_audit.py \
    --compdb build/compile_commands.json \
    --graph-golden tools/analyze/layer_graph.golden

cmake --build build -j "$JOBS"
ctest --test-dir build --output-on-failure -j "$JOBS"

echo "=== micro-bench smoke: batched vs pointwise freq response ==="
# Correctness-gated (batch must match the pointwise oracle to 1e-10,
# and the mu sweep on 2 and 4 workers must equal the serial sweep bit
# for bit); the timings land in the JSON for trend inspection, never
# gate CI.
./build/bench/bench_micro_freq --quick --out build/BENCH_micro_freq.json

echo "=== micro-bench smoke: per-tick controller cost ==="
# Correctness-gated: the fixed-point path must track the double
# oracle (control::stepOnce).
./build/bench/bench_micro_tick --quick --out build/BENCH_micro_tick.json

echo "=== fleet smoke: admission gates + 1-vs-N determinism ==="
# Fails unless admission strictly cuts SLO-violation time in every
# overloaded scenario, leaves the un-overloaded one bit-identical,
# and the sharded run digests equal for 1 vs N pool workers.
./build/bench/bench_fleet --quick --out build/BENCH_fleet.json

echo "=== fleet fault smoke: aware-vs-blind gates + resume identity ==="
# Fails unless fault-aware mode strictly cuts SLO-violation time in
# every board-crash scenario, the watchdog recovers hung board-epochs,
# and both the faulted 1-vs-N and the checkpoint/restore digests match.
./build/bench/bench_fleet_faults --quick \
    --out build/BENCH_fleet_faults.json

echo "=== adaptation smoke: drift gates + no-drift/swap identity ==="
# Fails unless online adaptation strictly cuts constraint-violation
# time in every drifted scenario (with a real drift event and an
# installed hot-swap), the armed loop is bit-identical to disarmed on
# the shipped plant, and the 1-vs-N and checkpoint-across-the-swap
# digests match.
./build/bench/bench_adapt --quick --out build/BENCH_adapt.json

echo "=== crash-resume smoke: checkpoint, resume, digest-compare ==="
# Simulates an operator crash-recovery: one run checkpoints mid-flight,
# a second process restores the snapshot with a different worker count
# and runs to the end. The digests must match the uninterrupted run,
# both from a numbered snapshot and from the fleet-latest.ckpt alias
# (epoch 12 here) that README's --resume example uses. The run resumed
# from epoch 6 checkpoints again, and its fleet-12.ckpt must equal the
# uninterrupted run's byte for byte: that catches a field that is
# saved but not restored even where the digest does not show it.
CKPT_DIR="build/ci-ckpt"
RESUMED_CKPT_DIR="build/ci-ckpt-resumed"
rm -rf "$CKPT_DIR" "$RESUMED_CKPT_DIR"
FLEET_ARGS=(--boards=6 --sim-seconds=8 --seed=3 --supervised
            --faults='board1:crash@2+3;board4:hang@5+1')
FULL_DIGEST="$(./build/examples/yukta-fleet "${FLEET_ARGS[@]}" \
    --checkpoint-every=6 --checkpoint-dir="$CKPT_DIR" --digest)"
for CKPT in fleet-6.ckpt fleet-latest.ckpt; do
    RESUME_DIGEST="$(./build/examples/yukta-fleet "${FLEET_ARGS[@]}" \
        --resume="$CKPT_DIR/$CKPT" --workers=2 --checkpoint-every=6 \
        --checkpoint-dir="$RESUMED_CKPT_DIR" --digest)"
    if [[ "$FULL_DIGEST" != "$RESUME_DIGEST" ]]; then
        echo "crash-resume smoke FAILED ($CKPT): full $FULL_DIGEST vs resumed $RESUME_DIGEST"
        exit 1
    fi
done
if ! cmp "$CKPT_DIR/fleet-12.ckpt" "$RESUMED_CKPT_DIR/fleet-12.ckpt"; then
    echo "crash-resume smoke FAILED: the resumed run's fleet-12.ckpt differs"
    exit 1
fi
echo "crash-resume digests and fleet-12.ckpt match: $FULL_DIGEST"

echo "=== fleet CLI: bad flag values exit 2, never abort ==="
# A non-numeric flag is rejected while parsing; a value FleetSim
# refuses is reported once the artifacts exist. Both exit 2.
for BAD in --boards=abc --sim-seconds=-1; do
    set +e
    ./build/examples/yukta-fleet "$BAD" --quiet 2>/dev/null
    STATUS=$?
    set -e
    if [[ "$STATUS" -ne 2 ]]; then
        echo "yukta-fleet $BAD exited $STATUS, want 2"
        exit 1
    fi
done

# perfbench/ compiles against names in src/ (FleetBoard fields,
# stepPeriodBegin, ...), so this is what notices a src/ change that
# breaks the benchmark. run.py exits 0 even when a check fails, so
# the gate is the "correct" field of its last (JSON) line.
traced_benchmark() {
    local out
    out="$(CARGO_TARGET_DIR=build-bench python3 perfbench/run.py \
        --workload "$1" --trace 1)"
    echo "$out"
    if ! tail -n 1 <<<"$out" | python3 -c \
            'import json, sys; sys.exit(json.load(sys.stdin)["correct"] is not True)'; then
        echo "benchmark smoke FAILED ($1): not every check passed"
        exit 1
    fi
}

echo "=== repository benchmark: fleet-churn, traced replica ==="
traced_benchmark fleet-churn

echo "=== repository benchmark: fleet-adapt-cold, traced replica ==="
# The only check that compares the staged design flow's bytes with a
# cold fleetArtifacts() and runs an online D-K re-synthesis end to end.
traced_benchmark fleet-adapt-cold

# The generic analyzers read build/compile_commands.json (exported by
# default), so they run after the configure step. Both are gated on
# availability: the dev container ships neither, the GitHub runner
# installs both.
if command -v clang-tidy >/dev/null 2>&1; then
    echo "=== static analysis: clang-tidy ==="
    git ls-files 'src/*.cpp' 'bench/*.cpp' 'tests/*.cpp' \
        | xargs clang-tidy -p build --quiet --warnings-as-errors='*'
else
    echo "=== clang-tidy not installed; skipping ==="
fi

if command -v cppcheck >/dev/null 2>&1; then
    echo "=== static analysis: cppcheck ==="
    cppcheck --project=build/compile_commands.json \
             --enable=warning,portability --inline-suppr \
             --suppress='*:*/googletest/*' --suppress='*:*/benchmark/*' \
             --error-exitcode=1 --quiet -j "$JOBS"
else
    echo "=== cppcheck not installed; skipping ==="
fi

echo "=== contracts build: YUKTA_CHECKS=ON, -Werror + full ctest ==="
cmake -B build-checks -S . -DYUKTA_CHECKS=ON -DYUKTA_WERROR=ON >/dev/null
cmake --build build-checks -j "$JOBS"
ctest --test-dir build-checks --output-on-failure -j "$JOBS"

echo "=== fault matrix: supervised vs unsupervised smoke ==="
# With contracts on, any NaN escaping the supervisor aborts the run;
# the bench itself fails unless supervision strictly reduces
# constraint-violation time in every fault scenario.
./build-checks/bench/bench_faults --quick

echo "=== runner, robust + fleet tests under ThreadSanitizer ==="
# Availability-gated: probe whether this toolchain can link TSan
# before committing to the build (some containers ship a compiler
# without libtsan).
TSAN_PROBE="$(mktemp)"
if echo 'int main() { return 0; }' \
        | c++ -fsanitize=thread -x c++ - -o "$TSAN_PROBE" 2>/dev/null; then
    rm -f "$TSAN_PROBE"
    cmake -B build-tsan -S . -DYUKTA_SANITIZE=thread \
          -DCMAKE_BUILD_TYPE=RelWithDebInfo >/dev/null
    cmake --build build-tsan -j "$JOBS" \
          --target test_runner test_robust test_fleet
    # halt_on_error so a reported race fails CI instead of scrolling by.
    # test_robust holds the parallel mu sweep (parallel_for.h) and its
    # 1/2/4/16-worker bit-identity test.
    TSAN_OPTIONS="halt_on_error=1" \
        ctest --test-dir build-tsan -R '^test_(runner|robust)$' \
              --output-on-failure
    # The fleet's shared-nothing shard phase is the other place real
    # threads touch shared state; the 1-vs-N digest tests drive it
    # with 1, 2, and 4 workers, healthy and faulted (crash, hang, and
    # the watchdog's retried shard attempts). The cold re-synthesis
    # test runs an online D-K synthesis on 4 threads.
    TSAN_OPTIONS="halt_on_error=1" \
        ./build-tsan/tests/test_fleet \
        --gtest_filter='Fleet.RunIsBitIdenticalForAnyWorkerCount:FleetFaults.FaultedRunIsBitIdenticalForAnyWorkerCount:FleetAdapt.ColdResynthesisIsBitIdenticalAcrossWorkerCounts'
else
    rm -f "$TSAN_PROBE"
    echo "=== ThreadSanitizer unavailable on this toolchain; skipping ==="
fi

if [[ "${YUKTA_CI_COVERAGE:-0}" == "1" ]]; then
    echo "=== coverage build + line-coverage floor ==="
    cmake -B build-cov -S . -DYUKTA_COVERAGE=ON >/dev/null
    cmake --build build-cov -j "$JOBS"
    ctest --test-dir build-cov --output-on-failure -j "$JOBS"
    python3 tools/coverage_check.py --build-dir build-cov --floor 80
fi

if [[ "${YUKTA_CI_ASAN:-0}" == "1" ]]; then
    echo "=== full suite under AddressSanitizer + UBSan ==="
    cmake -B build-asan -S . -DYUKTA_SANITIZE=address,undefined \
          -DCMAKE_BUILD_TYPE=RelWithDebInfo >/dev/null
    cmake --build build-asan -j "$JOBS"
    ctest --test-dir build-asan --output-on-failure -j "$JOBS"
    ./build-asan/bench/bench_faults --quick
fi

echo "CI OK"
