#!/bin/sh
# CI gate, in six stages:
#
#   --lint   shrimp_lint (project invariants) + fixture self-test +
#            clang-tidy (generic hygiene, .clang-tidy) over the
#            exported compile_commands.json
#   --asan   ASan+UBSan build: full test suite, trace/stats/chaos
#            artifact validation, bench artifact smoke
#   --tsan   ThreadSan build (groundwork for the PDES scale-out):
#            retransmit + chaos soak, and every same-seed determinism
#            probe (ctest label `determinism`)
#   --overload  sanitized overload soak: the full incast/all-to-all
#            sweep through the congestion-collapse gate, plus the
#            determinism probe of a chaos soak with the overload burst
#            phases cranked up
#   --dsm    sanitized DSM gate: the Dsm + vm unit suites, the
#            stencil/migratory bench through the latency/progress
#            schema check, and the chaos-with-DSM determinism probe
#   --partition  sanitized partition-tolerance gate: the partition/
#            fault-model unit suite, bench_partition through the
#            heal-time schema check, and chaos soaks with network
#            partition phases enabled (three seeds, every invariant,
#            plus the partition determinism probe)
#
# With no stage flags, all six run (lint, asan, tsan, overload, dsm,
# partition).
# A trailing positional argument overrides the ASan build dir
# (back-compat).
set -eu

repo=$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)
jobs=$(nproc)

run_lint=0
run_asan=0
run_tsan=0
run_overload=0
run_dsm=0
run_partition=0
asan_build="$repo/build-asan"
for arg in "$@"; do
    case "$arg" in
      --lint) run_lint=1 ;;
      --asan) run_asan=1 ;;
      --tsan) run_tsan=1 ;;
      --overload) run_overload=1 ;;
      --dsm) run_dsm=1 ;;
      --partition) run_partition=1 ;;
      -h|--help)
        echo "usage: tools/check.sh [--lint] [--asan] [--tsan] [--overload] [--dsm] [--partition] [asan-build-dir]"
        exit 0
        ;;
      *) asan_build="$arg" ;;
    esac
done
if [ "$run_lint$run_asan$run_tsan$run_overload$run_dsm$run_partition" = \
    "000000" ]; then
    run_lint=1
    run_asan=1
    run_tsan=1
    run_overload=1
    run_dsm=1
    run_partition=1
fi

# ---------------------------------------------------------------- lint
if [ "$run_lint" = 1 ]; then
    lint_build="$repo/build-lint"
    cmake -B "$lint_build" -S "$repo" -DCMAKE_BUILD_TYPE=RelWithDebInfo
    cmake --build "$lint_build" -j "$jobs" --target shrimp_lint

    # Any finding fails the stage; the self-test proves each rule
    # still fires on its bad fixture.
    "$lint_build/tools/shrimp_lint" \
        "$repo/src" "$repo/tests" "$repo/bench" "$repo/tools"
    "$lint_build/tools/shrimp_lint" --selftest "$repo/tests/lint_fixtures"

    # clang-tidy needs the compilation database, which the configure
    # above exports. The toolchain image may not ship clang-tidy;
    # missing tool = skipped (the shrimp_lint gate above still ran),
    # any finding = hard failure (WarningsAsErrors: '*').
    if command -v clang-tidy > /dev/null 2>&1; then
        find "$repo/src" "$repo/tools" -name '*.cc' \
                ! -path '*lint_fixtures*' -print0 |
            xargs -0 clang-tidy --quiet -p "$lint_build"
    else
        echo "check.sh: clang-tidy not installed; skipping (shrimp_lint ran)" >&2
    fi
    echo "check.sh: lint stage passed"
fi

# ---------------------------------------------------------------- asan
if [ "$run_asan" = 1 ]; then
    cmake -B "$asan_build" -S "$repo" \
        -DCMAKE_BUILD_TYPE=RelWithDebInfo \
        -DSHRIMP_SANITIZE=address,undefined
    cmake --build "$asan_build" -j "$jobs"

    # halt_on_error makes UBSan findings fail the run instead of printing.
    cd "$asan_build"
    ASAN_OPTIONS=detect_leaks=1 \
    UBSAN_OPTIONS=halt_on_error=1:print_stacktrace=1 \
        ctest --output-on-failure -j "$jobs"

    # Trace-enabled smoke run (under the sanitizers): record a full
    # 2-node workload trace + stats dump and validate both schemas.
    ./tools/shrimp_explore stats \
        --trace-out check_trace.json --stats-json check_stats.json \
        > /dev/null
    ./tools/shrimp_validate trace check_trace.json
    ./tools/shrimp_validate stats check_stats.json

    # Traced chaos soak under the sanitizers (the ctest run above
    # already covered the fixed seeds and the determinism probes).
    ./tools/shrimp_explore chaos --seed 1 \
        --json check_chaos1.json --trace-out check_chaos_trace.json \
        > /dev/null
    ./tools/shrimp_validate chaos check_chaos1.json
    ./tools/shrimp_validate trace check_chaos_trace.json

    # Every benchmark binary must emit a schema-valid BENCH_<name>.json.
    # One fast case per binary keeps the gate quick; artifact writing is
    # independent of which cases run.
    cd "$asan_build/bench"
    rm -f BENCH_*.json
    ./bench_latency --benchmark_filter='EisaPrototype/1' > /dev/null
    ./bench_bandwidth --benchmark_filter='EisaPrototype/16' > /dev/null
    ./bench_mesh --benchmark_filter='ZeroLoadLatencyByHops/1' > /dev/null
    "$asan_build/tools/shrimp_validate" bench BENCH_*.json
    echo "check.sh: asan stage passed"
fi

# ---------------------------------------------------------------- tsan
if [ "$run_tsan" = 1 ]; then
    tsan_build="$repo/build-tsan"
    cmake -B "$tsan_build" -S "$repo" \
        -DCMAKE_BUILD_TYPE=RelWithDebInfo \
        -DSHRIMP_SANITIZE=thread
    cmake --build "$tsan_build" -j "$jobs"

    cd "$tsan_build"
    export TSAN_OPTIONS=halt_on_error=1

    # The reliability layer and the chaos soak are the workloads the
    # PDES scale-out will thread first; gate them under TSan now so
    # data races surface the day threading lands, not a release later.
    ctest --output-on-failure -j "$jobs" \
        -R '^Retransmit\.|^ChaosSoak\.|^cli_chaos_seed'

    # Same-seed determinism must hold under TSan instrumentation too:
    # every probe's two reports must be byte-identical.
    ctest --output-on-failure -j "$jobs" -L determinism
    echo "check.sh: tsan stage passed"
fi

# ------------------------------------------------------------ overload
if [ "$run_overload" = 1 ]; then
    # Reuses the ASan build (sanitized overload is the point); build
    # it if the --asan stage didn't run this invocation.
    cmake -B "$asan_build" -S "$repo" \
        -DCMAKE_BUILD_TYPE=RelWithDebInfo \
        -DSHRIMP_SANITIZE=address,undefined
    cmake --build "$asan_build" -j "$jobs" \
        --target bench_overload shrimp_explore shrimp_validate

    # Full load sweep through the congestion-collapse gate: goodput at
    # the highest incast point must hold >= 80% of the sweep's peak.
    cd "$asan_build/bench"
    rm -f BENCH_overload.json
    UBSAN_OPTIONS=halt_on_error=1:print_stacktrace=1 \
        ./bench_overload > /dev/null
    "$asan_build/tools/shrimp_validate" overload BENCH_overload.json

    # Chaos soak with the overload phases cranked up: more incast
    # bursts, heavier bursts, same determinism bar (same seed twice
    # must byte-match).
    cd "$asan_build"
    ctest --output-on-failure -j "$jobs" -L determinism -R overload
    echo "check.sh: overload stage passed"
fi

# ----------------------------------------------------------------- dsm
if [ "$run_dsm" = 1 ]; then
    # Reuses the ASan build: the DSM protocol's callback plumbing is
    # exactly where lifetime bugs would hide.
    cmake -B "$asan_build" -S "$repo" \
        -DCMAKE_BUILD_TYPE=RelWithDebInfo \
        -DSHRIMP_SANITIZE=address,undefined
    cmake --build "$asan_build" -j "$jobs" \
        --target dsm_test vm_test bench_dsm shrimp_explore \
        shrimp_validate

    # The coherence/failure unit suites and the hardened VM layer, all
    # sanitized.
    cd "$asan_build"
    ASAN_OPTIONS=detect_leaks=1 \
    UBSAN_OPTIONS=halt_on_error=1:print_stacktrace=1 \
        ctest --output-on-failure -j "$jobs" \
        -R '^Dsm\.|^PageTable\.|^FrameAllocator\.|^AddressSpace\.'

    # Stencil + migratory drivers through the latency/progress gate.
    cd "$asan_build/bench"
    rm -f BENCH_dsm.json
    UBSAN_OPTIONS=halt_on_error=1:print_stacktrace=1 \
        ./bench_dsm > /dev/null
    "$asan_build/tools/shrimp_validate" dsm BENCH_dsm.json

    # Chaos with the DSM phase cranked up: directory invariants hold
    # under crashes and flaps, and the run stays a pure function of
    # the seed (same seed twice -> byte-identical reports).
    cd "$asan_build"
    ctest --output-on-failure -j "$jobs" -L determinism -R dsm
    echo "check.sh: dsm stage passed"
fi

# ----------------------------------------------------------- partition
if [ "$run_partition" = 1 ]; then
    # Reuses the ASan build: epoch fencing and split-brain recovery are
    # pointer-heavy callback code, exactly where lifetime bugs hide.
    cmake -B "$asan_build" -S "$repo" \
        -DCMAKE_BUILD_TYPE=RelWithDebInfo \
        -DSHRIMP_SANITIZE=address,undefined
    cmake --build "$asan_build" -j "$jobs" \
        --target partition_test bench_partition shrimp_explore \
        shrimp_validate

    # Membership, fencing, and route-around unit suites, sanitized.
    cd "$asan_build"
    ASAN_OPTIONS=detect_leaks=1 \
    UBSAN_OPTIONS=halt_on_error=1:print_stacktrace=1 \
        ctest --output-on-failure -j "$jobs" \
        -R '^Partition\.|^FaultModelTest\.|^RouterPartition\.'

    # Partition/heal sweep through the heal-time schema gate.
    cd "$asan_build/bench"
    rm -f BENCH_partition.json
    UBSAN_OPTIONS=halt_on_error=1:print_stacktrace=1 \
        ./bench_partition > /dev/null
    "$asan_build/tools/shrimp_validate" partition BENCH_partition.json

    # Chaos with network-partition phases on: three seeds must hold
    # every global invariant (no split-brain writebacks, exactly-once
    # re-homing, full reintegration), and the run stays a pure
    # function of the seed (same seed twice -> byte-identical).
    cd "$asan_build"
    for seed in 2 3; do
        ./tools/shrimp_explore chaos --seed "$seed" --partitions 2 \
            --json "check_part${seed}.json" > /dev/null
        ./tools/shrimp_validate chaos "check_part${seed}.json"
    done
    ctest --output-on-failure -j "$jobs" -L determinism -R partition
    echo "check.sh: partition stage passed"
fi

echo "check.sh: all requested stages passed"
