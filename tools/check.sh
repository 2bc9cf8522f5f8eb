#!/bin/sh
# CI gate, in three stages, each a ctest run:
#
#   --lint   warnings-as-errors build of the whole tree
#            (-DSHRIMP_STRICT=ON), then shrimp_lint (project
#            invariants) over the tree and its fixture self-test
#            (ctest `lint`, `lint_selftest`), then clang-tidy (generic
#            hygiene, .clang-tidy) over the exported
#            compile_commands.json
#   --asan   ASan+UBSan build: the full ctest suite -- unit tests, the
#            claims table (`claims`), the trace/stats/chaos artifact
#            validators, the chaos soaks (with and without partitions)
#            and every same-seed determinism probe
#   --tsan   ThreadSan build: retransmit + chaos soak, and every
#            same-seed determinism probe (ctest label `determinism`)
#            under TSan instrumentation. The simulator runs on one
#            thread, so today this holds those runs deterministic and
#            clean under TSan; it finds races only once something
#            threads them (parallel simulation, ROADMAP's Parked list)
#
# With no stage flags, all three run. Any other argument is a usage
# error (exit 2), so a misspelt stage never runs the whole gate.
set -eu

repo=$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)
jobs=$(nproc)

run_lint=0
run_asan=0
run_tsan=0
usage="usage: tools/check.sh [--lint] [--asan] [--tsan]"
for arg in "$@"; do
    case "$arg" in
      --lint) run_lint=1 ;;
      --asan) run_asan=1 ;;
      --tsan) run_tsan=1 ;;
      -h|--help)
        echo "$usage"
        exit 0
        ;;
      *)
        echo "check.sh: unknown argument '$arg'" >&2
        echo "$usage" >&2
        exit 2
        ;;
    esac
done
if [ "$run_lint$run_asan$run_tsan" = "000" ]; then
    run_lint=1
    run_asan=1
    run_tsan=1
fi

# ---------------------------------------------------------------- lint
if [ "$run_lint" = 1 ]; then
    lint_build="$repo/build-lint"
    # Every compiler warning fails the stage: an unused parameter or
    # variable left behind by a refactor is caught here.
    cmake -B "$lint_build" -S "$repo" -DCMAKE_BUILD_TYPE=RelWithDebInfo \
        -DSHRIMP_STRICT=ON
    cmake --build "$lint_build" -j "$jobs"

    # Any finding fails the stage; the self-test proves each rule
    # still fires on its bad fixture.
    (cd "$lint_build" && ctest --output-on-failure -R '^lint(_selftest)?$')

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
    asan_build="$repo/build-asan"
    cmake -B "$asan_build" -S "$repo" \
        -DCMAKE_BUILD_TYPE=RelWithDebInfo \
        -DSHRIMP_SANITIZE=address,undefined
    cmake --build "$asan_build" -j "$jobs"

    # halt_on_error makes UBSan findings fail the run instead of printing.
    cd "$asan_build"
    ASAN_OPTIONS=detect_leaks=1 \
    UBSAN_OPTIONS=halt_on_error=1:print_stacktrace=1 \
        ctest --output-on-failure -j "$jobs"
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

    # The reliability layer and the chaos soak are the workloads a
    # parallel simulator (ROADMAP, Parked) would thread first; they
    # stay gated under TSan so a race shows the day threading lands.
    ctest --output-on-failure -j "$jobs" \
        -R '^Retransmit\.|^ChaosSoak\.|^cli_chaos_seed'

    # Same-seed determinism must hold under TSan instrumentation too:
    # every probe's two reports must be byte-identical.
    ctest --output-on-failure -j "$jobs" -L determinism
    echo "check.sh: tsan stage passed"
fi

echo "check.sh: all requested stages passed"
