#!/usr/bin/env bash
# Sanitizer job: configures a sanitizer build tree through the
# project's own CMake options, builds it, then runs every test whose
# ctest label matches <ctest-label-regex> under the sanitizer.
#
# Usage: ci/sanitize.sh <asan|tsan> <ctest-label-regex> [build-dir]
#
#   asan   ASan + UBSan, float-to-int overflow included (GCC leaves
#          float-cast-overflow out of -fsanitize=undefined):
#          -DFPMPART_SANITIZE=address,undefined,float-cast-overflow,
#          default build dir build-asan
#   tsan   ThreadSanitizer (-DFPMPART_TSAN=ON), default build dir
#          build-tsan
#
# The documented runs (docs/operations.md section 3):
#
#   ci/sanitize.sh asan store               # WAL/recovery/crash/chaos suites
#   ci/sanitize.sh asan repl                # replication + SIGKILL drill
#   ci/sanitize.sh asan 'serve|store|repl|fault|parse'
#                                           # every parser of outside input
#   ci/sanitize.sh tsan 'serve|store|repl'  # serving stack, store, repl
#
#   FPMPART_BUILD_JOBS   build parallelism (default 2)
set -euo pipefail

usage() {
  echo "usage: $0 <asan|tsan> <ctest-label-regex> [build-dir]" >&2
  exit 2
}
[ $# -ge 2 ] && [ $# -le 3 ] || usage

repo="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
jobs="${FPMPART_BUILD_JOBS:-2}"

case "$1" in
  asan)
    option="-DFPMPART_SANITIZE=address,undefined,float-cast-overflow"
    build="${3:-$repo/build-asan}"
    export ASAN_OPTIONS="${ASAN_OPTIONS:-halt_on_error=1}"
    # UBSan only prints by default; a report must fail its test.
    export UBSAN_OPTIONS="${UBSAN_OPTIONS:-halt_on_error=1:print_stacktrace=1}"
    ;;
  tsan)
    option="-DFPMPART_TSAN=ON"
    build="${3:-$repo/build-tsan}"
    export TSAN_OPTIONS="${TSAN_OPTIONS:-halt_on_error=1}"
    ;;
  *)
    usage
    ;;
esac

# Configured on every run, so a tree from an older flag set picks up
# the current one (a no-op when nothing changed).
cmake -B "$build" -S "$repo" -DCMAKE_BUILD_TYPE=RelWithDebInfo "$option"

cmake --build "$build" -j "$jobs"
ctest --test-dir "$build" -L "$2" --output-on-failure -j 1
