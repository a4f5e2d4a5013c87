#!/usr/bin/env bash
# Sanitizer job: configures (once) a sanitizer build tree through the
# project's own CMake options, builds it, then runs every test whose
# ctest label matches <ctest-label-regex> under the sanitizer.
#
# Usage: ci/sanitize.sh <asan|tsan> <ctest-label-regex> [build-dir]
#
#   asan   ASan + UBSan (-DFPMPART_SANITIZE=address,undefined),
#          default build dir build-asan
#   tsan   ThreadSanitizer (-DFPMPART_TSAN=ON), default build dir
#          build-tsan
#
# The three documented runs (docs/operations.md section 3):
#
#   ci/sanitize.sh asan store               # WAL/recovery/crash/chaos suites
#   ci/sanitize.sh asan repl                # replication + SIGKILL drill
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
    option="-DFPMPART_SANITIZE=address,undefined"
    build="${3:-$repo/build-asan}"
    export ASAN_OPTIONS="${ASAN_OPTIONS:-halt_on_error=1}"
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

if [ ! -f "$build/CMakeCache.txt" ]; then
  cmake -B "$build" -S "$repo" -DCMAKE_BUILD_TYPE=RelWithDebInfo "$option"
fi

cmake --build "$build" -j "$jobs"
ctest --test-dir "$build" -L "$2" --output-on-failure -j 1
