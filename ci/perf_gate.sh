#!/usr/bin/env bash
# Perf regression gate: an A/B run of the benchmark of record
# (perfbench/run.py, see perfbench/METHODS.md) between a git ref and the
# working tree, judged by the bounds in BENCHMARK.json.
#
# Usage: ci/perf_gate.sh <git-ref>
#
# The ref's tree is exported with `git archive` to
# .bench_build/gate/<sha>/ (kept, so a second gate against the same ref
# skips its build).  For every workload in BENCHMARK.json the gate runs 8
# pairs of `perfbench/run.py --trace 0` of `run_seconds` each: one run on
# the ref's tree and one on the working tree, on the same seed, with the
# order alternating from pair to pair.  It prints, per workload and
# end-to-end metric, the ref's median and quartile distance (IQR), the
# working tree's median, the change in percent and the metric's bound.
#
# Exit status:
#   0  no regression
#   3  regression: an end-to-end metric's working-tree median is worse
#      than the ref's median by more than its bound, a run was not
#      `correct`, or the working tree's failed/attempted share is larger
#      than the ref's
#   any other non-zero status: the gate could not measure
#
# Run time: about 17 minutes on a 4-vCPU machine, plus one build of each
# tree (about a minute each) on a first run.
set -euo pipefail

if [ $# -ne 1 ]; then
  echo "usage: $0 <git-ref>" >&2
  exit 2
fi

repo="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
sha="$(git -C "$repo" rev-parse --verify --quiet "$1^{commit}")" || {
  echo "perf gate: '$1' does not name a commit" >&2
  exit 2
}
base="$repo/.bench_build/gate/$sha"
if [ ! -d "$base" ]; then
  mkdir -p "$base.partial"
  git -C "$repo" archive "$sha" | tar -x -C "$base.partial"
  mv "$base.partial" "$base"
fi

exec python3 - "$repo" "$base" "$1" <<'PY'
import json
import math
import os
import statistics
import subprocess
import sys

repo, base, ref = sys.argv[1:]
PAIRS = 8
EXIT_REGRESSION, EXIT_UNMEASURED = 3, 4
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}

with open(os.path.join(repo, "BENCHMARK.json")) as f:
    bench = json.load(f)
log_path = os.path.join(repo, ".bench_build", "gate", "runs.log")
open(log_path, "w").close()


def run(tree, workload, seed):
    """One perfbench run on `tree`; returns its result line as a dict."""
    with open(log_path, "a") as log:
        log.write(f"== {tree} {workload} seed {seed}\n")
        log.flush()
        proc = subprocess.run(
            [sys.executable, os.path.join(tree, "perfbench", "run.py"),
             "--workload", workload, "--seed", str(seed),
             "--seconds", str(bench["run_seconds"]), "--trace", "0"],
            stdout=subprocess.PIPE, stderr=log, text=True)
        log.write(proc.stdout)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except ValueError:
        result = None
    if not isinstance(result, dict) or not RESULT_KEYS <= result.keys():
        print(f"perf gate: {tree}: {workload} seed {seed} exited "
              f"{proc.returncode} without a result; see {log_path}",
              file=sys.stderr)
        sys.exit(EXIT_UNMEASURED)
    return result


failures = []
for workload in (w["name"] for w in bench["workloads"]):
    runs = {"parent": [], "change": []}
    for pair in range(PAIRS):
        seed = pair + 1
        order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
        for side in order:
            runs[side].append(run(base if side == "parent" else repo,
                                  workload, seed))
        print(f"{workload}: pair {pair + 1}/{PAIRS} (seed {seed}) done",
              flush=True)

    print(f"\n== {workload}: {PAIRS} pairs, {bench['run_seconds']} s runs, "
          f"parent {ref} vs working tree ==")
    print(f"{'metric':<18}{'parent median':>15}{'parent IQR':>13}"
          f"{'change median':>15}{'delta':>9}{'bound':>8}")
    for metric in bench["end_to_end"]:
        name = metric["name"]
        try:
            values = {side: [r["metrics"][name]["value"] for r in results]
                      for side, results in runs.items()}
        except KeyError:
            print(f"perf gate: {workload} result has no metric {name}",
                  file=sys.stderr)
            sys.exit(EXIT_UNMEASURED)
        parent = statistics.median(values["parent"])
        q1, _, q3 = statistics.quantiles(values["parent"], n=4)
        change = statistics.median(values["change"])
        if parent:
            delta = (change - parent) / abs(parent)
        else:
            delta = 0.0 if change == parent else math.inf
        worse = delta if metric["better"] == "lower" else -delta
        bad = worse > metric["bound"]
        print(f"{name:<18}{parent:>15.6g}{q3 - q1:>13.4g}{change:>15.6g}"
              f"{100 * delta:>+8.1f}%{100 * metric['bound']:>7.0f}%"
              f"{'  REGRESSED' if bad else ''}")
        if bad:
            failures.append(f"{workload} {name}: {100 * delta:+.1f} % "
                            f"(bound {100 * metric['bound']:.0f} %)")

    shares = {}
    for side, results in runs.items():
        failed = sum(r["failed"] for r in results)
        attempted = sum(r["attempted"] for r in results)
        shares[side] = failed / attempted if attempted else 0.0
        incorrect = sum(not r["correct"] for r in results)
        print(f"{side}: {failed} failed of {attempted} attempted, "
              f"{incorrect} of {len(results)} runs not correct")
        if incorrect:
            failures.append(f"{workload}: {incorrect} {side} run(s) not "
                            "correct")
    if shares["change"] > shares["parent"]:
        failures.append(f"{workload}: failed share {shares['change']:.3g} "
                        f"> parent's {shares['parent']:.3g}")

if failures:
    print("\nperf gate: REGRESSION")
    for failure in failures:
        print(f"  {failure}")
    sys.exit(EXIT_REGRESSION)
print("\nperf gate: OK")
PY
