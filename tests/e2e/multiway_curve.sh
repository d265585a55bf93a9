#!/usr/bin/env bash
# Multiway speedup curve against the committed baseline: the full suite's
# chain-depth curve (paper figures 8/9 extended to N = 1, 2 and 4).
# bench_multiway fails unless at least one workload keeps gaining at every
# depth; bench_compare then holds every simulated metric in every row to
# BENCH_multiway.json exactly (the sweep schema has no host_ fields, so
# any drift fails). Usage: multiway_curve.sh BUILD
set -eu -o pipefail
root="$(dirname "$(realpath "$0")")/../.."
. "$root/tests/e2e/lib.sh"
"$build/bench/bench_multiway" --jobs 4 --json multiway_bench.json
python3 "$root/tools/bench_compare.py" \
  "$root/BENCH_multiway.json" multiway_bench.json
