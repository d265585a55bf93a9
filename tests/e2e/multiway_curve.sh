#!/usr/bin/env bash
# Multiway speedup curve against the committed baseline: the full suite's
# chain-depth curve (paper figures 8/9 extended to N = 1, 2 and 4).
# bench_multiway fails unless at least one workload keeps gaining at every
# depth; bench_compare then holds every simulated metric in every row to
# BENCH_multiway.json exactly (the sweep schema has no host_ fields, so
# any drift fails). Usage: multiway_curve.sh BENCH_MULTIWAY
set -eu -o pipefail
bench="$(realpath "$1")"
root="$(dirname "$(realpath "$0")")/../.."
work="$(mktemp -d)"
trap 'rm -rf "$work"' EXIT
"$bench" --jobs 4 --json "$work/multiway_bench.json"
python3 "$root/tools/bench_compare.py" \
  "$root/BENCH_multiway.json" "$work/multiway_bench.json"
