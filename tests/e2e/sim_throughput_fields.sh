#!/usr/bin/env bash
# Simulated throughput counters against the committed baseline: one rep of
# `sptc perf` over every workload, then bench_compare holds every
# deterministic field of every row (trace records, cycles, instructions,
# dispatch/fallback and arena counters) to BENCH_sim_throughput.json
# exactly. `--max-regression 1` lets host_ MIPS fall all the way, so no
# timing field can fail it. Usage: sim_throughput_fields.sh BUILD
set -eu -o pipefail
root="$(dirname "$(realpath "$0")")/../.."
. "$root/tests/e2e/lib.sh"
"$sptc" perf --reps 1 --jobs 4 --json out.json
python3 "$root/tools/bench_compare.py" \
  "$root/BENCH_sim_throughput.json" out.json --max-regression 1
