#!/usr/bin/env bash
# Multiway sweep through the pooled supervisor: one gaining loop workload,
# the figure-1 loop and the flat workload, each at chain depths 1/2/4.
# Depth-1 rows keep the "default" config tag and must be byte-identical to
# a plain sweep of the same benchmarks. CI diffs OUT/multiway.filtered.json
# between its build jobs, which holds the chained machine to Debug+ASan ==
# Release determinism. Usage: multiway_sweep.sh BUILD [OUT]
set -eu -o pipefail
. "$(dirname "$(realpath "$0")")/lib.sh"
sweep() {
  "$sptc" sweep --isolate --jobs 4 --cell-timeout 240 \
    --benchmarks mcf,parser,vortex "$@"
}
sweep --spec-threads 1,2,4 --json multiway.json
test "$(grep -c '"status": "ok"' multiway.json)" -eq 9
sweep --json multiway_plain.json
sweep --spec-threads 1 --json multiway_n1.json
same_json multiway_plain.json multiway_n1.json
filtered_pooled multiway.json > "$out/multiway.filtered.json"
