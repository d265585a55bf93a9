#!/usr/bin/env bash
# Compilation remarks over the suite: each workload is compiled twice with
# --remarks and the two documents must be byte-identical. CI diffs OUT
# between its build jobs too, so remarks may not depend on build type,
# sanitizers or host. Usage: remarks_deterministic.sh BUILD [OUT]
set -eu -o pipefail
. "$(dirname "$(realpath "$0")")/lib.sh"
for w in bzip2 crafty gap gcc gzip mcf parser twolf vortex vpr; do
  "$sptc" compile "$w" --remarks "$out/$w.json" > /dev/null
  "$sptc" compile "$w" --remarks rerun.json > /dev/null
  diff "$out/$w.json" rerun.json
done
