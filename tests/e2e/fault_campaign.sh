#!/usr/bin/env bash
# Fault-injection campaign: 64 seeds x 10 workloads with the digest oracle
# armed. Exit 0 requires every injected fault detected-or-benign
# (escaped == 0) and every cell's committed digest equal to the sequential
# replay. The campaign must also be bit-reproducible at any worker count.
# Usage: fault_campaign.sh BUILD
set -eu -o pipefail
. "$(dirname "$(realpath "$0")")/lib.sh"
"$sptc" inject --seeds 64 --jobs 8 --oracle digest --json campaign.json
"$sptc" inject --seeds 8 --jobs 8 --oracle digest --json wide.json
"$sptc" inject --seeds 8 --jobs 1 --oracle digest --json serial.json
diff wide.json serial.json
