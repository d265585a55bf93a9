#!/usr/bin/env bash
# Checkpointed campaign with resume: an isolated campaign writes its
# durable log (one row record per line) as cells finish; re-running with
# --resume must reuse every ok row (the log does not grow), still pass,
# and report the same statuses and digests line for line.
# Usage: checkpoint_resume.sh BUILD
set -eu -o pipefail
. "$(dirname "$(realpath "$0")")/lib.sh"
"$sptc" inject --seeds 2 --isolate --checkpoint campaign.ck \
  --json first.json
lines=$(wc -l < campaign.ck)
"$sptc" inject --seeds 2 --isolate --checkpoint campaign.ck \
  --resume --json resumed.json
test "$(wc -l < campaign.ck)" -eq "$lines"
diff <(grep '"status"' first.json) <(grep '"status"' resumed.json)
diff <(grep '"arch_digest"' first.json) <(grep '"arch_digest"' resumed.json)
