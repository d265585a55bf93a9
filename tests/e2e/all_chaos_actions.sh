#!/usr/bin/env bash
# The rest of the chaos vocabulary through the batch path: cell 0 aborts
# on every attempt, cell 1 sends half a frame, cell 3 exits without
# replying, and cell 4 crashes on attempt 1 only. The parent resolves `@1`
# per dispatched attempt, so the retry must run clean and settle ok after
# 2 attempts. Usage: all_chaos_actions.sh BUILD
set -eu -o pipefail
. "$(dirname "$(realpath "$0")")/lib.sh"
fails "$sptc" sweep --isolate --jobs 4 --retries 1 --cell-timeout 120 \
  --chaos 0:abort,1:partial,3:exit,4:crash@1 --json allchaos.json
grep -q '"status": "crashed"' allchaos.json
test "$(grep -c '"status": "protocol_error"' allchaos.json)" -eq 2
python3 -c 'import json, sys
row = json.load(open("allchaos.json"))["rows"][4]
sys.exit(not (row["status"] == "ok" and row["worker"]["attempts"] == 2))'
