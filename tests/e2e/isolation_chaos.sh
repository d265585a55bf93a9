#!/usr/bin/env bash
# Isolation chaos sweep: three cells of the suite are sabotaged on the warm
# worker pool. Cell 2 segfaults, cell 5 hangs until the watchdog SIGKILLs
# it and cell 7 replies with garbage bytes. Each kills and respawns one
# pooled worker while the pool completes the other seven cells, whose rows
# must equal an unsabotaged pooled run's. The sweep exits non-zero
# (contained failures are reported, not fatal) with exactly the expected
# statuses. CI diffs OUT/sweep.filtered.json between its build jobs.
# Usage: isolation_chaos.sh BUILD [OUT]
set -eu -o pipefail
. "$(dirname "$(realpath "$0")")/lib.sh"
"$sptc" sweep --isolate --jobs 4 --json clean.json
test "$(grep -c '"status": "ok"' clean.json)" -eq 10
# The watchdog is 10x the slowest clean cell's CPU seconds, at least 10 s:
# far above a healthy cell on a loaded or sanitized build, and no longer
# than it must be for the hung cell.
timeout="$(python3 -c 'import json, sys
w = [r["worker"] for r in json.load(open(sys.argv[1]))["rows"]]
print(max(10.0, 10 * max(x["host_user_seconds"] + x["host_sys_seconds"]
                         for x in w)))' clean.json)"
fails "$sptc" sweep --isolate --jobs 4 --cell-timeout "$timeout" \
  --chaos 2:crash,5:hang,7:garbage --json isolate.json
grep -q '"status": "crashed"' isolate.json
grep -q '"status": "timeout"' isolate.json
grep -q '"status": "protocol_error"' isolate.json
test "$(grep -c '"status": "ok"' isolate.json)" -eq 7
same_rows clean.json isolate.json 0 1 3 4 6 8 9
filtered_pooled isolate.json > "$out/sweep.filtered.json"
