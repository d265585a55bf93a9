#!/usr/bin/env bash
# Kill/restart soak: five service incarnations on one journal. Four die by
# scripted SIGKILL at distinct points: mid-journal-append (a torn record),
# after admission, after the first cell's row is synced to the journal,
# and mid-reply-flush. One tokened client retries throughout. The survivor
# recovers the request and replays settled cells from their logged rows,
# and the delivered sweep must be byte-identical to an uninterrupted
# pooled run. No incarnation or worker may outlive the last drain. CI
# diffs OUT/kill_restart.filtered.json between its build jobs.
# Usage: kill_restart_soak.sh BUILD [OUT]
set -eu -o pipefail
. "$(dirname "$(realpath "$0")")/lib.sh"
sock="$work/kr.sock"
"$sptc" sweep --isolate --jobs 4 --cell-timeout 240 \
  --benchmarks mcf,gzip --json base.json
start_serve() {  # "$@" = optional --crash-at SPEC
  "$sptc" serve --socket "$sock" --jobs 4 --cell-timeout 240 \
    --journal kr.journal "$@" &
  serve_pid=$!
  await_service "$sock" "$serve_pid"
}
died() {  # the incarnation died by its scripted SIGKILL
  rc=0
  wait "$serve_pid" || rc=$?
  test "$rc" -eq 137
}
start_serve --crash-at append:16
"$sptc" submit sweep --socket "$sock" --benchmarks mcf,gzip \
  --token ci-kr --retry-for 240 --json served.json &
client_pid=$!
died
for crash_at in admit settle@1 flush:7; do
  start_serve --crash-at "$crash_at"
  died
done
start_serve        # clean: the retrying client attaches
wait "$client_pid" # exit 0: the delivered stream completed
kill -TERM "$serve_pid"
wait "$serve_pid"  # the drain exits 0
none_running "$sock"
test ! -e "$sock"
filtered_pooled served.json > "$out/kill_restart.filtered.json"
diff <(filtered_pooled base.json) "$out/kill_restart.filtered.json"
