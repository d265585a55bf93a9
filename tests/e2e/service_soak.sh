#!/usr/bin/env bash
# Sweep service soak: a resident `sptc serve` multiplexes three concurrent
# clients. One is healthy, one disconnects right after submitting, and one
# sabotages its own worker (crash on attempt 1, recovered by the
# service-side retry). The healthy client's filtered JSON must equal the
# pooled batch run's, the served retry must equal a batch retry of the same
# sabotaged cell, the service must drain to exit 0 on SIGTERM, and neither
# it nor a worker may outlive it. Usage: service_soak.sh BUILD
set -eu -o pipefail
. "$(dirname "$(realpath "$0")")/lib.sh"
sock="$work/spt.sock"
"$sptc" sweep --isolate --jobs 4 --cell-timeout 240 \
  --benchmarks mcf,gzip --json base.json
"$sptc" serve --socket "$sock" --jobs 4 --cell-timeout 240 \
  --retries 1 --allow-chaos &
serve_pid=$!
await_service "$sock" "$serve_pid"
"$sptc" submit sweep --socket "$sock" \
  --benchmarks mcf,gzip --json healthy.json &
healthy_pid=$!
"$sptc" submit sweep --socket "$sock" --benchmarks vpr \
  --client-chaos disconnect@0 --json dropped.json &
dropped_pid=$!
"$sptc" submit sweep --socket "$sock" --benchmarks parser \
  --chaos 0:crash@1 --json served_chaos.json &
chaos_pid=$!
fails wait "$dropped_pid"  # the saboteur itself fails...
wait "$healthy_pid"        # ...while the healthy client succeeds
wait "$chaos_pid"          # and the retried chaos cell recovers
test "$(grep -c '"status": "ok"' served_chaos.json)" -eq 1
"$sptc" submit status --socket "$sock" | grep -q clients_disconnected
diff <(filtered_pooled base.json) <(filtered_pooled healthy.json)
# The served retry (one lane of the service's scheduler) must produce the
# same rows as a batch run that retries the same sabotaged cell through
# Supervisor::run's lane.
"$sptc" sweep --isolate --jobs 4 --retries 1 \
  --chaos 0:crash@1 --benchmarks parser --json batch_chaos.json
diff <(filtered_pooled batch_chaos.json) <(filtered_pooled served_chaos.json)
kill -TERM "$serve_pid"
wait "$serve_pid"  # the drain exits 0
none_running "$sock"
test ! -e "$sock"
