#!/usr/bin/env bash
# One body-size limit on every path: gap's cell gets the same plan, and so
# the same SPT cycles and speedup, from `sptc run`, `sptc sweep` and
# `sptc submit sweep`, both at gap's own limit and at an explicit
# `--max-body 500`, which must change the plan.
# Usage: max_body_paths.sh BUILD
set -eu -o pipefail
. "$(dirname "$(realpath "$0")")/lib.sh"
sock="$work/mb.sock"

# "<SPT cycles> <speedup>" of gap from `run`, and from a sweep's table.
from_run() {
  "$sptc" run gap "$@" > run.out
  echo "$(sed -n 's/^SPT: *\([0-9]*\) cycles$/\1/p' run.out)" \
    "$(sed -n 's/^speedup: *//p' run.out)"
}
from_table() {
  awk -F'|' '$2 ~ /^ gap / { gsub(/ /, ""); print $4, $5 }'
}

"$sptc" serve --socket "$sock" --jobs 2 &
serve_pid=$!
await_service "$sock" "$serve_pid"
for limit in "" "--max-body 500"; do
  # shellcheck disable=SC2086  # $limit is zero or two words
  run=$(from_run $limit)
  # shellcheck disable=SC2086
  sweep=$("$sptc" sweep --benchmarks gap $limit | from_table)
  # shellcheck disable=SC2086
  served=$("$sptc" submit sweep --socket "$sock" --benchmarks gap $limit |
    from_table)
  echo "gap ${limit:-at its own limit}: run $run, sweep $sweep," \
    "submit sweep $served"
  test -n "$run"
  test "$run" = "$sweep"
  test "$run" = "$served"
  if [ -z "$limit" ]; then own="$run"; else low="$run"; fi
done
# The explicit limit is honoured: gap's plan at 500 is not its own.
test "$low" != "$own"
kill -TERM "$serve_pid"
wait "$serve_pid"
none_running "$sock"
