#!/usr/bin/env bash
# Streamed versus replayed cells: a sweep's rows are the same whether its
# cells stream their programs, fill a cold trace cache or replay a warm,
# healed or damaged one. Usage: streamed_vs_replayed.sh BUILD
set -eu -o pipefail
. "$(dirname "$(realpath "$0")")/lib.sh"
sweep() { "$sptc" sweep --spec-threads 1,2,4 "$@"; }  # the 10 x 3 grid

# With a cache the baseline still streams; the cache keeps its run and
# one-core result (.res) and its profile (.prof) as blobs, and only the SPT
# program as a trace. The cell that produces a trace tees its stream into
# the file and stores its machine's fork table (.forks) beside it; later
# cells with the same plan replay the trace against that table. The warm
# sweep interprets nothing and indexes no trace.
sweep --jobs 4 --json streamed.json
test "$(grep -c '"status": "ok"' streamed.json)" -eq 30
sweep --jobs 4 --trace-cache trace_cache --json replayed.json
same_json streamed.json replayed.json
sweep --jobs 4 --trace-cache trace_cache --json warm.json
same_json streamed.json warm.json
# Cold caches at three jobs, dispatched spread across the benchmarks.
# Pooled workers each own a cache over one directory: a per-key lock lets
# one write each file, and one that finds the lock held computes alone.
sweep --jobs 3 --trace-cache cold_threads --json cold_threads.json
same_json streamed.json cold_threads.json
sweep --isolate --jobs 3 --trace-cache cold_pooled --json cold_pooled.json
same_rows streamed.json cold_pooled.json
sweep --isolate --jobs 4 --trace-cache trace_cache_pooled --json pooled.json
same_rows streamed.json pooled.json
# No temp file is left, and each SPT trace has exactly one fork table.
for dir in trace_cache trace_cache_pooled cold_threads cold_pooled; do
  if ls "$dir"/*.tmp.*; then exit 1; fi
  for t in "$dir"/*.spt3; do test -f "${t%.spt3}.forks"; done
  test "$(ls "$dir"/*.forks | wc -l)" -eq "$(ls "$dir"/*.spt3 | wc -l)"
done
rm -rf trace_cache_pooled cold_threads cold_pooled
# No baseline trace is stored. (A bare `! ls` would never fail: errexit
# ignores an inverted status.)
if ls trace_cache/*.base-*.spt3; then exit 1; fi

# A cycle budget no cell reaches is a new one-core config: each baseline
# streams once more and stores one new .res, and no trace is written.
res="$(ls trace_cache/*.res | head -n 1)"
forks="$(ls trace_cache/*.forks | head -n 1)"
traces="$(ls trace_cache/*.spt3 | wc -l)"
results="$(ls trace_cache/*.res | wc -l)"
sweep --jobs 4 --max-cycles 1000000000000 --trace-cache trace_cache \
  --json new_config.json
same_json streamed.json new_config.json
test "$(ls trace_cache/*.spt3 | wc -l)" -eq "$traces"
test "$(ls trace_cache/*.res | wc -l)" -eq "$((results + 10))"
# A trace whose version byte says 3 (a pre-v4 cache) is traced again.
stale="$(ls trace_cache/*.spt3 | head -n 1)"
printf '\003' | dd of="$stale" bs=1 seek=8 count=1 conv=notrunc
sweep --jobs 4 --trace-cache trace_cache --json healed.json
test "$(od -An -tu1 -j8 -N1 "$stale")" -eq 4
same_json streamed.json healed.json
# The .res is keyed by the one-core config, so a full-squash sweep over
# the warm cache simulates no baseline and matches its streamed twin.
sweep --jobs 4 --recovery squash --json streamed_squash.json
sweep --jobs 4 --recovery squash --trace-cache trace_cache \
  --json cached_squash.json
same_json streamed_squash.json cached_squash.json
# A stored result or fork table with one payload byte flipped fails its
# checksum and is made again byte for byte; the output does not change.
for blob in "$res" "$forks"; do
  cp "$blob" good
  byte="$(od -An -tu1 -j20 -N1 "$blob")"
  printf "\\$(printf '%03o' $((byte ^ 1)))" |
    dd of="$blob" bs=1 seek=20 count=1 conv=notrunc
  if cmp -s "$blob" good; then exit 1; fi
  sweep --jobs 4 --trace-cache trace_cache --json damaged.json
  cmp "$blob" good
  same_json streamed.json damaged.json
done
rm -rf trace_cache

# Deep chains under full squash: the main thread's burst loop stops at the
# window's end only when streaming.
deep() { "$sptc" sweep --jobs 4 --spec-threads 4,16 --recovery squash "$@"; }
deep --json streamed_deep.json
test "$(grep -c '"status": "ok"' streamed_deep.json)" -eq 20
deep --trace-cache trace_cache_deep --json replayed_deep.json
same_json streamed_deep.json replayed_deep.json
