# Prologue and helpers for the end-to-end scripts here. Each script runs
# `set -eu -o pipefail`, then sources this file with its own arguments,
# BUILD [OUT], and gets:
#   build  the CMake build tree whose binaries it runs;
#   sptc   "$build/tools/sptc";
#   work   a temp directory and the working directory; at exit every
#          process whose command line names it is killed and it is removed;
#   out    OUT, made if missing, where a script whose documents CI diffs
#          across its build jobs writes them; "$work" without OUT.
build="$(realpath "$1")"
sptc="$build/tools/sptc"
work="$(mktemp -d)"
trap 'pkill -KILL -f -- "$work/" || true; rm -rf "$work"' EXIT
mkdir -p "${2:-$work}"
out="$(realpath "${2:-$work}")"
cd "$work"

# A results JSON file less its host-dependent "host_" members.
filtered() { grep -v '"host_' "$1"; }

# A pooled results JSON file less its "host_" members and the worker's
# free-text "diagnostic" and "partial_reply", which name pids and carry
# sanitizer output: what CI diffs across its build jobs.
filtered_pooled() {
  filtered "$1" | grep -v -e '"diagnostic"' -e '"partial_reply"'
}

# Fails unless two results JSON files match once filtered.
same_json() { diff <(filtered "$1") <(filtered "$2"); }

# Fails unless two sweeps' rows match, less every "host_" member and the
# worker block that only pooled rows carry. Optional further arguments
# name the only row indices to compare.
same_rows() {
  python3 - "$@" <<'PY'
import json, sys
def strip(v):
    if isinstance(v, dict):
        return {k: strip(x) for k, x in v.items()
                if k != "worker" and not k.startswith("host_")}
    return [strip(x) for x in v] if isinstance(v, list) else v
a, b = (strip(json.load(open(p))["rows"]) for p in sys.argv[1:3])
keep = [int(i) for i in sys.argv[3:]] or range(len(a))
sys.exit(len(a) != len(b) or any(a[i] != b[i] for i in keep))
PY
}

# Runs "$@" and fails unless it exits non-zero.
fails() {
  if "$@"; then
    echo "expected a failure: $*" >&2
    exit 1
  fi
}

# Waits until `sptc serve` answers on socket $1 or its process $2 has
# exited (the caller's `wait` then judges its exit status); fails, naming
# the socket, if neither happens within 20 s.
await_service() {
  for _ in $(seq 1 100); do
    "$sptc" submit status --socket "$1" > /dev/null 2>&1 && return 0
    kill -0 "$2" 2> /dev/null || return 0
    sleep 0.2
  done
  echo "no service answered on $1 within 20 s" >&2
  exit 1
}

# Fails if any process still runs whose command line names $1. A service
# and the workers it forks carry its --socket path, which lies in $work,
# so the check sees no other script's service.
none_running() {
  if pgrep -a -f -- "$1"; then
    echo "still running: processes naming $1" >&2
    exit 1
  fi
}
