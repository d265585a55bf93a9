# Helpers for the end-to-end scripts here; source under `set -e`.

# A results JSON file less its host-dependent "host_" members.
filtered() { grep -v '"host_' "$1"; }

# Fails unless two results JSON files match once filtered.
same_json() { diff <(filtered "$1") <(filtered "$2"); }

# Fails unless two sweeps' rows match, less every "host_" member and the
# worker block that only pooled rows carry.
same_rows() {
  python3 - "$1" "$2" <<'PY'
import json, sys
def strip(v):
    if isinstance(v, dict):
        return {k: strip(x) for k, x in v.items()
                if k != "worker" and not k.startswith("host_")}
    return [strip(x) for x in v] if isinstance(v, list) else v
a, b = (strip(json.load(open(p))["rows"]) for p in sys.argv[1:])
sys.exit(a != b)
PY
}
