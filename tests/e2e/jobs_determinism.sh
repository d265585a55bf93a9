#!/usr/bin/env bash
# Sweep determinism across worker counts: the suite sweep's JSON is
# byte-identical at --jobs 1 and --jobs 8. Usage: jobs_determinism.sh BUILD
set -eu -o pipefail
. "$(dirname "$(realpath "$0")")/lib.sh"
"$sptc" sweep --jobs 1 --json serial.json
"$sptc" sweep --jobs 8 --json parallel.json
diff serial.json parallel.json
