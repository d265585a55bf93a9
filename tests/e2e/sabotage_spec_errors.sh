#!/usr/bin/env bash
# The three sabotage flags share one term grammar; each refuses a shape it
# has no use for before any work starts, exiting non-zero with an error
# that names the flag. Usage: sabotage_spec_errors.sh BUILD
set -eu -o pipefail
. "$(dirname "$(realpath "$0")")/lib.sh"
refused() {
  flag="$1"
  shift
  fails "$sptc" "$@" 2> spec.err
  cat spec.err
  grep -q -- "bad $flag spec" spec.err
}
refused --chaos sweep --isolate --chaos 1:frobnicate
refused --client-chaos submit sweep --client-chaos 1:disconnect
refused --crash-at serve --crash-at flush@0
