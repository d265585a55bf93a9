#!/usr/bin/env bash
# The three sabotage flags share one term grammar; each refuses a shape it
# has no use for before any work starts, exiting non-zero with an error
# that names the flag. Usage: sabotage_spec_errors.sh SPTC
set -eu -o pipefail
sptc="$(realpath "$1")"
work="$(mktemp -d)"
trap 'rm -rf "$work"' EXIT
cd "$work"
refused() {
  flag="$1"
  shift
  set +e
  "$sptc" "$@" 2> spec.err
  rc=$?
  set -e
  cat spec.err
  test "$rc" -ne 0
  grep -q -- "bad $flag spec" spec.err
}
refused --chaos sweep --isolate --chaos 1:frobnicate
refused --client-chaos submit sweep --client-chaos 1:disconnect
refused --crash-at serve --crash-at flush@0
