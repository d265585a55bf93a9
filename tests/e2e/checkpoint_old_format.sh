#!/usr/bin/env bash
# A checkpoint in the retired spt-sweep-v1 text format is neither read as
# empty nor appended to: --resume exits non-zero with an error naming the
# file and both format tags. Usage: checkpoint_old_format.sh BUILD
set -eu -o pipefail
. "$(dirname "$(realpath "$0")")/lib.sh"
printf 'spt-sweep-v1\tok\tmcf\tdefault\t1\t2\t\n' > old.ck
cp old.ck old.ck.orig
fails "$sptc" sweep --benchmarks mcf --checkpoint old.ck --resume 2> old.err
cat old.err
grep -q 'old.ck' old.err
grep -q 'spt-sweep-v1' old.err
grep -q 'spt-log-v1' old.err
cmp old.ck old.ck.orig
