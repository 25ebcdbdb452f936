#!/bin/sh
# smoke.sh — the six faultlab smoke sweeps scripts/check.sh gates on:
# 8 crash points over a 2 MB write, once per machine shape in the loop
# (single drive, degraded mirror, three-member stripe set, healthy
# RAID-5, so every volume plan shape meets a crash cut; journaled with
# replay recovery, journaled RAID-5 where the volume and the log meet).
# Each sweep's output follows a line naming its flags; a sweep exits
# nonzero on any crash-consistency violation, and so does this script.
# testdata/faultlab_smoke.txt is its recorded output: an outcome shift
# (torn-tail → full, say) is no violation, but it fails the record.
#
# Usage: scripts/smoke.sh  (from anywhere inside the repo)
# After a deliberate outcome change, regenerate the record with
#   scripts/smoke.sh > testdata/faultlab_smoke.txt
set -eu

cd "$(dirname "$0")/.."

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
go build -o "$tmp/faultlab" ./cmd/faultlab
for shape in "" "-vol raid1 -degraded 1" "-vol raid0 -members 3" "-vol raid5" "-journal wal" "-vol raid5 -journal wal"; do
    flags="-file 2 -fsync 262144 -cuts 8 -seed 7${shape:+ $shape}"
    echo "== faultlab $flags"
    # shellcheck disable=SC2086 # flags is a list of flags
    "$tmp/faultlab" $flags
done
