#!/bin/sh
# Check that executables are self-contained static PIEs: ELF type DYN
# (position-independent, so the loader still randomizes their
# address) and no NEEDED entry (no shared library to map).
#
#   tools/check_self_contained.sh READELF BINARY...
#
# Exits 1 naming each binary that fails, 2 on a usage error.

if [ $# -lt 2 ]; then
    echo "usage: $0 READELF BINARY..." >&2
    exit 2
fi
readelf=$1
shift
status=0
for bin in "$@"; do
    if ! "$readelf" -h "$bin" | grep -q 'Type: *DYN'; then
        echo "$bin: not a position-independent executable" >&2
        status=1
    fi
    needed=$("$readelf" -d "$bin" | grep NEEDED)
    if [ -n "$needed" ]; then
        echo "$bin: links shared libraries:" >&2
        echo "$needed" >&2
        status=1
    fi
done
exit $status
