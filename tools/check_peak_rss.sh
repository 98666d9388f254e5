#!/usr/bin/env sh
# Peak-RSS regression check (ctest -L perf).
#
# Runs one simulator invocation under the libcount_allocs.so LD_PRELOAD,
# which writes the process's own VmHWM (KiB) at exit, and fails when it
# exceeds the limit. VmHWM resets on exec, so the reading is the
# simulator's peak alone, not that of whatever launched it.
#
#   check_peak_rss.sh <libcount_allocs.so> <limit-kib> <e2e_transfer_sim> \
#                     [scenario and flags...]
set -eu

LIB=$1
LIMIT_KIB=$2
shift 2

OUT=$(mktemp)
trap 'rm -f "$OUT"' EXIT

COUNT_ALLOCS_OUT=/dev/null COUNT_ALLOCS_HWM_OUT="$OUT" LD_PRELOAD="$LIB" \
    "$@" > /dev/null

HWM=$(cat "$OUT")
case $HWM in
    '' | *[!0-9]*) echo "FAIL: no VmHWM reading" >&2; exit 1 ;;
esac
echo "peak RSS (VmHWM): $HWM KiB (limit $LIMIT_KIB KiB)"

if [ "$HWM" -gt "$LIMIT_KIB" ]; then
    echo "FAIL: peak RSS limit exceeded" >&2
    exit 1
fi
echo "OK"
