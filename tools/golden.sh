#!/usr/bin/env sh
# Golden ledger: one transcript per front-end command (tests/golden/).
#
# Runs BIN with ARGS in a scratch directory and builds a transcript: the
# arguments, the exit code, stdout, and a cksum of stderr and of every
# file the run wrote. `check` diffs it against LEDGER and fails on any
# difference (one ctest per ledger file); `record` rewrites LEDGER and
# names it when it changed (the rerecord-goldens build target). The host
# clock is the one thing a front end prints that its arguments do not
# pin: fleet/kv's "N s wall (M ev/s)" reads "- s wall (- ev/s)".
#
#   golden.sh check|record LEDGER BIN [ARG...]
set -u

mode=$1 ledger=$2
case $ledger in /*) ;; *) ledger=$PWD/$ledger ;; esac
BIN=$(cd "$(dirname "$3")" && pwd)/$(basename "$3")
shift 3
DIR=$(mktemp -d)
trap 'rm -rf "$DIR"' EXIT
mkdir "$DIR/run" && cd "$DIR/run" || exit 1

{
  echo "== $*"
  "$BIN" "$@" > "$DIR/out" 2> "$DIR/err"
  echo "exit: $?"
  sed -E 's#[0-9.]+ s wall \([0-9]+ ev/s\)#- s wall (- ev/s)#' "$DIR/out"
  echo "stderr: $(cksum < "$DIR/err")"
  for f in *; do [ -e "$f" ] && echo "$f: $(cksum < "$f")"; done
} > "$DIR/transcript"

case $mode in
  check) diff -u "$ledger" "$DIR/transcript" ;;
  record) cmp -s "$ledger" "$DIR/transcript" ||
    { cp "$DIR/transcript" "$ledger" && echo "changed: $ledger"; } ;;
  *) echo "usage: golden.sh check|record LEDGER BIN [ARG...]" >&2; exit 2 ;;
esac
