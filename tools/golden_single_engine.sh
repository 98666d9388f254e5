#!/usr/bin/env sh
# Single-engine CLI golden (ctest cli.golden_single_engine).
#
# Runs one case per single-engine scenario mode in a scratch directory and
# prints a transcript: the arguments, the exit code, stdout, and a cksum of
# stderr and of every file the run wrote. ctest diffs the transcript
# against tools/golden/single_engine.txt. Every case passes --audit
# explicitly, so Debug (audits on by default) and Release agree.
#
#   golden_single_engine.sh <e2e_transfer_sim> > transcript
set -u

BIN=$(cd "$(dirname "$1")" && pwd)/$(basename "$1")
DIR=$(mktemp -d)
trap 'rm -rf "$DIR"' EXIT
cd "$DIR" || exit 1

run() {
  echo "== $*"
  "$BIN" "$@" > out 2> err
  echo "exit: $?"
  cat out
  echo "stderr: $(cksum < err)"
  for f in *; do
    case $f in
      out|err) ;;
      *) echo "$f: $(cksum < "$f")"; rm -f "$f" ;;
    esac
  done
}

run quick --gib 1 --audit 1 --trace T --stats-out S.json
run quick --gib 1 --audit 0 --fault-plan 'crash@100ms:host=1,down=0'
run e2e --gib 1 --files 3 --audit 0 --stats-out S.csv
run wan --gib 64 --fast-forward 1 --audit 0
run wan --gib 65536 --fast-forward 1 --audit 0 --stats-out S.json
run wan --gib 4 --fault-seed 3 --audit 0
run san --duration 0.05 --write --audit 1
run motivating --audit 0 --trace T
