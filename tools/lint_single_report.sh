#!/usr/bin/env sh
# One report per incident (ctest lint.single_report_per_incident).
#
# An incident that reaches both the tracer and the stats registry goes
# through one obs::Actor call (src/obs/probe.hpp), which emits both halves.
# A hand-written pair — a trace::of( line followed within 8 lines by a
# stats::of( line — is the pattern the probe replaced; this check fails on
# any such pair in src/ outside the probe header.
#
#   lint_single_report.sh <repo-root>
set -eu

ROOT=$1
hits=$(find "$ROOT/src" -name '*.cpp' -o -name '*.hpp' | sort | while read -r f; do
  case "$f" in */src/obs/probe.hpp) continue ;; esac
  awk -v F="${f#"$ROOT"/}" '
    /trace::of\(/ { t = NR }
    /stats::of\(/ { if (t && NR - t <= 8) { print F ":" t ": trace::of then stats::of at " NR; t = 0 } }
  ' "$f"
done)

if [ -n "$hits" ]; then
  echo "$hits"
  echo "adjacent trace+stats reports: $(echo "$hits" | wc -l) (want 0);" \
       "report the incident once through obs::Actor"
  exit 1
fi
echo "adjacent trace+stats reports: 0"
