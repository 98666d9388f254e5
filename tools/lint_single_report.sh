#!/usr/bin/env sh
# One report per incident (ctest lint.single_report_per_incident).
#
# Layers report to the tracer and the stats registry only through
# obs::Actor (src/obs/probe.hpp), which emits both halves of an incident
# in one call. Two checks:
#
#   * no trace::of( or stats::of( in src/ outside src/obs, src/trace and
#     src/stats (no exemptions: even rftp::FastForward reaches the sinks
#     only through the engine's fast-forward contract, sim::Observer);
#   * no hand-written pair — a trace::of( line followed within 8 lines by
#     a stats::of( line — anywhere in src/ outside the probe header.
#
#   lint_single_report.sh <repo-root>
set -eu

ROOT=$1
direct=$(cd "$ROOT" && grep -rnE '(trace|stats)::of\(' src \
  --include='*.cpp' --include='*.hpp' |
  grep -vE '^src/(obs|trace|stats)/' || true)

pairs=$(find "$ROOT/src" -name '*.cpp' -o -name '*.hpp' | sort | while read -r f; do
  case "$f" in */src/obs/probe.hpp) continue ;; esac
  awk -v F="${f#"$ROOT"/}" '
    /trace::of\(/ { t = NR }
    /stats::of\(/ { if (t && NR - t <= 8) { print F ":" t ": trace::of then stats::of at " NR; t = 0 } }
  ' "$f"
done)

rc=0
if [ -n "$direct" ]; then
  echo "$direct"
  echo "direct sink access outside obs/trace/stats:" \
       "$(echo "$direct" | wc -l) (want 0); report through obs::Actor"
  rc=1
fi
if [ -n "$pairs" ]; then
  echo "$pairs"
  echo "adjacent trace+stats reports: $(echo "$pairs" | wc -l) (want 0);" \
       "report the incident once through obs::Actor"
  rc=1
fi
[ "$rc" -eq 0 ] && echo "direct sink access: 0; adjacent trace+stats reports: 0"
exit "$rc"
