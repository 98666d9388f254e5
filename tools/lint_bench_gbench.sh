#!/usr/bin/env sh
# google-benchmark only in the microbenches (ctest
# lint.bench_gbench_only_in_microbenches).
#
# google-benchmark 1.7.1's DoNotOptimize(double&) under GCC 12.2 at -O1 and
# above stores an uninitialised stack temporary back into its argument. The
# figure drivers that wrapped one-shot scenario runs in it printed wrong
# numbers unless their optimisation was pinned off. Figures and ablations
# are plain rows of bench_figures now; this check fails if any bench/
# source other than the two true microbenches (bench_simcore.cpp,
# bench_protocol.cpp) includes <benchmark/benchmark.h> or calls
# DoNotOptimize.
#
#   lint_bench_gbench.sh <repo-root>
set -eu

ROOT=$1
hits=$(grep -n -E '#include[[:space:]]*<benchmark/benchmark\.h>|DoNotOptimize' \
         "$ROOT"/bench/*.cpp "$ROOT"/bench/*.hpp |
       grep -v -E '/bench/bench_(simcore|protocol)\.cpp:' || true)

if [ -n "$hits" ]; then
  echo "$hits" | sed "s|^$ROOT/||"
  echo "google-benchmark uses outside the microbenches:" \
       "$(echo "$hits" | wc -l) (want 0); make it a bench_figures row"
  exit 1
fi
echo "google-benchmark uses outside the microbenches: 0"
