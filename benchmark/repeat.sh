#!/usr/bin/env bash
# Runs the full untraced benchmark twice on the same commit and prints, per
# (workload, end-to-end metric), both values, how much worse the second reads
# than the first, and the bound from BENCHMARK.json. Exits non-zero if any
# pair breaches its bound, if the exact quantities (event counts, digests)
# differ, or if an output check fails. Refuses --quick. Prints the total wall
# time, so the time cap stays visible.
#
#   benchmark/repeat.sh [--seed S] [--seconds N]
set -euo pipefail
exec "$(dirname "$0")/run.sh" --repeat "$@"
