#!/usr/bin/env bash
# Builds the benchmark harness (release, offline) and runs it.
#
#   benchmark/run.sh                         every workload, end-to-end metrics
#   benchmark/run.sh --traced                every workload, per-layer metrics + trace.json
#   benchmark/run.sh --workload fb_narrow    one workload; its result line is printed last
#   benchmark/run.sh --quick                 smoke run (numbers flagged "quick": true)
#   benchmark/run.sh --help                  all options
#
# The harness is a package of its own (benchmark/Cargo.toml): the root
# workspace, its lock file and its target directory are not touched. The
# build goes to $CARGO_TARGET_DIR if set, else to benchmark/target.
set -euo pipefail
cd "$(dirname "$0")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-benchmark/target}"
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/lasmq-benchmark" "$@"
