#!/usr/bin/env sh
# Re-record the committed perf baselines:
#
#   BENCH_5.json — engine event throughput (perf-smoke, the CI gate)
#   BENCH_6.json — daemon sustained submission throughput and latency
#                  percentiles (full 24,443-job Facebook trace replayed
#                  open-loop at a fixed rate against lasmq-serve)
#   BENCH_7.json — million-job scale throughput (perf-smoke --trace scale:
#                  1M heavy-tailed jobs on a 1,000-node x 8-container
#                  cluster; each iteration runs for minutes)
#
# Run this on a quiet machine after an *intentional* throughput change —
# the CI perf gate compares future runs against the numbers recorded
# here. The event count in BENCH_5 is deterministic (same trace, same
# scheduler ⇒ same events); every rate and percentile is
# hardware-dependent.
#
# Usage: scripts/record-bench.sh [extra perf-smoke args]
# Extra args go to both perf-smoke runs. Only --iters N keeps the
# baselines comparable with the CI gate (--jobs/--seed change the trace,
# and --trace/--emit/--check are set here).
set -eu
cd "$(dirname "$0")/.."

cargo build --offline --release -p lasmq-bench -p lasmq-serve
./target/release/perf-smoke --emit BENCH_5.json "$@"
echo "--- BENCH_5.json ---"
cat BENCH_5.json

./target/release/perf-smoke --trace scale --emit BENCH_7.json "$@"
echo "--- BENCH_7.json ---"
cat BENCH_7.json

# The daemon measurement: open-loop replay of the whole trace at a rate
# (15k jobs/s) above the acceptance floor (10k sustained), so the
# recorded submissions_per_sec shows what the engine actually absorbed.
SERVE_LOG=target/record-bench-serve.log
./target/release/lasmq-serve --listen 127.0.0.1:0 --compression 100000 \
    >"$SERVE_LOG" 2>&1 &
SERVE_PID=$!
i=0
ADDR=""
while [ "$i" -lt 100 ]; do
    ADDR=$(sed -n 's/^lasmq-serve listening on //p' "$SERVE_LOG")
    [ -n "$ADDR" ] && break
    i=$((i + 1))
    sleep 0.1
done
[ -n "$ADDR" ] || { echo "lasmq-serve never reported its address" >&2; exit 1; }
./target/release/lasmq-loadgen --addr "$ADDR" --jobs 24443 --rate 15000 \
    --emit BENCH_6.json --shutdown
wait "$SERVE_PID"
echo "--- BENCH_6.json ---"
cat BENCH_6.json
echo "Commit the baselines alongside the change that justified re-recording them."
