#!/usr/bin/env bash
# CI's end-to-end smoke steps over the one release build:
#
#   cargo build --offline --release --workspace && scripts/ci-smoke.sh
#
# Every step runs even after an earlier one has failed, a step · seconds ·
# PASS/FAIL table closes the run, and the exit status is non-zero if any
# failed. A step is a function, run in its own subshell under
# `set -euo pipefail` so that its first failing command fails it.
set -u
cd "$(dirname "$0")/.."

perf_smoke() {
    # Facebook-scale engine throughput against the committed baseline
    # (BENCH_5.json, re-recorded via scripts/record-bench.sh). The
    # event count must match the baseline exactly — that part is
    # hardware-independent determinism. The events/sec gate is wide
    # (30%) so it catches algorithmic regressions, not runner noise;
    # if CI hardware changes class, re-record the baseline.
    ./target/release/perf-smoke --check BENCH_5.json
}

benchmark_harness() {
    # The repo benchmark (BENCHMARK.json, benchmark/) is a package of
    # its own built against this workspace's public API. The --quick
    # run proves it still compiles and runs every workload after an
    # API change (its output checks apply; the golden check and the
    # numbers do not — a --quick run is not a measurement).
    bash benchmark/run.sh --quick
}

engine_bit_identity() {
    # Unlike --quick, a single-workload run applies benchmark/golden.tsv
    # (event and pass counts, outcome digest) and exits non-zero on a
    # mismatch: whatever an engine change did to speed, it may not
    # move one simulated byte. zoo_campaign's golden covers all 13
    # kinds plus the paper line-up on PUMA with failures and
    # speculation. golden.tsv pins seeds 0 and 1, so both run. Three
    # seconds each; the numbers these runs print are not a measurement.
    for seed in 0 1; do
        for w in scale_wide fb_narrow uniform_batch zoo_campaign; do
            bash benchmark/run.sh --workload "$w" --seed "$seed" --seconds 3
        done
    done
}

ab_pairs() {
    # scripts/ab-pairs.sh, the alternating parent/change pairs every perf
    # change is measured with, kept from rotting: one quick uniform_batch
    # pair of HEAD against the working tree. Both sides are the same
    # code here, so the script's check that their exact lines (events,
    # passes, digest) agree must pass.
    scripts/ab-pairs.sh HEAD uniform_batch --pairs 1 --quick
}

million_job_perf() {
    # BENCH_7: one million heavy-tailed jobs on the 1,000-node x
    # 8-container cluster (scripts/record-bench.sh re-records it).
    # A single iteration — the run takes minutes — but the event
    # count must still match the committed baseline exactly, and
    # events/sec sits behind the same wide 30% gate as BENCH_5.
    ./target/release/perf-smoke --trace scale --iters 1 --check BENCH_7.json
}

trace_bytes() {
    # Trace files keep their bytes however job specs are stored in
    # memory: each generator's output must hash to what commit 9a9ccf6
    # (where every stage still held one TaskSpec per task) wrote, and
    # each file must then replay.
    mkdir -p target/trace-bytes
    while read -r kind sha; do
        local file="target/trace-bytes/$kind.json"
        ./target/release/repro trace-gen "$kind" --jobs 300 --seed 3 --out "$file"
        echo "$sha  $file" | sha256sum --check
        ./target/release/repro trace-run "$file"
    done <<'EOF'
facebook 94824f6d6e2c2e775a6480947924f2296d730cde889df4cbc69ae6f21996e24c
uniform da058e88ee446c71613c7b65cbefc66bd3da7603a2f6c6440e21856275d78bea
puma fbbf341fb0a7f8c01548ec0ef52fa3a6c34f12094897928abfd8644ecdd084db
EOF
}

quick_bytes() {
    # The quick reproduction keeps its bytes: every CSV that `repro all
    # --quick` and the verified `repro robustness --quick` write must
    # hash to results/quick.sha256, and no CSV may go unpinned. A change
    # that means to move a number re-records the manifest (same two
    # commands, then `sha256sum *.csv`) so the diff shows it.
    rm -rf target/quick-bytes
    ./target/release/repro all --quick --no-cache --threads 2 --out target/quick-bytes
    ./target/release/repro robustness --quick --verify --no-cache --threads 2 \
        --out target/quick-bytes
    (cd target/quick-bytes && sha256sum --check --strict) <results/quick.sha256
    diff <(cd target/quick-bytes && ls -- *.csv) <(awk '{print $2}' results/quick.sha256 | sort)
}

docs_match() {
    # EXPERIMENTS.md quotes its measured tables from the committed
    # full-scale reproduction (results/paper/): every table under a
    # `<!-- results/paper/<file>.csv -->` marker must equal that file,
    # cell for cell, so the docs cannot drift from the results.
    python3 scripts/docs-match.py EXPERIMENTS.md
}

interrupt_resume() {
    # Kill a campaign as soon as its first cell is cached, require
    # campaign-status to report it [partial], rerun it with the cache on
    # (every cell that finished before the kill is a cache hit, the rest
    # simulate from scratch), and require the final artifacts to be
    # byte-identical to an uninterrupted, uncached reference run. The
    # cache must hold result entries and manifests only.
    rm -rf target/campaign-cache target/smoke-resume target/smoke-reference
    ./target/release/repro fig8 --threads 2 --out target/smoke-resume &
    local pid=$! polls=0
    # Poll every 20 ms, for up to 60 s, for the first result entry.
    until ls target/campaign-cache 2>/dev/null | grep -Ex '[0-9a-f]{32}\.json' >/dev/null; do
        if ! kill -0 "$pid" 2>/dev/null || [ "$polls" -ge 3000 ]; then
            kill -KILL "$pid" 2>/dev/null || true
            echo "fig8 cached no cell before it exited or 60 s passed" >&2; exit 1
        fi
        sleep 0.02
        polls=$((polls + 1))
    done
    kill -KILL "$pid" 2>/dev/null || true
    wait "$pid" 2>/dev/null || true
    local status
    status=$(./target/release/repro campaign-status)
    echo "$status"
    if ! grep -Eq '^ +fig8 .*\[partial\]$' <<<"$status"; then
        echo "the kill did not leave fig8 partial" >&2; exit 1
    fi
    ./target/release/repro fig8 --threads 2 --out target/smoke-resume
    # Anything else, e.g. a mid-cell snapshot, fails the step; a temp
    # file the kill stranded mid-write is the one allowed leftover.
    local stray
    stray=$(find target/campaign-cache -type f -regextype posix-extended \
        ! -regex '.*/[0-9a-f]{32}\.json' ! -name 'manifest-*.json' ! -name 'tmp.*.tmp')
    if [ -n "$stray" ]; then
        echo "unexpected files in the campaign cache:" >&2; echo "$stray" >&2; exit 1
    fi
    ./target/release/repro fig8 --threads 2 --no-cache --out target/smoke-reference
    diff -r target/smoke-resume target/smoke-reference
    echo "rerun artifacts are byte-identical to the uninterrupted reference"
}

verify() {
    # Differential oracle: one PUMA cell and one Facebook-trace cell,
    # each run under all five schedulers through both the optimized
    # engine (invariant checker armed) and the naive reference
    # executor. Any trace divergence or invariant violation fails CI.
    # Then a verified campaign run, which must leave tables identical.
    ./target/release/verify-smoke
    rm -rf target/verify-smoke-out target/verify-smoke-ref
    ./target/release/repro fig3 --quick --threads 2 --no-cache --verify --out target/verify-smoke-out
    ./target/release/repro fig3 --quick --threads 2 --no-cache --out target/verify-smoke-ref
    diff -r target/verify-smoke-out target/verify-smoke-ref
    echo "verified run artifacts are byte-identical to the unverified reference"
}

training() {
    # The policy trainer end to end at smoke scale: a tiny cross-entropy
    # run (2 rounds, population 8, downscaled PUMA via --quick) whose
    # trained policy must beat FIFO's mean response on a held-out seed,
    # the committed artifact re-evaluated through --policy (exercising
    # the artifact loader), and a trace replayed under the committed
    # policy. The training run and the warm-state fork comparison must
    # also hash to what commit 9b008a3 wrote. Fork-evaluation
    # determinism runs in the test suite (ext_train tests).
    rm -rf target/train-smoke
    ./target/release/repro train --quick --threads 2 --out target/train-smoke
    ./target/release/repro fork-compare --quick --threads 2 --out target/train-smoke
    (cd target/train-smoke && sha256sum --check) <<'EOF'
e0cc02e559854baa76fd5b4693e0f1b56aa1c0425241ca2c1e09e3a514361d62  ext_train_0.csv
b46f7195b3f860a64dbe46576eec6373f7674db84cc188daac41d205cc29186f  ext_train_1.csv
5032cc7ad80fc926d94e8ac41bb22020a63d42206c03a5ad8c2174ced25d72e8  ext_train_2.csv
6c8b2a56f2e05ecbdd26cc1354a697e21f65e9260a2b687ad886140822ef8595  learned-linear.v1.json
9792cfd5ea08b5b747229234ddf35f851e364d9c249841bc415074252752060d  ext_warmstart_0.csv
EOF
    python3 - <<'EOF'
import csv, sys

with open("target/train-smoke/ext_train_1.csv", newline="") as f:
    rows = {r[0]: float(r[-1]) for r in list(csv.reader(f))[1:]}
if not rows["LEARNED"] < rows["FIFO"]:
    sys.exit(f"trained policy ({rows['LEARNED']}) must beat FIFO ({rows['FIFO']})")
print(f"smoke-trained policy beats FIFO on held-out seed: {rows['LEARNED']} < {rows['FIFO']}")
EOF
    ./target/release/repro train --quick --threads 2 \
        --policy policies/learned-linear.v1.json --out target/train-smoke-artifact
    ./target/release/repro trace-gen puma --jobs 30 --out target/train-smoke.trace.json
    ./target/release/repro trace-run target/train-smoke.trace.json \
        --policy policies/learned-linear.v1.json
}

serve() {
    # Daemon lifecycle end-to-end: replay half the 1k-job Facebook
    # prefix open-loop, SIGTERM mid-trace (clean exit + final
    # snapshot), restart with --resume, replay the rest, drain,
    # query metrics, and shut down via the protocol verb.
    sh scripts/serve-smoke.sh
}

telemetry() {
    # Per-cell artifacts: both CSVs carry their header, every decision
    # row is one of the five decision tags, and summary.json counts
    # exactly the rows decisions.csv holds.
    ./target/release/repro fig3 --quick --threads 2 --telemetry target/telemetry-smoke
    python3 - <<'EOF'
import csv, json, pathlib, sys

TAGS = {"demote", "spec_launch", "spec_win",
        "admission_defer", "admission_accept"}
root = pathlib.Path("target/telemetry-smoke")
cells = sorted(p for p in root.iterdir() if p.is_dir())
if not cells:
    sys.exit("no telemetry cell directories were written")
for cell in cells:
    for name in ("samples.csv", "decisions.csv"):
        with open(cell / name, newline="") as f:
            rows = list(csv.reader(f))
        if not rows or not rows[0][0] == "t_ms":
            sys.exit(f"{cell / name}: missing t_ms header")
    with open(cell / "decisions.csv", newline="") as f:
        decisions = list(csv.DictReader(f))
    unknown = {row["event"] for row in decisions} - TAGS
    if unknown:
        sys.exit(f"{cell}: unknown decision tags {sorted(unknown)}")
    with open(cell / "summary.json") as f:
        summary = json.load(f)
    if summary["samples"] <= 0:
        sys.exit(f"{cell}: summary reports no samples")
    if summary["decisions"] != len(decisions):
        sys.exit(f"{cell}: summary counts {summary['decisions']} decisions, "
                 f"decisions.csv has {len(decisions)}")
print(f"telemetry artifacts OK for {len(cells)} cells")
EOF
}

# In the order ci.yml ran them.
steps=(perf_smoke benchmark_harness engine_bit_identity ab_pairs
    million_job_perf trace_bytes quick_bytes docs_match interrupt_resume verify
    training serve telemetry)

table=$(printf '%-20s %8s  %s' step seconds result)
failed=0
for step in "${steps[@]}"; do
    echo "=== $step ==="
    started=$SECONDS
    # Not the condition of an `if`: bash ignores `set -e` inside one.
    (set -euo pipefail; "$step")
    if [ $? -eq 0 ]; then
        result=PASS
    else
        result=FAIL
        failed=1
    fi
    table+=$(printf '\n%-20s %8d  %s' "$step" $((SECONDS - started)) "$result")
done

printf '\n%s\n' "$table"
exit "$failed"
