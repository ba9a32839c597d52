#!/usr/bin/env bash
# Alternating A/B pairs of one benchmark workload: a parent revision against
# the working tree.
#
#   scripts/ab-pairs.sh <parent-rev> <workload> [--pairs N] [--seed S] [--seconds T] [--quick]
#
# The parent is extracted (git archive) into target/ab/parent, which is
# removed on exit. Each side's harness is built by its own benchmark/run.sh
# into its own CARGO_TARGET_DIR (target/ab/parent-target and
# target/ab/change-target, kept for the next call). Then N pairs run, each
# a parent run and a change run of
# `lasmq-benchmark --workload W --seed S --seconds T` from that side's
# source root, the parent first in odd pairs and second in even ones.
# Their stdout is kept in target/ab/runs/.
#
# For every end-to-end metric of BENCHMARK.json the script prints both
# sides' medians with their quartiles and how many pairs the change won, in
# the metric's "better" direction, over the pairs where both runs reported
# the metric (the `pairs` column says how many). It exits non-zero if the
# two sides' `exact` lines differ (events, passes, digest), if a run left
# no result line, if an output check fails, or if any op failed. Defaults: 10 pairs, seed 0, run_seconds of
# BENCHMARK.json. --quick runs the harness's smoke mode: the exact lines
# still have to agree, the numbers are not a measurement.
set -euo pipefail
cd "$(dirname "$0")/.."
root=$PWD

usage() {
    echo "usage: scripts/ab-pairs.sh <parent-rev> <workload>" \
        "[--pairs N] [--seed S] [--seconds T] [--quick]" >&2
    exit 2
}

[ $# -ge 2 ] || usage
rev=$1
workload=$2
shift 2
pairs=10
seed=0
seconds=""
quick=()
while [ $# -gt 0 ]; do
    case $1 in
        --pairs) pairs=${2:?--pairs needs a value}; shift 2 ;;
        --seed) seed=${2:?--seed needs a value}; shift 2 ;;
        --seconds) seconds=${2:?--seconds needs a value}; shift 2 ;;
        --quick) quick=(--quick); shift ;;
        *) usage ;;
    esac
done
[[ $pairs =~ ^[1-9][0-9]*$ ]] || { echo "--pairs must be a positive integer" >&2; exit 2; }
commit=$(git rev-parse --verify --quiet "$rev^{commit}") \
    || { echo "not a commit: $rev" >&2; exit 2; }

ab=$root/target/ab
parent=$ab/parent
runs=$ab/runs
trap 'rm -rf "$parent"' EXIT
trap 'exit 130' INT TERM
rm -rf "$parent" "$runs"
mkdir -p "$parent" "$runs"
git archive --format=tar "$commit" | tar -x -C "$parent"

args=(--workload "$workload" --seed "$seed")
[ -n "$seconds" ] && args+=(--seconds "$seconds")
args+=("${quick[@]}")

# Building runs each side's own benchmark/run.sh; --help makes the built
# harness exit at once.
build() { CARGO_TARGET_DIR=$2 bash "$1/benchmark/run.sh" --help >/dev/null; }
echo "# building the harness at ${commit:0:12} and in the working tree" >&2
build "$parent" "$ab/parent-target"
build "$root" "$ab/change-target"

# One run of side $1 ("parent" or "change") as pair $2. A run that exits
# non-zero is still recorded: its result line says what failed.
run() {
    local side=$1 pair=$2 dir=$root
    [ "$side" = parent ] && dir=$parent
    echo "# pair $pair/$pairs: $side" >&2
    (cd "$dir" && "$ab/$side-target/release/lasmq-benchmark" "${args[@]}") \
        >"$runs/$side.$pair.out" || true
}
for pair in $(seq 1 "$pairs"); do
    if [ $((pair % 2)) -eq 1 ]; then
        run parent "$pair"
        run change "$pair"
    else
        run change "$pair"
        run parent "$pair"
    fi
done

python3 - "$runs" "$pairs" "$workload" <<'EOF'
import json, pathlib, sys

runs, pairs, workload = pathlib.Path(sys.argv[1]), int(sys.argv[2]), sys.argv[3]
metrics = json.loads(pathlib.Path("BENCHMARK.json").read_text())["end_to_end"]


def load(side, pair):
    lines = (runs / f"{side}.{pair}.out").read_text().splitlines()
    exact = next((l for l in lines if l.startswith("exact\t")), None)
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = None
    return exact, result


def quartiles(xs):
    xs = sorted(xs)

    def at(q):
        pos = q * (len(xs) - 1)
        lo = int(pos)
        hi = min(lo + 1, len(xs) - 1)
        return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)

    return at(0.25), at(0.5), at(0.75)


sides = {s: [load(s, p) for p in range(1, pairs + 1)] for s in ("parent", "change")}
problems = []
for side, results in sides.items():
    for pair, (exact, result) in enumerate(results, 1):
        if result is None:
            problems.append(f"{side} run {pair}: no result line")
            continue
        if exact is None:
            problems.append(f"{side} run {pair}: no exact line")
        if result.get("correct") is not True:
            problems.append(f"{side} run {pair}: output checks failed")
        if result.get("failed") != 0:
            problems.append(f"{side} run {pair}: {result.get('failed')} op(s) failed")
# A run without a result line is reported above and takes no part in the
# agreement check, so one broken run does not read as a behaviour change.
exacts = {
    side: {e for e, r in results if r is not None and e is not None}
    for side, results in sides.items()
}
if len(exacts["parent"] | exacts["change"]) > 1:
    problems.append("exact lines differ:\n  parent: %s\n  change: %s" % (
        " | ".join(sorted(map(str, exacts["parent"]))),
        " | ".join(sorted(map(str, exacts["change"])))))

print(f"\n{workload}: {pairs} alternating pair(s), median [q1, q3] over the pairs")
print("where both sides reported the metric")
print(f"{'metric':12} {'pairs':>6} {'parent':>30} {'change':>30} {'change/parent':>14} {'won':>6}")
for m in metrics:
    name, higher = m["name"], m["better"] == "higher"
    value = lambda r: None if r is None else r["metrics"].get(name, {}).get("value")
    both = [
        (value(p), value(c))
        for (_, p), (_, c) in zip(sides["parent"], sides["change"])
        if value(p) is not None and value(c) is not None
    ]
    if not both:
        print(f"{name:12} missing")
        continue
    stats = [quartiles(side) for side in zip(*both)]
    cells = [f"{q2:.4g} [{q1:.4g}, {q3:.4g}]" for q1, q2, q3 in stats]
    ratio = stats[1][1] / stats[0][1] if stats[0][1] else float("nan")
    won = sum((c > p) if higher else (c < p) for p, c in both)
    used = f"{len(both)}/{pairs}"
    print(f"{name:12} {used:>6} {cells[0]:>30} {cells[1]:>30} {ratio:>13.3f}x {won:>3}/{len(both)}")
if problems:
    print("FAILED:\n" + "\n".join(problems))
    sys.exit(1)
print(next(iter(exacts["change"])))
print("exact lines agree; every output check passed; no op failed")
EOF
