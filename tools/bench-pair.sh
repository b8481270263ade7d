#!/usr/bin/env bash
# Paired benchmark runs: a base commit against the working tree.
#
#   bash tools/bench-pair.sh WORKLOAD FIRST_SEED N [BASE]
#
# Extracts BASE (default HEAD) with `git archive` into a temporary
# directory and builds it there, with that directory's own
# CARGO_TARGET_DIR; the working tree builds into its usual
# .bench_build. Then runs N pairs of
#
#   bash admbench/run.sh --workload WORKLOAD --seed S --seconds 15 --trace 0
#
# for seeds FIRST_SEED .. FIRST_SEED+N-1, one run per side and seed,
# alternating which side runs first. For every end-to-end metric in
# BENCHMARK.json it prints each side's median and quartiles, the pairs
# the working tree won and tied out of all pairs (`wins/ties/pairs`; a
# tie counts for neither side, and a metric read in coarse steps, like
# `cpu_us_per_admit` on `cluster-mixed`, ties often), and two verdicts:
#
#   gain   `yes` when the working tree won at least 9 in 10 pairs and
#          its median differs from the base's by more than the base's
#          interquartile range: the evidence a claimed gain needs.
#   bound  `ok` when the working tree's median is no worse than the
#          base's by more than the metric's BENCHMARK.json bound (a
#          fraction of the base median); `WORSE` when it is;
#          `unresolved` when the base's interquartile range is wider
#          than the bound, unless every working-tree run beats every
#          base run.
#
# Every run's result and record lines are kept in
# .bench_out/pair-WORKLOAD-FIRST_SEED-N.jsonl.
#
# Run it from anywhere inside the repository; it only invokes
# admbench/run.sh and changes nothing under admbench/.
set -euo pipefail

if [[ $# -lt 3 || $# -gt 4 ]]; then
    echo "usage: bash tools/bench-pair.sh WORKLOAD FIRST_SEED N [BASE]" >&2
    exit 1
fi
workload="$1"
first="$2"
pairs="$3"
base="${4:-HEAD}"

root="$(git rev-parse --show-toplevel)"
cd "$root"
base_rev="$(git rev-parse --verify "$base^{commit}")"
scratch="$(mktemp -d)"
trap 'rm -rf "$scratch"' EXIT
mkdir -p "$scratch/base" .bench_out
git archive --format=tar "$base_rev" | tar -x -C "$scratch/base"
out=".bench_out/pair-$workload-$first-$pairs.jsonl"
: > "$out"

build() { # tree target_dir
    (cd "$1" && export CARGO_TARGET_DIR="$2" &&
        cargo build --release --offline --quiet -p rota-cli &&
        cargo build --release --offline --quiet --manifest-path admbench/Cargo.toml)
}
echo "building base ${base_rev:0:12} and the working tree" >&2
build "$scratch/base" "$scratch/base/.bench_build"
build "$root" "${CARGO_TARGET_DIR:-$root/.bench_build}"

run() { # side seed
    local tree="$root" target="${CARGO_TARGET_DIR:-$root/.bench_build}" log
    if [[ "$1" == base ]]; then
        tree="$scratch/base" target="$scratch/base/.bench_build"
    fi
    log="$scratch/run.log"
    if ! (cd "$tree" && CARGO_TARGET_DIR="$target" bash admbench/run.sh \
        --workload "$workload" --seed "$2" --seconds 15 --trace 0) > "$log"; then
        echo "  $1 seed $2: admbench exited non-zero" >&2
    fi
    python3 - "$1" "$2" "$log" >> "$out" <<'EOF'
import json, sys
side, seed, log = sys.argv[1], int(sys.argv[2]), sys.argv[3]
record, result = {}, None
for line in open(log):
    if line.startswith("{"):
        doc = json.loads(line)
        if "record" in doc:
            record = doc["record"]
        else:
            result = doc
print(json.dumps({"side": side, "seed": seed, "record": record, "result": result}))
EOF
    echo "  $1 seed $2 done" >&2
}

for ((i = 0; i < pairs; i++)); do
    seed=$((first + i))
    if ((i % 2 == 0)); then
        run base "$seed"
        run change "$seed"
    else
        run change "$seed"
        run base "$seed"
    fi
done

python3 - "$out" BENCHMARK.json "${base_rev:0:12}" <<'EOF'
import json, statistics, sys
runs = [json.loads(line) for line in open(sys.argv[1])]
metrics = json.load(open(sys.argv[2]))["end_to_end"]
by = {"base": {}, "change": {}}
for run in runs:
    by[run["side"]][run["seed"]] = run
seeds = sorted(set(by["base"]) & set(by["change"]))

def value(run, name):
    result = run["result"] or {}
    return result.get("metrics", {}).get(name, {}).get("value")

def spread(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3

print(f"{len(seeds)} pairs, seeds {seeds[0]}..{seeds[-1]}; base {sys.argv[3]} vs working tree")
for side in ("base", "change"):
    results = [by[side][s]["result"] or {} for s in seeds]
    waits = [by[side][s]["record"].get("time_wait_at_start") for s in seeds]
    print(f"  {side:6} correct={sum(bool(r.get('correct')) for r in results)}/{len(seeds)}"
          f" failed={sum(r.get('failed', 0) for r in results)}"
          f" attempted={sum(r.get('attempted', 0) for r in results)}"
          f" time_wait_at_start={waits}")
def bound_verdict(base, change, bound, lower):
    """`ok`, `WORSE` or `unresolved` for one metric's runs."""
    (q1, median, q3), change_median = spread(base), spread(change)[1]
    if all((c < b) if lower else (c > b) for c in change for b in base):
        return "ok"
    allowed = bound * abs(median)
    if q3 - q1 > allowed:
        return "unresolved"
    worse_by = (change_median - median) if lower else (median - change_median)
    return "WORSE" if worse_by > allowed else "ok"

print(f"{'metric':20} {'base q1/median/q3':>32} {'change q1/median/q3':>32}  wins/ties/pairs  gain  bound")
for metric in metrics:
    name, lower = metric["name"], metric["better"] == "lower"
    pairs = [(value(by["base"][s], name), value(by["change"][s], name)) for s in seeds]
    pairs = [(b, c) for b, c in pairs if b is not None and c is not None]
    if not pairs:
        continue
    wins = sum((c < b) if lower else (c > b) for b, c in pairs)
    ties = sum(c == b for b, c in pairs)
    base_runs, change_runs = [b for b, _ in pairs], [c for _, c in pairs]
    (q1, base_median, q3), change_median = spread(base_runs), spread(change_runs)[1]
    gain = "yes" if 10 * wins >= 9 * len(pairs) and abs(change_median - base_median) > q3 - q1 else "-"
    bound = bound_verdict(base_runs, change_runs, metric["bound"], lower)
    base = "/".join(f"{v:.4g}" for v in (q1, base_median, q3))
    change = "/".join(f"{v:.4g}" for v in spread(change_runs))
    print(f"{name:20} {base:>32} {change:>32}  {f'{wins}/{ties}/{len(pairs)}':15}  {gain:4}  {bound}")
EOF
echo "raw results: $out" >&2
