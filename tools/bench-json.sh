#!/usr/bin/env bash
# Records one commit's benchmark figures in BENCH_<NUMBER>.json, NUMBER
# being the change's place in the project's sequence of changes.
#
#   bash tools/bench-json.sh NUMBER [REV]
#
# Measures the working tree, or, given REV, that commit: REV is
# extracted with `git archive` into a temporary directory and built
# there, with that directory's own CARGO_TARGET_DIR. For each workload
# it runs the unchanged
#
#   bash admbench/run.sh --workload W --seed S --seconds 15 --trace 0
#
# on the seeds in SEEDS below and records every end-to-end metric of
# BENCHMARK.json as the median and interquartile range of those runs,
# plus how many runs were `correct` and how many admits `failed`. Then
# one traced run per workload (`--trace 1`, the first seed) records
# `server.request_p50_us` as read, and, for a workload that runs a
# cluster (CLUSTER_WORKLOADS below), every `cluster.*_p50_us`: on a
# `serve` workload admbench files every admit under the direct route,
# so those figures would be a plain client round trip, not a route.
#
# Then it runs the loadtest of ROADMAP item 11 (LOADTEST below: one
# shard, 64 locations, a 4000-tick horizon and 20,000 chain jobs, which
# leave ~15k live commitments) LOADTEST_RUNS times with the rota-cli
# that admbench built, and records the median req/s and p90 latency
# and every run's accept count.
#
# Last it runs E17's codec bench once (CODEC below, the criterion shim
# of shims/criterion) and records each `decode`, `encode` and `frame`
# row's ns/iter from the shim's `bench:` lines, keyed by its name
# without the frame's byte count (`decode/prepare-110t`), and the
# `convert` rows (`convert/basis-27t`, `convert/basis-55t`): the step a
# two-phase commit takes from a decoded `cluster-state` answer's
# `resources` tree to the set it decides on, which still runs the
# spec's per-field tree decoder.
#
# The file, at the repository root, also names the revision (with
# `-dirty` for a working tree that differs from HEAD), the date, the
# pass's length in seconds, `nproc`, the CPU model and this command. It changes no gate: BENCHMARK.json and
# tools/bench-pair.sh stay the gates; `tools/bench-diff.sh A B` compares
# two files. Each run's result and record lines are kept in
# .bench_out/bench-json-NUMBER.jsonl. On a 2-vCPU machine with warm
# builds, a pass without the codec bench took 45 s (BENCH_31.json) and
# one with it 97 s (BENCH_34.json), most of the difference its build.
set -euo pipefail

WORKLOADS=(mixed-small chain-deep cluster-mixed)
# The workloads admbench runs against `rota-cli cluster` (its
# `Deployment::Cluster` rows in admbench/src/workload.rs).
CLUSTER_WORKLOADS=(cluster-mixed)
SEEDS=(11 12 13 14 15)
SECONDS_PER_RUN=15
LOADTEST=(loadtest --policy rota --nodes 64 --horizon 4000 --shape chain
    --jobs 20000 --connections 1 --seed 7 --shards 1)
LOADTEST_RUNS=3
CODEC=(cargo bench -q -p rota-bench --bench codec)

if [[ $# -lt 1 || $# -gt 2 ]]; then
    echo "usage: bash tools/bench-json.sh NUMBER [REV]" >&2
    exit 1
fi
number="$1"
root="$(git rev-parse --show-toplevel)"
cd "$root"
command="bash tools/bench-json.sh $*"
tree="$root"
target="${CARGO_TARGET_DIR:-$root/.bench_build}"
if [[ $# -eq 2 ]]; then
    revision="$(git rev-parse --verify "$2^{commit}")"
    extract="$(mktemp -d)"
    trap 'rm -rf "$extract"' EXIT
    git archive --format=tar "$revision" | tar -x -C "$extract"
    tree="$extract"
    target="$extract/.bench_build"
else
    revision="$(git rev-parse HEAD)"
    if [[ -n "$(git status --porcelain --untracked-files=no)" ]]; then
        revision="$revision-dirty"
    fi
fi
mkdir -p .bench_out
out=".bench_out/bench-json-$number.jsonl"
: > "$out"

run() { # workload seed trace
    local log
    log="$(mktemp)"
    if ! (cd "$tree" && CARGO_TARGET_DIR="$target" bash admbench/run.sh \
        --workload "$1" --seed "$2" --seconds "$SECONDS_PER_RUN" --trace "$3") > "$log"; then
        echo "  $1 seed $2 trace $3: admbench exited non-zero" >&2
    fi
    python3 - "$1" "$2" "$3" "$log" >> "$out" <<'EOF'
import json, sys
workload, seed, trace, log = sys.argv[1], int(sys.argv[2]), int(sys.argv[3]), sys.argv[4]
record, result = {}, None
for line in open(log):
    if line.startswith("{"):
        doc = json.loads(line)
        if "record" in doc:
            record = doc["record"]
        else:
            result = doc
print(json.dumps({"workload": workload, "seed": seed, "trace": trace,
                  "record": record, "result": result}))
EOF
    rm -f "$log"
    echo "  $1 seed $2 trace $3 done" >&2
}

echo "measuring ${revision:0:12}${revision:40}" >&2
for workload in "${WORKLOADS[@]}"; do
    for seed in "${SEEDS[@]}"; do
        run "$workload" "$seed" 0
    done
    run "$workload" "${SEEDS[0]}" 1
done

for run in $(seq "$LOADTEST_RUNS"); do
    log="$(mktemp)"
    if ! (cd "$tree" && "$target/release/rota-cli" "${LOADTEST[@]}") > "$log"; then
        echo "  loadtest run $run: rota-cli exited non-zero" >&2
    fi
    python3 - "$log" >> "$out" <<'EOF'
import json, re, sys
text = open(sys.argv[1]).read()
def number(pattern):
    found = re.search(pattern, text)
    return float(found.group(1)) if found else None
print(json.dumps({"loadtest": {
    "req_per_s": number(r"throughput\s+([0-9.]+) req/s"),
    "p90_us": number(r"p90=([0-9.]+)us"),
    "accepted": int(number(r"accepted=([0-9]+)") or 0),
}}))
EOF
    rm -f "$log"
    echo "  loadtest run $run done" >&2
done

log="$(mktemp)"
if ! (cd "$tree" && CARGO_TARGET_DIR="$target" "${CODEC[@]}") > "$log" 2> /dev/null; then
    echo "  codec bench: cargo bench exited non-zero" >&2
fi
python3 - "$log" >> "$out" <<'EOF'
import json, re, sys
rows = {}
for line in open(sys.argv[1]):
    found = re.match(r"bench: e17/((?:decode|encode|frame|convert)/\S+?)(?:/\d+B)?\s+([0-9.]+) ns/iter", line)
    if found:
        rows[found.group(1)] = float(found.group(2))
print(json.dumps({"codec": rows}))
EOF
rm -f "$log"
echo "  codec bench done" >&2

cpu_model="$(awk -F': ' '/^model name/ { print $2; exit }' /proc/cpuinfo)"
python3 - "$out" BENCHMARK.json "BENCH_$number.json" "$number" "$revision" "$(nproc)" \
    "${cpu_model:-unknown}" "$command" "$SECONDS_PER_RUN" "$SECONDS" "${CLUSTER_WORKLOADS[*]}" "rota-cli ${LOADTEST[*]}" \
    "${CODEC[*]}" <<'EOF'
import datetime, json, statistics, sys
(out, bench, path, number, revision, nproc, cpu, command, seconds, elapsed, clusters,
 loadtest_command, codec_command) = sys.argv[1:14]
clusters = clusters.split()
lines = [json.loads(line) for line in open(out)]
runs = [line for line in lines if "workload" in line]
loadtests = [line["loadtest"] for line in lines if "loadtest" in line]
codec = next((line["codec"] for line in lines if "codec" in line), {})
metrics = json.load(open(bench))["end_to_end"]

def value(run, name):
    return ((run["result"] or {}).get("metrics", {}).get(name) or {}).get("value")

workloads = {}
for workload in dict.fromkeys(run["workload"] for run in runs):
    plain = [r for r in runs if r["workload"] == workload and r["trace"] == 0]
    traced = [r for r in runs if r["workload"] == workload and r["trace"] == 1]
    end_to_end = {}
    for metric in metrics:
        values = [v for v in (value(r, metric["name"]) for r in plain) if v is not None]
        if not values:
            continue
        if len(values) > 1:
            q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
        else:
            q1 = median = q3 = values[0]
        end_to_end[metric["name"]] = {
            "median": median, "q1": q1, "q3": q3, "iqr": q3 - q1,
            "unit": metric["unit"], "better": metric["better"], "runs": values,
        }
    per_layer = {}
    for run in traced:
        for name, metric in ((run["result"] or {}).get("metrics") or {}).items():
            if name == "server.request_p50_us" or (
                    workload in clusters
                    and name.startswith("cluster.") and name.endswith("_p50_us")):
                per_layer[name] = metric.get("value")
    workloads[workload] = {
        "seeds": [r["seed"] for r in plain],
        "correct": sum(bool((r["result"] or {}).get("correct")) for r in plain + traced),
        "runs": len(plain) + len(traced),
        "failed": sum((r["result"] or {}).get("failed", 0) for r in plain + traced),
        "end_to_end": end_to_end,
        "traced_seed": traced[0]["seed"] if traced else None,
        "per_layer": per_layer,
    }

doc = {
    "number": int(number),
    "revision": revision,
    "date": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
    "pass_seconds": int(elapsed),
    "nproc": int(nproc),
    "cpu_model": cpu,
    "command": command,
    "run": f"bash admbench/run.sh --workload W --seed S --seconds {seconds} --trace 0|1",
    "workloads": workloads,
}
if loadtests:
    def middle(name):
        values = [run[name] for run in loadtests if run[name] is not None]
        return statistics.median(values) if values else None
    doc["loadtest"] = {
        "command": loadtest_command,
        "req_per_s": middle("req_per_s"),
        "p90_us": middle("p90_us"),
        "accepted": [run["accepted"] for run in loadtests],
        "runs": loadtests,
    }
if codec:
    doc["codec"] = {"command": codec_command, "ns_per_iter": codec}
with open(path, "w") as f:
    json.dump(doc, f, indent=2)
    f.write("\n")
print(path)
EOF
