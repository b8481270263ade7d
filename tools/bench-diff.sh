#!/usr/bin/env bash
# Compares two records written by tools/bench-json.sh.
#
#   bash tools/bench-diff.sh BENCH_A.json BENCH_B.json
#
# For every workload and metric the two files share, prints A's and B's
# value and the ratio B / A: for an end-to-end metric the medians, with
# A's interquartile range beside them, and for a traced per-layer metric
# the single traced reading; and, when both files hold it, item 11's
# loadtest (median req/s and p90, and the accept counts), and E17's
# codec rows, `convert` among them when both files hold it (ns/iter of
# one run each, lower is better). A ratio
# below 1 is an improvement for a
# metric where lower is better (latencies, CPU), above 1 for one where
# higher is better (throughput, ratios); the `better` column names the
# direction. It only reads the two files and gates nothing.
#
# It prints both files' dates. Passes taken further apart than one pass
# lasts (the longer `pass_seconds` of the two, or 4 minutes for a file
# without it) are records, not evidence: on a 2-vCPU VM a repeat pass
# over one tree has read 12–37% worse. It says so, and names
# tools/bench-pair.sh, which alternates the two trees, as the evidence.
set -euo pipefail

if [[ $# -ne 2 ]]; then
    echo "usage: bash tools/bench-diff.sh BENCH_A.json BENCH_B.json" >&2
    exit 1
fi
python3 - "$1" "$2" <<'EOF'
import datetime, json, sys
a, b = (json.load(open(path)) for path in sys.argv[1:3])
for label, path, doc in (("A", sys.argv[1], a), ("B", sys.argv[2], b)):
    revision = doc["revision"][:12] + ("-dirty" if doc["revision"].endswith("-dirty") else "")
    print(f"{label}: {path} ({revision}, {doc['date']}, {doc['nproc']} CPUs, {doc['cpu_model']})")
apart = abs((datetime.datetime.fromisoformat(b["date"])
             - datetime.datetime.fromisoformat(a["date"])).total_seconds())
one_pass = max(a.get("pass_seconds", 240), b.get("pass_seconds", 240))
print(f"taken {apart / 60:.0f} min apart; one pass lasts {one_pass / 60:.0f} min")
if apart > one_pass:
    print("The passes were not taken together, so the ratios below are records, not")
    print("evidence: a repeat pass over one tree has read 12-37% worse. For evidence,")
    print("alternate the two trees with tools/bench-pair.sh.")

def ratio(x, y):
    return f"{y / x:.3f}" if x else "-"

for workload, wa in a["workloads"].items():
    wb = b["workloads"].get(workload)
    if wb is None:
        continue
    print(f"\n{workload}: A correct {wa['correct']}/{wa['runs']} failed {wa['failed']}; "
          f"B correct {wb['correct']}/{wb['runs']} failed {wb['failed']}")
    print(f"  {'metric':28} {'A median':>12} {'A IQR':>10} {'B median':>12} {'B/A':>7}  better")
    for name, ma in wa["end_to_end"].items():
        mb = wb["end_to_end"].get(name)
        if mb is None:
            continue
        print(f"  {name:28} {ma['median']:12.4g} {ma['iqr']:10.3g} {mb['median']:12.4g} "
              f"{ratio(ma['median'], mb['median']):>7}  {ma['better']}")
    for name, va in wa["per_layer"].items():
        vb = wb["per_layer"].get(name)
        if va is None or vb is None:
            continue
        print(f"  {name:28} {va:12.4g} {'(traced)':>10} {vb:12.4g} {ratio(va, vb):>7}  lower")

la, lb = a.get("loadtest"), b.get("loadtest")
if la and lb:
    print(f"\nloadtest ({lb['command']}): accepted A {la['accepted']}, B {lb['accepted']}")
    print(f"  {'metric':28} {'A median':>12} {'':>10} {'B median':>12} {'B/A':>7}  better")
    for name, better in (("req_per_s", "higher"), ("p90_us", "lower")):
        va, vb = la.get(name), lb.get(name)
        if va is None or vb is None:
            continue
        print(f"  {name:28} {va:12.4g} {'':>10} {vb:12.4g} {ratio(va, vb):>7}  {better}")

ca, cb = a.get("codec"), b.get("codec")
if ca and cb:
    print(f"\ncodec ({cb['command']}), ns/iter of one run each")
    print(f"  {'row':28} {'A':>12} {'':>10} {'B':>12} {'B/A':>7}  better")
    for name, va in ca["ns_per_iter"].items():
        vb = cb["ns_per_iter"].get(name)
        if vb is None:
            continue
        print(f"  {name:28} {va:12.4g} {'':>10} {vb:12.4g} {ratio(va, vb):>7}  lower")
EOF
