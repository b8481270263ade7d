# Development shortcuts. Install `just` (https://just.systems) or copy
# the recipe bodies into a shell.

# Build, test, lint, formatting and warning-free rustdoc — the bar
# every change must clear. The cluster and chaos-cluster drills run
# first (they are also part of `cargo test`, but failures there should
# name the federation, not a test id).
# The benchmark's own tests run last, so an API change that breaks
# `admbench` fails here too.
verify: cluster chaos-cluster
    cargo build --release
    cargo test -q --workspace
    cargo clippy --workspace --all-targets -- -D warnings
    cargo fmt --all -- --check
    RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps
    cargo run -q -p repolint
    just admbench-test

# The benchmark harness's tests (a standalone package outside the
# workspace; see admbench/README.md).
admbench-test:
    cargo test --release --manifest-path admbench/Cargo.toml

# Repo conventions linter on its own (unwrap/expect bans, forbid(unsafe_code)).
repolint:
    cargo run -q -p repolint

# Non-test Rust lines per crate, as CHANGES.md entries quote them, then
# their total. Each source file counts up to the `#[cfg(test)]` that
# opens its `mod tests` block; a lone `#[cfg(test)]` item further up (a
# test-only helper) does not end the count.
loc:
    #!/usr/bin/env bash
    set -euo pipefail
    all=0
    for crate in crates/*/; do
        total=0
        for file in $(find "$crate/src" -name '*.rs' | sort); do
            lines=$(awk '
                cut && /^[[:space:]]*(pub(\([a-z]+\))? )?mod tests/ { print NR - 2; found = 1; exit }
                { cut = /^[[:space:]]*#\[cfg\(test\)\][[:space:]]*$/ }
                END { if (!found) print NR }' "$file")
            total=$((total + lines))
        done
        printf '%-16s %6d\n' "$(basename "$crate")" "$total"
        all=$((all + total))
    done
    printf '%-16s %6d\n' total "$all"

# Golden-file check: every lint fixture produces exactly its documented
# diagnostic codes and exit status through the real `rota-cli check` binary.
check-fixtures:
    cargo test -q -p rota-cli --test check_fixtures

# Static analysis of a spec file without admission (see DESIGN.md §11).
check *ARGS:
    cargo run -q -p rota-cli --bin rota-cli -- check {{ARGS}}

# Full benchmark sweep (slow; see EXPERIMENTS.md for recorded numbers).
bench:
    cargo bench -p rota-bench

# Paired evidence for a claimed gain (choosing-metrics guide, section 8):
# N pairs of BASE (default HEAD, built in a temporary `git archive`
# extract) against the working tree on one admbench workload, seeds
# FIRST..FIRST+N-1, 15 s runs, alternating which side runs first. Prints
# each end-to-end metric's medians, quartiles and the change's win count,
# with its `gain` verdict (≥ 9/10 wins and Δmedian > the base's IQR) and
# `bound` verdict (ok / WORSE / unresolved against BENCHMARK.json).
bench-pair W FIRST N BASE="HEAD":
    bash tools/bench-pair.sh {{W}} {{FIRST}} {{N}} {{BASE}}

# The perf record (ROADMAP item 14): writes BENCH_<NUMBER>.json with each
# workload's end-to-end medians and IQRs over five fixed seeds, one
# traced run's `server.request_p50_us` and `cluster.*_p50_us`, item
# 11's loadtest, one run of E17's codec rows (`decode`, `encode`,
# `frame`), and the revision, date, nproc and CPU model. Measures the
# working tree, or
# REV when given (built in a temporary `git archive` extract).
bench-json NUMBER REV="":
    bash tools/bench-json.sh {{NUMBER}} {{REV}}

# Each metric's ratio between two BENCH_*.json files (B / A).
bench-diff A B:
    bash tools/bench-diff.sh {{A}} {{B}}

# E2 on its own: resource-set build cost against term count, type
# diversity and term order (descending and nested terms on one located
# type, up to n = 4096), plus the windowed queries.
bench-e2:
    cargo bench -p rota-bench --bench resource_set

# E4 on its own: Theorem-4 decision cost, and the whole submit with
# every reservation on the probe's own located type, vs committed count
# n, up to n = 10⁴ (the admission bench binary runs all its groups;
# this keeps the E4 lines).
bench-e4:
    cargo bench -p rota-bench --bench admission | grep 'e4/'

# E15 on its own: pre-admission validation and the other lint
# configurations against the decision, by actor count and by supply
# size (24, 192 and 768 terms).
bench-e15:
    cargo bench -p rota-bench --bench analyze | grep 'e15/'

# The admission observability-overhead check on its own.
bench-obs:
    cargo bench -p rota-bench --bench admission

# E16 on its own: one admission decided on its owner, forwarded to
# it, and coordinated by two-phase commit across two owners, against a
# live 3-node cluster over TCP.
bench-e16:
    cargo bench -p rota-bench --bench cluster

# E17 on its own: wire codec decode and encode cost against frame
# size (prepare and cluster-state frames of 3–110 basis terms, the
# R0006 decision, an admit, a cap-sized one-string admit).
bench-codec:
    cargo bench -p rota-bench --bench codec

# Regenerate the metric/journal demo dump.
stats:
    cargo run -p rota-cli -- stats

# Run the sharded admission service (ctrl-c or the `shutdown` verb stops it).
serve *ARGS:
    cargo run --release -p rota-cli --bin rota-cli -- serve {{ARGS}}

# Drive a freshly spawned server with generated traffic; E13 numbers come
# from `just loadtest --policy all --jobs 2000 --connections 8`.
loadtest *ARGS:
    cargo run --release -p rota-cli --bin rota-cli -- loadtest {{ARGS}}

# Federation end-to-end: gossip convergence, location routing (local /
# forward / 2PC), offer splitting, and the 3-node-vs-merged-oracle
# verdict-equivalence property (DESIGN.md §12), plus the crate's unit
# tests (gossip schedule, topology parsing, routing classification,
# peer links).
cluster:
    cargo test -q -p rota-cluster --lib --test e2e --test properties

# Federation failure drills, with a test proxy in front of every node:
# a coordinator killed mid-2PC must leak no reservations and
# double-commit nothing; partitions (proxy cuts) degrade to structured
# `peer-unavailable` rejects and recover; resets in front of both nodes
# of a pair cost convergence (the peer goes suspect) until their budget
# is spent, then it comes back.
chaos-cluster:
    cargo test -q -p rota-cluster --test chaos

# Run an in-process federation from the CLI (any node admits anything).
serve-cluster *ARGS:
    cargo run --release -p rota-cli --bin rota-cli -- cluster {{ARGS}}

# The E16 federation loadtest: connections spread round-robin over an
# ephemeral in-process cluster; the report adds per-node stats and the
# summed routing/2PC counters.
loadtest-cluster *ARGS:
    cargo run --release -p rota-cli --bin rota-cli -- loadtest --cluster 3 \
        --jobs 2000 --connections 8 {{ARGS}}

# The six-seed cluster loadtest (EXPERIMENTS E16, E20) on the release
# build: per seed, the jobs decided, the jobs that ended in an error,
# the 2PCs started and their retries after a `stale-epoch` answer, then
# the sums.
cluster-races:
    #!/usr/bin/env bash
    set -euo pipefail
    cargo build --release -q -p rota-cli
    printf '%-6s %8s %7s %7s %8s\n' seed decided errors 2pcs retries
    sums=(0 0 0 0)
    for seed in 1 2 3 4 5 6; do
        row=($(./target/release/rota-cli loadtest --cluster 3 --nodes 3 --horizon 768 \
            --shape mixed --slack 3 --jobs 700 --connections 2 --seed "$seed" |
            awk '{ for (i = 1; i <= NF; i++) if (split($i, kv, "=") == 2) v[kv[1]] = kv[2] }
                 END { print v["accepted"] + v["rejected"], v["errors"] + 0,
                             v["twopc.started"] + 0, v["twopc.retries"] + 0 }'))
        printf '%-6s %8d %7d %7d %8d\n' "$seed" "${row[@]}"
        for i in 0 1 2 3; do sums[i]=$((sums[i] + row[i])); done
    done
    printf '%-6s %8d %7d %7d %8d\n' total "${sums[@]}"

# The E14 chaos battery: seeded faults from a test proxy in front of a
# 4-shard server (latency, truncation, resets) plus a policy that panics
# on its 500th decision, against a loadtest retrying up to 8 attempts
# per job. Prints the report; fails unless errors=0 and exactly one
# shard panic is counted (DESIGN.md §10, EXPERIMENTS.md E14).
chaos:
    cargo test --release -p rota-client --test chaos -- --ignored --nocapture e14_battery
