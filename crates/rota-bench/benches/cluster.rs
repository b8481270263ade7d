//! E16 — federation routing overhead: the cost of an admission decided
//! on the receiving node vs forwarded to its owner vs coordinated
//! across two owners by two-phase commit, from a third node and from
//! each of the owners, all over real TCP.
//!
//! Every probe is deliberately infeasible (demand beyond the horizon's
//! total supply), so the answer is always a policy reject and the
//! cluster state never drifts between iterations — each arm measures
//! pure routing + decision cost, and the difference between arms is
//! the network topology of the route.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use criterion::{criterion_group, criterion_main, Criterion};
use rota_actor::{ActionKind, ActorComputation, DistributedComputation, Granularity};
use rota_admission::RotaPolicy;
use rota_client::Client;
use rota_cluster::{Cluster, ClusterConfig, Topology};
use rota_interval::{TimeInterval, TimePoint};
use rota_resource::{LocatedType, Location, Rate, ResourceSet, ResourceTerm};
use rota_server::Response;

const HORIZON: u64 = 1_024;
/// Per-location supply is `8 × HORIZON` units; this demand cannot fit.
const INFEASIBLE_UNITS: u64 = 16 * HORIZON;

static NAME: AtomicU64 = AtomicU64::new(0);

fn theta() -> ResourceSet {
    ResourceSet::from_terms((0..3).map(|i| {
        ResourceTerm::new(
            Rate::new(8),
            TimeInterval::from_ticks(0, HORIZON).expect("static interval"),
            LocatedType::cpu(Location::new(format!("l{i}"))),
        )
    }))
    .expect("bounded rates")
}

/// A fresh-named probe whose every actor demands more than a location
/// can supply — rejected, never installed.
fn probe(origins: &[&str]) -> DistributedComputation {
    let name = format!("bench{}", NAME.fetch_add(1, Ordering::Relaxed));
    let actors = origins
        .iter()
        .enumerate()
        .map(|(i, origin)| {
            ActorComputation::new(format!("{name}-a{i}"), *origin)
                .then(ActionKind::evaluate_units(INFEASIBLE_UNITS))
        })
        .collect();
    DistributedComputation::new(name, actors, TimePoint::ZERO, TimePoint::new(HORIZON))
        .expect("deadline > 0")
}

fn admit_rejected(client: &mut Client, origins: &[&str]) {
    match client.admit(&probe(origins), Granularity::MaximalRun) {
        Ok(Response::Decision { accepted, .. }) => assert!(!accepted, "probe must not fit"),
        other => panic!("probe failed: {other:?}"),
    }
}

fn bench_route_overhead(c: &mut Criterion) {
    let cluster = Cluster::launch(
        Topology::auto(3),
        &theta(),
        RotaPolicy,
        ClusterConfig {
            gossip_interval: Duration::from_millis(50),
            ..ClusterConfig::default()
        },
    )
    .expect("launch 3-node cluster");
    assert!(
        cluster.await_converged(Duration::from_secs(10)),
        "gossip must converge before measuring"
    );
    let addrs = cluster.addrs();

    let mut group = c.benchmark_group("cluster/route_overhead");
    group.sample_size(20);

    // Local fast path: node0 owns l0, decides without touching a peer.
    let mut local = Client::connect_timeout(addrs[0], Duration::from_secs(2)).unwrap();
    group.bench_function("direct_to_owner", |b| {
        b.iter(|| admit_rejected(&mut local, &["l0"]))
    });

    // One forward hop: node0 relays the l1 admission to node1.
    let mut relay = Client::connect_timeout(addrs[0], Duration::from_secs(2)).unwrap();
    group.bench_function("via_forwarding_node", |b| {
        b.iter(|| admit_rejected(&mut relay, &["l1"]))
    });

    // Two-phase commit: node2 owns neither l0 nor l1, so it snapshots
    // both owners and relays the (reject) verdict. A rejected 2PC
    // prepares only participant 1, node0, whose prepare decides it.
    let mut coordinator = Client::connect_timeout(addrs[2], Duration::from_secs(2)).unwrap();
    group.bench_function("two_phase_across_owners", |b| {
        b.iter(|| admit_rejected(&mut coordinator, &["l0", "l1"]))
    });

    // Two-phase commit coordinated by the first owner: node0 snapshots
    // itself in-process and node1 over a peer link; its own prepare
    // answers the reject.
    let mut owner = Client::connect_timeout(addrs[0], Duration::from_secs(2)).unwrap();
    group.bench_function("two_phase_from_an_owner", |b| {
        b.iter(|| admit_rejected(&mut owner, &["l0", "l1"]))
    });

    // Two-phase commit coordinated by the later owner: node1 snapshots
    // itself in-process and node0 over a peer link, decides the reject
    // once and confirms it with its own prepare — no remote prepare.
    let mut later_owner = Client::connect_timeout(addrs[1], Duration::from_secs(2)).unwrap();
    group.bench_function("two_phase_from_a_later_owner", |b| {
        b.iter(|| admit_rejected(&mut later_owner, &["l0", "l1"]))
    });

    group.finish();
    cluster.shutdown();
}

criterion_group!(benches, bench_route_overhead);
criterion_main!(benches);
