//! Cluster failure drills: a coordinator killed mid-2PC (tentative
//! reservations must TTL-expire, never leak, never double-commit),
//! a gossip-plane partition (degraded-mode rejections, then recovery),
//! and connection resets from a proxy in front of a node (forwards
//! fail with structured errors, then recover; the cluster stays
//! converged).

// Shared with the client drills; this file uses part of it.
#[allow(dead_code)]
#[path = "../../rota-client/tests/support/proxy.rs"]
mod proxy;

use std::time::{Duration, Instant};

use rota_actor::{ActionKind, ActorComputation, DistributedComputation, Granularity};
use rota_admission::RotaPolicy;
use rota_cluster::{Cluster, ClusterConfig, Topology};
use rota_interval::{TimeInterval, TimePoint};
use rota_resource::{LocatedType, Location, Rate, ResourceSet, ResourceTerm};
use rota_server::spec::{resources_from_json, ComputationSpec};
use rota_server::{Request, Response};

use proxy::{Faults, Proxy};

fn theta(locations: &[&str]) -> ResourceSet {
    ResourceSet::from_terms(locations.iter().map(|l| {
        ResourceTerm::new(
            Rate::new(8),
            TimeInterval::from_ticks(0, 64).unwrap(),
            LocatedType::cpu(Location::new(*l)),
        )
    }))
    .unwrap()
}

fn spanning_job(name: &str) -> DistributedComputation {
    DistributedComputation::new(
        name,
        vec![
            ActorComputation::new(format!("{name}-a0"), "l0").then(ActionKind::evaluate()),
            ActorComputation::new(format!("{name}-a1"), "l1").then(ActionKind::evaluate()),
        ],
        TimePoint::ZERO,
        TimePoint::new(16),
    )
    .unwrap()
}

fn local_job(name: &str, location: &str) -> DistributedComputation {
    DistributedComputation::new(
        name,
        vec![ActorComputation::new(format!("{name}-a0"), location).then(ActionKind::evaluate())],
        TimePoint::ZERO,
        TimePoint::new(16),
    )
    .unwrap()
}

fn client(cluster: &Cluster, index: usize) -> rota_client::Client {
    rota_client::Client::connect_timeout(cluster.addrs()[index], Duration::from_secs(2)).unwrap()
}

fn obtainable(cluster: &Cluster, index: usize) -> String {
    match client(cluster, index)
        .call(&Request::ClusterSnapshot)
        .unwrap()
    {
        Response::ClusterState { resources, .. } => resources.to_string(),
        other => panic!("unexpected {other:?}"),
    }
}

fn counter(cluster: &Cluster, index: usize, name: &str) -> u64 {
    let snapshot = client(cluster, index).metrics().unwrap();
    snapshot
        .get(name)
        .and_then(|m| m.get("value"))
        .and_then(rota_obs::Json::as_f64)
        .map(|v| v as u64)
        .unwrap_or(0)
}

/// A coordinator that dies between prepare and commit leaves the
/// cluster exactly as it was: the tentative reservations expire at
/// their TTL (observable via the `server.twopc.expired` counters and
/// the obtainable-resource snapshots), nothing is committed, and the
/// same computation resubmitted through a healthy coordinator is
/// admitted exactly once.
///
/// The test is the coordinator: it takes both owners' snapshots, sends
/// each its `prepare` over the merged basis, and then dies — it never
/// commits.
#[test]
fn coordinator_death_mid_2pc_leaks_nothing_and_never_double_commits() {
    let cluster = Cluster::launch(
        Topology::auto(3),
        &theta(&["l0", "l1", "l2"]),
        RotaPolicy,
        ClusterConfig {
            gossip_interval: Duration::from_millis(20),
            ttl: Duration::from_millis(250),
            ..ClusterConfig::default()
        },
    )
    .unwrap();
    assert!(cluster.await_converged(Duration::from_secs(10)));
    let before_node0 = obtainable(&cluster, 0);
    let before_node1 = obtainable(&cluster, 1);

    // Phase one as a coordinator runs it, against the owners of l0
    // and l1.
    let snapshots: Vec<(Vec<u64>, Vec<_>)> = [0, 1]
        .map(
            |index| match client(&cluster, index).call(&Request::ClusterSnapshot) {
                Ok(Response::ClusterState { epochs, resources }) => {
                    let terms = resources.as_array().expect("resources are an array");
                    (epochs, resources_from_json(terms).expect("spec-form terms"))
                }
                other => panic!("node{index} snapshot: {other:?}"),
            },
        )
        .into();
    let basis: Vec<_> = snapshots
        .iter()
        .flat_map(|(_, terms)| terms.clone())
        .collect();
    for (index, (epochs, _)) in snapshots.into_iter().enumerate() {
        let prepare = Request::Prepare {
            name: "drilled".into(),
            computation: ComputationSpec::from(&spanning_job("drilled")),
            granularity: Granularity::MaximalRun,
            basis: basis.clone(),
            epochs,
            ttl_ms: 250,
        };
        let answer = client(&cluster, index).call(&prepare).unwrap();
        assert!(
            matches!(answer, Response::Prepared { .. }),
            "node{index} must hold the prepare: {answer:?}"
        );
    }
    // The coordinator dies here: no commit, no abort.

    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let now_node0 = obtainable(&cluster, 0);
        let now_node1 = obtainable(&cluster, 1);
        if now_node0 == before_node0 && now_node1 == before_node1 {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "reservations never expired:\n node0 {now_node0}\n node1 {now_node1}"
        );
        std::thread::sleep(Duration::from_millis(25));
    }
    for index in [0, 1] {
        assert!(
            counter(&cluster, index, "server.twopc.expired{shard=0}") >= 1,
            "node{index} never counted the expiry"
        );
    }
    for index in [0, 1] {
        let (stats, _) = client(&cluster, index).stats().unwrap();
        assert_eq!(stats.accepted, 0, "node{index} committed a dead 2PC");
    }

    // The same computation through a healthy coordinator is admitted
    // exactly once — no lingering hold blocks it, no double-commit.
    let response = client(&cluster, 0)
        .admit(&spanning_job("drilled"), Granularity::MaximalRun)
        .unwrap();
    match &response {
        Response::Decision {
            accepted: true,
            reason,
            ..
        } => {
            assert!(reason.contains("two-phase commit"), "{reason}");
        }
        other => panic!("resubmission failed: {other:?}"),
    }
    for index in [0, 1] {
        let (stats, _) = client(&cluster, index).stats().unwrap();
        assert_eq!(stats.accepted, 1, "node{index}");
    }
    cluster.shutdown();
}

/// A partitioned peer is detected by missed heartbeats; requests
/// touching its locations are rejected with the structured
/// `peer-unavailable` diagnostic instead of hanging; healing the
/// partition restores full routing.
#[test]
fn partition_degrades_routing_then_recovers() {
    let cluster = Cluster::launch(
        Topology::auto(3),
        &theta(&["l0", "l1", "l2"]),
        RotaPolicy,
        ClusterConfig {
            gossip_interval: Duration::from_millis(20),
            suspect_after: 3,
            ..ClusterConfig::default()
        },
    )
    .unwrap();
    assert!(cluster.await_converged(Duration::from_secs(10)));

    // Cut node1 off the gossip plane. Within suspect_after rounds the
    // survivors stop hearing fresh beats and mark it suspect.
    cluster.partition("node1", true);
    let node0 = cluster.node("node0").unwrap();
    let deadline = Instant::now() + Duration::from_secs(5);
    while node0.is_alive("node1") {
        assert!(Instant::now() < deadline, "node1 never went suspect");
        std::thread::sleep(Duration::from_millis(10));
    }

    // Degraded mode: a request needing l1 is rejected up front with
    // the structured diagnostic — the policy is never consulted and no
    // socket to the dead peer is touched.
    let response = client(&cluster, 0)
        .admit(&local_job("degraded", "l1"), Granularity::MaximalRun)
        .unwrap();
    match &response {
        Response::Decision {
            accepted,
            clause,
            reason,
            diagnostics,
            ..
        } => {
            assert!(!accepted);
            assert_eq!(
                clause.as_deref(),
                Some("cluster routing (degraded: peer unavailable)"),
                "{reason}"
            );
            let rendered: String = diagnostics.parse().iter().map(|d| d.to_string()).collect();
            assert!(rendered.contains("peer-unavailable"), "{rendered}");
            assert!(rendered.contains("node1"), "{rendered}");
        }
        other => panic!("unexpected {other:?}"),
    }
    assert!(
        counter(&cluster, 0, "cluster.router.degraded_rejects") >= 1,
        "degraded rejects must be counted"
    );
    // Cross-location 2PC touching the dead peer degrades identically.
    let response = client(&cluster, 2)
        .admit(&spanning_job("degraded-span"), Granularity::MaximalRun)
        .unwrap();
    match &response {
        Response::Decision {
            accepted: false,
            clause,
            ..
        } => {
            assert_eq!(
                clause.as_deref(),
                Some("cluster routing (degraded: peer unavailable)")
            );
        }
        other => panic!("unexpected {other:?}"),
    }

    // Heal the partition: gossip re-proves node1 and routing recovers.
    cluster.partition("node1", false);
    let deadline = Instant::now() + Duration::from_secs(5);
    while !node0.is_alive("node1") {
        assert!(Instant::now() < deadline, "node1 never recovered");
        std::thread::sleep(Duration::from_millis(10));
    }
    let response = client(&cluster, 0)
        .admit(&local_job("recovered", "l1"), Granularity::MaximalRun)
        .unwrap();
    assert!(
        matches!(response, Response::Decision { accepted: true, .. }),
        "{response:?}"
    );
    cluster.shutdown();
}

/// Connection resets in front of a node are ridden out: a forward that
/// meets one fails with a structured error (never hangs), the next
/// forward after the proxy's reset budget is burnt is admitted, the
/// proxy counts exactly its budget of resets, and later heartbeats
/// reach the node through it.
///
/// The proxy goes in after launch, so launch's own exchange is not
/// reset, and node1's dials to node0 bypass it and keep both liveness
/// views fresh: the resets cannot make the cluster lose convergence,
/// and the drill checks only that it stays converged.
#[test]
fn gossip_converges_despite_injected_connection_resets() {
    const RESETS: u64 = 8;
    let cluster = Cluster::launch(
        Topology::auto(2),
        &theta(&["l0", "l1"]),
        RotaPolicy,
        ClusterConfig {
            gossip_interval: Duration::from_millis(20),
            ..ClusterConfig::default()
        },
    )
    .unwrap();
    // Every dial to node1 (gossip, forwards) now goes through a proxy
    // that resets the first RESETS connections at their first frame.
    let proxy = Proxy::start(
        cluster.addrs()[1],
        Faults {
            reset_first: RESETS,
            ..Faults::default()
        },
    );
    cluster
        .topology()
        .write()
        .unwrap()
        .set_addr("node1", &proxy.addr().to_string());
    // Forwarded admissions fail with structured errors (never hang)
    // while the reset budget is live, then succeed.
    let deadline = Instant::now() + Duration::from_secs(5);
    let mut refused = 0;
    let verdict = loop {
        let response = client(&cluster, 0)
            .admit(&local_job("after-resets", "l1"), Granularity::MaximalRun)
            .unwrap();
        match response {
            Response::Decision { .. } => break response,
            Response::Error { .. } if Instant::now() < deadline => {
                refused += 1;
                std::thread::sleep(Duration::from_millis(20));
            }
            other => panic!("forwarding never recovered from resets: {other:?}"),
        }
    };
    assert!(refused >= 1, "no forward met a reset");
    assert!(
        matches!(verdict, Response::Decision { accepted: true, .. }),
        "{verdict:?}"
    );
    // The forward got through, so the budget is burnt. Its link is
    // kept for reuse, so the next dial through the proxy is one of
    // node0's heartbeats, and it is not reset.
    let seen = proxy.counts().connections;
    assert!(seen > RESETS, "{:?}", proxy.counts());
    let deadline = Instant::now() + Duration::from_secs(5);
    while proxy.counts().connections == seen {
        assert!(Instant::now() < deadline, "no heartbeat reached node1");
        std::thread::sleep(Duration::from_millis(10));
    }
    assert_eq!(proxy.counts().reset, RESETS);
    assert!(
        cluster.await_converged(Duration::from_secs(10)),
        "resets in front of node1 must not cost the cluster its convergence"
    );
    cluster.shutdown();
}

/// A killed node is detected like a partitioned one: the survivors
/// degrade requests touching its locations and keep serving their own.
#[test]
fn killed_node_degrades_only_its_own_locations() {
    let mut cluster = Cluster::launch(
        Topology::auto(3),
        &theta(&["l0", "l1", "l2"]),
        RotaPolicy,
        ClusterConfig {
            gossip_interval: Duration::from_millis(20),
            ..ClusterConfig::default()
        },
    )
    .unwrap();
    assert!(cluster.await_converged(Duration::from_secs(10)));
    cluster.kill("node2");
    let node0 = cluster.node("node0").unwrap();
    let deadline = Instant::now() + Duration::from_secs(5);
    while node0.is_alive("node2") {
        assert!(Instant::now() < deadline, "node2 never went suspect");
        std::thread::sleep(Duration::from_millis(10));
    }
    // l2 is degraded…
    let response = client(&cluster, 0)
        .admit(&local_job("dead-loc", "l2"), Granularity::MaximalRun)
        .unwrap();
    assert!(
        matches!(
            response,
            Response::Decision {
                accepted: false,
                ..
            }
        ),
        "{response:?}"
    );
    // …but the survivors' locations still admit, including across the
    // surviving pair.
    let response = client(&cluster, 0)
        .admit(&spanning_job("survivors"), Granularity::MaximalRun)
        .unwrap();
    assert!(
        matches!(response, Response::Decision { accepted: true, .. }),
        "{response:?}"
    );
    cluster.shutdown();
}
